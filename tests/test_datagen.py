import re

import numpy as np
import pytest

from upcr import datagen, geom
from upcr.datagen import (CloudParseError, Protocol, add_noise, build_benchmark,
                          load_cloud, make_partial, make_sample, sample_transform,
                          save_cloud, synth_shape)
from upcr.geom import PointCloud
from upcr.rng import Rng

from conftest import chamfer


# ---------------------------------------------------------------------------
# synth_shape


def test_synth_shape_deterministic():
    a = synth_shape(3, 128, Rng(42))
    b = synth_shape(3, 128, Rng(42))
    assert np.array_equal(a.points, b.points)


def test_synth_shape_normalization():
    for cat in (0, 7, 21, 38):
        cloud = synth_shape(cat, 200, Rng(cat))
        np.testing.assert_allclose(cloud.points.mean(axis=0), 0.0, atol=1e-9)
        assert abs(np.linalg.norm(cloud.points, axis=1).max() - 1.0) <= 1e-9


def test_synth_shape_categories_distinct():
    a = synth_shape(0, 256, Rng(1))
    b = synth_shape(20, 256, Rng(1))
    assert chamfer(a, b) > 0.01


def test_synth_shape_minimum_points():
    with pytest.raises(ValueError):
        synth_shape(0, 8, Rng(1))


# ---------------------------------------------------------------------------
# sample_transform


def test_modelnet_bounds_hold_on_many_draws():
    rng = Rng(5)
    angles = []
    for _ in range(10000):
        t = sample_transform("modelnet_style", rng)
        ang = np.rad2deg(geom.euler_from_matrix(t.rotation))
        angles.append(ang)
        assert np.all(ang >= -1e-9) and np.all(ang <= 45.0 + 1e-9)
        assert np.all(np.abs(t.translation) <= 0.5)
    mean = np.mean(angles)
    assert abs(mean - 22.5) < 1.0


def test_sevenscenes_single_axis():
    rng = Rng(6)
    for _ in range(500):
        t = sample_transform("sevenscenes_style", rng)
        ang = geom.euler_from_matrix(t.rotation)
        assert np.count_nonzero(ang) == 1
        assert np.count_nonzero(t.translation) == 1
        assert 0.0 <= np.rad2deg(np.abs(ang).max()) <= 60.0
        assert 0.0 <= t.translation.max() <= 1.0


def test_sample_transform_valid_rigid():
    rng = Rng(7)
    for regime in ("modelnet_style", "sevenscenes_style"):
        for _ in range(100):
            t = sample_transform(regime, rng)
            assert np.abs(t.rotation.T @ t.rotation - np.eye(3)).max() < 1e-12


# ---------------------------------------------------------------------------
# noise


def test_noise_clip_is_hard():
    rng = Rng(8)
    cloud = synth_shape(0, 512, rng.spawn("shape"))
    noisy = add_noise(cloud, sigma=0.01, clip=0.05, rng=rng.spawn("noise"))
    assert np.abs(noisy.points - cloud.points).max() <= 0.05


def test_noise_statistics():
    rng = Rng(9)
    base = PointCloud(np.zeros((333334, 3)))
    noisy = add_noise(base, sigma=0.01, clip=0.05, rng=rng)
    applied = noisy.points - base.points
    assert abs(applied.std() - 0.01) / 0.01 < 0.05


def test_noise_small_sigma_within_clip():
    rng = Rng(10)
    cloud = synth_shape(1, 64, rng.spawn("shape"))
    noisy = add_noise(cloud, sigma=1e-9, clip=0.05, rng=rng)
    assert np.abs(noisy.points - cloud.points).max() <= 0.05
    np.testing.assert_allclose(noisy.points, cloud.points, atol=1e-7)


def test_noise_parameter_validation():
    with pytest.raises(ValueError):
        add_noise(synth_shape(0, 32, Rng(1)), sigma=0.0, clip=0.05, rng=Rng(2))


# ---------------------------------------------------------------------------
# partial


def test_partial_keeps_exact_count_and_membership():
    rng = Rng(11)
    cloud = synth_shape(2, 1024, rng.spawn("shape"))
    partial = make_partial(cloud, 768, rng.spawn("anchor"))
    assert len(partial) == 768
    full = {tuple(p) for p in cloud.points}
    assert all(tuple(p) in full for p in partial.points)


def test_partial_boundary_drop_farthest():
    rng = Rng(12)
    cloud = synth_shape(3, 64, rng.spawn("shape"))
    anchor_rng = rng.spawn("anchor")
    partial = make_partial(cloud, 63, anchor_rng)
    # recompute the anchor from an identical stream
    anchor = rng.spawn("anchor").in_unit_ball()
    d2 = np.sum((cloud.points - anchor) ** 2, axis=1)
    dropped = {tuple(p) for p in cloud.points} - {tuple(p) for p in partial.points}
    assert len(dropped) == 1
    drop_d2 = np.sum((np.array(list(dropped)[0]) - anchor) ** 2)
    assert drop_d2 == d2.max()


def test_partial_contiguous_under_anchor_distance():
    rng = Rng(13)
    cloud = synth_shape(4, 300, rng.spawn("shape"))
    anchor_rng = rng.spawn("anchor")
    partial = make_partial(cloud, 120, anchor_rng)
    anchor = rng.spawn("anchor").in_unit_ball()
    kept = {tuple(p) for p in partial.points}
    d_kept = [np.sum((p - anchor) ** 2) for p in cloud.points if tuple(p) in kept]
    d_drop = [np.sum((p - anchor) ** 2) for p in cloud.points if tuple(p) not in kept]
    assert max(d_kept) <= min(d_drop)


def test_partial_keep_bounds():
    cloud = synth_shape(0, 64, Rng(1))
    with pytest.raises(ValueError):
        make_partial(cloud, 64, Rng(2))


# ---------------------------------------------------------------------------
# samples and benchmark splits


def test_protocol_nd_forces_noise():
    assert datagen.ND_NOISE == (0.01, 0.05)
    clean = make_sample(Protocol(setting="UPC"), category=3, shape_index=1, n_points=128, seed=5)
    noisy = make_sample(Protocol(setting="ND"), category=3, shape_index=1, n_points=128, seed=5)
    for a, b in ((clean.source, noisy.source), (clean.target, noisy.target)):
        jitter = np.abs(b.points - a.points)
        assert jitter.max() <= 0.05 and np.all(jitter.mean(axis=0) > 0.005)
    with pytest.raises(ValueError):
        Protocol(pairing="partial")  # partial_keep missing


def test_protocol_rejects_partial_keep_without_partial_pairing():
    with pytest.raises(ValueError, match="read only under partial pairing"):
        Protocol(pairing="consistent", partial_keep=24)


def test_consistent_sample_exact_transform():
    proto = Protocol(setting="UPC")
    s = make_sample(proto, category=5, shape_index=2, n_points=128, seed=77)
    expected = geom.apply_transform(s.gt, s.source)
    assert np.array_equal(expected.points, s.target.points)
    assert chamfer(expected, s.target) == 0.0


def test_partial_sample_counts():
    proto = Protocol(setting="UPC", pairing="partial", partial_keep=768)
    s = make_sample(proto, 1, 0, 1024, seed=3)
    assert len(s.source) == 768 and len(s.target) == 768


def test_noisy_sample_deviation_bounded():
    proto = Protocol(setting="ND")
    s = make_sample(proto, 2, 1, 128, seed=4)
    base = make_sample(Protocol(setting="UPC"), 2, 1, 128, seed=4)
    assert np.abs(s.source.points - base.source.points).max() <= 0.05


def test_build_benchmark_shape_disjoint_and_deterministic():
    proto = Protocol(setting="UPC")
    tr1, te1 = build_benchmark(proto, 8, 16, 4, 64, seed=5)
    tr2, te2 = build_benchmark(proto, 8, 16, 4, 64, seed=5)
    assert len(tr1) == 16 and len(te1) == 4
    for a, b in zip(tr1 + te1, tr2 + te2):
        assert np.array_equal(a.source.points, b.source.points)
        assert np.array_equal(a.gt.rotation, b.gt.rotation)
    # a shape's source cloud is its clean samples, the same bytes wherever it is drawn
    train_shapes = {s.source.points.tobytes() for s in tr1}
    test_shapes = {s.source.points.tobytes() for s in te1}
    assert len(train_shapes) == 16 and len(test_shapes) == 4
    assert not train_shapes & test_shapes


def test_build_benchmark_uc_categories():
    proto = Protocol(setting="UC")
    tr, te = build_benchmark(proto, 10, 10, 5, 64, seed=6)
    assert {s.category for s in tr} <= set(range(5))
    assert {s.category for s in te} <= set(range(5, 10))



@pytest.mark.parametrize("setting, categories, n_train, n_test, message", [
    ("UPC", 0, 4, 2, "categories must be >= 1 under UPC, got 0"),
    ("ND", 0, 4, 2, "categories must be >= 1 under ND, got 0"),
    ("UC", 1, 4, 2, "categories must be >= 2 under UC, got 1"),
    ("UPC", 4, -1, 2, "pair counts must be >= 0, got -1 train and 2 test"),
    ("UC", 4, 4, -2, "pair counts must be >= 0, got 4 train and -2 test"),
], ids=["upc-categories-0", "nd-categories-0", "uc-categories-1", "train-negative",
        "test-negative"])
def test_build_benchmark_rejects_bad_counts(setting, categories, n_train, n_test, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build_benchmark(Protocol(setting=setting), categories, n_train, n_test, 32, seed=1)

def test_golden_sample_regression():
    # pins the generator streams bit-for-bit; update only on a deliberate
    # generator change. Shape values are those of the three-attachment
    # recipe documented in upcr.datagen (category 0: ellipsoid, ring, rod).
    s = make_sample(Protocol(setting="UPC"), category=0, shape_index=0,
                    n_points=32, seed=7)
    np.testing.assert_array_equal(
        s.source.points[0],
        [-0.4852513793334782, 0.31839298763234664, 0.4145276351861489])
    np.testing.assert_array_equal(
        s.gt.translation,
        [0.38665315501336206, 0.23201436230313832, 0.25436298535968327])
    assert float(np.abs(s.source.points).sum()) == 33.48613990899844


def test_synth_shape_follows_category_recipe():
    # base first, then the three attachments in recipe order: each part sits
    # along its category-fixed direction and is smaller than the base
    n = 2000
    for cat in range(12):
        recipe = datagen._category_recipe(cat)
        assert len(recipe.attachments) == 3
        dirs = np.array([a.direction for a in recipe.attachments])
        assert np.all(np.abs(dirs @ dirs.T)[np.triu_indices(3, 1)] < 0.5)
        assert all(0 <= a.kind < datagen._ATTACH_KINDS for a in recipe.attachments)
        counts = np.maximum((recipe.weights * n).astype(int), 4)
        counts[0] += n - counts.sum()
        parts = np.split(synth_shape(cat, n, Rng(cat)).points, np.cumsum(counts)[:-1])
        base_center = parts[0].mean(axis=0)
        base_rms = np.sqrt(np.mean(np.sum((parts[0] - base_center) ** 2, axis=1)))
        for att, part in zip(recipe.attachments, parts[1:]):
            v = part.mean(axis=0) - base_center
            assert v @ att.direction / np.linalg.norm(v) > 0.99
            rms = np.sqrt(np.mean(np.sum((part - part.mean(axis=0)) ** 2, axis=1)))
            assert rms < base_rms


# ---------------------------------------------------------------------------
# file I/O


def test_xyz_round_trip(tmp_path):
    rng = Rng(20)
    cloud = PointCloud(rng.uniform(-1, 1, (1024, 3)))
    path = str(tmp_path / "cloud.xyz")
    save_cloud(cloud, path)
    loaded = load_cloud(path)
    assert np.abs(loaded.points - cloud.points).max() <= 1e-6


def test_xyz_parse_basics(tmp_path):
    path = tmp_path / "two.xyz"
    path.write_text("# comment\n0 0 0\n1 0 0\n")
    cloud = load_cloud(str(path))
    assert len(cloud) == 2
    np.testing.assert_array_equal(cloud.points[1], [1.0, 0.0, 0.0])


def test_xyz_malformed_reports_line(tmp_path):
    path = tmp_path / "bad.xyz"
    path.write_text("0 0 0\n1 oops 0\n")
    with pytest.raises(CloudParseError, match=":2"):
        load_cloud(str(path))


def test_off_header_and_faces_ignored(tmp_path):
    path = tmp_path / "tri.off"
    path.write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
    cloud = load_cloud(str(path))
    assert len(cloud) == 3


def test_off_round_trip(tmp_path):
    rng = Rng(21)
    cloud = PointCloud(rng.uniform(-1, 1, (64, 3)))
    path = str(tmp_path / "c.off")
    save_cloud(cloud, path)
    loaded = load_cloud(path)
    assert np.abs(loaded.points - cloud.points).max() <= 1e-6


def test_off_truncated_rejected(tmp_path):
    path = tmp_path / "trunc.off"
    path.write_text("OFF\n5 0 0\n0 0 0\n1 1 1\n")
    with pytest.raises(CloudParseError, match="truncated"):
        load_cloud(str(path))


def test_ply_round_trip(tmp_path):
    rng = Rng(22)
    cloud = PointCloud(rng.uniform(-1, 1, (128, 3)))
    path = str(tmp_path / "c.ply")
    save_cloud(cloud, path)
    loaded = load_cloud(path)
    assert np.abs(loaded.points - cloud.points).max() <= 1e-6


def test_ply_missing_header_rejected(tmp_path):
    path = tmp_path / "bad.ply"
    path.write_text("plyx\n")
    with pytest.raises(CloudParseError):
        load_cloud(str(path))


@pytest.mark.parametrize("name, text, line", [
    ("no_count.off", "OFF\n\n", 3),
    ("no_count.ply", "ply\nformat ascii 1.0\nelement vertex\nend_header\n", 3),
    ("bad_count.ply", "ply\nformat ascii 1.0\nelement vertex abc\nend_header\n", 3),
    ("no_type.ply", "ply\nformat\nelement vertex 0\nend_header\n", 2),
    ("list.ply", "ply\nformat ascii 1.0\nelement vertex 1\nproperty list uchar int ids\n"
     "property float x\nproperty float y\nproperty float z\nend_header\n2 7 8 0 0 0\n", 4),
], ids=["off-no-count", "ply-no-count", "ply-bad-count", "ply-no-format-type",
        "ply-vertex-list-property"])
def test_corrupt_header_rejected_with_line(tmp_path, name, text, line):
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(CloudParseError, match=f"^{re.escape(str(path))}:{line}: "):
        load_cloud(str(path))


PLY_XYZ = "ply\nformat ascii 1.0\nelement vertex {n}\nproperty float x\nproperty float y\n" \
    "property float z\nend_header\n"
# one face, declared and listed before the vertices
PLY_FACES_FIRST = "ply\nformat ascii 1.0\nelement face 1\nproperty list uchar int vertex_index\n" \
    "element vertex {n}\nproperty float x\nproperty float y\nproperty float z\nend_header\n" \
    "3 0 1 2\n"


@pytest.mark.parametrize("name, text", [
    ("empty.off", "OFF\n0 0 0\n"),
    ("empty.ply", PLY_XYZ.format(n=0)),
    ("negative.off", "OFF\n-3 0 0\n0 0 0\n"),
], ids=["off-zero-vertices", "ply-zero-vertices", "off-negative-count"])
def test_no_vertices_named_by_path(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(CloudParseError, match=f"^{re.escape(str(path))}:"):
        load_cloud(str(path))


@pytest.mark.parametrize("name, text, line", [
    ("nan.xyz", "0 0 0\n1 nan 0\n", 2),
    ("inf.off", "OFF\n2 0 0\n0 0 0\n-inf 1 2\n", 4),
    ("nan.ply", PLY_XYZ.format(n=2) + "0 0 0\n0 0 NaN\n", 9),
    ("comment.off", "OFF\n# made by hand\n2 0 0\n0 0 0\n-inf 1 2\n", 5),
    ("faces_first.ply", PLY_FACES_FIRST.format(n=2) + "0 0 0\n0 0 NaN\n", 12),
], ids=["xyz-nan", "off-minus-inf", "ply-nan", "off-comment-before-counts",
        "ply-faces-before-vertices"])
def test_non_finite_coordinate_rejected_with_line(tmp_path, name, text, line):
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(CloudParseError,
                       match=f"^{re.escape(str(path))}:{line}: non-finite coordinate"):
        load_cloud(str(path))


def test_non_finite_value_of_another_ply_property_loads(tmp_path):
    path = tmp_path / "extra.ply"
    path.write_text("ply\nformat ascii 1.0\nelement vertex 2\nproperty float x\n"
                    "property float intensity\nproperty float y\nproperty float z\n"
                    "end_header\n0 nan 1 2\n3 inf 4 5\n")
    np.testing.assert_array_equal(load_cloud(str(path)).points, [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]])


def test_vertex_lists_skip_blank_and_comment_lines(tmp_path):
    path = tmp_path / "gaps.ply"
    path.write_text(PLY_XYZ.format(n=2) + "0 0 0\n\n# a comment\n1 2 3 # trailing\n")
    np.testing.assert_array_equal(load_cloud(str(path)).points, [[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]])


def test_one_cloud_loads_alike_from_every_format(tmp_path):
    rows = ["0.5 -1 2e-3", "1.25 0 -7", "3 4.5 -0.125"]
    texts = {"c.xyz": "# three points\n" + "\n".join(rows) + "\n",
             "c.off": "OFF\n3 1 0\n" + "\n".join(rows) + "\n3 0 1 2\n",
             "c.ply": PLY_XYZ.format(n=3) + "\n".join(rows) + "\n",
             "faces_first.ply": PLY_FACES_FIRST.format(n=3) + "\n".join(rows) + "\n"}
    loaded = []
    for name, text in texts.items():
        (tmp_path / name).write_text(text)
        loaded.append(load_cloud(str(tmp_path / name)).points)
    assert loaded[0].shape == (3, 3)
    assert all(p.tobytes() == loaded[0].tobytes() for p in loaded)


def test_unsupported_format_rejected(tmp_path):
    path = tmp_path / "c.obj"
    path.write_text("v 0 0 0\n")
    with pytest.raises(ValueError, match="unsupported"):
        load_cloud(str(path))
