import re

import numpy as np
import pytest

from upcr import features, geom
from upcr import autodiff as ad
from upcr.datagen import synth_shape
from upcr.encoder import EncoderConfig, embed_from_features, precompute_cloud
from upcr.features import FeatureSpec
from upcr.geom import PointCloud
from upcr.rng import Rng

from conftest import (descriptor_table_oracle, distance_feature, pfh_oracle, random_cloud,
                      random_transform, traced_peak, weighted_sum)


# ---------------------------------------------------------------------------
# FeatureSpec


def test_spec_dims():
    assert FeatureSpec("distance").dim == 3
    assert FeatureSpec("spfh").dim == 33
    assert FeatureSpec("pfh").dim == 125
    assert FeatureSpec("distance+spfh").dim == 36


def test_spec_rejects_unknown_kind():
    with pytest.raises(ValueError):
        FeatureSpec("fpfh")


def test_spec_rejects_ppf_alone():
    # PPF lost to distances after fine-tuning alone, and then as a part too (README)
    for kind in ("ppf", "distance+ppf", "distance+ppf+spfh"):
        with pytest.raises(ValueError, match="^" + re.escape(f"unknown feature kind '{kind}'")):
            FeatureSpec(kind)


# ---------------------------------------------------------------------------
# distance feature


def test_distance_feature_hand_case():
    out = distance_feature([0, 0, 0], [1, 0, 0], [0, 1, 0])
    np.testing.assert_allclose(out, [1.0, np.sqrt(2.0), 1.0])


def test_distance_feature_coincident_neighbor():
    out = distance_feature([0, 0, 0], [1, 2, 2], [1, 2, 2])
    assert out[1] == 0.0
    assert out[0] == out[2] == 3.0


def test_distance_feature_rigid_invariance():
    rng = Rng(31)
    o = rng.uniform(-1, 1, 3)
    xi = rng.uniform(-1, 1, 3)
    xij = rng.uniform(-1, 1, 3)
    base = distance_feature(o, xi, xij)
    for _ in range(50):
        t = random_transform(rng, 180.0, 10.0)
        moved = distance_feature(
            t.rotation @ o + t.translation,
            t.rotation @ xi + t.translation,
            t.rotation @ xij + t.translation)
        np.testing.assert_allclose(moved, base, atol=1e-9)


# ---------------------------------------------------------------------------
# normals


def test_normals_on_plane():
    rng = Rng(32)
    pts = np.zeros((60, 3))
    pts[:, :2] = rng.uniform(-1, 1, (60, 2))
    nrm = features.estimate_normals(pts, geom.knn(PointCloud(pts), 8))
    np.testing.assert_allclose(np.abs(nrm[:, 2]), 1.0, atol=1e-9)


def test_normals_on_sphere_close_to_radial():
    rng = Rng(33)
    dirs = rng.normal((500, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    nrm = features.estimate_normals(dirs, geom.knn(PointCloud(dirs), 8))
    cos = np.abs(np.einsum("ij,ij->i", nrm, dirs))
    angles = np.rad2deg(np.arccos(np.clip(cos, -1, 1)))
    assert np.max(angles) < 15.0


def test_normals_flag_collinear_points():
    pts = np.zeros((10, 3))
    pts[:, 0] = np.arange(10.0)
    nrm = features.estimate_normals(pts, geom.knn(PointCloud(pts), 4))
    # every neighborhood is rank deficient, so every normal takes the +z default
    np.testing.assert_array_equal(nrm, np.tile([0.0, 0.0, 1.0], (10, 1)))


def test_normals_need_k_at_least_3():
    cloud = random_cloud(Rng(1), 10)
    with pytest.raises(ValueError):
        features.estimate_normals(cloud.points, geom.knn(cloud, 2))


def test_normals_unit_length_and_follow_rigid_motion():
    cloud = PointCloud(np.random.default_rng(30).normal(size=(128, 3)))
    nbr = geom.knn(cloud, 8)
    nrm = features.estimate_normals(cloud.points, nbr)
    np.testing.assert_allclose(np.linalg.norm(nrm, axis=1), 1.0, rtol=0, atol=1e-12)
    rng = Rng(31)
    for _ in range(5):
        t = random_transform(rng, 180.0, 10.0)
        moved = geom.apply_transform(t, cloud)
        moved_nbr = geom.knn(moved, 8)
        np.testing.assert_array_equal(moved_nbr, nbr)
        moved_nrm = features.estimate_normals(moved.points, moved_nbr)
        np.testing.assert_allclose(moved_nrm, nrm @ t.rotation.T, rtol=0, atol=1e-9)


# ---------------------------------------------------------------------------
# spfh / pfh


def _shape_with_normals(seed=35, n=64, k=8):
    cloud = synth_shape(3, n, Rng(seed))
    return cloud, features.estimate_normals(cloud.points, geom.knn(cloud, k))


def test_spfh_histograms_normalized():
    cloud, nrm = _shape_with_normals()
    hist = features.spfh_table(cloud.points, nrm, geom.knn(cloud, 8))[0]
    assert hist.shape == (33,)
    assert np.all(hist >= 0)
    for sub in range(3):
        assert hist[sub * 11:(sub + 1) * 11].sum() == pytest.approx(1.0, abs=1e-9)


def test_spfh_parallel_normals_concentrate_alpha():
    # coplanar points with identical normals: alpha = <v, n_j> = 0 for every pair
    rng = Rng(36)
    pts = np.zeros((30, 3))
    pts[:, :2] = rng.uniform(-1, 1, (30, 2))
    normals = np.tile([0.0, 0.0, 1.0], (30, 1))
    hist = features.spfh_table(pts, normals, geom.knn(PointCloud(pts), 6))[0]
    alpha_hist = hist[:11]
    # alpha = 0 falls in the central bin of [-1, 1]
    assert alpha_hist[5] == pytest.approx(1.0, abs=1e-9)


def test_spfh_rigid_invariance():
    cloud, nrm = _shape_with_normals()
    base = features.spfh_table(cloud.points, nrm, geom.knn(cloud, 8))
    rng = Rng(37)
    for _ in range(5):
        t = random_transform(rng, 180.0, 10.0)
        moved_cloud = geom.apply_transform(t, cloud)
        moved = features.spfh_table(moved_cloud.points, nrm @ t.rotation.T,
                                    geom.knn(moved_cloud, 8))
        np.testing.assert_allclose(moved, base, atol=1e-9)


def test_pfh_two_point_neighborhood_single_bin():
    pts = np.array([[0.0, 0, 0], [1.0, 0, 0]])
    normals = np.tile([0.0, 0.0, 1.0], (2, 1))
    hist = features.pfh_table(pts, normals, geom.knn(PointCloud(pts), 1))[0]
    assert hist.shape == (125,)
    assert np.count_nonzero(hist) == 1
    assert hist.max() == pytest.approx(1.0)


def test_pfh_normalized_and_invariant():
    cloud, nrm = _shape_with_normals(38)
    table = features.pfh_table(cloud.points, nrm, geom.knn(cloud, 8))
    np.testing.assert_allclose(table.sum(axis=1), 1.0, atol=1e-9)
    rng = Rng(39)
    t = random_transform(rng, 180.0, 10.0)
    moved_cloud = geom.apply_transform(t, cloud)
    moved = features.pfh_table(moved_cloud.points, nrm @ t.rotation.T,
                               geom.knn(moved_cloud, 8))
    np.testing.assert_allclose(moved, table, atol=1e-9)


def test_pfh_spfh_antiparallel_seam_invariant():
    # two parallel slabs with opposing normals: every cross-slab pair has
    # theta at the +-pi seam, where rounding alone used to pick the bin
    xy = Rng(41).uniform(-1.0, 1.0, (48, 2))
    pts = np.column_stack([xy, np.repeat([0.05, -0.05], 24)])
    normals = np.zeros((48, 3))
    normals[:24, 2] = 1.0
    normals[24:, 2] = -1.0
    cloud = PointCloud(pts)
    for table in (features.pfh_table, features.spfh_table):
        base = table(pts, normals, geom.knn(cloud, 8))
        rng = Rng(42)
        for _ in range(20):
            t = random_transform(rng, 180.0, 10.0)
            moved_cloud = geom.apply_transform(t, cloud)
            moved = table(moved_cloud.points, normals @ t.rotation.T, geom.knn(moved_cloud, 8))
            np.testing.assert_array_equal(moved, base)


def test_pfh_permutation_invariance():
    cloud, nrm = _shape_with_normals(40, n=32, k=6)
    base = features.pfh_table(cloud.points, nrm, geom.knn(cloud, 6))[0]
    # permute every point except index 0, re-estimate nothing (reuse normals)
    perm = np.concatenate([[0], 1 + np.argsort(Rng(3).uniform(size=31))])
    permuted = PointCloud(cloud.points[perm])
    out = features.pfh_table(permuted.points, nrm[perm], geom.knn(permuted, 6))[0]
    np.testing.assert_allclose(out, base, atol=1e-12)


def _tie_pairs(count=16):
    """Far-apart two-point clusters, d = +x exactly, with cos_a == cos_b
    exactly and alpha on the 0.2 bin edge: (a, b) and (b, a) then differ
    only by rounding, which can put them in different bins."""
    rng = np.random.default_rng(48)
    c = rng.uniform(-0.9, 0.9, count)
    s = np.sqrt(1.0 - c * c)
    f1 = rng.uniform(-np.pi, np.pi, count)
    f2 = f1 + np.arcsin(0.2 / s)  # alpha = s * sin(f2 - f1)
    na = np.column_stack([c, s * np.cos(f1), s * np.sin(f1)])
    nb = np.column_stack([-c, s * np.cos(f2), s * np.sin(f2)])
    x = np.repeat(100.0 * np.arange(count), 2) + np.tile([0.0, 1.0], count)
    pts = np.column_stack([x, np.zeros(2 * count), np.zeros(2 * count)])
    return pts, np.stack([na, nb], axis=1).reshape(-1, 3), geom.knn(PointCloud(pts), 1)


def test_pfh_tie_pairs_split_by_order():
    # the tie case has teeth: some cluster bins (a, b) and (b, a) apart, so
    # deduplicating unordered pairs would change the table
    hist = pfh_oracle(*_tie_pairs())
    assert np.any(hist[0::2].argmax(axis=1) != hist[1::2].argmax(axis=1))


def _pfh_clouds():
    """(points, normals, neighbor table) cases for the PFH oracle tests."""
    cases = []
    for seed, n in ((43, 256), (44, 96)):
        cloud = PointCloud(np.random.default_rng(seed).normal(size=(n, 3)))
        for k in (8, 24):
            nbr = geom.knn(cloud, k)
            cases.append((cloud.points, features.estimate_normals(cloud.points, nbr), nbr))
    shape = synth_shape(5, 200, Rng(45))
    nbr = geom.knn(shape, 24)
    cases.append((shape.points, features.estimate_normals(shape.points, nbr), nbr))
    # planar grid with one normal: every pair has cos_a == cos_b == 0, so the
    # first endpoint is the origin, in both orders of each pair
    g = np.arange(12.0)
    grid = np.column_stack([np.repeat(g, 12), np.tile(g, 12), np.zeros(144)])
    grid_normals = np.tile([0.0, 0.0, 1.0], (144, 1))
    nbr = geom.knn(PointCloud(grid), 8)
    cases.append((grid, grid_normals, nbr))
    cases.append((grid, grid_normals, nbr[:, ::-1]))
    # doubled cloud with twins as neighbors: zero-length pairs, masked by ok
    base, base_normals = _shape_with_normals(46, n=40, k=6)
    doubled = np.concatenate([base.points] * 2)
    d2 = geom.sqdist_matrix(doubled, doubled)
    np.fill_diagonal(d2, np.inf)
    cases.append((doubled, np.concatenate([base_normals] * 2),
                  np.argsort(d2, axis=1, kind="stable")[:, :7]))
    cases.append(_tie_pairs())
    # +-z slabs: antiparallel normals at the theta seam
    xy = Rng(41).uniform(-1.0, 1.0, (48, 2))
    slab_normals = np.zeros((48, 3))
    slab_normals[:, 2] = np.repeat([1.0, -1.0], 24)
    slabs = np.column_stack([xy, np.repeat([0.05, -0.05], 24)])
    cases.append((slabs, slab_normals, geom.knn(PointCloud(slabs), 8)))
    return cases


@pytest.mark.parametrize("case", range(10), ids=[
    "random-k8", "random-k24", "random96-k8", "random96-k24", "shape-k24",
    "grid", "grid-reversed", "doubled", "tie-pairs", "slabs"])
def test_pfh_table_matches_per_neighborhood_oracle(case):
    pts, nrm, nbr = _pfh_clouds()[case]
    got = features.pfh_table(pts, nrm, nbr)
    assert got.tobytes() == pfh_oracle(pts, nrm, nbr).tobytes()


def test_pfh_evaluates_each_distinct_ordered_pair_once(monkeypatch):
    rows = []
    darboux = features._darboux

    def counted(ps, *args):
        rows.append(len(ps))
        return darboux(ps, *args)

    monkeypatch.setattr(features, "_darboux", counted)
    cloud = PointCloud(np.random.default_rng(47).normal(size=(256, 3)))
    nbr = geom.knn(cloud, 24)
    features.pfh_table(cloud.points, features.estimate_normals(cloud.points, nbr), nbr)
    nbh = np.concatenate([np.arange(256)[:, None], nbr], axis=1)
    first, second = np.triu_indices(25, k=1)
    distinct = np.unique(nbh[:, first] * 256 + nbh[:, second]).size
    assert distinct < 256 * first.size  # neighborhoods overlap
    assert sum(rows) <= distinct


# ---------------------------------------------------------------------------
# assembled neighbor features


def test_neighbor_feature_blocks_match_scalar_oracles():
    # distances agree with the scalar oracle to rounding
    for category in (1, 4, 6):
        cloud = synth_shape(category, 64, Rng(50 + category))
        nbr = geom.knn(cloud, 8)
        phi = features.neighbor_feature_array(cloud, FeatureSpec("distance"), nbr)
        pts = cloud.points
        center = pts.mean(axis=0)
        dist = np.array([[distance_feature(center, pts[i], pts[j]) for j in row]
                         for i, row in enumerate(nbr)])
        np.testing.assert_allclose(phi, dist, rtol=0, atol=1e-12)


def test_one_neighbor_search_per_cloud(monkeypatch):
    # normals, SPFH/PFH and edge features all read the caller's one table
    calls = {"knn": 0, "graph_knn": 0}
    for name in calls:
        def counted(*args, _orig=getattr(geom, name), _name=name):
            calls[_name] += 1
            return _orig(*args)
        monkeypatch.setattr(geom, name, counted)
    cloud = synth_shape(2, 40, Rng(52))
    config = EncoderConfig(k=6, m=16, widths=(8, 16))
    for kind in ("spfh", "pfh"):
        features.point_descriptor_table(cloud, FeatureSpec(kind), 6)
        assert calls == {"knn": 1, "graph_knn": 0}, kind
        calls.update(knn=0)
    for kind in features.FEATURE_KINDS:
        precompute_cloud(cloud, FeatureSpec(kind), config)
        assert calls == {"knn": 0, "graph_knn": 1}, kind
        calls.update(graph_knn=0)


def _descriptor_clouds() -> dict:
    """The feature golden's clouds: an anisotropic Gaussian cloud, and a plane
    grid with six points duplicated."""
    grid = np.stack(np.meshgrid(np.arange(8.0), np.arange(8.0), [0.0]), axis=-1).reshape(-1, 3)
    return {"anisotropic": np.random.default_rng(22).normal(size=(96, 3)) * [1.0, 0.6, 0.3],
            "grid-with-duplicates": np.concatenate([grid, grid[:6]])}


@pytest.mark.parametrize("k", [3, 10, 24])
@pytest.mark.parametrize("name", sorted(_descriptor_clouds()))
@pytest.mark.parametrize("kind", ["spfh", "pfh"])
def test_descriptor_table_equals_pooled_neighbor_features(kind, name, k):
    cloud = PointCloud(_descriptor_clouds()[name])
    spec = FeatureSpec(kind)
    got = features.point_descriptor_table(cloud, spec, k)
    want = descriptor_table_oracle(cloud, spec, k)
    assert got.shape == want.shape == (len(cloud), spec.dim)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_pfh_descriptor_table_never_builds_the_neighbor_array():
    # the [256, 24, 125] float64 gather alone is 5.9 MiB; pooling in place
    # leaves the PFH table's own build as the peak
    cloud = synth_shape(3, 256, Rng(1))
    spec = FeatureSpec("pfh")
    features.point_descriptor_table(cloud, spec, 24)
    peak = traced_peak(lambda: features.point_descriptor_table(cloud, spec, 24))
    assert peak < 8 * 2**20, f"peak {peak / 2**20:.2f} MiB"


def _feature_build_peak(kind: str, n: int) -> int:
    """Traced peak of ``neighbor_feature_array`` at k = 24 with cached tables."""
    cloud = synth_shape(3, n, Rng(1))
    nbr = geom.graph_knn(cloud.points, 24)
    spec = FeatureSpec(kind)
    tables = features.point_tables(cloud, spec, nbr)
    return traced_peak(lambda: features.neighbor_feature_array(cloud, spec, nbr, tables))


def test_combined_feature_build_writes_each_feature_once():
    # each feature is written once into the output; a second [N, k, d] copy would reach 2x
    peak = _feature_build_peak("distance+spfh", 256)
    assert peak < 1.5 * 256 * 24 * 36 * 8, f"peak {peak / 2**20:.2f} MiB"


@pytest.mark.parametrize("n, mib", [(256, 0.56), (1024, 2.25)])
def test_distance_feature_build_peak(n, mib):
    # the bounds are the peaks of stacking three [N, k] distance columns, rounded down
    peak = _feature_build_peak("distance", n)
    assert peak <= mib * 2**20, f"peak {peak / 2**20:.2f} MiB"


@pytest.mark.parametrize("kind", ["spfh", "pfh", "distance+spfh"])
def test_neighbor_feature_array_rejects_an_index_out_of_range(kind):
    cloud = synth_shape(4, 40, Rng(3))
    spec = FeatureSpec(kind)
    nbr = geom.knn(cloud, 6)
    tables = features.point_tables(cloud, spec, nbr)
    bad = nbr.copy()
    bad[7, 2] = len(cloud)
    with pytest.raises(IndexError):
        features.neighbor_feature_array(cloud, spec, bad, tables)


# ---------------------------------------------------------------------------
# invariant point embedding


def test_embed_k1_equals_h_alpha_of_single_neighbor():
    rng = Rng(41)
    cloud = random_cloud(rng, 6)
    spec = FeatureSpec("distance")
    w = rng.uniform(-1, 1, (3, 5))
    b = rng.uniform(-1, 1, (1, 5))
    nbr = geom.knn(cloud, 1)
    phi = features.neighbor_feature_array(cloud, spec, nbr)
    out = embed_from_features(phi, w, b).data
    expect = phi[:, 0, :] @ w + b
    expect = np.maximum(expect, 0.2 * expect)
    np.testing.assert_allclose(out, expect, atol=1e-12)


def test_embed_identity_halpha_symmetric_points():
    # equally spaced collinear interior points see mirror-image neighborhoods
    pts = np.array([[float(i), 0.0, 0.0] for i in range(5)])
    cloud = PointCloud(pts)
    phi = features.neighbor_feature_array(cloud, FeatureSpec("distance"), geom.knn(cloud, 2))
    out = embed_from_features(phi, np.eye(3), np.zeros((1, 3))).data
    np.testing.assert_allclose(out[1], out[3], atol=1e-12)


def test_embed_rigid_invariance_all_specs():
    cloud = synth_shape(7, 48, Rng(42))
    rng = Rng(43)
    w_cache = {}
    for kind in features.FEATURE_KINDS:
        spec = FeatureSpec(kind)
        w = w_cache.setdefault(spec.dim, Rng(spec.dim).uniform(-1, 1, (spec.dim, 6)))
        phi = features.neighbor_feature_array(cloud, spec, geom.knn(cloud, 8))
        base = embed_from_features(phi, w, np.zeros((1, 6))).data
        for _ in range(3):
            t = random_transform(rng, 180.0, 10.0)
            moved_cloud = geom.apply_transform(t, PointCloud(cloud.points))
            phi = features.neighbor_feature_array(moved_cloud, spec, geom.knn(moved_cloud, 8))
            moved = embed_from_features(phi, w, np.zeros((1, 6))).data
            np.testing.assert_allclose(moved, base, atol=1e-6)


def test_embed_permutation_equivariance():
    cloud = synth_shape(9, 40, Rng(44))
    spec = FeatureSpec("distance")
    w = Rng(45).uniform(-1, 1, (3, 4))
    b = np.zeros((1, 4))
    phi = features.neighbor_feature_array(cloud, spec, geom.knn(cloud, 5))
    base = embed_from_features(phi, w, b).data
    perm = np.argsort(Rng(46).uniform(size=40))
    permuted = PointCloud(cloud.points[perm])
    phi = features.neighbor_feature_array(permuted, spec, geom.knn(permuted, 5))
    out = embed_from_features(phi, w, b).data
    np.testing.assert_allclose(out, base[perm], atol=1e-12)


def test_embed_runs_on_tape():
    cloud = random_cloud(Rng(47), 12)
    spec = FeatureSpec("distance")
    tape = ad.Tape()
    w = tape.leaf(Rng(48).uniform(-1, 1, (3, 4)))
    b = tape.leaf(np.zeros((1, 4)))
    phi = features.neighbor_feature_array(cloud, spec, geom.knn(cloud, 3))
    out = embed_from_features(phi, w, b)
    ad.backward(weighted_sum(out))
    assert w.grad is not None and np.any(w.grad != 0)
    assert b.grad is not None
