import zlib

import numpy as np
import pytest

from upcr import autodiff as ad
from upcr import geom
from upcr.geom import PointCloud, RigidTransform
from upcr.rng import Rng

from conftest import random_cloud, random_rotation, random_transform


def decode(mode, vals) -> np.ndarray:
    return geom.rotation_mode(mode).decode(ad.constant(vals)).data


# ---------------------------------------------------------------------------
# containers


def test_point_cloud_validation():
    with pytest.raises(ValueError):
        PointCloud(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        PointCloud(np.array([[np.inf, 0, 0]]))
    with pytest.raises(ValueError):
        PointCloud(np.zeros((2, 3)), normals=np.array([[1, 0, 0], [2, 0, 0]], dtype=float))


def test_rigid_transform_validation():
    with pytest.raises(ValueError):
        RigidTransform(np.diag([1.0, 1.0, -1.0]), np.zeros(3))  # reflection
    with pytest.raises(ValueError):
        RigidTransform(2 * np.eye(3), np.zeros(3))


def test_rotation_param_lengths():
    lengths = {mode: entry.length for mode, entry in geom.ROTATION_MODES.items()}
    assert lengths == {"euler": 3, "quaternion": 4, "sixd": 6, "matrix": 9}
    with pytest.raises(ValueError, match="'spin'; expected one of euler, quaternion, sixd, matrix"):
        geom.rotation_mode("spin")


# ---------------------------------------------------------------------------
# centroid


def test_centroid_cases():
    np.testing.assert_array_equal(
        geom.centroid(PointCloud([[0.0, 0.0, 0.0]])), [0.0, 0.0, 0.0])
    np.testing.assert_array_equal(
        geom.centroid(PointCloud([[1.0, 0, 0], [-1.0, 0, 0]])), [0.0, 0.0, 0.0])
    np.testing.assert_array_equal(
        geom.centroid(PointCloud([[1.0, 2, 3], [3.0, 2, 1]])), [2.0, 2.0, 2.0])


# ---------------------------------------------------------------------------
# knn


def test_knn_axis_points():
    cloud = PointCloud([[0.0, 0, 0], [1.0, 0, 0], [3.0, 0, 0]])
    np.testing.assert_array_equal(geom.knn(cloud, 1), [[1], [0], [1]])


def test_knn_full_neighborhood_is_permutation():
    rng = Rng(2)
    cloud = random_cloud(rng, 12)
    table = geom.knn(cloud, 11)
    for i, row in enumerate(table):
        assert i not in row
        assert sorted(row) == sorted(set(range(12)) - {i})


# both entry points to the one neighbor rule, on an [N, 3] array
TABLES = {
    "knn": lambda p, k: geom.knn(PointCloud(p), k),
    "graph_knn": geom.graph_knn,
}


def test_knn_matches_brute_force_oracle():
    rng = Rng(7)
    pts = rng.uniform(-1, 1, (100, 3))
    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1)
    np.fill_diagonal(d2, np.inf)
    oracle = np.argsort(d2, axis=1, kind="stable")[:, :24]
    for name, table in TABLES.items():
        np.testing.assert_array_equal(table(pts, 24), oracle, err_msg=name)


def test_knn_tie_rule_on_grid():
    g = np.stack(np.meshgrid(*[np.arange(5.0)] * 3, indexing="ij"), -1).reshape(-1, 3)
    d2 = ((g[:, None, :] - g[None, :, :]) ** 2).sum(-1)
    np.fill_diagonal(d2, np.inf)
    oracle = np.argsort(d2, axis=1, kind="stable")[:, :6]
    for name, table in TABLES.items():
        np.testing.assert_array_equal(table(g, 6), oracle, err_msg=name)


@pytest.mark.parametrize("name", TABLES)
def test_knn_coincident_rows_collapse(name):
    pts = Rng(8).uniform(-1, 1, (30, 3))
    single = TABLES[name](pts, 5)
    doubled = TABLES[name](np.concatenate([pts, pts]), 5)
    # row i and its twin i +- 30 are the same location: neither is listed
    assert not np.any(doubled % 30 == np.arange(60)[:, None] % 30)
    # both copies get the single cloud's table, in first-copy indices
    np.testing.assert_array_equal(doubled[:30], single)
    np.testing.assert_array_equal(doubled[30:], single)


def test_knn_k_bounds():
    cloud = random_cloud(Rng(1), 10)
    with pytest.raises(ValueError):
        geom.knn(cloud, 10)
    with pytest.raises(ValueError):
        geom.knn(cloud, 0)


def test_knn_order_independence_up_to_tie_rule():
    rng = Rng(9)
    pts = rng.uniform(-1, 1, (80, 3))
    perm = list(range(80))
    rng.shuffle(perm)
    perm = np.array(perm)
    inv = np.empty(80, dtype=int)
    inv[perm] = np.arange(80)
    table = geom.knn(PointCloud(pts), 5)
    table_p = geom.knn(PointCloud(pts[perm]), 5)
    # new index i holds old point perm[i]; its neighbors map through inv
    np.testing.assert_array_equal(table_p, inv[table[perm]])


# ---------------------------------------------------------------------------
# rotations


def test_decode_euler_identity():
    np.testing.assert_allclose(
        decode("euler", np.zeros(3)), np.eye(3))


def test_decode_euler_quarter_turn():
    rot = decode("euler", [0.0, 0.0, np.pi / 2])
    np.testing.assert_allclose(rot, [[0, -1, 0], [1, 0, 0], [0, 0, 1]], atol=1e-15)


def test_decode_euler_against_axis_composition_oracle():
    a, b, g = np.deg2rad([10.0, 20.0, 30.0])
    ca, sa, cb, sb, cg, sg = np.cos(a), np.sin(a), np.cos(b), np.sin(b), np.cos(g), np.sin(g)
    rx = np.array([[1, 0, 0], [0, ca, -sa], [0, sa, ca]])
    ry = np.array([[cb, 0, sb], [0, 1, 0], [-sb, 0, cb]])
    rz = np.array([[cg, -sg, 0], [sg, cg, 0], [0, 0, 1]])
    rot = decode("euler", [a, b, g])
    np.testing.assert_allclose(rot, rz @ ry @ rx, atol=1e-12)


def test_euler_round_trip():
    rng = Rng(21)
    for _ in range(200):
        angles = rng.uniform(-np.pi / 2 + 0.05, np.pi / 2 - 0.05, 3)
        rot = geom.euler_to_matrix(angles)
        np.testing.assert_allclose(geom.euler_from_matrix(rot), angles, atol=1e-10)


def test_decode_quaternion_known_values():
    # 90 degrees about z: q = (cos45, 0, 0, sin45); scale invariance via norm
    q = np.array([np.cos(np.pi / 4), 0.0, 0.0, np.sin(np.pi / 4)]) * 3.7
    rot = decode("quaternion", q)
    np.testing.assert_allclose(rot, [[0, -1, 0], [1, 0, 0], [0, 0, 1]], atol=1e-12)


def test_decode_degenerate_inputs_rejected():
    with pytest.raises(ValueError):
        decode("quaternion", np.zeros(4))
    with pytest.raises(ValueError):
        decode("sixd", [1, 0, 0, 2, 0, 0])
    with pytest.raises(ValueError):
        decode("sixd", [0, 0, 0, 0, 1, 0])


def test_decode_matrix_mode_projects_and_guards_reflection():
    rng = Rng(5)
    rot = random_rotation(rng)
    noisy = rot + 0.05 * rng.uniform(-1, 1, (3, 3))
    out = decode("matrix", noisy.reshape(-1))
    assert np.abs(out.T @ out - np.eye(3)).max() < 1e-12
    assert abs(np.linalg.det(out) - 1.0) < 1e-12
    # reflection input still yields a proper rotation
    refl = np.diag([1.0, 1.0, -1.0])
    out = decode("matrix", refl.reshape(-1))
    assert abs(np.linalg.det(out) - 1.0) < 1e-12


@pytest.mark.parametrize("mode,dim", [("euler", 3), ("quaternion", 4),
                                      ("sixd", 6), ("matrix", 9)])
def test_decode_rotation_always_in_so3(mode, dim):
    rng = Rng(zlib.crc32(repr(mode).encode()))
    for _ in range(1000):
        vals = rng.uniform(-2.0, 2.0, dim)
        try:
            rot = decode(mode, vals)
        except ValueError:
            continue  # degenerate draws are allowed to be rejected
        assert np.abs(rot.T @ rot - np.eye(3)).max() < 1e-8
        assert abs(np.linalg.det(rot) - 1.0) < 1e-8


# ---------------------------------------------------------------------------
# rigid motion


def test_apply_identity_and_translation():
    cloud = PointCloud([[0.0, 0.0, 0.0]])
    out = geom.apply_transform(RigidTransform.identity(), cloud)
    np.testing.assert_array_equal(out.points, cloud.points)
    out = geom.apply_transform(RigidTransform(np.eye(3), [0, 0, 1.0]), cloud)
    np.testing.assert_array_equal(out.points, [[0.0, 0.0, 1.0]])


def test_apply_inverse_round_trip():
    rng = Rng(3)
    cloud = random_cloud(rng, 40)
    t = random_transform(rng)
    out = geom.apply_transform(t, geom.apply_transform(t.inverse(), cloud))
    np.testing.assert_allclose(out.points, cloud.points, atol=1e-10)


def test_canonicalize_identity():
    cloud = random_cloud(Rng(8), 10)
    out = geom.canonicalize(cloud, RigidTransform.identity())
    np.testing.assert_array_equal(out.points, cloud.points)


def test_canonicalize_inverts_apply():
    rng = Rng(12)
    cloud = random_cloud(rng, 30)
    t = random_transform(rng)
    out = geom.canonicalize(geom.apply_transform(t, cloud), t)
    np.testing.assert_allclose(out.points, cloud.points, atol=1e-10)


def test_canonicalize_matches_matrix_inverse_oracle():
    rng = Rng(13)
    cloud = random_cloud(rng, 25)
    t = random_transform(rng)
    out = geom.canonicalize(cloud, t)
    # independent oracle: apply the explicitly inverted 4x4 matrix
    m = np.eye(4)
    m[:3, :3] = t.rotation
    m[:3, 3] = t.translation
    minv = np.linalg.inv(m)
    expected = cloud.points @ minv[:3, :3].T + minv[:3, 3]
    np.testing.assert_allclose(out.points, expected, atol=1e-12)
    rot90 = RigidTransform(geom.euler_to_matrix([0, 0, np.pi / 2]), np.zeros(3))
    single = geom.canonicalize(PointCloud([[0.0, 1.0, 0.0]]), rot90)
    np.testing.assert_allclose(single.points, [[1.0, 0.0, 0.0]], atol=1e-12)


def test_compose_relative_identities():
    rng = Rng(14)
    t = random_transform(rng)
    out = geom.compose_relative(t, t)
    np.testing.assert_allclose(out.rotation, np.eye(3), atol=1e-14)
    np.testing.assert_allclose(out.translation, np.zeros(3), atol=1e-14)
    t2 = random_transform(rng)
    out = geom.compose_relative(RigidTransform.identity(), t2)
    np.testing.assert_allclose(out.rotation, t2.rotation)
    np.testing.assert_allclose(out.translation, t2.translation)


def test_compose_relative_alignment_guarantee():
    rng = Rng(15)
    for _ in range(100):
        shape = random_cloud(rng, 20)
        t_x, t_y = random_transform(rng), random_transform(rng)
        x = geom.apply_transform(t_x, shape)
        y = geom.apply_transform(t_y, shape)
        moved = geom.apply_transform(geom.compose_relative(t_x, t_y), x)
        np.testing.assert_allclose(moved.points, y.points, atol=1e-9)


# ---------------------------------------------------------------------------
# chamfer


def test_chamfer_identical_is_zero():
    cloud = random_cloud(Rng(16), 50)
    assert geom.chamfer(cloud, cloud) == 0.0


def test_chamfer_hand_values():
    a = PointCloud([[0.0, 0, 0]])
    b = PointCloud([[1.0, 0, 0]])
    assert geom.chamfer(a, b) == pytest.approx(2.0)
    a = PointCloud([[0.0, 0, 0], [2.0, 0, 0]])
    assert geom.chamfer(a, b) == pytest.approx(2.0)


def test_chamfer_symmetry_exact():
    rng = Rng(17)
    a = random_cloud(rng, 33)
    b = random_cloud(rng, 21)
    assert geom.chamfer(a, b) == geom.chamfer(b, a)


def test_chamfer_rigid_invariance():
    rng = Rng(18)
    a = random_cloud(rng, 30)
    b = random_cloud(rng, 28)
    base = geom.chamfer(a, b)
    for _ in range(20):
        t = random_transform(rng)
        moved = geom.chamfer(geom.apply_transform(t, a), geom.apply_transform(t, b))
        assert moved == pytest.approx(base, abs=1e-9)


def test_fit_rigid_recovers_transform():
    rng = Rng(19)
    cloud = random_cloud(rng, 15)
    t = random_transform(rng)
    moved = geom.apply_transform(t, cloud)
    fit = geom.fit_rigid(cloud.points, moved.points)
    np.testing.assert_allclose(fit.rotation, t.rotation, atol=1e-10)
    np.testing.assert_allclose(fit.translation, t.translation, atol=1e-10)
