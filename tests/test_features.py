import numpy as np
import pytest

from upcr import features, geom
from upcr import autodiff as ad
from upcr.datagen import synth_shape
from upcr.features import FeatureSpec
from upcr.geom import PointCloud
from upcr.rng import Rng

from conftest import random_cloud, random_transform


def transformed(cloud: PointCloud, rng: Rng, max_angle=180.0, max_trans=10.0):
    return geom.apply_transform(random_transform(rng, max_angle, max_trans), cloud)


# ---------------------------------------------------------------------------
# FeatureSpec


def test_spec_dims():
    assert FeatureSpec("distance").dim == 3
    assert FeatureSpec("ppf").dim == 4
    assert FeatureSpec("spfh").dim == 33
    assert FeatureSpec("pfh").dim == 125
    assert FeatureSpec("distance+ppf").dim == 7
    assert FeatureSpec("distance+spfh").dim == 36
    assert FeatureSpec("distance+ppf+spfh").dim == 40


def test_spec_rejects_unknown_kind():
    with pytest.raises(ValueError):
        FeatureSpec("fpfh")


# ---------------------------------------------------------------------------
# distance feature


def test_distance_feature_hand_case():
    out = features.distance_feature([0, 0, 0], [1, 0, 0], [0, 1, 0])
    np.testing.assert_allclose(out, [1.0, np.sqrt(2.0), 1.0])


def test_distance_feature_coincident_neighbor():
    out = features.distance_feature([0, 0, 0], [1, 2, 2], [1, 2, 2])
    assert out[1] == 0.0
    assert out[0] == out[2] == 3.0


def test_distance_feature_rigid_invariance():
    rng = Rng(31)
    o = rng.uniform(-1, 1, 3)
    xi = rng.uniform(-1, 1, 3)
    xij = rng.uniform(-1, 1, 3)
    base = features.distance_feature(o, xi, xij)
    for _ in range(50):
        t = random_transform(rng, 180.0, 10.0)
        moved = features.distance_feature(
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
    cloud, warn = features.estimate_normals(PointCloud(pts), k=8)
    assert not warn
    np.testing.assert_allclose(np.abs(cloud.normals[:, 2]), 1.0, atol=1e-9)


def test_normals_on_sphere_close_to_radial():
    rng = Rng(33)
    dirs = rng.normal((500, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    cloud, _ = features.estimate_normals(PointCloud(dirs), k=8)
    cos = np.abs(np.einsum("ij,ij->i", cloud.normals, dirs))
    angles = np.rad2deg(np.arccos(np.clip(cos, -1, 1)))
    assert np.max(angles) < 15.0


def test_normals_flag_collinear_points():
    pts = np.zeros((10, 3))
    pts[:, 0] = np.arange(10.0)
    cloud, warn = features.estimate_normals(PointCloud(pts), k=4)
    assert warn  # every neighborhood is rank deficient
    for i in warn:
        np.testing.assert_array_equal(cloud.normals[i], [0.0, 0.0, 1.0])


def test_normals_need_k_at_least_3():
    with pytest.raises(ValueError):
        features.estimate_normals(random_cloud(Rng(1), 10), k=2)


# ---------------------------------------------------------------------------
# ppf


def test_ppf_orthogonal_configuration():
    out = features.ppf_feature([0, 0, 0], [0, 0, 1], [1, 0, 0], [0, 0, 1])
    np.testing.assert_allclose(out, [np.pi / 2, np.pi / 2, 0.0, 1.0], atol=1e-12)


def test_ppf_antipodal_normals():
    n1 = np.array([0.0, 0.0, 1.0])
    out = features.ppf_feature([0, 0, 0], n1, [1, 0, 0], -n1)
    assert out[2] == pytest.approx(np.pi)


def test_ppf_coincident_points_rejected():
    with pytest.raises(ValueError):
        features.ppf_feature([1, 2, 3], [0, 0, 1], [1, 2, 3], [0, 0, 1])


def test_ppf_rigid_invariance():
    rng = Rng(34)
    p1, p2 = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
    n1, n2 = rng.unit_vector(), rng.unit_vector()
    base = features.ppf_feature(p1, n1, p2, n2)
    for _ in range(200):
        t = random_transform(rng, 180.0, 10.0)
        out = features.ppf_feature(t.rotation @ p1 + t.translation, t.rotation @ n1,
                                   t.rotation @ p2 + t.translation, t.rotation @ n2)
        np.testing.assert_allclose(out, base, atol=1e-9)


# ---------------------------------------------------------------------------
# spfh / pfh


def _shape_with_normals(seed=35, n=64, k=8):
    cloud = synth_shape(3, n, Rng(seed))
    with_normals, _ = features.estimate_normals(cloud, k)
    return with_normals


def test_spfh_histograms_normalized():
    cloud = _shape_with_normals()
    hist = features.spfh_table(cloud, 8).values[0]
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
    cloud = PointCloud(pts, normals)
    hist = features.spfh_table(cloud, 6).values[0]
    alpha_hist = hist[:11]
    # alpha = 0 falls in the central bin of [-1, 1]
    assert alpha_hist[5] == pytest.approx(1.0, abs=1e-9)


def test_spfh_rigid_invariance():
    cloud = _shape_with_normals()
    base = features.spfh_table(cloud, 8).values
    rng = Rng(37)
    for _ in range(5):
        t = random_transform(rng, 180.0, 10.0)
        moved = features.spfh_table(geom.apply_transform(t, cloud), 8).values
        np.testing.assert_allclose(moved, base, atol=1e-9)


def test_pfh_two_point_neighborhood_single_bin():
    pts = np.array([[0.0, 0, 0], [1.0, 0, 0]])
    normals = np.tile([0.0, 0.0, 1.0], (2, 1))
    hist = features.pfh_table(PointCloud(pts, normals), 1).values[0]
    assert hist.shape == (125,)
    assert np.count_nonzero(hist) == 1
    assert hist.max() == pytest.approx(1.0)


def test_pfh_normalized_and_invariant():
    cloud = _shape_with_normals(38)
    table = features.pfh_table(cloud, 8).values
    np.testing.assert_allclose(table.sum(axis=1), 1.0, atol=1e-9)
    rng = Rng(39)
    t = random_transform(rng, 180.0, 10.0)
    moved = features.pfh_table(geom.apply_transform(t, cloud), 8).values
    np.testing.assert_allclose(moved, table, atol=1e-9)


def test_pfh_spfh_antiparallel_seam_invariant():
    # two parallel slabs with opposing normals: every cross-slab pair has
    # theta at the +-pi seam, where rounding alone used to pick the bin
    xy = Rng(41).uniform(-1.0, 1.0, (48, 2))
    pts = np.column_stack([xy, np.repeat([0.05, -0.05], 24)])
    normals = np.zeros((48, 3))
    normals[:24, 2] = 1.0
    normals[24:, 2] = -1.0
    cloud = PointCloud(pts, normals)
    for table in (features.pfh_table, features.spfh_table):
        base = table(cloud, 8).values
        rng = Rng(42)
        for _ in range(20):
            t = random_transform(rng, 180.0, 10.0)
            moved = table(geom.apply_transform(t, cloud), 8).values
            np.testing.assert_array_equal(moved, base)


def test_pfh_permutation_invariance():
    cloud = _shape_with_normals(40, n=32, k=6)
    base = features.pfh_table(cloud, 6).values[0]
    # permute every point except index 0, re-estimate nothing (reuse normals)
    perm = np.concatenate([[0], 1 + np.argsort(Rng(3).uniform(size=31))])
    permuted = PointCloud(cloud.points[perm], cloud.normals[perm])
    out = features.pfh_table(permuted, 6).values[0]
    np.testing.assert_allclose(out, base, atol=1e-12)


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
    out = features.embed_from_features(phi, w, b).data
    expect = phi[:, 0, :] @ w + b
    expect = np.maximum(expect, 0.2 * expect)
    np.testing.assert_allclose(out, expect, atol=1e-12)


def test_embed_identity_halpha_symmetric_points():
    # equally spaced collinear interior points see mirror-image neighborhoods
    pts = np.array([[float(i), 0.0, 0.0] for i in range(5)])
    cloud = PointCloud(pts)
    phi = features.neighbor_feature_array(cloud, FeatureSpec("distance"), geom.knn(cloud, 2))
    out = features.embed_from_features(phi, np.eye(3), np.zeros((1, 3))).data
    np.testing.assert_allclose(out[1], out[3], atol=1e-12)


def test_embed_rigid_invariance_all_specs():
    cloud = synth_shape(7, 48, Rng(42))
    rng = Rng(43)
    w_cache = {}
    for kind in features.FEATURE_KINDS:
        spec = FeatureSpec(kind)
        w = w_cache.setdefault(spec.dim, Rng(spec.dim).uniform(-1, 1, (spec.dim, 6)))
        phi = features.neighbor_feature_array(cloud, spec, geom.knn(cloud, 8))
        base = features.embed_from_features(phi, w, np.zeros((1, 6))).data
        for _ in range(3):
            t = random_transform(rng, 180.0, 10.0)
            moved_cloud = geom.apply_transform(t, PointCloud(cloud.points))
            phi = features.neighbor_feature_array(moved_cloud, spec, geom.knn(moved_cloud, 8))
            moved = features.embed_from_features(phi, w, np.zeros((1, 6))).data
            np.testing.assert_allclose(moved, base, atol=1e-6)


def test_embed_permutation_equivariance():
    cloud = synth_shape(9, 40, Rng(44))
    spec = FeatureSpec("distance")
    w = Rng(45).uniform(-1, 1, (3, 4))
    b = np.zeros((1, 4))
    phi = features.neighbor_feature_array(cloud, spec, geom.knn(cloud, 5))
    base = features.embed_from_features(phi, w, b).data
    perm = np.argsort(Rng(46).uniform(size=40))
    permuted = PointCloud(cloud.points[perm])
    phi = features.neighbor_feature_array(permuted, spec, geom.knn(permuted, 5))
    out = features.embed_from_features(phi, w, b).data
    np.testing.assert_allclose(out, base[perm], atol=1e-12)


def test_embed_runs_on_tape():
    cloud = random_cloud(Rng(47), 12)
    spec = FeatureSpec("distance")
    tape = ad.Tape()
    w = tape.leaf(Rng(48).uniform(-1, 1, (3, 4)), requires_grad=True)
    b = tape.leaf(np.zeros((1, 4)), requires_grad=True)
    phi = features.neighbor_feature_array(cloud, spec, geom.knn(cloud, 3))
    out = features.embed_from_features(phi, w, b)
    ad.backward(ad.reduce_sum(out))
    assert w.grad is not None and np.any(w.grad != 0)
    assert b.grad is not None
