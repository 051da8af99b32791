import numpy as np
import pytest

from upcr import autodiff as ad
from upcr import geom
from upcr.datagen import synth_shape
from upcr.encoder import (CloudCache, EncoderConfig, edge_conv_layer, init_params,
                          precompute_cloud, encode_global, encode_invariant)
from upcr.features import FEATURE_KINDS, FeatureSpec
from upcr.geom import PointCloud
from upcr.rng import Rng

from conftest import random_transform

DESK = EncoderConfig(k=6, m=32, layers=3, widths=(8, 16, 32), head_widths=(16,))
SPEC = FeatureSpec("distance")


def model_for(config=DESK, seed=1):
    return init_params(config, SPEC, "euler", seed)


def test_config_presets_and_validation():
    assert EncoderConfig(k=24, m=512, layers=5).widths == (64, 64, 128, 256, 512)
    assert EncoderConfig(k=24, m=64, layers=5).widths == (16, 16, 32, 32, 64)
    with pytest.raises(ValueError):
        EncoderConfig(k=24, m=64, layers=5, widths=(16, 64))
    with pytest.raises(ValueError):
        EncoderConfig(k=24, m=64, layers=2, widths=(16, 32))  # last != m
    with pytest.raises(ValueError):
        EncoderConfig(k=0, m=8, layers=1)


def test_param_shapes_follow_config():
    model = model_for()
    assert model.tensors["global.0.w"].shape == (6, 8)
    assert model.tensors["global.1.w"].shape == (16, 16)
    assert model.tensors["alpha.w"].shape == (3, 8)
    assert model.tensors["inv.1.w"].shape == (16, 16)
    assert model.tensors["head.0.w"].shape == (32, 16)
    assert model.tensors["head.1.w"].shape == (16, 6)  # euler: 3 + 3
    for arr in model.tensors.values():
        assert np.all(np.isfinite(arr))


def test_init_params_rejects_unknown_rotation_mode():
    with pytest.raises(ValueError, match="'spin'; expected one of euler, quaternion, sixd, matrix"):
        init_params(EncoderConfig(k=4, m=16, layers=2, widths=(8, 16)), SPEC, "spin", 0)


def test_edge_conv_shape_contract():
    rng = Rng(2)
    feats = ad.constant(rng.uniform(-1, 1, (4, 3)))
    nbr = np.array([[1, 2], [0, 3], [3, 0], [2, 1]])
    w = rng.uniform(-1, 1, (6, 5))
    out = edge_conv_layer(feats, nbr, w, np.zeros((1, 5)))
    assert out.shape == (4, 5)


def test_edge_conv_zero_difference_case():
    # weights reading only the neighbor-difference slot, coincident points
    pts = np.ones((5, 3))
    nbr = np.array([[1, 2], [2, 3], [3, 4], [4, 0], [0, 1]])
    w = np.vstack([np.zeros((3, 3)), np.eye(3)])
    out = edge_conv_layer(ad.constant(pts), nbr, w, np.zeros((1, 3)))
    np.testing.assert_allclose(out.data, 0.0, atol=1e-15)


def test_edge_conv_permutation_equivariance():
    rng = Rng(3)
    feats = rng.uniform(-1, 1, (16, 4))
    nbr = np.stack([np.argsort(rng.uniform(size=16))[:3] for _ in range(16)])
    w = rng.uniform(-1, 1, (8, 6))
    b = rng.uniform(-1, 1, (1, 6))
    base = edge_conv_layer(ad.constant(feats), nbr, w, b).data

    perm = np.argsort(rng.uniform(size=16))
    inv = np.empty(16, dtype=int)
    inv[perm] = np.arange(16)
    out = edge_conv_layer(ad.constant(feats[perm]), inv[nbr[perm]], w, b).data
    np.testing.assert_allclose(out, base[perm], atol=1e-12)


def test_edge_conv_index_out_of_range():
    with pytest.raises(ad.ShapeError):
        edge_conv_layer(ad.constant(np.zeros((3, 2))), np.array([[5], [0], [1]]),
                        np.zeros((4, 3)), np.zeros((1, 3)))


def test_encode_global_needs_enough_points():
    model = model_for()
    cloud = PointCloud(Rng(4).uniform(-1, 1, (5, 3)))
    with pytest.raises(ValueError):
        encode_global(cloud, DESK, model.constants())


def test_encode_global_duplication_invariance():
    model = model_for()
    cloud = synth_shape(2, 40, Rng(5))
    base = encode_global(cloud, DESK, model.constants()).data
    doubled = PointCloud(np.concatenate([cloud.points, cloud.points]))
    out = encode_global(doubled, DESK, model.constants()).data
    np.testing.assert_allclose(out, base, atol=1e-9)


@pytest.mark.parametrize("kind", FEATURE_KINDS)
def test_encode_invariant_duplication_invariance(kind):
    spec = FeatureSpec(kind)
    model = init_params(DESK, spec, "euler", 1)
    cloud = synth_shape(2, 40, Rng(5))
    base = encode_invariant(cloud, spec, DESK, model.constants()).data
    doubled = PointCloud(np.concatenate([cloud.points, cloud.points]))
    out = encode_invariant(doubled, spec, DESK, model.constants()).data
    np.testing.assert_allclose(out, base, atol=1e-9)


def test_encode_global_permutation_invariance():
    model = model_for()
    cloud = synth_shape(3, 48, Rng(6))
    base = encode_global(cloud, DESK, model.constants()).data
    perm = np.argsort(Rng(7).uniform(size=48))
    out = encode_global(PointCloud(cloud.points[perm]), DESK, model.constants()).data
    np.testing.assert_allclose(out, base, atol=1e-9)


def test_encode_global_distinguishes_shapes():
    model = model_for()
    a = synth_shape(0, 40, Rng(8))
    b = synth_shape(21, 40, Rng(9))
    ga = encode_global(a, DESK, model.constants()).data
    gb = encode_global(b, DESK, model.constants()).data
    assert np.max(np.abs(ga - gb)) > 1e-6


def test_encode_global_is_pose_sensitive():
    # a 45 degree rotation must change the global representation
    model = model_for()
    changed = 0
    for i in range(20):
        cloud = synth_shape(i, 40, Rng(100 + i))
        rot = geom.euler_to_matrix(np.deg2rad([0.0, 0.0, 45.0]))
        moved = geom.apply_transform(geom.RigidTransform(rot, np.zeros(3)), cloud)
        ga = encode_global(cloud, DESK, model.constants()).data
        gb = encode_global(moved, DESK, model.constants()).data
        changed += np.max(np.abs(ga - gb)) > 1e-6
    assert changed >= 19  # 95 percent of shapes


def test_encode_invariant_rigid_motion_invariance():
    model = model_for()
    cloud = synth_shape(5, 48, Rng(10))
    base = encode_invariant(cloud, SPEC, DESK, model.constants()).data
    rng = Rng(11)
    for _ in range(5):
        t = random_transform(rng, 180.0, 10.0)
        moved = geom.apply_transform(t, cloud)
        out = encode_invariant(moved, SPEC, DESK, model.constants()).data
        np.testing.assert_allclose(out, base, atol=1e-6)


def test_encode_invariant_width_matches_global():
    model = model_for()
    cloud = synth_shape(6, 40, Rng(12))
    gi = encode_invariant(cloud, SPEC, DESK, model.constants())
    gg = encode_global(cloud, DESK, model.constants())
    assert gi.shape == gg.shape == (DESK.m,)


def test_encode_invariant_permutation_invariance():
    model = model_for()
    cloud = synth_shape(7, 40, Rng(13))
    base = encode_invariant(cloud, SPEC, DESK, model.constants()).data
    perm = np.argsort(Rng(14).uniform(size=40))
    out = encode_invariant(PointCloud(cloud.points[perm]), SPEC, DESK,
                           model.constants()).data
    np.testing.assert_allclose(out, base, atol=1e-9)


def test_all_parameters_receive_gradients():
    from upcr.separation import register_pair
    from upcr.training import unsupervised_loss

    model = model_for()
    x = synth_shape(8, 32, Rng(15))
    y = geom.apply_transform(random_transform(Rng(17), 45.0, 0.5), x)
    tape = ad.Tape()
    bound = model.bind(tape)
    res = register_pair(x, y, model, bound=bound)
    ad.backward(unsupervised_loss(res.canonical_x_t, res.canonical_y_t))
    for name in model.tensors:
        g = bound[name].grad
        assert g is not None and np.any(g != 0), name


def test_precompute_cache_matches_direct():
    model = model_for()
    cloud = synth_shape(9, 40, Rng(16))
    cache = precompute_cloud(cloud, SPEC, DESK)
    direct = encode_invariant(cloud, SPEC, DESK, model.constants()).data
    cached = encode_invariant(cloud, SPEC, DESK, model.constants(), cache).data
    np.testing.assert_array_equal(direct, cached)
    direct_g = encode_global(cloud, DESK, model.constants()).data
    cached_g = encode_global(cloud, DESK, model.constants(), cache).data
    np.testing.assert_array_equal(direct_g, cached_g)
