import math

import numpy as np
import pytest

from upcr import autodiff as ad
from upcr import geom, separation
from upcr.datagen import synth_shape
from upcr.encoder import EncoderConfig, init_params
from upcr.features import FeatureSpec
from upcr.geom import PointCloud
from upcr.rng import Rng
from upcr.separation import register_pair

from conftest import random_transform, rotation_oracle

CFG = EncoderConfig(k=5, m=24, layers=3, widths=(8, 12, 24), head_widths=(16,))
SPEC = FeatureSpec("distance")
MODES = ("euler", "quaternion", "sixd", "matrix")


def small_model(mode="euler", seed=2):
    return init_params(CFG, SPEC, mode, seed)


# ---------------------------------------------------------------------------
# softmax distributions


def test_to_distribution_uniform_on_constant():
    out = ad.softmax(ad.constant(np.full(8, 3.25))).data
    assert np.all(out >= 0) and abs(out.sum() - 1.0) <= 1e-9
    np.testing.assert_allclose(out, 1.0 / 8)


def test_to_distribution_reference_values():
    out = ad.softmax(ad.constant([1.0, 2.0, 3.0])).data
    e = [math.exp(v) for v in (1.0, 2.0, 3.0)]
    np.testing.assert_allclose(out, np.array(e) / sum(e), rtol=1e-12)


def test_to_distribution_shift_invariance():
    rng = Rng(1)
    v = rng.uniform(-3, 3, 16)
    a = ad.softmax(ad.constant(v)).data
    b = ad.softmax(ad.constant(v + 7.3)).data
    np.testing.assert_allclose(a, b, atol=1e-12)


# ---------------------------------------------------------------------------
# pose-related subtraction


def dist(values) -> np.ndarray:
    v = np.asarray(values, dtype=np.float64)
    return v / v.sum()


def pose_related(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    return separation._pose_related_t(ad.constant(p), ad.constant(q)).data


def test_pose_related_identical_is_exact_zero():
    p = dist(Rng(2).uniform(0.1, 1.0, 12))
    out = pose_related(p, p)
    assert np.all(out == 0.0)


def test_pose_related_reference_values():
    p = dist([0.5, 0.5])
    q = dist([0.25, 0.75])
    out = pose_related(p, q)
    expected = [0.5 * math.log(2.0), 0.5 * math.log(2.0 / 3.0)]
    np.testing.assert_allclose(out, expected, atol=1e-9)
    np.testing.assert_allclose(out, [0.346574, -0.202733], atol=1e-6)


def test_pose_related_sum_is_kl_and_nonnegative():
    rng = Rng(3)
    for _ in range(1000):
        p = dist(rng.uniform(0.01, 1.0, 10))
        q = dist(rng.uniform(0.01, 1.0, 10))
        out = pose_related(p, q)
        kl = float(np.sum(p * np.log(p / q)))
        assert abs(out.sum() - kl) <= 1e-9
        assert out.sum() >= -1e-9


def test_pose_related_width_mismatch():
    with pytest.raises(ValueError):
        pose_related(dist(np.ones(4)), dist(np.ones(5)))


# ---------------------------------------------------------------------------
# pose head


def head(model, gamma):
    return separation._head_forward(ad.constant(gamma), model.constants(), CFG,
                                    model.rotation_mode)


def test_regress_pose_zero_final_layer_gives_identity():
    for mode in MODES:
        model = small_model(mode)
        model.tensors["head.1.w"][:] = 0.0
        model.tensors["head.1.b"][:] = 0.0
        _, trans, rot = head(model, Rng(4).uniform(-1, 1, CFG.m))
        np.testing.assert_allclose(rot.data, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(trans.data, 0.0, atol=1e-12)


@pytest.mark.parametrize("mode,rot_dim", [("euler", 3), ("quaternion", 4),
                                          ("sixd", 6), ("matrix", 9)])
def test_regress_pose_output_dims(mode, rot_dim):
    model = small_model(mode)
    assert model.tensors["head.1.w"].shape[1] == rot_dim + 3
    rot_vals, trans, rot = head(model, Rng(5).uniform(-1, 1, CFG.m))
    assert rot_vals.shape == (rot_dim,)
    assert trans.shape == (3,)
    # decoded rotation matches an independent decode of the raw parameter
    np.testing.assert_allclose(rot.data, rotation_oracle(mode, rot_vals.data), atol=1e-10)


@pytest.mark.parametrize("mode", MODES)
def test_pose_head_gradient_through_rotation(mode):
    model = small_model(mode, seed=6)
    gamma = Rng(7).uniform(-0.5, 0.5, CFG.m)
    probe = Rng(8).uniform(-1, 1, (3, 3))
    name = "head.1.w"

    def fn(t):
        params = {k: (t if k == name else ad.constant(v))
                  for k, v in model.tensors.items()}
        _, _, rot = separation._head_forward(ad.constant(gamma), params, CFG, mode)
        return ad.reduce_sum(ad.mul(rot, ad.constant(probe)))

    rep = ad.grad_check(fn, model.tensors[name], h=1e-6, tol=1e-3)
    assert rep.passed, (mode, rep.max_rel_error)


def test_tape_rotation_decoders_match_geom():
    rng = Rng(9)
    for mode, dim in (("euler", 3), ("quaternion", 4), ("sixd", 6), ("matrix", 9)):
        for i in range(20):
            vals = rng.uniform(-1.0, 1.0, dim)
            if mode == "matrix" and i % 2 == 0:
                vals = (np.eye(3) + 0.3 * rng.uniform(-1, 1, (3, 3))).reshape(-1)
            got = geom.rotation_mode(mode).decode(ad.constant(vals)).data
            np.testing.assert_allclose(got, rotation_oracle(mode, vals), atol=1e-10,
                                       err_msg=mode)


# ---------------------------------------------------------------------------
# register_pair


def test_register_identical_clouds_gives_identity():
    rng = Rng(10)
    for seed in range(20):
        model = init_params(CFG, SPEC, "euler", seed)
        cloud = synth_shape(seed % 7, 24, Rng(100 + seed))
        res = register_pair(cloud, cloud, model)
        np.testing.assert_allclose(res.transform.rotation, np.eye(3), atol=1e-10)
        np.testing.assert_allclose(res.transform.translation, 0.0, atol=1e-10)


def test_register_output_satisfies_so3():
    model = small_model()
    rng = Rng(11)
    x = synth_shape(1, 24, rng.spawn("x"))
    y = synth_shape(2, 24, rng.spawn("y"))
    res = register_pair(x, y, model)
    rot = res.transform.rotation
    assert np.abs(rot.T @ rot - np.eye(3)).max() < 1e-10
    assert abs(np.linalg.det(rot) - 1.0) < 1e-10


def test_register_invariant_to_point_order():
    model = small_model(seed=12)
    rng = Rng(13)
    x = synth_shape(3, 30, rng.spawn("x"))
    y = geom.apply_transform(random_transform(rng, 45.0, 0.5), x)
    base = register_pair(x, y, model)
    perm_x = np.argsort(rng.uniform(size=30))
    perm_y = np.argsort(rng.uniform(size=30))
    res = register_pair(PointCloud(x.points[perm_x]), PointCloud(y.points[perm_y]), model)
    np.testing.assert_allclose(res.transform.rotation, base.transform.rotation, atol=1e-9)
    np.testing.assert_allclose(res.transform.translation, base.transform.translation,
                               atol=1e-9)


def _reflecting_matrix_model():
    # raw matrix head output diag(1, 2, -3) for every input: det < 0 with
    # distinct singular values
    model = small_model("matrix", seed=14)
    model.tensors["head.1.w"][:] = 0.0
    model.tensors["head.1.b"][0, :9] = (np.diag([1.0, 2.0, -3.0]) - np.eye(3)).reshape(-1)
    return model


@pytest.mark.parametrize("case", MODES + ("matrix-reflected",))
def test_register_returns_canonical_shapes(case):
    model = _reflecting_matrix_model() if case == "matrix-reflected" else small_model(case, seed=14)
    rng = Rng(15)
    x = synth_shape(4, 24, rng.spawn("x"))
    y = geom.apply_transform(random_transform(rng, 45.0, 0.5), x)
    res = register_pair(x, y, model)
    expected_xc = geom.canonicalize(x, res.pose_x.decoded)
    np.testing.assert_allclose(res.canonical_x.points, expected_xc.points, rtol=0, atol=1e-12)
    expected_yc = geom.canonicalize(y, res.pose_y.decoded)
    np.testing.assert_allclose(res.canonical_y.points, expected_yc.points, rtol=0, atol=1e-12)
    if case == "matrix-reflected":
        np.testing.assert_allclose(res.pose_x.decoded.rotation, np.diag([-1.0, 1.0, -1.0]),
                                   atol=1e-15)


def test_full_pipeline_grad_check_all_parameters():
    # 8-point clouds keep the finite-difference sweep cheap
    cfg = EncoderConfig(k=3, m=16, layers=2, widths=(8, 16), head_widths=(8,))
    model = init_params(cfg, SPEC, "euler", 16)
    x = PointCloud(Rng(17).uniform(-1, 1, (8, 3)))
    y = geom.apply_transform(random_transform(Rng(18), 30.0, 0.3), x)
    from upcr.training import unsupervised_loss

    for name in model.tensors:
        def fn(t, name=name):
            params = {k: (t if k == name else ad.constant(v))
                      for k, v in model.tensors.items()}
            res = register_pair(x, y, model, bound=params)
            return unsupervised_loss(res.canonical_x_t, res.canonical_y_t)
        rep = ad.grad_check(fn, model.tensors[name], h=1e-6, tol=1e-3)
        assert rep.passed, (name, rep.max_rel_error)
