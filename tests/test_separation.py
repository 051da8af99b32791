import math
import tracemalloc
import zlib
from collections import Counter

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
from upcr.training import unsupervised_loss

from conftest import (canonicalize, decode_rotation, grad_check, pose_related_chain,
                      random_transform, rotation_oracle, softmax, weighted_sum)

CFG = EncoderConfig(k=5, m=24, layers=3, widths=(8, 12, 24), head_widths=(16,))
SPEC = FeatureSpec("distance")


def small_model(seed=2):
    return init_params(CFG, SPEC, "euler", seed)


# ---------------------------------------------------------------------------
# pose-related term: both softmaxes and p * log(p / q) as one op


def softmax_ref(logits) -> np.ndarray:
    """The softmax by ``math.exp``, independent of the library."""
    e = [math.exp(v) for v in logits]
    return np.array(e) / sum(e)


def pose_related(gamma_v, gamma_g) -> np.ndarray:
    """The term's entries; the op emits them as the [1, m] row the head reads."""
    out = separation._pose_related_t(ad.constant(gamma_v), ad.constant(gamma_g)).data
    assert out.shape == (1, len(gamma_v))
    return out[0]


def test_pose_related_identical_is_exact_zero():
    v = Rng(2).uniform(-3, 3, 12)
    assert np.all(pose_related(v, v) == 0.0)


def test_pose_related_reference_values():
    # logits (0, 0) and (0, log 3) give p = (1/2, 1/2) and q = (1/4, 3/4)
    out = pose_related([0.0, 0.0], [0.0, math.log(3.0)])
    expected = [0.5 * math.log(2.0), 0.5 * math.log(2.0 / 3.0)]
    np.testing.assert_allclose(out, expected, atol=1e-9)
    np.testing.assert_allclose(out, [0.346574, -0.202733], atol=1e-6)
    v, g = [1.0, 2.0, 3.0], [0.5, -1.0, 2.0]
    p, q = softmax_ref(v), softmax_ref(g)
    np.testing.assert_allclose(pose_related(v, g), p * np.log(p / q), rtol=1e-9)


def test_pose_related_uniform_on_constant_logits():
    g = np.linspace(-2.0, 2.0, 8)
    out = pose_related(np.full(8, 3.25), g)
    np.testing.assert_allclose(out, np.log(0.125 / softmax_ref(g)) / 8, rtol=1e-9)


@pytest.mark.parametrize("side", ["gamma_v", "gamma_g"])
def test_pose_related_shift_invariance(side):
    rng = Rng(1)
    v, g = rng.uniform(-3, 3, 16), rng.uniform(-3, 3, 16)
    shifted = (v + 7.3, g) if side == "gamma_v" else (v, g + 7.3)
    np.testing.assert_allclose(pose_related(*shifted), pose_related(v, g), atol=1e-12)


def test_pose_related_large_logits_are_finite():
    out = pose_related([1000.0, -1000.0, 1000.0], [-1000.0, 1000.0, 0.0])
    eps = separation.EPS_FLOOR
    np.testing.assert_allclose(out, [0.5 * math.log((0.5 + eps) / eps), 0.0,
                                     0.5 * math.log((0.5 + eps) / eps)], rtol=1e-12)
    assert np.all(pose_related([1000.0, 1000.0], [-1000.0, -1000.0]) == 0.0)


def test_pose_related_sum_is_kl_and_nonnegative():
    rng = Rng(3)
    for _ in range(1000):
        v, g = rng.uniform(-2, 2, 10), rng.uniform(-2, 2, 10)
        p, q = softmax_ref(v), softmax_ref(g)
        out = pose_related(v, g)
        kl = float(np.sum(p * np.log(p / q)))
        assert abs(out.sum() - kl) <= 1e-9
        assert out.sum() >= -1e-9


def test_pose_related_width_mismatch():
    with pytest.raises(ValueError):
        pose_related(np.ones(4), np.ones(5))


@pytest.mark.parametrize("small", ["p", "q"])
def test_pose_related_gradient_with_entries_below_the_floor(small):
    """Two logits 30 below the rest give softmax entries near 1e-14, under
    ``EPS_FLOOR``; the finite differences perturb the logits."""
    rng = Rng(21)
    logits = rng.uniform(-1, 1, 8)
    logits[[1, 5]] -= 30.0
    other = ad.constant(rng.uniform(-1, 1, 8))
    probe = ad.constant(rng.uniform(-1, 1, (1, 8)))

    def fn(z):
        v, g = (z, other) if small == "p" else (other, z)
        return weighted_sum(separation._pose_related_t(v, g), probe)

    assert softmax_ref(logits)[[1, 5]].max() < separation.EPS_FLOOR
    rep = grad_check(fn, logits, h=1e-6, tol=1e-4)
    assert rep.passed, rep.max_rel_error


@pytest.mark.parametrize("m, scale", [(4, 1e-3), (4, 1.0), (16, 30.0), (64, 1.0), (64, 100.0),
                                      (512, 1e-3), (512, 10.0), (512, 800.0)])
def test_pose_related_matches_the_softmax_chain_bit_for_bit(m, scale):
    """The fused op's row and both leaf gradients equal those of the chain of
    two softmaxes and the pose-related term of their probabilities, byte for
    byte: on two draws, on identical inputs, and on one leaf passed twice.
    From scale 30, some softmax entries fall under ``EPS_FLOOR``."""
    rng = Rng(zlib.crc32(repr((m, scale)).encode()))
    v, g = rng.uniform(-scale, scale, m), rng.uniform(-scale, scale, m)
    probe = rng.uniform(-1, 1, (1, m))
    if scale >= 30:
        assert min(softmax(ad.constant(x)).data.min() for x in (v, g)) < separation.EPS_FLOOR

    def run(op, a, b):
        tape = ad.Tape()
        ta = tape.leaf(a.copy())
        tb = ta if b is None else tape.leaf(b.copy())
        out = op(ta, tb)
        ad.backward(weighted_sum(out, probe))
        return [out.data.tobytes(), ta.grad.tobytes(), tb.grad.tobytes()]

    for a, b in [(v, g), (g, v), (v, v), (v, None)]:
        assert run(separation._pose_related_t, a, b) == run(pose_related_chain, a, b)


# ---------------------------------------------------------------------------
# canonical coordinates


@pytest.mark.parametrize("wrt", ["translation", "rotation"])
def test_canonical_gradient_matches_finite_differences(wrt):
    """The head output's Euler angles are its columns 0-2, the translation 3-5."""
    rng = Rng(22)
    pts = rng.uniform(-1, 1, (7, 3))
    out = rng.uniform(-1, 1, (1, 6))
    probe = ad.constant(rng.uniform(-1, 1, (7, 3)))
    rep = grad_check(lambda v: weighted_sum(separation._canonical_t(pts, v)[0], probe), out,
                     h=1e-6, tol=1e-6)
    cols = slice(3, 6) if wrt == "translation" else slice(0, 3)
    assert rep.rel_errors[0, cols].max() <= rep.tol, rep.rel_errors


def test_canonical_gradient_turns_minus_zero_into_plus_zero():
    """Each of the six entries sums from +0.0, as a scatter into the head's
    row would: a zero upstream gradient gives +0.0 everywhere, never -0.0."""
    tape = ad.Tape()
    out = tape.leaf(Rng(23).uniform(-1, 1, (1, 6)))
    canonical, _ = separation._canonical_t(Rng(24).uniform(-1, 1, (5, 3)), out)
    ((nid, grad),) = tape.nodes[canonical.node_id].vjp(np.zeros(canonical.shape))
    assert nid == out.node_id
    assert grad.tobytes() == np.zeros((1, 6)).tobytes()


# ---------------------------------------------------------------------------
# pose head


def head(model, gamma):
    """The pose that the head decodes from the pose-related row ``gamma``."""
    out = separation._head_forward(ad.constant(np.reshape(gamma, (1, -1))), model.params, CFG)
    assert out.shape == (1, 6)
    return separation._canonical_t(np.zeros((1, 3)), out)[1]


def test_regress_pose_zero_final_layer_gives_identity():
    model = small_model()
    model.params["head.1.w"][:] = 0.0
    model.params["head.1.b"][:] = 0.0
    pose = head(model, Rng(4).uniform(-1, 1, CFG.m))
    np.testing.assert_allclose(pose.rotation, np.eye(3), atol=1e-12)
    np.testing.assert_allclose(pose.translation, 0.0, atol=1e-12)


def test_regress_pose_output_dims():
    model = small_model()
    t = model.params
    assert t["head.1.w"].shape[1] == 6
    for name in ("head.0.b", "head.1.b"):  # zero at init; give the biases weight
        t[name][:] = Rng(6).uniform(-0.1, 0.1, t[name].shape)
    gamma = Rng(5).uniform(-1, 1, CFG.m)
    pose = head(model, gamma)
    assert pose.translation.shape == (3,)
    # the raw head output, recomputed by hand, splits into rotation and translation
    hidden = gamma @ t["head.0.w"] + t["head.0.b"][0]
    out = np.maximum(hidden, ad.SLOPE * hidden) @ t["head.1.w"] + t["head.1.b"][0]
    np.testing.assert_allclose(pose.translation, out[3:], atol=1e-12)
    # decoded rotation matches an independent decode of the raw parameter
    np.testing.assert_allclose(pose.rotation, rotation_oracle(out[:3]), atol=1e-10)


@pytest.mark.parametrize("beta", [0.0, np.pi / 2, -np.pi / 2],
                         ids=["euler", "euler-beta-near-+pi/2", "euler-beta-near--pi/2"])
def test_pose_head_gradient_through_rotation(beta):
    """``beta`` is the bias of the head's second output, the Euler pitch,
    whose gimbal lock lies at +-pi/2."""
    model = small_model(seed=6)
    model.params["head.1.b"][0, 1] = beta
    gamma = Rng(7).uniform(-0.5, 0.5, (1, CFG.m))
    pts = Rng(8).uniform(-1, 1, (6, 3))
    probe = Rng(9).uniform(-1, 1, (6, 3))
    name = "head.1.w"

    def fn(t):
        params = {k: (t if k == name else ad.constant(v))
                  for k, v in model.params.items()}
        out = separation._head_forward(ad.constant(gamma), params, CFG)
        return weighted_sum(separation._canonical_t(pts, out)[0], ad.constant(probe))

    rep = grad_check(fn, model.params[name], h=1e-6, tol=1e-3)
    assert rep.passed, rep.max_rel_error


def test_tape_rotation_decoders_match_geom():
    rng = Rng(9)
    for _ in range(20):
        vals = rng.uniform(-1.0, 1.0, 3)
        got = decode_rotation(vals)
        np.testing.assert_allclose(got, rotation_oracle(vals), atol=1e-10)


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


def test_register_returns_canonical_shapes():
    model = small_model(seed=14)
    rng = Rng(15)
    x = synth_shape(4, 24, rng.spawn("x"))
    y = geom.apply_transform(random_transform(rng, 45.0, 0.5), x)
    res = register_pair(x, y, model)
    expected_xc = canonicalize(x, res.pose_x.decoded)
    np.testing.assert_allclose(res.canonical_x.points, expected_xc.points, rtol=0, atol=1e-12)
    expected_yc = canonicalize(y, res.pose_y.decoded)
    np.testing.assert_allclose(res.canonical_y.points, expected_yc.points, rtol=0, atol=1e-12)


@pytest.mark.parametrize("small", ["source", "target"])
def test_register_rejects_a_cloud_of_k_points(small):
    clouds = {"source": PointCloud(Rng(23).uniform(-1, 1, (CFG.k, 3))),
              "target": synth_shape(1, 24, Rng(24))}
    if small == "target":
        clouds = {"source": clouds["target"], "target": clouds["source"]}
    with pytest.raises(ValueError, match=r"k must be in \[1, N-1\]"):
        register_pair(clouds["source"], clouds["target"], small_model())


def test_taped_pair_records_one_node_per_fused_step():
    """The node kinds of one taped pair plus its loss. Each edge convolution,
    point embedding, channel norm, pose-related term with its two softmaxes,
    pose decode with its canonical-coordinate map and Chamfer loss is one
    node, so a chain that grows back (a sub, add, matmul, sqrt, log,
    row-repeat, mul, reduce_sum, reshape, row gather, Euler or softmax node)
    fails here."""
    x = synth_shape(1, 24, Rng(25))
    y = geom.apply_transform(random_transform(Rng(26), 45.0, 0.5), x)
    model = small_model()
    tape = ad.Tape()
    res = register_pair(x, y, model, bound=model.bind(tape))
    unsupervised_loss(res.canonical_x_t, res.canonical_y_t)
    kinds = Counter(node.kind for node in tape.nodes)
    assert kinds == {
        "leaf": 16, "edge_conv": 10, "embed": 2, "channel_norm": 8, "reduce_max": 4,
        "pose_related": 2, "affine": 4, "leaky_relu": 2, "canonical": 2, "chamfer": 1,
    }
    assert not {"reshape", "gather_rows", "euler_rotation", "softmax"} & set(kinds)
    assert sum(kinds.values()) == 51


def test_full_pipeline_grad_check_all_parameters():
    # 8-point clouds keep the finite-difference sweep cheap
    cfg = EncoderConfig(k=3, m=16, layers=2, widths=(8, 16), head_widths=(8,))
    model = init_params(cfg, SPEC, "euler", 16)
    x = PointCloud(Rng(17).uniform(-1, 1, (8, 3)))
    y = geom.apply_transform(random_transform(Rng(18), 30.0, 0.3), x)

    for name in model.params:
        def fn(t, name=name):
            params = {k: (t if k == name else ad.constant(v))
                      for k, v in model.params.items()}
            res = register_pair(x, y, model, bound=params)
            return unsupervised_loss(res.canonical_x_t, res.canonical_y_t)
        rep = grad_check(fn, model.params[name], h=1e-6, tol=1e-3)
        assert rep.passed, (name, rep.max_rel_error)


def _desk_pair():
    rng = Rng(19)
    x = synth_shape(5, 256, rng.spawn("x"))
    y = geom.apply_transform(random_transform(rng, 45.0, 0.5), x)
    return x, y, init_params(EncoderConfig(k=24, m=64), SPEC, "euler", 7)


def test_activation_never_runs_on_edge_tables(monkeypatch):
    x, y, model = _desk_pair()
    rows = []
    relu, activate = ad.leaky_relu, ad._activate

    def counted(a, *args, **kwargs):
        rows.append(ad.as_tensor(a).shape[0])
        return relu(a, *args, **kwargs)

    def counted_in_place(a, gate):
        rows.append(a.shape[0])
        return activate(a, gate)

    monkeypatch.setattr(ad, "leaky_relu", counted)
    monkeypatch.setattr(ad, "_activate", counted_in_place)
    register_pair(x, y, model)
    assert 1 in rows  # the pose head
    assert len(x) in rows  # the point embedding, and the last block of a layer
    assert max(rows) <= len(x)


def test_untaped_paper_pair_transients_stay_small():
    """register_pair at the paper preset (1024 points, k = 24, m = 512). The
    256 -> 512 layer holds its [n, 512] output and neighbor term, 4 MiB each,
    its [n, 256] input and one gathered block; the unfused layer and the whole
    [n*k, 64] embedding table took 20.8 MiB."""
    rng = Rng(27)
    x = synth_shape(3, 1024, rng.spawn("x"))
    y = geom.apply_transform(random_transform(rng, 45.0, 0.5), x)
    model = init_params(EncoderConfig(k=24, m=512), SPEC, "euler", 7)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        register_pair(x, y, model)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 14 * 2**20


def test_taped_paper_pair_with_backward_stays_small():
    """A taped register_pair at the paper preset, its Chamfer loss and the
    backward. Every pooled layer keeps a 1-byte gate and a 1-byte winning k
    index per [n, c] entry; with an int64 table of winning source rows per
    edge convolution the peak was ~89 MiB."""
    rng = Rng(27)
    x = synth_shape(3, 1024, rng.spawn("x"))
    y = geom.apply_transform(random_transform(rng, 45.0, 0.5), x)
    model = init_params(EncoderConfig(k=24, m=512), SPEC, "euler", 7)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        res = register_pair(x, y, model, bound=model.bind(ad.Tape()))
        ad.backward(unsupervised_loss(res.canonical_x_t, res.canonical_y_t))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 72 * 2**20


def test_winner_search_only_on_a_tape(monkeypatch):
    calls = []
    first_max = ad._first_max_index
    monkeypatch.setattr(ad, "_first_max_index", lambda *args: calls.append(1) or first_max(*args))
    x, y, model = _desk_pair()
    register_pair(x, y, model)
    assert not calls
    model = small_model()
    x = synth_shape(1, 24, Rng(20))
    register_pair(x, x, model, bound=model.bind(ad.Tape()))
    assert calls
