import tracemalloc

import numpy as np
import pytest

from upcr import autodiff as ad
from upcr import geom, separation
from upcr.datagen import synth_shape
from upcr.encoder import (EncoderConfig, channel_norm, edge_conv_layer, embed_from_features,
                          init_params, precompute_cloud, encode_global, encode_invariant)
from upcr.features import FEATURE_KINDS, FeatureSpec
from upcr.geom import PointCloud
from upcr.rng import Rng

from conftest import (add, edge_conv_chain, edge_conv_oracle, embed_chain, embed_oracle,
                      grad_check, random_transform, weighted_sum)

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
    with pytest.raises(ValueError, match="head widths must be positive"):
        EncoderConfig(k=24, m=64, layers=5, head_widths=(8, 0))


@pytest.mark.parametrize("fields", [dict(k=5.5), dict(k=True), dict(m=np.int64(16)),
                                    dict(widths=(8.7, 16)), dict(head_widths=(8, True))],
                         ids=["float-k", "bool-k", "numpy-m", "float-width", "bool-head-width"])
def test_config_rejects_counts_that_are_not_plain_ints(fields):
    with pytest.raises(ValueError, match="must be positive ints, got"):
        EncoderConfig(**{**dict(k=5, m=16, layers=2, widths=(8, 16), head_widths=(8,)), **fields})


@pytest.mark.parametrize("flag", ["false", 0], ids=["string", "int"])
def test_config_rejects_a_dynamic_graph_that_is_not_a_bool(flag):
    with pytest.raises(ValueError, match=f"dynamic_graph must be a bool, got {flag!r}"):
        EncoderConfig(k=8, m=16, dynamic_graph=flag)


def test_param_shapes_follow_config():
    model = model_for()
    assert model.params["global.0.w"].shape == (6, 8)
    assert model.params["global.1.w"].shape == (16, 16)
    assert model.params["alpha.w"].shape == (3, 8)
    assert model.params["inv.1.w"].shape == (16, 16)
    assert model.params["head.0.w"].shape == (32, 16)
    assert model.params["head.1.w"].shape == (16, 6)  # euler: 3 + 3
    for arr in model.params.values():
        assert np.all(np.isfinite(arr))


def test_init_params_rejects_unknown_rotation_mode():
    """The head has one decoder; a former mode name fails instead of being ignored."""
    for mode in ("quaternion", "spin", None):
        with pytest.raises(ValueError, match=f"^rotation_mode must be 'euler', got {mode!r}$"):
            init_params(EncoderConfig(k=4, m=16, layers=2, widths=(8, 16)), SPEC, mode, 0)


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


def _pooling_inputs(seed: int, ties: bool, n: int = 12, k: int = 5, c: int = 4, c_out: int = 6):
    """Mixed-sign pre-activations; with ``ties`` every row repeats its first
    neighbor (and its first feature row) at k slots 2 and 4, so several k
    entries hold exactly the same value."""
    rng = Rng(seed)
    feats = rng.normal((n, c))
    nbr = rng.integers(0, n, (n, k))
    phi = rng.normal((n, k, 3))
    if ties:
        nbr[:, 2] = nbr[:, 4] = nbr[:, 0]
        phi[:, 2] = phi[:, 4] = phi[:, 0]
    return feats, nbr, phi, rng.normal((2 * c, c_out)), rng.normal((1, c_out)), rng.normal((3, c_out))


@pytest.mark.parametrize("ties", [False, True], ids=["distinct", "ties"])
def test_pool_first_matches_activate_first_bit_for_bit(ties):
    outputs = []
    for seed in range(5):
        feats, nbr, phi, w, b, alpha = _pooling_inputs(seed, ties)
        got = edge_conv_layer(ad.constant(feats), nbr, w, b).data
        want = edge_conv_oracle(ad.constant(feats), nbr, w, b).data
        assert got.tobytes() == want.tobytes()
        outputs.append(got)
        got = embed_from_features(phi, alpha, b).data
        want = embed_oracle(phi, alpha, b).data
        assert got.tobytes() == want.tobytes()
        outputs.append(got)
    # pooled maxima of both signs: the activation's negative branch is exercised
    for out in outputs[0::2], outputs[1::2]:
        assert np.signbit(np.stack(out)).any() and (np.stack(out) > 0).any()


def test_pool_first_gradients_match_activate_first():
    for seed in range(5):
        feats, nbr, phi, w, b, alpha = _pooling_inputs(seed, ties=False)
        probe = Rng(100 + seed).normal((feats.shape[0], w.shape[1]))
        grads = []
        for conv, embed in ((edge_conv_layer, embed_from_features),
                            (edge_conv_oracle, embed_oracle)):
            tape = ad.Tape()
            x, wt, bt, at = (tape.leaf(v) for v in (feats, w, b, alpha))
            loss = add(weighted_sum(conv(x, nbr, wt, bt), probe),
                          weighted_sum(embed(phi, at, bt), probe))
            ad.backward(loss)
            grads.append([t.grad for t in (x, wt, bt, at)])
        for got, want in zip(*grads):
            assert np.abs(want).max() > 0
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_taped_edge_conv_sorts_nothing(monkeypatch):
    calls = []

    def counted(name):
        fn = getattr(np, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("argsort", "unique"):
        monkeypatch.setattr(np, name, counted(name))
    feats, nbr, _, w, b, _ = _pooling_inputs(0, ties=True)
    tape = ad.Tape()
    x, wt, bt = (tape.leaf(v) for v in (feats, w, b))
    ad.backward(weighted_sum(edge_conv_layer(x, nbr, wt, bt)))
    assert not calls


def test_taped_edge_conv_keeps_pooled_gradients():
    feats, nbr, _, w, b, _ = _pooling_inputs(0, ties=True)
    n, c_out = feats.shape[0], w.shape[1]
    assert 2 * feats.shape[1] <= n  # so every parameter gradient fits in n*c'
    tape = ad.Tape()
    x, wt, bt = (tape.leaf(v) for v in (feats, w, b))
    loss = weighted_sum(edge_conv_layer(x, nbr, wt, bt))
    kinds = {node.kind for node in tape.nodes}
    assert kinds == {"leaf", "edge_conv", "weighted_sum"}
    sizes = []

    def sized(vjp):
        def wrapper(g):
            out = vjp(g)
            sizes.extend(gin.size for _, gin in out)
            return out
        return wrapper

    for node in tape.nodes:
        if node.vjp is not None:
            node.vjp = sized(node.vjp)
    ad.backward(loss)
    assert sizes and max(sizes) <= n * c_out


def test_register_pair_edge_tables_stay_within_the_block_budget(monkeypatch):
    # desk preset: the widest layer's whole [n*k, 64] table, 3 MiB, is over budget
    config = EncoderConfig(k=24, m=64)
    n, k = 256, config.k
    sizes = []
    pair_table = ad.pair_table

    def sized(b, neighbors):
        out = pair_table(b, neighbors)
        sizes.append((out.data.nbytes, k * out.shape[1] * 8))
        return out

    monkeypatch.setattr(ad, "pair_table", sized)
    x = synth_shape(0, n, Rng(1))
    separation.register_pair(x, geom.apply_transform(random_transform(Rng(2)), x),
                             model_for(config))
    assert len(sizes) > 2 * (2 * config.layers - 1)  # some layer took several blocks
    assert all(size <= max(ad._EDGE_BLOCK_BYTES, row) for size, row in sizes)
    widths = config.widths
    assert sum(size for size, _ in sizes) == 2 * 8 * n * k * (sum(widths) + sum(widths[1:]))


def test_untaped_edge_conv_peak_memory_stays_far_below_its_edge_table():
    # the whole [1024 * 24, 256] edge table alone would take 48 MiB; the fused
    # op holds its output and the neighbor term, 2 MiB each, and one gathered
    # block of at most 1 MiB (the unfused chain peaked at ~9 MiB)
    rng = Rng(0)
    n, k, c = 1024, 24, 256
    feats = ad.constant(rng.uniform(-1, 1, (n, c)))
    nbr = rng.integers(0, n, (n, k))
    w, b = rng.uniform(-0.1, 0.1, (2 * c, c)), np.zeros((1, c))
    tracemalloc.start()
    try:
        edge_conv_layer(feats, nbr, w, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * n * c * 8 + ad._EDGE_BLOCK_BYTES + 2**18


def _chain_inputs(case: str, seed: int, n: int = 12, k: int = 5, c: int = 3, c_out: int = 4):
    """Features, neighbors, weight, bias and an upstream gradient with one
    -0.0. "ties" draws small integers, so sums are exact and neighbors tie
    often; "zeros" draws features and bias from -0.0 and +0.0 only, so every
    neighbor ties; "nan" puts a NaN and an inf into the features."""
    rng = Rng(seed)
    nbr = rng.integers(0, n, (n, k))
    nbr[:, -1] = nbr[:, 0]
    feats, w, b = rng.uniform(-1, 1, (n, c)), rng.uniform(-1, 1, (2 * c, c_out)), \
        rng.uniform(-1, 1, (1, c_out))
    if case == "ties":
        feats = rng.integers(-2, 3, (n, c)).astype(np.float64)
        w = rng.integers(-1, 2, (2 * c, c_out)).astype(np.float64)
        b = rng.integers(-1, 2, (1, c_out)).astype(np.float64)
    elif case == "zeros":
        feats = np.copysign(0.0, rng.integers(0, 2, (n, c)) - 0.5)
        b = np.copysign(0.0, rng.integers(0, 2, (1, c_out)) - 0.5)
    elif case == "nan":
        feats[2, 1], feats[5, 0] = np.nan, np.inf
    g = rng.uniform(-1, 1, (n, c_out))
    g[0, 0] = -0.0
    return feats, nbr, w, b, g


def _values_and_grads(op, first, second, w, b, g) -> list[bytes]:
    """op(first, w, b) untaped, then ``op`` twice on one tape with shared
    leaves w and b, as two clouds share the parameters; ``first`` is a leaf
    and ``second`` a constant, as after and before the first layer. The bytes
    of the untaped value, the taped value and the three gradients."""
    with np.errstate(invalid="ignore"):  # the inf case meets inf - inf
        untaped = op(first, w, b).data
        tape = ad.Tape()
        x, wt, bt = (tape.leaf(v) for v in (first, w, b))
        out = op(x, wt, bt)
        ad.backward(add(weighted_sum(out, g), weighted_sum(op(second, wt, bt), g)))
    return [a.tobytes() for a in (untaped, out.data, x.grad, wt.grad, bt.grad)]


# blocks of 1 row, a ragged 5 rows (12 = 2 * 5 + 2) and all 12 rows at once
@pytest.mark.parametrize("rows", [1, 5, 12])
@pytest.mark.parametrize("case", ["random", "ties", "zeros", "nan"])
def test_fused_edge_conv_matches_the_unfused_chain_bit_for_bit(monkeypatch, case, rows):
    """Values and every gradient of the one-op layer against the eight-op
    chain it replaced, taped and untaped."""
    for seed in range(3):
        feats, nbr, w, b, g = _chain_inputs(case, seed)
        monkeypatch.setattr(ad, "_EDGE_BLOCK_BYTES", rows * nbr.shape[1] * w.shape[1] * 8)
        got, want = (_values_and_grads(lambda f, wt, bt: conv(ad.as_tensor(f), nbr, wt, bt),
                                       feats, feats[::-1].copy(), w, b, g)
                     for conv in (edge_conv_layer, edge_conv_chain))
        assert got == want


def _embed_values_and_grads(embed, phi, w, b, g) -> list[bytes]:
    """embed(phi, w, b) untaped, then twice on one tape with shared leaves w
    and b, the second time on phi reversed: the bytes of the untaped value,
    the taped value and both gradients."""
    with np.errstate(invalid="ignore"):  # the inf case meets inf - inf
        untaped = embed(phi, w, b).data
        tape = ad.Tape()
        wt, bt = tape.leaf(w), tape.leaf(b)
        out = embed(phi, wt, bt)
        ad.backward(add(weighted_sum(out, g), weighted_sum(embed(phi[::-1].copy(), wt, bt), g)))
    return [a.tobytes() for a in (untaped, out.data, wt.grad, bt.grad)]


@pytest.mark.parametrize("rows", [1, 5, 12])
@pytest.mark.parametrize("case", ["random", "ties", "zeros", "nan"])
def test_fused_embed_matches_the_unfused_chain_bit_for_bit(monkeypatch, case, rows):
    """Values and both gradients of the one-op point embedding, in row
    blocks, against the four-op chain over the whole table, taped and
    untaped."""
    for seed in range(3):
        feats, nbr, w, b, g = _chain_inputs(case, seed)
        phi = feats[nbr]  # [n, k, 3] neighbor features with the case's ties and NaNs
        monkeypatch.setattr(ad, "_EDGE_BLOCK_BYTES", rows * nbr.shape[1] * w.shape[1] * 8)
        got, want = (_embed_values_and_grads(embed, phi, w[:3], b, g)
                     for embed in (embed_from_features, embed_chain))
        assert got == want


# ---------------------------------------------------------------------------
# channel_norm


def test_channel_norm_divides_by_the_repeated_scale_bit_for_bit():
    f = Rng(18).uniform(-1, 1, (7, 5))
    scale = np.sqrt(np.full((1, 7), 1.0 / 7) @ (f * f) + 1e-8)
    want = f / np.repeat(scale, 7, axis=0)
    assert channel_norm(ad.constant(f)).data.tobytes() == want.tobytes()


def test_channel_norm_gradient_with_an_all_zero_channel():
    rng = Rng(19)
    f = rng.uniform(-1, 1, (6, 4))
    f[:, 2] = 0.0  # its scale is sqrt(1e-8): the output is 0 and the gradient finite
    probe = ad.constant(rng.uniform(-1, 1, (6, 4)))
    assert np.all(channel_norm(ad.constant(f)).data[:, 2] == 0.0)
    rep = grad_check(lambda t: weighted_sum(channel_norm(t), probe), f,
                     h=1e-6, tol=1e-4)
    assert rep.passed, rep.max_rel_error
    assert np.all(np.isfinite(rep.analytic)) and np.abs(rep.analytic[:, 2]).max() > 1e3


def test_encode_global_needs_enough_points():
    model = model_for()
    cloud = PointCloud(Rng(4).uniform(-1, 1, (5, 3)))
    with pytest.raises(ValueError):
        encode_global(cloud, DESK, model.params)


def test_encode_global_duplication_invariance():
    model = model_for()
    cloud = synth_shape(2, 40, Rng(5))
    base = encode_global(cloud, DESK, model.params).data
    doubled = PointCloud(np.concatenate([cloud.points, cloud.points]))
    out = encode_global(doubled, DESK, model.params).data
    np.testing.assert_allclose(out, base, atol=1e-9)


@pytest.mark.parametrize("kind", FEATURE_KINDS)
def test_encode_invariant_duplication_invariance(kind):
    spec = FeatureSpec(kind)
    model = init_params(DESK, spec, "euler", 1)
    cloud = synth_shape(2, 40, Rng(5))
    base = encode_invariant(cloud, spec, DESK, model.params).data
    doubled = PointCloud(np.concatenate([cloud.points, cloud.points]))
    out = encode_invariant(doubled, spec, DESK, model.params).data
    np.testing.assert_allclose(out, base, atol=1e-9)


def test_encode_global_permutation_invariance():
    model = model_for()
    cloud = synth_shape(3, 48, Rng(6))
    base = encode_global(cloud, DESK, model.params).data
    perm = np.argsort(Rng(7).uniform(size=48))
    out = encode_global(PointCloud(cloud.points[perm]), DESK, model.params).data
    np.testing.assert_allclose(out, base, atol=1e-9)


def test_encode_global_distinguishes_shapes():
    model = model_for()
    a = synth_shape(0, 40, Rng(8))
    b = synth_shape(21, 40, Rng(9))
    ga = encode_global(a, DESK, model.params).data
    gb = encode_global(b, DESK, model.params).data
    assert np.max(np.abs(ga - gb)) > 1e-6


def test_encode_global_is_pose_sensitive():
    # a 45 degree rotation must change the global representation
    model = model_for()
    changed = 0
    for i in range(20):
        cloud = synth_shape(i, 40, Rng(100 + i))
        rot = geom.euler_to_matrix(np.deg2rad([0.0, 0.0, 45.0]))
        moved = geom.apply_transform(geom.RigidTransform(rot, np.zeros(3)), cloud)
        ga = encode_global(cloud, DESK, model.params).data
        gb = encode_global(moved, DESK, model.params).data
        changed += np.max(np.abs(ga - gb)) > 1e-6
    assert changed >= 19  # 95 percent of shapes


def test_encode_invariant_rigid_motion_invariance():
    model = model_for()
    cloud = synth_shape(5, 48, Rng(10))
    base = encode_invariant(cloud, SPEC, DESK, model.params).data
    rng = Rng(11)
    for _ in range(5):
        t = random_transform(rng, 180.0, 10.0)
        moved = geom.apply_transform(t, cloud)
        out = encode_invariant(moved, SPEC, DESK, model.params).data
        np.testing.assert_allclose(out, base, atol=1e-6)


def test_encode_invariant_width_matches_global():
    model = model_for()
    cloud = synth_shape(6, 40, Rng(12))
    gi = encode_invariant(cloud, SPEC, DESK, model.params)
    gg = encode_global(cloud, DESK, model.params)
    assert gi.shape == gg.shape == (DESK.m,)


def test_encode_invariant_permutation_invariance():
    model = model_for()
    cloud = synth_shape(7, 40, Rng(13))
    base = encode_invariant(cloud, SPEC, DESK, model.params).data
    perm = np.argsort(Rng(14).uniform(size=40))
    out = encode_invariant(PointCloud(cloud.points[perm]), SPEC, DESK,
                           model.params).data
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
    for name in model.params:
        g = bound[name].grad
        assert g is not None and np.any(g != 0), name


def test_precompute_cache_matches_direct():
    model = model_for()
    cloud = synth_shape(9, 40, Rng(16))
    cache = precompute_cloud(cloud, SPEC, DESK)
    direct = encode_invariant(cloud, SPEC, DESK, model.params).data
    cached = encode_invariant(cloud, SPEC, DESK, model.params, cache).data
    np.testing.assert_array_equal(direct, cached)
    direct_g = encode_global(cloud, DESK, model.params).data
    cached_g = encode_global(cloud, DESK, model.params, cache).data
    np.testing.assert_array_equal(direct_g, cached_g)
