import gc
import math
import weakref
import zlib

import numpy as np
import pytest

from upcr import autodiff as ad
from upcr import encoder, separation, training
from upcr.rng import Rng

from conftest import (add, edge_max, gather_rows, grad_check, neighbor_max_oracle,
                      pair_table_oracle, reshape, scatter_rows_oracle, sub, weighted_sum)


def leaf(tape, values):
    return tape.leaf(np.asarray(values, dtype=np.float64))


# ---------------------------------------------------------------------------
# matmul


def test_matmul_identity():
    out = ad.matmul(ad.constant(np.eye(2)), ad.constant([[1.0, 2.0], [3.0, 4.0]]))
    np.testing.assert_array_equal(out.data, [[1.0, 2.0], [3.0, 4.0]])


def test_matmul_hand_value():
    out = ad.matmul(ad.constant([[1.0, 2.0], [3.0, 4.0]]), ad.constant([[5.0], [6.0]]))
    np.testing.assert_array_equal(out.data, [[17.0], [39.0]])


def test_matmul_shape_mismatch_reports_dimensions():
    with pytest.raises(ad.ShapeError, match="2, 3"):
        ad.matmul(ad.constant(np.zeros((2, 3))), ad.constant(np.zeros((2, 3))))


def test_matmul_gradient_matches_finite_differences():
    rng = Rng(11)
    a = rng.uniform(-1, 1, (3, 4))
    b = ad.constant(rng.uniform(-1, 1, (4, 2)))
    rep = grad_check(lambda t: weighted_sum(ad.matmul(t, b)), a, h=1e-6, tol=1e-6)
    assert rep.passed, rep.max_rel_error


# ---------------------------------------------------------------------------
# elementwise: the tests' own add and sub, which the oracles build on, keep the
# op contract


def test_binary_shape_mismatch():
    with pytest.raises(ad.ShapeError):
        add(ad.constant([1.0, 2.0]), ad.constant([1.0, 2.0, 3.0]))


@pytest.mark.parametrize("op", [add, sub], ids=["add", "sub"])
def test_binary_rejects_a_rank_0_operand(op):
    # no broadcasting: a scalar against a tensor is a shape mismatch, either way round
    for a, b in ((2.0, [1.0, 2.0, 3.0]), ([1.0, 2.0, 3.0], 2.0)):
        with pytest.raises(ad.ShapeError, match=r"shapes .* differ"):
            op(ad.constant(a), ad.constant(b))


# ---------------------------------------------------------------------------
# leaky relu


def test_leaky_relu_values():
    assert ad.SLOPE == 0.2
    out = ad.leaky_relu(ad.constant([-1.0, 0.0, 2.0]))
    np.testing.assert_allclose(out.data, [-0.2, 0.0, 2.0])


def test_leaky_relu_gradient_gate():
    tape = ad.Tape()
    x = leaf(tape, [-1.0, 2.0])
    ad.backward(weighted_sum(ad.leaky_relu(x)))
    np.testing.assert_allclose(x.grad, [0.2, 1.0])


SPECIAL = np.concatenate([
    [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324, 1e-310, -1e-310,
     1e308, -1e308, 1.0, -1.0],
    # quiet and signaling NaNs with payloads, both signs
    np.array([0x7FF8000000000123, 0xFFF8000000000456, 0x7FF0000000000001,
              0xFFF0000000000002], dtype=np.uint64).view(np.float64),
])


def test_leaky_relu_forward_is_the_gated_product_bit_for_bit():
    rng = np.random.default_rng(3)
    for x in (SPECIAL, np.tile(SPECIAL, 9)[:-5], rng.normal(size=(64, 37))):
        with np.errstate(invalid="ignore"):
            want = x * np.where(x >= 0.0, 1.0, ad.SLOPE)
            got = ad.leaky_relu(ad.constant(x)).data
            taped = ad.leaky_relu(leaf(ad.Tape(), x)).data
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert taped.tobytes() == want.tobytes()


def test_leaky_relu_gate_only_on_a_tape(monkeypatch):
    calls = []
    where = np.where
    monkeypatch.setattr(np, "where", lambda *a: calls.append(1) or where(*a))
    x = np.random.default_rng(4).normal(size=(8, 5))
    ad.leaky_relu(ad.constant(x))
    assert calls == []
    tape = ad.Tape()
    t = leaf(tape, x)
    ad.backward(weighted_sum(ad.leaky_relu(t)))
    assert calls
    np.testing.assert_array_equal(t.grad, np.where(x >= 0.0, 1.0, 0.2))


# ---------------------------------------------------------------------------
# the op contract: one (operand, gradient map) pair per operand

_NBR5 = np.array([[1, 2], [0, 0], [4, 1], [2, 3], [0, 4]])
_PTS4 = np.array([[0.5, -1.0, 2.0], [1.0, 0.0, -0.5], [-2.0, 1.5, 0.25], [0.0, 3.0, 1.0]])
_PHI5 = np.linspace(-1.0, 1.0, 5 * 2 * 3).reshape(5, 2, 3)

# name -> (op over the operands, operand shapes); the name is the node kind
CONTRACT_OPS = {
    "add": (add, [(3, 4), (3, 4)]),
    "sub": (sub, [(3, 4), (3, 4)]),
    "matmul": (ad.matmul, [(3, 4), (4, 2)]),
    "affine": (ad.affine, [(3, 4), (4, 2), (1, 2)]),
    "edge_conv": (lambda f, w, b: encoder.edge_conv_layer(f, _NBR5, w, b),
                  [(5, 3), (6, 2), (1, 2)]),
    "embed": (lambda w, b: encoder.embed_from_features(_PHI5, w, b), [(3, 4), (1, 4)]),
    "channel_norm": (encoder.channel_norm, [(5, 3)]),
    "pose_related": (separation._pose_related_t, [(4,), (4,)]),
    "canonical": (lambda head: separation._canonical_t(_PTS4, head)[0], [(1, 6)]),
    "chamfer": (training.unsupervised_loss, [(5, 3), (4, 3)]),
    "mean": (lambda *losses: training._mean(list(losses)), [(), (), ()]),
}


def _contract_values(rng, name):
    return [rng.uniform(-1, 1, s) for s in CONTRACT_OPS[name][1]]


@pytest.mark.parametrize("name", list(CONTRACT_OPS))
def test_vjp_has_entries_only_for_the_taped_operand(rng, name):
    op, shapes = CONTRACT_OPS[name]
    values = _contract_values(rng, name)
    for taped in range(len(values)):
        tape = ad.Tape()
        operands = [leaf(tape, v) if i == taped else ad.constant(v)
                    for i, v in enumerate(values)]
        out = op(*operands)
        assert [node.kind for node in tape.nodes] == ["leaf", name]
        entries = tape.nodes[out.node_id].vjp(np.ones(out.shape))
        assert [nid for nid, _ in entries] == [operands[taped].node_id]
        assert entries[0][1].shape == shapes[taped]


@pytest.mark.parametrize("name", list(CONTRACT_OPS))
def test_vjp_entries_follow_operand_order(rng, name):
    tape = ad.Tape()
    operands = [leaf(tape, v) for v in _contract_values(rng, name)]
    out = CONTRACT_OPS[name][0](*operands)
    entries = tape.nodes[out.node_id].vjp(np.ones(out.shape))
    assert [nid for nid, _ in entries] == [t.node_id for t in operands]


@pytest.mark.parametrize("name", list(CONTRACT_OPS))
def test_constant_operands_append_no_node(rng, name):
    tape = ad.Tape()
    leaf(tape, np.zeros(2))  # a tape is recording, but no operand is on it
    out = CONTRACT_OPS[name][0](*[ad.constant(v) for v in _contract_values(rng, name)])
    assert out.node_id is None and out.tape is None
    assert len(tape.nodes) == 1


def test_operand_used_twice_gets_two_entries():
    tape = ad.Tape()
    f = leaf(tape, [1.5, -2.0])
    out = add(f, f)
    entries = tape.nodes[out.node_id].vjp(np.ones(2))
    assert [nid for nid, _ in entries] == [f.node_id, f.node_id]
    ad.backward(weighted_sum(out, [1.5, -2.0]))
    assert f.grad.tolist() == [3.0, -4.0]


def test_argmax_runs_only_for_a_taped_operand(monkeypatch, rng):
    calls = []
    first_max = ad._first_max_index
    monkeypatch.setattr(ad, "_first_max_index", lambda *args: calls.append(1) or first_max(*args))
    a = rng.uniform(-1, 1, (5, 3))
    w, b = rng.uniform(-1, 1, (6, 2)), rng.uniform(-1, 1, (1, 2))

    def ops(t):
        ad.reduce_max(t, axis=0)
        encoder.edge_conv_layer(t, _NBR5, w, b)
        encoder.embed_from_features(_PHI5.reshape(3, 2, 5), t, np.zeros((1, 3)))

    ops(ad.constant(a))
    tape = ad.Tape()
    leaf(tape, a)  # a tape is recording, but no operand is on it
    ops(ad.constant(a))
    assert not calls
    ops(leaf(tape, a))
    assert len(calls) == 3


def test_vjp_keeps_no_forward_array_it_does_not_read(rng):
    tape = ad.Tape()
    x = leaf(tape, rng.uniform(-1, 1, (5, 3)))
    a, b = add(x, x), sub(x, x)
    other = ad.constant(rng.uniform(-1, 1, (3, 2)))
    refs = [weakref.ref(a.data), weakref.ref(b.data)]
    kept = weakref.ref(other.data)
    outs = [ad.reduce_max(a, axis=0), gather_rows(b, [4, 0, 4]),
            add(a, b), sub(a, b), ad.matmul(a, other)]
    del a, b, other
    gc.collect()
    assert [r() for r in refs] == [None, None]  # add and sub hold neither operand
    assert kept() is not None  # matmul holds the other operand, which a's gradient reads
    total = weighted_sum(outs[0])
    for out in outs[1:]:
        total = add(total, weighted_sum(out))
    ad.backward(total)
    assert x.grad.shape == (5, 3)
    gc.collect()
    assert kept() is None  # backward released matmul's VJP and the operand it held
    assert all(node.vjp is None for node in tape.nodes)


@pytest.mark.parametrize("name", ["channel_norm", "pose_related", "canonical"])
def test_fused_gradient_maps_close_over_arrays_not_tensors(rng, name):
    tape = ad.Tape()
    out = CONTRACT_OPS[name][0](*[leaf(tape, v) for v in _contract_values(rng, name)])
    for _, fn in tape.nodes[out.node_id].vjp.args[0]:
        held = [cell.cell_contents for cell in fn.__closure__]
        assert held and all(isinstance(v, np.ndarray) for v in held), (name, held)


# ---------------------------------------------------------------------------
# reduce_max


def test_reduce_max_columns():
    np.testing.assert_array_equal(
        ad.reduce_max(ad.constant([[1.0, 5.0], [3.0, 2.0]])).data, [3.0, 5.0])


def test_reduce_max_single_row():
    np.testing.assert_array_equal(
        ad.reduce_max(ad.constant([[7.0, 8.0]])).data, [7.0, 8.0])


def test_reduce_max_gradient_routing():
    tape = ad.Tape()
    x = leaf(tape, [[1.0, 5.0], [3.0, 2.0]])
    ad.backward(weighted_sum(ad.reduce_max(x)))
    np.testing.assert_array_equal(x.grad, [[0.0, 1.0], [1.0, 0.0]])


def test_reduce_max_tie_goes_to_lowest_index():
    tape = ad.Tape()
    x = leaf(tape, [[2.0, 1.0], [2.0, 1.0], [2.0, 1.0]])
    ad.backward(weighted_sum(ad.reduce_max(x)))
    np.testing.assert_array_equal(x.grad, [[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
    assert np.count_nonzero(x.grad, axis=0).max() == 1


def test_reduce_max_3d_axis():
    x = np.arange(24.0).reshape(2, 3, 4)
    out = ad.reduce_max(ad.constant(x), axis=1)
    np.testing.assert_array_equal(out.data, x.max(axis=1))


def test_reduce_max_3d_axis_tie_goes_to_lowest_index():
    tape = ad.Tape()
    x = leaf(tape, [[[1.0, 4.0], [3.0, 4.0], [3.0, 0.0]],
                    [[2.0, 2.0], [2.0, 2.0], [2.0, 2.0]]])
    out = ad.reduce_max(x, axis=1)
    np.testing.assert_array_equal(out.data, [[3.0, 4.0], [2.0, 2.0]])
    ad.backward(weighted_sum(out, np.array([[5.0, 6.0], [7.0, 8.0]])))
    np.testing.assert_array_equal(x.grad, [[[0.0, 6.0], [5.0, 0.0], [0.0, 0.0]],
                                           [[7.0, 8.0], [0.0, 0.0], [0.0, 0.0]]])


def _long_argmax_cases(axis: int, k: int = 300):
    """Tables whose reduced ``axis`` has k > 255 entries, so the winner
    scores are uint16. Columns [:, 2, 0] and [:, 2, 1] are won past index
    255: a tie at 260 and 290, and -0.0 at 270 before +0.0 at 280."""
    rng = np.random.default_rng(12)
    ties = rng.integers(0, 3, (k, 3, 2)).astype(np.float64)
    zeros = rng.choice([-0.0, 0.0, -1.0], (k, 3, 2))
    nan_row = rng.normal(size=(k, 3, 2))
    nan_row[[257, 299], 1, 0] = np.nan  # the first NaN is past 255
    nan_row[:, 1, 1] = np.nan
    for x in (ties, zeros, nan_row):
        x[:, 2] = -1.0
        x[[260, 290], 2, 0] = 2.0
        x[270, 2, 1], x[280, 2, 1] = -0.0, 0.0
    return [np.moveaxis(x, 0, axis) for x in (ties, zeros, nan_row)]


def _argmax_cases(axis: int):
    rng = np.random.default_rng(11)
    ties = rng.integers(0, 3, (4, 5, 6)).astype(np.float64)
    zeros = rng.choice([-0.0, 0.0, -1.0], (4, 5, 6))
    nan_row = rng.normal(size=(4, 5, 6))
    nan_row[1, 2:4, 3] = np.nan
    nan_row[2, :, 0] = np.nan
    return [rng.normal(size=(4, 5, 6)), ties, zeros, nan_row, *_long_argmax_cases(axis)]


@pytest.mark.parametrize("case", range(7), ids=["random", "ties", "signed-zero", "nan",
                                                "long-ties", "long-signed-zero", "long-nan"])
@pytest.mark.parametrize("axis", [0, 1, 2])
def test_reduce_max_gradient_lands_on_np_argmax(case, axis):
    # the taped argmax is found without np.argmax on the values; it must
    # still pick what np.argmax picks: lowest index on ties, -0.0 == +0.0,
    # and the first NaN of a row whose maximum is NaN
    x_arr = _argmax_cases(axis)[case]
    tape = ad.Tape()
    x = leaf(tape, x_arr)
    out = ad.reduce_max(x, axis=axis)
    weights = 1.0 + np.arange(out.size, dtype=np.float64).reshape(out.shape)
    ad.backward(weighted_sum(out, weights))
    expected = np.zeros_like(x_arr)
    np.put_along_axis(expected, np.expand_dims(np.argmax(x_arr, axis=axis), axis),
                      np.expand_dims(weights, axis), axis=axis)
    np.testing.assert_array_equal(x.grad, expected)


@pytest.mark.parametrize("k", [1, 255, 256, 65535, 65536])
def test_first_max_index_at_every_score_width(k):
    # k - j scores fit uint8 up to k = 255, uint16 up to 65535, then uint32;
    # column 0 ties at the first and last index, column 1 at the last two,
    # column 2 is all NaN and column 3 has a NaN only at its last index
    table = np.full((k, 4), -1.0)
    table[[0, -1], 0] = 1.0
    table[-2:, 1] = 1.0
    table[:, 2] = np.nan
    table[-1, 3] = np.nan
    got = ad._first_max_index(table, np.max(table, axis=0), 0)
    assert got.tolist() == [0, max(0, k - 2), 0, k - 1]
    assert got.tolist() == np.argmax(table, axis=0).tolist()


def test_reduce_max_empty_axis_rejected():
    with pytest.raises(ad.ShapeError):
        ad.reduce_max(ad.constant(np.zeros((0, 3))))


# ---------------------------------------------------------------------------
# the oracles' gather_rows, scattering through autodiff._scatter_rows


def test_gather_rows_forward_backward():
    tape = ad.Tape()
    x = leaf(tape, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    out = gather_rows(x, [2, 0, 2])
    np.testing.assert_array_equal(out.data, [[5.0, 6.0], [1.0, 2.0], [5.0, 6.0]])
    ad.backward(weighted_sum(out))
    np.testing.assert_array_equal(x.grad, [[1.0, 1.0], [0.0, 0.0], [2.0, 2.0]])


def _gather_rows_gradient(x, idx, g):
    tape = ad.Tape()
    xt = leaf(tape, x)
    ad.backward(weighted_sum(gather_rows(xt, idx), ad.constant(g)))
    return xt.grad


def _gather_rows_matches_sequential_oracle(rng, tail):
    idx = np.array([3, 0, 3, 1, 3, 0])  # row 2 is never gathered
    x, g = rng.uniform(-1, 1, (4,) + tail), rng.uniform(-1, 1, (6,) + tail)
    grad = _gather_rows_gradient(x, idx, g)
    width = math.prod(tail)
    want = scatter_rows_oracle(idx, g.reshape(6, width), 4).reshape(x.shape)
    assert grad.tobytes() == want.tobytes()
    assert not grad[2].any()


def test_gather_rows_2d_gradient_matches_sequential_oracle(rng):
    _gather_rows_matches_sequential_oracle(rng, (5,))


@pytest.mark.parametrize("tail", [(), (2, 3)], ids=["rank-1", "rank-3"])
def test_gather_rows_any_rank_gradient_matches_sequential_oracle(rng, tail):
    _gather_rows_matches_sequential_oracle(rng, tail)


@pytest.mark.parametrize("shape", [(4,), (4, 5), (4, 2, 3)], ids=["rank-1", "rank-2", "rank-3"])
def test_gather_rows_empty_index_on_a_tape_gives_zero_gradient(shape):
    tape = ad.Tape()
    xt = leaf(tape, np.ones(shape))
    out = gather_rows(xt, [])
    assert out.shape == (0,) + shape[1:] and out.node_id is not None
    ((nid, grad),) = tape.nodes[out.node_id].vjp(np.zeros(out.shape))
    assert nid == xt.node_id
    assert grad.tobytes() == np.zeros(shape).tobytes()


def test_gather_rows_out_of_range():
    with pytest.raises(ad.ShapeError):
        gather_rows(ad.constant(np.zeros((2, 2))), [2])


def test_pair_table_matches_naive(rng):
    b = rng.uniform(-1, 1, (6, 4))
    nbr = np.array([[1, 2], [0, 3], [4, 5], [0, 0], [2, 1], [3, 3]])
    out = ad.pair_table(ad.constant(b), nbr).data
    np.testing.assert_array_equal(out, np.stack([b[j] for j in nbr.reshape(-1)]))
    assert gather_rows(b, nbr.reshape(-1)).data.tobytes() == out.tobytes()


def test_pair_table_row_block_is_rows_of_the_whole_table(rng):
    b = rng.uniform(-1, 1, (5, 4))
    nbr = np.array([[1, 2, 4], [4, 0, 3], [3, 3, 1], [0, 2, 2], [1, 4, 0]])
    whole = ad.pair_table(b, nbr).data
    block = ad.pair_table(b, nbr[1:3]).data  # indices past the block's 2 rows
    assert block.shape == (6, 4)
    assert block.tobytes() == whole[3:9].tobytes()


def test_taped_pair_table_records_no_node(rng):
    tape = ad.Tape()
    b = leaf(tape, rng.uniform(-1, 1, (6, 4)))
    before = len(tape.nodes)
    out = ad.pair_table(b, np.array([[1, 2], [0, 3], [4, 5], [0, 0], [2, 1], [3, 3]]))
    assert len(tape.nodes) == before
    assert out.tape is None and out.node_id is None


# row 9 is nobody's neighbour, point 3 lists point 0 twice, and point 0 is
# listed 11 times (NumPy's reduceat sums a segment of 8 or more pairwise)
_NBR = np.array([[1, 2, 4], [0, 3, 4], [0, 1, 5], [0, 0, 2], [0, 1, 3],
                 [0, 4, 6], [0, 7, 8], [0, 6, 8], [0, 5, 7], [0, 2, 8]])


# The taped pair table of the test oracles, the sum of two gather_rows: each
# branch's backward scatters by one bincount, which sums every row in edge
# order from 0.0, so both gradients are the sequential oracle's for any k
@pytest.mark.parametrize("c", [4, 1])
def test_pair_table_vjp_matches_sequential_oracle(rng, c):
    n, k = _NBR.shape
    a, b = rng.uniform(-1, 1, (n, c)), rng.uniform(-1, 1, (n, c))
    g = rng.uniform(-1, 1, (n * k, c))
    tape = ad.Tape()
    at, bt = leaf(tape, a), leaf(tape, b)
    ad.backward(weighted_sum(pair_table_oracle(at, bt, _NBR), ad.constant(g)))
    assert at.grad.tobytes() == scatter_rows_oracle(np.repeat(np.arange(n), k), g, n).tobytes()
    assert bt.grad.tobytes() == scatter_rows_oracle(_NBR.reshape(-1), g, n).tobytes()
    assert bt.grad[9].tobytes() == np.zeros(c).tobytes()


def test_scatter_rows_per_entry_index_matches_sequential_oracle(rng):
    idx = rng.integers(0, 5, (9, 4))  # row 5 is never named
    idx[3, 1] = idx[7, 1] = idx[0, 1]  # one row named three times in a column
    g = rng.uniform(-1, 1, (9, 4))
    got = ad._scatter_rows(idx, g, 6)
    assert got.tobytes() == scatter_rows_oracle(idx, g, 6).tobytes()
    assert got[5].tobytes() == np.zeros(4).tobytes()


def _edge_max_inputs(seed: int, k: int, case: str, n: int = 12, c: int = 4):
    """a, b, neighbors and an upstream gradient for the edge max of an edge
    convolution, LeakyReLU(a + max_j b[neighbors[:, j]]). Point n-1 is
    nobody's neighbour, every row lists its first neighbour again at the last
    slot, and the upstream gradient holds one -0.0."""
    rng = Rng(seed)
    nbr = rng.integers(0, n - 1, (n, k))
    nbr[:, -1] = nbr[:, 0]
    if case == "ties":  # values from {-2, ..., 2}: distinct neighbours tie often
        a = rng.integers(-2, 3, (n, c)).astype(np.float64)
        b = rng.integers(-2, 3, (n, c)).astype(np.float64)
    elif case == "zeros":  # -0.0 and +0.0 only: every neighbour ties
        a = np.copysign(0.0, rng.integers(0, 2, (n, c)) - 0.5)
        b = np.copysign(0.0, rng.integers(0, 2, (n, c)) - 0.5)
    else:
        a, b = rng.uniform(-1, 1, (n, c)), rng.uniform(-1, 1, (n, c))
    if case == "nan":
        a[1, 2] = np.nan              # every edge of row 1, channel 2
        b[nbr[4, 1], 0] = np.nan      # the edges that list this point, channel 0
    g = rng.uniform(-1, 1, (n, c))
    g[0, 0] = -0.0
    return a, b, nbr, g


def _edge_max_and_grads(fused: bool, a, b, nbr, g):
    """The edge max and the gradients of a and b under the upstream ``g``:
    from the edge convolution's pool step (``fused``, conftest's ``edge_max``), or
    from the chain ``leaky_relu(add(a, gather_rows -> reshape -> reduce_max))``."""
    if fused:
        out = a.copy()
        return (out, *edge_max(out, b, nbr, taped=True)(g))
    tape = ad.Tape()
    at, bt = leaf(tape, a), leaf(tape, b)
    out = ad.leaky_relu(add(at, neighbor_max_oracle(bt, nbr)))
    ad.backward(weighted_sum(out, ad.constant(g)))
    return out.data, at.grad, bt.grad


def _edge_max_matching_oracle(a, b, nbr, g):
    """The fused edge max, taped and untaped: value and gradients checked bit
    for bit against the chain; returns the value."""
    got = _edge_max_and_grads(True, a, b, nbr, g)
    want = _edge_max_and_grads(False, a, b, nbr, g)
    assert [x.tobytes() for x in got] == [x.tobytes() for x in want]
    untaped = a.copy()  # the forward without a winner table or gate
    assert edge_max(untaped, b, nbr, taped=False) is None
    assert untaped.tobytes() == want[0].tobytes()
    out, ga, gb = got
    assert ga[0, 0] == 0.0 and np.signbit(ga[0, 0])  # the upstream -0.0 passes through
    assert gb[-1].tobytes() == np.zeros(a.shape[1]).tobytes()
    return out


# k on both sides of 8, the block size of NumPy's pairwise sums
@pytest.mark.parametrize("k", [3, 10])
@pytest.mark.parametrize("case", ["random", "ties", "nan", "zeros"])
def test_edge_max_matches_unfused_composition_bit_for_bit(case, k):
    for seed in range(4):
        a, b, nbr, g = _edge_max_inputs(seed, k, case)
        out = _edge_max_matching_oracle(a, b, nbr, g)
        if case == "nan":
            assert np.isnan(out[1, 2]) and np.isnan(out[4, 0])


@pytest.mark.parametrize("case", ["random", "ties", "nan", "zeros"])
def test_edge_max_past_255_neighbors_matches_unfused_composition_bit_for_bit(case):
    """k = 300 neighbours give uint16 winner scores. Row 5 lists points 0 and
    1, equal in value, only at slots 260 and 290, among copies of point 10,
    which loses every channel; the winners also match np.argmax."""
    for seed in range(2):
        a, b, nbr, g = _edge_max_inputs(seed, 300, case)
        nbr[5] = 10
        nbr[5, 260], nbr[5, 290] = 0, 1
        b[1], b[10] = b[0], -3.0
        _edge_max_matching_oracle(a, b, nbr, g)
        slot = np.argmax(b[nbr], axis=1)  # [n, c] winning slots
        assert slot[5].tolist() == [260] * b.shape[1]
        _, ga, gb = _edge_max_and_grads(True, a, b, nbr, g)
        src = np.take_along_axis(nbr, slot, axis=1)
        assert gb.tobytes() == scatter_rows_oracle(src, ga, len(b)).tobytes()


def test_edge_max_tie_goes_to_lowest_neighbor_slot():
    # point 0 sees points 2 and 1 at equal values; slot 0 (point 2) wins
    out = np.zeros((3, 1))
    grads = edge_max(out, np.array([[5.0], [1.0], [1.0]]), np.array([[2, 1], [2, 0], [1, 2]]),
                         taped=True)
    np.testing.assert_array_equal(out, [[1.0], [5.0], [1.0]])
    ga, gb = grads(np.array([[1.0], [10.0], [100.0]]))
    np.testing.assert_array_equal(ga, [[1.0], [10.0], [100.0]])
    np.testing.assert_array_equal(gb, [[10.0], [100.0], [1.0]])


def test_edge_max_rejects_bad_shapes():
    def edge_conv(feats, nbr, w=np.zeros((6, 2)), b=np.zeros((1, 2))):
        return encoder.edge_conv_layer(ad.constant(feats), np.array(nbr), w, b)

    with pytest.raises(ad.ShapeError, match="no columns"):
        edge_conv(np.zeros((2, 3)), np.zeros((2, 0), dtype=int))
    for nbr in ([[0], [2]], [[0], [-1]]):
        with pytest.raises(ad.ShapeError, match="out of range for 2 points"):
            edge_conv(np.zeros((2, 3)), nbr)
    with pytest.raises(ad.ShapeError, match=r"edge_conv_layer: got feats \(6,\)"):
        edge_conv(np.zeros(6), [[0], [1]])
    # one output row per feature row
    with pytest.raises(ad.ShapeError, match="2 feature rows for 1 points"):
        edge_conv(np.zeros((2, 3)), [[0]])
    with pytest.raises(ad.ShapeError, match=r"weight rows 5 != 2\*c = 6"):
        edge_conv(np.zeros((2, 3)), [[0], [1]], w=np.zeros((5, 2)))
    with pytest.raises(ad.ShapeError, match=r"bias \(2,\)"):
        edge_conv(np.zeros((2, 3)), [[0], [1]], b=np.zeros(2))
    assert edge_conv(np.zeros((2, 3)), [[0], [0]]).shape == (2, 2)


# blocks of 1 row, a ragged 3 rows (14 = 4 * 3 + 2) and the whole table
@pytest.mark.parametrize("rows", [1, 3, 14])
@pytest.mark.parametrize("k", [3, 10])
@pytest.mark.parametrize("case", ["random", "ties", "nan", "zeros"])
def test_blocked_edge_max_matches_unfused_composition_bit_for_bit(monkeypatch, case, k, rows):
    n, c = 14, 4
    monkeypatch.setattr(ad, "_EDGE_BLOCK_BYTES", rows * k * c * 8)
    blocks = []
    pair_table = ad.pair_table

    def counted(b, neighbors):  # a block's [k, rows] neighbor-major table
        blocks.append(np.shape(neighbors)[1])
        return pair_table(b, neighbors)

    monkeypatch.setattr(ad, "pair_table", counted)
    for seed in range(4):
        a, b, nbr, g = _edge_max_inputs(seed, k, case, n=n, c=c)
        # rows 2 and 3 straddle the first 3-row boundary: each ties two
        # distinct neighbours, points 5 and 6, in channels 0, 1 and 3; in
        # channel 2 a NaN wins at slot 0 of row 2 and at slot 1 of row 3
        nbr[2, :2], nbr[3, :2] = (5, 6), (6, 5)
        nbr[:, -1] = nbr[:, 0]
        b[6] = b[5]
        b[5, 2] = np.nan
        blocks.clear()
        out = _edge_max_matching_oracle(a, b, nbr, g)
        # the chain gathers its table with gather_rows, not pair_table; the
        # fused step runs taped and untaped
        assert blocks == 2 * ([rows] * (n // rows) + [n % rows] * (n % rows > 0))
        assert np.isnan(out[2, 2]) and np.isnan(out[3, 2])


def _pair_max_and_b_grad(hoisted: bool, a, b, nbr):
    """The edge max and b's gradient, hoisted (the fused pool step, ``edge_max``)
    or as before the hoist: LeakyReLU over the [n*k, c] table of sums, then
    the max over k."""
    if hoisted:
        out = a.copy()
        return out, edge_max(out, b, nbr, taped=True)(np.ones(a.shape))[1]
    n, k = nbr.shape
    tape = ad.Tape()
    at, bt = leaf(tape, a), leaf(tape, b)
    table = ad.leaky_relu(pair_table_oracle(at, bt, nbr))
    out = ad.reduce_max(reshape(table, (n, k, table.shape[1])), axis=1)
    ad.backward(weighted_sum(out))
    return out.data, bt.grad


def test_hoisted_edge_max_changes_only_merged_sums_and_nan_sums(rng):
    """The argmax is taken on b, no longer on the activated sums fl(a + b).
    Values and gradients agree except where rounding merges two sums, where a
    is NaN, and where a = +inf meets a losing b = -inf (the value was NaN)."""
    for case in ("random", "ties", "zeros"):
        for seed in range(4):
            a, b, nbr, _ = _edge_max_inputs(seed, 10, case)
            old, new = (_pair_max_and_b_grad(h, a, b, nbr) for h in (False, True))
            assert [x.tobytes() for x in old] == [x.tobytes() for x in new]
    nbr = np.array([[0, 1], [0, 1]])
    cases = {  # a, b -> value, b's gradient before the hoist; then after it
        "merged": ([[1.0], [0.0]], [[0.0], [2.0 ** -53]],
                   ([[1.0], [2.0 ** -53]], [[1.0], [1.0]]),
                   ([[1.0], [2.0 ** -53]], [[0.0], [2.0]])),
        "nan a": ([[np.nan], [0.0]], [[1.0], [2.0]],
                  ([[np.nan], [2.0]], [[0.2], [1.0]]),
                  ([[np.nan], [2.0]], [[0.0], [1.2]])),
        "inf a": ([[np.inf], [0.0]], [[1.0], [-np.inf]],
                  ([[np.nan], [1.0]], [[1.0], [0.2]]),
                  ([[np.inf], [1.0]], [[2.0], [0.0]])),
    }
    for name, (a, b, before, after) in cases.items():
        for hoisted, want in ((False, before), (True, after)):
            with np.errstate(invalid="ignore"):  # inf + -inf in the old table
                got = _pair_max_and_b_grad(hoisted, np.array(a), np.array(b), nbr)
            for x, y in zip(got, want):
                np.testing.assert_array_equal(x, y, err_msg=f"{name}, hoisted={hoisted}")


def test_reshape_gradients(rng):
    x = rng.uniform(-1, 1, (3, 4))
    rep = grad_check(lambda t: weighted_sum(reshape(t, (12,))), x,
                     h=1e-6, tol=1e-6)
    assert rep.passed


def test_affine_matches_parts(rng):
    x = rng.uniform(-1, 1, (5, 3))
    w = rng.uniform(-1, 1, (3, 4))
    b = rng.uniform(-1, 1, (1, 4))
    out = ad.affine(ad.constant(x), ad.constant(w), ad.constant(b)).data
    np.testing.assert_allclose(out, x @ w + b, rtol=1e-15)
    for pick, arr in (("w", w), ("b", b), ("x", x)):
        def fn(t):
            parts = {"x": ad.constant(x), "w": ad.constant(w), "b": ad.constant(b)}
            parts[pick] = t
            return weighted_sum(ad.affine(parts["x"], parts["w"], parts["b"]))
        rep = grad_check(fn, arr, h=1e-6, tol=1e-6)
        assert rep.passed, (pick, rep.max_rel_error)


# ---------------------------------------------------------------------------
# backward mechanics


def test_backward_sum_gives_ones():
    tape = ad.Tape()
    x = leaf(tape, np.arange(12.0).reshape(3, 4))
    ad.backward(weighted_sum(x))
    np.testing.assert_array_equal(x.grad, np.ones((3, 4)))


def test_backward_quadratic():
    tape = ad.Tape()
    x = leaf(tape, [1.0, -2.0])
    ad.backward(weighted_sum(x, x))
    np.testing.assert_array_equal(x.grad, [2.0, -4.0])


def test_second_backward_raises():
    tape = ad.Tape()
    x = leaf(tape, [1.0, -2.0])
    sq = add(x, x)
    loss = weighted_sum(sq, [1.0, -2.0])
    assert x.grad is None
    ad.backward(loss)
    nodes = len(tape.nodes)
    assert sq.grad is None and loss.grad is None  # only leaves keep a gradient
    with pytest.raises(RuntimeError, match="used up"):
        ad.backward(loss)
    assert len(tape.nodes) == nodes
    np.testing.assert_array_equal(x.grad, [2.0, -4.0])


def test_backward_rejects_non_scalar():
    tape = ad.Tape()
    x = leaf(tape, [1.0, 2.0])
    with pytest.raises(ad.ShapeError):
        ad.backward(add(x, x))


def test_backward_mlp_matches_finite_differences():
    rng = Rng(3)
    w1 = rng.uniform(-1, 1, (4, 8))
    b1 = np.zeros((1, 8))
    w2 = rng.uniform(-1, 1, (8, 1))
    x = rng.uniform(-1, 1, (5, 4))

    def fn(t):
        h = ad.leaky_relu(ad.affine(ad.constant(x), t, ad.constant(b1)))
        return weighted_sum(ad.matmul(h, ad.constant(w2)))

    rep = grad_check(fn, w1, h=1e-5, tol=1e-4)
    assert rep.passed, rep.max_rel_error


def test_mixed_tapes_rejected():
    t1, t2 = ad.Tape(), ad.Tape()
    a = t1.leaf(np.ones(2))
    b = t2.leaf(np.ones(2))
    with pytest.raises(ValueError, match="tapes"):
        add(a, b)


def test_forward_is_deterministic(rng):
    v = rng.uniform(-1, 1, (16, 16))
    w = rng.uniform(-1, 1, (16, 16))
    a = ad.matmul(ad.constant(v), ad.constant(w)).data
    b = ad.matmul(ad.constant(v), ad.constant(w)).data
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# grad_check itself


def test_grad_check_exact_for_sum():
    rep = grad_check(weighted_sum, np.array([1.0, 2.0, 3.0]))
    assert rep.passed
    assert rep.max_rel_error < 1e-9


def test_grad_check_zero_function_uses_absolute_fallback():
    # the pose-related term of a vector against itself is identically 0, so
    # the analytic gradient is ~0 everywhere
    rep = grad_check(lambda t: weighted_sum(separation._pose_related_t(t, t)),
                     np.array([0.3, -0.2, 1.4]))
    assert rep.passed
    np.testing.assert_allclose(rep.analytic, 0.0, atol=1e-15)


def test_grad_check_rejects_vector_valued():
    with pytest.raises(ad.ShapeError):
        grad_check(lambda t: add(t, t), np.array([1.0, 2.0]))


# every differentiable op against central differences on random shapes
_OP_CASES = [
    ("add", lambda t, c: add(t, c), True),
    ("sub", lambda t, c: sub(t, c), True),
    ("leaky", lambda t, c: ad.leaky_relu(t), False),
]


@pytest.mark.parametrize("name,op,binary", _OP_CASES)
@pytest.mark.parametrize("shape", [(3,), (2, 4), (12,)])
def test_op_gradients_random_shapes(name, op, binary, shape):
    rng = Rng(zlib.crc32(repr((name, shape)).encode()))
    x = rng.uniform(0.5, 2.0, shape)
    c = ad.constant(rng.uniform(0.5, 2.0, shape))
    rep = grad_check(lambda t: weighted_sum(op(t, c)), x, h=1e-6, tol=1e-4)
    assert rep.passed, (name, shape, rep.max_rel_error)
