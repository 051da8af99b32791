import math
import zlib

import numpy as np
import pytest

from upcr import autodiff as ad
from upcr.rng import Rng


def leaf(tape, values):
    return tape.leaf(np.asarray(values, dtype=np.float64), requires_grad=True)


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
    rep = ad.grad_check(lambda t: ad.reduce_sum(ad.matmul(t, b)), a, h=1e-6, tol=1e-6)
    assert rep.passed, rep.max_rel_error


# ---------------------------------------------------------------------------
# elementwise


def test_log_identity():
    np.testing.assert_array_equal(ad.log(ad.constant([1.0])).data, [0.0])


def test_mul_values():
    np.testing.assert_array_equal(
        ad.mul(ad.constant([2.0, 3.0]), ad.constant([4.0, 5.0])).data, [8.0, 15.0])


def test_log_gradient_analytic():
    tape = ad.Tape()
    x = leaf(tape, [0.5, 2.0])
    ad.backward(ad.reduce_sum(ad.log(x)))
    np.testing.assert_allclose(x.grad, [2.0, 0.5], rtol=1e-12)


def test_log_rejects_nonpositive_with_index():
    with pytest.raises(ad.DomainError, match="index 1"):
        ad.log(ad.constant([1.0, -1.0]))


def test_div_by_zero_rejected():
    with pytest.raises(ad.DomainError, match="zero"):
        ad.div(ad.constant([1.0]), ad.constant([0.0]))


def test_binary_shape_mismatch():
    with pytest.raises(ad.ShapeError):
        ad.add(ad.constant([1.0, 2.0]), ad.constant([1.0, 2.0, 3.0]))


def test_scalar_broadcast_and_gradient():
    tape = ad.Tape()
    x = leaf(tape, [1.0, 2.0, 3.0])
    out = ad.mul(x, ad.constant(2.0))
    np.testing.assert_array_equal(out.data, [2.0, 4.0, 6.0])
    tape2 = ad.Tape()
    s = tape2.leaf(np.asarray(3.0), requires_grad=True)
    ad.backward(ad.reduce_sum(ad.mul(ad.constant([1.0, 2.0]), s)))
    np.testing.assert_allclose(s.grad, 3.0)


# ---------------------------------------------------------------------------
# leaky relu


def test_leaky_relu_values():
    out = ad.leaky_relu(ad.constant([-1.0, 0.0, 2.0]), 0.2)
    np.testing.assert_allclose(out.data, [-0.2, 0.0, 2.0])


def test_leaky_relu_zero_slope_is_relu():
    np.testing.assert_array_equal(ad.leaky_relu(ad.constant([-5.0]), 0.0).data, [0.0])


def test_leaky_relu_gradient_gate():
    tape = ad.Tape()
    x = leaf(tape, [-1.0, 2.0])
    ad.backward(ad.reduce_sum(ad.leaky_relu(x, 0.2)))
    np.testing.assert_allclose(x.grad, [0.2, 1.0])


def test_leaky_relu_slope_domain():
    with pytest.raises(ValueError):
        ad.leaky_relu(ad.constant([1.0]), 1.0)


# ---------------------------------------------------------------------------
# softmax


def test_softmax_symmetry():
    np.testing.assert_allclose(ad.softmax(ad.constant([0.0, 0.0])).data, [0.5, 0.5])


def test_softmax_direct_evaluation():
    # independent evaluation with math.exp
    e = [math.exp(v) for v in (1.0, 2.0, 3.0)]
    expected = [v / sum(e) for v in e]
    out = ad.softmax(ad.constant([1.0, 2.0, 3.0])).data
    np.testing.assert_allclose(out, expected, rtol=1e-12)
    np.testing.assert_allclose(out, [0.090031, 0.244728, 0.665241], atol=1e-6)


def test_softmax_large_inputs_no_overflow():
    out = ad.softmax(ad.constant([1000.0, 1000.0])).data
    np.testing.assert_allclose(out, [0.5, 0.5])
    assert np.all(np.isfinite(out))


def test_softmax_is_probability_vector(rng):
    for _ in range(20):
        v = rng.uniform(-50, 50, 17)
        p = ad.softmax(ad.constant(v)).data
        assert np.all(p >= 0)
        assert abs(p.sum() - 1.0) <= 1e-12
        shifted = ad.softmax(ad.constant(v + 7.3)).data
        np.testing.assert_allclose(shifted, p, atol=1e-12)


def test_softmax_gradient():
    rng = Rng(5)
    v = rng.uniform(-2, 2, 6)
    w = ad.constant(rng.uniform(-1, 1, 6))
    rep = ad.grad_check(lambda t: ad.reduce_sum(ad.mul(ad.softmax(t), w)), v,
                        h=1e-6, tol=1e-5)
    assert rep.passed, rep.max_rel_error


# ---------------------------------------------------------------------------
# nearest_rotation


def _rotation(rng) -> np.ndarray:
    q, r = np.linalg.qr(rng.uniform(-1, 1, (3, 3)))
    q = q * np.sign(np.diag(r))
    return q * np.linalg.det(q)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_nearest_rotation_gradient_matches_finite_differences(sign):
    rng = Rng(61)
    m = _rotation(rng) @ np.diag([3.0, 2.0, sign * 0.5]) @ _rotation(rng)
    assert np.sign(np.linalg.det(m)) == sign
    probe = ad.constant(rng.uniform(-1, 1, (3, 3)))
    rep = ad.grad_check(lambda t: ad.reduce_sum(ad.mul(ad.nearest_rotation(t), probe)),
                        m, h=1e-6, tol=1e-6)
    assert rep.passed, rep.max_rel_error


def test_nearest_rotation_returns_polar_factor():
    rng = Rng(62)
    for _ in range(20):
        rot = _rotation(rng)
        a = rng.uniform(-1, 1, (3, 3))
        spd = a @ a.T + 0.1 * np.eye(3)
        out = ad.nearest_rotation(ad.constant(rot @ spd)).data
        np.testing.assert_allclose(out, rot, atol=1e-10)


def test_nearest_rotation_reflection_gives_proper_rotation():
    rng = Rng(63)
    rot = _rotation(rng)
    # the flip lands on the smallest singular axis
    out = ad.nearest_rotation(ad.constant(rot @ np.diag([3.0, 2.0, -1.0]))).data
    np.testing.assert_allclose(out, rot, atol=1e-12)
    refl = np.diag([1.0, 1.0, -1.0])
    out = ad.nearest_rotation(ad.constant(refl)).data
    assert np.abs(out.T @ out - np.eye(3)).max() < 1e-12
    assert abs(np.linalg.det(out) - 1.0) < 1e-12
    # the nearest rotation to a plain reflection is not unique: no gradient
    with pytest.raises(ad.DomainError, match="not unique"):
        ad.nearest_rotation(leaf(ad.Tape(), refl))


# ---------------------------------------------------------------------------
# reduce_max / reduce_sum


def test_reduce_max_columns():
    np.testing.assert_array_equal(
        ad.reduce_max(ad.constant([[1.0, 5.0], [3.0, 2.0]])).data, [3.0, 5.0])


def test_reduce_max_single_row():
    np.testing.assert_array_equal(
        ad.reduce_max(ad.constant([[7.0, 8.0]])).data, [7.0, 8.0])


def test_reduce_max_gradient_routing():
    tape = ad.Tape()
    x = leaf(tape, [[1.0, 5.0], [3.0, 2.0]])
    ad.backward(ad.reduce_sum(ad.reduce_max(x)))
    np.testing.assert_array_equal(x.grad, [[0.0, 1.0], [1.0, 0.0]])


def test_reduce_max_tie_goes_to_lowest_index():
    tape = ad.Tape()
    x = leaf(tape, [[2.0, 1.0], [2.0, 1.0], [2.0, 1.0]])
    ad.backward(ad.reduce_sum(ad.reduce_max(x)))
    np.testing.assert_array_equal(x.grad, [[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
    assert np.count_nonzero(x.grad, axis=0).max() == 1


def test_reduce_max_3d_axis():
    x = np.arange(24.0).reshape(2, 3, 4)
    out = ad.reduce_max(ad.constant(x), axis=1)
    np.testing.assert_array_equal(out.data, x.max(axis=1))


def test_reduce_max_empty_axis_rejected():
    with pytest.raises(ad.ShapeError):
        ad.reduce_max(ad.constant(np.zeros((0, 3))))


def test_reduce_sum_gradient_is_ones():
    tape = ad.Tape()
    x = leaf(tape, np.arange(6.0).reshape(2, 3))
    ad.backward(ad.reduce_sum(x))
    np.testing.assert_array_equal(x.grad, np.ones((2, 3)))


# ---------------------------------------------------------------------------
# concat / structure ops


def test_concat_columns():
    out = ad.concat([ad.constant([[1.0], [2.0]]), ad.constant([[3.0], [4.0]])])
    np.testing.assert_array_equal(out.data, [[1.0, 3.0], [2.0, 4.0]])


def test_concat_single_part_identity():
    x = np.array([[1.0, 2.0]])
    np.testing.assert_array_equal(ad.concat([ad.constant(x)]).data, x)


def test_concat_split_round_trip():
    tape = ad.Tape()
    a = leaf(tape, [[1.0, 2.0]])
    b = leaf(tape, [[3.0]])
    out = ad.concat([a, b])
    ad.backward(ad.reduce_sum(ad.mul(out, ad.constant([[10.0, 20.0, 30.0]]))))
    np.testing.assert_array_equal(a.grad, [[10.0, 20.0]])
    np.testing.assert_array_equal(b.grad, [[30.0]])


def test_concat_incompatible_shapes():
    with pytest.raises(ad.ShapeError):
        ad.concat([ad.constant(np.zeros((2, 1))), ad.constant(np.zeros((3, 1)))])


def test_gather_rows_forward_backward():
    tape = ad.Tape()
    x = leaf(tape, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    out = ad.gather_rows(x, [2, 0, 2])
    np.testing.assert_array_equal(out.data, [[5.0, 6.0], [1.0, 2.0], [5.0, 6.0]])
    ad.backward(ad.reduce_sum(out))
    np.testing.assert_array_equal(x.grad, [[1.0, 1.0], [0.0, 0.0], [2.0, 2.0]])


def test_gather_rows_out_of_range():
    with pytest.raises(ad.ShapeError):
        ad.gather_rows(ad.constant(np.zeros((2, 2))), [2])


def test_repeat_rows():
    tape = ad.Tape()
    x = leaf(tape, [[1.0, 2.0], [3.0, 4.0]])
    out = ad.repeat_rows(x, 2)
    np.testing.assert_array_equal(out.data, [[1.0, 2.0], [1.0, 2.0],
                                             [3.0, 4.0], [3.0, 4.0]])
    ad.backward(ad.reduce_sum(out))
    np.testing.assert_array_equal(x.grad, [[2.0, 2.0], [2.0, 2.0]])


def test_pair_table_matches_naive(rng):
    a = rng.uniform(-1, 1, (6, 4))
    b = rng.uniform(-1, 1, (6, 4))
    nbr = np.array([[1, 2], [0, 3], [4, 5], [0, 0], [2, 1], [3, 3]])
    out = ad.pair_table(ad.constant(a), ad.constant(b), nbr).data
    naive = np.repeat(a, 2, axis=0) + b[nbr.reshape(-1)]
    np.testing.assert_array_equal(out, naive)


def test_reshape_gradients(rng):
    x = rng.uniform(-1, 1, (3, 4))
    rep = ad.grad_check(lambda t: ad.reduce_sum(ad.reshape(t, (12,))), x,
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
            return ad.reduce_sum(ad.affine(parts["x"], parts["w"], parts["b"]))
        rep = ad.grad_check(fn, arr, h=1e-6, tol=1e-6)
        assert rep.passed, (pick, rep.max_rel_error)


# ---------------------------------------------------------------------------
# backward mechanics


def test_backward_sum_gives_ones():
    tape = ad.Tape()
    x = leaf(tape, np.arange(12.0).reshape(3, 4))
    ad.backward(ad.reduce_sum(x))
    np.testing.assert_array_equal(x.grad, np.ones((3, 4)))


def test_backward_quadratic():
    tape = ad.Tape()
    x = leaf(tape, [1.0, -2.0])
    ad.backward(ad.reduce_sum(ad.mul(x, x)))
    np.testing.assert_array_equal(x.grad, [2.0, -4.0])


def test_backward_accumulates_until_reset():
    tape = ad.Tape()
    x = leaf(tape, [1.0, -2.0])
    loss = ad.reduce_sum(ad.mul(x, x))
    ad.backward(loss)
    ad.backward(loss)
    np.testing.assert_array_equal(x.grad, [4.0, -8.0])
    tape.zero_grad()
    assert x.grad is None


def test_backward_rejects_non_scalar():
    tape = ad.Tape()
    x = leaf(tape, [1.0, 2.0])
    with pytest.raises(ad.ShapeError):
        ad.backward(ad.mul(x, x))


def test_backward_mlp_matches_finite_differences():
    rng = Rng(3)
    w1 = rng.uniform(-1, 1, (4, 8))
    b1 = np.zeros((1, 8))
    w2 = rng.uniform(-1, 1, (8, 1))
    x = rng.uniform(-1, 1, (5, 4))

    def fn(t):
        h = ad.leaky_relu(ad.affine(ad.constant(x), t, ad.constant(b1)), 0.2)
        return ad.reduce_sum(ad.matmul(h, ad.constant(w2)))

    rep = ad.grad_check(fn, w1, h=1e-5, tol=1e-4)
    assert rep.passed, rep.max_rel_error


def test_mixed_tapes_rejected():
    t1, t2 = ad.Tape(), ad.Tape()
    a = t1.leaf(np.ones(2), requires_grad=True)
    b = t2.leaf(np.ones(2), requires_grad=True)
    with pytest.raises(ValueError, match="tapes"):
        ad.add(a, b)


def test_forward_is_deterministic(rng):
    v = rng.uniform(-1, 1, (16, 16))
    w = rng.uniform(-1, 1, (16, 16))
    a = ad.matmul(ad.constant(v), ad.constant(w)).data
    b = ad.matmul(ad.constant(v), ad.constant(w)).data
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# grad_check itself


def test_grad_check_exact_for_sum():
    rep = ad.grad_check(ad.reduce_sum, np.array([1.0, 2.0, 3.0]))
    assert rep.passed
    assert rep.max_rel_error < 1e-9


def test_grad_check_softmax_sum_uses_absolute_fallback():
    # softmax sums to one, so the analytic gradient is ~0 everywhere
    rep = ad.grad_check(lambda t: ad.reduce_sum(ad.softmax(t)),
                        np.array([0.3, -0.2, 1.4]))
    assert rep.passed
    np.testing.assert_allclose(rep.analytic, 0.0, atol=1e-15)


def test_grad_check_rejects_vector_valued():
    with pytest.raises(ad.ShapeError):
        ad.grad_check(lambda t: ad.mul(t, t), np.array([1.0, 2.0]))


# every differentiable op against central differences on random shapes
_OP_CASES = [
    ("add", lambda t, c: ad.add(t, c), True),
    ("sub", lambda t, c: ad.sub(t, c), True),
    ("mul", lambda t, c: ad.mul(t, c), True),
    ("div", lambda t, c: ad.div(t, c), True),
    ("neg", lambda t, c: ad.neg(t), False),
    ("sin", lambda t, c: ad.sin(t), False),
    ("cos", lambda t, c: ad.cos(t), False),
    ("leaky", lambda t, c: ad.leaky_relu(t, 0.2), False),
]


@pytest.mark.parametrize("name,op,binary", _OP_CASES)
@pytest.mark.parametrize("shape", [(3,), (2, 4), (12,)])
def test_op_gradients_random_shapes(name, op, binary, shape):
    rng = Rng(zlib.crc32(repr((name, shape)).encode()))
    x = rng.uniform(0.5, 2.0, shape)  # positive keeps div/log/sqrt happy
    c = ad.constant(rng.uniform(0.5, 2.0, shape))
    rep = ad.grad_check(lambda t: ad.reduce_sum(op(t, c)), x, h=1e-6, tol=1e-4)
    assert rep.passed, (name, shape, rep.max_rel_error)


@pytest.mark.parametrize("shape", [(3,), (2, 4), (12,)])
def test_log_sqrt_gradients(shape):
    rng = Rng(hash(shape) & 0xFFFF)
    x = rng.uniform(0.5, 3.0, shape)
    for op in (ad.log, ad.sqrt):
        rep = ad.grad_check(lambda t: ad.reduce_sum(op(t)), x, h=1e-6, tol=1e-4)
        assert rep.passed, (op.__name__, rep.max_rel_error)
