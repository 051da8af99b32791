"""Reverse-mode automatic differentiation over dense float64 tensors.

The operator set is exactly what the registration pipeline needs: affine
layers, the pointwise zoo, max-pooling with deterministic tie-breaking,
softmax, trigonometry and the SVD rotation projection for rotation decoding,
and the indexing ops that assemble edge features. No broadcasting beyond
scalar-with-tensor, no higher-order derivatives, no views: every op produces
a fresh array.

Ops applied to constant tensors (no tape attached) skip all bookkeeping,
so the same pipeline code serves both training and inference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operands have incompatible shapes; message reports both."""


class DomainError(ValueError):
    """An input lies outside an op's domain (log of <=0, division by zero)."""


class Node:
    """One tape entry: op kind, input node ids, and a VJP closure.

    The closure captures whatever forward values the backward pass needs and
    returns ``[(input_node_id, grad_contribution), ...]``.
    """

    __slots__ = ("kind", "inputs", "vjp")

    def __init__(self, kind: str, inputs: tuple[int, ...], vjp: Callable | None):
        self.kind = kind
        self.inputs = inputs
        self.vjp = vjp


class Tensor:
    """n-dimensional float64 value, optionally attached to a tape node."""

    __slots__ = ("data", "requires_grad", "node_id", "tape")

    def __init__(self, data: np.ndarray, requires_grad: bool = False,
                 node_id: int | None = None, tape: "Tape | None" = None):
        self.data = data
        self.requires_grad = requires_grad
        self.node_id = node_id
        self.tape = tape

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def grad(self) -> np.ndarray | None:
        """Accumulated gradient for this tensor's node, if any."""
        if self.tape is None or self.node_id is None:
            return None
        return self.tape.grad_buffer.get(self.node_id)

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # operator sugar over the module-level ops
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)


class Tape:
    """Append-only record of operations; nodes reference earlier nodes only.

    ``grad_buffer`` maps node id -> accumulated gradient. Repeated
    ``backward`` calls accumulate until :meth:`zero_grad`.
    """

    def __init__(self):
        self.nodes: list[Node] = []
        self.grad_buffer: dict[int, np.ndarray] = {}

    def leaf(self, data, requires_grad: bool = False) -> Tensor:
        """Register an input tensor. Only grad-requiring leaves get a node."""
        arr = _as_array(data)
        if not requires_grad:
            return Tensor(arr)
        nid = self._append("leaf", (), None)
        return Tensor(arr, requires_grad=True, node_id=nid, tape=self)

    def zero_grad(self) -> None:
        self.grad_buffer.clear()

    def _append(self, kind: str, inputs: tuple[int, ...], vjp) -> int:
        self.nodes.append(Node(kind, inputs, vjp))
        return len(self.nodes) - 1


def _as_array(data) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    return arr


def constant(data) -> Tensor:
    """Tensor that participates in forward math but never receives gradients."""
    return Tensor(_as_array(data))


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else constant(x)


def _common_tape(*tensors: Tensor) -> "Tape | None":
    tape = None
    for t in tensors:
        if t.tape is not None:
            if tape is not None and tape is not t.tape:
                raise ValueError("operands belong to different tapes")
            tape = t.tape
    return tape


def _emit(kind: str, out: np.ndarray, inputs: Sequence[Tensor], vjp_builder) -> Tensor:
    """Create the result tensor, appending a node only if a gradient can flow."""
    tape = _common_tape(*inputs)
    tracked = [t for t in inputs if t.tape is not None and t.node_id is not None]
    if tape is None or not any(t.requires_grad for t in inputs):
        return Tensor(out)
    ids = tuple(t.node_id for t in tracked)
    vjp = vjp_builder([t.node_id for t in tracked])
    nid = tape._append(kind, ids, vjp)
    return Tensor(out, requires_grad=True, node_id=nid, tape=tape)


def _reduce_to(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Collapse a gradient onto a scalar operand's shape."""
    if grad.shape == shape:
        return grad
    return np.sum(grad).reshape(shape)


# ---------------------------------------------------------------------------
# pointwise ops


def _binary(kind: str, a, b, fwd, da, db) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.shape != b.shape and a.ndim != 0 and b.ndim != 0:
        raise ShapeError(f"{kind}: shapes {a.shape} and {b.shape} differ and neither is a scalar")
    out = fwd(a.data, b.data)
    av, bv = a.data, b.data

    def build(ids):
        handlers = []
        if a.node_id is not None:
            handlers.append((a.node_id, lambda g: _reduce_to(da(g, av, bv), av.shape)))
        if b.node_id is not None:
            handlers.append((b.node_id, lambda g: _reduce_to(db(g, av, bv), bv.shape)))

        def vjp(g):
            return [(nid, fn(g)) for nid, fn in handlers]
        return vjp

    return _emit(kind, out, (a, b), build)


def add(a, b) -> Tensor:
    return _binary("add", a, b, np.add, lambda g, x, y: g, lambda g, x, y: g)


def sub(a, b) -> Tensor:
    return _binary("sub", a, b, np.subtract, lambda g, x, y: g, lambda g, x, y: -g)


def mul(a, b) -> Tensor:
    return _binary("mul", a, b, np.multiply,
                   lambda g, x, y: g * y, lambda g, x, y: g * x)


def div(a, b) -> Tensor:
    b_arr = as_tensor(b).data
    if np.any(b_arr == 0.0):
        idx = int(np.argmin(b_arr != 0.0))
        raise DomainError(f"div: divisor is zero at flat index {idx}")
    return _binary("div", a, b, np.divide,
                   lambda g, x, y: g / y, lambda g, x, y: -g * x / (y * y))


def _unary(kind: str, a, fwd, dfn) -> Tensor:
    a = as_tensor(a)
    out = fwd(a.data)
    av = a.data

    def build(ids):
        nid = a.node_id

        def vjp(g):
            return [(nid, dfn(g, av, out))]
        return vjp

    return _emit(kind, out, (a,), build)


def neg(a) -> Tensor:
    return _unary("neg", a, np.negative, lambda g, x, y: -g)


def log(a) -> Tensor:
    a = as_tensor(a)
    if np.any(a.data <= 0.0):
        idx = int(np.argmin(a.data > 0.0))
        raise DomainError(f"log: non-positive entry at flat index {idx}")
    return _unary("log", a, np.log, lambda g, x, y: g / x)


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    if np.any(a.data <= 0.0):
        idx = int(np.argmin(a.data > 0.0))
        raise DomainError(f"sqrt: non-positive entry at flat index {idx}")
    return _unary("sqrt", a, np.sqrt, lambda g, x, y: 0.5 * g / y)


def sin(a) -> Tensor:
    return _unary("sin", a, np.sin, lambda g, x, y: g * np.cos(x))


def cos(a) -> Tensor:
    return _unary("cos", a, np.cos, lambda g, x, y: -g * np.sin(x))


def leaky_relu(a, slope: float = 0.2) -> Tensor:
    """y = x for x >= 0, slope*x below; backward uses the same mask."""
    if not 0.0 <= slope < 1.0:
        raise ValueError(f"leaky_relu: slope must be in [0, 1), got {slope}")
    a = as_tensor(a)
    gate = np.where(a.data >= 0.0, 1.0, slope)
    return _unary("leaky_relu", a, lambda x: x * gate, lambda g, x, y: g * gate)


# ---------------------------------------------------------------------------
# linear algebra and structure ops


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul: expects 2-d operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dimensions disagree, {a.shape} x {b.shape}")
    out = a.data @ b.data
    av, bv = a.data, b.data

    def build(ids):
        handlers = []
        if a.node_id is not None:
            handlers.append((a.node_id, lambda g: g @ bv.T))
        if b.node_id is not None:
            handlers.append((b.node_id, lambda g: av.T @ g))

        def vjp(g):
            return [(nid, fn(g)) for nid, fn in handlers]
        return vjp

    return _emit("matmul", out, (a, b), build)


def nearest_rotation(a) -> Tensor:
    """Proper rotation nearest to a 3x3 matrix in the Frobenius norm.

    With the SVD a = U S V^T and d = sign det(U V^T), the result is
    R = U' V^T for U' = U diag(1, 1, d): a reflection flips the axis of the
    smallest singular value. The VJP (Levinson et al., 2020) uses
    s' = (s1, s2, d s3): B = U'^T G V, X_ij = (B_ij - B_ji) / (s'_i + s'_j),
    dL/da = U' X V^T. The value is defined for every input; the gradient only
    where R is unique, s2 + d s3 > 0.
    """
    a = as_tensor(a)
    if a.shape != (3, 3):
        raise ShapeError(f"nearest_rotation: expects a 3x3 tensor, got {a.shape}")
    u, s, vt = np.linalg.svd(a.data)
    flip = np.array([1.0, 1.0, np.sign(np.linalg.det(u @ vt))])
    u = u * flip
    out = u @ vt
    sp = s * flip

    def build(ids):
        if sp[1] + sp[2] <= 1e-12 * sp[0]:
            raise DomainError("nearest_rotation: the nearest rotation is not unique "
                              f"(singular values {s}, det {np.linalg.det(a.data):.3g})")
        denom = sp[:, None] + sp[None, :]
        np.fill_diagonal(denom, 1.0)
        nid = a.node_id

        def vjp(g):
            b = u.T @ g @ vt.T
            return [(nid, u @ ((b - b.T) / denom) @ vt)]
        return vjp

    return _emit("nearest_rotation", out, (a,), build)


def softmax(v) -> Tensor:
    """Probability vector of a rank-1 input; stable under max-subtraction."""
    v = as_tensor(v)
    if v.ndim != 1:
        raise ShapeError(f"softmax: expects a rank-1 tensor, got shape {v.shape}")
    z = v.data - np.max(v.data)
    e = np.exp(z)
    p = e / np.sum(e)

    def build(ids):
        nid = v.node_id

        def vjp(g):
            return [(nid, p * (g - np.dot(g, p)))]
        return vjp

    return _emit("softmax", p, (v,), build)


def reduce_max(a, axis: int = 0) -> Tensor:
    """Maximum along one axis; ties route the gradient to the lowest index."""
    a = as_tensor(a)
    if a.ndim == 0 or not 0 <= axis < a.ndim:
        raise ShapeError(f"reduce_max: axis {axis} invalid for shape {a.shape}")
    if a.shape[axis] < 1:
        raise ShapeError("reduce_max: reduced axis is empty")
    arg = np.argmax(a.data, axis=axis)  # first occurrence = lowest index
    out = np.take_along_axis(a.data, np.expand_dims(arg, axis), axis=axis).squeeze(axis)
    in_shape = a.shape

    def build(ids):
        nid = a.node_id

        def vjp(g):
            full = np.zeros(in_shape)
            np.put_along_axis(full, np.expand_dims(arg, axis),
                              np.expand_dims(g, axis), axis=axis)
            return [(nid, full)]
        return vjp

    return _emit("reduce_max", out, (a,), build)


def reduce_sum(a) -> Tensor:
    """Sum of all entries, as a rank-0 scalar."""
    a = as_tensor(a)
    out = np.asarray(np.sum(a.data))
    in_shape = a.shape

    def build(ids):
        nid = a.node_id

        def vjp(g):
            return [(nid, np.full(in_shape, float(g)))]
        return vjp

    return _emit("reduce_sum", out, (a,), build)


def concat(parts: Sequence) -> Tensor:
    """Concatenate along the last axis; all other dims must agree."""
    ts = [as_tensor(p) for p in parts]
    if not ts:
        raise ShapeError("concat: needs at least one part")
    lead = ts[0].shape[:-1]
    for t in ts[1:]:
        if t.ndim != ts[0].ndim or t.shape[:-1] != lead:
            raise ShapeError(f"concat: incompatible shapes {[t.shape for t in ts]}")
    out = np.concatenate([t.data for t in ts], axis=-1)
    widths = [t.shape[-1] for t in ts]
    offsets = np.cumsum([0] + widths)

    def build(ids):
        handlers = [(t.node_id, int(offsets[i]), int(offsets[i + 1]))
                    for i, t in enumerate(ts) if t.node_id is not None]

        def vjp(g):
            return [(nid, g[..., lo:hi]) for nid, lo, hi in handlers]
        return vjp

    return _emit("concat", out, ts, build)


def gather_rows(a, idx) -> Tensor:
    """Select rows (axis 0) by integer index; backward scatter-adds."""
    a = as_tensor(a)
    idx = np.asarray(idx, dtype=np.int64).reshape(-1)
    if a.ndim < 1:
        raise ShapeError("gather_rows: input must have rank >= 1")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise ShapeError(f"gather_rows: index out of range for {a.shape[0]} rows")
    out = a.data[idx]
    n = a.shape[0]
    tail = a.shape[1:]

    def build(ids):
        nid = a.node_id

        def vjp(g):
            if g.ndim == 2:
                # one flat bincount beats np.add.at by a wide margin
                c = g.shape[1]
                flat_idx = (idx[:, None] * c + np.arange(c)).reshape(-1)
                acc = np.bincount(flat_idx, weights=g.reshape(-1), minlength=n * c)
                return [(nid, acc.reshape(n, c))]
            acc = np.zeros((n,) + tail)
            np.add.at(acc, idx, g)
            return [(nid, acc)]
        return vjp

    return _emit("gather_rows", out, (a,), build)


def repeat_rows(a, times: int) -> Tensor:
    """Repeat each row ``times`` times consecutively (rank-2 input)."""
    a = as_tensor(a)
    if a.ndim != 2:
        raise ShapeError(f"repeat_rows: expects a rank-2 tensor, got {a.shape}")
    out = np.repeat(a.data, times, axis=0)
    n, c = a.shape

    def build(ids):
        nid = a.node_id

        def vjp(g):
            return [(nid, g.reshape(n, times, c).sum(axis=1))]
        return vjp

    return _emit("repeat_rows", out, (a,), build)


def reshape(a, shape: tuple[int, ...]) -> Tensor:
    a = as_tensor(a)
    out = a.data.reshape(shape)
    in_shape = a.shape

    def build(ids):
        nid = a.node_id

        def vjp(g):
            return [(nid, g.reshape(in_shape))]
        return vjp

    return _emit("reshape", out, (a,), build)


def affine(x, weight, bias) -> Tensor:
    """Fused linear layer x @ weight + bias, with bias shaped [1, c_out].

    The row-broadcast of the bias is internal to the op (the tape itself
    still has no tensor broadcasting); its gradient is the column sum.
    """
    x, w, b = as_tensor(x), as_tensor(weight), as_tensor(bias)
    if x.ndim != 2 or w.ndim != 2 or b.shape != (1, w.shape[1]):
        raise ShapeError(f"affine: got x {x.shape}, weight {w.shape}, bias {b.shape}")
    if x.shape[1] != w.shape[0]:
        raise ShapeError(f"affine: inner dimensions disagree, {x.shape} x {w.shape}")
    out = x.data @ w.data
    out += b.data
    xv, wv = x.data, w.data

    def build(ids):
        handlers = []
        if x.node_id is not None:
            handlers.append((x.node_id, lambda g: g @ wv.T))
        if w.node_id is not None:
            handlers.append((w.node_id, lambda g: xv.T @ g))
        if b.node_id is not None:
            handlers.append((b.node_id, lambda g: g.sum(axis=0, keepdims=True)))

        def vjp(g):
            return [(nid, fn(g)) for nid, fn in handlers]
        return vjp

    return _emit("affine", out, (x, w, b), build)


def pair_table(a, b, neighbors) -> Tensor:
    """Neighbor-pair sums: out[i*k + j] = a[i] + b[neighbors[i, j]].

    ``a`` and ``b`` are [n, c], ``neighbors`` an [n, k] integer table. This is
    the expansion step of an edge convolution after the per-point linear maps
    have been applied, fused so the [n*k, c] table is built in one op.
    """
    a, b = as_tensor(a), as_tensor(b)
    nbr = np.asarray(neighbors, dtype=np.int64)
    if a.ndim != 2 or a.shape != b.shape or nbr.ndim != 2:
        raise ShapeError(f"pair_table: got a {a.shape}, b {b.shape}, neighbors {nbr.shape}")
    n, c = a.shape
    if nbr.shape[0] != n:
        raise ShapeError(f"pair_table: {nbr.shape[0]} neighbor rows for {n} points")
    if nbr.size and (nbr.min() < 0 or nbr.max() >= n):
        raise ShapeError(f"pair_table: neighbor index out of range for {n} points")
    k = nbr.shape[1]
    flat = nbr.reshape(-1)
    out = b.data[flat].reshape(n, k, c)
    out += a.data[:, None, :]
    out = out.reshape(n * k, c)

    def build(ids):
        handlers = []
        if a.node_id is not None:
            handlers.append((a.node_id, lambda g: g.reshape(n, k, c).sum(axis=1)))
        if b.node_id is not None:
            # segment-sum the edge gradients back onto their source rows
            order = np.argsort(flat, kind="stable")
            uniq, starts = np.unique(flat[order], return_index=True)

            def scatter(g):
                acc = np.add.reduceat(g[order], starts, axis=0)
                full = np.zeros((n, c))
                full[uniq] = acc
                return full
            handlers.append((b.node_id, scatter))

        def vjp(g):
            return [(nid, fn(g)) for nid, fn in handlers]
        return vjp

    return _emit("pair_table", out, (a, b), build)


# ---------------------------------------------------------------------------
# backward pass and gradient checking


def backward(loss: Tensor) -> dict[int, np.ndarray]:
    """Accumulate dLoss/dNode for every node reachable from ``loss``.

    ``loss`` must be a single-element tensor on a tape. Gradients add into
    the tape's persistent buffer, so repeated calls accumulate until
    ``tape.zero_grad()``. Returns the buffer (node id -> gradient).
    """
    if loss.tape is None or loss.node_id is None:
        return {}
    if loss.size != 1:
        raise ShapeError(f"backward: loss must be scalar, got shape {loss.shape}")
    tape = loss.tape
    local: dict[int, np.ndarray] = {loss.node_id: np.ones_like(loss.data)}
    for nid in range(loss.node_id, -1, -1):
        g = local.get(nid)
        if g is None:
            continue
        node = tape.nodes[nid]
        if node.vjp is not None:
            for in_id, gin in node.vjp(g):
                if in_id in local:
                    local[in_id] = local[in_id] + gin
                else:
                    local[in_id] = gin
    for nid, g in local.items():
        if nid in tape.grad_buffer:
            tape.grad_buffer[nid] = tape.grad_buffer[nid] + g
        else:
            tape.grad_buffer[nid] = g
    return tape.grad_buffer


@dataclass
class GradCheckReport:
    """Per-coordinate comparison of analytic vs central-difference gradients."""

    analytic: np.ndarray
    numeric: np.ndarray
    rel_errors: np.ndarray
    max_rel_error: float
    tol: float
    passed: bool = field(init=False)

    def __post_init__(self):
        self.passed = bool(self.max_rel_error <= self.tol)


def grad_check(f: Callable[[Tensor], Tensor], x, h: float = 1e-6,
               tol: float = 1e-4, floor: float = 1e-6) -> GradCheckReport:
    """Compare d f(x) / dx against central finite differences.

    ``f`` must return a single-element tensor. The error at coordinate i is
    |a_i - n_i| / max(|a_i|, |n_i|, floor), so near-zero gradients fall back
    to an absolute comparison against ``floor``.
    """
    x_arr = _as_array(x.data if isinstance(x, Tensor) else x).copy()

    tape = Tape()
    leaf = tape.leaf(x_arr, requires_grad=True)
    out = f(leaf)
    if out.size != 1:
        raise ShapeError(f"grad_check: f must be scalar-valued, got shape {out.shape}")
    backward(out)
    analytic = leaf.grad
    if analytic is None:
        analytic = np.zeros_like(x_arr)

    numeric = np.zeros_like(x_arr)
    flat = x_arr.reshape(-1)
    num_flat = numeric.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = f(constant(x_arr)).item()
        flat[i] = orig - h
        lo = f(constant(x_arr)).item()
        flat[i] = orig
        num_flat[i] = (hi - lo) / (2.0 * h)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    rel = np.abs(analytic - numeric) / denom
    return GradCheckReport(analytic=analytic, numeric=numeric, rel_errors=rel,
                           max_rel_error=float(np.max(rel)) if rel.size else 0.0,
                           tol=tol)
