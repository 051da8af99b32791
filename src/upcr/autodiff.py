"""Reverse-mode automatic differentiation over dense float64 tensors.

The operator set is exactly what the registration pipeline needs: affine
layers, ``matmul`` and ``leaky_relu``, and max-pooling with deterministic
tie-breaking. Fused ops live beside the code they serve: the point
embedding, the edge convolution and ``channel_norm`` in ``encoder``, the two
softmaxes with the pose-related term and the pose decode with its canonical
coordinates in ``separation``, and the Chamfer loss in ``training``. The
point embedding and the edge convolution share one pooling step,
:func:`_max_pool`: it adds each row's max over its k candidates to the row
and activates it, building and pooling the [n*k, c] candidate table in
bounded row blocks, so the table never exists whole. No broadcasting, no
higher-order derivatives, no views: every op produces a fresh array.

Every op follows one contract: it computes its forward array and hands
:func:`_emit` one ``(operand, g -> that operand's gradient)`` pair per
operand. ``_emit`` keeps the pairs whose operand is on a tape; if any is
left, it appends one node whose VJP returns ``[(node_id, fn(g)), ...]`` in
operand order (an operand used twice gets two entries). A gradient map holds
only what its backward reads: ``matmul`` only the other operand. The maps of
one fused op share the work that depends only on g through :func:`_per_g`.
Forward work that only a gradient needs (the winner search of ``reduce_max``
and of the pooled ops, one integer max over a table of hits, and the gate of
``leaky_relu``) runs only for a taped operand, so the same pipeline code
serves both training and inference.

One :func:`backward` uses up a tape, as PyTorch's default
``retain_graph=False`` does: each node's VJP, and the forward arrays it holds,
is released once it has run, and each intermediate gradient once it has been
passed on. Only leaf gradients are kept, for :attr:`Tensor.grad`. With the
loss's upstream gradient and a carry of leaf gradients from earlier tapes,
a sum of losses runs one tape per term, newest first, and every leaf
gradient rounds as one tape over the whole sum would.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Sequence

import numpy as np

# the LeakyReLU negative slope, as in DGCNN (Wang et al., 2019)
SLOPE = 0.2


class ShapeError(ValueError):
    """Operands have incompatible shapes; message reports both."""


class Node:
    """One tape entry: op kind and a VJP closure (None for a leaf).

    The closure captures whatever forward values the backward pass needs and
    returns ``[(input_node_id, grad_contribution), ...]``; :func:`backward`
    sets it to None as it passes the node.
    """

    __slots__ = ("kind", "vjp")

    def __init__(self, kind: str, vjp: Callable | None):
        self.kind = kind
        self.vjp = vjp


class Tensor:
    """n-dimensional float64 value, optionally attached to a tape node."""

    __slots__ = ("data", "node_id", "tape")

    def __init__(self, data: np.ndarray, node_id: int | None = None,
                 tape: "Tape | None" = None):
        self.data = data
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
        """The loss gradient of a leaf after :func:`backward`; None before it,
        for a non-leaf and for a leaf the loss does not reach."""
        if self.tape is None or self.tape.grads is None:
            return None
        return self.tape.grads.get(self.node_id)

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.shape}, node_id={self.node_id})"


class Tape:
    """Append-only record of operations; nodes reference earlier nodes only.

    One :func:`backward` uses it up: afterwards every node keeps its kind but
    no VJP, and ``grads`` maps each reached leaf's node id to its gradient.
    ``grads`` is None until then.
    """

    def __init__(self):
        self.nodes: list[Node] = []
        self.grads: dict[int, np.ndarray] | None = None

    def leaf(self, data) -> Tensor:
        """Register an input that receives a gradient; a :func:`constant` gets none."""
        nid = self._append("leaf", None)
        return Tensor(np.asarray(data, dtype=np.float64), node_id=nid, tape=self)

    def _append(self, kind: str, vjp) -> int:
        self.nodes.append(Node(kind, vjp))
        return len(self.nodes) - 1


def constant(data) -> Tensor:
    """Tensor that participates in forward math but never receives gradients."""
    return Tensor(np.asarray(data, dtype=np.float64))


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else constant(x)


def _emit(kind: str, out: np.ndarray,
          grads: Sequence[tuple[Tensor, Callable[[np.ndarray], np.ndarray]]]) -> Tensor:
    """The op's result tensor, with a tape node only if some operand is taped.

    ``grads`` holds one ``(operand, g -> operand gradient)`` pair per operand.
    Pairs of constant operands are dropped with their closures; the node's VJP
    returns the kept pairs' ``(node_id, fn(g))`` in operand order.
    """
    taped = tuple((t.node_id, fn) for t, fn in grads if t.node_id is not None)
    if not taped:
        return Tensor(out)
    tapes = {t.tape for t, _ in grads if t.tape is not None}
    if len(tapes) > 1:
        raise ValueError("operands belong to different tapes")
    (tape,) = tapes
    nid = tape._append(kind, partial(_node_vjp, taped))
    return Tensor(out, node_id=nid, tape=tape)


def _node_vjp(taped: tuple, g: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """A node's VJP, bound by ``partial``: lighter per node than a closure."""
    return [(nid, fn(g)) for nid, fn in taped]


# ---------------------------------------------------------------------------
# pointwise ops


def leaky_relu(a) -> Tensor:
    """y = x * gate with gate 1 for x >= 0 and ``SLOPE`` below; the backward
    multiplies g by the same gate.

    The forward, :func:`_activate` on a copy of x, builds no float gate; only
    a taped input's backward does. As SLOPE is in (0, 1), max(SLOPE*x, x) is
    x*gate bit for bit, NaN payloads included: the quieted product comes first.
    """
    a = as_tensor(a)
    x = a.data
    out = x.copy()
    _activate(out, None)
    return _emit("leaky_relu", out, [(a, lambda g: _gated(g, x >= 0.0))])


def _activate(x: np.ndarray, gate: np.ndarray | None) -> None:
    """:func:`leaky_relu`'s forward in place on ``x``. A taped op passes a
    bool ``gate`` of x's shape, which first records x >= 0: one byte per
    entry is all its backward reads, through :func:`_gated`."""
    if gate is not None:
        np.greater_equal(x, 0.0, out=gate)
    np.maximum(np.multiply(SLOPE, x), x, out=x)


def _gated(g: np.ndarray, gate: np.ndarray) -> np.ndarray:
    """The LeakyReLU backward: g times 1 where ``gate`` (x >= 0) holds, else SLOPE."""
    return g * np.where(gate, 1.0, SLOPE)


# ---------------------------------------------------------------------------
# linear algebra and structure ops


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul: expects 2-d operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dimensions disagree, {a.shape} x {b.shape}")
    av, bv = a.data, b.data
    return _emit("matmul", av @ bv, [(a, lambda g: g @ bv.T), (b, lambda g: av.T @ g)])


def _first_max_index(table: np.ndarray, out: np.ndarray, axis: int) -> np.ndarray:
    """Where ``out``, the maximum of ``table`` along ``axis``, first occurs:
    the lowest index wins a tie, and the first NaN wins a NaN maximum.

    Over the k entries of the axis, a hit at index j scores k - j and a miss
    0, in the smallest unsigned type that holds k; the largest score is the
    lowest hit, so the index is k minus the max score. One integer max
    reduction, contiguous over a leading axis, where ``np.argmax`` would copy
    a transposed table.
    """
    hit = table == np.expand_dims(out, axis)  # 1-byte table
    if np.isnan(out).any():  # a NaN max equals nothing
        hit |= np.isnan(table)
    k = table.shape[axis]
    w = np.arange(k, 0, -1, dtype=np.min_scalar_type(k))
    score = hit * w.reshape((k,) + (1,) * (table.ndim - 1 - axis))
    return k - score.max(axis)


def reduce_max(a, axis: int = 0) -> Tensor:
    """Maximum along one axis; ties route the gradient to the lowest index.

    The winner of each maximum (:func:`_first_max_index`) is found only for
    a taped input; untaped inference takes the plain maximum.
    """
    a = as_tensor(a)
    if a.ndim == 0 or not 0 <= axis < a.ndim:
        raise ShapeError(f"reduce_max: axis {axis} invalid for shape {a.shape}")
    if a.shape[axis] < 1:
        raise ShapeError("reduce_max: reduced axis is empty")
    out = np.max(a.data, axis=axis)
    in_shape = a.shape
    arg = _first_max_index(a.data, out, axis) if a.node_id is not None else None

    def grad(g):
        full = np.zeros(in_shape)
        np.put_along_axis(full, np.expand_dims(arg, axis), np.expand_dims(g, axis), axis=axis)
        return full

    return _emit("reduce_max", out, [(a, grad)])


def _scatter_rows(idx: np.ndarray, g: np.ndarray, n: int) -> np.ndarray:
    """out[r] = sum of g[e] over idx[e] == r, for [e, c] ``g``; an [e, c] ``idx``
    names a row per entry instead, out[r, ch] = sum of g[e, ch] over
    idx[e, ch] == r. One flat bincount (far faster than np.add.at): each row
    adds its entries in order, starting from 0.0."""
    c = g.shape[1]
    rows = idx[:, None] if idx.ndim == 1 else idx
    flat_idx = (rows * c + np.arange(c)).reshape(-1)
    return np.bincount(flat_idx, weights=g.reshape(-1), minlength=n * c).reshape(n, c)


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
    return _emit("affine", out, [(x, lambda g: g @ wv.T), (w, lambda g: xv.T @ g),
                                 (b, lambda g: g.sum(axis=0, keepdims=True))])


def pair_table(b, neighbors) -> Tensor:
    """One row block of an edge convolution's table for :func:`_max_pool`,
    the name perfbench traces: b's rows in the order of the flattened
    ``neighbors``. Given a block's [k, r] transpose, row j*r + i is
    b[nbr[i, j]]. No index checks (the caller checks the whole table once); a
    constant, never a tape node."""
    idx = np.asarray(neighbors, dtype=np.int64).reshape(-1)
    return Tensor(np.take(as_tensor(b).data, idx, axis=0))


# bytes of the [rows*k, c] table one row block of :func:`_max_pool` holds:
# small enough to stay in cache, large enough that the per-block Python
# overhead is negligible
_EDGE_BLOCK_BYTES = 1 << 20


def _per_g(fn: Callable[[np.ndarray], object]) -> Callable[[np.ndarray], object]:
    """``fn`` that remembers its last result: the gradient maps of one fused
    op call it with the same upstream g, which their node's VJP passes to each
    map in turn, so the work they share runs once."""
    last: list = []

    def call(g):
        if not last or last[0] is not g:
            last[:] = [g, fn(g)]
        return last[1]

    return call


def _max_pool(out: np.ndarray, k: int, block: Callable[[int, int], np.ndarray], axis: int,
              taped: bool):
    """out[i] <- LeakyReLU(out[i] + max over k of row i's candidates), in
    place, for the [r, c] ``out``: the pooling and activation of the point
    embedding and of every edge convolution.

    ``block(s, e)`` builds the k candidates of rows s..e-1, pooled over
    ``axis``: [k, e - s, c] for axis 0, [e - s, k, c] for axis 1. A block
    holds at most ``_EDGE_BLOCK_BYTES`` of float64 (at least one row), so the
    [r*k, c] table never exists whole. The values and the tie rule of
    ``leaky_relu(out + reduce_max(table))``: the lowest index wins a tie, and
    the first NaN wins a NaN maximum.

    Untaped, returns None. Taped, returns what a backward reads: the 1-byte
    gate (the sum >= 0) and the winning k index, each [r, c].
    """
    r, c = out.shape
    step = max(1, _EDGE_BLOCK_BYTES // max(1, k * c * 8))
    gate = np.empty((r, c), dtype=bool) if taped else None
    arg = np.empty((r, c), dtype=np.min_scalar_type(k)) if taped else None
    for s in range(0, r, step):
        e = min(s + step, r)
        table = block(s, e)
        pooled = np.max(table, axis=axis)
        if taped:
            arg[s:e] = _first_max_index(table, pooled, axis)
        del table  # so that the next block is not built beside this one
        rows = out[s:e]
        rows += pooled
        _activate(rows, None if gate is None else gate[s:e])
    return (gate, arg) if taped else None


# ---------------------------------------------------------------------------
# backward pass


def backward(loss: Tensor, upstream: float = 1.0,
             carry: dict[Tensor, np.ndarray] | None = None) -> None:
    """Fill ``tape.grads`` with dLoss/dLeaf for every leaf ``loss`` reaches.

    ``loss`` must be a single-element tensor on a tape that no backward has
    used; ``upstream`` is its own gradient. The pass walks the tape newest
    first and releases each VJP as it passes it; a node's gradient lives only
    until its VJP has run, so after the pass only leaves hold gradients and a
    second backward raises.

    ``carry`` maps leaves of this tape to gradients summed on earlier tapes.
    A carried leaf starts from its carried gradient and adds this tape's
    contributions in walk order, as one tape holding the earlier tapes'
    nodes after this one's would; a leaf the loss does not reach keeps it.
    """
    if loss.tape is None or loss.node_id is None:
        return
    if loss.size != 1:
        raise ShapeError(f"backward: loss must be scalar, got shape {loss.shape}")
    tape = loss.tape
    if tape.grads is not None:
        raise RuntimeError("backward: this tape was used up by an earlier backward; "
                           "record the forward again on a new tape")
    pending: dict[int, np.ndarray] = {}
    for leaf, g in (carry or {}).items():
        if leaf.tape is not tape or tape.nodes[leaf.node_id].kind != "leaf":
            raise ValueError("backward: a carried gradient must belong to a leaf "
                             "of the loss's tape")
        pending[leaf.node_id] = g
    tape.grads = {}
    pending[loss.node_id] = np.full_like(loss.data, upstream)
    for nid in range(len(tape.nodes) - 1, -1, -1):
        node = tape.nodes[nid]
        vjp, node.vjp = node.vjp, None
        g = pending.pop(nid, None)
        if g is None:
            continue
        if vjp is None:  # a leaf
            tape.grads[nid] = g
            continue
        for in_id, gin in vjp(g):
            if in_id in pending:
                pending[in_id] = pending[in_id] + gin
            else:
                pending[in_id] = gin
