import json
import math
import struct
import tracemalloc
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path
from typing import Callable

import numpy as np
import pytest

from upcr import autodiff as ad
from upcr import features, geom, separation
from upcr.encoder import EncoderConfig, init_params
from upcr.features import FeatureSpec
from upcr.rng import Rng
from upcr.training import save_checkpoint, unsupervised_loss

# the CLI's tiny data: every command that builds a dataset takes these flags
TINY = ["--points", "32", "--categories", "4", "--train-pairs", "4", "--test-pairs", "2"]


def random_rotation(rng: Rng, max_angle_deg: float = 180.0) -> np.ndarray:
    axis = rng.unit_vector()
    angle = np.deg2rad(rng.uniform(-max_angle_deg, max_angle_deg))
    k = np.array([[0, -axis[2], axis[1]],
                  [axis[2], 0, -axis[0]],
                  [-axis[1], axis[0], 0]])
    return np.eye(3) + np.sin(angle) * k + (1 - np.cos(angle)) * (k @ k)


def random_transform(rng: Rng, max_angle_deg: float = 180.0,
                     max_trans: float = 1.0) -> geom.RigidTransform:
    return geom.RigidTransform(random_rotation(rng, max_angle_deg),
                               rng.uniform(-max_trans, max_trans, 3))


def random_cloud(rng: Rng, n: int = 64) -> geom.PointCloud:
    return geom.PointCloud(rng.uniform(-1.0, 1.0, (n, 3)))


def inverse_transform(t: geom.RigidTransform) -> geom.RigidTransform:
    """The motion that undoes ``t``: R^T, -R^T t."""
    return geom.RigidTransform(t.rotation.T, -t.rotation.T @ t.translation)


def canonicalize(cloud: geom.PointCloud, t: geom.RigidTransform) -> geom.PointCloud:
    """p -> R^T (p - t); the inverse of ``geom.apply_transform``."""
    return geom.PointCloud((cloud.points - t.translation) @ t.rotation)


def tiny_model_file(tmp_path, kind="distance", k=5, name="model.upcr"):
    """A seeded, untrained two-layer checkpoint for the CLI to load."""
    cfg = EncoderConfig(k=k, m=16, widths=(8, 16), head_widths=(8,))
    model = init_params(cfg, FeatureSpec(kind), "euler", 3)
    path = str(tmp_path / name)
    save_checkpoint(path, model)
    return path


def traced_peak(fn: Callable[[], object]) -> int:
    """The most bytes traced while ``fn()`` ran, over those traced when it began."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def weighted_sum(t, w=None) -> ad.Tensor:
    """sum(t * w), or sum(t) with no ``w``, as one tape node: how a test
    scalarises a tensor for ``backward`` or ``grad_check``. ``w`` has t's
    shape; a taped ``w`` gets the gradient g * t."""
    t = ad.as_tensor(t)
    tv, shape = t.data, t.shape
    if w is None:
        return ad._emit("weighted_sum", np.asarray(np.sum(tv)),
                        [(t, lambda g: np.full(shape, float(g)))])
    w = ad.as_tensor(w)
    wv = w.data
    if w.shape != shape:
        raise ad.ShapeError(f"weighted_sum: shapes {shape} and {w.shape} differ")
    return ad._emit("weighted_sum", np.asarray(np.sum(tv * wv)),
                    [(t, lambda g: np.full(shape, float(g)) * wv),
                     (w, lambda g: np.full(shape, float(g)) * tv)])


def chamfer(a: geom.PointCloud, b: geom.PointCloud) -> float:
    """The training loss between two clouds, off tape."""
    return unsupervised_loss(ad.constant(a.points), ad.constant(b.points)).item()


def chamfer_oracle(a: np.ndarray, b: np.ndarray) -> float:
    """Symmetric mean of squared nearest-neighbor distances, from the whole
    [N, M, 3] table of coordinate differences."""
    diff = a[:, None, :] - b[None, :, :]
    d2 = np.einsum("ijk,ijk->ij", diff, diff)
    return float(d2.min(axis=1).mean() + d2.min(axis=0).mean())


def replace_header(path, header):
    """Swap a saved checkpoint's JSON header for ``header``, any JSON value."""
    blob = Path(path).read_bytes()
    (hlen,) = struct.unpack("<I", blob[8:12])
    new = json.dumps(header).encode("utf-8")
    Path(path).write_bytes(blob[:8] + struct.pack("<I", len(new)) + new + blob[12 + hlen:])


def set_version(path, version):
    """Overwrite a saved checkpoint's format version word."""
    blob = Path(path).read_bytes()
    Path(path).write_bytes(blob[:4] + struct.pack("<I", version) + blob[8:])


def rewrite_header(path, edit):
    """Apply ``edit`` to a saved checkpoint's JSON header in place."""
    blob = Path(path).read_bytes()
    (hlen,) = struct.unpack("<I", blob[8:12])
    header = json.loads(blob[12:12 + hlen])
    edit(header)
    replace_header(path, header)


def distance_feature(center, point, neighbor) -> np.ndarray:
    """Scalar reference for one edge of the "distance" block of
    ``features.neighbor_feature_array``:
    [D(neighbor, center), D(neighbor, point), D(center, point)]."""
    center, point, neighbor = (np.asarray(v, dtype=np.float64) for v in (center, point, neighbor))
    return np.array([
        np.linalg.norm(neighbor - center),
        np.linalg.norm(neighbor - point),
        np.linalg.norm(center - point),
    ])


def ppf_feature(p1, n1, p2, n2) -> np.ndarray:
    """Scalar reference for one edge of the "ppf" block of
    ``features.neighbor_feature_array``:
    (angle(n1, d), angle(n2, d), angle(n1, n2), |d|) with d = p2 - p1."""
    d = np.asarray(p2, dtype=np.float64) - np.asarray(p1, dtype=np.float64)
    dist = np.linalg.norm(d)
    if dist < 1e-12:
        raise ValueError("ppf_feature: coincident points")
    dn = d / dist
    ang = lambda u, v: float(np.arccos(np.clip(np.dot(u, v), -1.0, 1.0)))
    return np.array([ang(n1, dn), ang(n2, dn), ang(n1, n2), dist])


@pytest.fixture
def rng():
    return Rng(0xC0FFEE)


def rotation_oracle(vals) -> np.ndarray:
    """Plain NumPy reference for the pose head's rotation decoder,
    :func:`decode_rotation`."""
    return geom.euler_to_matrix(np.asarray(vals, dtype=np.float64))


def decode_rotation(vals) -> np.ndarray:
    """The rotation that ``separation._canonical_t`` decodes from a head
    output of Euler angles ``vals`` and a zero translation."""
    head = ad.constant(np.concatenate([vals, np.zeros(3)]).reshape(1, 6))
    return separation._canonical_t(np.zeros((1, 3)), head)[1].rotation


def scatter_rows_oracle(idx, g: np.ndarray, n: int) -> np.ndarray:
    """Row scatter-add as a loop: each of the ``n`` rows starts from 0.0 and
    adds ``g[e]`` for every ``idx[e]`` naming it, in edge order. An [e, c]
    ``idx`` names the row of each entry: ``g[e, ch]`` goes to ``idx[e, ch]``."""
    idx = np.asarray(idx)
    out = [[0.0] * g.shape[1] for _ in range(n)]
    for e in range(g.shape[0]):
        for ch in range(g.shape[1]):
            r = idx[e] if idx.ndim == 1 else idx[e, ch]
            out[r][ch] += float(g[e, ch])
    return np.array(out).reshape(n, g.shape[1])


def _select_k_oracle(d2: np.ndarray, tie_key: np.ndarray, k: int) -> np.ndarray:
    """Per row, the k smallest entries by one full lexsort: distance first,
    then ``tie_key``."""
    return np.array([np.lexsort((tie_key, row))[:k] for row in d2], dtype=np.int64)


def neighbor_table_oracle(data: np.ndarray, k: int) -> np.ndarray:
    """``geom._neighbor_table`` over one full [N, N] matrix: ``np.unique``
    collapses twins up front, then :func:`geom.sqdist_matrix` and a full-row
    lexsort per row select over the distinct rows (the library scans row
    blocks, partitions before it sorts and collapses only when a twin may
    exist)."""
    n = data.shape[0]
    uniq, inverse = np.unique(data, axis=0, return_inverse=True)
    m = uniq.shape[0]
    if m == n or m - 1 < k:
        d2 = geom.sqdist_matrix(data, data)
        np.fill_diagonal(d2, np.inf)
        return _select_k_oracle(d2, np.arange(n), k)
    reps = np.full(m, n, dtype=np.int64)
    np.minimum.at(reps, inverse, np.arange(n))
    d2 = geom.sqdist_matrix(uniq, uniq)
    np.fill_diagonal(d2, np.inf)
    return reps[_select_k_oracle(d2, reps, k)][inverse]


def _binary(kind: str, a, b, fwd, db) -> ad.Tensor:
    """An elementwise op over two operands of one shape, whose gradient is g
    for ``a`` and ``db(g)`` for ``b``; neither map holds an operand."""
    a, b = ad.as_tensor(a), ad.as_tensor(b)
    if a.shape != b.shape:
        raise ad.ShapeError(f"{kind}: shapes {a.shape} and {b.shape} differ")
    return ad._emit(kind, fwd(a.data, b.data), [(a, lambda g: g), (b, db)])


def add(a, b) -> ad.Tensor:
    """a + b on the tape, for the oracles: the library fuses every sum into
    the op that needs it."""
    return _binary("add", a, b, np.add, lambda g: g)


def sub(a, b) -> ad.Tensor:
    """a - b on the tape, for the oracles."""
    return _binary("sub", a, b, np.subtract, np.negative)


def gather_rows(a, idx) -> ad.Tensor:
    """Rows (axis 0) of ``a`` by integer index on the tape, for the oracles;
    the backward scatter-adds through ``autodiff._scatter_rows``, a gradient
    of any rank viewed as [e, prod(tail)] rows, each summed in order from 0.0."""
    a = ad.as_tensor(a)
    idx = np.asarray(idx, dtype=np.int64).reshape(-1)
    if a.ndim < 1:
        raise ad.ShapeError("gather_rows: input must have rank >= 1")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise ad.ShapeError(f"gather_rows: index out of range for {a.shape[0]} rows")
    shape = a.shape
    width = math.prod(shape[1:])
    return ad._emit("gather_rows", a.data[idx],
                    [(a, lambda g: ad._scatter_rows(idx, g.reshape(idx.size, width),
                                                    shape[0]).reshape(shape))])


def reshape(a, shape: tuple[int, ...]) -> ad.Tensor:
    """``a`` in a new shape on the tape, for the oracles."""
    a = ad.as_tensor(a)
    in_shape = a.shape
    return ad._emit("reshape", a.data.reshape(shape), [(a, lambda g: g.reshape(in_shape))])


def softmax(v) -> ad.Tensor:
    """The probability vector of a rank-1 ``v`` on the tape, stable under
    max-subtraction, for the oracles: the library fuses both softmaxes into
    ``separation._pose_related_t``."""
    v = ad.as_tensor(v)
    e = np.exp(v.data - np.max(v.data))
    p = e / np.sum(e)
    return ad._emit("softmax", p, [(v, lambda g: p * (g - np.dot(g, p)))])


def _pose_related_of_probabilities(p: ad.Tensor, q: ad.Tensor) -> ad.Tensor:
    """Entrywise p_i * log(p_i / q_i) of two probability vectors, ``EPS_FLOOR``
    added to both inside the log, as one op whose gradients add their terms
    in the order of a backward over the add, div, log and mul chain."""
    pv = p.data
    pa, qa = pv + separation.EPS_FLOOR, q.data + separation.EPS_FLOOR
    ratio = pa / qa
    log_ratio = np.log(ratio)
    return ad._emit("pose_related", (pv * log_ratio).reshape(1, -1),
                    [(p, lambda g: g[0] * log_ratio + g[0] * pv / ratio / qa),
                     (q, lambda g: -(g[0] * pv / ratio) * pa / (qa * qa))])


def pose_related_chain(gamma_v, gamma_g) -> ad.Tensor:
    """``separation._pose_related_t`` as the chain of three tape ops it
    fuses: a softmax of each m-vector, then the pose-related term."""
    return _pose_related_of_probabilities(softmax(gamma_v), softmax(gamma_g))


def pair_table_oracle(a, b, neighbors) -> ad.Tensor:
    """``autodiff.pair_table`` on the tape, from the general ops:
    row i*k + j is a[i] + b[neighbors[i, j]]."""
    n, k = np.shape(neighbors)
    return add(gather_rows(a, np.repeat(np.arange(n), k)),
               gather_rows(b, np.reshape(neighbors, -1)))


def neighbor_max_oracle(b, neighbors) -> ad.Tensor:
    """The max over each point's neighbor rows of ``b``, unfused:
    ``gather_rows -> reshape -> reduce_max``."""
    n, k = np.shape(neighbors)
    table = gather_rows(b, np.reshape(neighbors, -1))
    return ad.reduce_max(reshape(table, (n, k, table.shape[1])), axis=1)


def edge_max(out: np.ndarray, b: np.ndarray, neighbors: np.ndarray, taped: bool):
    """The pool step of ``encoder.edge_conv_layer`` alone: out[i] <-
    LeakyReLU(out[i] + max_j b[neighbors[i, j]]) in place, through
    ``autodiff._max_pool`` with the layer's neighbor-major blocks. Untaped,
    None; taped, the layer's map g -> (gradient of out, gradient of b)."""
    (n, c), k = b.shape, neighbors.shape[1]
    won = ad._max_pool(out, k, lambda s, e: ad.pair_table(b, neighbors[s:e].T).data.reshape(
        k, e - s, c), 0, taped)
    if not taped:
        return None

    def grads(g):
        gate, arg = won
        g_out = ad._gated(g, gate)
        return g_out, ad._scatter_rows(np.take_along_axis(neighbors, arg, axis=1), g_out, n)

    return grads


def edge_conv_chain(feats, neighbors, weight, bias) -> ad.Tensor:
    """``encoder.edge_conv_layer`` as the chain of eight tape ops it fuses:
    pool the neighbor term, add the centre term, then activate."""
    c = feats.shape[1]
    w = ad.as_tensor(weight)
    w_top = gather_rows(w, np.arange(c))
    w_bot = gather_rows(w, np.arange(c, 2 * c))
    center = ad.affine(feats, sub(w_top, w_bot), bias)
    return ad.leaky_relu(add(center, neighbor_max_oracle(ad.matmul(feats, w_bot), neighbors)))


def embed_chain(phi: np.ndarray, weight, bias) -> ad.Tensor:
    """``encoder.embed_from_features`` as the chain of four tape ops it
    fuses, over the whole [N*k, c] table."""
    n, k, d = phi.shape
    w = ad.as_tensor(weight)
    h = reshape(ad.affine(ad.constant(phi.reshape(n * k, d)), w, bias), (n, k, w.shape[1]))
    return ad.leaky_relu(ad.reduce_max(h, axis=1))


def _activate_then_pool(pre: ad.Tensor, n: int, k: int) -> ad.Tensor:
    h = ad.leaky_relu(pre)
    return ad.reduce_max(reshape(h, (n, k, h.shape[1])), axis=1)


def edge_conv_oracle(feats, neighbors, weight, bias) -> ad.Tensor:
    """``encoder.edge_conv_layer`` with LeakyReLU on the [n*k, c'] edge table
    before the max over k (the library pools first)."""
    n, k = neighbors.shape
    c = feats.shape[1]
    w = ad.as_tensor(weight)
    w_top = gather_rows(w, np.arange(c))
    w_bot = gather_rows(w, np.arange(c, 2 * c))
    center = ad.affine(feats, sub(w_top, w_bot), bias)
    table = pair_table_oracle(center, ad.matmul(feats, w_bot), neighbors)
    return _activate_then_pool(table, n, k)


def embed_oracle(phi: np.ndarray, weight, bias) -> ad.Tensor:
    """``encoder.embed_from_features`` with LeakyReLU on the [N*k, c] table
    before the max over k (the library pools first)."""
    n, k, d = phi.shape
    pre = ad.affine(ad.constant(phi.reshape(n * k, d)), weight, bias)
    return _activate_then_pool(pre, n, k)


def descriptor_table_oracle(cloud: geom.PointCloud, spec: FeatureSpec, k: int) -> np.ndarray:
    """``features.point_descriptor_table`` as the max over k of the full
    [N, k, d] ``neighbor_feature_array`` (the library pools each per-point
    histogram table in place instead)."""
    return features.neighbor_feature_array(cloud, spec, geom.knn(cloud, k)).max(axis=1)


def sqdist_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``geom.sqdist_matrix`` as one unfused expression, clamped at 0 (the
    library builds it in one output buffer)."""
    a2, b2 = np.sum(a * a, axis=1), np.sum(b * b, axis=1)
    return np.maximum(a2[:, None] + b2[None, :] - 2.0 * (a @ b.T), 0.0)


def pfh_oracle(pts: np.ndarray, nrm: np.ndarray, nbr: np.ndarray) -> np.ndarray:
    """``features.pfh_table`` with one Darboux triplet per pair of every
    (k+1)-neighborhood (the library evaluates each distinct ordered pair once)."""
    n, k = nbr.shape
    nbh = np.concatenate([np.arange(n)[:, None], nbr], axis=1)  # [n, k+1]
    pair_local = np.array(list(combinations(range(k + 1), 2)))  # [m, 2]
    m = pair_local.shape[0]

    ia = nbh[:, pair_local[:, 0]].ravel()  # [n*m] global ids, first endpoint
    ib = nbh[:, pair_local[:, 1]].ravel()
    pa, na = pts[ia], nrm[ia]
    pb, nb = pts[ib], nrm[ib]
    d = pb - pa
    dist = np.linalg.norm(d, axis=1)
    safe = np.where(dist[:, None] == 0.0, 1.0, dist[:, None])
    dn = d / safe
    cos_a = np.einsum("ij,ij->i", na, dn)
    cos_b = np.einsum("ij,ij->i", nb, -dn)
    swap = cos_a < cos_b  # origin gets the smaller angle; ties keep the first
    ps = np.where(swap[:, None], pb, pa)
    ns = np.where(swap[:, None], nb, na)
    pt = np.where(swap[:, None], pa, pb)
    nt = np.where(swap[:, None], na, nb)

    alpha, phi, theta, ok = features._darboux(ps, ns, pt, nt)
    bins = features.PFH_BINS
    ba = features._bin_index(alpha, -1.0, 1.0, bins)
    bp = features._bin_index(phi, -1.0, 1.0, bins)
    bt = features._theta_bin(theta, bins)
    joint = (ba * bins + bp) * bins + bt
    owner = np.repeat(np.arange(n), m)

    cells = bins ** 3
    flat = owner[ok] * cells + joint[ok]
    hist = np.bincount(flat, minlength=n * cells).reshape(n, cells).astype(np.float64)
    counts = hist.sum(axis=1, keepdims=True)
    np.divide(hist, counts, out=hist, where=counts > 0)
    return hist


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


def grad_check(f: Callable[[ad.Tensor], ad.Tensor], x, h: float = 1e-6,
               tol: float = 1e-4, floor: float = 1e-6) -> GradCheckReport:
    """Compare d f(x) / dx against central finite differences.

    ``f`` must return a single-element tensor. The error at coordinate i is
    |a_i - n_i| / max(|a_i|, |n_i|, floor), so near-zero gradients fall back
    to an absolute comparison against ``floor``.
    """
    x_arr = np.array(x.data if isinstance(x, ad.Tensor) else x, dtype=np.float64)

    tape = ad.Tape()
    leaf = tape.leaf(x_arr)
    out = f(leaf)
    if out.size != 1:
        raise ad.ShapeError(f"grad_check: f must be scalar-valued, got shape {out.shape}")
    ad.backward(out)
    analytic = leaf.grad
    if analytic is None:
        analytic = np.zeros_like(x_arr)

    numeric = np.zeros_like(x_arr)
    flat = x_arr.reshape(-1)
    num_flat = numeric.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = f(ad.constant(x_arr)).item()
        flat[i] = orig - h
        lo = f(ad.constant(x_arr)).item()
        flat[i] = orig
        num_flat[i] = (hi - lo) / (2.0 * h)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    rel = np.abs(analytic - numeric) / denom
    return GradCheckReport(analytic=analytic, numeric=numeric, rel_errors=rel,
                           max_rel_error=float(np.max(rel)) if rel.size else 0.0,
                           tol=tol)
