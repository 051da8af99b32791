"""Point-cloud containers, rigid-motion algebra, Euler-angle rotations, and
nearest-neighbor search.

One neighbor rule serves 3D clouds (:func:`knn`) and feature rows
(:func:`graph_knn`): the k nearest distinct locations by brute-force scan,
ascending by distance, lower index on ties, never self or an exactly
coincident twin. The scan runs in row blocks of bounded bytes, so no [N, N]
distance matrix exists, selects by one partition of packed (distance, tie)
keys, and flags any row whose nearest distance lies within the rounding
bound of an exact twin; only a flagged input pays for the twin collapse.

Conventions used throughout the package:
  * points are stored as rows, shape [N, 3]; a transform acts as p' = R p + t,
    i.e. ``points @ R.T + t`` on row storage
  * Euler angles (alpha, beta, gamma) are radians and decode as
    R = Rz(gamma) @ Ry(beta) @ Rx(alpha); the pose head decodes its first 3
    outputs this way, from :func:`_euler_factors`, in
    ``separation._canonical_t``, since quaternion, 6D and SVD-projected 3x3
    heads did not beat it after test-split fine-tuning (README, reproduction
    findings)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ORTHO_TOL = 1e-8


@dataclass
class PointCloud:
    """Ordered 3D points."""

    points: np.ndarray

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64)
        if self.points.ndim != 2 or self.points.shape[1] != 3 or self.points.shape[0] < 1:
            raise ValueError(f"points must be [N,3] with N >= 1, got {self.points.shape}")
        if not np.all(np.isfinite(self.points)):
            raise ValueError("points contain non-finite coordinates")

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass
class RigidTransform:
    """Rotation matrix + translation vector; validated to lie in SE(3)."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        self.rotation = np.asarray(self.rotation, dtype=np.float64)
        self.translation = np.asarray(self.translation, dtype=np.float64).reshape(3)
        if self.rotation.shape != (3, 3):
            raise ValueError(f"rotation must be 3x3, got {self.rotation.shape}")
        if not (np.isfinite(self.rotation).all() and np.isfinite(self.translation).all()):
            raise ValueError("rotation and translation must be finite")  # NaN passes the rest
        err = np.max(np.abs(self.rotation.T @ self.rotation - np.eye(3)))
        if err > ORTHO_TOL:
            raise ValueError(f"rotation is not orthonormal (deviation {err:.2e})")
        if abs(np.linalg.det(self.rotation) - 1.0) > ORTHO_TOL:
            raise ValueError("rotation determinant is not +1 (reflection?)")

    @classmethod
    def identity(cls) -> "RigidTransform":
        return cls(np.eye(3), np.zeros(3))

    def matrix34(self) -> np.ndarray:
        return np.hstack([self.rotation, self.translation.reshape(3, 1)])


# ---------------------------------------------------------------------------
# basic cloud ops


def sqdist_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise squared distances [len(a), len(b)] by the expanded form
    |a|^2 + |b|^2 - 2 a.b, clamped at +0. The rounding error scales with
    |a|^2 + |b|^2, so a coincident pair may read a small positive number,
    never a negative one. Doubling the product in place is exact: every
    entry rounds as ``a2[:, None] + b2 - 2.0 * (a @ b.T)`` does.

    A ``b`` sharing ``a``'s memory is copied first: NumPy would send
    ``a @ a.T`` to BLAS syrk, several times slower than gemm here and
    rounded differently from ``a @ a.copy().T``.
    """
    if np.may_share_memory(a, b):
        b = b.copy()
    a2 = np.sum(a * a, axis=1)
    b2 = np.sum(b * b, axis=1)
    d2 = a2[:, None] + b2
    g = a @ b.T
    g *= 2.0
    d2 -= g
    np.maximum(d2, 0.0, out=d2)
    return d2


def take_rows(a: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """``np.take_along_axis(a, idx, axis=1)`` for 2-D ``a`` and ``idx`` with
    every index in [0, a.shape[1]), as one flat ``np.take`` at row offsets:
    the same values, about twice as fast at the neighbor tables' shapes."""
    return np.take(a, idx + np.arange(len(a))[:, None] * a.shape[1])


def _select_k(d2: np.ndarray, tie_key: np.ndarray, k: int) -> np.ndarray:
    """Per row, indices of the k smallest entries, ascending; ties broken by
    the distinct ints ``tie_key``.

    A d2 >= +0 viewed as int64 orders like d2. Its low ceil(log2 n) bits are
    overwritten by the column's rank in ``tie_key``, one in-place partition
    finds the k+1 smallest such keys, and the first k, sorted, are re-ordered
    stably by exact distance. A row whose k-th and (k+1)-th keys agree above
    the rank bits, or which holds a negative key (-NaN, -0.0) or selects a
    NaN, gets the exact full sort instead.
    """
    bits = max(1, (d2.shape[1] - 1).bit_length())
    by_rank = np.argsort(tie_key)
    keys = d2.view(np.int64) & -(1 << bits)
    keys |= np.argsort(by_rank)
    keys.partition(k, axis=1)
    first = np.sort(keys[:, :k], axis=1)
    cols = by_rank[first & ((1 << bits) - 1)]
    cd = take_rows(d2, cols)
    out = take_rows(cols, np.argsort(cd, axis=1, kind="stable"))
    unsafe = (first[:, -1] >> bits == keys[:, k] >> bits) | (first[:, 0] < 0)
    for i in np.nonzero(unsafe | np.isnan(cd).any(axis=1))[0]:
        out[i] = np.lexsort((tie_key, d2[i]))[:k]
    return out


# bytes of squared distances one row block of a neighbor scan holds: small
# enough to stay in cache, large enough that the per-block Python overhead is
# negligible
_SCAN_BLOCK_BYTES = 1 << 20


def _scan(data: np.ndarray, tie_key: np.ndarray, k: int) -> tuple[np.ndarray, bool]:
    """Neighbor table [N, k] of the rows of ``data``, and whether a row may
    have a twin.

    Row blocks of at most ``_SCAN_BLOCK_BYTES`` of squared distances against
    all rows, in :func:`sqdist_matrix`'s expanded form with the row itself
    at inf, each selected by :func:`_select_k` into its rows of the table,
    so no [N, N] matrix exists. Ties go by ``tie_key``: the row, or a twin
    location's lowest row.

    One block (N <= 360) multiplies by a copy of ``data``, as
    ``sqdist_matrix(data, data)`` does, so it takes gemm, not the syrk path
    NumPy gives a product of a buffer with its own transpose; the two round
    alike. On OpenBLAS 0.3.31, the blocks of a larger N round every dot
    product as that full product does whenever N is a multiple of 8 (checked
    for N = 368 to 4096 at widths 3 to 512). At other N a few dot products
    round one ulp apart, which can swap only two neighbors whose distances
    agree to that ulp.

    Twin flag: an exact twin of row i (equal values, -0.0 == 0.0) is at true
    distance 0. The squared norm and the dot product are each within
    ``gamma_c |x_i|^2`` of the true sum in any summation order, and the sum
    and difference of the two add at most 2u more, so the computed distance
    is below ``4 c eps |x_i|^2`` plus an underflow term below ``tiny``. A row
    whose nearest computed distance is within that bound, or NaN, raises the
    flag. ``4 |x_i|^2`` overflowing makes the bound inf, so the flag holds at
    any magnitude, and at any width below ~1e14 columns.
    """
    n, c = data.shape
    sq = np.sum(data * data, axis=1)
    finfo = np.finfo(np.float64)
    bound = 4.0 * sq * (c * finfo.eps) + finfo.tiny
    # the fewest blocks that fit, balanced, each a multiple of 8 rows: a
    # block of a few rows would run BLAS's GEMV or edge kernels, which round
    # the dot products differently from the full product
    blocks = -(-n // max(8, _SCAN_BLOCK_BYTES // (64 * n) * 8))
    rows = -(-n // (8 * blocks)) * 8
    other = data.copy() if rows >= n else data  # a one-block product would alias
    table = np.empty((n, k), dtype=np.int64)
    twin = False
    for s in range(0, n, rows):
        e = min(s + rows, n)
        d2 = sq[s:e, None] + sq - 2.0 * (data[s:e] @ other.T)
        np.maximum(d2, 0.0, out=d2)
        local = np.arange(e - s)
        d2[local, s + local] = np.inf
        table[s:e] = _select_k(d2, tie_key, k)
        twin = twin or not np.all(d2[local, table[s:e, 0]] > bound[s:e])
    return table, twin


def _neighbor_table(data: np.ndarray, k: int) -> np.ndarray:
    """The one neighbor rule behind :func:`knn` and :func:`graph_knn`.

    Per row, the k nearest *distinct* locations, ascending by squared
    distance, lower index first on ties, never the row itself or a twin
    (an exactly coincident row). Coincident rows collapse to one location
    represented by its lowest index, so a duplicated point neither crowds
    out genuine neighbors nor links to itself, and every copy of a point
    gets the same row. With fewer than k+1 distinct locations the table is
    the plain scan over rows, twins included.

    One :func:`_scan` over the rows gives the table of a twin-free input.
    Only when it flags a possible twin does ``np.unique`` run; if it finds
    twins, the same scan runs again over the distinct rows, ties broken by
    each location's lowest index, and every copy takes its location's row.
    """
    n = data.shape[0]
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must be in [1, N-1] = [1, {n - 1}], got {k}")
    table, twin = _scan(data, np.arange(n), k)
    if not twin:
        return table
    # a location's first occurrence is its lowest row
    uniq, reps, inverse = np.unique(data, axis=0, return_index=True, return_inverse=True)
    m = uniq.shape[0]
    if m == n or m - 1 < k:
        return table
    nbr_uniq, _ = _scan(uniq, reps, k)  # [m, k] in unique-row ids
    return reps[nbr_uniq][inverse]


def graph_knn(data: np.ndarray, k: int) -> np.ndarray:
    """Neighbor table [N, k] for row vectors of any dimension (feature space)."""
    return _neighbor_table(data, k)


def knn(cloud: PointCloud, k: int) -> np.ndarray:
    """Neighbor table [N, k] for a 3D cloud."""
    return _neighbor_table(cloud.points, k)


# ---------------------------------------------------------------------------
# rotations


def _euler_factors(angles) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rx(alpha), Ry(beta) and Rz(gamma) for angles (alpha, beta, gamma)."""
    (sa, sb, sg), (ca, cb, cg) = np.sin(angles), np.cos(angles)
    rx = np.array([[1.0, 0.0, 0.0], [0.0, ca, -sa], [0.0, sa, ca]])
    ry = np.array([[cb, 0.0, sb], [0.0, 1.0, 0.0], [-sb, 0.0, cb]])
    rz = np.array([[cg, -sg, 0.0], [sg, cg, 0.0], [0.0, 0.0, 1.0]])
    return rx, ry, rz


def euler_to_matrix(angles: np.ndarray) -> np.ndarray:
    """R = Rz(gamma) @ Ry(beta) @ Rx(alpha) for angles (alpha, beta, gamma)."""
    rx, ry, rz = _euler_factors(np.asarray(angles, dtype=np.float64))
    return rz @ ry @ rx


def euler_from_matrix(rot: np.ndarray) -> np.ndarray:
    """Inverse of :func:`euler_to_matrix`; gimbal lock resolves with gamma=0."""
    r20 = np.clip(rot[2, 0], -1.0, 1.0)
    beta = np.arcsin(-r20)
    if abs(r20) < 1.0 - 1e-12:
        alpha = np.arctan2(rot[2, 1], rot[2, 2])
        gamma = np.arctan2(rot[1, 0], rot[0, 0])
    else:
        s = -np.sign(r20)
        alpha = np.arctan2(s * rot[0, 1], s * rot[0, 2])
        gamma = 0.0
    return np.array([alpha, beta, gamma])


# ---------------------------------------------------------------------------
# rigid motion


def apply_transform(transform: RigidTransform, cloud: PointCloud) -> PointCloud:
    """p -> R p + t for every point."""
    return PointCloud(cloud.points @ transform.rotation.T + transform.translation)


def compose_relative(t_x: RigidTransform, t_y: RigidTransform) -> RigidTransform:
    """Relative motion R = R_Y R_X^T, t = t_Y - R t_X.

    Aligns X onto Y whenever both share the same canonical shape, i.e.
    R_X^T (X - t_X) == R_Y^T (Y - t_Y).
    """
    rot = t_y.rotation @ t_x.rotation.T
    trans = t_y.translation - rot @ t_x.translation
    return RigidTransform(rot, trans)


def fit_rigid(src: np.ndarray, dst: np.ndarray) -> RigidTransform:
    """Least-squares rigid motion src -> dst (SVD with reflection guard)."""
    if src.shape != dst.shape or src.ndim != 2 or src.shape[0] < 3:
        raise ValueError("fit_rigid needs matching [n>=3, 3] arrays")
    sc = src.mean(axis=0)
    dc = dst.mean(axis=0)
    h = (src - sc).T @ (dst - dc)
    u, _, vt = np.linalg.svd(h)
    d = np.sign(np.linalg.det(vt.T @ u.T))
    if d == 0.0:
        d = 1.0
    rot = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
    trans = dc - rot @ sc
    return RigidTransform(rot, trans)

