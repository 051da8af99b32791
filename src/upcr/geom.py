"""Point-cloud containers, rigid-motion algebra, the pose head's rotation
decoder, and nearest-neighbor search.

One neighbor rule serves 3D clouds (:func:`knn`) and feature rows
(:func:`graph_knn`): the k nearest distinct locations by brute-force scan,
ascending by distance, lower index on ties, never self or an exactly
coincident twin. The scan runs in row blocks of bounded bytes, so no [N, N]
distance matrix exists, and flags any row whose nearest distance lies within
the rounding bound of an exact twin; only a flagged input pays for the exact
twin collapse.

Conventions used throughout the package:
  * points are stored as rows, shape [N, 3]; a transform acts as p' = R p + t,
    i.e. ``points @ R.T + t`` on row storage
  * Euler angles (alpha, beta, gamma) are radians and decode as
    R = Rz(gamma) @ Ry(beta) @ Rx(alpha); the pose head decodes its first 3
    outputs this way, in :func:`_euler_rotation`, since quaternion, 6D and
    SVD-projected 3x3 heads did not beat it after test-split fine-tuning
    (README, reproduction findings)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad

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
    """Pairwise squared distances via the expanded form (fast, may be -eps)."""
    a2 = np.sum(a * a, axis=1)
    b2 = np.sum(b * b, axis=1)
    d2 = a2[:, None] + b2[None, :] - 2.0 * (a @ b.T)
    np.maximum(d2, 0.0, out=d2)
    return d2


def _select_k(d2: np.ndarray, tie_key: np.ndarray, k: int) -> np.ndarray:
    """Per row, indices of the k smallest entries; ties broken by tie_key."""
    cand = np.argpartition(d2, k, axis=1)[:, : k + 1]
    cd = np.take_along_axis(d2, cand, axis=1)
    order = np.lexsort((tie_key[cand], cd), axis=1)
    cand = np.take_along_axis(cand, order, axis=1)
    cd = np.take_along_axis(cd, order, axis=1)
    out = cand[:, :k].astype(np.int64)
    # a tie at the selection boundary means the partition may have kept the
    # wrong representatives; those rows get an exact full sort
    unsafe = np.nonzero(cd[:, k - 1] >= cd[:, k])[0]
    for i in unsafe:
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
    so no [N, N] matrix exists.

    One block (N <= 360) is the same BLAS call as ``sqdist_matrix(data,
    data)``. On OpenBLAS 0.3.31, the blocks also round every dot product as
    the full product does whenever N is a multiple of 8 (checked for N = 368
    to 4096 at widths 3 to 512). At other N a few dot products round one ulp
    apart, which can swap only two neighbors whose distances agree to that
    ulp.

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
    table = np.empty((n, k), dtype=np.int64)
    twin = False
    for s in range(0, n, rows):
        e = min(s + rows, n)
        d2 = sq[s:e, None] + sq - 2.0 * (data[s:e] @ data.T)
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
    uniq, inverse = np.unique(data, axis=0, return_inverse=True)
    m = uniq.shape[0]
    if m == n or m - 1 < k:
        return table
    reps = np.full(m, n, dtype=np.int64)
    np.minimum.at(reps, inverse, np.arange(n))
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
# the pose head's rotation decoder: one tape op, for training and inference


def _euler_rotation(angles: ad.Tensor) -> ad.Tensor:
    """Rz(gamma) @ (Ry(beta) @ Rx(alpha)) of [3] angles as one tape op.

    The VJP takes the product rule through both matrix products; each sin
    and cos value then sums the two factor entries that hold it, so the order
    of that sum cannot change a bit.
    """
    theta = angles.data
    rx, ry, rz = _euler_factors(theta)
    m = ry @ rx

    def grad(g):
        d_rz = g @ m.T
        d_m = rz.T @ g
        d_ry = d_m @ rx.T
        d_rx = ry.T @ d_m
        ds = np.array([d_rx[2, 1] - d_rx[1, 2], d_ry[0, 2] - d_ry[2, 0],
                       d_rz[1, 0] - d_rz[0, 1]])
        dc = np.array([d_rx[1, 1] + d_rx[2, 2], d_ry[0, 0] + d_ry[2, 2],
                       d_rz[0, 0] + d_rz[1, 1]])
        return ds * np.cos(theta) + -dc * np.sin(theta)

    return ad._emit("euler_rotation", rz @ m, [(angles, grad)])


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

