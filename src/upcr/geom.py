"""Point-cloud containers, rigid-motion algebra, rotation decoders, and
nearest-neighbor search.

One neighbor rule serves 3D clouds (:func:`knn`) and feature rows
(:func:`graph_knn`): the k nearest distinct locations by brute-force scan,
ascending by distance, lower index on ties, never self or an exactly
coincident twin.

Conventions used throughout the package:
  * points are stored as rows, shape [N, 3]; a transform acts as p' = R p + t,
    i.e. ``points @ R.T + t`` on row storage
  * Euler angles (alpha, beta, gamma) are radians and decode as
    R = Rz(gamma) @ Ry(beta) @ Rx(alpha)
  * quaternions are scalar-first (w, x, y, z); sixd holds the first two
    rotation columns (Gram-Schmidt); matrix mode is a row-major 3x3 mapped
    to its nearest proper rotation
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import autodiff as ad

ORTHO_TOL = 1e-8


@dataclass
class PointCloud:
    """Ordered 3D points with optional unit normals."""

    points: np.ndarray
    normals: np.ndarray | None = None

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64)
        if self.points.ndim != 2 or self.points.shape[1] != 3 or self.points.shape[0] < 1:
            raise ValueError(f"points must be [N,3] with N >= 1, got {self.points.shape}")
        if not np.all(np.isfinite(self.points)):
            raise ValueError("points contain non-finite coordinates")
        if self.normals is not None:
            self.normals = np.asarray(self.normals, dtype=np.float64)
            if self.normals.shape != self.points.shape:
                raise ValueError("normals must match points in shape")
            norms = np.linalg.norm(self.normals, axis=1)
            if np.any(np.abs(norms - 1.0) > 1e-6):
                raise ValueError("normals must be unit length within 1e-6")

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
        err = np.max(np.abs(self.rotation.T @ self.rotation - np.eye(3)))
        if err > ORTHO_TOL:
            raise ValueError(f"rotation is not orthonormal (deviation {err:.2e})")
        if abs(np.linalg.det(self.rotation) - 1.0) > ORTHO_TOL:
            raise ValueError("rotation determinant is not +1 (reflection?)")

    @classmethod
    def identity(cls) -> "RigidTransform":
        return cls(np.eye(3), np.zeros(3))

    def inverse(self) -> "RigidTransform":
        return RigidTransform(self.rotation.T, -self.rotation.T @ self.translation)

    def matrix34(self) -> np.ndarray:
        return np.hstack([self.rotation, self.translation.reshape(3, 1)])


# ---------------------------------------------------------------------------
# basic cloud ops


def centroid(cloud: PointCloud) -> np.ndarray:
    return cloud.points.mean(axis=0)


def sqdist_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise squared distances via the expanded form (fast, may be -eps)."""
    a2 = np.sum(a * a, axis=1)
    b2 = np.sum(b * b, axis=1)
    d2 = a2[:, None] + b2[None, :] - 2.0 * (a @ b.T)
    np.maximum(d2, 0.0, out=d2)
    return d2


def _select_k(d2: np.ndarray, tie_key: np.ndarray, k: int) -> np.ndarray:
    """Per row, indices of the k smallest entries; ties broken by tie_key."""
    n, m = d2.shape
    if k + 1 >= m:
        order = np.lexsort((np.broadcast_to(tie_key, (n, m)), d2), axis=1)
        return order[:, :k].astype(np.int64)
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


def _neighbor_table(data: np.ndarray, k: int) -> np.ndarray:
    """The one neighbor rule behind :func:`knn` and :func:`graph_knn`.

    Per row, the k nearest *distinct* locations, ascending by squared
    distance, lower index first on ties, never the row itself or a twin
    (an exactly coincident row). Coincident rows collapse to one location
    represented by its lowest index, so a duplicated point neither crowds
    out genuine neighbors nor links to itself, and every copy of a point
    gets the same row. With fewer than k+1 distinct locations the table is
    the plain scan over rows, twins included.
    """
    n = data.shape[0]
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must be in [1, N-1] = [1, {n - 1}], got {k}")
    uniq, inverse = np.unique(data, axis=0, return_inverse=True)
    m = uniq.shape[0]
    if m == n or m - 1 < k:
        d2 = sqdist_matrix(data, data)
        np.fill_diagonal(d2, np.inf)
        return _select_k(d2, np.arange(n), k)
    reps = np.full(m, n, dtype=np.int64)
    np.minimum.at(reps, inverse, np.arange(n))
    d2 = sqdist_matrix(uniq, uniq)
    np.fill_diagonal(d2, np.inf)
    nbr_uniq = _select_k(d2, reps, k)  # [m, k] in unique-row ids
    return reps[nbr_uniq][inverse]


def graph_knn(data: np.ndarray, k: int) -> np.ndarray:
    """Neighbor table [N, k] for row vectors of any dimension (feature space)."""
    return _neighbor_table(data, k)


def knn(cloud: PointCloud, k: int) -> np.ndarray:
    """Neighbor table [N, k] for a 3D cloud."""
    return _neighbor_table(cloud.points, k)


# ---------------------------------------------------------------------------
# rotations


def euler_to_matrix(angles: np.ndarray) -> np.ndarray:
    """R = Rz(gamma) @ Ry(beta) @ Rx(alpha) for angles (alpha, beta, gamma)."""
    a, b, g = float(angles[0]), float(angles[1]), float(angles[2])
    ca, sa = np.cos(a), np.sin(a)
    cb, sb = np.cos(b), np.sin(b)
    cg, sg = np.cos(g), np.sin(g)
    rx = np.array([[1, 0, 0], [0, ca, -sa], [0, sa, ca]])
    ry = np.array([[cb, 0, sb], [0, 1, 0], [-sb, 0, cb]])
    rz = np.array([[cg, -sg, 0], [sg, cg, 0], [0, 0, 1]])
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
# rotation decoders: one tape decoder per mode, for training and inference


def _slice(v: ad.Tensor, idx) -> ad.Tensor:
    return ad.gather_rows(v, idx)


def _mat3(entries: list[ad.Tensor]) -> ad.Tensor:
    return ad.reshape(ad.concat(entries), (3, 3))


def _euler_tensor(angles: ad.Tensor) -> ad.Tensor:
    one, zero = ad.constant([1.0]), ad.constant([0.0])
    s, c = ad.sin(angles), ad.cos(angles)
    sa, sb, sg = _slice(s, [0]), _slice(s, [1]), _slice(s, [2])
    ca, cb, cg = _slice(c, [0]), _slice(c, [1]), _slice(c, [2])
    rx = _mat3([one, zero, zero, zero, ca, ad.neg(sa), zero, sa, ca])
    ry = _mat3([cb, zero, sb, zero, one, zero, ad.neg(sb), zero, cb])
    rz = _mat3([cg, ad.neg(sg), zero, sg, cg, zero, zero, zero, one])
    return ad.matmul(rz, ad.matmul(ry, rx))


def _quaternion_tensor(q: ad.Tensor) -> ad.Tensor:
    nrm2 = ad.reduce_sum(ad.mul(q, q))
    if float(nrm2.data) < 1e-24:
        raise ValueError("degenerate quaternion (all zero)")
    qn = ad.div(q, ad.sqrt(nrm2))
    w, x, y, z = (_slice(qn, [i]) for i in range(4))
    two = ad.constant(2.0)
    one = ad.constant([1.0])

    def e(a, b):
        return ad.mul(two, ad.mul(a, b))

    return _mat3([
        ad.sub(one, e(y, y) + e(z, z)), ad.sub(e(x, y), e(z, w)), ad.add(e(x, z), e(y, w)),
        ad.add(e(x, y), e(z, w)), ad.sub(one, e(x, x) + e(z, z)), ad.sub(e(y, z), e(x, w)),
        ad.sub(e(x, z), e(y, w)), ad.add(e(y, z), e(x, w)), ad.sub(one, e(x, x) + e(y, y)),
    ])


def _cross_t(a: tuple, b: tuple) -> tuple:
    ax, ay, az = a
    bx, by, bz = b
    return (ad.sub(ad.mul(ay, bz), ad.mul(az, by)),
            ad.sub(ad.mul(az, bx), ad.mul(ax, bz)),
            ad.sub(ad.mul(ax, by), ad.mul(ay, bx)))


def _sixd_tensor(v: ad.Tensor) -> ad.Tensor:
    a = _slice(v, [0, 1, 2])
    b = _slice(v, [3, 4, 5])
    na2 = ad.reduce_sum(ad.mul(a, a))
    if float(na2.data) < 1e-18:
        raise ValueError("degenerate sixd parameter: first column is zero")
    c1 = ad.div(a, ad.sqrt(na2))
    proj = ad.reduce_sum(ad.mul(c1, b))
    bp = ad.sub(b, ad.mul(proj, c1))
    nb2 = ad.reduce_sum(ad.mul(bp, bp))
    if float(nb2.data) < 1e-18:
        raise ValueError("degenerate sixd parameter: columns are parallel")
    c2 = ad.div(bp, ad.sqrt(nb2))
    c1s = tuple(_slice(c1, [i]) for i in range(3))
    c2s = tuple(_slice(c2, [i]) for i in range(3))
    c3s = _cross_t(c1s, c2s)
    return _mat3([c1s[0], c2s[0], c3s[0],
                  c1s[1], c2s[1], c3s[1],
                  c1s[2], c2s[2], c3s[2]])


def _matrix_tensor(v: ad.Tensor) -> ad.Tensor:
    return ad.nearest_rotation(ad.reshape(v, (3, 3)))


class RotationMode(NamedTuple):
    """One rotation parameterization of the pose head.

    ``length`` head outputs plus the ``identity`` offset (so a zero head
    output decodes to the identity) go through ``decode``, a tape op chain
    that returns a proper 3x3 rotation.
    """

    length: int
    identity: np.ndarray
    decode: Callable[[ad.Tensor], ad.Tensor]


ROTATION_MODES = {
    "euler": RotationMode(3, np.zeros(3), _euler_tensor),
    "quaternion": RotationMode(4, np.array([1.0, 0.0, 0.0, 0.0]), _quaternion_tensor),
    "sixd": RotationMode(6, np.array([1.0, 0.0, 0.0, 0.0, 1.0, 0.0]), _sixd_tensor),
    "matrix": RotationMode(9, np.eye(3).reshape(-1), _matrix_tensor),
}


def rotation_mode(name) -> RotationMode:
    """The table entry for ``name``; ValueError naming the modes otherwise."""
    if not isinstance(name, str) or name not in ROTATION_MODES:
        raise ValueError(f"unknown rotation mode {name!r}; expected one of "
                         f"{', '.join(ROTATION_MODES)}")
    return ROTATION_MODES[name]


# ---------------------------------------------------------------------------
# rigid motion


def apply_transform(transform: RigidTransform, cloud: PointCloud) -> PointCloud:
    """p -> R p + t for every point; normals rotate without translating."""
    pts = cloud.points @ transform.rotation.T + transform.translation
    normals = None
    if cloud.normals is not None:
        normals = cloud.normals @ transform.rotation.T
    return PointCloud(pts, normals)


def canonicalize(cloud: PointCloud, transform: RigidTransform) -> PointCloud:
    """p -> R^T (p - t); inverse of :func:`apply_transform`."""
    pts = (cloud.points - transform.translation) @ transform.rotation
    normals = None
    if cloud.normals is not None:
        normals = cloud.normals @ transform.rotation
    return PointCloud(pts, normals)


def compose_relative(t_x: RigidTransform, t_y: RigidTransform) -> RigidTransform:
    """Relative motion R = R_Y R_X^T, t = t_Y - R t_X.

    Aligns X onto Y whenever both share the same canonical shape, i.e.
    canonicalize(X, T_X) == canonicalize(Y, T_Y).
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


def chamfer(a: PointCloud, b: PointCloud) -> float:
    """Symmetric mean of squared nearest-neighbor distances.

    Computed from explicit coordinate differences so that the value is
    exactly symmetric in its arguments and exactly zero for identical sets.
    """
    diff = a.points[:, None, :] - b.points[None, :, :]
    d2 = np.einsum("ijk,ijk->ij", diff, diff)
    return float(d2.min(axis=1).mean() + d2.min(axis=0).mean())
