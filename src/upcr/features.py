"""Pose-invariant point features and the invariant point embedding.

Feature kinds: plain distances to the cloud center and neighborhood, point
pair features (PPF), and the SPFH / PFH Darboux-angle histograms, plus the
concatenated combinations. All of them are unchanged by a joint rigid motion
of points (and normals, where used), which is what makes the downstream
invariant representation possible.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import autodiff as ad
from . import geom
from .geom import PointCloud

FEATURE_KINDS = (
    "distance",
    "ppf",
    "spfh",
    "pfh",
    "distance+ppf",
    "distance+spfh",
    "distance+ppf+spfh",
)


@dataclass
class FeatureSpec:
    """Which pose-invariant feature feeds the invariant branch.

    Combined kinds concatenate their component vectors in the order listed
    in the kind string.
    """

    kind: str = "distance"
    spfh_bins: int = 11
    pfh_bins: int = 5

    def __post_init__(self):
        if self.kind not in FEATURE_KINDS:
            raise ValueError(f"unknown feature kind {self.kind!r}; choose from {FEATURE_KINDS}")

    @property
    def parts(self) -> tuple[str, ...]:
        return tuple(self.kind.split("+"))

    @property
    def needs_normals(self) -> bool:
        return any(p in ("ppf", "spfh", "pfh") for p in self.parts)

    @property
    def dim(self) -> int:
        sizes = {
            "distance": 3,
            "ppf": 4,
            "spfh": 3 * self.spfh_bins,
            "pfh": self.pfh_bins ** 3,
        }
        return sum(sizes[p] for p in self.parts)


@dataclass
class PointFeatureTable:
    """Per-point feature vectors [N, d] under one FeatureSpec."""

    values: np.ndarray
    spec: FeatureSpec

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ValueError("feature table must be [N, d]")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("feature table contains non-finite entries")


# ---------------------------------------------------------------------------
# individual features


def distance_feature(center: np.ndarray, point: np.ndarray, neighbor: np.ndarray) -> np.ndarray:
    """[D(neighbor, center), D(neighbor, point), D(center, point)]."""
    center = np.asarray(center, dtype=np.float64)
    point = np.asarray(point, dtype=np.float64)
    neighbor = np.asarray(neighbor, dtype=np.float64)
    return np.array([
        np.linalg.norm(neighbor - center),
        np.linalg.norm(neighbor - point),
        np.linalg.norm(center - point),
    ])


def estimate_normals(cloud: PointCloud, k: int) -> tuple[PointCloud, list[int]]:
    """Per-point normals from neighborhood covariance.

    The normal is the eigenvector of the smallest eigenvalue of the
    covariance of {point} + its k nearest neighbors, oriented away from the
    cloud centroid (ties resolve toward +z, then +y, then +x). Returns the
    cloud with normals plus the indices of degenerate (rank < 2)
    neighborhoods, whose normal defaults to (0, 0, 1).
    """
    if k < 3:
        raise ValueError(f"normal estimation needs k >= 3, got {k}")
    pts = cloud.points
    n = pts.shape[0]
    nbr = geom.knn(cloud, k)
    nbh = np.concatenate([np.arange(n)[:, None], nbr], axis=1)  # [n, k+1]
    p = pts[nbh]  # [n, k+1, 3]
    p = p - p.mean(axis=1, keepdims=True)
    cov = np.einsum("npi,npj->nij", p, p) / (k + 1)
    eigvals, eigvecs = np.linalg.eigh(cov)  # ascending
    normals = eigvecs[:, :, 0].copy()

    degenerate = eigvals[:, 1] <= 1e-10 * np.maximum(eigvals[:, 2], 1e-300)
    warnings = np.nonzero(degenerate)[0].tolist()
    normals[degenerate] = (0.0, 0.0, 1.0)

    outward = pts - pts.mean(axis=0)
    dots = np.einsum("ij,ij->i", normals, outward)
    normals[dots < 0] *= -1.0
    # orientation undecided: break the tie componentwise
    for i in np.nonzero(dots == 0)[0]:
        v = normals[i]
        for c in (2, 1, 0):
            if v[c] != 0.0:
                if v[c] < 0.0:
                    normals[i] = -v
                break
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    return PointCloud(pts, normals), warnings


def ppf_feature(p1: np.ndarray, n1: np.ndarray, p2: np.ndarray, n2: np.ndarray) -> np.ndarray:
    """(angle(n1, d), angle(n2, d), angle(n1, n2), |d|) with d = p2 - p1."""
    d = np.asarray(p2, dtype=np.float64) - np.asarray(p1, dtype=np.float64)
    dist = np.linalg.norm(d)
    if dist < 1e-12:
        raise ValueError("ppf_feature: coincident points")
    dn = d / dist
    ang = lambda u, v: float(np.arccos(np.clip(np.dot(u, v), -1.0, 1.0)))
    return np.array([ang(n1, dn), ang(n2, dn), ang(n1, n2), dist])


def _darboux(ps, ns, pt, nt):
    """Darboux angles (alpha, phi, theta) for source->target rows [m, 3].

    Returns the angle triplets and a validity mask (False where the pair
    direction vanishes or is parallel to the source normal). Theta is
    ``atan2(w.n_t, u.n_t)`` in [-pi, pi]; a rounding-level ``w.n_t`` (at most
    1e-12, the mask's own scale) is set to +0 first, so antiparallel normals
    give theta = +pi in every pose instead of +pi or -pi by rounding.
    """
    d = pt - ps
    dist = np.linalg.norm(d, axis=1)
    ok = dist > 1e-12
    dn = np.where(ok[:, None], d / np.where(dist[:, None] == 0.0, 1.0, dist[:, None]), 0.0)
    u = ns
    v = np.cross(d, u)
    vn = np.linalg.norm(v, axis=1)
    ok &= vn > 1e-12
    v = np.where(ok[:, None], v / np.where(vn[:, None] == 0.0, 1.0, vn[:, None]), 0.0)
    w = np.cross(u, v)
    alpha = np.einsum("ij,ij->i", v, nt)
    phi = np.einsum("ij,ij->i", u, dn)
    w_nt = np.einsum("ij,ij->i", w, nt)
    w_nt = np.where(np.abs(w_nt) <= 1e-12, 0.0, w_nt)
    theta = np.arctan2(w_nt, np.einsum("ij,ij->i", u, nt))
    return alpha, phi, theta, ok


def _bin_index(val: np.ndarray, lo: float, hi: float, bins: int) -> np.ndarray:
    idx = np.floor((val - lo) / (hi - lo) * bins).astype(np.int64)
    return np.clip(idx, 0, bins - 1)


def _theta_bin(theta: np.ndarray, bins: int) -> np.ndarray:
    """Periodic bin of an angle in [-pi, pi]: -pi and +pi share bin 0."""
    idx = np.floor((theta + np.pi) / (2.0 * np.pi) * bins).astype(np.int64)
    return np.mod(idx, bins)


def spfh_table(cloud: PointCloud, k: int, bins: int = 11) -> PointFeatureTable:
    """SPFH histograms for every point, [N, 3*bins].

    Alpha and phi are binned over [-1, 1]; theta is binned periodically over
    [-pi, pi), so the antiparallel-normal seam (theta = +-pi) lands in one bin.
    """
    if cloud.normals is None:
        raise ValueError("spfh needs normals; call estimate_normals first")
    pts, nrm = cloud.points, cloud.normals
    n = pts.shape[0]
    nbr = geom.knn(cloud, k)
    ps = np.repeat(pts, k, axis=0)
    ns = np.repeat(nrm, k, axis=0)
    pt = pts[nbr.ravel()]
    nt = nrm[nbr.ravel()]
    alpha, phi, theta, ok = _darboux(ps, ns, pt, nt)
    owner = np.repeat(np.arange(n), k)

    hist = np.zeros((n, 3 * bins))
    sub_bins = (_bin_index(alpha, -1.0, 1.0, bins), _bin_index(phi, -1.0, 1.0, bins),
                _theta_bin(theta, bins))
    for sub, b in enumerate(sub_bins):
        flat = owner[ok] * bins + b[ok]
        acc = np.bincount(flat, minlength=n * bins).reshape(n, bins).astype(np.float64)
        counts = acc.sum(axis=1, keepdims=True)
        np.divide(acc, counts, out=acc, where=counts > 0)
        hist[:, sub * bins:(sub + 1) * bins] = acc
    return PointFeatureTable(hist, FeatureSpec("spfh", spfh_bins=bins))


def pfh_table(cloud: PointCloud, k: int, bins: int = 5) -> PointFeatureTable:
    """PFH histograms for every point, [N, bins**3].

    Every unordered pair inside {i} + neighbors(i) contributes one Darboux
    triplet; the frame origin is the endpoint whose normal makes the smaller
    angle with the pair direction. Theta is binned periodically, as in
    :func:`spfh_table`.
    """
    if cloud.normals is None:
        raise ValueError("pfh needs normals; call estimate_normals first")
    pts, nrm = cloud.points, cloud.normals
    n = pts.shape[0]
    nbr = geom.knn(cloud, k)
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

    alpha, phi, theta, ok = _darboux(ps, ns, pt, nt)
    ba = _bin_index(alpha, -1.0, 1.0, bins)
    bp = _bin_index(phi, -1.0, 1.0, bins)
    bt = _theta_bin(theta, bins)
    joint = (ba * bins + bp) * bins + bt
    owner = np.repeat(np.arange(n), m)

    cells = bins ** 3
    flat = owner[ok] * cells + joint[ok]
    hist = np.bincount(flat, minlength=n * cells).reshape(n, cells).astype(np.float64)
    counts = hist.sum(axis=1, keepdims=True)
    np.divide(hist, counts, out=hist, where=counts > 0)
    return PointFeatureTable(hist, FeatureSpec("pfh", pfh_bins=bins))


# ---------------------------------------------------------------------------
# assembled neighbor features and the invariant embedding


def _with_normals(cloud: PointCloud, spec: FeatureSpec, k: int) -> PointCloud:
    if spec.needs_normals and cloud.normals is None:
        cloud, _ = estimate_normals(cloud, k)
    return cloud


def neighbor_feature_array(cloud: PointCloud, spec: FeatureSpec, nbr: np.ndarray) -> np.ndarray:
    """Raw pose-invariant features for every (point, neighbor) edge, [N, k, d]."""
    k = nbr.shape[1]
    cloud = _with_normals(cloud, spec, k)
    pts = cloud.points
    n = pts.shape[0]
    center = pts.mean(axis=0)
    blocks = []
    for part in spec.parts:
        if part == "distance":
            pn = pts[nbr]  # [n, k, 3]
            d_oc = np.linalg.norm(pn - center, axis=2)
            d_pc = np.linalg.norm(pn - pts[:, None, :], axis=2)
            d_op = np.repeat(np.linalg.norm(pts - center, axis=1)[:, None], k, axis=1)
            blocks.append(np.stack([d_oc, d_pc, d_op], axis=2))
        elif part == "ppf":
            nrm = cloud.normals
            p1 = np.repeat(pts, k, axis=0)
            n1 = np.repeat(nrm, k, axis=0)
            p2 = pts[nbr.ravel()]
            n2 = nrm[nbr.ravel()]
            d = p2 - p1
            dist = np.linalg.norm(d, axis=1)
            safe = np.where(dist[:, None] == 0.0, 1.0, dist[:, None])
            dn = d / safe
            a1 = np.arccos(np.clip(np.einsum("ij,ij->i", n1, dn), -1.0, 1.0))
            a2 = np.arccos(np.clip(np.einsum("ij,ij->i", n2, dn), -1.0, 1.0))
            a3 = np.arccos(np.clip(np.einsum("ij,ij->i", n1, n2), -1.0, 1.0))
            block = np.stack([a1, a2, a3, dist], axis=1).reshape(n, k, 4)
            blocks.append(block)
        elif part == "spfh":
            table = spfh_table(cloud, k, spec.spfh_bins).values
            blocks.append(table[nbr])
        elif part == "pfh":
            table = pfh_table(cloud, k, spec.pfh_bins).values
            blocks.append(table[nbr])
    return np.concatenate(blocks, axis=2)


def point_descriptor_table(cloud: PointCloud, spec: FeatureSpec, k: int) -> PointFeatureTable:
    """Per-point descriptors for feature matching: max over neighbor features."""
    nbr = geom.knn(cloud, k)
    arr = neighbor_feature_array(cloud, spec, nbr)
    return PointFeatureTable(arr.max(axis=1), spec)


def embed_from_features(phi: np.ndarray, weight, bias, slope: float = 0.2) -> ad.Tensor:
    """h_alpha + neighbor max-pool on a precomputed [N, k, d] feature array."""
    n, k, d = phi.shape
    w = ad.as_tensor(weight)
    flat = ad.constant(phi.reshape(n * k, d))
    h = ad.leaky_relu(ad.affine(flat, w, bias), slope)
    h = ad.reshape(h, (n, k, w.shape[1]))
    return ad.reduce_max(h, axis=1)
