"""Pose-invariant point features, in plain NumPy.

Feature kinds: plain distances to the cloud center and neighborhood, the
SPFH / PFH Darboux-angle histograms, and distances concatenated with SPFH.
All of them are unchanged by a rigid motion of the points: the normals that
SPFH and PFH read are estimated from the points' own neighbor table, so they
turn with the cloud. That invariance is what makes the downstream invariant
representation possible: ``encoder`` embeds these [N, k, d] tables on the
tape. Nothing here records a tape.

Features come in two stages. :func:`point_tables` does the costly per-point
work once per cloud: the normals, then the SPFH / PFH tables ([N, d]).
:func:`neighbor_feature_array` then writes the features of all k edges per
point into one [N, k, d] buffer, part by part: it rebuilds the cheap distances
from the points and gathers the tables at each neighbor. The matching
descriptors of the ICP baselines, :func:`point_descriptor_table`, take only
the two histogram kinds and pool a table over the neighbors in place.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import geom
from .geom import PointCloud

FEATURE_KINDS = ("distance", "spfh", "pfh", "distance+spfh")


# histogram bins per Darboux angle, the PCL defaults (Rusu et al., ICRA 2009):
# SPFH concatenates three 11-bin histograms, PFH bins the triplet into 5**3 cells
SPFH_BINS = 11
PFH_BINS = 5

# feature columns per part of a kind
_PART_DIMS = {"distance": 3, "spfh": 3 * SPFH_BINS, "pfh": PFH_BINS ** 3}

# the parts built as per-point tables, and the only kinds a matching descriptor takes
_TABLE_PARTS = ("spfh", "pfh")

# the fewest neighbours estimate_normals takes; the CLI checks k against it before any work
NORMALS_MIN_K = 3


class MatchError(ValueError):
    """Descriptor matching can give no pose: a descriptor is not finite, or
    too few points match mutually."""


@dataclass
class FeatureSpec:
    """Which pose-invariant feature feeds the invariant branch.

    Combined kinds concatenate their component vectors in the order listed
    in the kind string.
    """

    kind: str

    def __post_init__(self):
        if self.kind not in FEATURE_KINDS:
            raise ValueError(f"unknown feature kind {self.kind!r}; choose from {FEATURE_KINDS}")

    @property
    def parts(self) -> tuple[str, ...]:
        return tuple(self.kind.split("+"))

    @property
    def table_names(self) -> tuple[str, ...]:
        """Keys of the per-point tables :func:`point_tables` builds, in order:
        each SPFH/PFH part. Only these read the normals."""
        return tuple(p for p in self.parts if p in _TABLE_PARTS)

    @property
    def dim(self) -> int:
        return sum(_PART_DIMS[p] for p in self.parts)


# ---------------------------------------------------------------------------
# individual features


def estimate_normals(pts: np.ndarray, nbr: np.ndarray) -> np.ndarray:
    """Unit normals [N, 3] of the points ``pts`` from neighborhood covariance.

    The normal is the eigenvector of the smallest eigenvalue of the
    covariance of {point} + its k neighbors in the [N, k] table ``nbr``,
    oriented away from the cloud centroid (ties resolve toward +z, then +y,
    then +x). A degenerate (rank < 2) neighborhood gets (0, 0, 1).
    """
    n, k = nbr.shape
    if k < NORMALS_MIN_K:
        raise ValueError(f"normal estimation needs k >= {NORMALS_MIN_K}, got {k}")
    nbh = np.concatenate([np.arange(n)[:, None], nbr], axis=1)  # [n, k+1]
    p = pts[nbh]  # [n, k+1, 3]
    p = p - p.mean(axis=1, keepdims=True)
    cov = np.einsum("npi,npj->nij", p, p) / (k + 1)
    eigvals, eigvecs = np.linalg.eigh(cov)  # ascending
    normals = eigvecs[:, :, 0].copy()

    degenerate = eigvals[:, 1] <= 1e-10 * np.maximum(eigvals[:, 2], 1e-300)
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
    return normals


def _unit_rows(d: np.ndarray):
    """The rows of [m, 3] ``d`` over their lengths, and the lengths; a zero
    row is divided by 1, so it stays zero."""
    dist = np.linalg.norm(d, axis=1)
    return d / np.where(dist[:, None] == 0.0, 1.0, dist[:, None]), dist


def _darboux(ps, ns, pt, nt):
    """Darboux angles (alpha, phi, theta) for source->target rows [m, 3].

    Returns the angle triplets and a validity mask (False where the pair
    direction vanishes or is parallel to the source normal). Theta is
    ``atan2(w.n_t, u.n_t)`` in [-pi, pi]; a rounding-level ``w.n_t`` (at most
    1e-12, the mask's own scale) is set to +0 first, so antiparallel normals
    give theta = +pi in every pose instead of +pi or -pi by rounding.
    """
    d = pt - ps
    dn, dist = _unit_rows(d)
    ok = dist > 1e-12
    dn = np.where(ok[:, None], dn, 0.0)
    u = ns
    v, vn = _unit_rows(np.cross(d, u))
    ok &= vn > 1e-12
    v = np.where(ok[:, None], v, 0.0)
    w = np.cross(u, v)
    alpha = np.einsum("ij,ij->i", v, nt)
    phi = np.einsum("ij,ij->i", u, dn)
    w_nt = np.einsum("ij,ij->i", w, nt)
    w_nt = np.where(np.abs(w_nt) <= 1e-12, 0.0, w_nt)
    theta = np.arctan2(w_nt, np.einsum("ij,ij->i", u, nt))
    return alpha, phi, theta, ok


def _frequencies(flat: np.ndarray, n: int, cells: int) -> np.ndarray:
    """Per-row relative frequencies [n, cells] of the cell ids ``flat`` (row *
    cells + cell); a row with no ids stays zero."""
    hist = np.bincount(flat, minlength=n * cells).reshape(n, cells).astype(np.float64)
    counts = hist.sum(axis=1, keepdims=True)
    np.divide(hist, counts, out=hist, where=counts > 0)
    return hist


def _bin_index(val: np.ndarray, lo: float, hi: float, bins: int) -> np.ndarray:
    idx = np.floor((val - lo) / (hi - lo) * bins).astype(np.int64)
    return np.clip(idx, 0, bins - 1)


def _theta_bin(theta: np.ndarray, bins: int) -> np.ndarray:
    """Periodic bin of an angle in [-pi, pi]: -pi and +pi share bin 0."""
    idx = np.floor((theta + np.pi) / (2.0 * np.pi) * bins).astype(np.int64)
    return np.mod(idx, bins)


def spfh_table(pts: np.ndarray, nrm: np.ndarray, nbr: np.ndarray) -> np.ndarray:
    """SPFH histograms for every point over its neighbors in ``nbr``, [N, 3*SPFH_BINS].

    ``nrm`` holds the unit normals of the points ``pts``. Alpha and phi are
    binned over [-1, 1]; theta is binned periodically over [-pi, pi), so the
    antiparallel-normal seam (theta = +-pi) lands in one bin.
    """
    n, k = nbr.shape
    alpha, phi, theta, ok = _darboux(np.repeat(pts, k, axis=0), np.repeat(nrm, k, axis=0),
                                     pts[nbr.ravel()], nrm[nbr.ravel()])
    owner = np.repeat(np.arange(n), k)[ok] * SPFH_BINS
    sub_bins = (_bin_index(alpha, -1.0, 1.0, SPFH_BINS), _bin_index(phi, -1.0, 1.0, SPFH_BINS),
                _theta_bin(theta, SPFH_BINS))
    return np.concatenate([_frequencies(owner + b[ok], n, SPFH_BINS) for b in sub_bins], axis=1)


def pfh_table(pts: np.ndarray, nrm: np.ndarray, nbr: np.ndarray) -> np.ndarray:
    """PFH histograms for every point, [N, PFH_BINS**3], from unit normals ``nrm``.

    Every unordered pair inside {i} + its neighbors in ``nbr`` contributes one
    Darboux triplet; the frame origin is the endpoint whose normal makes the
    smaller angle with the pair direction. Theta is binned periodically, as in
    :func:`spfh_table`.

    Overlapping neighborhoods share one triplet per distinct *ordered* pair.
    Ordered: on an exact angle tie the first endpoint stays the origin, so
    (a, b) and (b, a) can land in different bins.
    """
    n, k = nbr.shape
    nbh = np.concatenate([np.arange(n)[:, None], nbr], axis=1)  # [n, k+1]
    pair_local = np.array(list(combinations(range(k + 1), 2)))  # [m, 2]
    key = nbh[:, pair_local[:, 0]] * n + nbh[:, pair_local[:, 1]]  # [n, m] ordered pair ids
    seen = np.zeros(n * n, dtype=bool)
    seen[key] = True
    ia, ib = np.divmod(np.flatnonzero(seen), n)  # distinct ordered pairs, by key

    pa, na = pts[ia], nrm[ia]
    pb, nb = pts[ib], nrm[ib]
    dn, _ = _unit_rows(pb - pa)
    cos_a = np.einsum("ij,ij->i", na, dn)
    cos_b = np.einsum("ij,ij->i", nb, -dn)
    swap = cos_a < cos_b  # origin gets the smaller angle; ties keep the first
    ps = np.where(swap[:, None], pb, pa)
    ns = np.where(swap[:, None], nb, na)
    pt = np.where(swap[:, None], pa, pb)
    nt = np.where(swap[:, None], na, nb)

    alpha, phi, theta, ok = _darboux(ps, ns, pt, nt)
    ba = _bin_index(alpha, -1.0, 1.0, PFH_BINS)
    bp = _bin_index(phi, -1.0, 1.0, PFH_BINS)
    bt = _theta_bin(theta, PFH_BINS)
    cells = PFH_BINS ** 3
    joint = (ba * PFH_BINS + bp) * PFH_BINS + bt
    rows = np.cumsum(seen)[key] - 1  # [n, m] slot of each pair among the distinct ones
    return _frequencies((np.arange(n)[:, None] * cells + joint[rows])[ok[rows]], n, cells)


# ---------------------------------------------------------------------------
# assembled neighbor features


def point_tables(cloud: PointCloud, spec: FeatureSpec, nbr: np.ndarray) -> dict[str, np.ndarray]:
    """The per-point stage over the neighbor table ``nbr``: each of
    ``spec.table_names`` mapped to its [N, d] SPFH/PFH table. This is the work
    that costs more than a rebuild; the normals are estimated only for it."""
    pts = cloud.points
    nrm = estimate_normals(pts, nbr) if spec.table_names else None
    build = {"spfh": spfh_table, "pfh": pfh_table}
    return {name: build[name](pts, nrm, nbr) for name in spec.table_names}


def neighbor_feature_array(cloud: PointCloud, spec: FeatureSpec, nbr: np.ndarray,
                           tables: dict[str, np.ndarray] | None = None) -> np.ndarray:
    """Raw pose-invariant features for every (point, neighbor) edge, [N, k, d].

    Each part of ``spec`` is written once, into its own columns. A distance
    reads the per-point |p - center| at the neighbor and at the owner, and is
    rebuilt on every call; a table is gathered one neighbor column at a time.
    ``tables`` is :func:`point_tables` of the same cloud, spec and ``nbr``,
    built here when not given, with the same bytes out either way. An
    out-of-range neighbor raises IndexError.
    """
    if tables is None:
        tables = point_tables(cloud, spec, nbr)
    pts = cloud.points
    out = np.empty(nbr.shape + (spec.dim,))
    at = 0
    for part in spec.parts:
        if part == "distance":
            r = np.linalg.norm(pts - pts.mean(axis=0), axis=1)
            out[:, :, at] = r[nbr]
            out[:, :, at + 1] = np.linalg.norm(pts[nbr] - pts[:, None, :], axis=2)
            out[:, :, at + 2] = r[:, None]
        else:
            for j in range(nbr.shape[1]):
                out[:, j, at:at + _PART_DIMS[part]] = tables[part][nbr[:, j]]
        at += _PART_DIMS[part]
    return out


def point_descriptor_table(cloud: PointCloud, spec: FeatureSpec, k: int) -> np.ndarray:
    """Per-point descriptors [N, d] for feature matching: the max of a point's
    SPFH or PFH table over its k neighbors, the same values as
    ``neighbor_feature_array(...).max(axis=1)``.

    One neighbor table per cloud feeds the normals and the histograms. Any
    kind but ``spfh`` and ``pfh`` raises ValueError; a non-finite descriptor
    raises MatchError.
    """
    if spec.kind not in _TABLE_PARTS:
        raise ValueError(f"matching descriptors take kind 'spfh' or 'pfh', got {spec.kind!r}")
    nbr = geom.knn(cloud, k)
    hist = point_tables(cloud, spec, nbr)[spec.kind]
    table = hist[nbr[:, 0]]
    for j in range(1, k):
        np.maximum(table, hist[nbr[:, j]], out=table)
    if not np.all(np.isfinite(table)):
        raise MatchError("feature table contains non-finite entries")
    return table
