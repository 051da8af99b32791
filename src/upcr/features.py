"""Pose-invariant point features, in plain NumPy.

Feature kinds: plain distances to the cloud center and neighborhood, the
SPFH / PFH Darboux-angle histograms, and the concatenated combinations of
distances with point pair features (PPF) and SPFH. PPF is only a part: alone
it did not beat distances after test-split fine-tuning, while every kept
combination did (README, reproduction findings). All of them are unchanged
by a rigid motion of the points: the normals that PPF, SPFH and PFH read are
estimated from the points' own neighbor table, so they turn with the cloud.
That invariance is what makes the downstream invariant representation
possible: ``encoder`` embeds these [N, k, d] tables on the tape. Nothing
here records a tape.

Features come in two stages. :func:`point_tables` does the costly per-point
work once per cloud: the normals, then the SPFH / PFH tables ([N, d]). The
per-edge parts ([N, k, d]: distance, PPF) are cheap, so they are rebuilt from
the points, the neighbor table and the cached normals wherever they are read.
``neighbor_feature_array`` gathers the per-point tables at each edge's
neighbor for the encoder; ``point_descriptor_table`` pools them over the k
neighbors in place, so a matching descriptor never builds the [N, k, d] array.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import geom
from .geom import PointCloud

FEATURE_KINDS = (
    "distance",
    "spfh",
    "pfh",
    "distance+ppf",
    "distance+spfh",
    "distance+ppf+spfh",
)


# histogram bins per Darboux angle, the PCL defaults (Rusu et al., ICRA 2009):
# SPFH concatenates three 11-bin histograms, PFH bins the triplet into 5**3 cells
SPFH_BINS = 11
PFH_BINS = 5

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
    def needs_normals(self) -> bool:
        return any(p in ("ppf", "spfh", "pfh") for p in self.parts)

    @property
    def table_names(self) -> tuple[str, ...]:
        """Keys of the per-point tables :func:`point_tables` builds, in order:
        the normals when a per-edge part (PPF) reads them, then each SPFH/PFH part."""
        return ("normals",) * ("ppf" in self.parts) + tuple(
            p for p in self.parts if p in ("spfh", "pfh"))

    @property
    def dim(self) -> int:
        sizes = {
            "distance": 3,
            "ppf": 4,
            "spfh": 3 * SPFH_BINS,
            "pfh": PFH_BINS ** 3,
        }
        return sum(sizes[p] for p in self.parts)


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


def _edge_rows(pts: np.ndarray, nrm: np.ndarray, nbr: np.ndarray):
    """Owner point, owner normal, neighbor point and neighbor normal rows
    [N*k, 3] of every edge in ``nbr``."""
    k = nbr.shape[1]
    return (np.repeat(pts, k, axis=0), np.repeat(nrm, k, axis=0),
            pts[nbr.ravel()], nrm[nbr.ravel()])


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
    alpha, phi, theta, ok = _darboux(*_edge_rows(pts, nrm, nbr))
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
    ``spec.table_names`` mapped to its [N, d] table. This is the work that
    costs more than a rebuild: the normals, kept only when PPF reads them per
    edge, and the SPFH/PFH histograms."""
    pts = cloud.points
    nrm = estimate_normals(pts, nbr) if spec.needs_normals else None
    build = {"normals": lambda: nrm, "spfh": lambda: spfh_table(pts, nrm, nbr),
             "pfh": lambda: pfh_table(pts, nrm, nbr)}
    return {name: build[name]() for name in spec.table_names}


def _part_features(cloud: PointCloud, spec: FeatureSpec, nbr: np.ndarray,
                   tables: dict[str, np.ndarray]):
    """Each part of ``spec`` in order: a per-point [N, d] table (SPFH, PFH)
    from ``tables``, which an edge reads at its neighbor, or a per-edge
    [N, k, d] array (distance, PPF) built here from the points, ``nbr`` and
    the normals in ``tables``.
    """
    n, k = nbr.shape
    pts = cloud.points
    center = pts.mean(axis=0)
    for part in spec.parts:
        if part == "distance":
            pn = pts[nbr]  # [n, k, 3]
            d_oc = np.linalg.norm(pn - center, axis=2)
            d_pc = np.linalg.norm(pn - pts[:, None, :], axis=2)
            d_op = np.repeat(np.linalg.norm(pts - center, axis=1)[:, None], k, axis=1)
            yield np.stack([d_oc, d_pc, d_op], axis=2)
        elif part == "ppf":
            p1, n1, p2, n2 = _edge_rows(pts, tables["normals"], nbr)
            dn, dist = _unit_rows(p2 - p1)
            a1 = np.arccos(np.clip(np.einsum("ij,ij->i", n1, dn), -1.0, 1.0))
            a2 = np.arccos(np.clip(np.einsum("ij,ij->i", n2, dn), -1.0, 1.0))
            a3 = np.arccos(np.clip(np.einsum("ij,ij->i", n1, n2), -1.0, 1.0))
            yield np.stack([a1, a2, a3, dist], axis=1).reshape(n, k, 4)
        else:
            yield tables[part]


def neighbor_feature_array(cloud: PointCloud, spec: FeatureSpec, nbr: np.ndarray,
                           tables: dict[str, np.ndarray] | None = None) -> np.ndarray:
    """Raw pose-invariant features for every (point, neighbor) edge, [N, k, d].

    ``tables`` is :func:`point_tables` of the same cloud, spec and ``nbr``,
    built here when not given, with the same bytes out either way; the
    per-edge parts are rebuilt on every call. A per-point part is gathered at
    each edge's neighbor; parts are concatenated only when there are two or more.
    """
    if tables is None:
        tables = point_tables(cloud, spec, nbr)
    blocks = [f[nbr] if f.ndim == 2 else f for f in _part_features(cloud, spec, nbr, tables)]
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=2)


def point_descriptor_table(cloud: PointCloud, spec: FeatureSpec, k: int) -> np.ndarray:
    """Per-point descriptors [N, d] for feature matching: the max over each
    point's k neighbor features, the same values as
    ``neighbor_feature_array(...).max(axis=1)``.

    One neighbor table per cloud feeds the normals, histograms and features.
    A per-point part is pooled in place, one neighbor column at a time, so no
    [N, k, d] array of it exists; a per-edge part is reduced over k. Raises
    MatchError on a non-finite descriptor.
    """
    nbr = geom.knn(cloud, k)
    pooled = []
    for f in _part_features(cloud, spec, nbr, point_tables(cloud, spec, nbr)):
        if f.ndim == 3:
            pooled.append(f.max(axis=1))
        else:
            out = f[nbr[:, 0]]
            for col in nbr.T[1:]:
                np.maximum(out, f[col], out=out)
            pooled.append(out)
    table = pooled[0] if len(pooled) == 1 else np.concatenate(pooled, axis=1)
    if not np.all(np.isfinite(table)):
        raise MatchError("feature table contains non-finite entries")
    return table
