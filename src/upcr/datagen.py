"""Synthetic shapes, pose/noise/partiality protocols, splits, and cloud I/O.

Shapes come from a seeded parametric family: every category is a union of a
base primitive (box / cylinder / ellipsoid / torus, cycling with the category
index) and three smaller attachments, each a rod, a thin ring, a box
wireframe or a small ellipsoid, whose kinds, directions and size ranges are
fixed per category. The attachments deliberately break the symmetries of
the bare primitives so that a pose is identifiable from the sampled surface
alone. Clouds are normalized to zero centroid and unit maximum radius.

Settings: UPC (unseen shapes of seen categories), UC (unseen categories) and
ND, which is UPC with every coordinate of both clouds jittered by Gaussian
noise of sigma 0.01 clipped to [-0.05, 0.05] (``ND_NOISE``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import islice

import numpy as np

from . import geom
from .geom import PointCloud, RigidTransform
from .rng import Rng, derive_seed

SETTINGS = ("UPC", "UC", "ND")
PAIRINGS = ("consistent", "partial")
REGIMES = ("modelnet_style", "sevenscenes_style")

ND_NOISE = (0.01, 0.05)  # (sigma, clip)


@dataclass
class Protocol:
    """Experiment protocol settings controlling pair construction."""

    setting: str = "UPC"
    pairing: str = "consistent"
    pose_regime: str = "modelnet_style"
    partial_keep: int | None = None

    def __post_init__(self):
        if self.setting not in SETTINGS:
            raise ValueError(f"setting must be one of {SETTINGS}, got {self.setting!r}")
        if self.pairing not in PAIRINGS:
            raise ValueError(f"pairing must be one of {PAIRINGS}, got {self.pairing!r}")
        if self.pose_regime not in REGIMES:
            raise ValueError(f"pose_regime must be one of {REGIMES}, got {self.pose_regime!r}")
        if self.pairing == "partial" and self.partial_keep is None:
            raise ValueError("partial pairing needs partial_keep")
        if self.pairing != "partial" and self.partial_keep is not None:
            raise ValueError(f"partial_keep = {self.partial_keep} is read only under "
                             f"partial pairing, got pairing {self.pairing!r}")


@dataclass
class DatasetSample:
    source: PointCloud
    target: PointCloud
    gt: RigidTransform
    category: int


# ---------------------------------------------------------------------------
# primitive surface samplers


def _sample_box(rng: Rng, n: int, half: np.ndarray) -> np.ndarray:
    a, b, c = half
    areas = np.array([b * c, b * c, a * c, a * c, a * b, a * b])
    cum = np.cumsum(areas / areas.sum())
    u = rng.uniform(size=n)
    face = np.searchsorted(cum, u, side="right").clip(0, 5)
    uv = rng.uniform(-1.0, 1.0, (n, 2))
    pts = np.empty((n, 3))
    axis = face // 2
    sign = np.where(face % 2 == 0, 1.0, -1.0)
    for ax in range(3):
        m = axis == ax
        others = [o for o in range(3) if o != ax]
        pts[m, ax] = sign[m] * half[ax]
        pts[m, others[0]] = uv[m, 0] * half[others[0]]
        pts[m, others[1]] = uv[m, 1] * half[others[1]]
    return pts


def _sample_cylinder(rng: Rng, n: int, radius: float, height: float) -> np.ndarray:
    side = 2 * np.pi * radius * height
    cap = np.pi * radius * radius
    u = rng.uniform(size=n)
    on_side = u < side / (side + 2 * cap)
    theta = rng.uniform(0.0, 2 * np.pi, n)
    pts = np.empty((n, 3))
    z = rng.uniform(-0.5, 0.5, n) * height
    r = radius * np.sqrt(rng.uniform(size=n))
    cap_sign = np.where(rng.uniform(size=n) < 0.5, 1.0, -1.0)
    pts[:, 0] = np.where(on_side, radius, r) * np.cos(theta)
    pts[:, 1] = np.where(on_side, radius, r) * np.sin(theta)
    pts[:, 2] = np.where(on_side, z, cap_sign * height / 2.0)
    return pts


def _sample_ellipsoid(rng: Rng, n: int, semi: np.ndarray) -> np.ndarray:
    v = rng.normal((n, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return v * semi


def _sample_torus(rng: Rng, n: int, major: float, minor: float) -> np.ndarray:
    pts = np.empty((n, 3))
    done = 0
    while done < n:
        m = 2 * (n - done)
        v = rng.uniform(0.0, 2 * np.pi, m)
        accept = rng.uniform(size=m) < (major + minor * np.cos(v)) / (major + minor)
        v = v[accept][: n - done]
        u = rng.uniform(0.0, 2 * np.pi, v.shape[0])
        ring = major + minor * np.cos(v)
        pts[done:done + v.shape[0], 0] = ring * np.cos(u)
        pts[done:done + v.shape[0], 1] = ring * np.sin(u)
        pts[done:done + v.shape[0], 2] = minor * np.sin(v)
        done += v.shape[0]
    return pts


def _sample_rod(rng: Rng, n: int, length: float, radius: float) -> np.ndarray:
    theta = rng.uniform(0.0, 2 * np.pi, n)
    pts = np.empty((n, 3))
    pts[:, 0] = radius * np.cos(theta)
    pts[:, 1] = radius * np.sin(theta)
    pts[:, 2] = rng.uniform(-0.5, 0.5, n) * length
    return pts


def _sample_box_edges(rng: Rng, n: int, half: np.ndarray) -> np.ndarray:
    """Points on the 12 edges of a box (a rotation-pinning wireframe)."""
    axis = rng.integers(0, 3, n)
    t = rng.uniform(-1.0, 1.0, n)
    s1 = np.where(rng.uniform(size=n) < 0.5, 1.0, -1.0)
    s2 = np.where(rng.uniform(size=n) < 0.5, 1.0, -1.0)
    pts = np.empty((n, 3))
    for ax in range(3):
        m = axis == ax
        o1, o2 = [o for o in range(3) if o != ax]
        pts[m, ax] = t[m] * half[ax]
        pts[m, o1] = s1[m] * half[o1]
        pts[m, o2] = s2[m] * half[o2]
    return pts


_BASE_KINDS = 4
_ATTACH_KINDS = 4  # rod, thin ring, box wireframe, small ellipsoid; three per shape


def _sample_primitive(kind: int, rng: Rng, n: int, size: np.ndarray) -> np.ndarray:
    if kind == 0:
        return _sample_box(rng, n, size)
    if kind == 1:
        return _sample_cylinder(rng, n, 0.55 * (size[0] + size[1]), 1.6 * size[2])
    if kind == 2:
        return _sample_ellipsoid(rng, n, size)
    return _sample_torus(rng, n, 0.8 * max(size[0], size[1]), 0.35 * size[2])


def _sample_attachment(kind: int, rng: Rng, n: int, size: np.ndarray) -> np.ndarray:
    if kind == 0:
        return _sample_rod(rng, n, 2.4 * size[2], 0.18 * size[0])
    if kind == 1:
        return _sample_torus(rng, n, 0.9 * max(size[0], size[1]), 0.12 * size[2])
    if kind == 2:
        return _sample_box_edges(rng, n, size)
    return _sample_ellipsoid(rng, n, size)


@dataclass
class _Attachment:
    kind: int
    direction: np.ndarray
    offset: tuple[float, float]   # range of center distance
    scale: tuple[float, float]    # range of size factor


@dataclass
class _Recipe:
    base_kind: int
    base_lo: np.ndarray
    base_hi: np.ndarray
    attachments: list[_Attachment]
    weights: np.ndarray


def _category_recipe(category: int) -> _Recipe:
    """Category-fixed parameter ranges.

    Bases are anisotropic; three attachments sit along well-separated
    category-fixed directions (pairwise |cos| < 0.5), each of one of the
    ``_ATTACH_KINDS`` kinds drawn per category: rod, thin ring, box wireframe
    or small ellipsoid. They act as rotation pins: any misrotation moves them
    off their counterparts, so the chamfer minimum in pose is sharp and no
    near-symmetries survive. Points split about 40% base and 24/20/16% over
    the attachments in order.
    """
    crng = Rng(derive_seed(0xCA7E60, "category", category))
    base_kind = category % _BASE_KINDS
    center = crng.uniform(0.35, 1.0, 3)
    spread = 0.03 * center
    directions: list[np.ndarray] = []
    attachments = []
    for j in range(3):
        while True:
            d = crng.unit_vector()
            if all(abs(float(np.dot(d, prev))) < 0.5 for prev in directions):
                directions.append(d)
                break
        kind = int(crng.integers(0, _ATTACH_KINDS))
        lo = 0.75 + 0.2 * crng.uniform()
        scale_lo = (0.4, 0.32, 0.26)[j] + 0.08 * crng.uniform()
        attachments.append(_Attachment(
            kind=kind, direction=d,
            offset=(lo, lo + 0.05),
            scale=(scale_lo, scale_lo + 0.04),
        ))
    weights = np.array([0.4, 0.24, 0.2, 0.16])
    return _Recipe(base_kind, center - spread, center + spread, attachments, weights)


def synth_shape(category: int, n_points: int, rng: Rng) -> PointCloud:
    """Seeded surface sampling of one composite shape, normalized to the
    zero-centroid unit-max-radius frame."""
    if n_points < 16:
        raise ValueError(f"n_points must be >= 16, got {n_points}")
    recipe = _category_recipe(category)
    counts = np.maximum((recipe.weights * n_points).astype(int), 4)
    counts[0] += n_points - counts.sum()

    base_size = rng.uniform(0.0, 1.0, 3) * (recipe.base_hi - recipe.base_lo) + recipe.base_lo
    parts = [_sample_primitive(recipe.base_kind, rng, int(counts[0]), base_size)]
    extent = float(np.max(np.abs(parts[0])))
    for att, cnt in zip(recipe.attachments, counts[1:]):
        scale = float(rng.uniform(*att.scale))
        offset = float(rng.uniform(*att.offset)) * extent
        local = _sample_attachment(att.kind, rng, int(cnt), scale * base_size)
        parts.append(local + att.direction * offset)
    pts = np.concatenate(parts, axis=0)

    pts = pts - pts.mean(axis=0)
    pts = pts / np.max(np.linalg.norm(pts, axis=1))
    return PointCloud(pts)


# ---------------------------------------------------------------------------
# pose / noise / partial protocols


def sample_transform(regime: str, rng: Rng) -> RigidTransform:
    """Ground-truth pose draw for one pair.

    modelnet_style: per-axis Euler angles uniform in [0, 45] degrees and
    translation components uniform in [-0.5, 0.5]. sevenscenes_style: one
    random axis rotated by a uniform [0, 60] degree angle and a uniform
    [0, 1] translation along one random axis.
    """
    if regime == "modelnet_style":
        angles = np.deg2rad(rng.uniform(0.0, 45.0, 3))
        trans = rng.uniform(-0.5, 0.5, 3)
    elif regime == "sevenscenes_style":
        angles = np.zeros(3)
        angles[int(rng.integers(0, 3))] = np.deg2rad(rng.uniform(0.0, 60.0))
        trans = np.zeros(3)
        trans[int(rng.integers(0, 3))] = rng.uniform(0.0, 1.0)
    else:
        raise ValueError(f"unknown pose regime {regime!r}")
    return RigidTransform(geom.euler_to_matrix(angles), trans)


def add_noise(cloud: PointCloud, sigma: float, clip: float, rng: Rng) -> PointCloud:
    """Per-coordinate Gaussian noise, clamped to [-clip, clip] before adding."""
    if sigma <= 0 or clip <= 0:
        raise ValueError("sigma and clip must be positive")
    noise = np.clip(sigma * rng.normal(cloud.points.shape), -clip, clip)
    return PointCloud(cloud.points + noise)


def make_partial(cloud: PointCloud, keep: int, rng: Rng) -> PointCloud:
    """Partial scan: the ``keep`` points nearest a random unit-ball anchor."""
    n = len(cloud)
    if not 1 <= keep < n:
        raise ValueError(f"keep must be in [1, N-1] = [1, {n - 1}], got {keep}")
    anchor = rng.in_unit_ball()
    d2 = np.sum((cloud.points - anchor) ** 2, axis=1)
    order = np.lexsort((np.arange(n), d2))[:keep]
    order = np.sort(order)  # preserve original point order
    return PointCloud(cloud.points[order])


def make_sample(protocol: Protocol, category: int, shape_index: int,
                n_points: int, seed: int) -> DatasetSample:
    """One reproducible source/target pair under a protocol."""
    rng = Rng(derive_seed(seed, "sample", category, shape_index))
    shape = synth_shape(category, n_points, rng.spawn("shape"))
    gt = sample_transform(protocol.pose_regime, rng.spawn("pose"))
    source = shape
    target = geom.apply_transform(gt, shape)
    if protocol.pairing == "partial":
        source = make_partial(source, protocol.partial_keep, rng.spawn("partial_src"))
        target = make_partial(target, protocol.partial_keep, rng.spawn("partial_tgt"))
    if protocol.setting == "ND":
        source = add_noise(source, *ND_NOISE, rng.spawn("noise_src"))
        target = add_noise(target, *ND_NOISE, rng.spawn("noise_tgt"))
    return DatasetSample(source, target, gt, category)


def build_benchmark(protocol: Protocol, categories: int, n_train: int, n_test: int,
                    n_points: int, seed: int):
    """Benchmark splits with the requested pair counts.

    UPC/ND assign shape indices round-robin over all categories with the test
    indices strictly after the train ones (shape-disjoint); UC additionally
    restricts train and test to disjoint category halves.
    """
    least = 2 if protocol.setting == "UC" else 1  # UC splits the categories in halves
    if categories < least:
        raise ValueError(f"categories must be >= {least} under {protocol.setting}, "
                         f"got {categories}")
    if n_train < 0 or n_test < 0:
        raise ValueError(f"pair counts must be >= 0, got {n_train} train and {n_test} test")
    if protocol.setting == "UC":
        train_cats = list(range(categories // 2))
        test_cats = list(range(categories // 2, categories))
    else:
        train_cats = test_cats = list(range(categories))
    train = [make_sample(protocol, train_cats[i % len(train_cats)], i, n_points, seed)
             for i in range(n_train)]
    test = [make_sample(protocol, test_cats[i % len(test_cats)], n_train + i, n_points, seed)
            for i in range(n_test)]
    return train, test


# ---------------------------------------------------------------------------
# point cloud file formats


class CloudParseError(ValueError):
    """Malformed cloud file; message carries path and line number."""


def _parse_floats(tokens: list[str], count: int, path: str, lineno: int) -> list[float]:
    if len(tokens) < count:
        raise CloudParseError(f"{path}:{lineno}: expected {count} numbers, got {len(tokens)}")
    try:
        return [float(t) for t in tokens[:count]]
    except ValueError as exc:
        raise CloudParseError(f"{path}:{lineno}: {exc}") from None


def _body(line: str) -> list[str]:
    """The tokens of ``line`` before any ``#`` comment."""
    return line.split("#", 1)[0].split()


def _row_count(tokens: list[str], path: str, lineno: int, element: str = "vertex") -> int:
    """The first of ``tokens`` as the row count of ``element``: an int >= 0."""
    try:
        if (count := int(tokens[0])) >= 0:
            return count
    except (IndexError, ValueError):
        pass
    raise CloudParseError(f"{path}:{lineno}: malformed {element} count")


def _off_header(lines: list[str], path: str):
    if not lines or lines[0].strip() != "OFF":
        raise CloudParseError(f"{path}:1: missing OFF header")
    idx = next((i for i in range(1, len(lines)) if _body(lines[i])), len(lines))
    counts = _body(lines[idx]) if idx < len(lines) else []
    if len(counts) < 2:
        raise CloudParseError(f"{path}:{idx + 1}: malformed OFF count line")
    return idx + 1, _row_count(counts, path, idx + 1), 3, (0, 1, 2)


def _ply_header(lines: list[str], path: str):
    if not lines or lines[0].strip() != "ply":
        raise CloudParseError(f"{path}:1: missing ply magic")
    n_vertex, props, in_vertex, before = None, [], False, 0
    for idx, line in enumerate(lines[1:], start=2):
        tok = line.split() or [""]
        if tok[0] == "format" and tok[1:2] != ["ascii"]:
            raise CloudParseError(f"{path}:{idx}: only ascii PLY is supported")
        if tok[0] == "element":
            in_vertex = tok[1:2] == ["vertex"]
            if in_vertex:
                n_vertex = _row_count(tok[2:], path, idx)
            elif n_vertex is None:  # its rows come before the vertex rows
                before += _row_count(tok[2:], path, idx, "element")
        elif tok[0] == "property" and in_vertex:
            if tok[1:2] == ["list"]:
                raise CloudParseError(f"{path}:{idx}: a vertex list property is not supported")
            props.append(tok[-1])
        elif tok[0] == "end_header":
            break
    else:
        raise CloudParseError(f"{path}: missing end_header")
    if n_vertex is None:
        raise CloudParseError(f"{path}: no vertex element")
    try:
        cols = tuple(props.index(axis) for axis in ("x", "y", "z"))
    except ValueError:
        raise CloudParseError(f"{path}: vertex element lacks x/y/z properties") from None
    rows = (i for i in range(idx, len(lines)) if _body(lines[i]))  # one row per line
    return next(islice(rows, before, None), len(lines)), n_vertex, len(props), cols


# per format: (lines, path) -> (lines before the vertex rows, vertex count or
# None for all, numbers per vertex line, x/y/z columns)
_HEADERS = {"xyz": lambda lines, path: (0, None, 3, (0, 1, 2)),
            "off": _off_header, "ply": _ply_header}


def cloud_format(path: str) -> str:
    fmt = os.path.splitext(path)[1].lstrip(".").lower()
    if fmt not in ("xyz", "off", "ply"):
        raise ValueError(f"unsupported cloud format {fmt!r} (use xyz, off or ply)")
    return fmt


def load_cloud(path: str) -> PointCloud:
    """Load a cloud from an XYZ / OFF / ascii-PLY file (format from suffix).

    A line that is blank once a ``#`` comment is cut is skipped, in an OFF
    header and after every header. A PLY's rows of the elements declared
    before ``vertex``, one per line, are skipped, and a vertex list property
    is rejected. Every other line is one vertex, up to the header's count.
    """
    header = _HEADERS[cloud_format(path)]
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    skip, count, width, cols = header(lines, path)
    pts = []
    for lineno, line in enumerate(lines[skip:], start=skip + 1):
        if len(pts) == count:
            break
        body = _body(line)
        if body:
            vals = _parse_floats(body, width, path, lineno)
            xyz = [vals[c] for c in cols]
            if not np.isfinite(xyz).all():
                raise CloudParseError(f"{path}:{lineno}: non-finite coordinate in {xyz}")
            pts.append(xyz)
    if count is not None and len(pts) < count:
        raise CloudParseError(f"{path}:{len(lines) + 1}: truncated vertex list "
                              f"({len(pts)}/{count} vertices)")
    if not pts:
        raise CloudParseError(f"{path}: no points found")
    return PointCloud(np.array(pts))


def save_cloud(cloud: PointCloud, path: str) -> None:
    """Write a cloud with 9 significant digits per coordinate."""
    fmt = cloud_format(path)
    n = len(cloud)
    with open(path, "w", encoding="utf-8") as fh:
        if fmt == "off":
            fh.write(f"OFF\n{n} 0 0\n")
        elif fmt == "ply":
            fh.write("ply\nformat ascii 1.0\n"
                     f"element vertex {n}\n"
                     "property float x\nproperty float y\nproperty float z\n"
                     "end_header\n")
        for p in cloud.points:
            fh.write(f"{p[0]:.9g} {p[1]:.9g} {p[2]:.9g}\n")
