"""Seeded benchmark inputs, made with NumPy alone.

The benchmark builds its own clouds instead of calling ``upcr.datagen`` or
``upcr.rng``: a change to the package's generator must not change what the
benchmark measures, so that a commit and its parent run on the same inputs.

Shapes follow the lab's composite recipe: an anisotropic base primitive plus
three thin attachments along well-separated directions, moved to zero
centroid and scaled to unit maximum radius. Poses follow the package's
``modelnet_style`` regime (Euler angles in [0, 45] degrees per axis, applied
as Rz @ Ry @ Rx, translation in [-0.5, 0.5]) and both clouds get clipped
Gaussian noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

NOISE_SIGMA = 0.01
NOISE_CLIP = 0.05
MAX_ANGLE_DEG = 45.0
MAX_TRANS = 0.5


@dataclass
class Pair:
    """One registration problem: target = R @ source + t, plus noise."""

    source: np.ndarray   # [N, 3]
    target: np.ndarray   # [N, 3]
    rotation: np.ndarray  # [3, 3] ground truth
    translation: np.ndarray  # [3]


def _unit_rows(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _box(rng: np.random.Generator, n: int, half: np.ndarray) -> np.ndarray:
    face = rng.integers(0, 6, n)
    pts = rng.uniform(-1.0, 1.0, (n, 3)) * half
    axis = face // 2
    pts[np.arange(n), axis] = np.where(face % 2 == 0, 1.0, -1.0) * half[axis]
    return pts


def _ellipsoid(rng: np.random.Generator, n: int, semi: np.ndarray) -> np.ndarray:
    return _unit_rows(rng.normal(size=(n, 3))) * semi


def _cylinder(rng: np.random.Generator, n: int, half: np.ndarray) -> np.ndarray:
    theta = rng.uniform(0.0, 2 * np.pi, n)
    z = rng.uniform(-1.0, 1.0, n) * half[2]
    return np.stack([half[0] * np.cos(theta), half[1] * np.sin(theta), z], axis=1)


_BASES = (_box, _ellipsoid, _cylinder)


def _rod(rng: np.random.Generator, n: int, direction: np.ndarray, start: float,
         length: float, radius: float) -> np.ndarray:
    """Thin cylinder along ``direction`` from ``start`` to ``start + length``."""
    helper = np.eye(3)[int(np.argmin(np.abs(direction)))]
    u = np.cross(direction, helper)
    u /= np.linalg.norm(u)
    w = np.cross(direction, u)
    s = rng.uniform(start, start + length, n)
    theta = rng.uniform(0.0, 2 * np.pi, n)
    return (s[:, None] * direction + radius * np.cos(theta)[:, None] * u
            + radius * np.sin(theta)[:, None] * w)


def composite_shape(rng: np.random.Generator, n_points: int) -> np.ndarray:
    """Base primitive plus three thin attachments; zero centroid, unit radius."""
    n_base = int(0.6 * n_points)
    counts = [n_base] + [(n_points - n_base) // 3] * 3
    counts[-1] += n_points - sum(counts)
    base = _BASES[int(rng.integers(0, len(_BASES)))]
    half = rng.uniform(0.3, 0.8, 3)
    parts = [base(rng, counts[0], half)]
    directions: list[np.ndarray] = []
    while len(directions) < 3:
        d = _unit_rows(rng.normal(size=(1, 3)))[0]
        if all(abs(float(d @ prev)) < 0.5 for prev in directions):
            directions.append(d)
    for d, cnt in zip(directions, counts[1:]):
        parts.append(_rod(rng, cnt, d, start=0.5 * float(half.max()),
                          length=rng.uniform(0.4, 0.7), radius=rng.uniform(0.02, 0.05)))
    pts = np.concatenate(parts, axis=0)
    pts -= pts.mean(axis=0)
    pts /= np.max(np.linalg.norm(pts, axis=1))
    return pts


def euler_rotation(angles: np.ndarray) -> np.ndarray:
    """R = Rz(gamma) @ Ry(beta) @ Rx(alpha), the package's Euler convention."""
    a, b, g = angles
    rx = np.array([[1, 0, 0], [0, np.cos(a), -np.sin(a)], [0, np.sin(a), np.cos(a)]])
    ry = np.array([[np.cos(b), 0, np.sin(b)], [0, 1, 0], [-np.sin(b), 0, np.cos(b)]])
    rz = np.array([[np.cos(g), -np.sin(g), 0], [np.sin(g), np.cos(g), 0], [0, 0, 1]])
    return rz @ ry @ rx


def _noisy(rng: np.random.Generator, pts: np.ndarray) -> np.ndarray:
    noise = np.clip(NOISE_SIGMA * rng.normal(size=pts.shape), -NOISE_CLIP, NOISE_CLIP)
    return pts + noise


def make_pairs(seed: int, count: int, n_points: int) -> list[Pair]:
    """``count`` registration pairs; the same seed gives bit-identical pairs."""
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(count):
        shape = composite_shape(rng, n_points)
        rot = euler_rotation(np.deg2rad(rng.uniform(0.0, MAX_ANGLE_DEG, 3)))
        trans = rng.uniform(-MAX_TRANS, MAX_TRANS, 3)
        source = _noisy(rng, shape)
        target = _noisy(rng, shape @ rot.T + trans)
        pairs.append(Pair(source, target, rot, trans))
    return pairs
