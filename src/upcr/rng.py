"""Seedable, portable random number generation.

All stochastic parts of the package (shape sampling, pose protocols, noise,
parameter init) draw from :class:`Rng`, a counter-mode splitmix64 generator.
The algorithm is ~15 lines of integer arithmetic, so streams are bit-stable
across platforms and library versions, which keeps golden-sample regression
tests meaningful.
"""

from __future__ import annotations

import numpy as np

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U64_MASK = np.uint64(0xFFFFFFFFFFFFFFFF)


def _mix64(z: np.ndarray) -> np.ndarray:
    # splitmix64 finalizer; overflow is the intended mod-2^64 arithmetic
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        return z ^ (z >> np.uint64(31))


def derive_seed(seed: int, *labels: int | str) -> int:
    """Derive a child seed from a parent seed and a sequence of labels.

    Strings are hashed with FNV-1a so purposes like ``"noise"`` or
    ``"shape:17"`` give independent streams.
    """
    mask = 0xFFFFFFFFFFFFFFFF
    state = seed & mask
    for label in labels:
        if isinstance(label, str):
            h = 0xCBF29CE484222325
            for byte in label.encode("utf-8"):
                h = ((h ^ byte) * 0x100000001B3) & mask
            word = h
        else:
            word = label & mask
        state = int(_mix64(np.uint64(((state ^ word) + 0x9E3779B97F4A7C15) & mask)))
    return state


class Rng:
    """Counter-mode splitmix64 stream with uniform/normal helpers."""

    def __init__(self, seed: int):
        self._seed = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
        self._counter = np.uint64(0)

    def spawn(self, *labels: int | str) -> "Rng":
        """Independent child stream; does not advance this stream."""
        return Rng(derive_seed(int(self._seed), *labels))

    def _raw(self, n: int) -> np.ndarray:
        start = self._counter
        self._counter = (self._counter + np.uint64(n)) & _U64_MASK
        idx = start + np.arange(1, n + 1, dtype=np.uint64)
        with np.errstate(over="ignore"):
            return _mix64(self._seed + idx * _GAMMA)

    def uniform(self, low: float = 0.0, high: float = 1.0, size: int | tuple = None) -> np.ndarray | float:
        """Uniform doubles in [low, high) with 53-bit resolution."""
        n, shape = _size_to_n(size)
        u = (self._raw(n) >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)
        out = low + (high - low) * u
        return _shape_out(out, size, shape)

    def normal(self, size: int | tuple = None) -> np.ndarray | float:
        """Standard normal via Box-Muller (pairs drawn from one raw block)."""
        n, shape = _size_to_n(size)
        m = (n + 1) // 2
        raw = self._raw(2 * m)
        # (0, 1] for u1 so log() is safe
        u1 = ((raw[:m] >> np.uint64(11)).astype(np.float64) + 1.0) * (2.0 ** -53)
        u2 = (raw[m:] >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        out = np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:n]
        return _shape_out(out, size, shape)

    def integers(self, low: int, high: int, size: int | tuple = None) -> np.ndarray | int:
        """Uniform integers in [low, high) via 64-bit rejection-free modulo.

        The modulo bias is < 2^-40 for ranges below 2^24, which is far finer
        than anything the protocols distinguish.
        """
        n, shape = _size_to_n(size)
        span = np.uint64(high - low)
        out = (self._raw(n) % span).astype(np.int64) + low
        return _shape_out(out, size, shape)

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = int(self.integers(0, i + 1))
            items[i], items[j] = items[j], items[i]

    def unit_vector(self) -> np.ndarray:
        """Uniform direction on the unit sphere."""
        while True:
            v = self.normal(size=3)
            n = float(np.linalg.norm(v))
            if n > 1e-12:
                return v / n

    def in_unit_ball(self) -> np.ndarray:
        """Uniform point in the unit ball."""
        return self.unit_vector() * float(self.uniform()) ** (1.0 / 3.0)


def _size_to_n(size) -> tuple[int, tuple]:
    if size is None:
        return 1, ()
    if isinstance(size, int):
        return size, (size,)
    shape = tuple(size)
    n = 1
    for s in shape:
        n *= s
    return n, shape


def _shape_out(flat: np.ndarray, size, shape):
    if size is None:
        return float(flat[0]) if flat.dtype == np.float64 else int(flat[0])
    return flat.reshape(shape)
