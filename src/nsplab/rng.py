"""Deterministic random streams for reproducible Monte Carlo.

A stream is keyed by (seed, stream id) on top of the counter-based Philox
generator, so replaying a stream gives bit-identical draws and distinct
stream ids are statistically independent.  Normal variates go through the
Box-Muller map, which consumes a fixed number of uniforms per draw.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import DomainError

_MASK63 = (1 << 63) - 1
_TWO_PI = 2.0 * np.pi


def stable_stream_id(*parts) -> int:
    """Map labels (ints, strings, ...) to a 63-bit stream id, stable across runs."""
    text = "|".join(repr(p) for p in parts)
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little") & _MASK63


class RngStream:
    """A replayable random stream: (seed, stream), each in [0, 2**63), determines every draw."""

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed)
        self.stream = int(stream)
        if not (0 <= self.seed < 2**63 and 0 <= self.stream < 2**63):
            raise DomainError(f"seed {self.seed} and stream {self.stream} must lie in [0, 2**63)")
        key = np.array([self.seed, self.stream], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def __repr__(self):
        return f"RngStream(seed={self.seed}, stream={self.stream})"

    def substream(self, *parts) -> "RngStream":
        """Derive an independent stream keyed by this stream's id plus labels."""
        return RngStream(self.seed, stable_stream_id(self.stream, *parts))

    def uniform(self, size=None):
        """Uniform draws on [0, 1)."""
        return self._gen.random(size)

    def normal(self, size=None):
        """Standard normal draws via Box-Muller."""
        if size is None:
            return float(self.normal(1)[0])
        shape = (size,) if isinstance(size, int) else tuple(size)
        count = int(np.prod(shape)) if shape else 1
        half = (count + 1) // 2
        # sqrt(-2 log u1) with u1 in (0, 1], which keeps the log finite; each
        # step runs in place, and the two products land in one output array
        radius = np.subtract(1.0, self._gen.random(half))
        angle = self._gen.random(half)
        np.log(radius, out=radius)
        radius *= -2.0
        np.sqrt(radius, out=radius)
        angle *= _TWO_PI
        z = np.empty(2 * half)
        np.multiply(radius, np.cos(angle), out=z[:half])
        np.multiply(radius, np.sin(angle), out=z[half:])
        return z[:count].reshape(shape)

    def signs(self, size=None):
        """Rademacher +/-1 draws."""
        if size is None:
            return float(self.signs(1)[0])
        return np.where(self._gen.random(size) < 0.5, -1.0, 1.0)

    def integers(self, low, high, size=None):
        """Integers in [low, high)."""
        return self._gen.integers(low, high, size=size)

    def permutation(self, n: int) -> np.ndarray:
        # argsort of uniforms rather than Generator.permutation: keeps the
        # draw count independent of generator internals.
        return np.argsort(self.uniform(n), kind="stable")

    def unit_vector(self, n: int) -> np.ndarray:
        v = self.normal(n)
        return v / np.linalg.norm(v)
