"""Deterministic, self-contained PRNG (splitmix64) with Box-Muller normals.

Every stochastic piece of the simulator draws from this generator, never from
the platform default, so the integer stream is bit-identical across runs and
platforms. Per-purpose streams are derived by mixing the seed with an FNV-1a
hash of a purpose tag, which keeps e.g. drift noise independent of scene
noise for the same top-level seed. Seeds pass :func:`~endogeo.errors.integer`.
"""

from __future__ import annotations

import math

from .errors import integer

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _fnv1a(data: bytes) -> int:
    h = _FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


class SplitMix64:
    """64-bit splitmix generator: state advances by a fixed odd gamma and the
    output is a finalizing mix of the state."""

    def __init__(self, seed: int):
        self._state = integer(seed, "seed") & _MASK64
        self._spare_normal = None

    def derive(self, tag: str) -> "SplitMix64":
        """Independent stream for a named purpose; deterministic in (seed, tag)."""
        return SplitMix64(_mix(self._state ^ _fnv1a(tag.encode("utf-8"))))

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return _mix(self._state)

    def uniform(self) -> float:
        """Uniform in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def uniform_in(self, low: float, high: float) -> float:
        return low + (high - low) * self.uniform()

    def normal(self) -> float:
        """Standard normal via Box-Muller (pairs generated, one cached)."""
        if self._spare_normal is not None:
            value = self._spare_normal
            self._spare_normal = None
            return value
        # u1 in (0, 1] so the log is finite
        u1 = ((self.next_u64() >> 11) + 1) * 2.0**-53
        u2 = (self.next_u64() >> 11) * 2.0**-53
        radius = math.sqrt(-2.0 * math.log(u1))
        theta = 2.0 * math.pi * u2
        self._spare_normal = radius * math.sin(theta)
        return radius * math.cos(theta)

    def normals(self, count: int) -> list:
        return [self.normal() for _ in range(count)]
