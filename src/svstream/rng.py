"""Deterministic 64-bit PRNG used wherever reproducible sampling is needed.

The generator is splitmix64: the state advances by the increment
0x9E3779B97F4A7C15 on every draw and the output mix is

    z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27;  z *= 0x94D049BB133111EB
    z ^= z >> 31

All arithmetic is modulo 2**64.  The stream is counter-based: draw k
(k = 1, 2, ...) of seed s is mix64(s + k * 0x9E3779B97F4A7C15), so any block
of draws can be computed at once (splitmix64_block) without stepping through
the ones before it.  Given the same seed the stream is identical on every
platform, which keeps RANSAC sampling, label colorization, and texture
synthesis bit-reproducible.
"""

import numpy as np

MASK64 = (1 << 64) - 1

_INCREMENT = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def mix64(z: int) -> int:
    """The splitmix64 output mix of a 64-bit value."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return (z ^ (z >> 31)) & MASK64


def mix64_array(z: np.ndarray) -> np.ndarray:
    """mix64 over a uint64 array, elementwise."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


class SplitMix64:
    """Sequential splitmix64 stream."""

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _INCREMENT) & MASK64
        return mix64(self.state)

    def next_below(self, n: int) -> int:
        """Uniform-ish integer in [0, n); modulo bias is irrelevant at the n used here."""
        if n <= 0:
            raise ValueError("n must be positive")
        return self.next_u64() % n

    def next_float(self) -> float:
        """Float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))


def derive_seed(seed: int, *salt: int) -> int:
    """Fold extra integers into a seed for independent per-item streams."""
    s = seed & MASK64
    for v in salt:
        s = mix64((s + _INCREMENT + (v & MASK64)) & MASK64)
    return s


def splitmix64_block(seed: int, start: int, count: int) -> np.ndarray:
    """Draws start+1 .. start+count of SplitMix64(seed) as a uint64 array.

    Equal to skipping `start` calls of next_u64 and taking the next `count`;
    numpy's uint64 array arithmetic wraps modulo 2**64 like the scalar code.
    """
    k = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    return mix64_array(np.uint64(seed & MASK64) + k * np.uint64(_INCREMENT))
