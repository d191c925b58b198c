"""Deterministic sample-point generation for the verification suites.

A splitmix64 stream gives 64-bit outputs that are identical on every
platform and Python version, so any report carrying its seed can be
reproduced byte for byte.  Sample coordinates are rationals num/den with
num and den drawn uniformly from 1..16, numerator first.

`_coordinate` is the one place that reads a coordinate off the stream,
as its reduced (num, den) and its text from a table of the 256 draws;
`_draw` reads a point, and a boundary point pins x0 to 0 and draws the
rest.  `positive_point` and `boundary_point` build `Fraction`s from it.
`seeded_point` keeps the draw on integers: it returns the point's text
(each coordinate as `str(Fraction)` prints it, `a` or `a/b`) and the
coordinates scaled by the lcm of their denominators, the integers that
`linalg.clear_denominators` would give for the `Fraction` point.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """64-bit splitmix generator (Steele-Lea-Flood constants)."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def rational(self) -> Fraction:
        num, den, _ = _coordinate(self.next64)
        return Fraction(num, den)


def derive(seed: int, *indices: int) -> SplitMix64:
    """Independent child stream for (seed, index...) -- partition-stable."""
    rng = SplitMix64(seed)
    mixed = rng.next64()
    for ix in indices:
        rng.state = (mixed ^ (ix & _MASK64)) & _MASK64
        mixed = rng.next64()
    return SplitMix64(mixed)


# the 256 draws i/j reduced, as (num, den, text) with the text of
# str(Fraction), at 16 * (i - 1) + j - 1
_RATIOS = tuple(
    (i // g, j // g, str(i // g) if g == j else f"{i // g}/{j // g}")
    for i in range(1, 17)
    for j in range(1, 17)
    for g in (gcd(i, j),)
)


def _coordinate(next64) -> tuple[int, int, str]:
    """One coordinate: num, then den, each 1 + the top four bits of the
    next output, as its reduced (num, den, text)."""
    num = next64() >> 60
    return _RATIOS[num << 4 | next64() >> 60]


def _draw(rng: SplitMix64, dim: int, boundary: bool) -> list[tuple[int, int, str]]:
    """dim coordinates (num, den, text); with `boundary` the first is 0."""
    coords = [(0, 1, "0")] if boundary else []
    next64 = rng.next64
    coords.extend(_coordinate(next64) for _ in range(dim - len(coords)))
    return coords


def positive_point(rng: SplitMix64, dim: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(num, den) for num, den, _ in _draw(rng, dim, False))


def boundary_point(rng: SplitMix64, dim: int) -> tuple[Fraction, ...]:
    """First coordinate pinned to 0, the rest strictly positive."""
    return tuple(Fraction(num, den) for num, den, _ in _draw(rng, dim, True))


def seeded_point(
    rng: SplitMix64, dim: int, *, boundary: bool = False
) -> tuple[str, tuple[int, ...]]:
    """(text, ints) of the point `positive_point` (or, with `boundary`,
    `boundary_point`) would draw from this stream, with no `Fraction`.

    text is the comma-joined coordinates as `str(Fraction)` renders them;
    ints are the coordinates times the lcm of their denominators."""
    coords = _draw(rng, dim, boundary)
    scale = lcm(*(den for _, den, _ in coords))
    text = ",".join(t for _, _, t in coords)
    return text, tuple(num * (scale // den) for num, den, _ in coords)
