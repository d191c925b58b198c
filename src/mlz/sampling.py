"""Deterministic sample-point generation for the verification suites.

A splitmix64 stream gives 64-bit outputs that are identical on every
platform and Python version, so any report carrying its seed can be
reproduced byte for byte.  Sample coordinates are rationals num/den with
num and den drawn uniformly from 1..16, numerator first.

`seeded_point` is the package's only sampler, and it stays on integers:
it returns the point's text (each coordinate as `str(Fraction)` prints
it, `a` or `a/b`) and the coordinates scaled by the lcm of their
denominators, the integers that `linalg.clear_denominators` gives for
the rational point.  A coordinate in its `zeros` bit mask is 0 and
draws nothing.  It steps the generator's state in a local loop, keeps the
top four bits of each output and writes the state back once; each pair
of draws picks the coordinate's reduced (num, den) and its text from a
table of the 256 draws.
"""

from __future__ import annotations

from math import gcd, lcm

_MASK64 = (1 << 64) - 1
# the splitmix64 increment and its two mixing multipliers
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """64-bit splitmix generator (Steele-Lea-Flood constants)."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)


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


def seeded_point(
    rng: SplitMix64, dim: int, *, zeros: int = 0
) -> tuple[str, tuple[int, ...]]:
    """(text, ints) of a point drawn from this stream: coordinate ix is 0
    when bit ix of `zeros` is set, and otherwise num/den with num, then
    den, 1 + the top four bits of the next output.

    text is the comma-joined coordinates as `str(Fraction)` renders them;
    ints are the coordinates times the lcm of their denominators."""
    state = rng.state
    coords = []
    for ix in range(dim):
        if zeros >> ix & 1:
            coords.append((0, 1, "0"))
            continue
        # the next two states, num's then den's; each output's top four
        # bits are those of its second mix, since the last step of
        # `next64`, z ^ (z >> 31), leaves them as they are
        draw = 0
        for state in ((state + _GAMMA) & _MASK64, (state + 2 * _GAMMA) & _MASK64):
            z = ((state ^ (state >> 30)) * _MIX1) & _MASK64
            draw = draw << 4 | (((z ^ (z >> 27)) * _MIX2) & _MASK64) >> 60
        coords.append(_RATIOS[draw])
    rng.state = state
    scale = lcm(*(den for _, den, _ in coords))
    text = ",".join(t for _, _, t in coords)
    return text, tuple(num * (scale // den) for num, den, _ in coords)
