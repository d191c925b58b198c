import random
from fractions import Fraction

import pytest

from mlz.linalg import clear_denominators
from mlz.sampling import derive, seeded_point
from mlz.verify import _fmt_point

from _oracles import fraction_point


@pytest.mark.parametrize(
    "zeros",
    [0, 1, random.Random(5).getrandbits(64)],
    ids=["positive", "boundary", "mask"],
)
def test_seeded_point_matches_fraction_draw(zeros):
    # same text as the rendered Fraction point, same ints as clearing its
    # denominators, and the stream left in the same state
    for seed in range(1, 201):
        for dim in range(1, 8):
            rng_f, rng_i = derive(seed, dim), derive(seed, dim)
            point = fraction_point(rng_f, dim, zeros)
            text, ints = seeded_point(rng_i, dim, zeros=zeros)
            assert text == _fmt_point(point), (seed, dim)
            assert ints == clear_denominators(point)[1], (seed, dim)
            assert all(type(v) is int for v in ints)
            assert rng_i.state == rng_f.state, (seed, dim)
            for ix, v in enumerate(ints):
                assert v == 0 if zeros >> ix & 1 else v > 0, (seed, dim, ix)


def test_draw_order_is_numerator_then_denominator():
    # each coordinate is 1 + the top four bits of two outputs, num first
    for seed in range(1, 21):
        rng, raw = derive(seed, 5), derive(seed, 5)
        expect = []
        for _ in range(5):
            num = 1 + (raw.next64() >> 60)
            expect.append(Fraction(num, 1 + (raw.next64() >> 60)))
        assert seeded_point(rng, 5)[0] == _fmt_point(expect)


def test_boundary_point_pins_x0():
    point = fraction_point(derive(3, 4), 4, 1)
    assert point[0] == 0 and all(v > 0 for v in point[1:])
    text, ints = seeded_point(derive(3, 4), 4, zeros=1)
    assert text.startswith("0,") and ints[0] == 0
    assert all(v > 0 for v in ints[1:])


def test_seeded_point_renders_reduced_fractions():
    # every coordinate is num/den with num, den in 1..16, reduced as
    # str(Fraction) prints it
    seen_int = seen_frac = False
    for seed in range(1, 50):
        text, ints = seeded_point(derive(seed), 5)
        for part in text.split(","):
            value = Fraction(part)
            assert str(value) == part
            seen_int |= value.denominator == 1
            seen_frac |= value.denominator > 1
    assert seen_int and seen_frac
