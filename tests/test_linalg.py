from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlz.linalg import (
    Inertia,
    char_poly,
    clear_denominators,
    inertia,
    matrix_rank,
)
from mlz.sampling import SplitMix64

from _oracles import (
    berkowitz_inertia,
    congruence,
    full_matrix_inertia,
    gauss_rank,
    leibniz_char_poly,
    random_unimodular,
    sympy_inertia,
)


def test_char_poly_fixed_cases():
    assert char_poly([[0, 1], [1, 0]]) == (1, 0, -1)
    assert char_poly([[0, 1, 1], [1, 0, 1], [1, 1, 0]]) == (1, 0, -3, -2)
    assert char_poly([[0, 0], [0, 0]]) == (1, 0, 0)
    assert char_poly([[5]]) == (1, -5)


rational = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=6
)


@st.composite
def symmetric_matrix(draw, max_size=5):
    n = draw(st.integers(min_value=1, max_value=max_size))
    entries = {}
    for i in range(n):
        for j in range(i, n):
            entries[(i, j)] = draw(rational)
    rows = [[entries[(min(i, j), max(i, j))] for j in range(n)] for i in range(n)]
    return rows


@settings(max_examples=80, deadline=None)
@given(symmetric_matrix())
def test_char_poly_matches_leibniz(rows):
    assert tuple(Fraction(c) for c in char_poly(rows)) == leibniz_char_poly(rows)


def test_inertia_fixed_cases():
    assert inertia([[0, 1], [1, 0]]) == Inertia(1, 1, 0)
    assert inertia([[0, 1, 1], [1, 0, 1], [1, 1, 0]]) == Inertia(1, 2, 0)
    assert inertia([[6, 2, 2, 2], [2, 0, 1, 1], [2, 1, 0, 1], [2, 1, 1, 0]]) == Inertia(
        1, 2, 1
    )
    assert inertia([[2, 0], [0, 2]]) == Inertia(2, 0, 0)
    assert inertia([[0, 0], [0, 0]]) == Inertia(0, 0, 2)


def test_inertia_diagonal_counts_signs():
    rows = [
        [3, 0, 0, 0, 0],
        [0, -2, 0, 0, 0],
        [0, 0, 0, 0, 0],
        [0, 0, 0, Fraction(1, 7), 0],
        [0, 0, 0, 0, -1],
    ]
    assert inertia(rows) == Inertia(2, 2, 1)


@settings(max_examples=50, deadline=None)
@given(symmetric_matrix(max_size=4))
def test_inertia_matches_sympy(rows):
    assert inertia(rows).as_tuple() == sympy_inertia(rows)


@st.composite
def structured_symmetric_matrix(draw):
    """Symmetric matrices of int or Fraction entries: general, with an
    all-zero diagonal (the elimination must make its own pivots), or of low
    rank (a signed sum of fewer than n forms v v^T, so a zero block is left)."""
    n = draw(st.integers(min_value=1, max_value=6))
    entry = draw(st.sampled_from([st.integers(min_value=-5, max_value=5), rational]))
    shape = draw(st.sampled_from(["general", "zero-diagonal", "low-rank"]))
    rows = [[0] * n for _ in range(n)]
    if shape == "low-rank":
        for _ in range(draw(st.integers(min_value=0, max_value=n - 1))):
            v = draw(st.lists(entry, min_size=n, max_size=n))
            sign = draw(st.sampled_from([1, -1]))
            for i in range(n):
                for j in range(n):
                    rows[i][j] += sign * v[i] * v[j]
        return rows
    for i in range(n):
        for j in range(i, n):
            if i < j or shape == "general":
                rows[i][j] = rows[j][i] = draw(entry)
    return rows


@settings(max_examples=300, deadline=None)
@given(structured_symmetric_matrix())
def test_inertia_matches_berkowitz(rows):
    assert inertia(rows).as_tuple() == berkowitz_inertia(rows)


def test_inertia_congruence_invariance_sample():
    rng = SplitMix64(2024)
    for trial in range(50):
        size = 1 + rng.next64() % 5
        rows = [[0] * size for _ in range(size)]
        for i in range(size):
            for j in range(i, size):
                v = (rng.next64() % 11) - 5
                rows[i][j] = rows[j][i] = v
        base = inertia(rows)
        for _ in range(10):
            t = random_unimodular(rng, size)
            assert inertia(congruence(rows, t)) == base


def _seeded_symmetric(rng, size: int, shape: str) -> list[list]:
    """Symmetric entries from {0, 0, 0, 1, -1, 2, -3}; "zero-diagonal" clears
    the diagonal (the congruence path), "zero-lead" clears a_00 (a swap when
    another diagonal entry is non-zero), "singular" repeats row and column
    0 as the last ones, and "fraction" divides each entry by 1..4."""
    values = (0, 0, 0, 1, -1, 2, -3)
    rows = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            v = values[rng.next64() % len(values)]
            if shape == "fraction":
                v = Fraction(v, 1 + rng.next64() % 4)
            rows[i][j] = rows[j][i] = v
    if shape == "zero-diagonal":
        for i in range(size):
            rows[i][i] = 0
    elif shape == "zero-lead":
        rows[0][0] = 0
    elif shape == "singular" and size > 1:
        last = size - 1
        for j in range(last):
            rows[last][j] = rows[j][last] = rows[0][j]
        rows[last][last] = rows[0][last] = rows[last][0] = rows[0][0]
    return rows


def test_inertia_matches_full_matrix_oracle_on_seeded_matrices():
    # the upper-triangle elimination against the whole-matrix one it
    # replaced, on sizes 1..7, with the swap and congruence paths forced
    rng = SplitMix64(77)
    shapes = ("general", "zero-diagonal", "zero-lead", "singular", "fraction")
    swaps = congruences = singular = 0
    for trial in range(3500):
        size = 1 + trial % 7
        shape = shapes[trial // 7 % len(shapes)]
        rows = _seeded_symmetric(rng, size, shape)
        got = inertia(rows).as_tuple()
        assert got == full_matrix_inertia(rows), (shape, rows)
        if shape != "fraction":
            # consumed in place from the upper triangle, with junk below it
            upper = [
                [v if j >= i else 99 for j, v in enumerate(row)]
                for i, row in enumerate(rows)
            ]
            assert inertia(upper, consume=True).as_tuple() == got, (shape, rows)
        diagonal = [rows[i][i] for i in range(size)]
        if size > 1 and not diagonal[0]:
            if any(diagonal):
                swaps += 1
            elif any(map(any, rows)):
                congruences += 1
        singular += shape == "singular" and got[2] > 0
    assert swaps > 1000 and congruences > 600 and singular > 600, (
        swaps,
        congruences,
        singular,
    )


def test_matrix_rank_fixed():
    assert matrix_rank([[1, 0], [0, 1]]) == 2
    assert matrix_rank([[1, 2], [2, 4]]) == 1
    assert matrix_rank([[0, 0], [0, 0]]) == 0
    assert matrix_rank([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]) == 4
    assert (
        matrix_rank(
            [
                [Fraction(1, 2), Fraction(1, 3)],
                [Fraction(1, 4), Fraction(1, 6)],
                [1, Fraction(2, 3)],
            ]
        )
        == 1
    )


@st.composite
def rect_matrix(draw):
    rows = draw(st.integers(min_value=1, max_value=5))
    cols = draw(st.integers(min_value=1, max_value=6))
    return [[draw(rational) for _ in range(cols)] for _ in range(rows)]


@settings(max_examples=80, deadline=None)
@given(rect_matrix())
def test_matrix_rank_matches_gauss(rows):
    assert matrix_rank(rows) == gauss_rank(rows)


def test_clear_denominators_scales_a_point():
    assert clear_denominators((Fraction(1, 2), Fraction(2, 3), 1)) == (6, (3, 4, 6))
    assert clear_denominators((0, 1, 2)) == (1, (0, 1, 2))
    # Fractions: the scale is the lcm of the denominators, not their product
    assert clear_denominators((Fraction(1, 4), Fraction(5, 6))) == (12, (3, 10))
    # zeros keep the scale at 1 and stay zero; Fraction(0) has denominator 1
    assert clear_denominators((Fraction(0), 0, Fraction(1, 3))) == (3, (0, 0, 1))
    # negatives keep their sign; the scale stays positive
    assert clear_denominators((Fraction(-3, 4), -2, Fraction(1, -6))) == (12, (-9, -24, -2))
    # all-int input, and Fractions that are integers, come back as plain ints
    scale, ints = clear_denominators((7, -1, Fraction(8, 2)))
    assert (scale, ints) == (1, (7, -1, 4))
    assert all(type(v) is int for v in ints)
    # a list of ints comes back as a tuple; bool is converted, not passed on
    assert clear_denominators([5, 0, -12]) == (1, (5, 0, -12))
    scale, ints = clear_denominators((True, 2))
    assert (scale, ints) == (1, (1, 2)) and type(ints[0]) is int
    assert clear_denominators(()) == (1, ())


@settings(max_examples=80, deadline=None)
@given(st.lists(rational, max_size=6))
def test_clear_denominators_is_the_least_integer_scale(values):
    scale, ints = clear_denominators(values)
    assert scale >= 1 and all(type(v) is int for v in ints)
    assert list(ints) == [v * scale for v in values]
    assert all(not all((v * k).denominator == 1 for v in values) for k in range(1, scale))


def test_float_values_raise_a_value_error_naming_them():
    # every public entry that clears a point names a coordinate that is not
    # an exact rational; so do inertia and rank on a float matrix
    from mlz.lefschetz import hessian_inertia, lorentzian_witness, point_verdicts
    from mlz.matroids import uniform
    from mlz.polynomials import basis_poly, evaluate, hessian_matrix, jet
    from mlz.verify import mason_basis_check, mason_indep_check

    m = uniform(2, 4)
    f = basis_poly(m)
    at = (0.5, 1, 1, 1)
    entries = (
        lambda: clear_denominators(at),
        lambda: clear_denominators((Fraction(1, 3), 0.5)),
        lambda: evaluate(f, at),
        lambda: jet(f, at),
        lambda: hessian_matrix(f, at),
        lambda: hessian_inertia(f, at),
        lambda: point_verdicts(f, at),
        lambda: lorentzian_witness(f, [at]),
        lambda: mason_basis_check(m, 1, 2, at),
        lambda: mason_indep_check(m, 1, at),
        lambda: inertia([[0.5, 1], [1, 2]]),
        lambda: matrix_rank([[0.5, 1], [1, 2]]),
    )
    for entry in entries:
        with pytest.raises(ValueError, match=r"^0\.5 is not an exact rational"):
            entry()


def test_matrix_rank_on_fraction_rows_matches_gauss():
    # gradient matrices of catalog polynomials with every entry divided by a
    # seeded integer, so each row needs its own scale
    from mlz.matroids import catalog
    from mlz.polynomials import gradient_matrix, reduced_indep_poly

    rng = SplitMix64(5)
    checked = 0
    for m in catalog(4):
        if m.rank == 0:
            continue
        rows = [
            [Fraction(v, 1 + rng.next64() % 7) for v in row]
            for row in gradient_matrix(reduced_indep_poly(m))
        ]
        assert matrix_rank(rows) == gauss_rank(rows), m
        checked += 1
    assert checked == len(catalog(4)) - 1


def test_inertia_render_forms():
    ine = Inertia(1, 2, 0)
    assert ine.render() == "(+1,-2,0z)"
    assert ine.to_json_dict() == {"pos": 1, "neg": 2, "zero": 0}
    assert ine.as_tuple() == (1, 2, 0)
