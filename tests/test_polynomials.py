from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlz.matroids import (
    catalog,
    contract,
    direct_sum,
    elems_of,
    graphic,
    mask_of,
    simplify,
    truncate,
    uniform,
    validate_bases,
)
from mlz.polynomials import (
    HessianPlan,
    HomogPoly,
    basis_poly,
    evaluate,
    expand_class_sums,
    gradient_matrix,
    hessian_matrix,
    indep_poly,
    jet,
    linear_apply,
    partial,
    poly_json,
    poly_str,
    reduced_indep_poly,
    rename_vars,
)
from mlz.lefschetz import hessian_inertia
from mlz.linalg import inertia, matrix_rank
from mlz.sampling import derive, seeded_point

from _oracles import (
    berkowitz_inertia,
    f_slice,
    fraction_point,
    partial_gradient_matrix,
    reduced_by_derivatives,
    second_partials_hessian,
)

TWO_CLASS = validate_bases(4, [[1, 3], [1, 4], [2, 3], [2, 4]])


def term(coeff, e0, *elems):
    return ((e0, mask_of(elems)), coeff)


# -- constructors -------------------------------------------------------------


def test_basis_poly_uniform():
    p = basis_poly(uniform(2, 3))
    assert poly_str(p) == "x1*x2 + x1*x3 + x2*x3"
    assert p.degree == 2 and p.active == (1, 2, 3)


def test_basis_poly_two_class_factors():
    # (x1+x2)(x3+x4) expanded
    p = basis_poly(TWO_CLASS)
    assert p.terms == dict(
        [term(1, 0, 1, 3), term(1, 0, 1, 4), term(1, 0, 2, 3), term(1, 0, 2, 4)]
    )


def test_basis_poly_single_var():
    assert poly_str(basis_poly(uniform(1, 1))) == "x1"


def test_indep_poly_small():
    assert poly_str(indep_poly(uniform(1, 1))) == "x0 + x1"
    p = indep_poly(uniform(2, 3))
    assert poly_str(p) == (
        "x0^3 + x0^2*x1 + x0^2*x2 + x0^2*x3 + x0*x1*x2 + x0*x1*x3 + x0*x2*x3"
    )
    assert p.degree == 3 and p.active == (0, 1, 2, 3)


def test_indep_poly_loop_partial_vanishes():
    m = direct_sum(uniform(0, 1), uniform(1, 1))
    assert partial(indep_poly(m), 1).is_zero
    assert partial(basis_poly(m), 1).is_zero


def test_reduced_poly_uniform():
    assert poly_str(reduced_indep_poly(uniform(2, 3))) == (
        "3*x0^2 + 2*x0*x1 + 2*x0*x2 + 2*x0*x3 + x1*x2 + x1*x3 + x2*x3"
    )


def test_reduced_poly_full_rank_is_indep_poly():
    m = uniform(3, 3)
    assert reduced_indep_poly(m) == indep_poly(m)


def test_reduced_poly_direct_sum():
    m = direct_sum(uniform(2, 3), uniform(1, 1))
    p = reduced_indep_poly(m)
    assert p.terms.get((3, 0)) == 4
    assert p.terms.get((2, mask_of([1]))) == 3
    assert p.terms.get((1, mask_of([1, 2]))) == 2
    assert p.terms.get((0, mask_of([1, 2, 4]))) == 1
    assert p.terms.get((0, mask_of([1, 2, 3]))) is None
    assert p == reduced_by_derivatives(m)


def _wheel(spokes):
    """The wheel graph: hub 1, rim 2..spokes+1."""
    rim = list(range(2, spokes + 2))
    return graphic(spokes + 1, [(1, v) for v in rim] + list(zip(rim, rim[1:] + rim[:1])))


def _complete(v):
    return graphic(v, [(a, b) for a in range(1, v + 1) for b in range(a + 1, v + 1)])


def _command_line_matroids():
    """The matroids on 8 to 12 elements that the command-line benchmark
    queries: U(3,8), U(2,12), U(4,10), U(3,12), W4, U(4,9), K5, W5,
    K4 + U(2,5) and U(3,6) + U(1,3)."""
    return [
        uniform(3, 8),
        uniform(2, 12),
        uniform(4, 10),
        uniform(3, 12),
        _wheel(4),
        uniform(4, 9),
        _complete(5),
        _wheel(5),
        direct_sum(_complete(4), uniform(2, 5)),
        direct_sum(uniform(3, 6), uniform(1, 3)),
    ]


def test_reduced_matches_closed_form_catalog():
    # the one-pass closed form against n - r derivatives of indep_poly
    for n in range(1, 6):
        for m in catalog(n):
            assert reduced_indep_poly(m) == reduced_by_derivatives(m), m
    for m in _command_line_matroids():
        assert reduced_indep_poly(m) == reduced_by_derivatives(m), m


def test_f_slice():
    m = uniform(2, 3)
    assert poly_str(f_slice(m, 0)) == "1"
    assert poly_str(f_slice(m, 1)) == "x1 + x2 + x3"
    assert poly_str(f_slice(m, 2)) == "x1*x2 + x1*x3 + x2*x3"
    with pytest.raises(ValueError):
        f_slice(m, 3)


def test_slices_of_simple_matroid():
    for m in catalog(4):
        if not m.is_simple or m.rank < 2:
            continue
        assert f_slice(m, 1).terms == {(0, 1 << e): 1 for e in range(m.n)}
        expected2 = {
            (0, (1 << a) | (1 << b)): 1
            for a in range(m.n)
            for b in range(a + 1, m.n)
        }
        assert f_slice(m, 2).terms == expected2


# -- calculus ------------------------------------------------------------------


def test_partial_matches_contraction():
    m = uniform(2, 3)
    sub, old_of = contract(m, 1)
    renamed = rename_vars(basis_poly(sub), {k + 1: old_of[k] for k in range(2)})
    assert partial(basis_poly(m), 1) == renamed
    assert poly_str(partial(basis_poly(m), 1)) == "x2 + x3"


def test_partial_requires_active_variable():
    with pytest.raises(ValueError):
        partial(basis_poly(uniform(2, 3)), 0)


def test_uniform_dependency_annihilates_reduced():
    for r, n in ((1, 1), (1, 2), (2, 3), (2, 4), (3, 4), (3, 5)):
        p = reduced_indep_poly(uniform(r, n))
        coeffs = [Fraction(-1)] + [Fraction(1)] * n
        assert linear_apply(p, coeffs).is_zero


def test_reduced_truncation_identity():
    for m in (uniform(3, 4), direct_sum(uniform(2, 3), uniform(1, 1))):
        assert partial(reduced_indep_poly(m), 0) == reduced_indep_poly(truncate(m, 1))


def test_evaluate_counts():
    m = uniform(2, 3)
    assert evaluate(basis_poly(m), (1, 1, 1)) == 3
    assert evaluate(reduced_indep_poly(m), (1, 1, 1, 1)) == 12


def test_evaluate_rationals():
    p = basis_poly(uniform(2, 2))
    assert evaluate(p, (Fraction(1, 2), Fraction(2, 3))) == Fraction(1, 3)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=404),
    st.lists(
        st.fractions(min_value=Fraction(1, 8), max_value=8), min_size=5, max_size=5
    ),
)
def test_euler_identity(idx, coords):
    m = catalog(5)[idx]
    p = indep_poly(m)
    a = tuple(coords) + (Fraction(1),)
    total = sum(
        c * evaluate(partial(p, i), a) for c, i in zip(a, p.active)
    )
    assert total == p.degree * evaluate(p, a)


def test_zero_polynomial_is_first_class():
    z = linear_apply(basis_poly(uniform(1, 2)), (1, -1))
    assert z.is_zero
    assert poly_str(z) == "0"
    assert z.degree == 0


# -- hessians and gradients -------------------------------------------------------


def test_hessian_degree2_constant():
    h = hessian_matrix(basis_poly(uniform(2, 3)), (5, 7, 11))
    assert h == [[0, 1, 1], [1, 0, 1], [1, 1, 0]]


def test_hessian_reduced_at_ones():
    h = hessian_matrix(reduced_indep_poly(uniform(2, 3)), (1, 1, 1, 1))
    assert h == [
        [6, 2, 2, 2],
        [2, 0, 1, 1],
        [2, 1, 0, 1],
        [2, 1, 1, 0],
    ]


def test_hessian_requires_degree_2():
    with pytest.raises(ValueError):
        hessian_matrix(basis_poly(uniform(1, 2)), (1, 1))


# a polynomial with Fraction coefficients: its plan is not `integral`
HALVES = HomogPoly((0, 1, 2), 3, {(3, 0): Fraction(1, 2), (1, 0b11): Fraction(-5, 3)})
HALVES_POINTS = ((Fraction(1, 2), Fraction(2, 3), 7), (Fraction(-3, 4), 0, Fraction(1, 5)))


def _upper(rows):
    """The upper triangle of a matrix, with 0 below the diagonal."""
    return [[v if j >= i else 0 for j, v in enumerate(row)] for i, row in enumerate(rows)]


def _hessian_points(rng, k):
    """(1,...,1), (0,1,...,1), a seeded positive point, a seeded boundary
    point and a fractional point, each with k coordinates."""
    return [
        (1,) * k,
        (0,) + (1,) * (k - 1),
        fraction_point(rng, k),
        fraction_point(rng, k, 1),
        tuple(Fraction(i + 1, 3) for i in range(k)),
    ]


def _catalog_hessian_cases():
    """(matroid, polynomial, points) for the basis, independent-set and
    reduced polynomials of degree >= 2 of every catalog matroid with n <= 5."""
    for n in range(1, 6):
        for idx, m in enumerate(catalog(n)):
            rng = derive(11, n, idx)
            for p in (basis_poly(m), indep_poly(m), reduced_indep_poly(m)):
                if p.degree >= 2:
                    yield m, p, _hessian_points(rng, len(p.active))


def _family_hessian_cases():
    """(map, reduced polynomial, points) for each distinct reduced
    polynomial of degree >= 2 of a morphism from a simple source on <= 4
    elements to a target on <= 3."""
    from mlz.morphisms import enumerate_morphisms, morphism_poly

    targets = [t for tn in (1, 2, 3) for t in catalog(tn)]
    seen = set()
    for n in range(1, 5):
        for m in catalog(n):
            if not m.is_simple:
                continue
            for phi in enumerate_morphisms(m, targets):
                _, reduced = morphism_poly(phi)
                key = (reduced.active, frozenset(reduced.terms.items()))
                if reduced.degree < 2 or key in seen:
                    continue
                seen.add(key)
                yield phi, reduced, _hessian_points(derive(13, len(seen)), n + 1)


def test_hessian_matches_second_partials_oracle_on_catalog():
    # one plan per polynomial, its upper triangle filled at every point in turn
    checked = 0
    for m, p, points in _catalog_hessian_cases():
        plan = HessianPlan(p)
        for a in points:
            assert plan.upper(a) == _upper(second_partials_hessian(p, a)), (m, a)
            checked += 1
    assert checked == 6825


def test_hessian_matrix_matches_second_partials_oracle_at_fraction_points():
    # hessian_matrix fills the plan at the integers of clear_denominators
    # and divides each entry once by lam^(d-2)
    checked = 0
    for m, p, points in _catalog_hessian_cases():
        for a in points:
            assert hessian_matrix(p, a) == second_partials_hessian(p, a), (m, a)
            checked += 1
    assert checked == 6825
    for a in HALVES_POINTS:
        assert hessian_matrix(HALVES, a) == second_partials_hessian(HALVES, a)
    # active variables out of order: each contribution is still stored at
    # row <= column, where `hessian_matrix` mirrors it from
    shuffled = HomogPoly((3, 0, 1, 2), 3, {(3, 0): 2, (1, 0b11): 5, (0, 0b111): -1})
    for a in ((2, 3, 5, 7), (1, 0, -2, 4)):
        assert hessian_matrix(shuffled, a) == second_partials_hessian(shuffled, a)


def test_plan_matches_second_partials_oracle_at_command_line_sizes():
    # the basis and reduced polynomials of matroids on 8 to 10 elements, at
    # a seeded positive point, (0, 1, ..., 1) and a seeded point with a
    # zero multilinear coordinate
    checked = 0
    for m in (uniform(3, 8), _wheel(4), _complete(5), direct_sum(uniform(3, 6), uniform(1, 3))):
        for p in (basis_poly(m), reduced_indep_poly(m)):
            k = len(p.active)
            rng = derive(23, k, len(p.terms))
            zero = 1 << (k - 1)  # the last coordinate, never x0
            points = [
                seeded_point(rng, k)[1],
                (0,) + (1,) * (k - 1),
                seeded_point(rng, k, zeros=zero)[1],
            ]
            plan = HessianPlan(p)
            for a in points:
                assert plan.upper(a) == _upper(second_partials_hessian(p, a)), (m, p.degree, a)
                checked += 1
    assert checked == 24
    # active variables out of order: each contribution at row <= column
    shuffled = HomogPoly((3, 0, 1, 2), 3, {(3, 0): 2, (1, 0b11): 5, (0, 0b111): -1})
    plan = HessianPlan(shuffled)
    for a in ((2, 3, 5, 7), (0, 1, 1, 1), (1, 0, -2, 4), (4, 3, 0, 2)):
        assert plan.upper(a) == _upper(second_partials_hessian(shuffled, a)), a


def test_hessian_matches_second_partials_oracle_on_morphism_families():
    checked = 0
    for phi, reduced, points in _family_hessian_cases():
        plan = HessianPlan(reduced)
        for a in points:
            want = _upper(second_partials_hessian(reduced, a))
            assert plan.upper(a) == want, (phi, a)
            checked += 1
    assert checked


def test_family_plans_match_second_partials_oracle_at_seeded_points():
    # each basis family's own plan, grouped by x0 power, at (1,...,1),
    # (0,1,...,1) and the integers of a seeded positive and a seeded
    # boundary point: at x0 = 1 no group is multiplied by its x0 power,
    # and at x0 = 0 the fill keeps only the x0-free group
    from mlz.morphisms import basis_family, enumerate_morphisms, morphism_bases

    targets = [t for tn in (1, 2, 3) for t in catalog(tn)]
    seen = set()
    for n in range(1, 5):
        for m in catalog(n):
            if not m.is_simple:
                continue
            for phi in enumerate_morphisms(m, targets):
                family = basis_family(morphism_bases(phi))
                reduced = family.polys[1]
                if reduced.degree < 2 or id(family) in seen:
                    continue
                seen.add(id(family))
                rng = derive(17, len(seen))
                points = [(1,) * (n + 1), (0,) + (1,) * n]
                for zeros in (0, 1):
                    points.append(seeded_point(rng, n + 1, zeros=zeros)[1])
                for a in points:
                    want = second_partials_hessian(reduced, a)
                    assert hessian_matrix(reduced, a) == want, (phi, a)
                    assert reduced.plan.upper(a) == _upper(want), (phi, a)
    assert len(seen) == 175


def _jet_cases():
    """(polynomial, points) for f, P and Pbar of degree >= 2 of every
    catalog matroid with n <= 4, and for P and Pbar of degree >= 2 of every
    basis family from a simple source on <= 4 elements to a target on
    <= 3: (1,...,1), (0,1,...,1), a seeded integer point, a seeded
    Fraction point, a seeded Fraction point with a zero coordinate and
    a Fraction point whose denominators clear to lam = 3."""
    from mlz.morphisms import basis_family, enumerate_morphisms, morphism_bases

    polys = [
        p
        for n in range(1, 5)
        for m in catalog(n)
        for p in (basis_poly(m), indep_poly(m), reduced_indep_poly(m))
    ]
    targets = [t for tn in (1, 2, 3) for t in catalog(tn)]
    seen = set()
    for n in range(1, 5):
        for m in catalog(n):
            if m.is_simple:
                for phi in enumerate_morphisms(m, targets):
                    family = basis_family(morphism_bases(phi))
                    if id(family) not in seen:
                        seen.add(id(family))
                        polys.extend(family.polys)
    for idx, p in enumerate(polys):
        if p.degree < 2:
            continue
        k = len(p.active)
        rng = derive(29, idx)
        yield p, [
            (1,) * k,
            (0,) + (1,) * (k - 1),
            seeded_point(rng, k)[1],
            fraction_point(rng, k),
            fraction_point(rng, k, 1 << (k - 1)),
            tuple(Fraction(i + 1, 3) for i in range(k)),
        ]


def test_jet_matches_second_partials_and_euler_oracles():
    # h against one second-partial polynomial per entry, g against
    # (d - 1) times each first partial evaluated at A, and s against
    # d (d - 1) p(A) and d (d - 1) lam^d p(point)
    checked = scaled = 0
    for p, points in _jet_cases():
        d = p.degree
        for point in points:
            lam, a, h, g, s = jet(p, point)
            assert lam >= 1 and a == tuple(lam * Fraction(v) for v in point), (p, point)
            assert all(type(v) is int for v in a)
            assert h == second_partials_hessian(p, a), (p, point)
            assert g == [(d - 1) * evaluate(partial(p, i), a) for i in p.active], (p, point)
            assert s == d * (d - 1) * evaluate(p, a), (p, point)
            assert s == d * (d - 1) * lam**d * evaluate(p, point), (p, point)
            checked += 1
            scaled += lam > 1
    assert scaled and checked == 3366


def test_inertia_matches_berkowitz_on_catalog_hessians():
    # the whole matrix through `inertia`, and the plan's upper rows through
    # `hessian_inertia`
    checked = 0
    for m, p, points in _catalog_hessian_cases():
        for a in points:
            h = hessian_matrix(p, a)
            want = berkowitz_inertia(h)
            assert inertia(h).as_tuple() == want, (m, a)
            assert hessian_inertia(p, a).as_tuple() == want, (m, a)
            checked += 1
    assert checked == 6825
    # Fraction upper rows take the copying path of `inertia`
    assert not HALVES.plan.integral
    for a in HALVES_POINTS:
        want = berkowitz_inertia(hessian_matrix(HALVES, a))
        assert hessian_inertia(HALVES, a).as_tuple() == want, a


def test_inertia_matches_berkowitz_on_morphism_family_hessians():
    checked = 0
    for phi, reduced, points in _family_hessian_cases():
        for a in points:
            h = hessian_matrix(reduced, a)
            want = berkowitz_inertia(h)
            assert inertia(h).as_tuple() == want, (phi, a)
            assert hessian_inertia(reduced, a).as_tuple() == want, (phi, a)
            checked += 1
    assert checked


def test_gradient_ranks():
    assert matrix_rank(gradient_matrix(basis_poly(uniform(2, 3)))) == 3
    assert matrix_rank(gradient_matrix(reduced_indep_poly(uniform(2, 3)))) == 3
    summed = direct_sum(uniform(2, 3), uniform(1, 1))
    assert matrix_rank(gradient_matrix(reduced_indep_poly(summed))) == 5


def test_gradient_matrix_shape():
    p = basis_poly(uniform(2, 3))
    rows = gradient_matrix(p)
    assert len(rows) == 3
    assert all(len(r) == 3 for r in rows)  # partials are x2+x3, x1+x3, x1+x2


def test_gradient_matrix_matches_partial_oracle():
    # rows read off the term map against one `partial` polynomial per
    # variable: every n <= 5 catalog basis, independent-set and reduced
    # polynomial, the reduced polynomial of every morphism family from a
    # source on <= 4 elements, HALVES, and active variables out of order
    polys = [
        p
        for n in range(1, 6)
        for m in catalog(n)
        for p in (basis_poly(m), indep_poly(m), reduced_indep_poly(m))
        if p.degree >= 1
    ]
    assert len(polys) == 1481
    polys += [reduced for _, reduced, _ in _family_hessian_cases()]
    polys.append(HALVES)
    polys.append(HomogPoly((3, 0, 1, 2), 3, {(3, 0): 2, (1, 0b11): 5, (0, 0b111): -1}))
    for p in polys:
        assert gradient_matrix(p) == partial_gradient_matrix(p), p
    assert len(polys) == 1481 + 175 + 2


def test_grad_rank_is_the_rank_of_the_gradient_matrix():
    # the kept Gram matrix G G^T against G itself: every n <= 5 catalog
    # basis, independent-set and reduced polynomial, the reduced polynomial
    # of every morphism family from a source on <= 4 elements, HALVES, and
    # signed polynomials whose partials cancel
    polys = [
        p
        for n in range(1, 6)
        for m in catalog(n)
        for p in (basis_poly(m), indep_poly(m), reduced_indep_poly(m))
        if p.degree >= 1
    ]
    polys += [reduced for _, reduced, _ in _family_hessian_cases()]
    polys += [
        HALVES,
        # x1x2 - x1x3: d2 = -d3
        HomogPoly((1, 2, 3), 2, {(0, 0b011): 1, (0, 0b101): -1}),
        # (x1 - x2)(x3 - x4): d1 = -d2 and d3 = -d4
        HomogPoly(
            (1, 2, 3, 4),
            2,
            {(0, 0b0101): 1, (0, 0b1001): -1, (0, 0b0110): -1, (0, 0b1010): 1},
        ),
        # x0^2 (x1 - x2) / 2: d1 = -d2
        HomogPoly((0, 1, 2), 3, {(2, 0b01): Fraction(1, 2), (2, 0b10): Fraction(-1, 2)}),
    ]
    ranks = []
    for p in polys:
        rows = gradient_matrix(p)
        gram = [[sum(x * y for x, y in zip(u, v)) for v in rows] for u in rows]
        assert p.gram == gram, p
        assert p.grad_rank == matrix_rank(rows), p
        ranks.append(p.grad_rank)
    assert len(polys) == 1481 + 175 + 4
    assert ranks[-3:] == [2, 2, 2]


# -- parallel substitution ----------------------------------------------------------


def test_expand_class_sums_two_class():
    simp = uniform(2, 2)
    groups = [(1, 2), (3, 4)]
    assert expand_class_sums(basis_poly(simp), groups, 4) == basis_poly(TWO_CLASS)


def test_parallel_partials_agree():
    p = basis_poly(TWO_CLASS)
    assert partial(p, 1) == partial(p, 2)
    assert partial(p, 3) == partial(p, 4)


def test_expand_class_sums_indep_version_with_loop():
    # one loop and one two-element parallel class: the padded substitution
    # of the simplification reconstructs the independent-set polynomial
    m = direct_sum(uniform(0, 1), uniform(1, 2))
    simp, reps = simplify(m)
    assert reps == (2,)
    lifted = expand_class_sums(indep_poly(simp), [(2, 3)], m.n)
    shifted = HomogPoly(
        range(0, m.n + 1),
        m.n,
        {(e0 + m.n - 1, mask): c for (e0, mask), c in lifted.terms.items()},
    )
    assert shifted == indep_poly(m)


def test_uniform_reduced_kernel_is_one_dimensional():
    # regression: for simple uniform matroids the only dependency among
    # the n+1 first partials of the reduced polynomial is the known one
    for r, n in ((1, 1), (2, 2), (2, 3), (2, 4), (3, 4), (3, 5), (2, 6)):
        p = reduced_indep_poly(uniform(r, n))
        assert matrix_rank(gradient_matrix(p)) == n, (r, n)


# -- derivative cross-check against sympy ---------------------------------------------


def test_partials_match_sympy():
    import sympy

    from _oracles import sympy_poly_from_terms

    m = direct_sum(uniform(2, 3), uniform(1, 1))
    p = reduced_indep_poly(m)
    names = [f"x{i}" for i in p.active]
    expr, symbols = sympy_poly_from_terms(p.terms, names)
    for i in p.active:
        ours = partial(p, i)
        ours_expr, _ = sympy_poly_from_terms(ours.terms, names)
        assert sympy.expand(sympy.diff(expr, symbols[f"x{i}"]) - ours_expr) == 0


# -- rendering ------------------------------------------------------------------------


def test_poly_str_ordering_and_coefficients():
    p = reduced_indep_poly(uniform(1, 3))
    # 6*x0 + 2*x1 + 2*x2 + 2*x3 after two x0-derivatives of degree-3 poly
    assert poly_str(p) == "6*x0 + 2*x1 + 2*x2 + 2*x3"


def test_poly_json_form():
    p = basis_poly(uniform(2, 2))
    assert poly_json(p) == [{"e0": 0, "vars": [1, 2], "c": "1"}]
    q = reduced_indep_poly(uniform(1, 2))
    assert poly_json(q) == [
        {"e0": 1, "vars": [], "c": "2"},
        {"e0": 0, "vars": [1], "c": "1"},
        {"e0": 0, "vars": [2], "c": "1"},
    ]


def test_homog_poly_rejects_inhomogeneous():
    with pytest.raises(ValueError):
        HomogPoly((1, 2), 2, {(0, mask_of([1])): 1})
    with pytest.raises(ValueError):
        HomogPoly((1, 2), 1, {(0, mask_of([1])): 0})
    # variables that appear but are not active; the lowest one is named
    with pytest.raises(ValueError) as err:
        HomogPoly((1, 2), 2, {(1, mask_of([1])): 1})
    assert str(err.value) == "x0 appears but is not an active variable"
    with pytest.raises(ValueError) as err:
        HomogPoly((0, 2), 3, {(0, mask_of([1, 2, 3])): 1})
    assert str(err.value) == "x1 appears but is not active"
    with pytest.raises(ValueError) as err:
        HomogPoly((0, 1, 2), 3, {(0, mask_of([2, 4, 5])): 1})
    assert str(err.value) == "x4 appears but is not active"


def test_trusted_builders_give_polynomials_the_checks_accept():
    # basis_poly, padded_poly (through indep_poly), reduced_poly (through
    # reduced_indep_poly), partial, linear_apply, rename_vars and
    # expand_class_sums skip the term checks; the validating constructor
    # must accept every polynomial they build.  linear_apply is given the
    # all-ones form and the suite's kernel form (-1, 1, ..., 1), which
    # cancels terms; rename_vars and expand_class_sums what the theorem
    # suite gives them: the polynomials of each contraction, renamed back,
    # and of the simplification, expanded over the parallel classes
    built = 0
    for n in range(1, 5):
        for m in catalog(n):
            outputs = []
            for p in (basis_poly(m), indep_poly(m), reduced_indep_poly(m)):
                outputs += (p, *(partial(p, i) for i in p.active))
                k = len(p.active)
                outputs.append(linear_apply(p, [1] * k))
                outputs.append(linear_apply(p, [-1] + [1] * (k - 1)))
            for e in range(1, n + 1):
                if m.loops >> (e - 1) & 1:
                    continue
                sub, old_of = contract(m, e)
                back = {k + 1: old_of[k] for k in range(len(old_of))}
                outputs.append(rename_vars(basis_poly(sub), back))
                outputs.append(rename_vars(indep_poly(sub), {0: 0, **back}))
            classes = m.parallel_decomposition.classes
            if classes:
                simp, _ = simplify(m)
                groups = [elems_of(c) for c in classes]
                outputs.append(expand_class_sums(basis_poly(simp), groups, n))
                outputs.append(expand_class_sums(indep_poly(simp), groups, n))
            for q in outputs:
                checked = HomogPoly(q.active, q.degree, dict(q.terms))
                assert checked == q and checked.active == q.active, (m, q)
                built += 1
    assert built > 1500
