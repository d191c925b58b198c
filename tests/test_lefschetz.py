from fractions import Fraction

import pytest

from mlz.lefschetz import (
    PointVerdicts,
    WitnessFailure,
    gradient_rank,
    hessian_inertia,
    hessian_matrix,
    lorentzian_decide,
    lorentzian_witness,
    point_verdicts,
)
from mlz.matroids import catalog, direct_sum, uniform, validate_bases
from mlz.polynomials import HomogPoly, basis_poly, indep_poly, reduced_indep_poly

from _oracles import gram_rank_verdicts


# x0^2 + x1*x2: a non-negative quadratic whose Hessian has two positive
# eigenvalues, the in-representation analogue of a sum of squares
NOT_LOG_CONCAVE_QUADRATIC = HomogPoly((0, 1, 2), 2, {(2, 0): 1, (0, 0b11): 1})


def test_hessian_inertia_sc037():
    reduced = reduced_indep_poly(uniform(2, 3))
    assert hessian_inertia(reduced, (1, 1, 1, 1)).as_tuple() == (1, 2, 1)
    assert hessian_inertia(
        reduced, (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))
    ).as_tuple() == (1, 2, 1)


def test_slp1_hrr1_uniform_examples():
    f = basis_poly(uniform(2, 3))
    v = point_verdicts(f, (1, 1, 1))
    assert v.slp1 is True and v.hrr1 is True
    reduced = reduced_indep_poly(uniform(2, 3))
    v = point_verdicts(reduced, (1, 1, 1, 1))
    assert v.slp1 is True and v.hrr1 is True


def test_hrr1_quotient_with_parallel_elements():
    # (x1 + x2) x3 has the annihilator d1 - d2, so its Hessian is singular
    # at every point and the point checks take g from the Gram matrix
    m = direct_sum(validate_bases(2, [[1], [2]]), uniform(1, 1))
    f = basis_poly(m)  # (x1+x2)*x3
    assert hessian_inertia(f, (1, 1, 1)).as_tuple() == (1, 1, 1)
    assert "grad_rank" not in f._cache
    for a in ((1, 1, 1), (2, 1, 3), (Fraction(1, 2), 5, 2)):
        v = point_verdicts(f, a)
        assert f._cache["grad_rank"] == 2
        assert v.hrr1 is True and v.slp1 is True
        assert v.inertia.as_tuple() == (1, 1, 1) and v.grad_rank == 2, a
        assert v == gram_rank_verdicts(f, a), a
    assert gradient_rank(f) == 2


def test_point_verdicts_match_the_gram_rank_oracle_on_catalog():
    """The rank shortcut against the rule that always reads the Gram rank:
    every field, on the basis, independent-set and reduced polynomials of
    every matroid on at most five elements, at (1, ..., 1), a seeded
    interior point and a seeded point with first coordinate 0.  A
    non-singular Hessian must not build the Gram matrix."""
    from mlz.sampling import derive, seeded_point

    routes = {"inertia": 0, "gram": 0}
    for n in range(1, 6):
        for idx, m in enumerate(catalog(n)):
            rng = derive(28, n, idx)
            for p in (basis_poly(m), indep_poly(m), reduced_indep_poly(m)):
                if p.degree < 2:
                    continue
                k = len(p.active)
                points = [(1,) * k]
                points += [seeded_point(rng, k, zeros=z)[1] for z in (0, 1)]
                got = []
                for a in points:
                    had = "grad_rank" in p._cache
                    v = point_verdicts(p, a)
                    if v.value_positive:
                        nonsingular = v.inertia.zero == 0
                        routes["inertia" if nonsingular else "gram"] += 1
                        if nonsingular:
                            assert ("grad_rank" in p._cache) == had, (m, a)
                    got.append(v)
                for a, v in zip(points, got):
                    assert v == gram_rank_verdicts(p, a), (m, p, a)
    assert routes["inertia"] and routes["gram"], routes


def test_point_verdicts_match_the_oracles_at_zero_and_negative_coordinates():
    """The bare fill against the jet and against the Gram-rank rule, on the
    basis, independent-set and reduced polynomials of every matroid on at
    most four elements: at seeded points with some coordinates 0, and at
    the same points with one coordinate negated."""
    from mlz.sampling import derive, seeded_point

    from _oracles import jet_point_verdicts

    seen = {"positive": 0, "inapplicable": 0}
    for n in range(1, 5):
        for idx, m in enumerate(catalog(n)):
            rng = derive(29, n, idx)
            for p in (basis_poly(m), indep_poly(m), reduced_indep_poly(m)):
                if p.degree < 2:
                    continue
                k = len(p.active)
                for _ in range(2):
                    zeros = rng.next64() & ((1 << k) - 1)
                    a = seeded_point(rng, k, zeros=zeros)[1]
                    flip = rng.next64() % k
                    negated = a[:flip] + (-a[flip] or -1,) + a[flip + 1 :]
                    for point in (a, negated):
                        v = point_verdicts(p, point)
                        assert v == jet_point_verdicts(p, point), (m, p, point)
                        assert v == gram_rank_verdicts(p, point), (m, p, point)
                        seen["positive" if v.value_positive else "inapplicable"] += 1
    assert min(seen.values()) > 100, seen


def test_value_sign_is_not_read_off_the_term_support():
    """Negative controls for the value sign: at each point below every
    term's variables are non-zero, yet p(a) < 0, so a sign read off the
    term support would call the point applicable."""
    from mlz.polynomials import evaluate

    # x0 x1 - x1 x2: a negative coefficient
    p = HomogPoly((0, 1, 2), 2, {(1, 0b01): 1, (0, 0b11): -1})
    # x1 x2 + x1 x3 with x2 < 0: a negative coordinate
    q = HomogPoly((1, 2, 3), 2, {(0, 0b011): 1, (0, 0b101): 1})
    for poly, a in ((p, (1, 1, 2)), (q, (1, -2, 1)), (q, (1, -1, 0))):
        assert evaluate(poly, a) < 0
        assert point_verdicts(poly, a) == PointVerdicts(False, None, None, None)
    assert point_verdicts(q, (1, 2, 0)).value_positive


def test_inapplicable_point_has_no_verdicts():
    # a point where the value is 0: no inertia and neither verdict
    f = basis_poly(uniform(2, 3))
    assert point_verdicts(f, (0, 0, 1)) == PointVerdicts(False, None, None, None)
    reduced = reduced_indep_poly(uniform(2, 3))
    assert point_verdicts(reduced, (0, 0, 0, 1)) == PointVerdicts(
        False, None, None, None
    )


def test_degree_requirement():
    with pytest.raises(ValueError, match="degree >= 2"):
        point_verdicts(basis_poly(uniform(1, 2)), (1, 1))


def test_point_verdicts_consistent_with_singletons():
    reduced = reduced_indep_poly(direct_sum(uniform(2, 3), uniform(1, 1)))
    v = point_verdicts(reduced, (0, 1, 1, 1, 1))
    assert v.value_positive
    assert v.inertia.as_tuple() == (1, 4, 0)
    assert v.slp1 is True and v.hrr1 is True


def test_point_value_sign_from_hessian_matches_evaluate():
    """point_verdicts reads the sign of p(a) from a^T H a (Euler); it must
    agree with evaluating p, also at boundary points where p(a) vanishes."""
    from mlz.polynomials import evaluate
    from mlz.sampling import derive

    from _oracles import fraction_point

    inapplicable = 0
    for idx, m in enumerate(catalog(4)):
        rng = derive(17, idx)
        for p in (basis_poly(m), indep_poly(m), reduced_indep_poly(m)):
            if p.degree < 2:
                continue
            k = len(p.active)
            points = [(0,) + (1,) * (k - 1), fraction_point(rng, k)]
            points += [fraction_point(rng, k, 1) for _ in range(3)]
            for a in points:
                v = point_verdicts(p, a)
                assert v.value_positive == (evaluate(p, a) > 0), (m, a)
                inapplicable += not v.value_positive
    assert inapplicable
    # a diagonal entry at a non-zero coordinate: the sign is read from the
    # upper triangle of H, where the diagonal counts once and the rest twice
    p = HomogPoly((0, 1, 2), 2, {(2, 0): 1, (0, 0b11): -1})  # x0^2 - x1 x2
    for a in ((1, 1, 1), (1, 2, 1), (2, 1, 1), (Fraction(1, 2), -1, 3), (-1, 1, 1)):
        assert point_verdicts(p, a).value_positive == (evaluate(p, a) > 0), a


def test_hessian_matrix_matches_public_hessian():
    from mlz import polynomials

    from _oracles import second_partials_hessian

    assert hessian_matrix is polynomials.hessian_matrix
    reduced = reduced_indep_poly(uniform(2, 3))
    a = (2, 1, 3, 1)
    assert hessian_matrix(reduced, a) == second_partials_hessian(reduced, a)


# -- Lorentzian witness -------------------------------------------------------------


def test_witness_passes_on_uniform_polys():
    m = uniform(2, 4)
    pts = [(1, 1, 1, 1), (Fraction(1, 2), 2, 1, Fraction(3, 4))]
    rep = lorentzian_witness(basis_poly(m), pts)
    assert rep.passed
    assert rep.exact_degree2 >= 1
    pts5 = [p + (1,) for p in pts]
    rep5 = lorentzian_witness(indep_poly(m), pts5)
    assert rep5.passed
    assert rep5.sampled > 0


def test_witness_fails_on_sum_of_squares():
    rep = lorentzian_witness(NOT_LOG_CONCAVE_QUADRATIC, [(1, 1, 1)])
    assert not rep.passed
    assert rep.failures[0].orders == (0, 0, 0)
    assert rep.failures[0].point is None
    assert rep.failures[0].pos_eigenvalues == 2


def test_witness_degree2_needs_no_points():
    f = basis_poly(uniform(2, 3))
    rep = lorentzian_witness(f, [(1, 1, 1)])
    assert rep.passed and rep.sampled == 0 and rep.exact_degree2 == 1


def test_witness_rejects_nonpositive_points():
    f = basis_poly(uniform(3, 4))
    with pytest.raises(ValueError):
        lorentzian_witness(f, [(0, 1, 1, 1)])


def test_witness_counts_zero_derivatives():
    f = basis_poly(uniform(3, 3))  # x1*x2*x3, order-1 partials in same var vanish
    rep = lorentzian_witness(f, [(1, 1, 1)])
    assert rep.passed
    assert rep.identically_zero == 0  # budget 1: no repeated-variable indices
    p = indep_poly(uniform(2, 3))
    rep2 = lorentzian_witness(p, [(1, 1, 1, 1)])
    assert rep2.passed
    assert rep2.checked == 1 + 4  # order 0 plus four first derivatives


def test_witness_matches_derivative_oracle_on_catalog():
    from mlz.sampling import derive

    from _oracles import derivative_witness, fraction_point

    calls = 0
    for n in range(1, 6):
        for ix, m in enumerate(catalog(n)):
            rng = derive(1, n, ix)
            for p in (basis_poly(m), indep_poly(m)):
                if p.degree < 2:
                    continue
                pts = [fraction_point(rng, len(p.active)) for _ in range(3)]
                assert lorentzian_witness(p, pts) == derivative_witness(p, pts), (m, p)
                calls += 1
    assert calls == 930


def _random_poly(rng):
    """A random polynomial in the package's form: x0 present or absent,
    degree 2-4, up to four multilinear variables, coefficients of both
    signs and non-integer ones; a few have no terms at all."""
    nvars = rng.randint(1, 4)
    with_x0 = rng.random() < 0.5
    degree = rng.randint(2, 4)
    sizes = range(0 if with_x0 else degree, min(degree, nvars) + 1)
    terms = {}
    for _ in range(rng.randint(1, 6) if sizes else 0):
        k = rng.choice(sizes)
        mask = sum(1 << b for b in rng.sample(range(nvars), k))
        terms[(degree - k, mask)] = rng.choice((1, 2, 3, -1, -2, Fraction(1, 2)))
    return HomogPoly(range(0 if with_x0 else 1, nvars + 1), degree, terms)


def test_witness_matches_derivative_oracle_on_random_polys(monkeypatch):
    import random

    from mlz import lefschetz

    from _oracles import derivative_witness

    tables = []
    values = lefschetz._derivative_values
    monkeypatch.setattr(
        lefschetz, "_derivative_values", lambda *args: tables.append(1) or values(*args)
    )
    rng = random.Random(2020)
    coords = (1, 2, 3, Fraction(1, 3), Fraction(5, 2))
    failing = fast = 0
    for _ in range(2400):
        p = _random_poly(rng)
        pts = [
            tuple(rng.choice(coords) for _ in p.active)
            for _ in range(rng.randint(0, 3))
        ]
        built = len(tables)
        rep = lorentzian_witness(p, pts)
        assert rep == derivative_witness(p, pts), (p, pts)
        failing += not rep.passed
        # a report with sampled checks that built no derivative table came
        # through the exact decision
        if p.degree >= 3 and pts and len(tables) == built:
            assert lorentzian_decide(p), p
            fast += 1
    # both outcomes are well represented, and so are both routes
    assert 500 < failing < 1900
    assert fast >= 500


def test_witness_matches_derivative_oracle_on_sum_of_squares():
    from _oracles import derivative_witness

    for pts in ([], [(1, 1, 1)], [(Fraction(1, 2), 3, 1), (2, 2, 2)]):
        rep = lorentzian_witness(NOT_LOG_CONCAVE_QUADRATIC, pts)
        assert rep == derivative_witness(NOT_LOG_CONCAVE_QUADRATIC, pts)


def test_witness_catalog_sample():
    for m in catalog(3):
        if m.rank >= 2:
            assert lorentzian_witness(basis_poly(m), [(1, 1, 1)]).passed
        if m.n >= 2:
            assert lorentzian_witness(
                indep_poly(m), [(1,) * (m.n + 1)]
            ).passed


def _catalog_polys(max_n):
    """The basis, independent-set and reduced polynomials of degree >= 2 of
    every catalog matroid on at most max_n elements."""
    for n in range(1, max_n + 1):
        for m in catalog(n):
            for p in (basis_poly(m), indep_poly(m), reduced_indep_poly(m)):
                if p.degree >= 2:
                    yield m, p


def test_grouped_m_convexity_matches_pairwise_oracle_on_catalog_polys():
    from mlz.matroids import exchange_violation

    from _oracles import m_convex_violations

    checked = 0
    for m, p in _catalog_polys(5):
        width = m.n
        support = {e0 << width | mask for e0, mask in p.terms}
        assert exchange_violation(width, support) is None, (m, p)
        assert not any(m_convex_violations(p.terms)), (m, p)
        checked += 1
    assert checked == 1365


def test_lorentzian_decide_on_catalog_polys():
    assert all(lorentzian_decide(p) for _, p in _catalog_polys(5))


def test_lorentzian_decide_on_morphism_reduced_polys():
    # the reduced polynomial of each distinct basis family of the morphisms
    # from simple sources on <= 4 elements to targets on <= 3
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
                if reduced.degree >= 2 and key not in seen:
                    seen.add(key)
                    assert lorentzian_decide(reduced), phi
    assert len(seen) == 175


# x1x2 + x3x4: the support is not M-convex (and the quadratic form has two
# positive eigenvalues)
TWO_DISJOINT_EDGES = HomogPoly((1, 2, 3, 4), 2, {(0, 0b0011): 1, (0, 0b1100): 1})
# x1x2x3 + x4x5x6: a support that is not M-convex, with a passing degree-2
# layer (each d_v p is one monomial x_a x_b)
TWO_DISJOINT_TRIANGLES = HomogPoly(
    range(1, 7), 3, {(0, 0b000111): 1, (0, 0b111000): 1}
)
# x1x2 - x1x3: an M-convex support and one positive eigenvalue, but a
# negative coefficient
NEGATIVE_COEFFICIENT = HomogPoly((1, 2, 3), 2, {(0, 0b011): 1, (0, 0b101): -1})


def _indep_u23_with_x0_cubed(c):
    """indep_poly(U(2,3)) with the coefficient of x0^3 set to c: d0 p is
    3c x0^2 + 2 x0 (x1 + x2 + x3) + x1x2 + x1x3 + x2x3, whose quadratic form
    has a second positive eigenvalue once c > 1."""
    p = indep_poly(uniform(2, 3))
    return HomogPoly(p.active, p.degree, {**p.terms, (3, 0): c})


def test_lorentzian_decide_rejects_negative_controls():
    from mlz.matroids import exchange_violation

    from _oracles import derivative_witness

    assert exchange_violation(4, {0b0011, 0b1100}) is not None
    assert not lorentzian_decide(TWO_DISJOINT_EDGES)
    assert exchange_violation(6, {0b000111, 0b111000}) is not None
    assert not lorentzian_decide(TWO_DISJOINT_TRIANGLES)
    assert not lorentzian_decide(NEGATIVE_COEFFICIENT)
    assert lorentzian_decide(_indep_u23_with_x0_cubed(1))
    perturbed = _indep_u23_with_x0_cubed(2)
    assert not lorentzian_decide(perturbed)
    # the sampled route still reports each, as the oracle does
    pts = [(1, 2, 1, 3, 1, 1)]
    rep = lorentzian_witness(TWO_DISJOINT_TRIANGLES, pts)
    assert rep == derivative_witness(TWO_DISJOINT_TRIANGLES, pts)
    assert [(f.orders, f.pos_eigenvalues) for f in rep.failures] == [
        ((0,) * 6, 2)
    ]
    assert lorentzian_witness(NEGATIVE_COEFFICIENT, [(1, 1, 1)]).passed
    rep = lorentzian_witness(perturbed, [(1, 1, 1, 1)])
    assert rep == derivative_witness(perturbed, [(1, 1, 1, 1)])
    assert rep.failures == [WitnessFailure((1, 0, 0, 0), None, 2)]


def test_lorentzian_decide_matches_exchange_on_every_family():
    # the sum of x_B over a family of r-subsets is Lorentzian exactly when
    # the family is a matroid's bases: every non-empty family of 2-subsets
    # of 4 and 5 elements and of 3-subsets of 5 elements
    from itertools import combinations

    from _oracles import exchange_violations

    families = rejected = 0
    for n, r in ((4, 2), (5, 2), (5, 3)):
        subsets = [sum(1 << e for e in c) for c in combinations(range(n), r)]
        accepted = set()
        for pick in range(1, 1 << len(subsets)):
            bases = frozenset(s for ix, s in enumerate(subsets) if pick >> ix & 1)
            p = HomogPoly(range(1, n + 1), r, {(0, b): 1 for b in bases})
            exchange = next(exchange_violations(bases), None) is None
            assert lorentzian_decide(p) == exchange, (n, sorted(bases))
            families += 1
            if exchange:
                accepted.add(bases)
            else:
                rejected += 1
        assert accepted == {m.bases for m in catalog(n, r)}
    assert (families, rejected) == (2109, 1731)


def test_lorentzian_decide_needs_degree_2():
    with pytest.raises(ValueError):
        lorentzian_decide(basis_poly(uniform(1, 2)))


# -- independent route for the quotient checks -----------------------------------


def _verdicts_via_partial_basis(p, point):
    """slp1/hrr1 from an explicit basis of the span of the first partials.

    Select variables whose partials are linearly independent (a true basis
    of the degree-1 quotient) and take the principal Hessian submatrix on
    them; the full-matrix route must agree with this reduced one.
    """
    from mlz.linalg import clear_denominators, inertia, matrix_rank
    from mlz.polynomials import gradient_matrix

    rows = gradient_matrix(p)
    chosen: list[int] = []
    kept_rows: list[list] = []
    for ix, row in enumerate(rows):
        if matrix_rank(kept_rows + [row]) > len(chosen):
            chosen.append(ix)
            kept_rows.append(row)
    h = hessian_matrix(p, clear_denominators(point)[1])
    sub = [[h[a][b] for b in chosen] for a in chosen]
    ine = inertia(sub)
    g = len(chosen)
    return (ine.pos + ine.neg == g), (ine.as_tuple() == (1, g - 1, 0))


def test_quotient_reduction_matches_partial_basis_route():
    from mlz.polynomials import reduced_indep_poly as rp

    for m in catalog(4):
        polys = []
        if m.rank >= 2:
            polys.append(basis_poly(m))
            polys.append(rp(m))
        if m.n >= 2:
            polys.append(indep_poly(m))
        for p in polys:
            dim = len(p.active)
            for a in ((1,) * dim, (Fraction(1, 2),) + (2,) * (dim - 1)):
                v = point_verdicts(p, a)
                assert v.value_positive
                slp_ref, hrr_ref = _verdicts_via_partial_basis(p, a)
                assert v.slp1 == slp_ref, (m, a)
                assert v.hrr1 == hrr_ref, (m, a)
