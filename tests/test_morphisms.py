from fractions import Fraction
from itertools import product

import pytest

from mlz.matroids import (
    catalog,
    direct_sum,
    elems_of,
    mask_of,
    truncate,
    uniform,
)
from mlz.morphisms import (
    FlatPreimageViolation,
    ImageRankDeficient,
    MorphismError,
    degeneracy_class,
    enumerate_morphisms,
    eur_huh_profile,
    morphism_bases,
    morphism_from_json_dict,
    morphism_poly,
    validate_morphism,
)
from mlz.polynomials import linear_apply, partial, poly_str

from _oracles import per_map_degeneracy, rank_condition_holds

LOOP_COLOOP = direct_sum(uniform(0, 1), uniform(1, 1))  # one loop, one coloop


# -- validation ------------------------------------------------------------------


def test_constant_map_to_loop_valid():
    phi = validate_morphism(uniform(2, 3), uniform(0, 1), [1, 1, 1])
    assert phi.r == 2 and phi.r_prime == 0
    assert elems_of(phi.phi_loops) == (1, 2, 3)


def test_identity_to_truncation_valid():
    m = uniform(3, 4)
    phi = validate_morphism(m, truncate(m, 1), [1, 2, 3, 4])
    assert phi.r_prime == 2


def test_rank_increasing_map_invalid():
    with pytest.raises(FlatPreimageViolation):
        validate_morphism(uniform(1, 2), uniform(2, 2), [1, 2])


def test_image_rank_deficient_rejected():
    # constant map into one element of a rank-2 target never spans it
    with pytest.raises(ImageRankDeficient):
        validate_morphism(uniform(2, 2), uniform(2, 2), [1, 1])


def test_map_length_and_range_checked():
    with pytest.raises(MorphismError):
        validate_morphism(uniform(2, 3), uniform(0, 1), [1, 1])
    with pytest.raises(MorphismError):
        validate_morphism(uniform(2, 3), uniform(0, 1), [1, 1, 2])


def test_validation_routes_agree_exhaustively():
    """The flat-preimage route rejects exactly the maps that break the
    rank-difference form, on every map to a target on <= 3 elements from a
    catalog source on <= 4 elements (loops and parallel elements included)
    or a simple one on 5: every candidate map of the survey among them."""
    targets = [t for tn in (1, 2, 3) for t in catalog(tn)]
    count = rejected = 0
    for n in range(1, 6):
        for m in catalog(n):
            if n == 5 and not m.is_simple:
                continue
            for target in targets:
                for phi in product(range(1, target.n + 1), repeat=m.n):
                    count += 1
                    try:
                        validate_morphism(m, target, phi)
                        violation = False
                    except FlatPreimageViolation:
                        violation = True
                        rejected += 1
                    except ImageRankDeficient:
                        violation = False
                    assert rank_condition_holds(m, target, phi) != violation, (
                        m,
                        target,
                        phi,
                    )
    assert (count, rejected) == (300688, 179544)


# -- morphism bases ------------------------------------------------------------------


def test_bases_of_full_rank_source_to_point():
    phi = validate_morphism(uniform(3, 3), uniform(1, 1), [1, 1, 1])
    bases = morphism_bases(phi)
    assert sorted(bases.by_size) == [1, 2, 3]
    total = {s for bucket in bases.by_size.values() for s in bucket}
    assert total == {s for s in range(1, 8)}  # all non-empty subsets


def test_bases_to_rank_zero_target_are_independents():
    m = uniform(2, 3)
    phi = validate_morphism(m, uniform(0, 1), [1, 1, 1])
    bases = morphism_bases(phi)
    total = {s for bucket in bases.by_size.values() for s in bucket}
    assert total == set(m.independent_masks)


def test_bases_levels_are_matroids_and_top_is_source():
    import mlz.matroids as mt

    for n in (2, 3):
        for m in catalog(n):
            if not m.is_simple:
                continue
            targets = [t for tn in (1, 2) for t in catalog(tn)]
            for phi in enumerate_morphisms(m, targets):
                bases = morphism_bases(phi)
                assert bases.by_size[phi.r] == m.bases
                for bucket in bases.by_size.values():
                    mt.check_exchange(m.n, bucket)


def test_bottom_bases_avoid_phi_loops_and_extend():
    phi = validate_morphism(uniform(2, 3), LOOP_COLOOP, [1, 2, 2])
    bases = morphism_bases(phi)
    assert bases.by_size[1] == frozenset({mask_of([2]), mask_of([3])})
    loops = phi.phi_loops
    indep = phi.source.independent_masks
    all_b = {s for bucket in bases.by_size.values() for s in bucket}
    for i_mask in bases.by_size[1]:
        assert i_mask & loops == 0
        sub = loops
        while True:
            assert ((i_mask | sub) in all_b) == (sub in indep)
            if sub == 0:
                break
            sub = (sub - 1) & loops


# -- generating polynomials ------------------------------------------------------------


def test_poly_of_full_rank_to_point_morphism():
    phi = validate_morphism(uniform(3, 3), uniform(1, 1), [1, 1, 1])
    p, reduced = morphism_poly(phi)
    assert p == reduced  # n = rank, no x0-derivatives taken
    assert poly_str(reduced) == (
        "x0^2*x1 + x0^2*x2 + x0^2*x3 + x0*x1*x2 + x0*x1*x3 + x0*x2*x3 + x1*x2*x3"
    )


def test_full_rank_to_point_hessian_matches_reduced_uniform():
    # at the x0 = 0 boundary this Hessian coincides with the one of the
    # reduced polynomial of the rank-2 uniform matroid at the ones point
    from mlz.polynomials import hessian_matrix, reduced_indep_poly

    phi = validate_morphism(uniform(3, 3), uniform(1, 1), [1, 1, 1])
    _, reduced = morphism_poly(phi)
    h1 = hessian_matrix(reduced, (0, 1, 1, 1))
    h2 = hessian_matrix(reduced_indep_poly(uniform(2, 3)), (1, 1, 1, 1))
    assert h1 == h2


def test_family_keeps_one_plan_that_matches_fresh_hessians():
    from mlz.lefschetz import point_verdicts
    from mlz.morphisms import basis_family
    from mlz.polynomials import HomogPoly, hessian_matrix
    from mlz.sampling import derive

    from _oracles import fraction_point

    targets = [t for tn in (1, 2, 3) for t in catalog(tn)]
    families = {}
    for m in catalog(4):
        if m.is_simple:
            for phi in enumerate_morphisms(m, targets):
                family = basis_family(morphism_bases(phi))
                if family.polys[1].degree >= 2:
                    families[id(family)] = family
    assert len(families) > 50
    for ix, family in enumerate(families.values()):
        reduced = family.polys[1]
        plan = reduced.plan
        # a copy of the reduced polynomial compiles a plan of its own
        fresh = HomogPoly(reduced.active, reduced.degree, dict(reduced.terms))
        rng = derive(19, ix)
        k = len(reduced.active)
        points = [(0,) + (1,) * (k - 1), fraction_point(rng, k), fraction_point(rng, k, 1)]
        for a in points:
            assert hessian_matrix(reduced, a) == hessian_matrix(fresh, a), (family, a)
            assert point_verdicts(reduced, a) == point_verdicts(fresh, a), family
        assert family.polys[1].plan is plan
        assert fresh.plan is not plan


def test_poly_equal_rank_shape():
    m = uniform(2, 4)
    phi = validate_morphism(m, m, [1, 2, 3, 4])
    p, reduced = morphism_poly(phi)
    assert p.terms == {(2, b): 1 for b in m.bases}
    assert reduced.terms == {(0, b): 2 for b in m.bases}  # (n-r)! = 2


def test_poly_case_b_instance():
    phi = validate_morphism(uniform(2, 3), LOOP_COLOOP, [1, 2, 2])
    _, reduced = morphism_poly(phi)
    assert poly_str(reduced) == "2*x0*x2 + 2*x0*x3 + x1*x2 + x1*x3 + x2*x3"


def test_poly_rank_zero_target_is_indep_poly():
    from mlz.polynomials import indep_poly, reduced_indep_poly

    m = uniform(2, 4)
    phi = validate_morphism(m, uniform(0, 1), [1, 1, 1, 1])
    p, reduced = morphism_poly(phi)
    assert p == indep_poly(m)
    assert reduced == reduced_indep_poly(m)


# -- degeneracy trichotomy ---------------------------------------------------------------


def test_case_a_identity():
    m = uniform(2, 4)
    phi = validate_morphism(m, m, [1, 2, 3, 4])
    verdict = degeneracy_class(phi)
    assert verdict.classes == frozenset({"A"})
    assert verdict.annihilator == (1, 0, 0, 0, 0)


def test_case_b_annihilator():
    phi = validate_morphism(uniform(2, 3), LOOP_COLOOP, [1, 2, 2])
    verdict = degeneracy_class(phi)
    assert verdict.classes == frozenset({"B"})
    assert verdict.annihilator == (1, -2, 0, 0)
    _, reduced = morphism_poly(phi)
    # d/dx0 equals 2 * d/dx1 on this polynomial
    assert partial(reduced, 0) == linear_apply(
        reduced, (0, 2, 0, 0)
    )


def test_case_c_annihilator():
    src = direct_sum(uniform(1, 2), uniform(1, 1))
    phi = validate_morphism(src, LOOP_COLOOP, [1, 1, 2])
    verdict = degeneracy_class(phi)
    assert verdict.classes == frozenset({"C"})
    assert verdict.annihilator == (-1, 1, 1, 0)


def test_case_b_and_c_together():
    phi = validate_morphism(uniform(2, 2), LOOP_COLOOP, [1, 2])
    verdict = degeneracy_class(phi)
    assert verdict.classes == frozenset({"B", "C"})
    assert verdict.annihilator is not None
    _, reduced = morphism_poly(phi)
    assert linear_apply(reduced, verdict.annihilator).is_zero


def test_no_degeneracy_for_full_rank_to_point():
    phi = validate_morphism(uniform(3, 3), uniform(1, 1), [1, 1, 1])
    verdict = degeneracy_class(phi)
    assert verdict.classes == frozenset()
    assert verdict.annihilator is None


def test_annihilator_always_kills_reduced_poly():
    targets = [t for tn in (1, 2, 3) for t in catalog(tn)]
    for m in catalog(3):
        if not m.is_simple:
            continue
        for phi in enumerate_morphisms(m, targets):
            verdict = degeneracy_class(phi)
            if verdict.annihilator is not None:
                _, reduced = morphism_poly(phi)
                assert linear_apply(reduced, verdict.annihilator).is_zero


def test_case_b_with_source_loop_uses_coordinate_form():
    # element 3 is the one loop preimage and a loop of the source: no basis
    # contains it, so d/dx3 kills the reduced polynomial
    src = direct_sum(uniform(2, 2), uniform(0, 1))
    phi = validate_morphism(src, LOOP_COLOOP, [2, 2, 1])
    verdict = degeneracy_class(phi)
    assert verdict.classes == frozenset({"B"})
    assert verdict.annihilator == (0, 0, 0, 1)


def test_degeneracy_class_never_raises_on_catalog_sources():
    """Every morphism from a catalog source on <= 4 elements, loops and
    parallel elements included, to a target on <= 3 elements.

    The two facts the basis family reads its verdict from hold: the top
    level is the source's bases, and the loop preimage is the ground set
    minus the union of the bottom-level bases.  Each verdict equals the one
    from the map's own loop preimage.  degeneracy_class raises
    AnnihilatorCheckFailed when its form does not kill the reduced
    polynomial; class B whose loop preimage is a source loop must get the
    coordinate form of that loop."""
    targets = [t for tn in (1, 2, 3) for t in catalog(tn)]
    count = loop_b = 0
    for n in range(1, 5):
        for m in catalog(n):
            for phi in enumerate_morphisms(m, targets):
                count += 1
                levels = morphism_bases(phi).by_size
                assert levels[phi.r] == m.bases, phi
                bottom_union = 0
                for s in levels[phi.r_prime]:
                    bottom_union |= s
                assert bottom_union == m.ground_mask & ~phi.phi_loops, phi
                verdict = degeneracy_class(phi)
                assert (verdict.classes, verdict.annihilator) == per_map_degeneracy(
                    phi
                ), phi
                if verdict.classes & {"A", "B"} == {"B"} and m.loops & phi.phi_loops:
                    loop_b += 1
                    (j,) = elems_of(phi.phi_loops)
                    form = tuple(Fraction(int(k == j)) for k in range(n + 1))
                    assert verdict.annihilator == form, phi
    assert (count, loop_b) == (22354, 644)


# -- the normalized count inequality ----------------------------------------------------


def test_profile_empty_when_rank_drop_one():
    m = uniform(3, 4)
    phi = validate_morphism(m, truncate(m, 1), [1, 2, 3, 4])
    assert eur_huh_profile(phi) == ()


def test_profile_equality_example():
    phi = validate_morphism(uniform(3, 3), uniform(1, 1), [1, 1, 1])
    (entry,) = eur_huh_profile(phi)
    assert entry.k == 2
    assert entry.lhs == 1 and entry.rhs == 1 and entry.equal


def test_family_facts_match_the_derivative_and_fraction_oracles():
    # every basis family from a simple source on <= 4 elements to a target
    # on <= 3: the polynomials against n - r `partial` derivatives of the
    # padded sum, the count profile against products of Fractions
    from _oracles import eur_huh_by_fractions, family_polys_by_derivatives

    targets = [t for tn in (1, 2, 3) for t in catalog(tn)]
    families = {
        morphism_bases(phi)
        for n in range(1, 5)
        for m in catalog(n)
        if m.is_simple
        for phi in enumerate_morphisms(m, targets)
    }
    assert len(families) == 177
    for family in families:
        for got, want in zip(family.polys, family_polys_by_derivatives(family)):
            assert got == want and poly_str(got) == poly_str(want), family
        want = eur_huh_by_fractions(family)
        assert family.eur_huh == want, family
        assert [str(e.lhs) for e in family.eur_huh] == [str(e.lhs) for e in want]


def test_profile_matches_mason_for_rank_zero_target():
    from mlz.verify import mason_indep_check

    m = uniform(3, 4)
    phi = validate_morphism(m, uniform(0, 1), [1, 1, 1, 1])
    for entry in eur_huh_profile(phi):
        rep = mason_indep_check(m, entry.k)
        assert entry.lhs == rep.lhs
        assert entry.rhs == rep.rhs


# -- enumeration ---------------------------------------------------------------------------


def test_enumerate_constant_morphism_unique():
    ms = list(enumerate_morphisms(uniform(2, 3), [uniform(0, 1)]))
    assert len(ms) == 1
    assert ms[0].map == (1, 1, 1)


def test_enumerate_no_duplicates_and_revalidates():
    targets = [t for tn in (1, 2) for t in catalog(tn)]
    seen = set()
    for phi in enumerate_morphisms(uniform(2, 3), targets):
        key = (phi.target, phi.map)
        assert key not in seen
        seen.add(key)
        validate_morphism(phi.source, phi.target, phi.map)
    assert seen


def _five_element_sources():
    """One simple matroid on five elements of each rank 2 to 5, as the
    morphism sweep of the benchmark takes them, and a relabeling of the
    two that are not symmetric."""
    from itertools import combinations

    from mlz.matroids import validate_bases

    lines = [
        c for c in combinations(range(1, 6), 3) if set(c) not in ({1, 2, 3}, {1, 4, 5})
    ]
    triangle = [(4, 5) + c for c in combinations((1, 2, 3), 2)]
    relabel = (3, 5, 1, 4, 2)  # element e becomes relabel[e - 1]
    out = [uniform(2, 5), uniform(5, 5)]
    for bases in (lines, triangle):
        out.append(validate_bases(5, bases))
        out.append(validate_bases(5, [[relabel[e - 1] for e in b] for b in bases]))
    return out


def test_backtracking_enumeration_and_keyed_families_match_the_oracles():
    # sources: every simple matroid on <= 4 elements and the five-element
    # sources; targets: every matroid on <= 3 elements.  The backtracking
    # enumeration gives the validating route's maps in its order, each
    # map's family has the levels of the image-table route, and two maps
    # share one family exactly when their sources, target ranks, loop
    # preimages and levels are equal
    from mlz import morphisms as mo

    from _oracles import enumerate_morphisms_by_validation, morphism_levels_by_image

    sources = [m for n in range(1, 5) for m in catalog(n) if m.is_simple]
    sources += _five_element_sources()
    targets = [t for tn in (1, 2, 3) for t in catalog(tn)]
    mo.basis_family.cache_clear()
    maps, by_facts, families = 0, {}, set()
    for m in sources:
        for target in targets:
            got = list(enumerate_morphisms(m, [target]))
            want = list(enumerate_morphisms_by_validation(m, [target]))
            assert got == want, (m, target)
            for phi in got:
                family = mo.basis_family(morphism_bases(phi))
                levels = morphism_levels_by_image(phi)
                assert family.levels == levels, phi
                facts = (m, phi.r_prime, phi.phi_loops, levels)
                assert by_facts.setdefault(facts, family) is family, phi
                families.add(id(family))
            maps += len(got)
    assert maps == 15619  # 5095 from the small sources
    assert len(families) == len(by_facts) < maps // 10
    # the one cache holds exactly the families
    assert mo.basis_family.cache_info().currsize == len(families)


def test_clearing_basis_family_leaves_no_stale_family():
    # after the clear a map's family is a fresh one, with no kept facts,
    # and the first equal one
    from mlz import morphisms as mo

    phi = validate_morphism(uniform(2, 3), uniform(1, 2), [1, 2, 2])
    old = mo.basis_family(morphism_bases(phi))
    assert old.polys and old._cache
    mo.basis_family.cache_clear()
    new = mo.basis_family(morphism_bases(phi))
    assert new == old and new is not old and not new._cache
    assert new is mo.basis_family(morphism_bases(phi))


def test_enumerate_bounds():
    from mlz.matroids import MatroidError

    with pytest.raises(MatroidError):
        list(enumerate_morphisms(uniform(2, 6), [uniform(0, 1)]))
    with pytest.raises(MatroidError):
        list(enumerate_morphisms(uniform(2, 3), [uniform(1, 4)]))


# -- json ------------------------------------------------------------------------------------


def test_morphism_json_round_trip():
    phi = validate_morphism(uniform(2, 3), LOOP_COLOOP, [1, 2, 2])
    data = phi.to_json_dict()
    assert data["map"] == [1, 2, 2]
    again = morphism_from_json_dict(data)
    assert again == phi


@pytest.mark.parametrize("field", ["source", "target", "map"])
def test_morphism_json_missing_field_names_it(field):
    data = validate_morphism(uniform(2, 3), LOOP_COLOOP, [1, 2, 2]).to_json_dict()
    del data[field]
    with pytest.raises(MorphismError, match=f"field '{field}': missing"):
        morphism_from_json_dict(data)
