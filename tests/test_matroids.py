import hashlib
import json
import math
import random
from itertools import combinations

import pytest
from _oracles import brute_circuits, exchange_violations, m_convex_violations
from hypothesis import given, settings
from hypothesis import strategies as st

from mlz import matroids as mt
from mlz.matroids import (
    EmptyBasesError,
    ExchangeViolationError,
    MatroidError,
    NotAFlatError,
    UnequalCardinalityError,
    catalog,
    contract,
    delete,
    direct_sum,
    elems_of,
    graphic,
    mask_of,
    restrict,
    simplify,
    truncate,
    uniform,
    validate_bases,
)

TWO_CLASS = [[1, 3], [1, 4], [2, 3], [2, 4]]


def bases_sets(m):
    return sorted(sorted(elems_of(b)) for b in m.bases)


# -- validation ----------------------------------------------------------------


def test_single_basis_always_valid():
    m = validate_bases(2, [[1, 2]])
    assert m.rank == 2


def test_two_parallel_class_example():
    m = validate_bases(4, TWO_CLASS)
    assert m.rank == 2
    pd = m.parallel_decomposition
    assert [elems_of(c) for c in pd.classes] == [(1, 2), (3, 4)]


def test_exchange_violation_detected():
    with pytest.raises(ExchangeViolationError) as err:
        validate_bases(4, [[3, 4], [1, 2]])
    # the least basis, element and violating basis, whatever the input order
    assert (err.value.b1, err.value.b2, err.value.x) == (mask_of([1, 2]), mask_of([3, 4]), 1)
    assert str(err.value) == "exchange fails for bases [1, 2] and [3, 4] at element 1"


def test_empty_bases_rejected():
    with pytest.raises(EmptyBasesError):
        validate_bases(2, [])


def test_unequal_cardinality_distinct_error():
    with pytest.raises(UnequalCardinalityError):
        validate_bases(3, [[1], [2, 3]])


def test_out_of_range_elements_rejected():
    with pytest.raises(MatroidError):
        validate_bases(2, [[1, 3]])


@pytest.mark.parametrize(
    "n, bases, field",
    [
        ("x", [[1, 2]], "'n'"),
        (3.0, [[1, 2]], "'n'"),
        (True, [[1]], "'n'"),
        (3, [["a", 1]], "'bases'"),
        (3, [[True, 2]], "'bases'"),
        (3, [[0, 1]], "'bases'"),
        (3, [1, 2], "'bases'"),
    ],
)
def test_malformed_fields_rejected(n, bases, field):
    with pytest.raises(MatroidError, match=field):
        mt.from_json_dict({"n": n, "bases": bases})


@pytest.mark.parametrize(
    "bases, message",
    [
        ([[True, 2]], "field 'bases': expected an integer, got True"),
        ([[1, 2], [1.0, 3]], "field 'bases': expected an integer, got 1.0"),
        # the first offender in input order names the error
        ([[1, 2], [2, False], [4, 1]], "field 'bases': expected an integer, got False"),
        ([[1, 2], [1, 4], [2.0, 3]], "field 'bases': element 4 is outside 1..3"),
    ],
)
def test_non_integer_elements_rejected_in_input_order(bases, message):
    with pytest.raises(MatroidError) as err:
        validate_bases(3, bases)
    assert str(err.value) == message


def test_repeated_basis_element_rejected():
    # used to collapse into the rank-1 matroid with bases {1} and {2}
    with pytest.raises(MatroidError, match="field 'bases': element 1 repeats in \\[1, 1\\]"):
        validate_bases(2, [[1, 1], [2, 2]])


@pytest.mark.parametrize("data", [[1], "U(2,3)", {"bases": [[1]]}, {"n": 1}])
def test_non_matroid_objects_rejected(data):
    with pytest.raises(MatroidError):
        mt.from_json_dict(data)


def _assert_exchange_matches_oracle(n, family) -> bool:
    """check_exchange accepts `family` iff the pairwise oracle finds no
    violation; a rejection reports the least (b1, x, b2) violation."""
    violations = sorted((b1, x, b2) for b1, b2, x in exchange_violations(family))
    try:
        mt.check_exchange(n, family)
    except ExchangeViolationError as err:
        assert violations and (err.b1, err.x, err.b2) == violations[0], family
        return False
    assert not violations, family
    return True


def _rank_families(n, r):
    subs = [mask_of(c) for c in combinations(range(1, n + 1), r)]
    for fam in range(1, 1 << len(subs)):
        yield frozenset(s for i, s in enumerate(subs) if fam >> i & 1)


def test_check_exchange_matches_oracle_on_every_small_family():
    families = accepted = 0
    for n in range(1, 6):
        for r in range(n + 1):
            for family in _rank_families(n, r):
                families += 1
                accepted += _assert_exchange_matches_oracle(n, family)
    assert families == 2228
    assert accepted == sum(len(catalog(n)) for n in range(1, 6))


def test_check_exchange_matches_oracle_on_sampled_six_element_families():
    rng = random.Random(6)
    subs = {r: [mask_of(c) for c in combinations(range(1, 7), r)] for r in range(1, 6)}
    for r, pool in subs.items():
        for _ in range(60):
            family = frozenset(s for s in pool if rng.random() < 0.7)
            if family:
                _assert_exchange_matches_oracle(6, family)
    for m in catalog(6)[::16]:
        assert _assert_exchange_matches_oracle(6, m.bases)
        pool = subs.get(m.rank, ())
        if len(m.bases) > 1:
            _assert_exchange_matches_oracle(6, m.bases - {rng.choice(sorted(m.bases))})
        if len(m.bases) < len(pool):
            extra = rng.choice(sorted(set(pool) - m.bases))
            _assert_exchange_matches_oracle(6, m.bases | {extra})


def test_check_exchange_matches_oracle_at_command_line_sizes():
    # matroids on 8 to 10 elements, as the command line checks them:
    # intact, less one basis, and with one dependent r-set added
    rng = random.Random(22)
    wheel4 = graphic(5, [(1, v) for v in range(2, 6)] + [(2, 3), (3, 4), (4, 5), (5, 2)])
    k5 = graphic(5, list(combinations(range(1, 6), 2)))
    outcomes = []
    for m in (uniform(3, 8), wheel4, k5, direct_sum(uniform(3, 6), uniform(1, 3))):
        assert _assert_exchange_matches_oracle(m.n, m.bases)
        outcomes.append(
            _assert_exchange_matches_oracle(m.n, m.bases - {rng.choice(sorted(m.bases))})
        )
        dependent = [mask_of(c) for c in combinations(range(1, m.n + 1), m.rank)]
        dependent = sorted(set(dependent) - m.bases)
        if dependent:
            outcomes.append(
                _assert_exchange_matches_oracle(m.n, m.bases | {rng.choice(dependent)})
            )
    # U(3, 8) less a basis is still a matroid: the removed basis becomes a
    # circuit-hyperplane; every other variant breaks the axiom
    assert outcomes == [True] + [False] * 6


def test_check_exchange_matches_oracle_on_morphism_levels():
    from mlz.morphisms import enumerate_morphisms, morphism_bases

    targets = [t for tn in (1, 2) for t in catalog(tn)]
    for n in (2, 3):
        for m in catalog(n):
            if not m.is_simple:
                continue
            for phi in enumerate_morphisms(m, targets):
                for bucket in morphism_bases(phi).by_size.values():
                    assert _assert_exchange_matches_oracle(m.n, bucket)


def _assert_m_convex_matches_oracle(support) -> bool:
    """exchange_violation on (x0 power, mask) pairs finds a violation iff the
    pairwise oracle does, and then the least (alpha, i, beta) one."""
    width = max((mask.bit_length() for _, mask in support), default=0)
    got = mt.exchange_violation(width, {e0 << width | mask for e0, mask in support})
    violations = sorted((a, i, b) for a, b, i in m_convex_violations(support))
    if violations:
        (a0, a), i, (b0, b) = violations[0]
        assert got == (a0 << width | a, b0 << width | b, i), support
        return False
    assert got is None, support
    return True


def _random_support(rng):
    """A random set of at least two monomials x0^e0 x_M of one degree
    (1 to 4) in two to five multilinear variables, x0 present or absent."""
    nvars = rng.randint(2, 5)
    degree = rng.randint(1, 4)
    sizes = range(0 if rng.random() < 0.5 else degree, min(degree, nvars) + 1)
    monomials = [
        (degree - k, mask_of(c)) for k in sizes for c in combinations(range(1, nvars + 1), k)
    ]
    if len(monomials) < 2:
        return _random_support(rng)
    return set(rng.sample(monomials, rng.randint(2, len(monomials))))


def test_exchange_violation_matches_pairwise_oracle_on_random_supports():
    rng = random.Random(2020)
    m_convex = sum(_assert_m_convex_matches_oracle(_random_support(rng)) for _ in range(2000))
    # both outcomes are well represented
    assert 500 < m_convex < 1500


# -- constructors ----------------------------------------------------------------


def test_uniform_2_3():
    m = uniform(2, 3)
    assert bases_sets(m) == [[1, 2], [1, 3], [2, 3]]


def test_uniform_full_rank_and_rank_zero():
    assert bases_sets(uniform(3, 3)) == [[1, 2, 3]]
    loopy = uniform(0, 1)
    assert bases_sets(loopy) == [[]]
    assert elems_of(loopy.loops) == (1,)


def test_uniform_rejects_bad_rank():
    with pytest.raises(MatroidError):
        uniform(4, 3)


def test_graphic_triangle_is_uniform():
    tri = graphic(3, [(1, 2), (1, 3), (2, 3)])
    assert tri == uniform(2, 3)


def test_graphic_parallel_edges():
    m = graphic(2, [(1, 2), (1, 2)])
    assert m.rank == 1
    assert [elems_of(c) for c in m.parallel_decomposition.classes] == [(1, 2)]


def test_graphic_loop_edge():
    m = graphic(2, [(1, 1), (1, 2)])
    assert elems_of(m.loops) == (1,)


def test_graphic_vertex_range():
    with pytest.raises(MatroidError):
        graphic(2, [(1, 3)])


def test_graphic_cost_ignores_unused_vertices():
    import tracemalloc

    triangle = [(1, 2), (2, 3), (1, 3)]
    tracemalloc.start()
    try:
        big = graphic(10**6, triangle)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert big.bases == graphic(3, triangle).bases


def test_direct_sum_with_coloop():
    m = direct_sum(uniform(2, 3), uniform(1, 1))
    assert m.rank == 3
    assert bases_sets(m) == [[1, 2, 4], [1, 3, 4], [2, 3, 4]]
    assert all(4 in b for b in bases_sets(m))  # 4 is a coloop


def test_direct_sum_with_loop_keeps_bases():
    m = uniform(2, 3)
    summed = direct_sum(m, uniform(0, 1))
    assert summed.n == 4
    assert bases_sets(summed) == bases_sets(m)
    assert elems_of(summed.loops) == (4,)


def test_direct_sum_of_coloops():
    assert direct_sum(uniform(1, 1), uniform(1, 1)) == uniform(2, 2)


# -- rank / closure / flats -------------------------------------------------------


def test_rank_examples():
    m = uniform(2, 3)
    assert m.rank_of(mask_of([1, 2, 3])) == 2
    assert m.rank_of(0) == 0
    two = validate_bases(4, TWO_CLASS)
    assert two.rank_of(mask_of([1, 2])) == 1


def test_closure_examples():
    m = uniform(2, 3)
    assert m.closure(mask_of([1])) == mask_of([1])
    assert m.closure(0) == 0
    two = validate_bases(4, TWO_CLASS)
    assert two.closure(mask_of([1])) == mask_of([1, 2])
    loopy = direct_sum(uniform(0, 1), uniform(1, 1))
    assert loopy.closure(0) == loopy.loops


def test_flats_of_uniform_2_3():
    m = uniform(2, 3)
    assert [elems_of(f) for f in m.flats] == [(), (1,), (2,), (3,), (1, 2, 3)]


def test_minimal_superflats_partition():
    m = uniform(2, 3)
    sups = m.minimal_superflats(0)
    assert [elems_of(s) for s in sups] == [(1,), (2,), (3,)]
    assert m.minimal_superflats(m.ground_mask) == ()
    with pytest.raises(NotAFlatError):
        validate_bases(4, TWO_CLASS).minimal_superflats(mask_of([1]))


# -- circuits / girth --------------------------------------------------------------


def test_circuits_uniform():
    m = uniform(2, 3)
    assert [elems_of(c) for c in brute_circuits(m.n, m.bases)] == [(1, 2, 3)]
    assert m.girth == 3


def test_girth_with_loop():
    m = direct_sum(uniform(0, 1), uniform(1, 1))
    assert m.girth == 1


def test_free_matroid_has_no_circuits():
    m = uniform(4, 4)
    assert brute_circuits(m.n, m.bases) == set()
    assert m.girth == math.inf


def test_girth_matches_count_characterization():
    """The girth read off the independent counts is the size of the
    smallest circuit the powerset scan finds, or inf without one."""
    shapes = [m for n in range(1, 6) for m in catalog(n)] + [
        direct_sum(uniform(0, 1), uniform(2, 3)),  # a loop
        graphic(3, [(1, 2), (1, 2), (2, 3), (1, 3)]),  # a parallel pair
        graphic(5, list(combinations(range(1, 6), 2))),  # K5
    ]
    girths = []
    for m in shapes:
        circuits = brute_circuits(m.n, m.bases)
        girths.append(min((c.bit_count() for c in circuits), default=math.inf))
        assert m.girth == girths[-1], m
    assert girths[-3:] == [1, 2, 3]
    assert set(girths) == {1, 2, 3, 4, 5, math.inf}


# -- parallel decomposition ----------------------------------------------------------


def test_parallel_decomposition_simple():
    pd = uniform(2, 3).parallel_decomposition
    assert pd.loops == 0
    assert [elems_of(c) for c in pd.classes] == [(1,), (2,), (3,)]


def test_parallel_decomposition_loop_only():
    pd = uniform(0, 1).parallel_decomposition
    assert elems_of(pd.loops) == (1,)
    assert pd.classes == ()


def test_parallel_decomposition_matches_rank_table():
    """Classes from co-occurrence masks equal the greedy rank-table ones:
    each class is the least unassigned non-loop plus every later
    unassigned f with rank({e, f}) == 1."""
    for n in range(1, 7):
        for m in catalog(n):
            classes, assigned = [], m.loops
            for e in range(1, n + 1):
                if assigned >> (e - 1) & 1:
                    continue
                cls = mask_of([e]) | mask_of(
                    f
                    for f in range(e + 1, n + 1)
                    if not assigned >> (f - 1) & 1 and m.rank_of(mask_of([e, f])) == 1
                )
                assigned |= cls
                classes.append(cls)
            assert m.parallel_decomposition.classes == tuple(classes), m


# -- size guard on the 2^n tables ---------------------------------------------------


def test_subset_tables_refuse_large_ground_sets():
    # 40 elements, one basis: cheap to build, but 2^40 subsets per table;
    # each table must raise before it allocates or scans anything
    from mlz.morphisms import MorphismBases

    big = validate_bases(40, [[1]])
    tables = ("independent_masks", "rank_table", "closure_table", "flats")
    for table in tables:
        with pytest.raises(MatroidError, match="2\\^40 subsets"):
            getattr(big, table)
        # a build that raises keeps nothing, so the next read raises again
        assert table not in big._cache
    with pytest.raises(MatroidError):
        big.girth
    with pytest.raises(MatroidError, match="2\\^40 subsets"):
        MorphismBases(big, 0, 0, frozenset()).levels
    assert big._cache.keys().isdisjoint(tables)
    # the largest admitted ground set still passes the guard
    mt.check_table_size(mt.TABLE_MAX_GROUND)
    with pytest.raises(MatroidError):
        mt.check_table_size(mt.TABLE_MAX_GROUND + 1)


# -- minors -----------------------------------------------------------------------


def test_contract_uniform():
    sub, old_of = contract(uniform(2, 3), 1)
    assert sub == uniform(1, 2)
    assert old_of == (2, 3)


def test_contract_loop_rejected():
    with pytest.raises(MatroidError):
        contract(direct_sum(uniform(0, 1), uniform(1, 1)), 1)


@pytest.mark.parametrize("e", [0, -1, 4])
def test_contract_out_of_range_rejected(e):
    with pytest.raises(MatroidError, match=f"element {e} out of range"):
        contract(uniform(2, 3), e)


def test_delete_uniform():
    sub, old_of = delete(uniform(2, 3), 3)
    assert sub == uniform(2, 2)
    assert old_of == (1, 2)


def test_restrict_to_summand():
    m = direct_sum(uniform(2, 3), uniform(1, 1))
    sub, old_of = restrict(m, mask_of([1, 2, 3]))
    assert sub == uniform(2, 3)
    assert old_of == (1, 2, 3)


def test_minor_outputs_validate():
    for n in range(1, 5):
        for m in catalog(n):
            for e in range(1, n + 1):
                bit = 1 << (e - 1)
                if not m.loops & bit:
                    sub, _ = contract(m, e)
                    mt.check_exchange(sub.n, sub.bases)
                if n > 1:
                    sub, _ = delete(m, e)
                    mt.check_exchange(sub.n, sub.bases)


def test_truncate_examples():
    assert truncate(uniform(3, 4), 1) == uniform(2, 4)
    m = uniform(2, 3)
    assert truncate(m, 0) is m
    assert truncate(direct_sum(uniform(2, 3), uniform(1, 1)), 1) == uniform(2, 4)
    with pytest.raises(MatroidError):
        truncate(uniform(2, 3), 2)


def test_simplify_examples():
    two = validate_bases(4, TWO_CLASS)
    simp, reps = simplify(two)
    assert simp == uniform(2, 2)
    assert reps == (1, 3)
    m = uniform(2, 3)
    assert simplify(m)[0] == m
    assert simplify(uniform(1, 3))[0] == uniform(1, 1)
    with pytest.raises(MatroidError):
        simplify(uniform(0, 2))


def test_simplify_output_is_simple():
    for n in range(1, 5):
        for m in catalog(n):
            if m.rank == 0:
                continue
            simp, reps = simplify(m)
            assert simp.is_simple
            assert simp.n == len(m.parallel_decomposition.classes)
            assert len(reps) == simp.n


# -- profiles ---------------------------------------------------------------------


def test_indep_profile_uniform():
    assert uniform(2, 3).indep_counts == (1, 3, 3)


def test_indep_profile_direct_sum():
    assert direct_sum(uniform(2, 3), uniform(1, 1)).indep_counts == (1, 4, 6, 3)


def test_indep_profile_free():
    # every subset is independent: the counts are the binomials C(4, k)
    assert uniform(4, 4).indep_counts == (1, 4, 6, 4, 1)


def test_normalized_sides_share_one_denominator():
    # U(2, 4) at level 1: (1/1)(6/6) against (4/4)^2, both sides 1, so each
    # integer side is the denominator C(4,0) C(4,1)^2 C(4,2) = 96
    counts = [*uniform(2, 4).indep_counts, 0]
    assert mt.normalized_sides(4, counts, 1) == (96, 96, 96)
    # level 2: (4/4)(0/4) against (6/6)^2
    assert mt.normalized_sides(4, counts, 2) == (0, 36 * 4 * 4, 4 * 36 * 4)


def test_normalized_sides_above_the_ground_set_are_zero():
    # at k = n no (k + 1)-set exists: C(n, k + 1) = 0, so both sides are 0
    for n in range(1, 7):
        counts = [*uniform(n, n).indep_counts, 0]
        assert mt.normalized_sides(n, counts, n) == (0, 0, 1)


# -- enumeration --------------------------------------------------------------------


def test_enumeration_counts():
    # labeled matroid counts on 1..5 elements
    assert [len(catalog(n)) for n in range(1, 6)] == [2, 5, 16, 68, 406]


def test_enumeration_n6_counts_and_order():
    # 3807 in all (OEIS A058673); the sha256 pins the order the survey's rows follow
    assert [len(catalog(6, r)) for r in range(7)] == [1, 63, 813, 2053, 813, 63, 1]
    assert len(catalog(6)) == 3807
    lines = "\n".join(
        json.dumps(m.to_json_dict(), separators=(",", ":")) for m in catalog(6)
    )
    assert hashlib.sha256(lines.encode()).hexdigest() == (
        "43bfd19fe2335da1d8d4542220db2f964d2b3535e57aea1e4c279f6240acbcae"
    )


def test_enumeration_n1():
    ms = catalog(1)
    assert bases_sets(ms[0]) == [[]]
    assert bases_sets(ms[1]) == [[1]]


def test_enumeration_rank_filter():
    ms = catalog(2, rank=1)
    assert [bases_sets(m) for m in ms] == [[[1]], [[1], [2]], [[2]]]


def test_enumeration_validates_and_is_canonical():
    ms = catalog(3)
    assert ms == catalog.__wrapped__(3)  # a fresh build of the top layer
    ranks = [m.rank for m in ms]
    assert ranks == sorted(ranks)
    for m in ms:
        mt.check_exchange(m.n, m.bases)
    assert len(set(ms)) == len(ms)


def test_enumeration_bounds():
    with pytest.raises(MatroidError):
        catalog(7)
    with pytest.raises(MatroidError):
        catalog(0)


# -- structural properties over the catalog -------------------------------------------


@st.composite
def matroid_and_subset(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    cat = catalog(n)
    m = cat[draw(st.integers(min_value=0, max_value=len(cat) - 1))]
    subset = draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    return m, subset


@settings(max_examples=150, deadline=None)
@given(matroid_and_subset())
def test_rank_monotone_unit_increase(ms):
    m, s = ms
    r = m.rank_of(s)
    for e in range(m.n):
        if not (s >> e) & 1:
            bigger = m.rank_of(s | (1 << e))
            assert r <= bigger <= r + 1


@settings(max_examples=150, deadline=None)
@given(matroid_and_subset())
def test_closure_idempotent_extensive_monotone(ms):
    m, s = ms
    cl = m.closure(s)
    assert cl & s == s
    assert m.closure(cl) == cl
    for e in range(m.n):
        sup = s | (1 << e)
        assert m.closure(sup) & cl == cl


@settings(max_examples=150, deadline=None)
@given(matroid_and_subset())
def test_rank_closure_match_bruteforce(ms):
    from _oracles import brute_closure, brute_rank

    m, s = ms
    assert m.rank_of(s) == brute_rank(m.n, m.bases, s)
    assert m.closure(s) == brute_closure(m.n, m.bases, s)


def test_circuits_match_bruteforce():
    """The minimal dependent sets of `independent_masks` are the circuits
    the brute-force oracle finds from the bases alone."""
    for n in range(1, 5):
        for m in catalog(n):
            indep = m.independent_masks
            minimal_dependent = {
                s
                for s in range(1, 1 << m.n)
                if s not in indep and all(s ^ (1 << e) in indep for e in range(m.n) if (s >> e) & 1)
            }
            assert minimal_dependent == brute_circuits(m.n, m.bases), m


def test_flat_partition_catalog():
    for n in range(1, 5):
        for m in catalog(n):
            for flat in m.flats:
                cover = 0
                for g in m.minimal_superflats(flat):
                    diff = g & ~flat
                    assert diff and not (cover & diff)
                    cover |= diff
                assert cover == m.ground_mask & ~flat


# -- serialization ------------------------------------------------------------------


def test_json_round_trip():
    m = validate_bases(4, TWO_CLASS)
    data = m.to_json_dict()
    assert data == {"n": 4, "bases": [[1, 3], [1, 4], [2, 3], [2, 4]]}
    assert mt.from_json_dict(data) == m
