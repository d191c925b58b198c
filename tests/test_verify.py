import hashlib
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import pytest
from _oracles import (
    fraction_point,
    hodge_pair_counts,
    jet_basis_rows,
    jet_indep_rows,
    jet_mason_rows,
    mason_basis_report,
    mason_indep_report,
    per_map_morphism_suite,
)

from mlz.matroids import (
    Matroid,
    catalog,
    direct_sum,
    uniform,
    validate_bases,
)
from mlz.morphisms import (
    basis_family,
    enumerate_morphisms,
    morphism_bases,
    validate_morphism,
)
from mlz.polynomials import HomogPoly, basis_poly, reduced_indep_poly
from mlz.sampling import derive
from mlz.verify import (
    SuiteReport,
    _fmt_point,
    _hodge_pair_rows,
    _mason_rows,
    _matroid_key,
    _pair_row,
    _pairs,
    _shared_rows,
    mason_basis_check,
    mason_indep_check,
    morphism_suite,
    survey,
    theorem_suite,
)

TWO_CLASS = validate_bases(4, [[1, 3], [1, 4], [2, 3], [2, 4]])
SUM_M = direct_sum(uniform(2, 3), uniform(1, 1))


# -- basis-count inequality ---------------------------------------------------------


def test_mason_basis_two_class_equality():
    rep = mason_basis_check(TWO_CLASS, 1, 3)
    assert (rep.count_bases, rep.count_i, rep.count_j, rep.count_ij) == (4, 2, 2, 1)
    assert rep.lhs == 4 and rep.rhs == 4
    assert rep.equal and rep.predicted_equal and rep.consistent and rep.applicable


def test_mason_basis_uniform_strict():
    rep = mason_basis_check(uniform(2, 3), 1, 2)
    assert rep.lhs == 3 and rep.rhs == 4
    assert not rep.equal and not rep.predicted_equal and rep.consistent


def test_mason_basis_parallel_pair_strict():
    rep = mason_basis_check(TWO_CLASS, 1, 2)
    assert rep.count_ij == 0 and rep.lhs == 0
    assert rep.lhs < rep.rhs
    assert not rep.predicted_equal and rep.consistent


def test_mason_basis_loop_degenerate_row():
    m = direct_sum(uniform(0, 1), uniform(2, 3))
    rep = mason_basis_check(m, 1, 2)
    assert not rep.applicable
    assert rep.lhs == 0 and rep.rhs == 0


def test_mason_basis_weighted_two_class_keeps_equality():
    a = (Fraction(1, 2), 3, Fraction(5, 7), 2)
    rep = mason_basis_check(TWO_CLASS, 1, 3, a)
    assert rep.equal  # product structure keeps the weighted case tight


def test_mason_basis_rejects_bad_input():
    with pytest.raises(ValueError):
        mason_basis_check(uniform(2, 3), 1, 1)
    with pytest.raises(Exception):
        mason_basis_check(uniform(1, 2), 1, 2)
    with pytest.raises(ValueError):
        mason_basis_check(uniform(2, 3), 1, 2, (0, 1, 1))


# -- independent-count inequality ------------------------------------------------------


def test_mason_indep_uniform_equality():
    rep = mason_indep_check(uniform(3, 4), 2)
    assert rep.lhs == 1 and rep.rhs == 1
    assert rep.equal and rep.predicted_equal and rep.consistent


def test_mason_indep_direct_sum_strict():
    rep = mason_indep_check(SUM_M, 2)
    assert rep.lhs == Fraction(3, 4) and rep.rhs == 1
    assert not rep.equal and not rep.predicted_equal and rep.consistent


def test_mason_indep_top_level_strict():
    rep = mason_indep_check(SUM_M, 3)
    assert rep.lhs == 0 and rep.rhs == Fraction(9, 16)
    assert not rep.equal and rep.consistent


def test_mason_indep_free_matroid_all_equal():
    for k in (1, 2, 3):
        rep = mason_indep_check(uniform(3, 3), k)
        assert rep.equal and rep.predicted_equal and rep.consistent


def test_mason_indep_weighted_free_is_strict_but_unasserted():
    a = (Fraction(1, 2), 1, 2)
    rep = mason_indep_check(uniform(3, 3), 2, a)
    assert rep.lhs < rep.rhs  # Newton inequality is strict off the diagonal
    assert not rep.predicted_equal and rep.consistent
    rep = mason_indep_check(uniform(3, 3), 2, (2, 2, 2))
    assert rep.equal and rep.predicted_equal and rep.consistent
    rep = mason_indep_check(uniform(3, 3), 3, a)
    assert rep.lhs == rep.rhs == 0 and rep.predicted_equal and rep.consistent


def test_mason_indep_range_checked():
    with pytest.raises(ValueError):
        mason_indep_check(uniform(2, 3), 0)
    with pytest.raises(ValueError):
        mason_indep_check(uniform(2, 3), 3)


# -- one rule for both count inequalities ----------------------------------------------


def test_holds_is_the_one_rule():
    # lhs <= rhs, and on an applicable row lhs = rhs exactly when predicted
    rep = mason_basis_check(TWO_CLASS, 1, 3)
    assert rep.holds and not replace(rep, predicted_equal=False).holds
    rep = mason_basis_check(TWO_CLASS, 1, 2)
    assert rep.holds and not replace(rep, predicted_equal=True).holds
    # a loop pair is inapplicable: only lhs <= rhs is asked of it
    rep = mason_basis_check(direct_sum(uniform(0, 1), uniform(2, 3)), 1, 2)
    assert rep.holds and replace(rep, predicted_equal=True).holds
    rep = mason_indep_check(uniform(3, 4), 2)
    assert rep.holds and not replace(rep, predicted_equal=False).holds
    assert not mason_basis_check(NOT_A_MATROID, 1, 2).holds


def test_pair_table_matches_rank_of():
    for m in SMALL_CATALOG:
        want = tuple(
            (
                x,
                y,
                m.rank_of(1 << x) == m.rank_of(1 << y) == 1,
                m.rank_of(1 << x | 1 << y) == 2,
            )
            for x, y in combinations(range(m.n), 2)
        )
        assert _pairs(m) == want, m
        # mason_basis_check reads a single row with the pair in either order
        for x, y, applicable, independent in want:
            assert _pair_row(m, y, x) == (y, x, applicable, independent), m


def test_count_rule_holds_at_seeded_points_for_every_pair_and_level():
    # the reports' verdict at two seeded points and one point of equal
    # weights per matroid, over every pair and every level; the predicted
    # equalities away from (1, ..., 1) are the independent pairs of the
    # two-class matroids, the levels below the girth at equal weights and
    # the free matroids' top levels, where both sides are 0
    rows = pair_equalities = level_equalities = 0
    for m in SMALL_CATALOG:
        n = m.n
        rng = derive(23, n, _matroid_key(m))
        equal = (Fraction(3, 2),) * n
        for a in (fraction_point(rng, n), fraction_point(rng, n), equal):
            reports = [mason_indep_check(m, k, a) for k in range(1, m.rank + 1)]
            level_equalities += sum(rep.predicted_equal for rep in reports)
            if m.rank >= 2:
                pairs = [
                    mason_basis_check(m, i, j, a)
                    for i, j in combinations(range(1, n + 1), 2)
                ]
                pair_equalities += sum(rep.predicted_equal for rep in pairs)
                reports += pairs
            for rep in reports:
                assert rep.holds, (m, a, rep)
                rows += 1
    assert (rows, pair_equalities, level_equalities) == (15774, 3 * 334, 89)


# -- jets against one polynomial per quantity ----------------------------------------


SMALL_CATALOG = [m for n in range(1, 6) for m in catalog(n)]


def _points(m, dim):
    """No point, (1, ..., 1) and two seeded rational points of dim coordinates."""
    rng = derive(17, dim, len(m.bases), min(m.bases))
    return [None, (1,) * dim, fraction_point(rng, dim), fraction_point(rng, dim)]


def test_mason_basis_reports_match_per_pair_partials():
    reports = 0
    for m in SMALL_CATALOG:
        if m.rank < 2:
            continue
        for a in _points(m, m.n):
            rows = jet_basis_rows(m, a)
            by_pair = {(rep.i, rep.j): rep for rep in rows}
            assert len(rows) == m.n * (m.n - 1) // 2
            for i in range(1, m.n + 1):
                for j in range(1, m.n + 1):
                    if i == j:
                        continue
                    want = mason_basis_report(m, i, j, a)
                    assert mason_basis_check(m, i, j, a) == want, (m, i, j, a)
                    if i < j:
                        assert by_pair[i, j] == want, (m, i, j, a)
                    reports += 1
    assert reports == 4 * 8154


def test_mason_indep_reports_match_slices():
    reports = 0
    for m in SMALL_CATALOG:
        for a in _points(m, m.n):
            rows = jet_indep_rows(m, a)
            assert [rep.k for rep in rows] == list(range(1, m.rank + 1))
            for rep in rows:
                want = mason_indep_report(m, rep.k, a)
                assert rep == want, (m, rep.k, a)
                assert mason_indep_check(m, rep.k, a) == want
                reports += 1
    assert reports == 4 * 1181


def test_hodge_pair_rows_match_polynomial_proportionality():
    tested = 0
    for m in SMALL_CATALOG:
        if m.rank < 2:
            continue
        n = m.n
        f, reduced = basis_poly(m), reduced_indep_poly(m)
        for p, points in (
            (f, _points(m, n)[1:]),
            (reduced, _points(m, n + 1)[1:] + [(0,) + (1,) * n]),
        ):
            pairs = [(i, j) for i in p.active for j in p.active if i < j]
            for a in points:
                report = SuiteReport("test", 0)
                _hodge_pair_rows(report, "hodge", p, [a], pairs)
                want = hodge_pair_counts(p, [a], pairs)
                assert report.rows[0].detail == "tested={} nonneg={}".format(*want)
                assert report.rows[0].status == "pass"
                tested += want[0]
    assert tested == 102004


def test_mason_rows_match_jet_reports():
    # the survey's count rows and equality entries, decided on integers,
    # against the Fraction reports read off the jets
    equalities = [0, 0]
    for seed in (1, 7):
        for m in SMALL_CATALOG:
            if m.rank < 2:
                continue
            got, want = ([], []), ([], [])
            rows = _mason_rows(m, "matroid", seed, *got)
            assert rows == jet_mason_rows(m, "matroid", seed, *want), (m, seed)
            assert got == want, (m, seed)
            assert all(row.status == "pass" for row in rows)
            equalities[0] += len(got[0])
            equalities[1] += len(got[1])
    assert equalities == [2 * 334, 2 * 78]


# x1x2 + x3x4: its two "bases" break the exchange axiom, so the count
# inequalities and the Hodge determinants must fail on it
NOT_A_MATROID = Matroid(4, frozenset({0b0011, 0b1100}), _trusted=True)


def test_mason_rows_fail_where_the_reports_fail():
    got, want = ([], []), ([], [])
    rows = _mason_rows(NOT_A_MATROID, "matroid", 1, *got)
    assert rows == jet_mason_rows(NOT_A_MATROID, "matroid", 1, *want)
    assert got == want
    status = {row.name: row.status for row in rows}
    assert status == {
        "basis-counts-equality-iff": "fail",
        "indep-counts-equality-iff": "pass",
        "weighted-strictness": "fail",
    }
    # pair (1, 2) compares |B| |B_12| = 2 with 2 (1 - 1/2) |B_1| |B_2| = 1
    rep = mason_basis_check(NOT_A_MATROID, 1, 2)
    assert (rep.lhs, rep.rhs) == (2, 1)
    assert rep == mason_basis_report(NOT_A_MATROID, 1, 2)


def test_hodge_pair_rows_count_nonnegative_determinants():
    p = HomogPoly(range(1, 5), 2, {(0, 0b0011): 1, (0, 0b1100): 1})
    pairs = [(i, j) for i in p.active for j in p.active if i < j]
    points = [(1, 1, 1, 1), (1, 2, 3, 4)]
    report = SuiteReport("test", 0)
    _hodge_pair_rows(report, "hodge", p, points, pairs)
    tested, nonneg = hodge_pair_counts(p, points, pairs)
    assert nonneg > 0
    assert report.rows[0].status == "fail"
    assert report.rows[0].detail == f"tested={tested} nonneg={nonneg}"


def test_single_basis_checks_compile_one_plan(monkeypatch):
    import mlz.polynomials as polynomials

    compiled = []
    plan_class = polynomials.HessianPlan
    monkeypatch.setattr(
        polynomials, "HessianPlan", lambda p: compiled.append(p) or plan_class(p)
    )
    m = direct_sum(uniform(2, 3), uniform(1, 2))
    for a in (None, (1, 2, 3, 4, 5), (Fraction(1, 2), 1, 1, 3, 2)):
        for i, j in ((1, 2), (2, 5), (4, 3)):
            assert mason_basis_check(m, i, j, a) == mason_basis_report(m, i, j, a)
    assert compiled == [basis_poly(m)]
    # the theorem suite and the survey's count rows fill that same plan
    theorem_suite(m, 1)
    _mason_rows(m, "matroid", 1, [], [])
    assert compiled.count(basis_poly(m)) == 1


def test_mason_point_length_is_checked():
    needs_3 = r"point needs 3 weights \(one per element\), got 2"
    with pytest.raises(ValueError, match=needs_3):
        mason_basis_check(uniform(2, 3), 1, 2, (1, 2))
    # the free matroid's top level compares 0 with 0 but still reads the point
    with pytest.raises(ValueError, match=needs_3):
        mason_indep_check(uniform(3, 3), 3, (1, 2))


# -- suites ------------------------------------------------------------------------------


def test_theorem_suite_uniform_2_3():
    suite = theorem_suite(uniform(2, 3), seed=7)
    assert not suite.failures
    by_name = {r.name: r for r in suite.rows}
    assert by_name["gradient-rank-basis"].status == "pass"
    assert by_name["gradient-rank-reduced-uniform"].status == "pass"
    assert by_name["hessian-basis-signature"].status == "pass"
    assert by_name["hessian-reduced-signature"].status == "skip"


def test_failing_signature_rows_name_their_point(monkeypatch):
    # a wrong inertia away from (1, ..., 1): U(2,3)'s basis row fails at
    # its first seeded point, and the reduced row of U(2,3) + U(1,1) at
    # its first fixed point, whose inertia comes from the point verdicts;
    # each names the point's text and the inertia
    import mlz.verify as verify
    from mlz.lefschetz import PointVerdicts
    from mlz.linalg import Inertia

    inertia_at, verdicts_at = verify.hessian_inertia, verify.point_verdicts

    def off(got, a):
        return got if set(a) == {1} else Inertia(got.pos + 1, got.neg - 1, got.zero)

    def off_verdicts(p, a):
        v = verdicts_at(p, a)
        return replace(v, inertia=off(v.inertia, a))

    monkeypatch.setattr(
        verify, "hessian_inertia", lambda p, a: off(inertia_at(p, a), a)
    )
    monkeypatch.setattr(verify, "point_verdicts", off_verdicts)
    m = uniform(2, 3)
    seeded = _fmt_point(fraction_point(derive(1, 3, verify._matroid_key(m)), 3))
    assert seeded == "7/9,15,15/11"
    row = {r.name: r for r in theorem_suite(m, 1).rows}["hessian-basis-signature"]
    assert row.status == "fail"
    assert row.detail == "points=4 first-bad=@(7/9,15,15/11):(+2,-1,0z)"
    row = {r.name: r for r in theorem_suite(SUM_M, 1).rows}["hessian-reduced-signature"]
    assert row.status == "fail"
    assert row.detail == "points=5 first-bad=@(0,1,1,1,1):(+2,-3,0z)"
    # a value that is not positive at a fixed point fails the row too
    inapplicable = PointVerdicts(False, None, None, None)
    monkeypatch.setattr(verify, "point_verdicts", lambda p, a: inapplicable)
    row = {r.name: r for r in theorem_suite(SUM_M, 1).rows}["hessian-reduced-signature"]
    assert row.status == "fail"
    assert row.detail == "points=5 first-bad=@(0,1,1,1,1):inapplicable"


def test_theorem_suite_direct_sum():
    suite = theorem_suite(SUM_M, seed=7)
    assert not suite.failures
    by_name = {r.name: r for r in suite.rows}
    assert by_name["gradient-rank-reduced"].status == "pass"
    assert by_name["hessian-reduced-signature"].status == "pass"


def test_theorem_suite_with_loop_records_vanishing():
    m = direct_sum(uniform(0, 1), uniform(2, 3))
    suite = theorem_suite(m, seed=7)
    assert not suite.failures
    by_name = {r.name: r for r in suite.rows}
    assert by_name["loop-partials-vanish"].detail == "loops=1"
    assert by_name["gradient-rank-basis"].status == "skip"


def test_theorem_suite_deterministic():
    rows1 = theorem_suite(uniform(2, 4), seed=5).rows
    rows2 = theorem_suite(uniform(2, 4), seed=5).rows
    assert rows1 == rows2


def test_morphism_suite_final_example():
    phi = validate_morphism(uniform(3, 3), uniform(1, 1), [1, 1, 1])
    suite = morphism_suite(phi, seed=3)
    assert not suite.failures
    by_name = {r.name: r for r in suite.rows}
    assert "classes=-" in by_name["degeneracy-trichotomy"].detail
    assert "grad_rank=4" in by_name["degeneracy-trichotomy"].detail
    recorded = by_name["reduced-point-verdicts"].detail
    assert "@(0,1,1,1):slp1=False" in recorded


def test_morphism_suite_case_b():
    loop_coloop = direct_sum(uniform(0, 1), uniform(1, 1))
    phi = validate_morphism(uniform(2, 3), loop_coloop, [1, 2, 2])
    suite = morphism_suite(phi, seed=3)
    assert not suite.failures
    by_name = {r.name: r for r in suite.rows}
    assert "classes=B" in by_name["degeneracy-trichotomy"].detail
    assert by_name["annihilator-exact"].status == "pass"


def test_morphism_suite_identity_records_shape():
    m = uniform(2, 3)
    phi = validate_morphism(m, m, [1, 2, 3])
    suite = morphism_suite(phi, seed=3)
    assert not suite.failures
    by_name = {r.name: r for r in suite.rows}
    assert by_name["equal-rank-shape"].status == "pass"
    assert "classes=A" in by_name["degeneracy-trichotomy"].detail


def test_morphism_suite_non_simple_source_checks_sufficiency_only():
    src = direct_sum(uniform(1, 2), uniform(1, 1))  # elements 1,2 parallel
    target = direct_sum(uniform(0, 1), uniform(1, 1))
    phi = validate_morphism(src, target, [1, 1, 2])
    suite = morphism_suite(phi, seed=3)
    assert not suite.failures
    by_name = {r.name: r for r in suite.rows}
    assert "degeneracy-trichotomy" not in by_name
    assert by_name["degeneracy-sufficiency"].status == "pass"
    assert "classes=C" in by_name["degeneracy-sufficiency"].detail


# -- basis-family memo ----------------------------------------------------------------


def test_morphism_suite_memo_matches_cold_runs():
    # every morphism from a simple source on <= 4 elements to a target on
    # <= 3, run warm in sweep order and cold, against the per-map oracle
    targets = [t for tn in (1, 2, 3) for t in catalog(tn)]
    maps = [
        phi
        for n in range(1, 5)
        for m in catalog(n)
        if m.is_simple
        for phi in enumerate_morphisms(m, targets)
    ]
    assert len(maps) == 5095
    basis_family.cache_clear()
    warm = [morphism_suite(phi, seed=5).rows for phi in maps]
    assert basis_family.cache_info().currsize < len(maps) // 10
    for phi, rows in zip(maps, warm):
        assert per_map_morphism_suite(phi, seed=5).rows == rows, (
            phi.source,
            phi.target,
            phi.map,
        )
    for phi, rows in zip(maps, warm):
        basis_family.cache_clear()
        assert morphism_suite(phi, seed=5).rows == rows, (phi.source, phi.target, phi.map)


def test_shared_morphism_rows_key_on_source_and_loop_preimage():
    # real maps cannot give a family whose loop preimage or hyperplane
    # preimages disagree with its source, so such families are made from
    # a real one by hand
    m = uniform(2, 3)
    bases = morphism_bases(validate_morphism(m, uniform(1, 1), [1, 1, 1]))
    assert bases.source is m and bases.loops == 0
    basis_family.cache_clear()
    family = basis_family(bases)
    changed = {
        # element 1 lies in the bottom-level basis {1}
        "morphism-bases-extension": replace(bases, loops=0b001),
        # the source basis {1, 2} lies in this "hyperplane", so the top
        # level misses a basis of the source
        "morphism-bases-levels": replace(bases, hyperplanes=frozenset({0b011})),
    }

    def statuses(family):
        return {name: status for name, status, _ in _shared_rows(family).rows}

    for _ in range(2):  # cold, then kept
        assert set(statuses(family).values()) == {"pass"}
        for name, key in changed.items():
            assert basis_family(key) is not family
            assert statuses(basis_family(key))[name] == "fail"
    assert basis_family.cache_info().currsize == 3


def test_equal_sources_share_one_morphism_family():
    # a catalog source and an equal copy built from its bases key one family
    source = next(m for m in catalog(3) if m == uniform(2, 3))
    copy = validate_bases(3, [[1, 2], [1, 3], [2, 3]])
    assert copy is not source
    phis = [validate_morphism(m, uniform(1, 2), [1, 2, 2]) for m in (source, copy)]
    basis_family.cache_clear()
    family = basis_family(morphism_bases(phis[0]))
    assert basis_family(morphism_bases(phis[1])) is family
    rows = [morphism_suite(phi, seed=3).rows for phi in phis]
    assert rows[0] == rows[1]


def test_maps_sharing_a_basis_family_share_facts_but_not_seeded_rows():
    # both targets are all loops, so both maps have classes {C}
    m = uniform(2, 3)
    phi1 = validate_morphism(m, uniform(0, 1), [1, 1, 1])
    phi2 = validate_morphism(m, uniform(0, 2), [1, 2, 1])
    assert morphism_bases(phi1) == morphism_bases(phi2)
    family = basis_family(morphism_bases(phi1))
    assert basis_family(morphism_bases(phi2)) is family
    rows1, rows2 = (
        {r.name: r for r in morphism_suite(phi, seed=3).rows} for phi in (phi1, phi2)
    )
    for rows in (rows1, rows2):
        assert rows["degeneracy-trichotomy"].detail == (
            f"grad_rank={family.polys[1].grad_rank} classes=C"
        )
        assert rows["annihilator-exact"].status == "pass"
        assert rows["rank-zero-target-shape"].status == "pass"
    # two fixed-point verdicts, then two at this map's seeded points
    v1, v2 = (rows["reduced-point-verdicts"].detail.split() for rows in (rows1, rows2))
    assert v1[:2] == v2[:2] and v1[0].startswith("@(1,1,1,1):")
    assert v1[2:] != v2[2:]


# -- survey -------------------------------------------------------------------------------


@pytest.fixture(scope="module")
def survey2():
    return survey(2, seed=9)


def test_survey_no_counterexamples(survey2):
    assert survey2.ok
    assert survey2.matroid_count == 7  # 2 on one element, 5 on two


def test_survey_deterministic(survey2):
    again = survey(2, seed=9)
    assert "\n".join(survey2.to_jsonl_lines()) == "\n".join(again.to_jsonl_lines())


def test_survey_seed_changes_stream():
    a = survey(2, seed=1, morphisms=False)
    b = survey(2, seed=2, morphisms=False)
    assert a.ok and b.ok


def test_survey_formats(survey2):
    tsv = survey2.to_tsv()
    assert tsv.startswith("check\tpass\tfail\tskip\trecorded")
    assert "counterexamples\t0" in tsv
    text = survey2.to_text()
    assert "counterexamples: 0" in text
    lines = list(survey2.to_jsonl_lines())
    assert lines[0].startswith('{"counterexamples":0')


def test_survey_equality_catalogs_match_predicates():
    rep = survey(4, seed=1, morphisms=False)
    assert rep.ok
    # every recorded basis-count equality names a two-class matroid pair
    for entry in rep.equality_star:
        _, n, idx = entry["scope"].split(":")
        m = catalog(int(n))[int(idx)]
        i, j = entry["i"], entry["j"]
        assert len(m.parallel_decomposition.classes) == 2
        assert m.rank_of((1 << (i - 1)) | (1 << (j - 1))) == 2
    # every recorded indep-count equality happens strictly below the girth
    for entry in rep.equality_star2:
        _, n, idx = entry["scope"].split(":")
        m = catalog(int(n))[int(idx)]
        assert entry["k"] + 1 < m.girth


def test_survey_matroid_half_bytes_at_n5():
    # every count row and Hodge row of the 497 matroids on <= 5 elements,
    # where the pairs are many; the sha256 pins the JSONL bytes
    digest = hashlib.sha256()
    lines = 0
    for line in survey(5, seed=1, morphisms=False).to_jsonl_lines():
        digest.update(line.encode() + b"\n")
        lines += 1
    assert lines == 11097
    assert digest.hexdigest() == (
        "6d58caa135c0d3205638f40df5e9f04917171f39737aaff1f2b433a4d87529db"
    )


def test_survey_looks_up_each_morphism_once(monkeypatch):
    # each map reads its family off `morphism_bases` once; the levels are
    # built once per distinct family, on the first map with it
    import mlz.morphisms as mo
    from mlz.matroids import kept

    calls, built = [], []
    lookup, build = mo.morphism_bases, mo.MorphismBases.levels.fget.__wrapped__

    def levels(family):
        built.append(family)
        return build(family)

    monkeypatch.setattr(
        mo, "morphism_bases", lambda phi: calls.append(lookup(phi)) or calls[-1]
    )
    monkeypatch.setattr(mo.MorphismBases, "levels", property(kept(levels)))
    mo.basis_family.cache_clear()
    rep = survey(3, seed=1)
    assert len(calls) == rep.morphism_count
    assert 0 < len(built) == len(set(built)) == len(set(calls)) < len(calls)


def test_survey_calls_theorem_suite_through_the_module_once_per_matroid(monkeypatch):
    # the benchmark times each matroid by wrapping `verify.theorem_suite`
    import mlz.verify as verify

    suite, seen = verify.theorem_suite, []
    monkeypatch.setattr(
        verify, "theorem_suite", lambda m, seed: seen.append(m) or suite(m, seed)
    )
    report = verify.survey(3, seed=1, morphisms=False)
    assert seen == [m for n in range(1, 4) for m in catalog(n)]
    assert report.matroid_count == len(seen)


def test_survey_bounds():
    from mlz.matroids import MatroidError

    with pytest.raises(MatroidError):
        survey(7, seed=1)
