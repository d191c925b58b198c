"""Acceptance suite: every exit criterion as one test, zero tolerance.

Each test prints a single PASS line (visible with `pytest -v` through the
test name as well).  The criteria quantify over the full catalog of
labeled matroids on up to six elements and all matroid morphisms from
simple sources on up to five elements to targets on up to three.
"""

import hashlib
from fractions import Fraction

import pytest

from mlz import matroids as mt
from mlz import morphisms as mo
from mlz.lefschetz import (
    gradient_rank,
    hessian_inertia,
    lorentzian_witness,
    point_verdicts,
)
from mlz.linalg import inertia
from mlz.matroids import catalog, elems_of, uniform
from mlz.polynomials import (
    basis_poly,
    hessian_matrix,
    indep_poly,
    linear_apply,
    partial,
    reduced_indep_poly,
)
from mlz.sampling import SplitMix64, derive
from mlz.verify import (
    mason_basis_check,
    mason_indep_check,
    survey,
)

from _oracles import (
    closure_axiom_matroids,
    congruence,
    expand_class_sums,
    fraction_point,
    random_unimodular,
    rename_vars,
)

SEED = 1
N_MAX = 6


def _all_matroids(n_max=N_MAX):
    for n in range(1, n_max + 1):
        yield from catalog(n)


@pytest.fixture(scope="module")
def simple_rank2():
    return [m for m in _all_matroids() if m.is_simple and m.rank >= 2]


@pytest.fixture(scope="module")
def rank2_catalog():
    return [m for m in _all_matroids() if m.rank >= 2]


@pytest.fixture(scope="module")
def morphism_sweep():
    """Every valid morphism: simple sources n <= 5, targets on <= 3 elements."""
    targets = [t for tn in (1, 2, 3) for t in catalog(tn)]
    out = []
    for n in range(1, 6):
        for m in catalog(n):
            if m.is_simple:
                out.extend(mo.enumerate_morphisms(m, targets))
    return out


def test_criterion_01_basis_hessian_signature(simple_rank2):
    """Simple rank >= 2: the basis polynomial Hessian has signature
    (+1, -(n-1), 0) at the all-ones point and at three seeded points."""
    checked = 0
    for m in simple_rank2:
        f = basis_poly(m)
        rng = derive(SEED, 11, m.n, len(m.bases))
        points = [(1,) * m.n] + [fraction_point(rng, m.n) for _ in range(3)]
        for a in points:
            assert hessian_inertia(f, a).as_tuple() == (1, m.n - 1, 0), (m, a)
            checked += 1
    print(f"criterion 1: PASS ({checked} signatures over {len(simple_rank2)} matroids)")


def test_criterion_02_reduced_hessian_signature(simple_rank2):
    """Simple non-uniform rank >= 2: the reduced polynomial Hessian has
    signature (+1, -n, 0) on the whole closed slab x0 >= 0, x_i > 0."""
    checked = 0
    mats = [m for m in simple_rank2 if not m.is_uniform]
    for m in mats:
        reduced = reduced_indep_poly(m)
        rng = derive(SEED, 22, m.n, len(m.bases))
        points = [
            (0,) + (1,) * m.n,
            (1,) + (1,) * m.n,
            (Fraction(0),) + fraction_point(rng, m.n),
            fraction_point(rng, m.n + 1),
            fraction_point(rng, m.n + 1),
        ]
        for a in points:
            assert hessian_inertia(reduced, a).as_tuple() == (1, m.n, 0), (m, a)
            checked += 1
    print(f"criterion 2: PASS ({checked} signatures over {len(mats)} matroids)")


def test_criterion_03_gradient_ranks():
    """Simple: basis partials have full rank n; reduced partials have full
    rank n+1 except for uniform matroids, where (-1,1,...,1) annihilates."""
    simple = [m for m in _all_matroids() if m.is_simple]
    uniform_count = 0
    for m in simple:
        assert gradient_rank(basis_poly(m)) == m.n, m
        reduced = reduced_indep_poly(m)
        g = gradient_rank(reduced)
        if m.is_uniform:
            uniform_count += 1
            assert g < m.n + 1, m
            kernel = [Fraction(-1)] + [Fraction(1)] * m.n
            assert linear_apply(reduced, kernel).is_zero, m
        else:
            assert g == m.n + 1, m
    print(f"criterion 3: PASS ({len(simple)} simple, {uniform_count} uniform)")


def test_criterion_04_basis_count_equality_characterization(rank2_catalog):
    """Equality in the basis-count inequality at the all-ones point holds
    exactly for non-parallel pairs in a two-parallel-class matroid."""
    rows = 0
    for m in rank2_catalog:
        loops = m.loops
        for i in range(1, m.n + 1):
            if loops & (1 << (i - 1)):
                continue
            for j in range(i + 1, m.n + 1):
                if loops & (1 << (j - 1)):
                    continue
                rep = mason_basis_check(m, i, j)
                assert rep.lhs <= rep.rhs, (m, i, j)
                assert rep.consistent, (m, i, j, rep)
                rows += 1
    print(f"criterion 4: PASS ({rows} pairs over {len(rank2_catalog)} matroids)")


def test_criterion_05_indep_count_equality_characterization(rank2_catalog):
    """Equality in the normalized independent-count inequality at the
    all-ones point holds exactly below the girth, infinite girth included."""
    rows = 0
    for m in rank2_catalog:
        for k in range(1, m.rank + 1):
            rep = mason_indep_check(m, k)
            assert rep.lhs <= rep.rhs, (m, k)
            assert rep.consistent, (m, k, rep)
            rows += 1
    print(f"criterion 5: PASS ({rows} levels over {len(rank2_catalog)} matroids)")


def test_criterion_06_weighted_strictness(rank2_catalog):
    """At five seeded positive points per matroid: the weighted basis-count
    inequality is strict for non-parallel pairs when there are >= 3
    parallel classes, and the weighted independent-count inequality is
    strict at levels k with k+1 >= girth."""
    rows = 0
    for m in rank2_catalog:
        rng = derive(SEED, 66, m.n, len(m.bases))
        pd = m.parallel_decomposition
        three_classes = len(pd.classes) >= 3
        loops = m.loops
        for _ in range(5):
            a = fraction_point(rng, m.n)
            for i in range(1, m.n + 1):
                if loops & (1 << (i - 1)):
                    continue
                for j in range(i + 1, m.n + 1):
                    if loops & (1 << (j - 1)):
                        continue
                    rep = mason_basis_check(m, i, j, a)
                    assert rep.lhs <= rep.rhs, (m, i, j, a)
                    if three_classes and m.rank_of(
                        (1 << (i - 1)) | (1 << (j - 1))
                    ) == 2:
                        assert rep.lhs < rep.rhs, (m, i, j, a)
                        rows += 1
            for k in range(1, m.rank + 1):
                rep = mason_indep_check(m, k, a)
                assert rep.lhs <= rep.rhs, (m, k, a)
                if k + 1 >= m.girth:
                    assert rep.lhs < rep.rhs, (m, k, a)
                    rows += 1
    print(f"criterion 6: PASS ({rows} strict rows)")


def test_criterion_07_derivative_and_flat_identities():
    """Across the full catalog: loop partials vanish, partials are minors,
    parallel substitution reconstructs the polynomials, and minimal
    superflats partition the complement of every flat."""
    count = 0
    for m in _all_matroids():
        f = basis_poly(m)
        p = indep_poly(m)
        for e in range(1, m.n + 1):
            bit = 1 << (e - 1)
            if m.loops & bit:
                assert partial(f, e).is_zero and partial(p, e).is_zero, (m, e)
            else:
                sub, old_of = mt.contract(m, e)
                back = {k + 1: old_of[k] for k in range(len(old_of))}
                assert partial(f, e) == rename_vars(basis_poly(sub), back), (m, e)
                assert partial(p, e) == rename_vars(
                    indep_poly(sub), {0: 0, **back}
                ), (m, e)
        pd = m.parallel_decomposition
        for cls in pd.classes:
            es = elems_of(cls)
            for i, j in zip(es, es[1:]):
                assert partial(f, i) == partial(f, j), (m, i, j)
                assert partial(p, i) == partial(p, j), (m, i, j)
        if pd.classes:
            simp, _ = mt.simplify(m)
            groups = [elems_of(c) for c in pd.classes]
            assert expand_class_sums(basis_poly(simp), groups, m.n) == f, m
        for flat in m.flats:
            cover = 0
            for g in m.minimal_superflats(flat):
                diff = g & ~flat
                assert diff and not (cover & diff), (m, flat)
                cover |= diff
            assert cover == m.ground_mask & ~flat, (m, flat)
        count += 1
    print(f"criterion 7: PASS ({count} matroids)")


def test_criterion_08_sampled_lorentzian_and_degree1_equivalence():
    """n <= 5 catalog: the derivative log-concavity witness passes for both
    generating polynomials at three seeded points, the Hodge-Riemann check
    is true there, and it agrees with the Lefschetz check pointwise."""
    polys = 0
    for m in _all_matroids(5):
        rng = derive(SEED, 88, m.n, len(m.bases))
        for kind in ("basis", "indep"):
            poly = basis_poly(m) if kind == "basis" else indep_poly(m)
            if poly.degree < 2:
                continue
            dim = len(poly.active)
            points = [fraction_point(rng, dim) for _ in range(3)]
            assert lorentzian_witness(poly, points).passed, (m, kind)
            for a in points:
                v = point_verdicts(poly, a)
                assert v.value_positive, (m, kind, a)
                assert v.hrr1 is True, (m, kind, a)
                assert v.slp1 == v.hrr1, (m, kind, a)
            polys += 1
    print(f"criterion 8: PASS ({polys} polynomials)")


def test_criterion_09_degeneracy_trichotomy(morphism_sweep):
    """Every valid morphism from a simple source: the reduced polynomial
    loses first-partial independence exactly under conditions A/B/C, and
    each emitted annihilator kills it exactly."""
    deficient = 0
    for phi in morphism_sweep:
        _, reduced = mo.morphism_poly(phi)
        g = gradient_rank(reduced)
        verdict = mo.degeneracy_class(phi)
        assert (g < phi.source.n + 1) == bool(verdict.classes), (
            phi.source,
            phi.target,
            phi.map,
            g,
            verdict.classes,
        )
        if verdict.classes:
            deficient += 1
            assert linear_apply(reduced, verdict.annihilator).is_zero
    print(
        f"criterion 9: PASS ({len(morphism_sweep)} morphisms, "
        f"{deficient} degenerate)"
    )


def test_criterion_10_final_example():
    """The natural morphism from the free matroid on three elements to the
    one-coloop matroid: polynomial matches term for term, the Hessian at
    (0,1,1,1) is singular (no degree-1 Lefschetz there), yet none of the
    degeneracy conditions hold."""
    phi = mo.validate_morphism(uniform(3, 3), uniform(1, 1), [1, 1, 1])
    _, reduced = mo.morphism_poly(phi)
    e1 = {(2, 1 << k): 1 for k in range(3)}
    e2 = {(1, 0b111 ^ (1 << k)): 1 for k in range(3)}
    expected = {(0, 0b111): 1, **e1, **e2}
    assert reduced.terms == expected
    h = hessian_matrix(reduced, (0, 1, 1, 1))
    ine = inertia(h)
    assert ine.zero >= 1
    assert ine.as_tuple() == (1, 2, 1)
    v = point_verdicts(reduced, (0, 1, 1, 1))
    assert v.value_positive and v.slp1 is False
    assert mo.degeneracy_class(phi).classes == frozenset()
    print("criterion 10: PASS")


def test_criterion_11_eur_huh_inequality(morphism_sweep):
    """The normalized count inequality holds exactly for every enumerated
    morphism, and the survey emits its equality catalog deterministically.
    The sha256 pins the JSONL bytes, as `mlz survey --n 4 --seed 1
    --format json` prints them."""
    equalities = []
    for phi in morphism_sweep:
        for entry in mo.eur_huh_profile(phi):
            assert entry.lhs <= entry.rhs, (phi.source, phi.target, phi.map)
            if entry.equal:
                equalities.append((phi.map, entry.k, entry.lhs))
    rep_a = survey(4, seed=SEED)
    rep_b = survey(4, seed=SEED)
    assert rep_a.ok and rep_b.ok
    assert rep_a.equality_eur_huh == rep_b.equality_eur_huh
    assert "\n".join(rep_a.to_jsonl_lines()) == "\n".join(rep_b.to_jsonl_lines())
    digest = hashlib.sha256()
    for line in rep_a.to_jsonl_lines():
        digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == (
        "a338ae756cb677c0a1e5cb83b231acd4f1ccbd0db55b2b4c2152992a722eb792"
    )
    print(
        f"criterion 11: PASS ({len(equalities)} equality cases; "
        f"survey catalog of {len(rep_a.equality_eur_huh)} entries is stable)"
    )


def test_criterion_12_infrastructure():
    """The exchange-filtered enumeration agrees with the closure-axiom
    oracle for n <= 4, and inertia is invariant under 10 random unimodular
    congruences on each of 50 catalog Hessians."""
    for n in range(1, 5):
        ours = {(m.n, m.bases) for m in catalog(n)}
        assert ours == closure_axiom_matroids(n), n
    rng = SplitMix64(SEED)
    matrices = []
    for m in catalog(4):
        if m.rank >= 2:
            a = fraction_point(rng, m.n + 1)
            matrices.append(hessian_matrix(reduced_indep_poly(m), a))
        if len(matrices) == 50:
            break
    assert len(matrices) == 50
    for mat in matrices:
        base = inertia(mat)
        for _ in range(10):
            t = random_unimodular(rng, len(mat))
            assert inertia(congruence(mat, t)) == base
    print("criterion 12: PASS (oracle n<=4 agreement; 50x10 congruences)")
