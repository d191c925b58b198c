"""Theorem-level verdict suites and the exhaustive small-matroid survey.

Every claim the package verifies is bound to an exact computation here:
basis-count and independent-count log-concavity with their equality
characterizations, Hessian signatures at fixed and seeded points,
derivative/contraction identities, flat partitions, the degeneracy trichotomy
for morphisms, and the normalized morphism-count inequality.

The basis-count inequalities and the Hodge pair determinants read the
second-order jet (lam, A, H, g, s) of a polynomial p of degree d >= 2 at
a point a = A / lam, from one fill of the plan p keeps
(`polynomials.jet`, which states it with Euler's identity).  For the
basis polynomial of rank r, the Mason pair (i, j) at a is lhs = s H_ij / D
against rhs = 2 g_i g_j / D with D = r (r - 1) lam^(2r - 2); the counts
|B|, |B_i|, |B_j| and |B_ij| that a report prints are read off the
bases.  The independent-count levels come from one pass
over the independent sets, as the integer sums S_k with
f_k(a) = S_k / lam^k.  Every pair and level is decided on integers: the
pair compares s H_ij with 2 g_i g_j, whose denominator D is shared, and
level k compares S_(k-1) S_(k+1) C(n, k)^2 with S_k^2 C(n, k-1) C(n, k+1)
(`matroids.normalized_sides`, which a morphism's count profile reads too).
Both inequalities have one rule, `_holds`: lhs <= rhs, and on an
applicable row (a pair without a loop; every level) lhs = rhs exactly
when predicted.  A pair is predicted equal when it is independent in a
matroid with two parallel classes (`_pair_equality`), a level when
k + 1 < girth and the weights are all equal, or when k + 1 > n
(`_level_equality`).  The rule gives the reports' `holds`, which is the
exit code of `mlz mason`, and all three survey count rows.  A `Fraction`
is built only for what is printed: a survey equality entry, and the
sides of the one report of `mason_basis_check` or `mason_indep_check`.
f_M, its jet at (1, ..., 1), the pair table `_pairs` and the matroid's
seed key are kept on the matroid (`matroids.kept`, in its `_cache`
beside its tables), so the theorem suite and the count rows of one
matroid compile f_M's plan once and fill it at (1, ..., 1) once; both
only read the jet.  Catalog matroids outlive the survey, so `survey`
drops f_M, its jet and `_pairs` from each one once its suite and count
rows are out; the seed key stays, since every map's seed reads it.  No
other jet is kept, and nothing is kept on a minor.  The minor identities
are decided on masks: the term maps of the first partials of f_M and
P_M, and of f_M and P_M themselves, against the bases and independent
sets of `contract`'s and `simplify`'s matroids, carried to M's labels
through a deposit table or an expansion over the parallel classes; the
only minor polynomial built is the truncation's reduced one.  The
independent-set polynomial and its reduced form are built per suite and
dropped with it.  The Hodge pair rows decide proportionality on the
Gram matrix of the first partials that the polynomial keeps
(`HomogPoly.gram`), by Cauchy-Schwarz equality.

A morphism's rows split in two.  Every row but the two seeded points of
`reduced-point-verdicts` reads only the map's basis family, which holds
the source and the loop preimage; those rows are a fact kept on
the family (`_shared_rows`).  So are the verdicts of the seeded points:
the reduced polynomial is Lorentzian, and the kernel of its Hessian is
the same at every point of the open orthant, and at every point of the
open face x0 = 0 when each term's mask lies in that of an x0-free term
(the lemma and its proof are in `lefschetz.constant_verdict_strata`,
which decides both conditions).  The family's verdicts at (1, ..., 1)
and (0, 1, ..., 1) are then the verdicts of every interior and every
face point.  Per map, `morphism_suite` reads the family off the map
(`morphisms.morphism_bases`, interned by `basis_family`, so its levels
are built once per family), derives the map's stream, draws its two
seeded points for the text the row prints (`sampling.seeded_point`),
stamps its scope on the shared rows and the family's verdicts on the
points, and fills and eliminates a seeded point's Hessian only in a
stratum where the family's certificate does not hold.

All decisions are exact rational comparisons; there is no tolerance
anywhere.  Suites emit CheckRow records (pass / fail / skip / recorded);
`survey` aggregates them over the full catalog of labeled matroids and
morphisms, with every sampled point derived from a recorded 64-bit seed so
reports are reproducible byte for byte.  Every sampled point, of the
matroid suites too, comes from `sampling.seeded_point` as integers: the
rational point times the lcm of its denominators, a positive scale that
keeps every sign, inertia and equality the checks read.  A failing
Hessian-signature row names its first bad point by that sampler's text.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import NamedTuple, Optional, Sequence

from . import matroids as mt
from . import morphisms as mo
from .lefschetz import (
    constant_verdict_strata,
    hessian_inertia,
    lorentzian_witness,
    point_verdicts,
)
from .linalg import Inertia, clear_denominators
from .matroids import Matroid, elems_of, kept, submasks
from .polynomials import (
    HomogPoly,
    Jet,
    basis_poly,
    indep_poly,
    jet,
    linear_apply,
    partial,
    reduced_indep_poly,
)
from .sampling import derive, seeded_point

SEEDED_HESSIAN_POINTS = 3
SEEDED_MASON_POINTS = 5


# -- facts kept on the matroid ----------------------------------------------


@kept
def _fm(m: Matroid) -> HomogPoly:
    """f_M, kept on the matroid with the plan and rank it computes."""
    return basis_poly(m)


@kept
def _fm_jet(m: Matroid) -> Jet:
    """f_M's jet at (1, ..., 1) (rank >= 2), kept on the matroid for the
    `hodge-pair-det-basis` row and the count rows, which only read it."""
    return jet(_fm(m), (1,) * m.n)


@kept
def _matroid_key(m: Matroid) -> int:
    """Stable small integer derived from the basis family (order-free)."""
    acc = 0
    for b in sorted(m.bases):
        acc = (acc * 1000003 + b + 1) & ((1 << 64) - 1)
    return acc


def _pair_row(m: Matroid, x: int, y: int) -> tuple[int, int, bool, bool]:
    """(x, y, applicable, independent) for distinct 0-based elements:
    applicable when neither is a loop, independent when the pair has
    rank 2 (read off `cooccurrence`)."""
    loops = m.loops
    applicable = not (loops >> x & 1 or loops >> y & 1)
    return x, y, applicable, bool(m.cooccurrence[x] >> y & 1)


@kept
def _pairs(m: Matroid) -> tuple[tuple[int, int, bool, bool], ...]:
    """`_pair_row` for each pair x < y, in lexicographic order."""
    return tuple(_pair_row(m, x, y) for x in range(m.n) for y in range(x + 1, m.n))


# -- the count inequalities: one prediction each, one rule ----------------------


def _pair_equality(m: Matroid, independent: bool) -> bool:
    """The basis form's prediction: equality exactly at an independent pair
    of a matroid with two parallel classes.  Such a matroid has rank 2 and
    f_M = (sum C_1)(sum C_2), so the pair is an equality at every positive
    point, not only at (1, ..., 1)."""
    return independent and len(m.parallel_decomposition.classes) == 2


def _level_equality(k: int, n: int, girth, equal_weights: bool) -> bool:
    """The normalized independent form's prediction at level k: equality
    exactly when k + 1 < girth and the weights are all equal, or when
    k + 1 > n, where both sides are 0.  Below the girth the normalized
    slices are the elementary symmetric means of the weights, all equal
    when the weights are, and Newton's inequality between them is strict
    unless all weights are equal."""
    return k + 1 < girth and equal_weights or k + 1 > n


def _holds(lhs, rhs, applicable: bool, predicted: bool) -> bool:
    """The one verdict rule of both count inequalities: lhs <= rhs, and on
    an applicable row lhs = rhs exactly when predicted."""
    return lhs <= rhs and (not applicable or (lhs == rhs) == predicted)


@dataclass(frozen=True)
class MasonBasisReport:
    """One basis-count log-concavity verdict for a pair of elements.

    lhs = f(a) * (didj f)(a), rhs = 2(1 - 1/r) (di f)(a) * (dj f)(a); at the
    all-ones point these are the counts |B|*|B_ij| and 2(1-1/r)|B_i|*|B_j|.
    Rows where i or j is a loop are degenerate (lhs = rhs = 0) and are
    flagged inapplicable rather than raising.
    """

    i: int
    j: int
    count_bases: int
    count_i: int
    count_j: int
    count_ij: int
    lhs: Fraction
    rhs: Fraction
    equal: bool
    predicted_equal: bool
    consistent: bool
    applicable: bool
    point: Optional[tuple]

    @property
    def holds(self) -> bool:
        """The report's verdict under `_holds`."""
        return _holds(self.lhs, self.rhs, self.applicable, self.predicted_equal)


@dataclass(frozen=True)
class MasonIndepReport:
    k: int
    lhs: Fraction
    rhs: Fraction
    equal: bool
    predicted_equal: bool
    consistent: bool
    point: Optional[tuple]

    @property
    def holds(self) -> bool:
        """The report's verdict under `_holds`; every level is applicable."""
        return _holds(self.lhs, self.rhs, True, self.predicted_equal)


def _weights(m: Matroid, point: Optional[Sequence]) -> Optional[tuple]:
    if point is None:
        return None
    at = tuple(point)
    if len(at) != m.n:
        raise ValueError(
            f"point needs {m.n} weights (one per element), got {len(at)}"
        )
    if any(v <= 0 for v in at):
        raise ValueError("weights must be strictly positive")
    return at


def _pair_sides(jt: Jet, x: int, y: int) -> tuple[int, int]:
    """The Mason pair (x + 1, y + 1) on integers: s H_xy against
    2 g_x g_y, its lhs and rhs times their shared positive denominator
    `_pair_den`."""
    return jt.s * jt.h[x][y], 2 * jt.g[x] * jt.g[y]


def _pair_den(r: int, lam: int) -> int:
    return r * (r - 1) * lam ** (2 * r - 2)


def mason_basis_check(
    m: Matroid, i: int, j: int, point: Optional[Sequence] = None
) -> MasonBasisReport:
    """The basis-count report of the pair (i, j) at the point, or at
    (1, ..., 1) when there is none: decided by `_pair_sides` on f_M's jet
    there, whose integers, over `_pair_den`, are the printed lhs and rhs.
    The counts |B|, |B_i|, |B_j| and |B_ij| are read off the bases."""
    n, r = m.n, m.rank
    if r < 2:
        raise mt.MatroidError("basis-count check needs rank >= 2")
    if i == j:
        raise ValueError("the two elements must be distinct")
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError("element out of range")
    at = _weights(m, point)
    jt = jet(_fm(m), at or (1,) * n)
    x, y = i - 1, j - 1
    _, _, applicable, independent = _pair_row(m, x, y)
    lhs, rhs = _pair_sides(jt, x, y)
    den = _pair_den(r, jt.lam)
    predicted_equal = _pair_equality(m, independent)
    equal = lhs == rhs
    return MasonBasisReport(
        i=i,
        j=j,
        count_bases=len(m.bases),
        count_i=sum(b >> x & 1 for b in m.bases),
        count_j=sum(b >> y & 1 for b in m.bases),
        count_ij=sum(b >> x & b >> y & 1 for b in m.bases),
        lhs=Fraction(lhs, den),
        rhs=Fraction(rhs, den),
        equal=equal,
        predicted_equal=predicted_equal,
        consistent=equal == predicted_equal,
        applicable=applicable,
        point=at,
    )


def _level_sums(masks: Sequence[int], a: Sequence[int], r: int) -> list[int]:
    """S_k for k = 0..r + 1: the sum over the independent k-sets of the
    product of their integer weights a (S_(r+1) = 0), so that
    f_k(a / lam) = S_k / lam^k.

    One pass over `masks`, the independent sets in increasing order: the
    set minus its lowest element is independent and comes first, so each
    subset product extends an earlier one.
    """
    sums = [0] * (r + 2)
    prods = {0: 1}
    for s in masks:
        if s:
            low = s & -s
            prods[s] = prods[s ^ low] * a[low.bit_length() - 1]
        sums[s.bit_count()] += prods[s]
    return sums


def mason_indep_check(
    m: Matroid, k: int, point: Optional[Sequence] = None
) -> MasonIndepReport:
    """Normalized independent-count log-concavity at level k.

    The level r+1 slice is zero.  At k+1 = n+1 (the free matroid's top
    level) the cross-multiplied form k(n-k)f_k^2 vs (n-k+1)(k+1)f_(k+1)f_(k-1)
    vanishes on both sides, so the report carries lhs = rhs = 0, the
    equality `_level_equality` predicts there.  The verdict and the
    printed sides are `matroids.normalized_sides` of the level sums, the
    sides over lam^(2k) times its denominator.
    """
    n = m.n
    if not 1 <= k <= m.rank:
        raise ValueError(f"level {k} out of range 1..{m.rank}")
    at = _weights(m, point)
    lam, a = clear_denominators(at or (1,) * n)
    sums = _level_sums(sorted(m.independent_masks), a, m.rank)
    lhs, rhs, den = mt.normalized_sides(n, sums, k)
    den *= lam ** (2 * k)
    predicted_equal = _level_equality(k, n, m.girth, len(set(a)) == 1)
    equal = lhs == rhs
    return MasonIndepReport(
        k=k,
        lhs=Fraction(lhs, den),
        rhs=Fraction(rhs, den),
        equal=equal,
        predicted_equal=predicted_equal,
        consistent=equal == predicted_equal,
        point=at,
    )


# -- suite plumbing ------------------------------------------------------------


class CheckRow(NamedTuple):
    """One verdict of a suite; a named tuple, since a survey makes one per
    check of every matroid and every morphism."""

    scope: str
    name: str
    status: str  # pass | fail | skip | recorded
    detail: str = ""

    def to_json_dict(self) -> dict:
        return {
            "scope": self.scope,
            "check": self.name,
            "status": self.status,
            "detail": self.detail,
        }


@dataclass
class SuiteReport:
    scope: str
    seed: int
    rows: list[CheckRow] = field(default_factory=list)

    def add(self, name: str, status: str, detail: str = ""):
        self.rows.append(CheckRow(self.scope, name, status, detail))

    def check(self, name: str, ok: bool, detail: str = ""):
        self.add(name, "pass" if ok else "fail", detail)

    @property
    def failures(self) -> list[CheckRow]:
        return [r for r in self.rows if r.status == "fail"]


def _fmt_point(point: Sequence) -> str:
    return ",".join(map(str, point))


# -- per-matroid theorem suite --------------------------------------------------


def _deposit_table(old_of: Sequence[int]) -> list[int]:
    """dep[s] for every mask s of a minor on {1..len(old_of)}: the mask of
    the elements old_of[k - 1] over the elements k of s."""
    dep = [0] * (1 << len(old_of))
    for s in range(1, len(dep)):
        low = s & -s
        dep[s] = dep[s ^ low] | 1 << (old_of[low.bit_length() - 1] - 1)
    return dep


def _is_unit_sum(terms: dict, keys: list) -> bool:
    """Whether a term map is the sum of one monomial per key, each with
    coefficient 1 (a key listed twice would sum to 2)."""
    return len(keys) == len(terms) and terms == dict.fromkeys(keys, 1)


def _kernel_vector_annihilates(p: HomogPoly) -> bool:
    """(-1, 1, ..., 1) over x0..xn kills the polynomial exactly."""
    coeffs = [-1] + [1] * (len(p.active) - 1)
    return linear_apply(p, coeffs).is_zero


def _signature_row(
    report: SuiteReport,
    name: str,
    inertias: Sequence[tuple[str, Optional[Inertia]]],
    expect: tuple[int, int, int],
):
    """Each point's Hessian inertia, given with the point's text, against
    `expect`; an inertia of None (the value there is not positive) fails
    the row.  A failure names its first bad point by its text and inertia."""
    bad = ""
    for text, got in inertias:
        if got is None or got.as_tuple() != expect:
            bad = f" first-bad=@({text}):"
            bad += "inapplicable" if got is None else got.render()
            break
    report.check(name, not bad, f"points={len(inertias)}{bad}")


def _hodge_pair_rows(
    report: SuiteReport,
    name: str,
    p: HomogPoly,
    jets: Sequence[Jet],
    pairs: Sequence[tuple[int, int]],
):
    """Exact 2x2 Hodge determinant check against each (point, pair, t), with
    p's jet given at each point.

    With l1 the directional derivative along the point a itself and
    l2 = di + t*dj, whenever l1 p and l2 p are not proportional the
    determinant (l1l1 p)(a)(l2l2 p)(a) - ((l1l2 p)(a))^2 must be strictly
    negative.  Every entry is read off the jet of p at a, taken at the
    integer point A (a positive rescaling keeps the sign): l1l1 p = s,
    l1l2 p = g_i + t g_j and l2l2 p = H_ii + 2t H_ij + t^2 H_jj.  The rows
    of the gradient matrix G are the first partials of p, so l1 p and l2 p
    are the vectors u = G^T A and v = G_i + t G_j, and they are
    proportional exactly when Cauchy-Schwarz is an equality,
    (u.u)(v.v) = (u.v)^2.  All three dot products come from p's Gram
    matrix Gamma = G G^T: u.u = A^T Gamma A, u.v = (Gamma A)_i + t (Gamma A)_j
    and v.v = Gamma_ii + 2t Gamma_ij + t^2 Gamma_jj.
    """
    gram = p.gram
    pos = {v: k for k, v in enumerate(p.active)}
    bad = 0
    tested = 0
    for _, a, h, g, s in jets:
        if s <= 0:  # p(a) <= 0
            continue
        ga = [sum(map(mul, row, a)) for row in gram]
        uu = sum(map(mul, a, ga))
        for i, j in pairs:
            x, y = pos[i], pos[j]
            gxx, gxy, gyy = gram[x][x], gram[x][y], gram[y][y]
            for t in (0, 1, -1):
                uv = ga[x] + t * ga[y]
                if uu * (gxx + 2 * t * gxy + t * t * gyy) == uv * uv:
                    continue
                l1l2 = g[x] + t * g[y]
                l2l2 = h[x][x] + 2 * t * h[x][y] + t * t * h[y][y]
                tested += 1
                if s * l2l2 - l1l2 * l1l2 >= 0:
                    bad += 1
    report.check(name, bad == 0, f"tested={tested} nonneg={bad}")


def theorem_suite(m: Matroid, seed: int) -> SuiteReport:
    """All applicable single-matroid checks, exact, seeded where sampled."""
    n, r = m.n, m.rank
    scope = f"matroid(n={n},rank={r})"
    report = SuiteReport(scope, seed)
    rng = derive(seed, n, _matroid_key(m))
    simple = m.is_simple
    f = _fm(m)
    p = indep_poly(m)
    reduced = reduced_indep_poly(m)

    # linear independence of the first partials
    if simple:
        g = f.grad_rank
        report.check("gradient-rank-basis", g == n, f"rank={g} expected={n}")
        g2 = reduced.grad_rank
        if m.is_uniform:
            ok = g2 < n + 1 and _kernel_vector_annihilates(reduced)
            report.check(
                "gradient-rank-reduced-uniform", ok, f"rank={g2} kernel-verified"
            )
        else:
            report.check(
                "gradient-rank-reduced", g2 == n + 1, f"rank={g2} expected={n+1}"
            )
    else:
        report.add("gradient-rank-basis", "skip", "source not simple")

    # Hessian signature of the basis polynomial on the open orthant
    if simple and r >= 2:
        pts = [(_fmt_point((1,) * n), (1,) * n)] + [
            seeded_point(rng, n) for _ in range(SEEDED_HESSIAN_POINTS)
        ]
        inertias = [(text, hessian_inertia(f, a)) for text, a in pts]
        _signature_row(report, "hessian-basis-signature", inertias, (1, n - 1, 0))
    else:
        report.add("hessian-basis-signature", "skip", "needs simple, rank >= 2")

    # the reduced polynomial's verdicts at (0, 1, ..., 1) and (1, ..., 1),
    # read by both the signature row and the quotient Hodge-Riemann row
    fixed_pts = ((0,) + (1,) * n, (1,) * (n + 1))
    fixed = {a: point_verdicts(reduced, a) for a in fixed_pts} if r >= 2 else {}

    # Hessian signature of the reduced polynomial on the closed x0 >= 0 slab
    if simple and r >= 2 and not m.is_uniform:
        pts = [
            seeded_point(rng, n + 1, zeros=1),
            seeded_point(rng, n + 1),
            seeded_point(rng, n + 1),
        ]
        inertias = [(_fmt_point(a), v.inertia) for a, v in fixed.items()] + [
            (text, hessian_inertia(reduced, a)) for text, a in pts
        ]
        _signature_row(report, "hessian-reduced-signature", inertias, (1, n, 0))
    else:
        report.add(
            "hessian-reduced-signature", "skip", "needs simple non-uniform rank >= 2"
        )

    # quotient Hodge-Riemann verdicts hold for every matroid of rank >= 2
    if r >= 2:
        seeded = point_verdicts(reduced, seeded_point(rng, n + 1)[1])
        verdicts = [*fixed.values(), seeded]
        report.check(
            "hrr1-reduced-quotient",
            all(v.hrr1 for v in verdicts),
            f"grad_rank={reduced.grad_rank} points={len(verdicts)}",
        )
    else:
        report.add("hrr1-reduced-quotient", "skip", "rank < 2")

    # derivative identities against minors, on the first partials
    # d_e f_M and d_e P_M, each built once
    df = {e: partial(f, e) for e in range(1, n + 1)}
    dp = {e: partial(p, e) for e in range(1, n + 1)}
    loop_ok = all(df[e].is_zero and dp[e].is_zero for e in elems_of(m.loops))
    report.check("loop-partials-vanish", loop_ok, f"loops={m.loops.bit_count()}")

    # d_e f_M and d_e P_M against the bases and independent sets of M/e,
    # each carried to M's labels by a deposit table read off `contract`'s
    # relabeling
    contract_f_ok = True
    contract_p_ok = True
    for e in range(1, n + 1):
        if m.loops & (1 << (e - 1)):
            continue
        sub, old_of = mt.contract(m, e)
        dep = _deposit_table(old_of)
        if not _is_unit_sum(df[e].terms, [(0, dep[b]) for b in sub.bases]):
            contract_f_ok = False
        keys = [(n - 1 - s.bit_count(), dep[s]) for s in sub.independent_masks]
        if not _is_unit_sum(dp[e].terms, keys):
            contract_p_ok = False
    report.check("contraction-partial-basis", contract_f_ok)
    report.check("contraction-partial-indep", contract_p_ok)

    pd = m.parallel_decomposition
    par_ok = True
    for cls in pd.classes:
        es = elems_of(cls)
        for i, j in zip(es, es[1:]):
            if df[i] != df[j] or dp[i] != dp[j]:
                par_ok = False
    report.check("parallel-partials-equal", par_ok)

    # f_M and P_M are the simplification's with x_k -> the sum of the x_e
    # over class k: element k of `simplify`'s matroid stands for class k,
    # and its mask T for every choice of one element from each class in T
    if pd.classes:
        simp, _ = mt.simplify(m)
        choices = [[1 << (e - 1) for e in elems_of(c)] for c in pd.classes]
        expand = {0: [0]}
        for t in sorted(simp.independent_masks)[1:]:  # t minus its low bit first
            low = t & -t
            picks = choices[low.bit_length() - 1]
            expand[t] = [x | b for x in expand[t ^ low] for b in picks]
        keys_f = [(0, x) for t in simp.bases for x in expand[t]]
        keys_p = [(n - t.bit_count(), x) for t, xs in expand.items() for x in xs]
        sub_ok = _is_unit_sum(f.terms, keys_f) and _is_unit_sum(p.terms, keys_p)
        report.check("parallel-substitution", sub_ok, f"classes={len(choices)}")
    else:
        report.add("parallel-substitution", "skip", "every element is a loop")

    if r >= 2 and not m.loops:
        trunc = mt.truncate(m, 1)
        report.check(
            "reduced-truncation-partial",
            partial(reduced, 0) == reduced_indep_poly(trunc),
        )
    else:
        report.add("reduced-truncation-partial", "skip", "needs loopless rank >= 2")

    # the closed form against the derivative route: d/dx0 of indep_poly,
    # n - r times
    by_derivatives = p
    for _ in range(n - r):
        by_derivatives = partial(by_derivatives, 0)
    report.check("reduced-closed-form", reduced == by_derivatives)

    flats_ok = True
    for flat in m.flats:
        rest = m.ground_mask & ~flat
        cover = 0
        for g in m.minimal_superflats(flat):
            part = g & ~flat
            if cover & part:
                flats_ok = False
            cover |= part
        if cover != rest:
            flats_ok = False
    report.check("flat-partition", flats_ok, f"flats={len(m.flats)}")

    # sampled Lorentzian witnesses and degree-1 equivalences (small n only)
    if n <= 5:
        wit_pts = [seeded_point(rng, n)[1] for _ in range(3)]
        wit_pts_p = [seeded_point(rng, n + 1)[1] for _ in range(3)]
        if f.degree >= 2:
            w = lorentzian_witness(f, wit_pts)
            report.check(
                "lorentzian-witness-basis",
                w.passed,
                f"checked={w.checked} sampled={w.sampled}",
            )
        else:
            report.add("lorentzian-witness-basis", "skip", "degree < 2")
        if p.degree >= 2:
            w = lorentzian_witness(p, wit_pts_p)
            report.check(
                "lorentzian-witness-indep",
                w.passed,
                f"checked={w.checked} sampled={w.sampled}",
            )
        else:
            report.add("lorentzian-witness-indep", "skip", "degree < 2")

        agree_ok = True
        hrr_ok = True
        for poly, pts in ((f, wit_pts), (p, wit_pts_p)):
            if poly.degree < 2:
                continue
            for a in pts:
                v = point_verdicts(poly, a)
                if not v.value_positive or v.slp1 != v.hrr1:
                    agree_ok = False
                if not v.hrr1:
                    hrr_ok = False
        report.check("slp1-matches-hrr1", agree_ok)
        report.check("hrr1-at-positive-points", hrr_ok)
    else:
        report.add("lorentzian-witness-basis", "skip", "n > 5")
        report.add("lorentzian-witness-indep", "skip", "n > 5")

    # pointwise eigenvalue bound on the closed orthant (sampled)
    if n <= 5:
        bound_ok = True
        for poly, dim in ((f, n), (p, n + 1)):
            if poly.degree < 2:
                continue
            for _ in range(2):
                _, a = seeded_point(rng, dim, zeros=rng.next64())
                if hessian_inertia(poly, a).pos > 1:
                    bound_ok = False
        report.check("closed-orthant-eigenvalue-bound", bound_ok)

    # Hodge pair determinants (strictness engine behind the inequalities)
    if r >= 2:
        nonloops = [e for e in range(1, n + 1) if not m.loops & (1 << (e - 1))]
        pairs = [(x + 1, y + 1) for x, y, _, independent in _pairs(m) if independent]
        if pairs:
            _hodge_pair_rows(
                report,
                "hodge-pair-det-basis",
                f,
                [_fm_jet(m), jet(f, seeded_point(rng, n)[1])],
                pairs,
            )
        # for the reduced polynomial, pair x0 with every non-loop plus a
        # chain of consecutive non-loop pairs; enough to exercise both the
        # truncation route and the elementwise route without quadratic cost
        pairs_red = [(0, j) for j in nonloops] + [
            (i, j)
            for i, j in zip(nonloops, nonloops[1:])
            if _pair_row(m, i - 1, j - 1)[3]
        ]
        _hodge_pair_rows(
            report,
            "hodge-pair-det-reduced",
            reduced,
            [jet(reduced, (1,) + (1,) * n), jet(reduced, (0,) + (1,) * n)],
            pairs_red,
        )
    return report


# -- per-morphism suite ----------------------------------------------------------


def _render_verdict(v) -> str:
    """One verdict of the `reduced-point-verdicts` row, after the
    "@(point):" that names its point."""
    if not v.value_positive:
        return "inapplicable"
    return f"slp1={v.slp1},hrr1={v.hrr1},inertia={v.inertia.render()}"


class _SharedRows(NamedTuple):
    """The rows of a morphism's suite that do not depend on the map, and the
    rendered verdicts its seeded points get without an elimination."""

    rows: tuple[tuple[str, str, str], ...]  # (name, status, detail), in order
    fixed: Optional[str]  # fixed-point verdicts; None below degree 2
    # the verdict at every interior point, then at every point of the face
    # x0 = 0; None where `constant_verdict_strata` proves no such verdict
    interior: Optional[str]
    face: Optional[str]


@kept
def _shared_rows(family: mo.MorphismBases) -> _SharedRows:
    """Every row of `morphism_suite` but its seeded points, for the maps
    with this basis family, and the rendered verdicts those points get
    where `constant_verdict_strata` proves them constant.

    The rows read the family's levels, source (its bases, independent sets
    and simplicity) and loop preimage, all of them read off the family's
    fields, so they are a fact of the family: every map with an equal
    family gets the same rows, and `basis_family.cache_clear()` drops
    them.
    """
    rows = []

    def check(name: str, ok: bool, detail: str = ""):
        rows.append((name, "pass" if ok else "fail", detail))

    m, loops_mask = family.source, family.loops
    n, r, r_prime = family.n, family.r, family.r_prime
    by_size = family.by_size
    levels_ok = set(by_size) == set(range(r_prime, r + 1))
    top_ok = by_size.get(r, frozenset()) == m.bases
    check(
        "morphism-bases-levels",
        levels_ok and top_ok and family.levels_are_matroids,
        f"levels={sorted(by_size)}",
    )

    # bottom-level bases avoid the loop preimage, and extending one by
    # J inside the loop preimage stays a basis exactly when J is independent
    ext_ok = True
    bottom = by_size.get(r_prime, frozenset())
    loop_subsets = list(submasks(loops_mask))
    indep = m.independent_masks
    all_b = {s for bucket in by_size.values() for s in bucket}
    for i_mask in bottom:
        if i_mask & loops_mask:
            ext_ok = False
        for j_mask in loop_subsets:
            if ((i_mask | j_mask) in all_b) != (j_mask in indep):
                ext_ok = False
    check("morphism-bases-extension", ext_ok, f"bottom={len(bottom)}")

    p_phi, reduced = family.polys
    # the fixed points' verdicts come first: at (1, ..., 1), where the
    # reduced polynomial (positive coefficients) is positive, g is read off
    # the inertia when H is non-singular there, and the verdict at
    # (0, 1, ..., 1) reuses that proof; it takes the Gram rank only when
    # both Hessians are singular.  Each is also the verdict of its stratum,
    # the open orthant and the open face x0 = 0, where
    # `constant_verdict_strata` proves the verdict constant
    stamps = [None, None]
    if reduced.degree >= 2:
        points = ((1,) * (n + 1), (0,) + (1,) * n)
        verdicts = [point_verdicts(reduced, a) for a in points]
        rendered = list(map(_render_verdict, verdicts))
        fixed = " ".join(
            f"@({_fmt_point(a)}):{v}" for a, v in zip(points, rendered)
        )
        stamps = [
            v if proved else None
            for v, proved in zip(rendered, constant_verdict_strata(reduced))
        ]
        g = verdicts[0].grad_rank
    else:
        fixed, g = None, reduced.grad_rank
    verdict = family.degeneracy
    deficient = g < n + 1
    classes = "".join(sorted(verdict.classes)) or "-"
    if m.is_simple:
        check(
            "degeneracy-trichotomy",
            deficient == bool(verdict.classes),
            f"grad_rank={g} classes={classes}",
        )
    else:
        check(
            "degeneracy-sufficiency",
            (not verdict.classes) or deficient,
            f"grad_rank={g} classes={classes}",
        )
    if verdict.annihilator is not None:
        # the family checked this form against the reduced polynomial and
        # raises AnnihilatorCheckFailed instead of returning an unchecked one
        check("annihilator-exact", True)

    if r == r_prime:
        expect = {(n - r, mask): 1 for mask in m.bases}
        check("equal-rank-shape", p_phi.terms == expect)
    if r_prime == 0:  # the target has rank 0
        check("rank-zero-target-shape", p_phi == indep_poly(m))

    profile = family.eur_huh
    check(
        "eur-huh-inequality",
        not any(e.lhs > e.rhs for e in profile),
        f"levels={len(profile)} equalities={sum(1 for e in profile if e.equal)}",
    )

    return _SharedRows(tuple(rows), fixed, *stamps)


def _morphism_rows(
    phi: mo.MatroidMorphism, seed: int, scope: str
) -> tuple[mo.MorphismBases, list[CheckRow]]:
    """The map's basis family and its suite rows under `scope`: the shared
    rows stamped with the scope, then `reduced-point-verdicts` with the
    family's fixed points and the two points seeded by this map.

    Each seeded point is drawn for its text.  Its verdict is the family's
    verdict at the fixed point of its stratum (an interior point, then one
    on the face x0 = 0) where `_shared_rows` holds one, proved constant on
    that stratum; only where none is proved is the Hessian filled and
    eliminated at the point."""
    family = mo.basis_family(mo.morphism_bases(phi))
    m = phi.source
    shared = _shared_rows(family)
    rows = [CheckRow(scope, *row) for row in shared.rows]
    if shared.fixed is None:
        detail = "degree<2"
    else:
        rng = derive(seed, m.n, _matroid_key(m), _matroid_key(phi.target), *phi.map)
        verdicts = [shared.fixed]
        for zeros, stamp in ((0, shared.interior), (1, shared.face)):
            text, a = seeded_point(rng, m.n + 1, zeros=zeros)
            if stamp is None:
                stamp = _render_verdict(point_verdicts(family.polys[1], a))
            verdicts.append(f"@({text}):{stamp}")
        detail = " ".join(verdicts)
    rows.append(CheckRow(scope, "reduced-point-verdicts", "recorded", detail))
    return family, rows


def morphism_suite(phi: mo.MatroidMorphism, seed: int) -> SuiteReport:
    """The checks of one morphism of matroids.

    Every row is a function of the map's basis family, which holds the
    source and the loop preimage, and is kept once per family
    (`_shared_rows`), but for the two seeded points of
    `reduced-point-verdicts`.  Per map those points are drawn from the
    map's own stream, for their text, and get the family's verdict of
    their stratum, proved constant there by `constant_verdict_strata`; a
    point is eliminated only where no such proof holds."""
    scope = f"morphism(n={phi.source.n},map={','.join(map(str, phi.map))})"
    return SuiteReport(scope, seed, _morphism_rows(phi, seed, scope)[1])


# -- survey ------------------------------------------------------------------------


@dataclass
class SurveyReport:
    seed: int
    n_max: int
    rows: list[CheckRow]
    tallies: dict[str, list[int]]  # name -> [pass, fail, skip, recorded]
    counterexamples: list[CheckRow]
    equality_star: list[dict]
    equality_star2: list[dict]
    equality_eur_huh: list[dict]
    matroid_count: int
    morphism_count: int

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def to_jsonl_lines(self):
        header = {
            "seed": self.seed,
            "n_max": self.n_max,
            "matroids": self.matroid_count,
            "morphisms": self.morphism_count,
            "counterexamples": len(self.counterexamples),
        }
        yield json.dumps(header, sort_keys=True, separators=(",", ":"))
        for row in self.rows:
            yield json.dumps(row.to_json_dict(), sort_keys=True, separators=(",", ":"))
        for label, catalog in (
            ("equality-basis-counts", self.equality_star),
            ("equality-indep-counts", self.equality_star2),
            ("equality-morphism-counts", self.equality_eur_huh),
        ):
            for entry in catalog:
                yield json.dumps(
                    {"catalog": label, **entry}, sort_keys=True, separators=(",", ":")
                )

    def to_tsv(self) -> str:
        lines = ["check\tpass\tfail\tskip\trecorded"]
        for name in sorted(self.tallies):
            p, f, s, r = self.tallies[name]
            lines.append(f"{name}\t{p}\t{f}\t{s}\t{r}")
        lines.append(
            f"TOTAL\t{sum(v[0] for v in self.tallies.values())}"
            f"\t{sum(v[1] for v in self.tallies.values())}"
            f"\t{sum(v[2] for v in self.tallies.values())}"
            f"\t{sum(v[3] for v in self.tallies.values())}"
        )
        lines.append(f"counterexamples\t{len(self.counterexamples)}")
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        out = [
            f"survey: n <= {self.n_max}, seed = {self.seed}",
            f"matroids checked: {self.matroid_count}",
            f"morphisms checked: {self.morphism_count}",
            f"equality cases: basis-counts={len(self.equality_star)} "
            f"indep-counts={len(self.equality_star2)} "
            f"morphism-counts={len(self.equality_eur_huh)}",
            f"counterexamples: {len(self.counterexamples)}",
        ]
        for row in self.counterexamples[:20]:
            out.append(f"  FAIL {row.scope} {row.name} {row.detail}")
        return "\n".join(out) + "\n"


def survey(n_max: int, seed: int = 1, *, morphisms: bool = True) -> SurveyReport:
    """Run every suite over the catalog of labeled matroids on 1..n_max.

    Morphism suites run over simple sources (ground up to
    mo.MORPHISM_SOURCE_MAX) and all targets on up to mo.MORPHISM_TARGET_MAX
    elements.  Deterministic for a fixed seed.
    """
    if not 1 <= n_max <= mt.ENUMERATION_MAX_GROUND:
        raise mt.MatroidError(
            f"survey supports 1 <= n_max <= {mt.ENUMERATION_MAX_GROUND}"
        )
    rows: list[CheckRow] = []
    equality_star: list[dict] = []
    equality_star2: list[dict] = []
    equality_eur_huh: list[dict] = []
    matroid_count = 0
    morphism_count = 0

    for n in range(1, n_max + 1):
        for idx, m in enumerate(mt.catalog(n)):
            matroid_count += 1
            scope = f"matroid:{n}:{idx}"
            suite = theorem_suite(m, seed)
            rows.extend(
                CheckRow(scope, r.name, r.status, r.detail) for r in suite.rows
            )
            if m.rank >= 2:
                rows.extend(
                    _mason_rows(m, scope, seed, equality_star, equality_star2)
                )
            for fact in (_fm, _fm_jet, _pairs):  # for this matroid's rows only
                m._cache.pop(fact.__name__, None)

    if morphisms:
        targets = [
            (tn, tidx, t)
            for tn in range(1, min(n_max, mo.MORPHISM_TARGET_MAX) + 1)
            for tidx, t in enumerate(mt.catalog(tn))
        ]
        for n in range(1, min(n_max, mo.MORPHISM_SOURCE_MAX) + 1):
            for idx, m in enumerate(mt.catalog(n)):
                if not m.is_simple:
                    continue
                for tn, tidx, target in targets:
                    for phi in mo.enumerate_morphisms(m, [target]):
                        morphism_count += 1
                        scope = (
                            f"morphism:{n}:{idx}:to:{tn}:{tidx}:"
                            f"{','.join(map(str, phi.map))}"
                        )
                        family, suite_rows = _morphism_rows(phi, seed, scope)
                        rows.extend(suite_rows)
                        for entry in family.eur_huh:
                            if entry.equal:
                                equality_eur_huh.append(
                                    {
                                        "scope": scope,
                                        "k": entry.k,
                                        "value": str(entry.lhs),
                                    }
                                )

    tallies: dict[str, list[int]] = {}
    slot = {"pass": 0, "fail": 1, "skip": 2, "recorded": 3}
    for row in rows:
        tallies.setdefault(row.name, [0, 0, 0, 0])[slot[row.status]] += 1
    return SurveyReport(
        seed=seed,
        n_max=n_max,
        rows=rows,
        tallies=tallies,
        counterexamples=[r for r in rows if r.status == "fail"],
        equality_star=equality_star,
        equality_star2=equality_star2,
        equality_eur_huh=equality_eur_huh,
        matroid_count=matroid_count,
        morphism_count=morphism_count,
    )


def _mason_rows(
    m: Matroid,
    scope: str,
    seed: int,
    equality_star: list[dict],
    equality_star2: list[dict],
) -> list[CheckRow]:
    """The survey's three count rows for one matroid, every pair and level
    decided by `_holds` on the integers of `_pair_sides` and
    `matroids.normalized_sides`.

    `basis-counts-equality-iff` and `indep-counts-equality-iff` take every
    pair and every level at (1, ..., 1), where the level sums are the
    counts the matroid keeps; `weighted-strictness` takes both at each
    seeded point.  The two-sided rule fits the seeded points too: every
    predicted equality is one at every positive point (with two parallel
    classes f_M = (sum C_1)(sum C_2); below the girth at equal weights the
    normalized slices are all equal), and the rest is strict, as the
    row's name says.  A `Fraction` is built only for an equality entry.
    """
    n, r = m.n, m.rank
    rng = derive(seed, 0xBA5E5, n, _matroid_key(m))
    f = _fm(m)
    masks = sorted(m.independent_masks)
    girth = m.girth
    pairs = [
        (x, y, applicable, _pair_equality(m, independent))
        for x, y, applicable, independent in _pairs(m)
    ]

    def rows_at(a, jt, sums):
        """(label, lhs, rhs, applicable, holds) for every pair (x, y), then
        every level k, at the integer point a."""
        for x, y, applicable, predicted in pairs:
            lhs, rhs = _pair_sides(jt, x, y)
            yield (x, y), lhs, rhs, applicable, _holds(lhs, rhs, applicable, predicted)
        equal_weights = len(set(a)) == 1
        for k in range(1, r + 1):
            lhs, rhs, _ = mt.normalized_sides(n, sums, k)
            predicted = _level_equality(k, n, girth, equal_weights)
            yield k, lhs, rhs, True, _holds(lhs, rhs, True, predicted)

    sums = [*m.indep_counts, 0]
    ones = list(rows_at((1,) * n, _fm_jet(m), sums))
    basis, levels = ones[: len(pairs)], ones[len(pairs) :]
    den = _pair_den(r, 1)
    for (x, y), lhs, rhs, applicable, _ in basis:
        if applicable and lhs == rhs:
            value = Fraction(lhs, den)
            equality_star.append(
                {"scope": scope, "i": x + 1, "j": y + 1, "value": str(value)}
            )
    for k, lhs, rhs, _, _ in levels:
        if lhs == rhs:
            value = Fraction(lhs, mt.normalized_sides(n, sums, k)[2])
            equality_star2.append({"scope": scope, "k": k, "value": str(value)})

    def weighted():
        for _ in range(SEEDED_MASON_POINTS):
            _, a = seeded_point(rng, n)
            yield from rows_at(a, jet(f, a), _level_sums(masks, a, r))

    return [
        CheckRow(
            scope, name, "pass" if all(row[-1] for row in rows) else "fail", detail
        )
        for name, rows, detail in (
            ("basis-counts-equality-iff", basis, f"pairs={len(pairs)}"),
            ("indep-counts-equality-iff", levels, f"levels={r}"),
            (
                "weighted-strictness",
                weighted(),
                f"rows={SEEDED_MASON_POINTS * (len(pairs) + r)}",
            ),
        )
    ]
