"""Degree-1 Lefschetz/Hodge-Riemann point checks via exact Hessian spectra.

For a homogeneous p of degree >= 2 with p(a) > 0, the Hessian at a
represents the degree-1 multiplication pairing on the span of the first
partials.  Writing g for the rank of the first-partial coefficient matrix
and m for the number of active variables:

* slp1: the pairing is non-singular on the quotient, i.e. the Hessian rank
  at a equals g.
* hrr1: the pairing has exactly one positive direction and no extra
  kernel beyond the universal one, i.e. the Hessian inertia at a is
  exactly (1, g-1, m-g).

When g = m (independent partials) these reduce to "non-singular Hessian"
and "signature (+,-,...,-)".  `point_verdicts` takes both from one
inertia; both need p(a) > 0, and at a point where p(a) <= 0 it returns
`value_positive` False with no inertia and no verdict (None), which the
CLI and the survey print as "inapplicable".

Points are integerized by `linalg.clear_denominators` before spectra are
taken: every polynomial here is homogeneous, so a positive rescaling
multiplies the Hessian by a positive scalar and changes neither inertia
nor rank nor value signs.  Both checks read one fill of the plan the
polynomial keeps (`HomogPoly.plan`), its upper rows
(`HessianPlan.upper`), with no jet: the sign of p(a) is that of
A^T H A, summed off the upper triangle, and H's rank comes from its
inertia (rank = pos + neg for symmetric matrices), so one symmetric
elimination serves both checks.  g comes from that same inertia when
H(a) is non-singular (then g = m; the proof is in `point_verdicts`), and
otherwise from the rank the polynomial keeps (`HomogPoly.grad_rank`),
so checking one polynomial at many points compiles it once and builds
its Gram matrix at most once, and only when some point's Hessian is
singular.  `hessian_inertia` reads no value and eliminates the upper
rows alone.  The elimination reads H's upper triangle only, and consumes
the filled rows when the plan's coefficients, and so its rows, are
integers.

`lorentzian_witness` checks every derivative d^alpha p of order <= d - 2
without building one.  Per point it fills one integer table of the
derivative values of p, V(b0, S) = d0^b0 d_S p(a), from a single pass
over the terms and the sub-masks of each term's mask; the order-d values
are point-free constants.  The Hessian of d^alpha p at a is then
[V(alpha + e_i + e_j)], read from the table over the variables d^alpha p
depends on.  Differentiation maps the monomials that survive d^alpha
injectively, so nothing cancels and the non-zero derivatives are read
off the term masks alone.

`lorentzian_decide` is the exact test of Brändén and Huh: positive
coefficients, an M-convex term support (`matroids.exchange_violation`,
the basis-exchange routine, with the x0 power as one more coordinate)
and the point-free degree-2 layer of the witness.  When it holds, every
sampled check of the witness is bound to pass, and the witness counts
them without taking them; only inputs that fail it are sampled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from math import comb, factorial, perm
from operator import mul, or_
from typing import Optional, Sequence

from .linalg import Inertia, clear_denominators, inertia
from .matroids import exchange_violation, submasks
from .polynomials import HomogPoly, hessian_matrix  # noqa: F401 -- public here too


def hessian_inertia(p: HomogPoly, point: Sequence) -> Inertia:
    """The inertia of p's Hessian at the point: the plan's upper rows,
    filled at the cleared point and eliminated."""
    plan = p.plan
    return inertia(plan.upper(clear_denominators(point)[1]), consume=plan.integral)


def gradient_rank(p: HomogPoly) -> int:
    return p.grad_rank


@dataclass(frozen=True)
class PointVerdicts:
    value_positive: bool
    inertia: Optional[Inertia]
    slp1: Optional[bool]
    hrr1: Optional[bool]
    grad_rank: Optional[int] = None  # the g the verdicts used


def point_verdicts(p: HomogPoly, point: Sequence) -> PointVerdicts:
    """slp1/hrr1 verdicts from a single Hessian spectrum at the point.

    Returns verdicts None when the point value is not positive (the checks
    are undefined there).

    With (lam, A) = clear_denominators(point), the plan's upper triangle is
    filled at A and eliminated in place; no jet is taken.  The sign of p(a)
    is that of A^T H A = d (d - 1) p(A) (Euler; lam > 0), summed off the
    upper triangle.

    g is read off the inertia when H(a) is non-singular, and taken from the
    polynomial's Gram rank (`gradient_rank`) only when it is singular.
    Proof: call v an annihilator when D_v p = 0 identically.  Then
    H(x) v = grad(D_v p)(x) = 0 at every x, so the annihilators, a space of
    dimension m - g, lie in ker H(a), and rank H(a) <= g <= m for the m
    active variables.  A non-singular H(a) thus proves g = m: slp1 holds,
    and hrr1 holds exactly when the inertia is (1, m - 1, 0).
    """
    if p.degree < 2:
        raise ValueError("point checks need degree >= 2")
    plan = p.plan
    a = clear_denominators(point)[1]
    h = plan.upper(a)
    if _quadratic_form(h, a) <= 0:
        return PointVerdicts(False, None, None, None)
    ine = inertia(h, consume=plan.integral)
    m = len(p.active)
    g = gradient_rank(p) if ine.zero else m
    return PointVerdicts(
        True,
        ine,
        ine.pos + ine.neg == g,
        ine.as_tuple() == (1, g - 1, m - g),
        g,
    )


def _quadratic_form(h: list[list], a: Sequence[int]):
    """a^T H a from the upper triangle h of the symmetric H: each diagonal
    entry once, each entry above it twice."""
    s = 0
    for i, row in enumerate(h):
        if a[i]:
            s += a[i] * (row[i] * a[i] + 2 * sum(map(mul, row[i + 1 :], a[i + 1 :])))
    return s


@dataclass(frozen=True)
class WitnessFailure:
    orders: tuple[int, ...]  # derivative multi-index, active-variable order
    point: Optional[tuple]  # None for the point-free degree-2 stage
    pos_eigenvalues: int


@dataclass
class WitnessReport:
    """Log-concavity evidence for every derivative order <= d-2.

    `passed` means no failure was found.  When the exact decision holds
    (`lorentzian_decide`), that is a proof and `sampled` counts the checks
    it implies; otherwise the checks above degree 2 were taken at the
    supplied points, which is evidence there, not a proof over the whole
    orthant.
    """

    degree: int
    checked: int = 0
    identically_zero: int = 0
    exact_degree2: int = 0
    sampled: int = 0
    failures: list[WitnessFailure] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


def _top_x0_powers(terms) -> dict[int, int]:
    """For every mask S under some term mask, the highest x0 power among the
    terms whose mask contains S: d0^b0 d_S p != 0 exactly when S is a key
    and b0 is at most its value."""
    top: dict[int, int] = {}
    for e0, mask, _ in terms:
        for s in submasks(mask):
            if top.get(s, -1) < e0:
                top[s] = e0
    return top


def _derivative_values(terms, degree: int, active: Sequence[int], point: Sequence):
    """V[(b0, S)] = d0^b0 d_S p at the integer point, for every order from 2
    to degree - 1, from one pass over the terms and the sub-masks S of each
    term's mask.

    The term c x0^e0 x_M gives c e0! / (e0 - b0)! x0^(e0 - b0) x_(M - S);
    the products x_(M - S) come from a table of subset products, each made
    from the subset minus its lowest element, which comes earlier because
    M - S increases as S runs down through the sub-masks of M.
    """
    coord = {}
    x0 = 0
    for v, a in zip(active, point):
        if v:
            coord[1 << (v - 1)] = a
        else:
            x0 = a
    x0_pow = [x0**e for e in range(degree + 1)]
    prods = {0: 1}
    values: dict[tuple[int, int], int] = {}
    for e0, mask, c in terms:
        # the factor of x_(M - S) in d0^b0 of the term, for b0 = 0..e0
        factors = [c * perm(e0, b0) * x0_pow[e0 - b0] for b0 in range(e0 + 1)]
        for s in submasks(mask):
            rest = mask ^ s
            prod = prods.get(rest)
            if prod is None:
                low = rest & -rest
                prod = prods[rest] = prods[rest ^ low] * coord[low]
            k = s.bit_count()
            for b0 in range(max(0, 2 - k), min(e0, degree - 1 - k) + 1):
                key = (b0, s)
                values[key] = values.get(key, 0) + factors[b0] * prod
    return values


def _hessian_of(table, b0: int, s: int, units) -> list[list]:
    """[table[alpha + e_i + e_j]] for alpha = (b0, s), over the variables
    given by their units (1, 0) for x0 and (0, bit) for x_v; a multilinear
    variable twice gives 0."""
    return [
        [
            0 if mi & mj else table.get((b0 + ei + ej, s | mi | mj), 0)
            for ej, mj in units
        ]
        for ei, mi in units
    ]


def _exact_layer(p: HomogPoly):
    """The point-free part of the witness: the terms with integer
    coefficients, their `_top_x0_powers`, the non-zero derivatives
    (orders, b0, S) in the order of their multi-indices, and the failures
    of the degree-2 layer keyed by their position in that list."""
    d = p.degree
    _, coeffs = clear_denominators(list(p.terms.values()))
    terms = [(e0, mask, c) for (e0, mask), c in zip(p.terms, coeffs)]
    top = _top_x0_powers(terms)
    alphas = sorted(
        (tuple(b0 if v == 0 else s >> (v - 1) & 1 for v in p.active), b0, s)
        for s, e in top.items()
        for b0 in range(min(e, d - 2 - s.bit_count()) + 1)
    )
    constants = {(e0, mask): c * factorial(e0) for e0, mask, c in terms}
    layer2 = {}
    for k, (orders, b0, s) in enumerate(alphas):
        if b0 + s.bit_count() == d - 2:
            units = _depends_on(p.active, top, b0, s)
            pos = inertia(_hessian_of(constants, b0, s, units)).pos
            if pos > 1:
                layer2[k] = WitnessFailure(orders, None, pos)
    return terms, top, alphas, layer2


def _depends_on(active, top, b0: int, s: int) -> list[tuple[int, int]]:
    """The units, (1, 0) for x0 and (0, bit) for x_v, of the variables
    d^alpha p depends on for alpha = (b0, s): those with d_v d^alpha p != 0."""
    units = [(1, 0) if v == 0 else (0, 1 << (v - 1)) for v in active]
    return [
        (e, bit) for e, bit in units if not bit & s and top.get(s | bit, -1) >= b0 + e
    ]


def _decided(terms, layer2) -> bool:
    """The exact Lorentzian test on the output of `_exact_layer`: positive
    coefficients, an M-convex support and no degree-2 failure."""
    if layer2 or any(c <= 0 for _, _, c in terms):
        return False
    width = reduce(or_, (mask for _, mask, _ in terms), 0).bit_length()
    support = {e0 << width | mask for e0, mask, _ in terms}
    return exchange_violation(width, support) is None


def lorentzian_decide(p: HomogPoly) -> bool:
    """Whether p is Lorentzian, decided exactly.

    Brändén and Huh (Lorentzian polynomials, Ann. of Math. 2020, §2): a
    homogeneous p of degree d >= 2 with non-negative coefficients is
    Lorentzian if and only if its support is M-convex and every d^alpha p
    with |alpha| = d - 2 is a quadratic form with at most one positive
    eigenvalue.  Here: every stored coefficient is positive, the term
    support passes `matroids.exchange_violation` (the x0 power is the
    first coordinate), and the point-free degree-2 layer of
    `lorentzian_witness` has no failure.  The zero polynomial is Lorentzian.
    """
    if p.degree < 2:
        raise ValueError("the Lorentzian condition needs degree >= 2")
    terms, _, _, layer2 = _exact_layer(p)
    return _decided(terms, layer2)


def lorentzian_witness(p: HomogPoly, points: Sequence[Sequence]) -> WitnessReport:
    """Check every derivative of order <= deg-2 for log-concavity.

    Identically zero derivatives pass by definition.  Degree-2 derivatives
    have constant Hessians and are checked once, exactly (at most one
    positive eigenvalue).  Higher-degree derivatives are checked at each
    supplied point (exactly one positive eigenvalue there).

    The degree-2 layer runs first.  When it has no failure, every
    coefficient is positive and the support is M-convex, p is Lorentzian
    (`lorentzian_decide`) and every sampled check passes, so the report
    counts them without taking one.  Proof: each non-zero d^alpha p of
    degree k >= 3 is Lorentzian too (the class is closed under
    differentiation), so it is log-concave on the open orthant, and at a
    point a > 0 with q = d^alpha p, q(a) > 0 and the Hessian of log q is
    H/q - g g^T/q^2 <= 0, with H and g the Hessian and gradient of q at a.
    So H <= g g^T / q(a): on the kernel of g^T, a subspace of codimension
    at most 1, x^T H x <= 0, and H has at most one positive eigenvalue.
    Euler's identity gives a^T H a = k (k - 1) q(a) > 0, so it has at least
    one.  Every other input (a negative coefficient, a support that is not
    M-convex, a degree-2 failure) takes the sampled route.

    No derivative is built as a polynomial.  Write alpha = (b0, S) for
    d0^b0 d_S; a second derivative in a multilinear variable vanishes, so
    only the alpha with multilinear orders <= 1 can survive, and d^alpha p
    is non-zero exactly when some term has mask containing S and x0 power
    at least b0: differentiation sends the surviving monomials x0^e0 x_M
    to distinct monomials x0^(e0 - b0) x_(M - S) with non-zero
    coefficients, so nothing cancels.  The Hessian of d^alpha p at a is
    [V(alpha + e_i + e_j)], where V holds the derivative values of p at
    a; V comes from `_derivative_values` once per point, and the
    order-deg values are the point-free constants c e0! of the terms.
    Each Hessian is taken over the variables d^alpha p depends on, read off
    the same terms: for the others, among them every multilinear variable
    alpha has differentiated, d_v d^alpha p = 0, so their rows are zero and
    the positive count is unchanged.
    The coefficients are scaled once by the lcm of their denominators and
    the points by `clear_denominators`; both scales are positive and keep
    every sign, and the Hessians reach `inertia` as integers.
    """
    if p.degree < 2:
        raise ValueError("the Lorentzian condition needs degree >= 2")
    scaled = []
    for point in points:
        if len(point) != len(p.active):
            raise ValueError("point length must match active variables")
        if any(v <= 0 for v in point):
            raise ValueError("witness points must be strictly positive")
        scaled.append(clear_denominators(point)[1])
    d = p.degree
    active = p.active
    report = WitnessReport(degree=d, checked=comb(len(active) + d - 2, d - 2))
    terms, top, alphas, layer2 = _exact_layer(p)
    report.identically_zero = report.checked - len(alphas)
    report.exact_degree2 = sum(b0 + s.bit_count() == d - 2 for _, b0, s in alphas)
    if _decided(terms, layer2):
        report.sampled = len(points) * (len(alphas) - report.exact_degree2)
        return report
    tables = [_derivative_values(terms, d, active, a) for a in scaled]
    for k, (orders, b0, s) in enumerate(alphas):
        if b0 + s.bit_count() == d - 2:
            if k in layer2:
                report.failures.append(layer2[k])
            continue
        units = _depends_on(active, top, b0, s)
        for raw, values in zip(points, tables):
            report.sampled += 1
            pos = inertia(_hessian_of(values, b0, s, units)).pos
            if pos != 1:
                report.failures.append(WitnessFailure(orders, tuple(raw), pos))
    return report
