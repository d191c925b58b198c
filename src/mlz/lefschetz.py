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
and "signature (+,-,...,-)".  Both checks demand p(a) > 0 and raise
InapplicablePointError otherwise; report layers turn that into a distinct
verdict instead of a boolean.

Points are integerized by `linalg.clear_denominators` before spectra are
taken: every polynomial here is homogeneous, so a positive rescaling
multiplies the Hessian by a positive scalar and changes neither inertia
nor rank nor value signs.  The Hessian H at a comes from a
`polynomials.HessianPlan`; a caller that checks one polynomial at many
points passes its plan in.  The sign of p(a) is read from H by Euler's
identity a^T H a = d (d - 1) p(a), and H's rank from its inertia
(rank = pos + neg for symmetric matrices), so one symmetric elimination
serves both checks.

`lorentzian_witness` checks every derivative d^alpha p of order <= d - 2
without building one.  Per point it fills one integer table of the
derivative values of p, V(b0, S) = d0^b0 d_S p(a), from a single pass
over the terms and the sub-masks of each term's mask; the order-d values
are point-free constants.  The Hessian of d^alpha p at a is then
[V(alpha + e_i + e_j)], read from the table over the variables d^alpha p
depends on.  Differentiation maps the monomials that survive d^alpha
injectively, so nothing cancels and the non-zero derivatives are read
off the term masks alone.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial, perm
from operator import mul
from typing import Optional, Sequence

from .linalg import Inertia, clear_denominators, inertia, matrix_rank
from .matroids import popcount
from .polynomials import HessianPlan, HomogPoly, gradient_matrix, hessian_matrix


class InapplicablePointError(ValueError):
    """The point check assumes a positive value; this point gives <= 0."""


class PointClass(enum.Enum):
    STRICT_LORENTZ = "strict-lorentz"
    LORENTZ_DEGENERATE = "lorentz-degenerate"
    NOT_LOG_CONCAVE = "not-log-concave"


def hessian_inertia(p: HomogPoly, point: Sequence) -> Inertia:
    return inertia(hessian_matrix(p, clear_denominators(point)[1]))


def gradient_rank(p: HomogPoly) -> int:
    return matrix_rank(gradient_matrix(p))


def classify_point(p: HomogPoly, point: Sequence) -> PointClass:
    """Log-concavity class of the Hessian inertia at the point."""
    ine = hessian_inertia(p, point)
    if ine.pos != 1:
        return PointClass.NOT_LOG_CONCAVE
    return PointClass.STRICT_LORENTZ if ine.zero == 0 else PointClass.LORENTZ_DEGENERATE


@dataclass(frozen=True)
class PointVerdicts:
    value_positive: bool
    inertia: Optional[Inertia]
    slp1: Optional[bool]
    hrr1: Optional[bool]


def point_verdicts(
    p: HomogPoly,
    point: Sequence,
    *,
    grad_rank: Optional[int] = None,
    plan: Optional[HessianPlan] = None,
) -> PointVerdicts:
    """slp1/hrr1 verdicts from a single Hessian spectrum at the point.

    `plan`, when given, must be compiled from p.  Returns verdicts None
    when the point value is not positive (the checks are undefined there).
    """
    if p.degree < 2:
        raise ValueError("point checks need degree >= 2")
    _, scaled = clear_denominators(point)
    h = (plan or HessianPlan(p)).at(scaled).rows
    # Euler: a^T H a = d (d - 1) p(a), and d (d - 1) > 0
    if sum(a * sum(map(mul, row, scaled)) for a, row in zip(scaled, h)) <= 0:
        return PointVerdicts(False, None, None, None)
    g = gradient_rank(p) if grad_rank is None else grad_rank
    ine = inertia(h)
    return PointVerdicts(
        True,
        ine,
        ine.pos + ine.neg == g,
        ine.as_tuple() == (1, g - 1, len(p.active) - g),
    )


def slp1(p: HomogPoly, point: Sequence, *, grad_rank: Optional[int] = None) -> bool:
    v = point_verdicts(p, point, grad_rank=grad_rank)
    if not v.value_positive:
        raise InapplicablePointError("slp1 needs p(a) > 0")
    return v.slp1


def hrr1(p: HomogPoly, point: Sequence, *, grad_rank: Optional[int] = None) -> bool:
    v = point_verdicts(p, point, grad_rank=grad_rank)
    if not v.value_positive:
        raise InapplicablePointError("hrr1 needs p(a) > 0")
    return v.hrr1


@dataclass(frozen=True)
class WitnessFailure:
    orders: tuple[int, ...]  # derivative multi-index, active-variable order
    point: Optional[tuple]  # None for the point-free degree-2 stage
    pos_eigenvalues: int


@dataclass
class WitnessReport:
    """Sampled log-concavity evidence for every derivative order <= d-2.

    This is evidence at the supplied points, not a proof over the whole
    orthant; `passed` means no sampled failure was found.
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


def _submasks(mask: int):
    """Every sub-mask of mask, from mask itself down to 0."""
    s = mask
    while s:
        yield s
        s = (s - 1) & mask
    yield 0


def _top_x0_powers(terms) -> dict[int, int]:
    """For every mask S under some term mask, the highest x0 power among the
    terms whose mask contains S: d0^b0 d_S p != 0 exactly when S is a key
    and b0 is at most its value."""
    top: dict[int, int] = {}
    for e0, mask, _ in terms:
        for s in _submasks(mask):
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
        for s in _submasks(mask):
            rest = mask ^ s
            prod = prods.get(rest)
            if prod is None:
                low = rest & -rest
                prod = prods[rest] = prods[rest ^ low] * coord[low]
            k = popcount(s)
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


def lorentzian_witness(p: HomogPoly, points: Sequence[Sequence]) -> WitnessReport:
    """Check every derivative of order <= deg-2 for log-concavity.

    Identically zero derivatives pass by definition.  Degree-2 derivatives
    have constant Hessians and are checked once, exactly (at most one
    positive eigenvalue).  Higher-degree derivatives are checked at each
    supplied point (exactly one positive eigenvalue there).

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
        if any(Fraction(v) <= 0 for v in point):
            raise ValueError("witness points must be strictly positive")
        scaled.append(clear_denominators(point)[1])
    d = p.degree
    active = p.active
    report = WitnessReport(degree=d, checked=comb(len(active) + d - 2, d - 2))
    _, coeffs = clear_denominators(list(p.terms.values()))
    terms = [(e0, mask, c) for (e0, mask), c in zip(p.terms, coeffs)]
    top = _top_x0_powers(terms)
    # the non-zero derivatives, in the order of their multi-indices
    alphas = sorted(
        (tuple(b0 if v == 0 else s >> (v - 1) & 1 for v in active), b0, s)
        for s, e in top.items()
        for b0 in range(min(e, d - 2 - popcount(s)) + 1)
    )
    report.identically_zero = report.checked - len(alphas)
    constants = {(e0, mask): c * factorial(e0) for e0, mask, c in terms}
    tables = [_derivative_values(terms, d, active, a) for a in scaled]
    all_units = [(1, 0) if v == 0 else (0, 1 << (v - 1)) for v in active]
    for orders, b0, s in alphas:
        # the variables d^alpha p depends on: d_v d^alpha p != 0
        units = [
            (e, bit)
            for e, bit in all_units
            if not bit & s and top.get(s | bit, -1) >= b0 + e
        ]
        if b0 + popcount(s) == d - 2:
            report.exact_degree2 += 1
            pos = inertia(_hessian_of(constants, b0, s, units)).pos
            if pos > 1:
                report.failures.append(WitnessFailure(orders, None, pos))
            continue
        for raw, values in zip(points, tables):
            report.sampled += 1
            pos = inertia(_hessian_of(values, b0, s, units)).pos
            if pos != 1:
                report.failures.append(WitnessFailure(orders, tuple(raw), pos))
    return report
