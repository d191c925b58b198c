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
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import Optional, Sequence

from .linalg import Inertia, clear_denominators, inertia, matrix_rank
from .polynomials import (
    HessianPlan,
    HomogPoly,
    gradient_matrix,
    hessian_matrix,
    iterated_partial,
)


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


def _multi_indices(nvars: int, budget: int):
    """All exponent vectors of length nvars with sum <= budget."""
    if nvars == 0:
        yield ()
        return
    for head in range(budget + 1):
        for tail in _multi_indices(nvars - 1, budget - head):
            yield (head,) + tail


def lorentzian_witness(p: HomogPoly, points: Sequence[Sequence]) -> WitnessReport:
    """Check every derivative of order <= deg-2 for log-concavity.

    Identically zero derivatives pass by definition.  Degree-2 derivatives
    have constant Hessians and are checked once, exactly (at most one
    positive eigenvalue).  Higher-degree derivatives are checked at each
    supplied point (exactly one positive eigenvalue there).
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
    report = WitnessReport(degree=p.degree)
    multilinear_from = 1 if 0 in p.active else 0
    for orders in _multi_indices(len(p.active), p.degree - 2):
        report.checked += 1
        if any(k >= 2 for k in orders[multilinear_from:]):
            # second derivative in a multilinear variable: identically zero
            report.identically_zero += 1
            continue
        q = iterated_partial(p, orders)
        if q.is_zero:
            report.identically_zero += 1
            continue
        if q.degree == 2:
            report.exact_degree2 += 1
            pos = inertia(hessian_matrix(q, (1,) * len(q.active))).pos
            if pos > 1:
                report.failures.append(WitnessFailure(orders, None, pos))
            continue
        plan = HessianPlan(q)
        for raw, point in zip(points, scaled):
            report.sampled += 1
            pos = inertia(plan.at(point)).pos
            if pos != 1:
                report.failures.append(
                    WitnessFailure(orders, tuple(raw), pos)
                )
    return report
