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
which the first non-singular point fills with g = m.  So checking one
polynomial at many points compiles it once and builds its Gram matrix
at most once, and only when some point's Hessian is singular and none
before it was non-singular.  `hessian_inertia` reads no value and
eliminates the upper rows alone.  The elimination reads H's upper
triangle only, and consumes the filled rows when the plan's
coefficients, and so its rows, are integers.

`lorentzian_decide` is the exact test of Brändén and Huh: positive
coefficients, an M-convex term support (`matroids.exchange_violation`,
the basis-exchange routine, with the x0 power as one more coordinate)
and a point-free degree-2 layer: the Hessian of every d^alpha p of
order d - 2 is a constant read off the term masks, with no derivative
built.  `lorentzian_witness` reports that decision with the count of
every derivative d^alpha p of order <= d - 2 it covers; when p is
Lorentzian the log-concavity of each at every positive point follows,
so the higher-order checks at the supplied points are counted, not
taken.  A matroid's basis, independent-set and reduced polynomials are
all Lorentzian (the proof is in `lorentzian_witness`).

`constant_verdict_strata` proves a lemma on Lorentzian polynomials: the
kernel of the Hessian at a >= 0 depends only on the support of a, once
the derivatives the lemma names are positive at a.  So `point_verdicts`
gives one verdict on the whole open orthant, and one on the whole open
face x0 = 0 when every term's mask lies in that of an x0-free term; a
verdict at one point of such a stratum is the verdict at all of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from math import comb, factorial
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
    polynomial's Gram rank (`gradient_rank`) only when it is singular.  A
    non-singular H(a) also fills `HomogPoly.grad_rank` with g = m, so a
    later singular point of the same polynomial builds no Gram matrix.
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
    if ine.zero:
        g = gradient_rank(p)
    else:  # proved: kept as p's gradient rank, for any later singular point
        g = p._cache.setdefault("grad_rank", m)
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
    """One of Brändén and Huh's conditions that p fails (`lorentzian_decide`):
    "degree-2", a derivative d^orders p (multi-index in active-variable
    order) whose quadratic form has pos_eigenvalues > 1 positive
    eigenvalues; "coefficient", a stored coefficient that is not positive;
    "support", a term support that is not M-convex.  The last two name no
    derivative."""

    reason: str
    orders: tuple[int, ...] = ()
    pos_eigenvalues: int = 0


@dataclass
class WitnessReport:
    """Log-concavity of every derivative order <= d-2, decided exactly.

    `passed` is `lorentzian_decide`: it means p is Lorentzian, and then
    every derivative of degree >= 3 has exactly one positive eigenvalue at
    every positive point.  `sampled` counts those checks at the supplied
    points, which the decision implies and which are not taken.
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


def _exact_layer(p: HomogPoly):
    """The non-zero derivatives of order <= d - 2, as (orders, b0, S) in
    the order of their multi-indices, and the `WitnessFailure`s of p: those
    of the degree-2 layer in that order, then "coefficient", then
    "support".

    top[S] is the highest x0 power among the terms whose mask contains S,
    so d0^b0 d_S p != 0 exactly when S is a key and b0 is at most its
    value.  A variable is given by its unit, (1, 0) for x0 and (0, bit)
    for x_v."""
    d = p.degree
    _, coeffs = clear_denominators(list(p.terms.values()))
    terms = [(e0, mask, c) for (e0, mask), c in zip(p.terms, coeffs)]
    top: dict[int, int] = {}
    for e0, mask, _ in terms:
        for s in submasks(mask):
            if top.get(s, -1) < e0:
                top[s] = e0
    alphas = sorted(
        (tuple(b0 if v == 0 else s >> (v - 1) & 1 for v in p.active), b0, s)
        for s, e in top.items()
        for b0 in range(min(e, d - 2 - s.bit_count()) + 1)
    )
    constants = {(e0, mask): c * factorial(e0) for e0, mask, c in terms}
    units = [(1, 0) if v == 0 else (0, 1 << (v - 1)) for v in p.active]
    failures = []
    for orders, b0, s in alphas:
        if b0 + s.bit_count() < d - 2:
            continue
        # the variables d^alpha p depends on, d_v d^alpha p != 0, and its
        # constant Hessian over them; a multilinear variable twice gives 0
        live = [(e, b) for e, b in units if not b & s and top.get(s | b, -1) >= b0 + e]
        h = [
            [
                0 if mi & mj else constants.get((b0 + ei + ej, s | mi | mj), 0)
                for ej, mj in live
            ]
            for ei, mi in live
        ]
        pos = inertia(h).pos
        if pos > 1:
            failures.append(WitnessFailure("degree-2", orders, pos))
    if any(c <= 0 for _, _, c in terms):
        failures.append(WitnessFailure("coefficient"))
    width = reduce(or_, (mask for _, mask, _ in terms), 0).bit_length()
    support = {e0 << width | mask for e0, mask, _ in terms}
    if exchange_violation(width, support) is not None:
        failures.append(WitnessFailure("support"))
    return alphas, failures


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
    return not _exact_layer(p)[1]


def constant_verdict_strata(p: HomogPoly) -> tuple[bool, bool]:
    """(interior, face): whether `point_verdicts(p, a)` is proved to be one
    verdict at every a of the open orthant, and at every a of the open
    face x0 = 0 (every other active coordinate positive).  Both need
    `lorentzian_decide(p)`; the face also needs x0 active and condition C:
    every term's mask lies inside the mask of some x0-free term.

    Lemma.  Let p be Lorentzian of degree d >= 2 and a >= 0 with support
    S, such that every non-zero derivative d^gamma p with gamma supported
    in S and 1 <= |gamma| <= d - 2 is positive at a.  Then ker H_p(a) is
    the intersection of the ker Hess(d^beta p) over the beta supported in
    S with |beta| = d - 2, a space that depends on S alone.

    Proof, by induction on d.  At d = 2, H is constant.  At d >= 3,
    Euler's identity for the second partials (homogeneous of degree
    d - 2) gives (d - 2) H_p(a) = sum over j in S of a_j Q_j, with
    Q_j = H_(p_j)(a) for the first partial p_j, and
    Q_j a = (d - 2) grad p_j(a) = (d - 2) H_p(a) e_j.  Take v in
    ker H_p(a); then a^T Q_j v = 0 for every j in S.  If p_j = 0, Q_j = 0.
    Otherwise p_j is Lorentzian (the class is closed under derivatives),
    so Q_j has at most one positive eigenvalue, on the closed orthant too
    by continuity, and a^T Q_j a = (d - 1)(d - 2) p_j(a) > 0.  So Q_j is
    negative semidefinite on W = {w : a^T Q_j w = 0} (a w in W with
    w^T Q_j w > 0 would make it positive definite on span(a, w)), and
    R^m = W + span(a).  Each v^T Q_j v is then <= 0, and their sum with
    weights a_j > 0 is (d - 2) v^T H_p(a) v = 0, so each is 0.  v lies in
    W, where Q_j is semidefinite, so Q_j v is orthogonal to W, and to a:
    Q_j v = 0.  Conversely the sum puts the intersection of the ker Q_j
    in ker H_p(a).  So ker H_p(a) is the intersection of the ker H_(p_j)(a)
    over j in S, and each p_j meets the hypothesis at degree d - 1.
    Induct.

    The stratum of a, its zero coordinates, fixes S, and p(a) > 0 on it
    exactly when some term of p is supported in S (the coefficients are
    positive).  Where p(a) = 0, `point_verdicts` gives "inapplicable" on
    the whole stratum.  Where p(a) > 0, a^T H a = d (d - 1) p(a) > 0 gives
    H_p(a) a positive eigenvalue and Lorentzian p at most one, so its
    inertia is (1, m - 1 - k, k) with k = dim ker H_p(a), one value on the
    stratum; slp1 and hrr1 read that inertia and the gradient rank g of
    p, so the verdict is one value too.

    The hypothesis holds in two cases.  In the open orthant every
    non-zero polynomial with positive coefficients is positive.  The
    space is then the annihilator space, and the inertia (1, g - 1, m - g):
    Hess(d^beta p) v = grad(d^beta D_v p) = 0 for every beta of order
    d - 2 makes every (d - 1)-th derivative of D_v p vanish, so D_v p = 0.
    On the face x0 = 0, under C: a non-zero d_T p (T a set of multilinear
    variables; x0 is not in S) has a term whose mask holds T, that mask
    lies in the mask of an x0-free term, and d_T of that term is an
    x0-free term of d_T p, positive at a.  Nothing cancels, since
    differentiation sends distinct monomials to distinct ones.  A non-zero
    p under C has an x0-free term, so p(a) > 0 on the face.
    """
    if not lorentzian_decide(p):
        return False, False
    free = [mask for e0, mask in p.terms if not e0]
    face = 0 in p.active and all(
        any(mask & f == mask for f in free) for _, mask in p.terms
    )
    return True, face


def lorentzian_witness(p: HomogPoly, points: Sequence[Sequence]) -> WitnessReport:
    """Check every derivative of order <= deg-2 for log-concavity, exactly.

    Identically zero derivatives pass by definition.  Degree-2 derivatives
    have constant Hessians and are checked once (at most one positive
    eigenvalue).  Together with positive coefficients and an M-convex
    support they decide that p is Lorentzian (`lorentzian_decide`), and the
    report fails exactly when that decision does, with the conditions p
    fails as its failures.  The higher-degree derivatives at the supplied
    points (exactly one positive eigenvalue there) are counted as
    `sampled`, not taken: the decision settles them at every point.
    Proof: each non-zero d^alpha p of degree k >= 3 is Lorentzian too (the
    class is closed under differentiation), so it is log-concave on the
    open orthant, and at a point a > 0 with q = d^alpha p, q(a) > 0 and the
    Hessian of log q is H/q - g g^T/q^2 <= 0, with H and g the Hessian and
    gradient of q at a.  So H <= g g^T / q(a): on the kernel of g^T, a
    subspace of codimension at most 1, x^T H x <= 0, and H has at most one
    positive eigenvalue.  Euler's identity gives a^T H a = k (k - 1) q(a)
    > 0, so it has at least one.  The points are still checked to have
    one exact positive coordinate per active variable.

    A matroid's f_M, P_M and reduced polynomial always pass.  Brändén and
    Huh (§4) prove f_M Lorentzian, and also the homogeneous multivariate
    Tutte polynomial Z_q(x0, x) = sum over A of q^(-rk A) x0^(n-|A|) x^A
    for 0 < q <= 1.  The class is closed under a positive scaling of the
    variables, under limits and under derivatives (§2).  So
    Z_q(x0, q x) = sum over A of q^(|A| - rk A) x0^(n-|A|) x^A is
    Lorentzian; as q -> 0 only the independent sets (|A| = rk A) keep
    their coefficient 1, so its limit P_M = sum over I of x0^(n-|I|) x^I
    is Lorentzian, and so is the reduced polynomial d0^(n-r) P_M.  Setting
    x0 = 0 in the latter, a change of variables with non-negative entries,
    gives (n - r)! f_M, which is the other route to f_M.

    No derivative is built as a polynomial.  Write alpha = (b0, S) for
    d0^b0 d_S; a second derivative in a multilinear variable vanishes, so
    only the alpha with multilinear orders <= 1 can survive, and d^alpha p
    is non-zero exactly when some term has mask containing S and x0 power
    at least b0: differentiation sends the surviving monomials x0^e0 x_M
    to distinct monomials x0^(e0 - b0) x_(M - S) with non-zero
    coefficients, so nothing cancels.  The Hessian of a quadratic d^alpha p
    is [c(alpha + e_i + e_j)], from the point-free constants c e0! of the
    terms, taken over the variables d^alpha p depends on, read off the
    same terms: for the others, among them every multilinear variable
    alpha has differentiated, d_v d^alpha p = 0, so their rows are zero and
    the positive count is unchanged.  The coefficients are scaled once by
    the lcm of their denominators, a positive scale that keeps every sign,
    and the Hessians reach `inertia` as integers.
    """
    if p.degree < 2:
        raise ValueError("the Lorentzian condition needs degree >= 2")
    for point in points:
        if len(point) != len(p.active):
            raise ValueError("point length must match active variables")
        if any(v <= 0 for v in point):
            raise ValueError("witness points must be strictly positive")
        clear_denominators(point)  # raises on a coordinate that is not exact
    d = p.degree
    report = WitnessReport(degree=d, checked=comb(len(p.active) + d - 2, d - 2))
    alphas, report.failures = _exact_layer(p)
    report.identically_zero = report.checked - len(alphas)
    report.exact_degree2 = sum(b0 + s.bit_count() == d - 2 for _, b0, s in alphas)
    report.sampled = len(points) * (len(alphas) - report.exact_degree2)
    return report
