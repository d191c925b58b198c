"""Exact homogeneous polynomials attached to matroids.

Every polynomial here lives in Z[x0, x1..xn] (rational coefficients after
differentiation are still exact), is homogeneous, and is multilinear in
x1..xn; only x0 carries higher powers.  A term is therefore keyed by the
pair (e0, mask): the x0 exponent and the squarefree support over {1..n}.

The generating polynomials:

* basis_poly(M)         -- one squarefree monomial per basis, degree rank.
* padded_poly(n, F)     -- sum over the sets S in F of x0^(n-|S|) * x_S,
                           degree n: indep_poly(M) over the independent
                           sets, a morphism's over its bases.
* reduced_poly(n, r, F) -- padded_poly differentiated (n - r) times in x0,
                           degree r, built in one pass over F as the sum
                           of (n-|S|)!/(r-|S|)! * x0^(r-|S|) * x_S:
                           reduced_indep_poly(M) with r = rank.

Calculus (partial derivatives, directional derivatives, evaluation, the
matrix of first-partial coefficients and its Gram matrix) is exact
throughout; no floating point exists in this package.  `HessianPlan` is
the package's only Hessian: it compiles a polynomial's second
derivatives once, in one walk over its terms with a few flat operations
per contribution, into flat contributions grouped by x0 power, with no
second-partial polynomials, and fills the upper triangle at each point
from a table of subset products (`HessianPlan.upper`).  `jet` mirrors
that triangle and reads the gradient and value off it; `hessian_matrix`
is its Hessian, as row lists.  The point checks
(`lefschetz.point_verdicts`) take no jet: they read the bare triangle.
A polynomial compiles its plan, builds the Gram matrix of its first
partials (G G^T over the rows G of `gradient_matrix`) and takes that
matrix's rank on first use, and keeps all three (`HomogPoly.plan`,
`HomogPoly.gram`, `HomogPoly.grad_rank`, each a `matroids.kept` fact in
the polynomial's `_cache`): every Hessian of one polynomial, at any
number of points and from any caller, comes from one plan, and its
gradient matrix is built at most once.  They read
`grad_rank` only at a point where the Hessian is singular, since a
non-singular Hessian already proves full gradient rank, and the first
such proof fills `grad_rank` without the Gram matrix.  Over the
rationals rank G G^T = rank G, and the Gram matrix holds every dot
product of two first partials, which is what the Hodge pair rows of
`verify` read to decide proportionality.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from itertools import combinations, starmap
from math import factorial
from operator import mul, or_
from typing import Iterable, NamedTuple, Sequence

from .linalg import clear_denominators, matrix_rank
from .matroids import Matroid, Mask, bits_of, elems_of, kept

TermKey = tuple[int, Mask]  # (x0 exponent, support mask over {1..n})


class HomogPoly:
    """Sparse homogeneous polynomial, multilinear outside x0.

    `active` is the ordered tuple of variable indices the polynomial is
    declared over (0 means x0); Hessians and gradient matrices range over
    exactly these variables.  `terms` maps (e0, mask) to a non-zero exact
    coefficient.  The zero polynomial is an empty term map with a degree
    tag.  The Hessian plan, the Gram matrix of the first partials and the
    gradient rank depend on the polynomial alone, so each is computed on
    first use and kept in `_cache` (`matroids.kept`).

    `HomogPoly(active, degree, terms)` checks every term; the builders
    here whose terms are valid by construction (`basis_poly`,
    `padded_poly`, `reduced_poly`, `partial`, `linear_apply`) pass
    `_trusted=True` to skip the checks, as the named `Matroid`
    constructors do.
    """

    __slots__ = ("active", "degree", "terms", "_cache")

    def __init__(
        self, active: Sequence[int], degree: int, terms: dict, *, _trusted: bool = False
    ):
        self.active = tuple(active)
        self.degree = degree
        self.terms = terms
        self._cache = {}
        if _trusted:
            return
        has_x0 = 0 in self.active
        allowed = 0  # mask of the active multilinear variables
        for v in self.active:
            if v:
                allowed |= 1 << (v - 1)
        for (e0, mask), c in terms.items():
            if c == 0:
                raise ValueError("zero coefficient stored in term map")
            if e0 + mask.bit_count() != degree:
                raise ValueError(f"term {(e0, mask)} is not homogeneous of degree {degree}")
            if e0 and not has_x0:
                raise ValueError("x0 appears but is not an active variable")
            bad = mask & ~allowed
            if bad:
                raise ValueError(f"x{(bad & -bad).bit_length()} appears but is not active")

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    @kept
    def plan(self) -> HessianPlan:
        """The second partials compiled once (degree >= 2)."""
        return HessianPlan(self)

    @property
    @kept
    def gram(self) -> list[list]:
        """G G^T over the rows G of `gradient_matrix` (degree >= 1): entry
        (a, b) is the dot product of the coefficient vectors of the first
        partials along active variables a and b.  G itself is not kept."""
        rows = gradient_matrix(self)
        size = len(rows)
        gram = [[0] * size for _ in range(size)]
        for a, row in enumerate(rows):  # the upper triangle, mirrored
            for b in range(a, size):
                gram[a][b] = gram[b][a] = sum(map(mul, row, rows[b]))
        return gram

    @property
    @kept
    def grad_rank(self) -> int:
        """The dimension of the span of the first partials (degree >= 1):
        the rank of `gram`, which over the rationals is the rank of
        `gradient_matrix`."""
        return matrix_rank(self.gram)

    def __eq__(self, other) -> bool:
        """Term-level equality; the active declarations may differ."""
        return (
            isinstance(other, HomogPoly)
            and self.degree == other.degree
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.degree, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        return f"HomogPoly({poly_str(self)!r})"


def _sorted_terms(p: HomogPoly):
    return sorted(p.terms.items(), key=lambda kv: (-kv[0][0], kv[0][1]))


def poly_str(p: HomogPoly) -> str:
    """Canonical text form: terms by (e0 desc, mask asc), exact coefficients."""
    if p.is_zero:
        return "0"
    parts = []
    for (e0, mask), c in _sorted_terms(p):
        factors = []
        if e0 == 1:
            factors.append("x0")
        elif e0 > 1:
            factors.append(f"x0^{e0}")
        factors.extend(f"x{e}" for e in elems_of(mask))
        body = "*".join(factors)
        if not factors:
            parts.append(str(c))
        elif c == 1:
            parts.append(body)
        else:
            parts.append(f"{c}*{body}")
    return " + ".join(parts)


def poly_json(p: HomogPoly) -> list[dict]:
    return [
        {"e0": e0, "vars": list(elems_of(mask)), "c": str(c)}
        for (e0, mask), c in _sorted_terms(p)
    ]


# -- constructors -------------------------------------------------------------


def basis_poly(m: Matroid) -> HomogPoly:
    """Sum of x_B over bases B; degree rank, active {1..n}."""
    terms = {(0, b): 1 for b in m.bases}
    return HomogPoly(range(1, m.n + 1), m.rank, terms, _trusted=True)


def padded_poly(n: int, sets: Iterable[Mask]) -> HomogPoly:
    """Sum of x0^(n-|S|) x_S over a family of subsets of {1..n}; degree n,
    active {0..n}.  The masks are trusted to lie in {1..n}."""
    terms = {(n - s.bit_count(), s): 1 for s in sets}
    return HomogPoly(range(0, n + 1), n, terms, _trusted=True)


def reduced_poly(n: int, r: int, sets: Iterable[Mask]) -> HomogPoly:
    """padded_poly(n, sets) hit with d/dx0 exactly (n - r) times, for sets of
    at most r elements, built in one pass over them:
    sum of (n-|S|)!/(r-|S|)! x0^(r-|S|) x_S; degree r, active {0..n}.  The
    masks are trusted to lie in {1..n}."""
    coeff = [factorial(n - k) // factorial(r - k) for k in range(r + 1)]
    terms = {}
    for s in sets:
        k = s.bit_count()
        terms[(r - k, s)] = coeff[k]
    return HomogPoly(range(0, n + 1), r, terms, _trusted=True)


def indep_poly(m: Matroid) -> HomogPoly:
    """Sum of x0^(n-|I|) x_I over independent sets; degree n, active {0..n}."""
    return padded_poly(m.n, m.independent_masks)


def reduced_indep_poly(m: Matroid) -> HomogPoly:
    """indep_poly hit with d/dx0 exactly (n - rank) times; degree rank."""
    return reduced_poly(m.n, m.rank, m.independent_masks)


# -- calculus -----------------------------------------------------------------


def partial(p: HomogPoly, i: int) -> HomogPoly:
    """d/dx_i, exact; the active variable list is unchanged."""
    if i not in p.active:
        raise ValueError(f"variable x{i} is not active")
    terms: dict[TermKey, object] = {}
    if i == 0:
        for (e0, mask), c in p.terms.items():
            if e0:
                terms[(e0 - 1, mask)] = c * e0
    else:
        bit = 1 << (i - 1)
        for (e0, mask), c in p.terms.items():
            if mask & bit:
                terms[(e0, mask ^ bit)] = c
    return HomogPoly(p.active, p.degree - 1, terms, _trusted=True)


def linear_apply(p: HomogPoly, coeffs: Sequence) -> HomogPoly:
    """(sum_i coeffs[pos] * d/dx_i) p, coefficients aligned with p.active.

    A sum of `partial` terms with the zero sums dropped, so the result
    skips the term checks."""
    if len(coeffs) != len(p.active):
        raise ValueError("coefficient vector length must match active variables")
    terms: dict[TermKey, object] = {}
    for c, i in zip(coeffs, p.active):
        if c == 0:
            continue
        for key, pc in partial(p, i).terms.items():
            new = terms.get(key, 0) + c * pc
            if new == 0:
                terms.pop(key, None)
            else:
                terms[key] = new
    return HomogPoly(p.active, p.degree - 1, terms, _trusted=True)


def evaluate(p: HomogPoly, point: Sequence):
    """Exact value at a point given in active-variable order: the value at
    the integer point A = lam a of `clear_denominators`, divided once by
    lam ** degree."""
    if len(point) != len(p.active):
        raise ValueError("point length must match active variables")
    lam, ints = clear_denominators(point)
    coord = dict(zip(p.active, ints))
    x0 = coord.get(0, 0)
    total = 0
    for (e0, mask), c in p.terms.items():
        v = c
        if e0:
            v *= x0 ** e0
        for b in bits_of(mask):
            v *= coord[b + 1]
        total += v
    return total if lam == 1 else Fraction(total, lam**p.degree)


class HessianPlan:
    """A polynomial's second partials, compiled once and filled at any point.

    Compiling walks the term map once.  With P = prod of x_s over S, a term
    c * x0^e0 * P adds c * x0^e0 * P / (x_a x_b) at (a, b) for a != b in S,
    c * e0 * x0^(e0-1) * P / x_a at (x0, a) and
    c * e0 * (e0-1) * x0^(e0-2) * P at (x0, x0).  Each becomes one
    contribution (row * size + col, coefficient, product index) in the
    group of its x0 power, where the index names the subset of S left
    after removing x_a and x_b in a table of subset products; removing
    rather than dividing keeps zero coordinates exact.  A term is split
    into its bits inline and fetches each of its groups once; each
    contribution reads its cell from one of two tables built once per
    polynomial (pair mask -> cell, bit -> x0 cell) and records its
    remainder as a mask.  After the walk, every remainder and every subset
    its product is built from (drop the lowest element) gets a slot in
    ascending mask order, so a parent always comes first, and each
    remainder mask is replaced by its slot.  The table thus lists every
    subset used together with the chain of subsets it is built from, so a
    point fills it with one multiplication per subset.  A fill skips every group
    whose x0 power is 0 at the point (at x0 = 0 only the x0-free group is
    left) and multiplies by no x0 power equal to 1.  Contributions and
    chain links are stored flat, three and two values at a time, since a
    plan kept for every morphism family costs memory per tuple.

    Each contribution is stored at row <= column, so `upper`, the plan's
    only fill, writes the upper triangle alone: `inertia` reads no more,
    and `jet` mirrors it.  `integral` says every coefficient is
    an `int`, so a fill at an integer point gives `int` rows, which
    `inertia` may eliminate in place.
    """

    __slots__ = ("size", "x0", "chain", "groups", "integral")

    def __init__(self, p: HomogPoly):
        if p.degree < 2:
            raise ValueError("Hessian needs degree >= 2")
        size = len(p.active)
        x = None
        kpos = {}  # bit of an active multilinear variable -> its position
        for k, v in enumerate(p.active):
            if v:
                kpos[1 << (v - 1)] = k
            else:
                x = k

        def cell(a: int, b: int) -> int:
            return a * size + b if a <= b else b * size + a

        # pair mask -> cell, and bit -> cell at (x0, bit)
        pcell = {
            a | b: cell(ka, kb)
            for a, ka in kpos.items()
            for b, kb in kpos.items()
            if a < b
        }
        xcell = {} if x is None else {a: cell(x, ka) for a, ka in kpos.items()}
        # x0 power -> flat contributions, each naming its remainder by mask
        groups: dict[int, list] = defaultdict(list)
        for (e0, mask), c in p.terms.items():
            bits = []
            rest = mask
            while rest:
                low = rest & -rest
                bits.append(low)
                rest ^= low
            flat = groups[e0]
            for pair in starmap(or_, combinations(bits, 2)):
                flat += (pcell[pair], c, mask ^ pair)
            if e0:
                flat = groups[e0 - 1]
                ce = c * e0
                for b in bits:
                    flat += (xcell[b], ce, mask ^ b)
                if e0 >= 2:
                    groups[e0 - 2] += (cell(x, x), ce * (e0 - 1), mask)
        # every remainder and the subsets its products are built from
        # (drop the lowest element), given slots in ascending mask order,
        # so a subset's parent always has the lower slot
        level = set()
        for flat in groups.values():
            level.update(flat[2::3])
        subsets = set()
        while level:
            subsets |= level
            level = {s & (s - 1) for s in level} - subsets
        index = {0: 0}  # subset mask -> slot in the products table
        # slot t >= 1 is chain[2t-2 : 2t]: the slot of the subset without
        # its lowest element, and that element's position
        chain = []
        for s in sorted(subsets):
            if s:
                chain += (index[s & (s - 1)], kpos[s & -s])
                index[s] = len(chain) >> 1
        for flat in groups.values():
            flat[2::3] = map(index.__getitem__, flat[2::3])
        self.size = size
        self.x0 = x
        self.chain = tuple(chain)
        self.groups = tuple(
            (e, tuple(flat)) for e, flat in sorted(groups.items()) if flat
        )
        self.integral = set(map(type, p.terms.values())) <= {int}

    def upper(self, point: Sequence) -> list[list]:
        """The Hessian at the point, given in active-variable order, as
        fresh rows that hold its upper triangle and 0 below the diagonal."""
        size = self.size
        if len(point) != size:
            raise ValueError("point length must match active variables")
        prods = [1]
        links = iter(self.chain)
        for parent, k in zip(links, links):
            prods.append(prods[parent] * point[k])
        x0 = 0 if self.x0 is None else point[self.x0]
        h = [0] * (size * size)
        for e, flat in self.groups:
            w = x0**e
            if not w:
                continue
            terms = iter(flat)
            if w == 1:
                for rc, c, t in zip(terms, terms, terms):
                    h[rc] += c * prods[t]
            else:
                for rc, c, t in zip(terms, terms, terms):
                    h[rc] += c * w * prods[t]
        return [h[i * size : (i + 1) * size] for i in range(size)]


class Jet(NamedTuple):
    """A polynomial's second-order jet at the point A / lam (see `jet`)."""

    lam: int
    a: tuple[int, ...]
    h: list[list]  # the Hessian at A
    g: list  # h A = (d - 1) * gradient at A
    s: object  # A^T h A = d (d - 1) * value at A


def jet(p: HomogPoly, point: Sequence) -> Jet:
    """The second-order jet of p (degree d >= 2) at the point: its value,
    gradient and Hessian there, from one fill of p's plan.

    With (lam, A) = clear_denominators(point), h is the Hessian at the
    integer point A: the plan's upper triangle, mirrored in place.  Euler's
    identity gives the rest with no second pass over the terms: the first
    partials are homogeneous of degree d - 1, so g = h A = (d - 1) grad p(A),
    and s = A^T g = d (d - 1) p(A).  A = lam * point with lam > 0, so by
    homogeneity each has the sign it has at the point.  With `int`
    coefficients (`HessianPlan.integral`) every field is an `int`, and h is
    fresh rows that a caller may eliminate in place.
    """
    lam, a = clear_denominators(point)
    h = p.plan.upper(a)
    for i, row in enumerate(h):
        for j in range(i):
            row[j] = h[j][i]
    g = [sum(map(mul, row, a)) for row in h]
    return Jet(lam, a, h, g, sum(map(mul, a, g)))


def hessian_matrix(p: HomogPoly, point: Sequence) -> list[list]:
    """Matrix of second partials at the point, over the active variables,
    as row lists: the h of p's `jet` there, divided once by lam^(d - 2)."""
    jt = jet(p, point)
    den = jt.lam ** (p.degree - 2)
    if den == 1:
        return jt.h
    return [[Fraction(v, den) for v in row] for row in jt.h]


def gradient_matrix(p: HomogPoly) -> list[list]:
    """Coefficient matrix of the first partials.

    Rows follow the active variable order; columns are the union of the
    monomials appearing in any first partial, sorted by (e0 desc, mask asc).
    The rank of this matrix is the dimension of the span of the partials.
    """
    if p.degree < 1:
        raise ValueError("gradient needs degree >= 1")
    # the terms of each first partial, read off p's terms as `partial`
    # would give them: d0 sends c x0^e0 x_S to c e0 x0^(e0-1) x_S, and
    # d_b sends it to c x0^e0 x_(S-b) when b is in S; a term's bits are
    # walked inline, and row_of keys d_b by the bit of b (d0 by 0)
    firsts = [{} for _ in p.active]
    row_of = {
        1 << (v - 1) if v else 0: first for v, first in zip(p.active, firsts)
    }
    for (e0, mask), c in p.terms.items():
        if e0:
            row_of[0][(e0 - 1, mask)] = c * e0
        rest = mask
        while rest:
            low = rest & -rest
            row_of[low][(e0, mask ^ low)] = c
            rest ^= low
    keys = sorted(set().union(*firsts), key=lambda k: (-k[0], k[1]))
    pos = {k: j for j, k in enumerate(keys)}
    rows = []
    for first in firsts:
        row = [0] * len(keys)
        for k, c in first.items():
            row[pos[k]] = c
        rows.append(row)
    return rows
