"""Independent reference implementations used only to cross-check the package.

Everything here deliberately avoids the production code paths: brute-force
powerset scans instead of bitmask caches, Leibniz expansion instead of the
Berkowitz recursion, characteristic-polynomial signs instead of symmetric
elimination, elimination over the whole matrix instead of its upper
triangle, flat-family axioms instead of basis-exchange filtering, pairwise
exchange over explicit exponent vectors instead of grouped bitsets,
plain fraction Gaussian elimination instead of Bareiss, one second-partial
polynomial per entry instead of the compiled Hessian plan, one
polynomial per derivative or level, evaluated on its own, instead of the
second-order jet behind the count inequalities and Hodge determinants,
one derivative polynomial and Hessian plan per multi-index instead of the
Lorentzian witness's table of derivative values,
the rank-difference form over all nested pairs instead of flat preimages,
each map's own loop preimage and restriction instead of the
degeneracy verdict of its basis family, and each map's morphism suite
rows computed for that map alone, with its point verdicts from the
mirrored Hessian, instead of rows shared by key and an upper-triangle
check, the gradient matrix from one first-partial polynomial per
variable instead of rows read off the term map, seeded points as
`Fraction`s read off the stream instead of integers from the table of
the 256 draws, the reduced polynomial of a matroid or of a morphism's
basis family as n - r derivatives of its x0-padded polynomial, one
`partial` polynomial each, instead of the one-pass closed form, a
basis family's normalized count profile as products of `Fraction`s
instead of the integer sides of `matroids.normalized_sides`, and the
gradient rank of every point check from the polynomial's Gram matrix
instead of the Hessian's inertia wherever that Hessian is non-singular,
morphisms by validating every candidate map instead of backtracking
over partial flat preimages, a morphism's bases from the image of every
source subset instead of the maximal hyperplane preimages, and point
verdicts off the whole jet instead of the bare upper triangle.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations
from math import gcd


def popcount(x: int) -> int:
    return bin(x).count("1")


# -- seeded points as Fractions ----------------------------------------------


def fraction_point(rng, dim: int, zeros: int = 0) -> tuple[Fraction, ...]:
    """The point `sampling.seeded_point` draws, as `Fraction`s read straight
    off the stream: coordinate ix is 0 when bit ix of zeros is set, and
    otherwise num/den with num, then den, 1 + the top four bits of the
    next output."""
    coords = []
    for ix in range(dim):
        if zeros >> ix & 1:
            coords.append(Fraction(0))
        else:
            num = 1 + (rng.next64() >> 60)
            coords.append(Fraction(num, 1 + (rng.next64() >> 60)))
    return tuple(coords)


# -- matroid structure from first principles ---------------------------------


def brute_rank(n: int, bases: frozenset[int], subset: int) -> int:
    """Max size of an independent subset of `subset` via powerset scan."""
    elements = [e for e in range(n) if (subset >> e) & 1]
    best = 0
    for size in range(len(elements), -1, -1):
        for combo in combinations(elements, size):
            s = 0
            for e in combo:
                s |= 1 << e
            if any((s & b) == s for b in bases):
                return size
    return best


def brute_closure(n: int, bases: frozenset[int], subset: int) -> int:
    r = brute_rank(n, bases, subset)
    out = subset
    for e in range(n):
        if not (subset >> e) & 1:
            if brute_rank(n, bases, subset | (1 << e)) == r:
                out |= 1 << e
    return out


def brute_circuits(n: int, bases: frozenset[int]) -> set[int]:
    def independent(s: int) -> bool:
        return any((s & b) == s for b in bases)

    out = set()
    for s in range(1, 1 << n):
        if independent(s):
            continue
        if all(independent(s ^ (1 << e)) for e in range(n) if (s >> e) & 1):
            out.add(s)
    return out


def exchange_violations(bases: frozenset[int]):
    """Every (b1, b2, x) at which the basis-exchange axiom fails.

    The textbook pairwise form: for bases b1 != b2 and x in b1 - b2, some
    y in b2 - b1 must make b1 - x + y a basis.  This compares every
    ordered pair of bases, |B|^2 * r^2 lookups.  x is 1-based.
    """
    for b1 in bases:
        for b2 in bases:
            if b1 == b2:
                continue
            only2 = [y for y in range(b2.bit_length()) if (b2 & ~b1) >> y & 1]
            for x in range(b1.bit_length()):
                if not (b1 & ~b2) >> x & 1:
                    continue
                stripped = b1 & ~(1 << x)
                if not any(stripped | (1 << y) in bases for y in only2):
                    yield b1, b2, x + 1


def m_convex_violations(support):
    """Every (alpha, beta, i) at which the exchange axiom fails on a set of
    exponent vectors, given as (x0 power, mask) pairs; i = 0 is x0 and
    i = v is x_v (bit v - 1).

    The textbook pairwise form over explicit vectors: for alpha, beta in
    the set and i with alpha_i > beta_i, some j with alpha_j < beta_j must
    put alpha - e_i + e_j in the set.  Every ordered pair, every i, every j.
    """
    width = max((mask.bit_length() for _, mask in support), default=0)
    vectors = {
        (e0,) + tuple(mask >> b & 1 for b in range(width)): (e0, mask)
        for e0, mask in support
    }
    coords = range(width + 1)
    for a in vectors:
        for b in vectors:
            for i in coords:
                if a[i] <= b[i]:
                    continue
                if not any(
                    a[j] < b[j]
                    and tuple(a[k] - (k == i) + (k == j) for k in coords) in vectors
                    for j in coords
                ):
                    yield vectors[a], vectors[b], i


# -- matroid enumeration through the flat-family axioms ------------------------


def closure_axiom_matroids(n: int) -> set[tuple[int, frozenset[int]]]:
    """Every matroid on {1..n} via flat families, no exchange axiom anywhere.

    A family of subsets is the flat family of a matroid iff it contains
    the ground set, is intersection-closed, and for each member F the
    minimal proper supermembers partition the complement of F.  Bases are
    then recovered through the closure operator.
    """
    if n > 4:
        raise ValueError("oracle enumeration is meant for n <= 4")
    full = (1 << n) - 1
    found: set[tuple[int, frozenset[int]]] = set()
    for fam_bits in range(1 << (1 << n)):
        if not (fam_bits >> full) & 1:
            continue
        members = [s for s in range(1 << n) if (fam_bits >> s) & 1]
        ok = True
        for ix, a in enumerate(members):
            for b in members[ix + 1 :]:
                if not (fam_bits >> (a & b)) & 1:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        for flat in members:
            sups = [g for g in members if g != flat and (g & flat) == flat]
            minimal = [
                g
                for g in sups
                if not any(h != g and (h & flat) == flat and (g & h) == h for h in sups)
            ]
            cover = 0
            for g in minimal:
                diff = g & ~flat
                if cover & diff:
                    ok = False
                    break
                cover |= diff
            if not ok or cover != full & ~flat:
                ok = False
                break
        if not ok:
            continue

        def cl(s: int) -> int:
            c = full
            for g in members:
                if (g & s) == s:
                    c &= g
            return c

        indep = []
        for s in range(1 << n):
            good = True
            rest = s
            while rest:
                low = rest & -rest
                if (cl(s ^ low) // low) & 1:
                    good = False
                    break
                rest ^= low
            if good:
                indep.append(s)
        rank = max(popcount(s) for s in indep)
        bases = frozenset(s for s in indep if popcount(s) == rank)
        found.add((n, bases))
    return found


# -- morphisms, one map at a time ------------------------------------------------


def rank_condition_holds(m, n, phi) -> bool:
    """Rank-difference form of a map phi (1-based images) from m to n: no
    nested pair S1 <= S2 of source subsets gains more rank in the image
    than in the source.  Scans all 3^|E| pairs over a table of phi(S)."""
    img = [0] * (1 << m.n)
    for s in range(1, 1 << m.n):
        low = s & -s
        img[s] = img[s ^ low] | (1 << (phi[low.bit_length() - 1] - 1))
    rank_m, rank_n = m.rank_table, n.rank_table
    for s2 in range(1 << m.n):
        r2m = rank_m[s2]
        r2n = rank_n[img[s2]]
        s1 = s2
        while True:
            if r2n - rank_n[img[s1]] > r2m - rank_m[s1]:
                return False
            if s1 == 0:
                break
            s1 = (s1 - 1) & s2
    return True


def enumerate_morphisms_by_validation(m, targets):
    """`morphisms.enumerate_morphisms` by validation instead of
    backtracking: every candidate map in `itertools.product` order, kept
    when `validate_morphism` accepts it."""
    from itertools import product

    from mlz.morphisms import MorphismError, validate_morphism

    for target in targets:
        for phi in product(range(1, target.n + 1), repeat=m.n):
            try:
                yield validate_morphism(m, target, phi)
            except MorphismError:
                continue


def morphism_levels_by_image(phi):
    """The bases of a morphism bucketed by size, as `MorphismBases.levels`
    gives them: every independent set S of the source with
    rk_N phi(S) = r', from phi(S) of every source subset, built bottom-up,
    and the target's rank table, instead of the hyperplane preimages."""
    m, rank_n = phi.source, phi.target.rank_table
    image = [0] * (1 << m.n)
    for s in range(1, 1 << m.n):
        low = s & -s
        image[s] = image[s ^ low] | (1 << (phi.map[low.bit_length() - 1] - 1))
    by_size = {}
    for s in m.independent_masks:
        if rank_n[image[s]] == phi.r_prime:
            by_size.setdefault(popcount(s), set()).add(s)
    return tuple((k, frozenset(v)) for k, v in sorted(by_size.items()))


def per_map_degeneracy(phi):
    """(classes, annihilator) of a morphism from its own loop preimage
    phi.phi_loops and the restriction of the source to it."""
    from mlz.matroids import restrict

    m = phi.source
    n, r, r_prime = m.n, phi.r, phi.r_prime
    loops_mask = phi.phi_loops
    loop_elems = [e for e in range(1, n + 1) if (loops_mask >> (e - 1)) & 1]
    classes = set()
    if r == r_prime:
        classes.add("A")
    if r - r_prime == 1 and len(loop_elems) == 1:
        classes.add("B")
    restricted, _ = restrict(m, loops_mask)
    if restricted.is_uniform and n - len(loop_elems) == r_prime:
        classes.add("C")
    if not classes:
        return frozenset(), None
    coeffs = [Fraction(0)] * (n + 1)
    if "A" in classes:
        coeffs[0] = Fraction(1)
    elif "B" in classes:
        (j,) = loop_elems
        if m.loops & loops_mask:
            coeffs[j] = Fraction(1)
        else:
            coeffs[0] = Fraction(1)
            coeffs[j] = Fraction(-(n - r + 1))
    else:
        coeffs[0] = Fraction(-1)
        for e in loop_elems:
            coeffs[e] = Fraction(1)
    return frozenset(classes), tuple(coeffs)


# -- exact linear algebra oracles ----------------------------------------------


def perm_sign(perm) -> int:
    inversions = sum(
        1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[i] > perm[j]
    )
    return -1 if inversions % 2 else 1


def leibniz_char_poly(rows) -> tuple[Fraction, ...]:
    """Coefficients of det(xI - A), leading first, via permutation expansion."""
    n = len(rows)

    def pmul(p, q):
        out = [Fraction(0)] * (len(p) + len(q) - 1)
        for i, a in enumerate(p):
            for j, b in enumerate(q):
                out[i + j] += a * b
        return out

    total = [Fraction(0)] * (n + 1)
    for perm in permutations(range(n)):
        poly = [Fraction(perm_sign(perm))]
        for i, j in enumerate(perm):
            if i == j:
                poly = pmul(poly, [Fraction(-rows[i][i]), Fraction(1)])
            else:
                poly = pmul(poly, [Fraction(-rows[i][j])])
        for d, c in enumerate(poly):
            total[d] += c
    return tuple(reversed(total))


def berkowitz_inertia(rows) -> tuple[int, int, int]:
    """(pos, neg, zero) from the Berkowitz characteristic polynomial: the
    zero multiplicity is the number of trailing zero coefficients and the
    positive count the number of Descartes sign variations, exact because
    a symmetric matrix is real-rooted."""
    from mlz.linalg import char_poly

    coeffs = list(char_poly(rows))
    zero = 0
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
        zero += 1
    nonzero = [c for c in coeffs if c != 0]
    pos = sum(1 for c1, c2 in zip(nonzero, nonzero[1:]) if (c1 > 0) != (c2 > 0))
    return (pos, len(rows) - pos - zero, zero)


def full_matrix_inertia(rows) -> tuple[int, int, int]:
    """(pos, neg, zero) by symmetric fraction-free elimination that keeps
    the whole matrix: every entry is cleared to an integer over one common
    denominator and flattened, each Bareiss update stores a_ij and its
    mirror a_ji, and a_ik is read from row i."""
    size = len(rows)
    flat = [Fraction(v) for row in rows for v in row]
    scale = 1
    for v in flat:
        scale = scale * v.denominator // gcd(scale, v.denominator)
    flat = [int(v * scale) for v in flat]
    m = [flat[i * size : (i + 1) * size] for i in range(size)]
    pos = neg = 0
    prev = 1
    for k in range(size):
        piv = next((i for i in range(k, size) if m[i][i]), None)
        if piv is None:
            pair = next(
                ((i, j) for i in range(k, size) for j in range(i + 1, size) if m[i][j]),
                None,
            )
            if pair is None:
                break
            piv, j = pair
            for t in range(k, size):
                m[piv][t] += m[j][t]
            for t in range(k, size):
                m[t][piv] += m[t][j]
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            for row in m[k:]:
                row[k], row[piv] = row[piv], row[k]
        p = m[k][k]
        if (p > 0) == (prev > 0):
            pos += 1
        else:
            neg += 1
        for i in range(k + 1, size):
            a_ik = m[i][k]
            for j in range(i, size):
                quot, rem = divmod(p * m[i][j] - a_ik * m[k][j], prev)
                assert not rem, "fraction-free elimination lost exactness"
                m[i][j] = m[j][i] = quot
        prev = p
    return (pos, neg, size - pos - neg)


def congruence(rows, t_rows) -> list[list]:
    """T^t * A * T for a square transform T given by rows."""
    n = len(rows)
    if len(t_rows) != n or any(len(r) != n for r in t_rows):
        raise ValueError("transform shape mismatch")
    at = [
        [sum(rows[i][k] * t_rows[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]
    return [
        [sum(t_rows[k][i] * at[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]


def gauss_rank(rows) -> int:
    """Rank by plain fraction Gaussian elimination."""
    m = [[Fraction(v) for v in row] for row in rows]
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    for col in range(ncols):
        pivot = None
        for i in range(rank, nrows):
            if m[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [v * inv for v in m[rank]]
        for i in range(nrows):
            if i != rank and m[i][col] != 0:
                factor = m[i][col]
                m[i] = [a - factor * b for a, b in zip(m[i], m[rank])]
        rank += 1
        if rank == nrows:
            break
    return rank


def second_partials_hessian(p, point) -> list[list]:
    """Hessian rows at the point: each entry is its own second-partial
    polynomial d/dx_a d/dx_b p, evaluated there (m^2 polynomials)."""
    from mlz.polynomials import evaluate, partial

    firsts = [partial(p, i) for i in p.active]
    return [
        [evaluate(partial(first, j), point) for j in p.active] for first in firsts
    ]


def _x0_derivatives(p, times: int):
    """p differentiated in x0 `times` times, one validated `partial`
    polynomial per derivative."""
    from mlz.polynomials import partial

    for _ in range(times):
        p = partial(p, 0)
    return p


def reduced_by_derivatives(m):
    """indep_poly(m) differentiated in x0 n - rank times, one validated
    `partial` polynomial per derivative."""
    from mlz.polynomials import indep_poly

    return _x0_derivatives(indep_poly(m), m.n - m.rank)


def family_polys_by_derivatives(family):
    """(P, reduced P) of a morphism's basis family: the x0-padded sum over
    its bases, term by term, and n - r x0 derivatives of it."""
    from mlz.polynomials import HomogPoly

    n = family.n
    terms = {(n - k, s): 1 for k, bucket in family.levels for s in bucket}
    p = HomogPoly(range(0, n + 1), n, terms)
    return p, _x0_derivatives(p, n - family.r)


def eur_huh_by_fractions(family):
    """The normalized count profile of a basis family as products of
    `Fraction`s: at each r' < k < r, (c_(k-1)/C(n,k-1)) * (c_(k+1)/C(n,k+1))
    against (c_k/C(n,k))^2, with c_k the number of bases of size k."""
    from math import comb

    from mlz.morphisms import EurHuhEntry

    n = family.n
    counts = {k: len(bucket) for k, bucket in family.levels}
    out = []
    for k in range(family.r_prime + 1, family.r):
        lhs = Fraction(counts.get(k - 1, 0), comb(n, k - 1)) * Fraction(
            counts.get(k + 1, 0), comb(n, k + 1)
        )
        rhs = Fraction(counts.get(k, 0), comb(n, k)) ** 2
        out.append(EurHuhEntry(k, lhs, rhs, lhs == rhs))
    return tuple(out)


def partial_gradient_matrix(p) -> list[list]:
    """The coefficient matrix of the first partials, one `partial`
    polynomial per active variable; columns are the union of their
    monomials, sorted by (e0 desc, mask asc)."""
    from mlz.polynomials import partial

    firsts = [partial(p, i) for i in p.active]
    keys = sorted({k for q in firsts for k in q.terms}, key=lambda k: (-k[0], k[1]))
    pos = {k: j for j, k in enumerate(keys)}
    rows = []
    for q in firsts:
        row = [0] * len(keys)
        for k, c in q.terms.items():
            row[pos[k]] = c
        rows.append(row)
    return rows


def iterated_partial(p, orders):
    """Apply d/dx_i orders[pos] times for each active variable (by position)."""
    from mlz.polynomials import partial

    for i, k in zip(p.active, orders):
        for _ in range(k):
            p = partial(p, i)
            if p.is_zero:
                return p
    return p


def _multi_indices(nvars: int, budget: int):
    """All exponent vectors of length nvars with sum <= budget."""
    if nvars == 0:
        yield ()
        return
    for head in range(budget + 1):
        for tail in _multi_indices(nvars - 1, budget - head):
            yield (head,) + tail


def derivative_witness(p, points):
    """The Lorentzian witness with one derivative polynomial per multi-index:
    every d^alpha p of order <= deg - 2 is built by repeated `partial`, and
    its Hessian comes from its own plan, over all active variables."""
    from mlz.lefschetz import WitnessFailure, WitnessReport
    from mlz.linalg import clear_denominators, inertia
    from mlz.polynomials import hessian_matrix

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
        for raw, point in zip(points, scaled):
            report.sampled += 1
            pos = inertia(hessian_matrix(q, point)).pos
            if pos != 1:
                report.failures.append(WitnessFailure(orders, tuple(raw), pos))
    return report


def sympy_inertia(rows) -> tuple[int, int, int]:
    """Eigenvalue sign counts via sympy's own charpoly and real roots.

    real_roots lists roots with multiplicity, so sign counts are exact for
    the (real-rooted) characteristic polynomial of a symmetric matrix.
    """
    import sympy

    mat = sympy.Matrix([[sympy.Rational(v) for v in row] for row in rows])
    lam = sympy.symbols("lam")
    poly = sympy.Poly(mat.charpoly(lam).as_expr(), lam)
    roots = sympy.real_roots(poly, multiple=True)
    pos = sum(1 for r in roots if r.is_positive)
    neg = sum(1 for r in roots if r.is_negative)
    zero = sum(1 for r in roots if r.is_zero)
    return (pos, neg, zero)


def random_unimodular(rng, size: int) -> list[list[int]]:
    """Integer matrix with determinant +-1 from random elementary moves."""
    rows = [[1 if i == j else 0 for j in range(size)] for i in range(size)]
    if size < 2:
        return rows
    for _ in range(4 * size):
        op = rng.next64() % 3
        i = rng.next64() % size
        j = rng.next64() % size
        if i == j:
            j = (j + 1) % size
        if op == 0:
            rows[i], rows[j] = rows[j], rows[i]
        elif op == 1:
            rows[i] = [-v for v in rows[i]]
        else:
            c = (rng.next64() % 5) - 2
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return rows


def sympy_poly_from_terms(terms, var_names):
    """Build a sympy expression from a HomogPoly term map."""
    import sympy

    symbols = {name: sympy.symbols(name) for name in var_names}
    expr = sympy.Integer(0)
    for (e0, mask), coeff in terms.items():
        term = sympy.Rational(coeff) * symbols["x0"] ** e0 if "x0" in symbols else sympy.Rational(coeff)
        if "x0" not in symbols and e0:
            raise ValueError("x0 exponent without x0 symbol")
        e = 0
        rest = mask
        while rest:
            low = rest & -rest
            term *= symbols[f"x{low.bit_length()}"]
            rest ^= low
        expr += term
    return expr, symbols


# -- count inequalities and Hodge determinants, one polynomial per quantity ---


def scale(p, factor):
    from mlz.polynomials import HomogPoly

    if factor == 0:
        return HomogPoly(p.active, p.degree, {})
    return HomogPoly(p.active, p.degree, {k: factor * c for k, c in p.terms.items()})


def add(p, q):
    from mlz.polynomials import HomogPoly

    if p.degree != q.degree:
        raise ValueError("degree mismatch")
    if p.active != q.active:
        raise ValueError("active variable mismatch")
    terms = dict(p.terms)
    for k, c in q.terms.items():
        new = terms.get(k, 0) + c
        if new == 0:
            terms.pop(k, None)
        else:
            terms[k] = new
    return HomogPoly(p.active, p.degree, terms)


def proportional(p, q) -> bool:
    """True when one polynomial is a scalar multiple of the other."""
    if p.is_zero or q.is_zero:
        return True
    if set(p.terms) != set(q.terms) or p.degree != q.degree:
        return False
    key = next(iter(p.terms))
    cp, cq = p.terms[key], q.terms[key]
    return all(Fraction(c) * cq == Fraction(q.terms[k]) * cp for k, c in p.terms.items())


def _eval_scaled(p, point) -> Fraction:
    """p(a) = p(lam * a) / lam^deg, with lam * a integral."""
    from mlz.linalg import clear_denominators
    from mlz.polynomials import evaluate

    lam, scaled = clear_denominators(point)
    return Fraction(evaluate(p, scaled), lam**p.degree)


def mason_basis_report(m, i: int, j: int, point=None):
    """The basis-count report from f, di f, dj f and di dj f, each its own
    polynomial evaluated at the point; counts by scanning the bases."""
    from mlz.polynomials import basis_poly, partial
    from mlz.verify import MasonBasisReport

    f = basis_poly(m)
    bi, bj = 1 << (i - 1), 1 << (j - 1)
    count_bases = len(m.bases)
    count_i = sum(1 for b in m.bases if b & bi)
    count_j = sum(1 for b in m.bases if b & bj)
    count_ij = sum(1 for b in m.bases if b & bi and b & bj)
    if point is None:
        at = None
        fv, fiv, fjv, fijv = map(Fraction, (count_bases, count_i, count_j, count_ij))
    else:
        at = tuple(Fraction(v) for v in point)
        fi, fj = partial(f, i), partial(f, j)
        fv, fiv, fjv, fijv = (
            _eval_scaled(q, at) for q in (f, fi, fj, partial(fi, j))
        )
    lhs = fv * fijv
    rhs = 2 * (1 - Fraction(1, m.rank)) * fiv * fjv
    applicable = not (m.loops & (bi | bj))
    classes = len(m.parallel_decomposition.classes)
    predicted_equal = (
        applicable and brute_rank(m.n, m.bases, bi | bj) == 2 and classes == 2
    )
    return MasonBasisReport(
        i=i,
        j=j,
        count_bases=count_bases,
        count_i=count_i,
        count_j=count_j,
        count_ij=count_ij,
        lhs=lhs,
        rhs=rhs,
        equal=lhs == rhs,
        predicted_equal=predicted_equal,
        consistent=(lhs == rhs) == predicted_equal,
        applicable=applicable,
        point=at,
    )


def f_slice(m, k: int):
    """Degree-k layer: sum of x_I over independent k-sets (f_0 = 1)."""
    from mlz.polynomials import HomogPoly

    if not 0 <= k <= m.rank:
        raise ValueError(f"slice index {k} out of range 0..{m.rank}")
    terms = {(0, s): 1 for s in m.independent_masks if popcount(s) == k}
    return HomogPoly(range(1, m.n + 1), k, terms)


def mason_indep_report(m, k: int, point=None):
    """The level-k independent-count report from the slices f_(k-1), f_k
    and f_(k+1), each its own polynomial evaluated at the point."""
    from math import comb

    from mlz.verify import MasonIndepReport

    n, r = m.n, m.rank
    at = None if point is None else tuple(Fraction(v) for v in point)

    def normalized(level: int) -> Fraction:
        if level > r:
            return Fraction(0)
        return _eval_scaled(f_slice(m, level), at or (1,) * n) / comb(n, level)

    if k + 1 > n:
        lhs = rhs = Fraction(0)
    else:
        lhs = normalized(k - 1) * normalized(k + 1)
        rhs = normalized(k) ** 2
    equal_weights = at is None or len(set(at)) == 1
    predicted_equal = k + 1 < m.girth and (equal_weights or k + 1 > n)
    return MasonIndepReport(
        k=k,
        lhs=lhs,
        rhs=rhs,
        equal=lhs == rhs,
        predicted_equal=predicted_equal,
        consistent=(lhs == rhs) == predicted_equal,
        point=at,
    )


def independent_pair(m, i: int, j: int) -> bool:
    """rank({i, j}) == 2, read off the matroid's rank table."""
    return m.rank_of((1 << (i - 1)) | (1 << (j - 1))) == 2


def jet_basis_rows(m, point=None):
    """The basis-count report of every pair i < j with lhs and rhs built as
    `Fraction`s off f_M's jets at (1, ..., 1) and at the point (a rational
    point, or None for (1, ..., 1))."""
    from mlz.polynomials import jet as fill_jet
    from mlz.verify import MasonBasisReport, _fm

    n, r = m.n, m.rank
    at = None if point is None else tuple(point)
    ones = fill_jet(_fm(m), (1,) * n)
    jet = ones if at is None else fill_jet(_fm(m), at)
    den = r * (r - 1) * jet.lam ** (2 * r - 2)
    classes = len(m.parallel_decomposition.classes)
    rows = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            x, y = i - 1, j - 1
            lhs = Fraction(jet.s * jet.h[x][y], den)
            rhs = Fraction(2 * jet.g[x] * jet.g[y], den)
            applicable = not (m.loops >> x & 1 or m.loops >> y & 1)
            predicted_equal = (
                applicable and independent_pair(m, i, j) and classes == 2
            )
            rows.append(
                MasonBasisReport(
                    i=i,
                    j=j,
                    count_bases=ones.s // (r * (r - 1)),
                    count_i=ones.g[x] // (r - 1),
                    count_j=ones.g[y] // (r - 1),
                    count_ij=ones.h[x][y],
                    lhs=lhs,
                    rhs=rhs,
                    equal=lhs == rhs,
                    predicted_equal=predicted_equal,
                    consistent=(lhs == rhs) == predicted_equal,
                    applicable=applicable,
                    point=at,
                )
            )
    return rows


def jet_indep_rows(m, point=None):
    """The independent-count report of every level 1..r, with the
    normalized levels f_k(a) / C(n, k) built as `Fraction`s from one pass
    over the independent sets and multiplied as `Fraction`s."""
    from math import comb

    from mlz.linalg import clear_denominators
    from mlz.verify import MasonIndepReport

    n, r = m.n, m.rank
    at = None if point is None else tuple(point)
    lam, a = clear_denominators(at or (1,) * n)
    sums = [0] * (r + 1)
    prods = {0: 1}
    for s in sorted(m.independent_masks):
        if s:
            low = s & -s
            prods[s] = prods[s ^ low] * a[low.bit_length() - 1]
        sums[popcount(s)] += prods[s]
    levels = [Fraction(sums[k], lam**k * comb(n, k)) for k in range(r + 1)]
    levels.append(Fraction(0))
    rows = []
    for k in range(1, r + 1):
        if k + 1 > n:
            lhs = rhs = Fraction(0)
        else:
            lhs = levels[k - 1] * levels[k + 1]
            rhs = levels[k] ** 2
        equal_weights = at is None or len(set(at)) == 1
        predicted_equal = k + 1 < m.girth and (equal_weights or k + 1 > n)
        rows.append(
            MasonIndepReport(
                k=k,
                lhs=lhs,
                rhs=rhs,
                equal=lhs == rhs,
                predicted_equal=predicted_equal,
                consistent=(lhs == rhs) == predicted_equal,
                point=at,
            )
        )
    return rows


def jet_mason_rows(m, scope: str, seed: int, equality_star: list, equality_star2: list):
    """`verify._mason_rows` from the reports of `jet_basis_rows` and
    `jet_indep_rows`, at seeded points drawn by `fraction_point`."""
    from mlz.sampling import derive
    from mlz.verify import SEEDED_MASON_POINTS, CheckRow, _matroid_key

    n = m.n
    rng = derive(seed, 0xBA5E5, n, _matroid_key(m))
    out = []
    at_least_three = len(m.parallel_decomposition.classes) >= 3

    ones_bad = 0
    ones = jet_basis_rows(m)
    for rep in ones:
        if rep.lhs > rep.rhs or (rep.applicable and not rep.consistent):
            ones_bad += 1
        if rep.applicable and rep.equal:
            equality_star.append(
                {"scope": scope, "i": rep.i, "j": rep.j, "value": str(rep.lhs)}
            )
    status = "pass" if ones_bad == 0 else "fail"
    detail = f"pairs={len(ones)}"
    out.append(CheckRow(scope, "basis-counts-equality-iff", status, detail))

    indep_bad = 0
    for rep in jet_indep_rows(m):
        if rep.lhs > rep.rhs or not rep.consistent:
            indep_bad += 1
        if rep.equal:
            equality_star2.append({"scope": scope, "k": rep.k, "value": str(rep.lhs)})
    status = "pass" if indep_bad == 0 else "fail"
    out.append(CheckRow(scope, "indep-counts-equality-iff", status, f"levels={m.rank}"))

    weighted_bad = 0
    weighted_rows = 0
    for _ in range(SEEDED_MASON_POINTS):
        a = fraction_point(rng, n)
        for rep in jet_basis_rows(m, a):
            weighted_rows += 1
            if rep.lhs > rep.rhs:
                weighted_bad += 1
            if (
                rep.applicable
                and at_least_three
                and independent_pair(m, rep.i, rep.j)
                and rep.equal
            ):
                weighted_bad += 1
        for rep in jet_indep_rows(m, a):
            weighted_rows += 1
            if rep.lhs > rep.rhs:
                weighted_bad += 1
            if rep.k + 1 >= m.girth and rep.equal:
                weighted_bad += 1
    status = "pass" if weighted_bad == 0 else "fail"
    out.append(CheckRow(scope, "weighted-strictness", status, f"rows={weighted_rows}"))
    return out


def hodge_pair_counts(p, points, pairs) -> tuple[int, int]:
    """(tested, nonneg) of the 2x2 Hodge determinants, with l1 p and l2 p
    built as polynomials and compared by `proportional`, the first
    partials evaluated one by one and the Hessian entry by entry."""
    from mlz.linalg import clear_denominators
    from mlz.polynomials import evaluate, linear_apply, partial

    d = p.degree
    firsts = {v: partial(p, v) for v in p.active}
    pos = {v: k for k, v in enumerate(p.active)}
    bad = tested = 0
    for point in points:
        _, a = clear_denominators(point)
        base = evaluate(p, a)
        if base <= 0:
            continue
        la_p = linear_apply(p, a)
        l1l1 = d * (d - 1) * base
        first_vals = {v: evaluate(firsts[v], a) for v in p.active}
        h = second_partials_hessian(p, a)
        for i, j in pairs:
            dij = h[pos[i]][pos[j]]
            dii = h[pos[i]][pos[i]]
            djj = h[pos[j]][pos[j]]
            for t in (0, 1, -1):
                if proportional(la_p, add(firsts[i], scale(firsts[j], t))):
                    continue
                l1l2 = (d - 1) * (first_vals[i] + t * first_vals[j])
                l2l2 = dii + 2 * t * dij + t * t * djj
                tested += 1
                if l1l1 * l2l2 - l1l2 * l1l2 >= 0:
                    bad += 1
    return tested, bad


# -- per-map morphism suite ------------------------------------------------------


def gram_rank_verdicts(p, point):
    """`lefschetz.point_verdicts` by the rule without its shortcut: g is
    always the Gram rank the polynomial keeps (`HomogPoly.grad_rank`),
    whether or not the Hessian at the point is singular; p(a) by
    evaluation, the inertia by whole-matrix elimination of the mirrored
    Hessian."""
    from mlz.lefschetz import PointVerdicts
    from mlz.linalg import Inertia
    from mlz.polynomials import evaluate, hessian_matrix

    if p.degree < 2:
        raise ValueError("point checks need degree >= 2")
    if evaluate(p, point) <= 0:
        return PointVerdicts(False, None, None, None)
    g = p.grad_rank
    ine = Inertia(*full_matrix_inertia(hessian_matrix(p, point)))
    slp1 = ine.pos + ine.neg == g
    hrr1 = ine.as_tuple() == (1, g - 1, len(p.active) - g)
    return PointVerdicts(True, ine, slp1, hrr1, g)


def jet_point_verdicts(p, point):
    """`lefschetz.point_verdicts` off the whole jet instead of the bare
    upper triangle: the sign of p(a) is the sign of the jet's
    s = A^T H A, the inertia that of its mirrored h."""
    from mlz.lefschetz import PointVerdicts
    from mlz.linalg import inertia
    from mlz.polynomials import jet

    if p.degree < 2:
        raise ValueError("point checks need degree >= 2")
    jt = jet(p, point)
    if jt.s <= 0:
        return PointVerdicts(False, None, None, None)
    ine = inertia(jt.h)
    m = len(p.active)
    g = p.grad_rank if ine.zero else m
    return PointVerdicts(
        True, ine, ine.pos + ine.neg == g, ine.as_tuple() == (1, g - 1, m - g), g
    )


def _whole_hessian_verdicts(p, point) -> str:
    """The `reduced-point-verdicts` entry of p at an integer point, from
    `gram_rank_verdicts`."""
    v = gram_rank_verdicts(p, point)
    if not v.value_positive:
        return "inapplicable"
    return f"slp1={v.slp1},hrr1={v.hrr1},inertia={v.inertia.render()}"


def per_map_morphism_suite(phi, seed: int):
    """`verify.morphism_suite` computed for one map alone: every row from the
    map, its source and its target, with nothing shared between maps but
    the basis family's facts, and all four point verdicts of the reduced
    polynomial from `_whole_hessian_verdicts`."""
    from mlz import morphisms as mo
    from mlz.sampling import derive, seeded_point
    from mlz.polynomials import indep_poly
    from mlz.verify import SuiteReport, _matroid_key

    m, nmat = phi.source, phi.target
    n = m.n
    scope = f"morphism(n={n},map={','.join(map(str, phi.map))})"
    report = SuiteReport(scope, seed)
    rng = derive(seed, n, _matroid_key(m), _matroid_key(nmat), *phi.map)

    family = mo.basis_family(mo.morphism_bases(phi))
    by_size = dict(morphism_levels_by_image(phi))
    levels_ok = set(by_size) == set(range(phi.r_prime, phi.r + 1))
    top_ok = by_size.get(phi.r, frozenset()) == m.bases
    exchange_ok = not any(
        next(exchange_violations(bucket), None) for bucket in by_size.values()
    )
    report.check(
        "morphism-bases-levels",
        levels_ok and top_ok and exchange_ok,
        f"levels={sorted(by_size)}",
    )

    loops_mask = phi.phi_loops
    ext_ok = True
    bottom = by_size.get(phi.r_prime, frozenset())
    all_b = {s for bucket in by_size.values() for s in bucket}
    for i_mask in bottom:
        if i_mask & loops_mask:
            ext_ok = False
        for j_mask in range(1 << n):
            if j_mask & ~loops_mask:
                continue
            if ((i_mask | j_mask) in all_b) != (j_mask in m.independent_masks):
                ext_ok = False
    report.check("morphism-bases-extension", ext_ok, f"bottom={len(bottom)}")

    p_phi, reduced = family.polys
    verdict = family.degeneracy
    g = reduced.grad_rank
    deficient = g < n + 1
    detail = f"grad_rank={g} classes={''.join(sorted(verdict.classes)) or '-'}"
    if m.is_simple:
        ok, name = deficient == bool(verdict.classes), "degeneracy-trichotomy"
    else:
        ok, name = (not verdict.classes) or deficient, "degeneracy-sufficiency"
    report.check(name, ok, detail)
    if verdict.annihilator is not None:
        report.check("annihilator-exact", True)

    if phi.r == phi.r_prime:
        expect = {(n - phi.r, mask): 1 for mask in m.bases}
        report.check("equal-rank-shape", p_phi.terms == expect)
    if nmat.rank == 0:
        report.check("rank-zero-target-shape", p_phi == indep_poly(m))

    profile = family.eur_huh
    report.check(
        "eur-huh-inequality",
        all(e.lhs <= e.rhs for e in profile),
        f"levels={len(profile)} equalities={sum(1 for e in profile if e.equal)}",
    )

    if reduced.degree < 2:
        verdicts = ["degree<2"]
    else:
        points = [("1," * n + "1", (1,) * (n + 1)), ("0" + ",1" * n, (0,) + (1,) * n)]
        for zeros in (0, 1):
            points.append(seeded_point(rng, n + 1, zeros=zeros))
        verdicts = [
            f"@({text}):"
            + _whole_hessian_verdicts(reduced, a)
            for text, a in points
        ]
    report.add("reduced-point-verdicts", "recorded", " ".join(verdicts))
    return report
