"""Matroid facts recomputed from basis families, independently of mlz.

Everything here works on ground sets {0..n-1} with subsets as bitmasks and
uses only the standard library.  The workloads use it to generate their
inputs and to check mlz's outputs against theory, never against a saved
copy of an earlier output.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product


def mask(elements) -> int:
    out = 0
    for e in elements:
        out |= 1 << e
    return out


def popcount(m: int) -> int:
    return bin(m).count("1")


def rank_table(n: int, bases) -> list[int]:
    bases = tuple(bases)
    return [max(popcount(b & s) for b in bases) for s in range(1 << n)]


def closure_flats(n: int, bases) -> set[int]:
    """Flats as closures cl(S) = S + {e : r(S + e) = r(S)} of every subset."""
    rank = rank_table(n, bases)
    flats = set()
    for s in range(1 << n):
        cl = s
        for e in range(n):
            if rank[s | 1 << e] == rank[s]:
                cl |= 1 << e
        flats.add(cl)
    return flats


def independent_sets(bases) -> set[int]:
    out = set()
    for b in bases:
        sub = b
        while True:
            out.add(sub)
            if sub == 0:
                break
            sub = (sub - 1) & b
    return out


def is_simple(n: int, bases) -> bool:
    """No loops and no parallel pairs: every set of size <= 2 is independent."""
    indep = independent_sets(bases)
    return all(mask(c) in indep for k in (1, 2) for c in combinations(range(n), k))


def girth(n: int, bases):
    """Size of a smallest circuit, None for a free matroid."""
    indep = independent_sets(bases)
    for k in range(1, n + 1):
        if any(mask(c) not in indep for c in combinations(range(n), k)):
            return k
    return None


def parallel_classes(n: int, bases) -> list[int]:
    """Classes of non-loop elements, two elements joined when no basis has both."""
    covered = 0
    for b in bases:
        covered |= b
    classes: list[int] = []
    for e in range(n):
        if not covered >> e & 1:
            continue
        for i, cls in enumerate(classes):
            rep = (cls & -cls).bit_length() - 1
            if not any(b >> e & 1 and b >> rep & 1 for b in bases):
                classes[i] |= 1 << e
                break
        else:
            classes.append(1 << e)
    return classes


def satisfies_exchange(bases) -> bool:
    for b1 in bases:
        for b2 in bases:
            for x in range(b1.bit_length()):
                if not (b1 & ~b2) >> x & 1:
                    continue
                stripped = b1 & ~(1 << x)
                only2 = b2 & ~b1
                if not any(
                    only2 >> y & 1 and stripped | 1 << y in bases
                    for y in range(only2.bit_length())
                ):
                    return False
    return True


def enumerate_matroids(n: int) -> list[tuple[int, frozenset]]:
    """Every labeled matroid on n elements as (rank, bases).

    Ordered by rank, then lexicographically by the sorted list of basis
    masks: the catalog order documented by mlz's enumerate_matroids, which
    the survey's scope indices follow.
    """
    out = []
    for r in range(n + 1):
        subs = [mask(c) for c in combinations(range(n), r)]
        found = []
        for fam in range(1, 1 << len(subs)):
            bases = frozenset(s for i, s in enumerate(subs) if fam >> i & 1)
            if satisfies_exchange(bases):
                found.append(bases)
        found.sort(key=sorted)
        out.extend((r, bases) for bases in found)
    return out


def morphism_count(src_n: int, src_bases, tgt_n: int, tgt_bases) -> int:
    """Maps under which every target flat pulls back to a source flat and the
    image spans the target, counted by trying all tgt_n ** src_n maps."""
    src_flats = closure_flats(src_n, src_bases)
    tgt_flats = closure_flats(tgt_n, tgt_bases)
    tgt_rank = rank_table(tgt_n, tgt_bases)
    count = 0
    for phi in product(range(tgt_n), repeat=src_n):
        spans = tgt_rank[mask(phi)] == tgt_rank[(1 << tgt_n) - 1]
        if spans and all(
            mask(i for i, t in enumerate(phi) if flat >> t & 1) in src_flats
            for flat in tgt_flats
        ):
            count += 1
    return count


def morphism_family(src_bases, tgt_n, tgt_bases, phi) -> frozenset:
    """Independent source sets whose image spans the target."""
    tgt_rank = rank_table(tgt_n, tgt_bases)
    full = tgt_rank[(1 << tgt_n) - 1]
    family = set()
    for s in independent_sets(src_bases):
        image = mask(t for i, t in enumerate(phi) if s >> i & 1)
        if tgt_rank[image] == full:
            family.add(s)
    return frozenset(family)


def spanning_trees(vertices: int, edges) -> frozenset:
    """Edge masks of the spanning trees of a connected graph (brute force)."""
    out = set()
    for combo in combinations(range(len(edges)), vertices - 1):
        parent = list(range(vertices))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        acyclic = True
        for i in combo:
            u, v = (find(x) for x in edges[i])
            if u == v:
                acyclic = False
                break
            parent[u] = v
        if acyclic:
            out.add(mask(combo))
    return frozenset(out)


def determinant(rows) -> Fraction:
    a = [[Fraction(v) for v in row] for row in rows]
    size = len(a)
    det = Fraction(1)
    for c in range(size):
        pivot = next((r for r in range(c, size) if a[r][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, size):
            factor = a[r][c] / a[c][c]
            if factor:
                for k in range(c, size):
                    a[r][k] -= factor * a[c][k]
    return det


def kirchhoff(vertices: int, edges) -> int:
    """Spanning-tree count: any cofactor of the graph Laplacian."""
    lap = [[0] * vertices for _ in range(vertices)]
    for u, v in edges:
        lap[u][u] += 1
        lap[v][v] += 1
        lap[u][v] -= 1
        lap[v][u] -= 1
    return int(determinant([row[1:] for row in lap[1:]]))


def inertia(rows) -> tuple[int, int, int]:
    """(positive, negative, zero) eigenvalue counts of a symmetric matrix.

    Symmetric elimination with exact rationals (Sylvester's law of
    inertia): pivot on a nonzero diagonal entry when there is one, else on
    a 2x2 block [[0, b], [b, 0]] (one positive, one negative eigenvalue).
    """
    a = [[Fraction(v) for v in row] for row in rows]
    pos = neg = 0
    while a:
        size = len(a)
        d = next((i for i in range(size) if a[i][i] != 0), None)
        if d is not None:
            piv = a[d][d]
            if piv > 0:
                pos += 1
            else:
                neg += 1
            rest = [i for i in range(size) if i != d]
            a = [
                [a[i][j] - a[i][d] * a[d][j] / piv for j in rest] for i in rest
            ]
            continue
        pair = next(
            ((i, j) for i in range(size) for j in range(i + 1, size) if a[i][j] != 0),
            None,
        )
        if pair is None:
            break
        i0, j0 = pair
        b = a[i0][j0]
        pos += 1
        neg += 1
        rest = [k for k in range(size) if k not in pair]
        # Schur complement of the block [[0, b], [b, 0]], whose inverse is
        # [[0, 1/b], [1/b, 0]].
        a = [
            [
                a[i][j] - (a[i][i0] * a[j0][j] + a[i][j0] * a[i0][j]) / b
                for j in rest
            ]
            for i in rest
        ]
    return pos, neg, len(rows) - pos - neg


def basis_hessian(n: int, bases, point) -> list[list[Fraction]]:
    """Hessian of sum over bases of prod x_e, at the point, term by term."""
    h = [[Fraction(0)] * n for _ in range(n)]
    for b in bases:
        elems = [e for e in range(n) if b >> e & 1]
        for i, j in combinations(elems, 2):
            term = Fraction(1)
            for e in elems:
                if e != i and e != j:
                    term *= point[e]
            h[i][j] += term
            h[j][i] += term
    return h
