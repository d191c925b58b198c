"""Matroids on a small ground set, with exact derived structure.

A matroid on {1..n} is stored as its ground-set size together with the
family of bases, each basis encoded as an n-bit mask (element i <-> bit
i-1).  All derived data (independent sets and their counts, rank
function, closure, flats, parallel classes) is computed exactly on first
use and kept on the object; the girth is read off the counts.  `kept` is
the package's one per-object memo: it turns a function of an object into
a getter that stores the value in the object's `_cache` dict under the
function's name, so a matroid, a polynomial and a morphism's basis family
keep their derived facts the same way.

Ground sets are deliberately tiny: the catalog builder enumerates every
labeled matroid on up to six elements, which is what the verification
suites iterate over.  It extends each matroid on {1..n-1} by element n as
a loop, a coloop or neither, pairing a deletion with a contraction and
keeping the pairs that pass the basis-exchange test.  Constructors
(uniform, graphic, minors) work at any size that fits in memory; the
tables over all 2^n subsets (rank, closure, flats) and the list of
independent sets, with the counts and the girth read off it,
refuse ground sets above TABLE_MAX_GROUND elements.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Optional, Sequence


Mask = int

ENUMERATION_MAX_GROUND = 6

# Largest ground set for which a table over all 2^n subsets is built.
TABLE_MAX_GROUND = 15


class MatroidError(ValueError):
    """Base class for matroid construction/validation failures."""


class EmptyBasesError(MatroidError):
    pass


class UnequalCardinalityError(MatroidError):
    pass


class ExchangeViolationError(MatroidError):
    def __init__(self, b1: Mask, b2: Mask, x: int):
        self.b1, self.b2, self.x = b1, b2, x
        super().__init__(
            f"exchange fails for bases {sorted(elems_of(b1))} and "
            f"{sorted(elems_of(b2))} at element {x}"
        )


class NotAFlatError(MatroidError):
    pass


def check_table_size(n: int) -> None:
    """Raise MatroidError before a table over all 2^n subsets of a ground
    set larger than TABLE_MAX_GROUND is built."""
    if n > TABLE_MAX_GROUND:
        raise MatroidError(
            f"a ground set of {n} elements is too large for a table over all "
            f"2^{n} subsets (at most {TABLE_MAX_GROUND} elements)"
        )


def mask_of(elements: Iterable[int]) -> Mask:
    """Bit mask of a collection of 1-based elements."""
    m = 0
    for e in elements:
        m |= 1 << (e - 1)
    return m


def elems_of(mask: Mask) -> tuple[int, ...]:
    """Sorted 1-based elements of a mask."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def bits_of(mask: Mask) -> Iterator[int]:
    """0-based bit positions of a mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def submasks(mask: Mask) -> Iterator[Mask]:
    """Every sub-mask of mask, from mask itself down to 0."""
    s = mask
    while s:
        yield s
        s = (s - 1) & mask
    yield 0


def kept(build):
    """A getter that calls `build(obj)` once and keeps the value.

    The value is stored in the dict `obj._cache` under `build.__name__`;
    a build that raises stores nothing.  Stack `@property` on top for an
    attribute, or call the getter as a function of the object.
    """
    name = build.__name__

    @functools.wraps(build)
    def get(obj):
        cache = obj._cache
        if name not in cache:
            cache[name] = build(obj)
        return cache[name]

    return get


@dataclass(frozen=True)
class ParallelDecomposition:
    """Loops plus the partition of non-loops into parallel classes."""

    loops: Mask
    classes: tuple[Mask, ...]  # disjoint, non-empty, sorted by least element


class Matroid:
    """Immutable matroid given by its basis family.

    `Matroid(n, bases)` runs `check_exchange` on the bases; the named
    constructors and the minors, whose bases are matroid bases by
    construction, pass `_trusted=True` to skip it.  :func:`validate_bases`
    also checks the shape of external input (integers, ranges, repeats).
    """

    __slots__ = ("n", "bases", "rank", "_cache")

    def __init__(self, n: int, bases: frozenset[Mask], *, _trusted: bool = False):
        if not _trusted:
            check_exchange(n, bases)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "bases", frozenset(bases))
        object.__setattr__(self, "rank", next(iter(bases)).bit_count())
        object.__setattr__(self, "_cache", {})

    def __setattr__(self, *a):  # pragma: no cover - guard
        raise AttributeError("Matroid is immutable")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matroid)
            and self.n == other.n
            and self.bases == other.bases
        )

    def __hash__(self) -> int:
        return hash((self.n, self.bases))

    def __repr__(self) -> str:
        bs = sorted(sorted(elems_of(b)) for b in self.bases)
        return f"Matroid(n={self.n}, bases={bs})"

    @property
    def ground_mask(self) -> Mask:
        return (1 << self.n) - 1

    # -- independence ----------------------------------------------------

    @property
    @kept
    def independent_masks(self) -> frozenset[Mask]:
        """All independent sets, as masks (downward closure of the bases).

        There can be 2^n of them, so ground sets above TABLE_MAX_GROUND
        elements raise MatroidError, as for the 2^n tables."""
        check_table_size(self.n)
        seen = set(self.bases)
        frontier = list(self.bases)
        while frontier:
            s = frontier.pop()
            rest = s
            while rest:  # each element of s, lowest first
                low = rest & -rest
                rest ^= low
                t = s ^ low
                if t not in seen:
                    seen.add(t)
                    frontier.append(t)
        return frozenset(seen)

    @property
    @kept
    def rank_table(self) -> Sequence[int]:
        """rank(S) for every S in 0..2^n-1; rank(S) = max over bases |B & S|."""
        check_table_size(self.n)
        bases = tuple(self.bases)
        return [
            max((b & s).bit_count() for b in bases) for s in range(1 << self.n)
        ]

    def rank_of(self, subset: Mask) -> int:
        return self.rank_table[subset]

    @property
    @kept
    def closure_table(self) -> Sequence[Mask]:
        rank = self.rank_table  # raises first on a too-large ground set
        out = []
        for s in range(1 << self.n):
            cl = s
            r = rank[s]
            rest = self.ground_mask & ~s
            for b in bits_of(rest):
                if rank[s | (1 << b)] == r:
                    cl |= 1 << b
            out.append(cl)
        return out

    def closure(self, subset: Mask) -> Mask:
        return self.closure_table[subset]

    # -- loops, parallelism ----------------------------------------------

    @property
    @kept
    def loops(self) -> Mask:
        """Mask of loops.  A non-loop always lies in some basis."""
        union = 0
        for b in self.bases:
            union |= b
        return self.ground_mask & ~union

    @property
    @kept
    def cooccurrence(self) -> tuple[Mask, ...]:
        """Entry e-1 is the union of the bases containing e (0 for a loop).

        Distinct elements i and j form an independent pair exactly when j
        lies in entry i-1; two non-loops are parallel exactly when not.
        """
        out = [0] * self.n
        for b in self.bases:
            for e in bits_of(b):
                out[e] |= b
        return tuple(out)

    @property
    @kept
    def parallel_decomposition(self) -> ParallelDecomposition:
        cooc = self.cooccurrence
        loops = self.loops
        classes = []
        assigned = loops
        for e in range(1, self.n + 1):
            bit = 1 << (e - 1)
            if assigned & bit:
                continue
            cls = bit
            for f in range(e + 1, self.n + 1):
                fbit = 1 << (f - 1)
                if not (assigned & fbit) and not (cooc[e - 1] & fbit):
                    cls |= fbit
            assigned |= cls
            classes.append(cls)
        return ParallelDecomposition(loops, tuple(classes))

    @property
    def is_simple(self) -> bool:
        pd = self.parallel_decomposition
        return pd.loops == 0 and all(c.bit_count() == 1 for c in pd.classes)

    @property
    def is_uniform(self) -> bool:
        return len(self.bases) == math.comb(self.n, self.rank)

    # -- flats -------------------------------------------------------------

    @property
    @kept
    def flats(self) -> tuple[Mask, ...]:
        """All flats, sorted by (size, mask)."""
        return tuple(sorted(set(self.closure_table), key=lambda m: (m.bit_count(), m)))

    def is_flat(self, subset: Mask) -> bool:
        return self.closure(subset) == subset

    def minimal_superflats(self, flat: Mask) -> tuple[Mask, ...]:
        """Minimal flats properly containing `flat`.

        These are exactly the closures of flat+{x} for x outside the flat.
        """
        if not self.is_flat(flat):
            raise NotAFlatError(f"{sorted(elems_of(flat))} is not a flat")
        cl = self.closure_table
        out = {cl[flat | (1 << b)] for b in bits_of(self.ground_mask & ~flat)}
        return tuple(sorted(out, key=lambda m: (m.bit_count(), m)))

    # -- counting ----------------------------------------------------------

    @property
    @kept
    def indep_counts(self) -> tuple[int, ...]:
        """Entry k is the number of independent k-sets, for k = 0..rank."""
        counts = [0] * (self.rank + 1)
        for s in self.independent_masks:
            counts[s.bit_count()] += 1
        return tuple(counts)

    @property
    def girth(self):
        """Size of a smallest circuit; math.inf when every set is independent.

        A smallest dependent set is a circuit, and the subsets of an
        independent set are independent, so the girth is the least k with
        fewer than C(n, k) independent k-sets, else rank + 1 when rank < n.
        """
        for k, count in enumerate(self.indep_counts):
            if count < math.comb(self.n, k):
                return k
        return self.rank + 1 if self.rank < self.n else math.inf

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "bases": sorted(list(elems_of(b)) for b in self.bases),
        }


def normalized_sides(n: int, counts: Sequence[int], k: int) -> tuple[int, int, int]:
    """Normalized log-concavity of counts of subsets of {1..n} by size, at k:
    (counts[k-1] / C(n, k-1)) (counts[k+1] / C(n, k+1)) against
    (counts[k] / C(n, k))^2, as (lhs, rhs, den) with both sides times
    their shared denominator den = C(n, k-1) C(n, k)^2 C(n, k+1).  At
    k + 1 > n, counts[k+1] and C(n, k+1) are 0: both sides are 0, den 1."""
    below, at, above = math.comb(n, k - 1), math.comb(n, k), math.comb(n, k + 1)
    lhs = counts[k - 1] * counts[k + 1] * at * at
    return lhs, counts[k] ** 2 * below * above, below * at * at * above or 1


def exchange_violation(n: int, support) -> Optional[tuple[int, int, int]]:
    """The least violation of the exchange axiom on a set of exponent
    vectors, or None when the set is M-convex.

    A vector beta = (beta_0, beta_1, ..., beta_n) with beta_v in {0, 1}
    for v >= 1 is packed as the integer beta_0 << n | mask, where bit v - 1
    of the mask is beta_v; a basis family is the case beta_0 = 0, the
    term support of a polynomial (x0 power, mask) the general one.  The
    axiom: for alpha, beta in the set and i with alpha_i > beta_i, some j
    with alpha_j < beta_j has alpha - e_i + e_j in the set.

    The test at (alpha, i) depends only on the shadow gamma = alpha - e_i:
    with S = {j : gamma + e_j in the set}, which holds i, the vectors
    violating it are those with beta_j <= gamma_j for every j in S.  Over
    the indices of the sorted keys these are ANDs of bitsets: "beta_v = 0"
    is one bitset per v >= 1 (for v in S, gamma_v = 0), and "beta_0 <= t"
    is a prefix, since the keys sort by beta_0 first.  The pairs are taken
    by alpha, then i, and each shadow is tested the first time one reaches
    it; a failing shadow returns at once, so every shadow met again has
    passed.  Cost: one set test per (alpha, i), and per shadow one set
    lookup and one |support|-bit AND for each v >= 1 outside it (n - r + 1
    of them on a basis family of rank r), plus one for x0 when some key
    has beta_0 > 0.  U(3, 12) has 660 pairs and 66 shadows.  Returns
    (alpha, beta, i), i = 0 for x0 and v for x_v, with the least alpha,
    then the least i, then the least beta.
    """
    ground = (1 << n) - 1
    lift = 1 << n  # + e_0
    order = sorted(support)
    full = (1 << len(order)) - 1
    without = {1 << v: full for v in range(n)}  # without[bit]: the keys missing it
    below = []  # below[t]: the keys with beta_0 <= t
    for k, key in enumerate(order):
        while len(below) < key >> n:
            below.append((1 << k) - 1)
        rest = key & ground
        while rest:
            bit = rest & -rest
            without[bit] ^= 1 << k
            rest ^= bit
    below.append(full)
    lifts = len(below) > 1  # some key has beta_0 > 0
    passed = set()  # the shadows tested so far
    for alpha in order:
        rest = alpha & ground
        step = lift if alpha >= lift else rest & -rest  # e_i: e_0 first, then by v
        while step:
            gamma = alpha - step
            if gamma not in passed:
                violators = below[gamma >> n] if lifts and gamma + lift in support else full
                outside = ground & ~gamma
                while outside and violators:
                    bit = outside & -outside
                    if gamma | bit in support:
                        violators &= without[bit]
                    outside ^= bit
                if violators:
                    beta = order[(violators & -violators).bit_length() - 1]
                    return alpha, beta, 0 if step == lift else step.bit_length()
                passed.add(gamma)
            rest &= ~step
            step = rest & -rest
    return None


def check_exchange(n: int, bases: frozenset[Mask]) -> None:
    """Raise unless `bases` is a valid basis family on {1..n}.

    The exchange axiom is `exchange_violation` on the basis masks (no x0).
    It is tested once per independent (r-1)-set I = B - x: with S = {y not
    in I : I + y is a basis}, it holds at every (B, x) reaching I exactly
    when every basis meets S.  That is n - r + 1 lookups per such I,
    against n - r per (B, x) when each pair is tested apart.  A failure
    names the least B, then the least x, then the least violating basis,
    so it is deterministic.
    """
    if n < 0:
        raise MatroidError("ground-set size must be non-negative")
    if not bases:
        raise EmptyBasesError("a matroid needs at least one basis")
    ground = (1 << n) - 1
    for b in bases:
        if b & ~ground:
            raise MatroidError(f"basis {sorted(elems_of(b))} leaves {{1..{n}}}")
    sizes = {b.bit_count() for b in bases}
    if len(sizes) > 1:
        raise UnequalCardinalityError(f"basis sizes differ: {sorted(sizes)}")
    violation = exchange_violation(n, bases)
    if violation:
        raise ExchangeViolationError(*violation)


def _require_int(value, field: str) -> int:
    """`value` if it is an integer (bools are not), else MatroidError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise MatroidError(f"field {field!r}: expected an integer, got {value!r}")
    return value


def validate_bases(n: int, candidate: Iterable[Iterable[int]]) -> Matroid:
    """Build a matroid from 1-based element collections, or raise.

    `n` and every element must be integers, every element must lie in
    1..n, and no element may repeat within a basis; anything else is a
    MatroidError naming the field.
    """
    _require_int(n, "n")
    if n < 1:
        raise MatroidError("ground-set size must be at least 1")
    try:
        bases = [tuple(basis) for basis in candidate]
    except TypeError:
        raise MatroidError("field 'bases' must be a list of element lists") from None
    for basis in bases:
        for e in basis:
            if type(e) is int and 1 <= e <= n:
                continue
            if not 1 <= _require_int(e, "bases") <= n:
                raise MatroidError(f"field 'bases': element {e} is outside 1..{n}")
        if len(set(basis)) < len(basis):
            e = next(e for e in basis if basis.count(e) > 1)
            raise MatroidError(f"field 'bases': element {e} repeats in {list(basis)}")
    return Matroid(n, frozenset(mask_of(b) for b in bases))


def from_json_dict(data: dict) -> Matroid:
    if not isinstance(data, dict):
        raise MatroidError(
            f"expected an object with fields 'n' and 'bases', got {type(data).__name__}"
        )
    for key in ("n", "bases"):
        if key not in data:
            raise MatroidError(f"missing field {key!r}")
    return validate_bases(data["n"], data["bases"])


# -- named constructors ----------------------------------------------------


def uniform(r: int, n: int) -> Matroid:
    """Uniform matroid: bases are all r-subsets of {1..n}."""
    if not 0 <= r <= n:
        raise MatroidError(f"need 0 <= r <= n, got r={r}, n={n}")
    bases = frozenset(mask_of(c) for c in combinations(range(1, n + 1), r))
    return Matroid(n, bases, _trusted=True)


def graphic(vertices: int, edges: Sequence[tuple[int, int]]) -> Matroid:
    """Cycle matroid of a multigraph; bases are maximum spanning forests.

    Edges are numbered 1..len(edges) in input order; loops and multi-edges
    are allowed.
    """
    if _require_int(vertices, "vertices") < 1:
        raise MatroidError("need at least one vertex")
    try:
        edges = [tuple(edge) for edge in edges]
    except TypeError:
        raise MatroidError("field 'edges' must be a list of vertex pairs") from None
    for edge in edges:
        if len(edge) != 2:
            raise MatroidError(f"field 'edges': {list(edge)} is not a vertex pair")
        for w in edge:
            if not 1 <= _require_int(w, "edges") <= vertices:
                raise MatroidError(
                    f"field 'edges': vertex {w} of edge {list(edge)} is outside 1..{vertices}"
                )
    n = len(edges)
    # the union-find runs over the edges' endpoints, renumbered 0..k-1
    index: dict[int, int] = {}
    ends = [tuple(index.setdefault(w, len(index)) for w in edge) for edge in edges]

    def forest_size(edge_idxs) -> int:
        parent = list(range(len(index)))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        size = 0
        for i in edge_idxs:
            u, v = ends[i]
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
                size += 1
        return size

    r = forest_size(range(n))
    bases = frozenset(
        mask_of(i + 1 for i in c)
        for c in combinations(range(n), r)
        if forest_size(c) == r
    )
    return Matroid(n, bases, _trusted=True)


# -- minors ------------------------------------------------------------------


def _relabel(n: int, keep: Mask, bases: Iterable[Mask]) -> tuple[Matroid, tuple[int, ...]]:
    """Compress `keep` to a contiguous ground {1..m}; returns (matroid, old_of).

    old_of[k-1] is the original element now labeled k.
    """
    old_of = elems_of(keep)
    pos = {e: i for i, e in enumerate(old_of)}
    relabeled = frozenset(
        mask_of(pos[e] + 1 for e in elems_of(b)) for b in bases
    )
    return Matroid(len(old_of), relabeled, _trusted=True), old_of


def contract(m: Matroid, e: int) -> tuple[Matroid, tuple[int, ...]]:
    """M/e for a non-loop e; ground relabeled to {1..n-1}."""
    if not 1 <= e <= m.n:
        raise MatroidError(f"element {e} out of range")
    bit = 1 << (e - 1)
    if m.loops & bit:
        raise MatroidError(f"cannot contract the loop {e}")
    new_bases = {b ^ bit for b in m.bases if b & bit}
    return _relabel(m.n, m.ground_mask & ~bit, new_bases)


def restrict(m: Matroid, subset: Mask) -> tuple[Matroid, tuple[int, ...]]:
    """M restricted to `subset`: maximal independent subsets, relabeled."""
    subset &= m.ground_mask
    r = m.rank_of(subset)
    new_bases = {
        s for s in m.independent_masks if s & ~subset == 0 and s.bit_count() == r
    }
    return _relabel(m.n, subset, new_bases)


def truncate(m: Matroid, steps: int = 1) -> Matroid:
    """T^steps M: bases become the independent sets of size rank-steps."""
    if steps == 0:
        return m
    if not 1 <= steps <= m.rank - 1:
        raise MatroidError(f"truncation steps must lie in 0..rank-1, got {steps}")
    target = m.rank - steps
    bases = frozenset(
        s for s in m.independent_masks if s.bit_count() == target
    )
    return Matroid(m.n, bases, _trusted=True)


def simplify(m: Matroid) -> tuple[Matroid, tuple[int, ...]]:
    """Delete loops and all but the least element of each parallel class.

    Returns (matroid on {1..s}, reps) where reps[k-1] is the original
    element representing class k.
    """
    pd = m.parallel_decomposition
    if not pd.classes:
        raise MatroidError("cannot simplify: every element is a loop")
    reps = tuple(elems_of(c)[0] for c in pd.classes)
    keep = mask_of(reps)
    sub, old_of = restrict(m, keep)
    assert old_of == reps
    return sub, reps


# -- exhaustive enumeration ---------------------------------------------------


@functools.cache
def catalog(n: int, rank: Optional[int] = None) -> tuple[Matroid, ...]:
    """Every labeled matroid on {1..n} (of the given rank): rank ascending,
    then lexicographic by the sorted list of basis masks.  Memoized, so the
    suites share one tuple; hard-capped at n <= ENUMERATION_MAX_GROUND.

    Built by recursion on element n, which is a loop, a coloop or neither.
    The rank-r bases are X | {B + n : B in Y}, with X the bases of the
    deletion (a rank-r matroid on {1..n-1}; none when n is a coloop) and Y
    those of the contraction (rank r-1; none when n is a loop).  A loop or
    coloop extension is always a matroid.  Otherwise every basis in Y is
    independent in X's matroid, and the pair is kept when
    `exchange_violation` accepts the union.
    """
    if not 1 <= n <= ENUMERATION_MAX_GROUND:
        raise MatroidError(
            f"enumeration supports 1 <= n <= {ENUMERATION_MAX_GROUND}, got {n}"
        )
    if rank is None:
        return tuple(m for r in range(n + 1) for m in catalog(n, r))
    if not 0 <= rank <= n:
        raise MatroidError(f"rank {rank} out of range for n={n}")

    def minors(r: int) -> tuple[Matroid, ...]:
        """The rank-r matroids on {1..n-1}."""
        if not 0 <= r < n:
            return ()
        if n == 1:
            return (Matroid(0, frozenset([0]), _trusted=True),)
        return catalog(n - 1, r)

    top = 1 << (n - 1)
    found = [d.bases for d in minors(rank)]  # n a loop
    for c in minors(rank - 1):
        lifted = frozenset(b | top for b in c.bases)
        found.append(lifted)  # n a coloop
        for d in minors(rank):
            if c.bases <= d.independent_masks:
                bases = d.bases | lifted
                if exchange_violation(n, bases) is None:
                    found.append(bases)
    found.sort(key=sorted)
    return tuple(Matroid(n, bases, _trusted=True) for bases in found)

