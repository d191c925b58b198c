"""Maps of matroids with flat preimages, and their generating polynomials.

A map phi from the ground set of M (rank r) to the ground set of N
(rank r') is a matroid morphism when the preimage of every flat of N is a
flat of M; equivalently, nested subsets never gain more rank in the image
than they gain in the source.  Validation decides by the flat-preimage
form alone; the rank-difference form over all nested pairs is kept as an
independent oracle in the test suite.  `enumerate_morphisms` builds its
maps without `validate_morphism`: it backtracks over the source
elements and drops a partial map as soon as some flat's partial
preimage can no longer complete to a flat (`_maps_to`).

A basis of phi is an independent set of M whose image spans N.  Collecting
them by size gives one matroid per level; summing x0-padded monomials over
all of them gives the generating polynomial of the morphism and, after
differentiating away the x0 padding, its reduced form.  The reduced form
can lose linear independence of its partials in exactly three syntactic
situations (equal ranks; rank drop one with a single loop-preimage
element; loop-preimage part uniform and spanning complement), each with an
explicit annihilating linear form that is verified exactly on
construction.

Many maps share one basis family, one hashable MorphismBases value that
`morphism_bases` reads off a map without building any basis: the
source, the target rank, the loop preimage and the maximal preimages of
the target's hyperplanes.  `basis_family` hands out the first family
equal to a given one, so the levels, the bases bucketed by size, are
built once per family, not once per map.  What depends on those fields
alone (levels, polynomials, level exchange checks, count profile, the
degeneracy verdict with its checked annihilator, and the morphism
suite's map-free rows, `verify._shared_rows`) is a fact of the
family, computed on first use and kept in its `_cache` (`matroids.kept`,
as a matroid keeps its tables).  The polynomials come from the builders
of the independent-set polynomials (`polynomials.padded_poly` and
`reduced_poly`), the count profile from the normalized count inequality
of the independent counts (`matroids.normalized_sides`).  The reduced
polynomial keeps its own Hessian plan the same way, and its gradient
rank once something reads it, so they are shared with it.  The suite's
level and extension rows check the levels against the family's source
and loop preimage, so neither is derived from the levels; only the
degeneracy verdict reads them off the levels.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .matroids import (
    Mask,
    Matroid,
    MatroidError,
    check_exchange,
    elems_of,
    from_json_dict,
    kept,
    normalized_sides,
)
from .polynomials import HomogPoly, linear_apply, padded_poly, reduced_poly


MORPHISM_SOURCE_MAX = 5
MORPHISM_TARGET_MAX = 3


class MorphismError(ValueError):
    pass


class FlatPreimageViolation(MorphismError):
    def __init__(self, flat: Mask, preimage: Mask):
        self.flat, self.preimage = flat, preimage
        super().__init__(
            f"preimage {sorted(elems_of(preimage))} of target flat "
            f"{sorted(elems_of(flat))} is not a flat of the source"
        )


class ImageRankDeficient(MorphismError):
    pass


class AnnihilatorCheckFailed(RuntimeError):
    """A predicted annihilating form did not kill the polynomial exactly."""


@dataclass(frozen=True)
class MatroidMorphism:
    source: Matroid
    target: Matroid
    map: tuple[int, ...]  # map[i-1] = image of source element i, 1-based

    @property
    def r(self) -> int:
        return self.source.rank

    @property
    def r_prime(self) -> int:
        return self.target.rank

    @property
    def phi_loops(self) -> Mask:
        """Source elements whose image is a loop of the target."""
        out = 0
        loops = self.target.loops
        for i, t in enumerate(self.map):
            if loops & (1 << (t - 1)):
                out |= 1 << i
        return out

    def to_json_dict(self) -> dict:
        return {
            "source": self.source.to_json_dict(),
            "target": self.target.to_json_dict(),
            "map": list(self.map),
        }


def morphism_from_json_dict(data: dict) -> MatroidMorphism:
    """Parse {"source": matroid, "target": matroid, "map": [images]}.

    Missing or malformed fields raise a MorphismError that names the field.
    """
    for key in ("source", "target", "map"):
        if key not in data:
            raise MorphismError(f"field {key!r}: missing")
    ends = []
    for key in ("source", "target"):
        try:
            ends.append(from_json_dict(data[key]))
        except MatroidError as exc:
            raise MorphismError(f"field {key!r}: {exc}") from None
    if not isinstance(data["map"], list):
        raise MorphismError(
            f"field 'map': expected a list of images, got {type(data['map']).__name__}"
        )
    return validate_morphism(*ends, data["map"])


def validate_morphism(m: Matroid, n: Matroid, phi: Sequence[int]) -> MatroidMorphism:
    """Check the flat-preimage condition on every flat of the target.

    The image of the full ground set must also span the target; otherwise
    the generating polynomial would be empty and nothing downstream is
    defined for the map.
    """
    phi = tuple(phi)
    if len(phi) != m.n:
        raise MorphismError(f"map must list {m.n} images, got {len(phi)}")
    image = 0
    for i, t in enumerate(phi):
        if isinstance(t, bool) or not isinstance(t, int):
            raise MorphismError(
                f"field 'map': image of element {i + 1} must be an integer, got {t!r}"
            )
        if not 1 <= t <= n.n:
            raise MorphismError(f"image of element {i + 1} out of range: {t}")
        image |= 1 << (t - 1)
    for flat in n.flats:
        pre = 0
        for i, t in enumerate(phi):
            if flat & (1 << (t - 1)):
                pre |= 1 << i
        if not m.is_flat(pre):
            raise FlatPreimageViolation(flat, pre)
    if n.rank_table[image] != n.rank:
        raise ImageRankDeficient(
            "the image of the ground set does not span the target"
        )
    return MatroidMorphism(m, n, phi)


@dataclass(frozen=True)
class EurHuhEntry:
    k: int
    lhs: Fraction
    rhs: Fraction
    equal: bool


@dataclass(frozen=True)
class DegeneracyVerdict:
    """Which of the three dependency conditions hold, with a verified witness.

    classes is a subset of {"A", "B", "C"}; annihilator, present exactly
    when classes is non-empty, lists coefficients (over x0..xn) of a linear
    derivative form that kills the reduced polynomial exactly.
    """

    classes: frozenset[str]
    annihilator: Optional[tuple[int, ...]]


@dataclass(frozen=True)
class MorphismBases:
    """A basis family: the source, the target rank, the loop preimage and
    the maximal preimages of the target's hyperplanes, shared by the maps
    that give them, with their bases bucketed by size (`levels`).

    Hashable and compared by those four fields, so it keys its own memo:
    `basis_family` hands out the first family equal to a given one, and
    every morphism with equal fields shares it.  The facts below read the
    fields alone, never a map or a target; each is computed on first use
    and kept in `_cache`, which takes no part in equality, hashing or the
    repr.
    """

    source: Matroid
    r_prime: int
    loops: Mask  # source elements whose image is a loop of the target
    hyperplanes: frozenset[Mask]  # maximal preimages of the target's hyperplanes
    _cache: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @property
    def n(self) -> int:
        return self.source.n

    @property
    def r(self) -> int:
        return self.source.rank

    @property
    @kept
    def levels(self) -> tuple[tuple[int, frozenset[Mask]], ...]:
        """(size, bases) by size: the independent sets of the source that
        lie in none of `hyperplanes`, the bases of every map with this
        family.

        A set spans the target exactly when it lies in no hyperplane, since
        every proper flat lies in one (at rank 0 there is none, and every
        set spans).  So an independent S is a basis of a map exactly when
        it lies in no hyperplane preimage, and only the maximal preimages
        matter.

        For one source, target rank and loop preimage, the maximal
        preimages and the levels determine each other, so maps share a
        family exactly when their levels are equal.  Preimages of flats
        under a morphism are flats of the source, and the maximal ones
        form an antichain.  Take two different antichains A and A' of
        flats.  Some H in A lies in no member of A', or the other way
        round (if each member of either lay in a member of the other, the
        two would be equal); say H is in A.  A basis B_H of M|H has
        cl(B_H) = H, so B_H inside a flat H' would force H inside H'.
        Hence B_H lies in no member of A' and is in the levels of A', and
        it lies in H, so it is not in those of A.
        """
        hyperplanes = self.hyperplanes
        by_size: dict[int, set[Mask]] = {}
        for s in self.source.independent_masks:
            if not any(s & h == s for h in hyperplanes):
                by_size.setdefault(s.bit_count(), set()).add(s)
        return tuple((k, frozenset(v)) for k, v in sorted(by_size.items()))

    @property
    def by_size(self) -> dict[int, frozenset[Mask]]:
        return dict(self.levels)

    @property
    @kept
    def polys(self) -> tuple[HomogPoly, HomogPoly]:
        """(P, reduced P): x0-padded sum over the bases and its
        (n - r)-fold x0 derivative, by the builders of the independent-set
        polynomials.  At r = n no derivative is taken, and reduced P is P,
        one polynomial with one kept plan."""
        bases = [s for _, bucket in self.levels for s in bucket]
        p = padded_poly(self.n, bases)
        return p, (p if self.r == self.n else reduced_poly(self.n, self.r, bases))

    @property
    @kept
    def levels_are_matroids(self) -> bool:
        """Every size bucket satisfies the basis-exchange axiom."""
        for _, bucket in self.levels:
            try:
                check_exchange(self.n, bucket)
            except MatroidError:
                return False
        return True

    @property
    @kept
    def eur_huh(self) -> tuple[EurHuhEntry, ...]:
        """Normalized log-concavity profile of the basis counts by size:
        `normalized_sides` of the counts at each interior size k
        (r' < k < r), which compares
        (count[k-1]/C(n,k-1)) * (count[k+1]/C(n,k+1)) against (count[k]/C(n,k))^2.
        """
        counts = [0] * (self.r + 1)
        for k, bucket in self.levels:
            counts[k] = len(bucket)
        out = []
        for k in range(self.r_prime + 1, self.r):
            lhs, rhs, den = normalized_sides(self.n, counts, k)
            out.append(
                EurHuhEntry(k, Fraction(lhs, den), Fraction(rhs, den), lhs == rhs)
            )
        return tuple(out)

    @property
    @kept
    def degeneracy(self) -> DegeneracyVerdict:
        """The degeneracy verdict shared by every morphism with these bases
        (see `degeneracy_class`); its annihilator is checked here, once.

        The source's bases are the top level, and the loop preimage is the
        ground set minus the union of the bottom-level bases.  Both are
        read off the levels, not the fields `source` and `loops`: a family
        that disagrees with its levels then fails the suite's level or
        extension row, not this annihilator check.
        """
        n, r, r_prime = self.n, self.r, self.r_prime
        levels = self.by_size
        source_bases = levels[r]
        loops_mask = (1 << n) - 1
        for s in levels[r_prime]:
            loops_mask &= ~s
        nloops = loops_mask.bit_count()
        classes = set()
        if r == r_prime:
            classes.add("A")
        if r - r_prime == 1 and nloops == 1:
            classes.add("B")
        if n - nloops == r_prime:
            # the restriction to the loop preimage is uniform when its bases,
            # the largest traces of source bases, are all subsets of that size
            traces = {s & loops_mask for s in source_bases}
            k = max(map(int.bit_count, traces))
            if sum(1 for t in traces if t.bit_count() == k) == math.comb(nloops, k):
                classes.add("C")
        if not classes:
            return DegeneracyVerdict(frozenset(), None)

        coeffs = [0] * (n + 1)
        if "A" in classes:
            coeffs[0] = 1
        elif "B" in classes:
            j = elems_of(loops_mask)[0]
            if not any(s & loops_mask for s in source_bases):
                # j is a loop of the source: no basis contains it, so d/dx_j kills P
                coeffs[j] = 1
            else:
                coeffs[0] = 1
                coeffs[j] = -(n - r + 1)
        else:
            coeffs[0] = -1
            for e in elems_of(loops_mask):
                coeffs[e] = 1
        annihilator = tuple(coeffs)
        if not linear_apply(self.polys[1], annihilator).is_zero:
            raise AnnihilatorCheckFailed(
                f"predicted annihilator {coeffs} does not kill the reduced "
                f"polynomial of bases {self}"
            )
        return DegeneracyVerdict(frozenset(classes), annihilator)


def morphism_bases(phi: MatroidMorphism) -> MorphismBases:
    """The basis family of phi: its source, the target rank, the loop
    preimage and the maximal preimages of the target's hyperplanes.

    Cheap, with no levels built: `basis_family` hands out the first equal
    family, whose levels are built on first read, once per family.  A
    preimage inside another excludes no further set, so it is dropped, and
    maps with equal levels get equal families (`MorphismBases.levels`)."""
    target = phi.target
    rank, r_prime = target.rank_table, target.rank
    inverse = [0] * (target.n + 1)  # image -> the source elements sent to it
    for i, t in enumerate(phi.map):
        inverse[t] |= 1 << i
    preimages = []
    for flat in target.flats:
        if rank[flat] == r_prime - 1:
            pre = 0
            for t in elems_of(flat):
                pre |= inverse[t]
            preimages.append(pre)
    maximal = frozenset(
        p for p in preimages if all(p & q != p or p == q for q in preimages)
    )
    return MorphismBases(phi.source, r_prime, phi.phi_loops, maximal)


@functools.cache
def basis_family(bases: MorphismBases) -> MorphismBases:
    """The first family equal to `bases`, shared with its kept facts by
    every morphism with these bases; `cache_clear()` drops them all."""
    return bases


def morphism_poly(phi: MatroidMorphism) -> tuple[HomogPoly, HomogPoly]:
    """(P, reduced P): x0-padded sum over morphism bases and its
    (n - r)-fold x0 derivative."""
    return basis_family(morphism_bases(phi)).polys


def degeneracy_class(phi: MatroidMorphism) -> DegeneracyVerdict:
    """Syntactic test of the three dependency conditions.

    A: equal ranks.  B: rank drops by one and exactly one element j maps
    to a loop.  C: the loop-preimage restriction is uniform and the
    remaining elements number exactly the target rank.  The annihilator
    is d/dx0 for A; for B it is d/dx0 - (n - r + 1) d/dx_j, or d/dx_j
    alone when j is a loop of the source; for C it is the sum of d/dx_e
    over the loop preimage minus d/dx0.  Every emitted annihilator is
    checked against the reduced polynomial; failure is an internal error.

    The verdict depends on the bases of phi alone, so it is computed once
    per basis family.  Both facts it reads off the bases follow from the
    rank-difference form rk_N phi(S2) - rk_N phi(S1) <= rk_M S2 - rk_M S1
    for S1 <= S2.  First, every basis B of M spans N (take S1 = B, S2 = E),
    so the size-r level is the set of bases of M.  Second, e lies in a
    bottom-level basis (size r') exactly when phi(e) is not a loop.  If it
    is a loop and e lies in such a basis I, phi(I - e) spans N with r' - 1
    elements.  If it is not, {e} is independent (S1 empty, S2 = {e}); grow
    I = {e} by any f with rk_N phi(I + f) = |I| + 1, which exists while
    |I| < r' because phi(E) spans N.  S1 = I, S2 = I + f keeps I
    independent, and the growth ends at |I| = r' with phi(I) spanning N.
    """
    return basis_family(morphism_bases(phi)).degeneracy


def eur_huh_profile(phi: MatroidMorphism) -> tuple[EurHuhEntry, ...]:
    """Normalized log-concavity profile of the basis counts (see
    MorphismBases.eur_huh)."""
    return basis_family(morphism_bases(phi)).eur_huh


def enumerate_morphisms(
    m: Matroid, targets: Sequence[Matroid]
) -> Iterator[MatroidMorphism]:
    """All valid morphisms from m to each target, in (target, map) order."""
    if m.n > MORPHISM_SOURCE_MAX:
        raise MatroidError(
            f"morphism enumeration supports sources up to {MORPHISM_SOURCE_MAX}"
        )
    for target in targets:
        if target.n > MORPHISM_TARGET_MAX:
            raise MatroidError(
                f"morphism enumeration supports targets up to {MORPHISM_TARGET_MAX}"
            )
        yield from _maps_to(m, target)


def _maps_to(m: Matroid, target: Matroid) -> Iterator[MatroidMorphism]:
    """The morphisms from m to target in map order, by backtracking.

    Source elements get their images in order, each image in ascending
    order, so the maps come out as `itertools.product` lists them.  A
    partial map on the assigned elements A is dropped as soon as some
    target flat F has a partial preimage P with cl_M(P) & A != P.  No
    completion can save it: the full preimage P' is a flat holding P with
    P' & A = P, so cl_M(P) & A lies in P' & A = P.  Once every element is
    assigned, A is the ground set and the test reads cl_M(P) = P, the
    flat-preimage condition of `validate_morphism`; the spanning check
    then runs on each full map.
    """
    closure = m.closure_table
    flats = target.flats
    rank, full = target.rank_table, target.rank
    phi = [0] * m.n

    def extend(k: int, pre: tuple[Mask, ...], image: Mask):
        if k == m.n:
            if rank[image] == full:
                yield MatroidMorphism(m, target, tuple(phi))
            return
        bit = 1 << k
        assigned = (bit << 1) - 1
        for t in range(1, target.n + 1):
            tb = 1 << (t - 1)
            nxt = tuple(p | bit if f & tb else p for p, f in zip(pre, flats))
            if all(closure[p] & assigned == p for p in nxt):
                phi[k] = t
                yield from extend(k + 1, nxt, image | tb)

    return extend(0, (0,) * len(flats), 0)
