"""Maps of matroids with flat preimages, and their generating polynomials.

A map phi from the ground set of M (rank r) to the ground set of N
(rank r') is a matroid morphism when the preimage of every flat of N is a
flat of M; equivalently, nested subsets never gain more rank in the image
than they gain in the source.  Validation checks the flat-preimage form
and, on small ground sets, cross-checks the rank-difference form on all
nested pairs -- the two must agree, so a mismatch signals a bug here, not
bad input.

A basis of phi is an independent set of M whose image spans N.  Collecting
them by size gives one matroid per level; summing x0-padded monomials over
all of them gives the generating polynomial of the morphism and, after
differentiating away the x0 padding, its reduced form.  The reduced form
can lose linear independence of its partials in exactly three syntactic
situations (equal ranks; rank drop one with a single loop-preimage
element; loop-preimage part uniform and spanning complement), each with an
explicit annihilating linear form that is verified exactly on
construction.

Many maps share one basis family.  Whatever depends on the bases alone
(polynomials, gradient rank, level exchange checks, fixed-point verdicts,
count profile, annihilator checks, the compiled Hessian plan of the
reduced form) lives on a BasisFamily, memoized by `basis_family` under
the hashable MorphismBases value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product
from typing import Iterator, Optional, Sequence

from .lefschetz import PointVerdicts, gradient_rank, point_verdicts
from .matroids import (
    Mask,
    Matroid,
    MatroidError,
    ParallelDecomposition,
    bits_of,
    check_exchange,
    check_table_size,
    elems_of,
    from_json_dict,
    popcount,
    restrict,
)
from .polynomials import HessianPlan, HomogPoly, linear_apply, partial


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


class ConditionMismatch(RuntimeError):
    """The two validation routes disagreed -- an internal bug, not bad input."""


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

    def image_mask(self, subset: Mask) -> Mask:
        out = 0
        for b in bits_of(subset):
            out |= 1 << (self.map[b] - 1)
        return out

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

    Malformed fields raise a MorphismError that names the field.
    """
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


def _rank_condition_holds(m: Matroid, n: Matroid, phi_img: Sequence[Mask]) -> bool:
    """Rank-difference form over all nested pairs S1 <= S2 of source subsets."""
    rank_m = m.rank_table
    rank_n = n.rank_table
    for s2 in range(1 << m.n):
        r2m = rank_m[s2]
        r2n = rank_n[phi_img[s2]]
        s1 = s2
        while True:
            if r2n - rank_n[phi_img[s1]] > r2m - rank_m[s1]:
                return False
            if s1 == 0:
                break
            s1 = (s1 - 1) & s2
    return True


def _image_table(m: Matroid, phi: Sequence[int]) -> list[Mask]:
    """phi(S) for every source subset S, built bottom-up."""
    check_table_size(m.n)
    table = [0] * (1 << m.n)
    for s in range(1, 1 << m.n):
        low = s & -s
        table[s] = table[s ^ low] | (1 << (phi[low.bit_length() - 1] - 1))
    return table


def validate_morphism(m: Matroid, n: Matroid, phi: Sequence[int]) -> MatroidMorphism:
    """Check the flat-preimage condition (and cross-check the rank form).

    The image of the full ground set must also span the target; otherwise
    the generating polynomial would be empty and nothing downstream is
    defined for the map.
    """
    phi = tuple(phi)
    if len(phi) != m.n:
        raise MorphismError(f"map must list {m.n} images, got {len(phi)}")
    for i, t in enumerate(phi):
        if isinstance(t, bool) or not isinstance(t, int):
            raise MorphismError(
                f"field 'map': image of element {i + 1} must be an integer, got {t!r}"
            )
        if not 1 <= t <= n.n:
            raise MorphismError(f"image of element {i + 1} out of range: {t}")
    phi_img = _image_table(m, phi)
    violation: Optional[FlatPreimageViolation] = None
    for flat in n.flats:
        pre = 0
        for i, t in enumerate(phi):
            if flat & (1 << (t - 1)):
                pre |= 1 << i
        if not m.is_flat(pre):
            violation = FlatPreimageViolation(flat, pre)
            break
    if m.n <= MORPHISM_SOURCE_MAX:
        if _rank_condition_holds(m, n, phi_img) != (violation is None):
            raise ConditionMismatch(
                "flat-preimage and rank-difference validation disagree "
                f"for map {phi}"
            )
    if violation is not None:
        raise violation
    if n.rank_table[phi_img[m.ground_mask]] != n.rank:
        raise ImageRankDeficient(
            "the image of the ground set does not span the target"
        )
    return MatroidMorphism(m, n, phi)


def phi_decomposition(phi: MatroidMorphism) -> ParallelDecomposition:
    """Pull the target's loop/parallel structure back to the source."""
    classes = []
    for cls in phi.target.parallel_decomposition.classes:
        pre = 0
        for i, t in enumerate(phi.map):
            if cls & (1 << (t - 1)):
                pre |= 1 << i
        if pre:
            classes.append(pre)
    classes.sort(key=lambda c: c & -c)
    return ParallelDecomposition(phi.phi_loops, tuple(classes))


@dataclass(frozen=True)
class MorphismBases:
    """Bases of a morphism, bucketed by size (r' .. r).

    Hashable by value, so it keys the basis-family memo: morphisms with
    equal n, r, r' and equal buckets share one BasisFamily.
    """

    n: int
    r: int
    r_prime: int
    levels: tuple[tuple[int, frozenset[Mask]], ...]  # (size, bases), by size

    @property
    def by_size(self) -> dict[int, frozenset[Mask]]:
        return dict(self.levels)

    @property
    def total(self) -> int:
        return sum(len(bucket) for _, bucket in self.levels)


@lru_cache(maxsize=4096)
def morphism_bases(phi: MatroidMorphism) -> MorphismBases:
    """Independent sets of the source whose image spans the target."""
    rank_n = phi.target.rank_table
    r_prime = phi.r_prime
    by_size: dict[int, set[Mask]] = {}
    img = _image_table(phi.source, phi.map)
    for s in phi.source.independent_masks:
        if rank_n[img[s]] == r_prime:
            by_size.setdefault(popcount(s), set()).add(s)
    levels = tuple((k, frozenset(v)) for k, v in sorted(by_size.items()))
    return MorphismBases(phi.source.n, phi.r, r_prime, levels)


@dataclass(frozen=True)
class EurHuhEntry:
    k: int
    lhs: Fraction
    rhs: Fraction
    equal: bool


class BasisFamily:
    """The facts about a morphism that depend only on its MorphismBases.

    `basis_family` hands out one instance per distinct family, and each
    fact is computed on first use.  Nothing here reads a map, a target or
    a loop preimage, so every morphism with these bases may share it.
    """

    def __init__(self, bases: MorphismBases):
        self.bases = bases
        self._annihilates: dict[tuple[Fraction, ...], bool] = {}

    @cached_property
    def polys(self) -> tuple[HomogPoly, HomogPoly]:
        """(P, reduced P): x0-padded sum over the bases and its
        (n - r)-fold x0 derivative."""
        n = self.bases.n
        terms = {(n - k, s): 1 for k, bucket in self.bases.levels for s in bucket}
        p = HomogPoly(range(0, n + 1), n, terms)
        reduced = p
        for _ in range(n - self.bases.r):
            reduced = partial(reduced, 0)
        return p, reduced

    @cached_property
    def grad_rank(self) -> int:
        return gradient_rank(self.polys[1])

    @cached_property
    def levels_are_matroids(self) -> bool:
        """Every size bucket satisfies the basis-exchange axiom."""
        for _, bucket in self.bases.levels:
            try:
                check_exchange(self.bases.n, bucket)
            except MatroidError:
                return False
        return True

    @cached_property
    def hessian_plan(self) -> HessianPlan:
        """The reduced polynomial's Hessian, compiled once: every map of
        the family checks it at its own seeded points."""
        return HessianPlan(self.polys[1])

    def verdicts_at(self, point: Sequence) -> PointVerdicts:
        """slp1/hrr1 verdicts of the reduced polynomial (degree >= 2) at the point."""
        return point_verdicts(
            self.polys[1], point, grad_rank=self.grad_rank, plan=self.hessian_plan
        )

    @cached_property
    def fixed_point_verdicts(self) -> tuple[tuple[tuple, PointVerdicts], ...]:
        """(point, verdicts) of the reduced polynomial at (1,...,1) and
        (0,1,...,1); empty when its degree is below 2."""
        if self.polys[1].degree < 2:
            return ()
        n = self.bases.n
        return tuple(
            (a, self.verdicts_at(a)) for a in ((1,) + (1,) * n, (0,) + (1,) * n)
        )

    @cached_property
    def eur_huh(self) -> tuple[EurHuhEntry, ...]:
        """Normalized log-concavity profile of the basis counts by size.

        For each interior size k (r' < k < r) compares
        (count[k-1]/C(n,k-1)) * (count[k+1]/C(n,k+1)) against (count[k]/C(n,k))^2.
        """
        n = self.bases.n
        counts = {k: len(bucket) for k, bucket in self.bases.levels}
        out = []
        for k in range(self.bases.r_prime + 1, self.bases.r):
            lhs = Fraction(counts.get(k - 1, 0), math.comb(n, k - 1)) * Fraction(
                counts.get(k + 1, 0), math.comb(n, k + 1)
            )
            rhs = Fraction(counts.get(k, 0), math.comb(n, k)) ** 2
            out.append(EurHuhEntry(k, lhs, rhs, lhs == rhs))
        return tuple(out)

    def annihilates(self, coeffs: tuple[Fraction, ...]) -> bool:
        """Whether the linear derivative form with these coefficients (over
        x0..xn) kills the reduced polynomial exactly."""
        if coeffs not in self._annihilates:
            self._annihilates[coeffs] = linear_apply(self.polys[1], coeffs).is_zero
        return self._annihilates[coeffs]


@lru_cache(maxsize=None)
def basis_family(bases: MorphismBases) -> BasisFamily:
    """The one BasisFamily shared by every morphism with these bases."""
    return BasisFamily(bases)


def _family(phi: MatroidMorphism) -> BasisFamily:
    return basis_family(morphism_bases(phi))


def morphism_poly(phi: MatroidMorphism) -> tuple[HomogPoly, HomogPoly]:
    """(P, reduced P): x0-padded sum over morphism bases and its
    (n - r)-fold x0 derivative."""
    return _family(phi).polys


@dataclass(frozen=True)
class DegeneracyVerdict:
    """Which of the three dependency conditions hold, with a verified witness.

    classes is a subset of {"A", "B", "C"}; annihilator, present exactly
    when classes is non-empty, lists coefficients (over x0..xn) of a linear
    derivative form that kills the reduced polynomial exactly.
    """

    classes: frozenset[str]
    annihilator: Optional[tuple[Fraction, ...]]


def degeneracy_class(phi: MatroidMorphism) -> DegeneracyVerdict:
    """Syntactic test of the three dependency conditions.

    A: equal ranks.  B: rank drops by one and exactly one element j maps
    to a loop.  C: the loop-preimage restriction is uniform and the
    remaining elements number exactly the target rank.  The annihilator
    is d/dx0 for A; for B it is d/dx0 - (n - r + 1) d/dx_j, or d/dx_j
    alone when j is a loop of the source; for C it is the sum of d/dx_e
    over the loop preimage minus d/dx0.  Every emitted annihilator is
    checked against the reduced polynomial; failure is an internal error.
    """
    m = phi.source
    n_elems = m.n
    r, r_prime = phi.r, phi.r_prime
    loops_mask = phi.phi_loops
    nloops = popcount(loops_mask)
    classes = set()
    if r == r_prime:
        classes.add("A")
    if r - r_prime == 1 and nloops == 1:
        classes.add("B")
    restricted, _ = restrict(m, loops_mask)
    if restricted.is_uniform and n_elems - nloops == r_prime:
        classes.add("C")
    if not classes:
        return DegeneracyVerdict(frozenset(), None)

    coeffs = [Fraction(0)] * (n_elems + 1)
    if "A" in classes:
        coeffs[0] = Fraction(1)
    elif "B" in classes:
        j = elems_of(loops_mask)[0]
        if m.loops & loops_mask:
            # j is a loop of the source: no basis contains it, so d/dx_j kills P
            coeffs[j] = Fraction(1)
        else:
            coeffs[0] = Fraction(1)
            coeffs[j] = Fraction(-(n_elems - r + 1))
    else:
        coeffs[0] = Fraction(-1)
        for e in elems_of(loops_mask):
            coeffs[e] = Fraction(1)
    annihilator = tuple(coeffs)
    if not _family(phi).annihilates(annihilator):
        raise AnnihilatorCheckFailed(
            f"predicted annihilator {coeffs} does not kill the reduced "
            f"polynomial of map {phi.map}"
        )
    return DegeneracyVerdict(frozenset(classes), annihilator)


def eur_huh_profile(phi: MatroidMorphism) -> tuple[EurHuhEntry, ...]:
    """Normalized log-concavity profile of the basis counts (see BasisFamily.eur_huh)."""
    return _family(phi).eur_huh


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
        for phi in product(range(1, target.n + 1), repeat=m.n):
            try:
                yield validate_morphism(m, target, phi)
            except MorphismError:
                continue
