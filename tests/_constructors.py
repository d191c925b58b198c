"""Matroid constructors that only the tests build inputs with.

Nothing in the package reads a direct sum or a deletion: the catalog
extends by loops, coloops and pairs of minors, and `simplify` restricts.
"""

from __future__ import annotations

from mlz.matroids import Matroid, MatroidError, restrict


def direct_sum(m1: Matroid, m2: Matroid) -> Matroid:
    """Direct sum; the second summand's elements are shifted by m1.n."""
    shift = m1.n
    bases = frozenset(b1 | (b2 << shift) for b1 in m1.bases for b2 in m2.bases)
    return Matroid(m1.n + m2.n, bases, _trusted=True)


def delete(m: Matroid, e: int) -> tuple[Matroid, tuple[int, ...]]:
    """M \\ e, relabeled to {1..n-1}; returns (matroid, old_of) as `restrict`."""
    if not 1 <= e <= m.n:
        raise MatroidError(f"element {e} out of range")
    if m.n == 1:
        raise MatroidError("cannot delete the last element")
    return restrict(m, m.ground_mask & ~(1 << (e - 1)))
