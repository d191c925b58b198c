"""Exact symmetric-matrix spectra over the rationals.

A matrix is a sequence of rows, each a sequence of exact entries (`int`
or `Fraction`); Hessians come as lists of row lists.  Nothing here checks
symmetry: `inertia` reads the upper triangle alone, so a symmetric matrix
may be given by its upper triangle with anything below the diagonal.

Inertia (positive/negative/zero eigenvalue counts) is computed with no
floating point, by Sylvester's law of inertia: symmetric fraction-free
(Bareiss) elimination turns the matrix, by congruences, into pivots whose
signs are the eigenvalue signs and a zero block whose size is the
nullity; it updates and reads the upper triangle only.  Rank uses the
same fraction-free elimination on integer rows.  Both assert that every
Bareiss division is exact.  `char_poly`, the division-free
Samuelson-Berkowitz characteristic polynomial, stays as a public
spectrum helper; no check in the package calls it.

`clear_denominators` is the one place where denominators are cleared:
Hessian points, weighted evaluation points and the entries given to
`inertia` and `matrix_rank` all become integers through it.  Integer
input takes a fast path: when every value is an `int` it returns
(1, values) after one type scan, with no gcd per entry, so a Hessian
filled at an integer point reaches the elimination as it is.  Seeded
points take that path: `sampling.seeded_point` draws them as the
integers this function gives for the rational point, so only points
given from outside (`--at`, the API) are cleared here.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import gcd
from typing import Sequence


@dataclass(frozen=True)
class Inertia:
    pos: int
    neg: int
    zero: int

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.pos, self.neg, self.zero)

    def render(self) -> str:
        return f"(+{self.pos},-{self.neg},{self.zero}z)"

    def to_json_dict(self) -> dict:
        return {"pos": self.pos, "neg": self.neg, "zero": self.zero}


def clear_denominators(values: Sequence) -> tuple[int, tuple[int, ...]]:
    """(scale, ints): the least positive integer scale that makes every
    rational value integral, and the values multiplied by it.

    The one place in the package where denominators are cleared.  A
    positive scale changes no sign, rank or inertia, and a homogeneous
    polynomial of degree d at scale * a is scale**d times its value at a.
    Values that are all `int` come back as they are, after one type scan.
    A value that is not an exact rational (a `float`, say) raises
    ValueError naming it.
    """
    if set(map(type, values)) <= {int}:
        return 1, tuple(values)
    scale = 1
    for v in values:
        try:
            den = v.denominator
        except AttributeError:
            raise ValueError(f"{v!r} is not an exact rational (int or Fraction)") from None
        scale = scale * den // gcd(scale, den)
    return scale, tuple(v.numerator * (scale // v.denominator) for v in values)


def char_poly(rows: Sequence[Sequence]) -> tuple:
    """Coefficients of det(xI - A), leading first (degree = size).

    Samuelson-Berkowitz: extend the characteristic polynomial of each
    leading principal submatrix by one lower-triangular Toeplitz product per
    row; division-free, so integer input stays integer throughout.
    """
    n = len(rows)
    vec = [1]
    for k in range(n):
        akk = rows[k][k]
        toep = [1, -akk]
        if k:
            r = rows[k][:k]
            v = [rows[i][k] for i in range(k)]
            for step in range(k):
                toep.append(-sum(r[i] * v[i] for i in range(k)))
                if step < k - 1:
                    v = [
                        sum(rows[i][j] * v[j] for j in range(k)) for i in range(k)
                    ]
        new = [0] * (k + 2)
        for i in range(k + 2):
            acc = 0
            lo = max(0, i - len(toep) + 1)
            for j in range(lo, min(i, k) + 1):
                acc += toep[i - j] * vec[j]
            new[i] = acc
        vec = new
    return tuple(vec)


def inertia(rows: Sequence[Sequence], *, consume: bool = False) -> Inertia:
    """Exact eigenvalue sign counts of a symmetric rational matrix.

    Symmetric fraction-free elimination on the integer matrix left by
    `clear_denominators` (a positive scale, which keeps every sign); rows
    of `int`s are copied as they are.  A caller that owns fresh rows of
    `int`s holding the matrix in their upper triangle, as
    `HessianPlan.upper` returns them, passes `consume=True`: those rows are
    eliminated in place, with no type scan and no copy, and whatever lies
    below their diagonal is never read.  Each step pivots on a nonzero
    diagonal entry, moved to the front by a symmetric swap; when the
    remaining diagonal is all zero but some a_ij is not, the unimodular
    congruence "row/col i += row/col j" puts 2 * a_ij on the diagonal
    first.  The Bareiss update (p * a_ij - a_ik * a_kj) / prev keeps every
    entry an integer minor of the transformed matrix, so the division is
    exact (and skipped when prev is 1, as in the first step); the k-th
    leading minor is the pivot p, and the k-th pivot of the LDL^T
    factorization, p / prev, has the sign of p * prev.  By Sylvester's law
    of inertia these signs count the positive and negative eigenvalues,
    and the zero block left at the end is the nullity.

    The update keeps the matrix symmetric, so only the upper triangle
    (j >= i) is updated and read: a_ik is read as a_ki from row k.  The
    lower triangle of the trailing block is written from the upper one
    only when the leading diagonal entry is zero, before the swap or
    congruence, which read and move whole rows and columns; nothing reads
    an entry below the diagonal that was not written so.
    """
    size = len(rows)
    if consume:
        m = rows
    elif set(map(type, chain.from_iterable(rows))) <= {int}:
        m = [list(row) for row in rows]
    else:
        _, flat = clear_denominators([v for row in rows for v in row])
        m = [list(flat[i * size : (i + 1) * size]) for i in range(size)]
    pos = neg = 0
    prev = 1
    for k in range(size):
        if not m[k][k]:
            for i in range(k, size):
                row_i = m[i]
                for j in range(i + 1, size):
                    m[j][i] = row_i[j]
            piv = next((i for i in range(k + 1, size) if m[i][i]), None)
            if piv is None:
                pair = next(
                    (
                        (i, j)
                        for i in range(k, size)
                        for j in range(i + 1, size)
                        if m[i][j]
                    ),
                    None,
                )
                if pair is None:
                    break
                piv, j = pair
                row_i, row_j = m[piv], m[j]
                for t in range(k, size):
                    row_i[t] += row_j[t]
                for t in range(k, size):
                    m[t][piv] += m[t][j]
            if piv != k:
                m[k], m[piv] = m[piv], m[k]
                for row in m[k:]:
                    row[k], row[piv] = row[piv], row[k]
        row_k = m[k]
        p = row_k[k]
        if (p > 0) == (prev > 0):
            pos += 1
        else:
            neg += 1
        for i in range(k + 1, size):
            row_i = m[i]
            a_ik = row_k[i]
            if prev == 1:
                for j in range(i, size):
                    row_i[j] = p * row_i[j] - a_ik * row_k[j]
                continue
            for j in range(i, size):
                quot, rem = divmod(p * row_i[j] - a_ik * row_k[j], prev)
                if rem:
                    raise ArithmeticError("fraction-free elimination lost exactness")
                row_i[j] = quot
        prev = p
    return Inertia(pos, neg, size - pos - neg)


def matrix_rank(rows: Sequence[Sequence]) -> int:
    """Exact rank by fraction-free (Bareiss) elimination."""
    m = [list(clear_denominators(row)[1]) for row in rows]
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    prev = 1
    for col in range(ncols):
        pivot_row = None
        for i in range(rank, nrows):
            if m[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        pivot = m[rank][col]
        for i in range(rank + 1, nrows):
            factor = m[i][col]
            row_i = m[i]
            row_p = m[rank]
            for j in range(col, ncols):
                quot, rem = divmod(pivot * row_i[j] - factor * row_p[j], prev)
                if rem:
                    raise ArithmeticError("fraction-free elimination lost exactness")
                row_i[j] = quot
        prev = pivot
        rank += 1
        if rank == nrows:
            break
    return rank
