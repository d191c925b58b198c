"""Exact symmetric-matrix spectra over the rationals.

Inertia (positive/negative/zero eigenvalue counts) is computed with no
floating point: the characteristic polynomial comes from the
division-free Samuelson-Berkowitz recursion, the zero multiplicity is the
number of trailing zero coefficients, and the positive count is the number
of Descartes sign variations -- exact because symmetric matrices are
real-rooted.  Rank uses fraction-free (Bareiss) elimination on integer
rows after clearing denominators.

`clear_denominators` is the one place where denominators are cleared:
Hessian points, weighted evaluation points and the rows given to
`matrix_rank` all become integers through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Sequence


@dataclass(frozen=True)
class Inertia:
    pos: int
    neg: int
    zero: int

    @property
    def size(self) -> int:
        return self.pos + self.neg + self.zero

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.pos, self.neg, self.zero)

    def render(self) -> str:
        return f"(+{self.pos},-{self.neg},{self.zero}z)"

    def to_json_dict(self) -> dict:
        return {"pos": self.pos, "neg": self.neg, "zero": self.zero}


class SymMatrix:
    """Symmetric matrix with exact rational entries."""

    __slots__ = ("size", "rows")

    def __init__(self, rows: Sequence[Sequence]):
        n = len(rows)
        for i, row in enumerate(rows):
            if len(row) != n:
                raise ValueError("matrix must be square")
            for j in range(i):
                if rows[i][j] != rows[j][i]:
                    raise ValueError(f"entries ({i},{j}) and ({j},{i}) differ")
        self.size = n
        self.rows = tuple(tuple(row) for row in rows)

    def __eq__(self, other) -> bool:
        return isinstance(other, SymMatrix) and self.rows == other.rows

    def __repr__(self) -> str:
        return f"SymMatrix({[list(r) for r in self.rows]})"

    def entry(self, i: int, j: int):
        return self.rows[i][j]

    def congruence(self, t_rows: Sequence[Sequence]) -> "SymMatrix":
        """T^t * A * T for a square transform T given by rows."""
        n = self.size
        if len(t_rows) != n or any(len(r) != n for r in t_rows):
            raise ValueError("transform shape mismatch")
        at = [
            [sum(self.rows[i][k] * t_rows[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
        out = [
            [sum(t_rows[k][i] * at[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
        return SymMatrix(out)


def clear_denominators(values: Sequence) -> tuple[int, tuple[int, ...]]:
    """(scale, ints): the least positive integer scale that makes every
    rational value integral, and the values multiplied by it.

    The one place in the package where denominators are cleared.  A
    positive scale changes no sign, rank or inertia, and a homogeneous
    polynomial of degree d at scale * a is scale**d times its value at a.
    """
    scale = 1
    for v in values:
        scale = scale * v.denominator // gcd(scale, v.denominator)
    return scale, tuple(v.numerator * (scale // v.denominator) for v in values)


def char_poly(a: SymMatrix | Sequence[Sequence]) -> tuple:
    """Coefficients of det(xI - A), leading first (degree = size).

    Samuelson-Berkowitz: extend the characteristic polynomial of each
    leading principal submatrix by one lower-triangular Toeplitz product per
    row; division-free, so integer input stays integer throughout.
    """
    rows = a.rows if isinstance(a, SymMatrix) else [list(r) for r in a]
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


def inertia(a: SymMatrix | Sequence[Sequence]) -> Inertia:
    """Exact eigenvalue sign counts of a symmetric rational matrix."""
    coeffs = list(char_poly(a))
    zero = 0
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
        zero += 1
    nonzero = [c for c in coeffs if c != 0]
    pos = sum(
        1 for c1, c2 in zip(nonzero, nonzero[1:]) if (c1 > 0) != (c2 > 0)
    )
    size = a.size if isinstance(a, SymMatrix) else len(a)
    return Inertia(pos, size - pos - zero, zero)


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
