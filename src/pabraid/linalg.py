"""Exact integer matrices: characteristic polynomials, irreducibility, and
rigorous Perron-root enclosures for nonnegative matrices.

The convention throughout is that column ``j`` holds the image of the j-th
basis vector, so a matrix acts on coefficient vectors by left multiplication.

The characteristic polynomial is computed without floating point or
division by Berkowitz's recurrence over the leading principal blocks, using
sparse rows so that the cost follows the number of nonzero entries.  The
result is asserted to be monic of full degree.  Fraction-free Bareiss
elimination stays as an independent determinant oracle.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

from .poly import IntPolynomial
from .spectral import RootEnclosure, to_witness, witness_bits


class IntMatrix:
    """A square matrix of arbitrary-precision integers."""

    __slots__ = ("dim", "entries")

    def __init__(self, entries: Iterable[Iterable[int]]):
        rows = [tuple(int(x) for x in row) for row in entries]
        if not rows:
            raise ValueError("matrix must have dimension >= 1")
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("matrix must be square")
        self.dim = n
        self.entries: tuple[tuple[int, ...], ...] = tuple(rows)

    def __eq__(self, other) -> bool:
        return isinstance(other, IntMatrix) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"IntMatrix({[list(r) for r in self.entries]!r})"

    def mul_vector(self, v: Sequence[int]) -> tuple[int, ...]:
        if len(v) != self.dim:
            raise ValueError("vector length must equal matrix dimension")
        return tuple(sum(row[j] * v[j] for j in range(self.dim)) for row in self.entries)

    def is_nonnegative(self) -> bool:
        return all(x >= 0 for row in self.entries for x in row)


def bareiss_determinant(matrix: Sequence[Sequence[int]]) -> int:
    """Exact determinant by fraction-free Bareiss elimination with row pivoting.

    Every interior division in the recurrence is exact, so the computation
    stays in the integers.
    """
    a = [list(row) for row in matrix]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        akk = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            row_i = a[i]
            row_k = a[k]
            for j in range(k + 1, n):
                row_i[j] = (akk * row_i[j] - aik * row_k[j]) // prev
            row_i[k] = 0
        prev = akk
    return sign * a[n - 1][n - 1]


def char_poly(m: IntMatrix) -> IntPolynomial:
    """Exact monic characteristic polynomial ``det(tI - M)``, ascending coefficients.

    Berkowitz: with ``A_k`` the leading ``k x k`` block and ``C``/``R`` the
    first ``k`` entries of column/row ``k``, ``det(tI - A_{k+1})`` is
    ``det(tI - A_k)`` convolved with ``1, -M[k][k], -R C, -R A_k C, ...,
    -R A_k^(k-1) C``.  The products ``A_k^j C`` run over sparse rows.
    """
    n = m.dim
    a = m.entries
    rows: list[list[tuple[int, int]]] = []  # nonzero (column, entry) pairs of A_k
    desc = [1]  # descending coefficients of det(tI - A_k)
    for k in range(n):
        row_k = a[k]
        r = [(j, row_k[j]) for j in range(k) if row_k[j]]
        v = [a[i][k] for i in range(k)]
        taps = [1, -row_k[k]]
        for _ in range(k):
            taps.append(-sum(x * v[j] for j, x in r))
            v = [sum(x * v[j] for j, x in row) for row in rows]
        desc = [sum(taps[i - j] * desc[j] for j in range(min(i, k) + 1)) for i in range(k + 2)]
        for i in range(k):
            if a[i][k]:
                rows[i].append((k, a[i][k]))
        rows.append(r + [(k, row_k[k])] if row_k[k] else r)
    poly = IntPolynomial(reversed(desc))
    if poly.degree != n or not poly.is_monic():
        raise ArithmeticError("characteristic polynomial is not monic of full degree")
    return poly


def is_irreducible(m: IntMatrix) -> bool:
    """Whether the directed graph with an edge ``i -> j`` for every nonzero
    entry ``M[i][j]`` is strongly connected.  Signs are ignored: the support
    is what matters.  A 1x1 matrix is irreducible iff its entry is nonzero.
    """
    n = m.dim
    if n == 1:
        return m.entries[0][0] != 0
    forward = [[j for j in range(n) if m.entries[i][j] != 0] for i in range(n)]
    backward = [[] for _ in range(n)]
    for i in range(n):
        for j in forward[i]:
            backward[j].append(i)

    def reaches_all(adj) -> bool:
        seen, stack = {0}, [0]
        while stack:
            for v in adj[stack.pop()]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return len(seen) == n

    return reaches_all(forward) and reaches_all(backward)


def perron_root(m: IntMatrix, tol: float) -> RootEnclosure:
    """Rigorous enclosure of the Perron-Frobenius eigenvalue of a nonnegative
    irreducible matrix, width at most ``tol``, with its midpoint as the
    witness at the bits :func:`~pabraid.spectral.witness_bits` gives.

    Power iteration on ``M + I`` (the identity shift makes the iteration
    aperiodic without moving the Perron root by more than the exact +1) with
    the classical min/max ratio bounds: for any positive vector ``x``,
    ``min_i (Ax)_i / x_i <= rho(A) <= max_i (Ax)_i / x_i``.  All ratios are
    exact rationals, so the enclosure is certified by construction.

    Matrices with a negative entry, and reducible matrices, are rejected;
    for those the characteristic-polynomial route must be used instead.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if not m.is_nonnegative():
        raise ValueError("perron_root requires a nonnegative matrix")
    if not is_irreducible(m):
        raise ValueError("perron_root requires an irreducible matrix")
    width = Fraction(tol)
    n = m.dim
    if n == 1:
        c = Fraction(m.entries[0][0])
        return RootEnclosure(c - width / 2, c + width / 2, to_witness(c, witness_bits(c, width)), certified=False)
    shifted = IntMatrix([[m.entries[i][j] + (i == j) for j in range(n)] for i in range(n)])
    x = [1] * n
    best_lo = Fraction(0)
    best_hi = None
    for _ in range(100000):
        y = shifted.mul_vector(x)
        ratios = [Fraction(y[i], x[i]) for i in range(n)]
        lo, hi = min(ratios), max(ratios)
        best_lo = max(best_lo, lo)
        best_hi = hi if best_hi is None else min(best_hi, hi)
        if best_hi - best_lo <= width / 2:
            # pad so the interval stays open even when the ratio bounds
            # collapse onto the eigenvalue exactly
            lower = best_lo - 1 - width / 8
            upper = best_hi - 1 + width / 8
            mid = (lower + upper) / 2
            return RootEnclosure(lower, upper, to_witness(mid, witness_bits(mid, upper - lower)), certified=False)
        g = gcd(*y)
        x = [v // g for v in y] if g > 1 else list(y)
    raise ArithmeticError("power iteration did not reach the requested width")
