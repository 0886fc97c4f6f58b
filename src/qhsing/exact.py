"""Exact numbers, and exact linear algebra over Fraction: solve, inverse, det, rank.

fraction() is the one rule for what counts as exact; the four convert through it
and rest on one Gauss-Jordan elimination, so they share a single pivoting rule.
"""

from __future__ import annotations

import numbers
from fractions import Fraction


class RankError(ValueError):
    """The matrix or system is rank-deficient in its unknowns."""


class InconsistentError(ValueError):
    """An overdetermined system has no solution."""


def fraction(x, name: str = "entry") -> Fraction:
    """A numbers.Rational x (int, Fraction, numpy integer) as a Fraction, else ValueError."""
    if type(x) not in (int, Fraction) and not isinstance(x, numbers.Rational):  # slow check last
        raise ValueError(f"{name} {x!r} is not an int or a Fraction")  # Fraction(0.1) != 1/10
    return (x if type(x) is Fraction else Fraction(x) if type(x) is int
            else Fraction(int(x.numerator), int(x.denominator)))


def _gauss_jordan(rows: list[list[Fraction]], n: int) -> tuple[int, Fraction]:
    """Reduce rows in place to reduced row-echelon form on the first n columns.

    Returns the rank and the determinant factor: the product of the
    pivots, signed by the row swaps.
    """
    rank, factor = 0, Fraction(1)
    for col in range(n):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if piv is None:
            continue
        if piv != rank:
            rows[rank], rows[piv] = rows[piv], rows[rank]
            factor = -factor
        p = rows[rank][col]
        factor *= p
        rows[rank] = [v / p for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank, factor


def solve(A, b) -> tuple[Fraction, ...]:
    """The unique x with A x = b for a square or overdetermined A."""
    n = len(A[0])
    rows = [[*map(fraction, row), fraction(r)] for row, r in zip(A, b)]
    rank, _ = _gauss_jordan(rows, n)
    if rank < n:
        raise RankError("rank-deficient system")
    if any(row[n] != 0 for row in rows[n:]):
        raise InconsistentError("inconsistent system")
    return tuple(row[n] for row in rows[:n])


def _square(A) -> list[list[Fraction]]:
    """The rows of A as Fractions; ValueError unless A is square."""
    rows = [list(map(fraction, row)) for row in A]
    if any(len(row) != len(rows) for row in rows):
        raise ValueError(f"matrix is not square: row lengths {[len(row) for row in rows]}")
    return rows


def inverse(A) -> list[list[Fraction]]:
    """Inverse of a square matrix; RankError when it is singular."""
    n = len(A)
    rows = [row + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(_square(A))]
    if _gauss_jordan(rows, n)[0] < n:
        raise RankError("singular matrix")
    return [row[n:] for row in rows]


def det(A) -> Fraction:
    """Determinant of a square matrix."""
    rows = _square(A)
    rank, factor = _gauss_jordan(rows, len(rows))
    return factor if rank == len(rows) else Fraction(0)


def rank(A) -> int:
    """Rank of a matrix with at least one row."""
    return _gauss_jordan([list(map(fraction, row)) for row in A], len(A[0]))[0]
