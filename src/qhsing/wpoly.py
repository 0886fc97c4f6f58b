"""Quasi-homogeneous polynomials with exact rational weights.

A polynomial W in N complex variables is stored as an exponent matrix B
(one row per monomial) together with complex coefficients.  The weight
vector q is the unique exact-rational solution of B q = (1, ..., 1); all
weight arithmetic stays in Fraction so that downstream integrality tests
never see floating-point ties.  Evaluation, gradients and Hessians are
double-precision complex.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Sequence

import numpy as np

from . import exact

__all__ = [
    "PolynomialError",
    "WeightError",
    "QHPoly",
    "compute_weights",
    "parse_polynomial",
    "value",
    "gradient",
    "hessian",
    "growth_exponents",
    "milnor_number",
    "degenerate_support",
    "check_nondegenerate",
]

# Short variable aliases accepted in text input for up to four variables.
_ALIAS = {"x": 0, "y": 1, "z": 2, "w": 3}


class PolynomialError(ValueError):
    """Raised on malformed polynomial input."""


class WeightError(ValueError):
    """Raised when no valid weight system exists."""


@dataclass(frozen=True)
class QHPoly:
    """A quasi-homogeneous polynomial with its exact weight vector.

    exponents[j][i] is the power of variable i in monomial j; coeffs[j]
    is the (nonzero) complex coefficient of monomial j.
    """

    n_vars: int
    exponents: tuple[tuple[int, ...], ...]
    coeffs: tuple[complex, ...]
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        if self.n_vars < 1:
            raise PolynomialError("need at least one variable")
        seen = set()
        for row, c in zip(self.exponents, self.coeffs):
            if len(row) != self.n_vars:
                raise PolynomialError("exponent row length mismatch")
            if any(e < 0 for e in row):
                raise PolynomialError("negative exponent")
            if c == 0:
                raise PolynomialError("zero coefficient after merging")
            if row in seen:
                raise PolynomialError(f"duplicate monomial {row}")
            seen.add(row)
        for row in self.exponents:
            total = sum(e * q for e, q in zip(row, self.weights))
            if total != 1:
                raise WeightError(f"monomial {row} has weight {total} != 1")

    def _derivative_terms(self, *vs: int) -> tuple[tuple[complex, tuple], ...]:
        """The terms (c', ((k, p), ...)) of the derivative of W in the variables vs.

        Each term is its coefficient c' (a monomial's coefficient times the
        integer factor the derivatives bring down) times the product of
        u_k ** p over the listed (k, p), all p > 0.
        """
        terms = []
        for row, c in zip(self.exponents, self.coeffs):
            factor, powers = 1, list(row)
            for v in vs:
                factor *= powers[v]
                powers[v] -= 1
            if factor:
                terms.append((c * factor, tuple((k, p) for k, p in enumerate(powers) if p)))
        return tuple(terms)

    @cached_property
    def weights_over_lcm(self) -> tuple[tuple[int, ...], int]:
        """The weights as integer numerators n_i over their lcm denominator w."""
        w = math.lcm(*(q.denominator for q in self.weights))
        return tuple(q.numerator * (w // q.denominator) for q in self.weights), w

    @cached_property
    def value_terms(self) -> tuple[tuple[tuple[complex, tuple], ...]]:
        """The terms of W itself, as a one-entry term table.  Built on first use."""
        return (self._derivative_terms(),)

    @cached_property
    def gradient_terms(self) -> tuple[tuple[tuple[complex, tuple], ...], ...]:
        """Per variable i, the terms of dW/du_i.  Built on first use."""
        return tuple(self._derivative_terms(i) for i in range(self.n_vars))

    @cached_property
    def hessian_terms(self) -> tuple[tuple[tuple[complex, tuple], ...], ...]:
        """Per entry (i, j) in row-major order, the terms of d2W/du_i du_j.

        Built on first use.
        """
        n = self.n_vars
        return tuple(self._derivative_terms(i, j) for i in range(n) for j in range(n))

    def value_at(self, u) -> complex:
        """W at u, from the value term table; u is as for gradient_values."""
        return _term_sums(self.value_terms, u)[0]

    def gradient_values(self, u) -> list[complex]:
        """dW/du_1, ..., dW/du_N at u, from the gradient term table.

        u is a sequence of Python complex of length at least N; entries
        past the N-th are ignored.  This is the one evaluator of the
        gradient.
        """
        return _term_sums(self.gradient_terms, u)

    def hessian_values(self, u) -> list[list[complex]]:
        """The symmetric N x N Hessian of W at u, as rows of Python complex.

        u is as for gradient_values.  This is the one evaluator of the
        Hessian.
        """
        n = self.n_vars
        flat = _term_sums(self.hessian_terms, u)
        return [flat[i * n:(i + 1) * n] for i in range(n)]

    @cached_property
    def summands(self) -> tuple[tuple[int, ...], ...]:
        """Variable blocks that no monomial mixes (the Thom-Sebastiani summands).

        Each block lists its variables in ascending order; the blocks are
        ordered by their first variable.
        """
        blocks: list[set[int]] = []
        for row in self.exponents:
            block = {v for v, e in enumerate(row) if e}
            for other in [bl for bl in blocks if bl & block]:
                blocks.remove(other)
                block |= other
            blocks.append(block)
        return tuple(sorted(tuple(sorted(bl)) for bl in blocks))

    def restrict(self, block: Sequence[int]) -> "QHPoly":
        """The part of W in the variables of block, renumbered in block order.

        block must be a union of summands; otherwise a restricted monomial
        fails the weight check.
        """
        rows = [(tuple(row[v] for v in block), c)
                for row, c in zip(self.exponents, self.coeffs) if any(row[v] for v in block)]
        return QHPoly(n_vars=len(block),
                      exponents=tuple(r for r, _ in rows),
                      coeffs=tuple(c for _, c in rows),
                      weights=tuple(self.weights[v] for v in block))

    @staticmethod
    def from_monomials(n_vars: int,
                       monomials: Sequence[tuple[Sequence[int], complex]]) -> "QHPoly":
        """Build a QHPoly from (exponent vector, coefficient) pairs.

        Identical exponent vectors are merged; a merged coefficient of
        zero is an error.
        """
        merged: dict[tuple[int, ...], complex] = {}
        for exps, coeff in monomials:
            key = tuple(int(e) for e in exps)
            merged[key] = merged.get(key, 0) + complex(coeff)
        for key, coeff in merged.items():
            if coeff == 0:
                raise PolynomialError(f"monomial {key} cancels to zero")
        rows = sorted(merged)
        weights = compute_weights(rows)
        return QHPoly(n_vars=n_vars,
                      exponents=tuple(rows),
                      coeffs=tuple(merged[r] for r in rows),
                      weights=weights)

    def text(self) -> str:
        """Render back to the input grammar (variables x1..xN); it parses back to W."""
        parts = []
        for row, c in zip(self.exponents, self.coeffs):
            factors = []
            for i, e in enumerate(row):
                if e == 1:
                    factors.append(f"x{i + 1}")
                elif e > 1:
                    factors.append(f"x{i + 1}^{e}")
            if c == 1:
                head = ""
            elif c.imag == 0:
                head = f"{_digits(c.real)}*"
            else:
                head = f"({_digits(c.real)}{_digits(c.imag, '+')}i)*"
            parts.append(head + "*".join(factors))
        # A negative real head follows " - ": "+ -2*x" would be an empty term.
        return " + ".join(parts).replace(" + -", " - ")


def _digits(x: float, sign: str = "") -> str:
    """x in the coefficient grammar: its :g text where that reads back as x,
    else the shortest digits that do, with no exponent."""
    s = f"{x:{sign}g}"
    if "e" in s or float(s) != x:
        s = np.format_float_positional(x, sign=bool(sign), trim="-")
    return s


def _term_sums(table, u) -> list[complex]:
    """Per entry of a term table, the sum of its terms at u (Python complex)."""
    sums = []
    for terms in table:
        total = 0j
        for c, powers in terms:
            for k, p in powers:
                c *= u[k] ** p
            total += c
        sums.append(total)
    return sums


def compute_weights(B: Sequence[Sequence[int]]) -> tuple[Fraction, ...]:
    """Exact rational weights q with B q = 1 componentwise.

    Every q_i must lie in the open interval (0, 1/2); weights of 1/2 or
    larger (the quadratic A1 direction included) are rejected.
    """
    if not B:
        raise WeightError("empty exponent matrix")
    n = len(B[0])
    try:
        q = exact.solve(B, [1] * len(B))
    except exact.RankError:
        raise WeightError("weight system is rank-deficient (weights not unique)") from None
    except exact.InconsistentError:
        raise WeightError("inconsistent weight system") from None
    for i, qi in enumerate(q):
        if not (0 < qi < Fraction(1, 2)):
            raise WeightError(
                f"weight q_{i + 1} = {qi} outside the open interval (0, 1/2)")
    assert len(q) == n
    return q


def _parse_coefficient(tok: str) -> complex:
    """Parse 'a', 'bi', or 'a+bi' (optionally parenthesized)."""
    tok = tok.strip()
    if tok.startswith("(") and tok.endswith(")"):
        tok = tok[1:-1].strip()
    m = re.fullmatch(
        r"([+-]?\d+(?:\.\d+)?)?\s*(?:([+-]?\s*\d+(?:\.\d+)?)\s*i)?", tok)
    if m is None or (m.group(1) is None and m.group(2) is None):
        raise PolynomialError(f"bad coefficient {tok!r}")
    re_part = float(m.group(1)) if m.group(1) else 0.0
    im_part = float(m.group(2).replace(" ", "")) if m.group(2) else 0.0
    return complex(re_part, im_part)


def parse_polynomial(text: str) -> QHPoly:
    """Parse an expression like "x^3 + x*y^2" or "2*x1^4 + x1*x2^2".

    Terms are split at each + or - outside parentheses.  Each term is an
    optional coefficient followed by '*'-joined variable powers.  Omitted
    coefficients default to 1.  Variables are x1..xN, or x,y,z,w for up
    to four variables.
    """
    s = text.replace(" ", "")
    if not s:
        raise PolynomialError("empty polynomial")
    # Split at the leading sign, if any, and at each + or - outside parentheses.
    parts = re.split(r"(^[+-]?|[+-](?![^(]*\)))", s)
    terms = [(-1 if sign == "-" else 1, body) for sign, body in zip(parts[1::2], parts[2::2])]
    if not all(body for _, body in terms):
        raise PolynomialError("empty term")

    parsed: list[tuple[int, complex, list[tuple[int, int]]]] = []
    factor_re = re.compile(r"(x\d+|[xyzw])(?:\^(\d+))?")
    for sgn, body in terms:
        factors = body.split("*")
        coeff = complex(1.0)
        powers: list[tuple[int, int]] = []
        for k, f in enumerate(factors):
            m = factor_re.fullmatch(f)
            if m:
                name, exp = m.group(1), int(m.group(2) or 1)
                if exp < 1:
                    raise PolynomialError(f"exponent must be >= 1 in {f!r}")
                idx = _ALIAS[name] if name in _ALIAS else int(name[1:]) - 1
                if idx < 0:
                    raise PolynomialError(f"bad variable {name!r}")
                powers.append((idx, exp))
            elif k == 0:
                coeff = _parse_coefficient(f)
            else:
                raise PolynomialError(f"bad factor {f!r}")
        if not powers:
            raise PolynomialError(f"constant term {body!r} not allowed")
        parsed.append((sgn, coeff, powers))

    # Every term has a variable, and there is at least one term.
    n_vars = max(idx for _, _, powers in parsed for idx, _ in powers) + 1
    monomials = []
    for sgn, coeff, powers in parsed:
        row = [0] * n_vars
        for idx, exp in powers:
            row[idx] += exp
        monomials.append((row, sgn * coeff))
    return QHPoly.from_monomials(n_vars, monomials)


def _as_vector(W: QHPoly, u) -> np.ndarray:
    u = np.asarray(u, dtype=complex)
    if u.shape != (W.n_vars,):
        raise ValueError(f"expected vector of length {W.n_vars}, got shape {u.shape}")
    return u


def value(W: QHPoly, u) -> complex:
    """W at the complex point u, summed from its value term table (the zeroth derivative)."""
    return W.value_at(_as_vector(W, u).tolist())


def gradient(W: QHPoly, u) -> np.ndarray:
    """Holomorphic gradient (dW/du_1, ..., dW/du_N) at u."""
    return np.array(W.gradient_values(_as_vector(W, u).tolist()), dtype=complex)


def hessian(W: QHPoly, u) -> np.ndarray:
    """Second holomorphic derivative matrix at u (symmetric)."""
    return np.array(W.hessian_values(_as_vector(W, u).tolist()), dtype=complex)


def _norm(v) -> float:
    """Euclidean norm of an iterable of Python complex."""
    return math.hypot(*map(abs, v))


def _solve(A: list[list[complex]], y: list[complex]) -> list[complex] | None:
    """x with A x = y, by Gaussian elimination with partial pivoting.

    A is a list of N rows of N Python complex and y a list of N; neither
    is changed.  Returns None when a pivot is exactly zero (A singular).
    """
    n = len(y)
    M = [list(row) + [v] for row, v in zip(A, y)]
    for c in range(n):
        p = max(range(c, n), key=lambda r: abs(M[r][c])) if c + 1 < n else c
        pivot = M[p]
        if pivot[c] == 0:
            return None
        M[p], M[c] = M[c], pivot
        for r in range(c + 1, n):
            f = M[r][c] / pivot[c]
            M[r] = [a - f * e for a, e in zip(M[r], pivot)]
    x = [0j] * n
    for c in range(n - 1, -1, -1):
        row = M[c]
        x[c] = (row[n] - sum(map(mul, row[c + 1:n], x[c + 1:]))) / row[c]
    return x


def growth_exponents(W: QHPoly) -> tuple[Fraction, ...]:
    """Growth exponents q_i / min_j(1 - q_j); all < 1 for valid weights."""
    m = min(1 - q for q in W.weights)
    return tuple(q / m for q in W.weights)


def milnor_number(W: QHPoly) -> int:
    """Milnor number as the exact product of (1/q_i - 1).

    A non-integer product signals a degenerate weight system.
    """
    prod = Fraction(1)
    for q in W.weights:
        prod *= 1 / q - 1
    if prod.denominator != 1:
        raise WeightError(f"Milnor product {prod} is not an integer")
    return int(prod)


def degenerate_support(W: QHPoly) -> tuple[int, ...] | None:
    """The first variable set I, by size and then lexicographically, failing the support test.

    I fails when fewer than |I| variables k have a monomial equal to x_k
    times a monomial in I's variables (the necessary half of Kreuzer-Skarke,
    Commun. Math. Phys. 150, 1992): every other dW/dx_k vanishes on the
    coordinate subspace of I, so the critical set there has positive
    dimension whatever the coefficients.  None when every I passes.
    """
    n = W.n_vars
    # Per variable k, the variable sets of the monomials m with x_k * m in W.
    cofactors = [[{j for j in range(n) if row[j] > (j == k)} for row in W.exponents if row[k]]
                 for k in range(n)]
    for size in range(1, n + 1):
        for I in map(set, itertools.combinations(range(n), size)):
            if sum(any(m <= I for m in ms) for ms in cofactors) < size:
                return tuple(sorted(I))
    return None


def check_nondegenerate(W: QHPoly, n_starts: int = 200, seed: int = 0) -> bool:
    """Nondegeneracy from the support test, then a count of critical points.

    False if W fails the support test, and only then.  Otherwise True once
    morse.find_critical_points (n_starts starts per multistart) finds
    mu = prod(1/q_i - 1) critical points of W + sum b_i x_i, with b drawn
    from the seed.  By weighted Bezout a degenerate W has at most mu - 1
    isolated critical points at any b, as its critical cone meets the
    hyperplane at infinity.  A short multistart looks the same, so a count
    below mu is refused: find_critical_points' MorseError passes through.
    """
    from .morse import find_critical_points

    if degenerate_support(W):
        return False
    rng = np.random.default_rng(seed)
    b = rng.normal(size=W.n_vars) + 1j * rng.normal(size=W.n_vars)
    find_critical_points(W, b.tolist(), seed=seed, n_starts=n_starts)
    return True


def growth_bound_supremum(W: QHPoly, radius: float, n_samples: int = 10_000,
                          seed: int = 0) -> float:
    """A sampled lower bound on sup |u_i| / (sum_k |dW/du_k| + 1)^{delta_i}.

    The largest ratio at n_samples points of the ball drawn from seed, so the
    bound is fixed by seed; it should stabilize as the radius grows.
    """
    rng = np.random.default_rng(seed)
    deltas = [float(d) for d in growth_exponents(W)]
    n = W.n_vars
    sup = 0.0
    for _ in range(n_samples):
        # One draw of 2n normals is the stream of two draws of n: Re, then Im.
        xy = rng.normal(size=2 * n).tolist()
        s = radius * rng.random() ** (1.0 / (2 * n)) / max(_norm(xy), 1e-30)
        u = [complex(x * s, y * s) for x, y in zip(xy[:n], xy[n:])]
        denom = sum(map(abs, W.gradient_values(u))) + 1.0
        for i in range(n):
            ratio = abs(u[i]) / denom ** deltas[i]
            if ratio > sup:
                sup = ratio
    return sup
