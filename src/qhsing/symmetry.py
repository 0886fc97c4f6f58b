"""Diagonal symmetry groups of quasi-homogeneous polynomials.

A group element gamma acts on coordinate i by exp(2*pi*1j*Theta_i) with
rational phases Theta_i in [0, 1).  Membership in the symmetry group of
W means every monomial phase sum B.Theta is an integer.  The full group
is enumerated by integer-lattice methods (Smith normal form of the
exponent matrix); all phase arithmetic is exact.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

import numpy as np

from .wpoly import QHPoly, WeightError

__all__ = [
    "GroupElement",
    "Sector",
    "Involution",
    "smith_normal_form",
    "enumerate_group",
    "exponential_grading",
    "is_member",
    "sector_data",
    "central_charge",
    "gluing_involution",
    "direct_sum",
    "sector_table",
]


def _mod1(x: Fraction) -> Fraction:
    return x - math.floor(x)


@dataclass(frozen=True)
class GroupElement:
    """A diagonal symmetry, stored as exact phase fractions in [0, 1)."""

    theta: tuple[Fraction, ...]

    def __post_init__(self):
        for t in self.theta:
            if not (0 <= t < 1):
                raise ValueError(f"phase {t} outside [0, 1)")

    @staticmethod
    def from_phases(phases) -> "GroupElement":
        return GroupElement(tuple(_mod1(Fraction(p)) for p in phases))

    @property
    def n_vars(self) -> int:
        return len(self.theta)

    @property
    def is_identity(self) -> bool:
        return all(t == 0 for t in self.theta)

    @property
    def order(self) -> int:
        return reduce(math.lcm, (t.denominator for t in self.theta), 1)

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        if len(self.theta) != len(other.theta):
            raise ValueError("group elements live on different variable sets")
        return GroupElement(tuple(_mod1(a + b) for a, b in zip(self.theta, other.theta)))

    def inverse(self) -> "GroupElement":
        return GroupElement(tuple(_mod1(-t) for t in self.theta))

    def __pow__(self, k: int) -> "GroupElement":
        return GroupElement(tuple(_mod1(k * t) for t in self.theta))

    def sort_key(self):
        return tuple(self.theta)


@dataclass(frozen=True)
class Sector:
    """Per-element sector data: fixed locus, degree shift, type."""

    gamma: GroupElement
    fixed_indices: tuple[int, ...]
    n_gamma: int
    iota: Fraction
    w_gamma_monomials: tuple[int, ...]
    is_ramond: bool


def smith_normal_form(A) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Smith normal form over the integers.

    Returns (U, S, V) with U A V = S, U and V unimodular, S diagonal
    with s_1 | s_2 | ... .  Plain integer row/column reduction; fine for
    the small exponent matrices that occur here.
    """
    A = np.array(A, dtype=object)
    m, n = A.shape
    U = np.eye(m, dtype=object)
    V = np.eye(n, dtype=object)
    S = A.copy()

    def min_nonzero(k):
        best = None
        for i in range(k, m):
            for j in range(k, n):
                if S[i, j] != 0 and (best is None or abs(S[i, j]) < abs(S[best[0], best[1]])):
                    best = (i, j)
        return best

    k = 0
    while k < min(m, n):
        pos = min_nonzero(k)
        if pos is None:
            break
        i0, j0 = pos
        S[[k, i0], :] = S[[i0, k], :]
        U[[k, i0], :] = U[[i0, k], :]
        S[:, [k, j0]] = S[:, [j0, k]]
        V[:, [k, j0]] = V[:, [j0, k]]
        done = False
        while not done:
            done = True
            for i in range(k + 1, m):
                if S[i, k] != 0:
                    q = S[i, k] // S[k, k]
                    S[i, :] -= q * S[k, :]
                    U[i, :] -= q * U[k, :]
                    if S[i, k] != 0:
                        S[[k, i], :] = S[[i, k], :]
                        U[[k, i], :] = U[[i, k], :]
                        done = False
            for j in range(k + 1, n):
                if S[k, j] != 0:
                    q = S[k, j] // S[k, k]
                    S[:, j] -= q * S[:, k]
                    V[:, j] -= q * V[:, k]
                    if S[k, j] != 0:
                        S[:, [k, j]] = S[:, [j, k]]
                        V[:, [k, j]] = V[:, [j, k]]
                        done = False
        k += 1
    # Enforce positive diagonal and divisibility chain.
    for i in range(min(m, n)):
        if S[i, i] < 0:
            S[i, :] = -S[i, :]
            U[i, :] = -U[i, :]
    changed = True
    while changed:
        changed = False
        for i in range(min(m, n) - 1):
            a, b = S[i, i], S[i + 1, i + 1]
            if a != 0 and b != 0 and b % a != 0:
                # Standard 2x2 fix-up: replace (a, b) by (gcd, lcm).
                g = math.gcd(int(a), int(b))
                # Column op brings b into column i, then re-reduce the block.
                S[:, i] += S[:, i + 1]
                V[:, i] += V[:, i + 1]
                sub_done = False
                while not sub_done:
                    sub_done = True
                    if S[i + 1, i] != 0:
                        q = S[i + 1, i] // S[i, i] if S[i, i] != 0 else 0
                        S[i + 1, :] -= q * S[i, :]
                        U[i + 1, :] -= q * U[i, :]
                        if S[i + 1, i] != 0:
                            S[[i, i + 1], :] = S[[i + 1, i], :]
                            U[[i, i + 1], :] = U[[i + 1, i], :]
                            sub_done = False
                    if S[i, i + 1] != 0:
                        q = S[i, i + 1] // S[i, i] if S[i, i] != 0 else 0
                        S[:, i + 1] -= q * S[:, i]
                        V[:, i + 1] -= q * V[:, i]
                        if S[i, i + 1] != 0:
                            S[:, [i, i + 1]] = S[:, [i + 1, i]]
                            V[:, [i, i + 1]] = V[:, [i + 1, i]]
                            sub_done = False
                if S[i, i] < 0:
                    S[i, :] = -S[i, :]
                    U[i, :] = -U[i, :]
                if S[i + 1, i + 1] < 0:
                    S[i + 1, :] = -S[i + 1, :]
                    U[i + 1, :] = -U[i + 1, :]
                assert S[i, i] == g and S[i, i + 1] == 0 and S[i + 1, i] == 0
                changed = True
    return U, S, V


def is_member(W: QHPoly, gamma: GroupElement) -> bool:
    """True iff every monomial phase sum B.Theta is an integer."""
    if gamma.n_vars != W.n_vars:
        return False
    for row in W.exponents:
        s = sum(b * t for b, t in zip(row, gamma.theta))
        if s.denominator != 1:
            return False
    return True


def enumerate_group(W: QHPoly) -> tuple[GroupElement, ...]:
    """The full diagonal symmetry group of W, canonically sorted.

    Solves B.Theta = 0 mod 1 via the Smith normal form of the exponent
    matrix: with U B V = S the solutions are Theta = V y where each
    y_i runs over multiples of 1/S_ii.  Finiteness requires rank N.
    """
    B = [list(r) for r in W.exponents]
    n = W.n_vars
    U, S, V = smith_normal_form(B)
    diag = [int(S[i, i]) for i in range(min(len(B), n))]
    if len(diag) < n or any(d == 0 for d in diag):
        raise WeightError("exponent matrix is rank-deficient; symmetry group is infinite")
    elements = set()
    # y_i = k_i / diag[i]; Theta = V y mod 1.
    counters = [0] * n
    total = 1
    for d in diag:
        total *= d
    for idx in range(total):
        rem = idx
        for i in range(n):
            counters[i] = rem % diag[i]
            rem //= diag[i]
        theta = []
        for row in range(n):
            t = Fraction(0)
            for i in range(n):
                t += Fraction(int(V[row, i]) * counters[i], diag[i])
            theta.append(_mod1(t))
        elements.add(tuple(theta))
    group = tuple(sorted((GroupElement(t) for t in elements), key=GroupElement.sort_key))
    for g in group:
        assert is_member(W, g)
    assert len(group) == total
    return group


def exponential_grading(W: QHPoly) -> GroupElement:
    """The grading element J with phases equal to the weights."""
    J = GroupElement.from_phases(W.weights)
    if not is_member(W, J):
        raise RuntimeError("grading element is not a symmetry; invalid polynomial")
    return J


def central_charge(W: QHPoly) -> Fraction:
    """Exact sum of (1 - 2 q_i)."""
    return sum((1 - 2 * q for q in W.weights), Fraction(0))


def sector_data(W: QHPoly, gamma: GroupElement) -> Sector:
    """Fixed locus, degree shift and Ramond/NS type for one element."""
    if not is_member(W, gamma):
        raise ValueError(f"{gamma} is not a symmetry of the polynomial")
    fixed = tuple(i for i, t in enumerate(gamma.theta) if t == 0)
    iota = sum((t - q for t, q in zip(gamma.theta, W.weights)), Fraction(0))
    w_gamma = tuple(
        j for j, row in enumerate(W.exponents)
        if sum(b * t for b, t in zip(row, gamma.theta)) == 0)
    return Sector(gamma=gamma,
                  fixed_indices=fixed,
                  n_gamma=len(fixed),
                  iota=iota,
                  w_gamma_monomials=w_gamma,
                  is_ramond=len(fixed) > 0)


def restricted_polynomial(W: QHPoly, gamma: GroupElement) -> QHPoly | None:
    """W_gamma as a polynomial on the fixed variables of gamma.

    Returns None for the empty restriction (no invariant monomials).
    The restricted polynomial keeps the ambient weights on the fixed
    variables, so it is again quasi-homogeneous.
    """
    sec = sector_data(W, gamma)
    if not sec.w_gamma_monomials:
        return None
    fixed = sec.fixed_indices
    pos = {i: k for k, i in enumerate(fixed)}
    monos = []
    for j in sec.w_gamma_monomials:
        row = W.exponents[j]
        new_row = [0] * len(fixed)
        for i, e in enumerate(row):
            if e:
                if i not in pos:
                    raise RuntimeError("invariant monomial uses a moved variable")
                new_row[pos[i]] = e
        monos.append((new_row, W.coeffs[j]))
    return QHPoly.from_monomials(len(fixed), monos)


@dataclass(frozen=True)
class Involution:
    """Diagonal map I with W(I u) = -W(u), as phase turns k_i/(2d)."""

    turns: tuple[Fraction, ...]

    def scale_factors(self) -> np.ndarray:
        return np.array([cmath.exp(2j * cmath.pi * float(t)) for t in self.turns])

    def apply(self, u) -> np.ndarray:
        return self.scale_factors() * np.asarray(u, dtype=complex)

    def square(self) -> GroupElement:
        return GroupElement.from_phases([2 * t for t in self.turns])


def gluing_involution(W: QHPoly, choice: int = 0) -> Involution:
    """Anti-symmetry I scaling coordinate i by xi^{n_i}, xi = exp(i pi/d).

    d is the common denominator of the weights and q_i = n_i/d.  The
    principal choice uses xi = exp(i pi/d); alternative choices differ
    by a symmetry group element and are selected by the `choice` index
    (xi -> xi * exp(2 pi i choice / d)).
    """
    d = reduce(math.lcm, (q.denominator for q in W.weights), 1)
    turns = tuple(Fraction((q * d).numerator * (1 + 2 * choice), 2 * d) for q in W.weights)
    inv = Involution(tuple(_mod1(t) for t in turns))
    # W(I u) = -W(u) holds exactly when I multiplies every monomial by -1.
    for row in W.exponents:
        if _mod1(sum(b * t for b, t in zip(row, inv.turns))) != Fraction(1, 2):
            raise RuntimeError(f"involution does not negate monomial {row}")
    if not is_member(W, inv.square()):
        raise RuntimeError("square of the involution is not a group element")
    return inv


def direct_sum(W1: QHPoly, W2: QHPoly) -> QHPoly:
    """Sum of singularities on disjoint variable sets."""
    n = W1.n_vars + W2.n_vars
    monos = [(list(row) + [0] * W2.n_vars, c)
             for row, c in zip(W1.exponents, W1.coeffs)]
    monos += [([0] * W1.n_vars + list(row), c)
              for row, c in zip(W2.exponents, W2.coeffs)]
    return QHPoly.from_monomials(n, monos)


def sector_table(W: QHPoly) -> str:
    """Structured-text sector table, one record per group element."""
    lines = []
    group = enumerate_group(W)
    lines.append(f"group_order {len(group)}")
    for k, g in enumerate(group):
        sec = sector_data(W, g)
        theta = ",".join(str(t) for t in g.theta)
        monos = ",".join(str(j) for j in sec.w_gamma_monomials) or "-"
        lines.append(
            f"sector {k} theta {theta} n_gamma {sec.n_gamma} "
            f"iota {sec.iota} type {'R' if sec.is_ramond else 'NS'} "
            f"w_gamma {monos}")
    return "\n".join(lines) + "\n"
