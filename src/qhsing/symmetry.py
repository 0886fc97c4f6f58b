"""Diagonal symmetry groups of quasi-homogeneous polynomials.

A group element gamma acts on coordinate i by exp(2*pi*1j*Theta_i) with
rational phases Theta_i = k_i / d in [0, 1), held as integers k_i over
the element's order d.  Membership in the symmetry group of W means
every monomial phase sum B.k is 0 mod d.  The full group is enumerated
from the exact inverse of a square block of the exponent matrix.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exact import det, fraction, inverse, rank
from .wpoly import QHPoly, WeightError

__all__ = [
    "GroupElement",
    "Sector",
    "Involution",
    "enumerate_group",
    "exponential_grading",
    "is_member",
    "sector_data",
    "central_charge",
    "gluing_involution",
    "direct_sum",
    "sector_table",
]


@dataclass(frozen=True, init=False, repr=False, slots=True)
class GroupElement:
    """Phases Theta_i = k_i / d with d the order, so (k, d) is canonical.

    Built from exact phases (exact.fraction) in [0, 1); `theta` is the Fraction view.
    """

    k: tuple[int, ...]
    d: int

    def __init__(self, theta):
        theta = tuple(fraction(t, "phase") for t in theta)
        if out := [t for t in theta if not 0 <= t.numerator < t.denominator]:
            raise ValueError(f"phase {out[0]} is not in [0, 1)")
        d = math.lcm(*(t.denominator for t in theta))
        object.__setattr__(self, "k", tuple(t.numerator * (d // t.denominator) for t in theta))
        object.__setattr__(self, "d", d)

    @staticmethod
    def from_phases(phases) -> "GroupElement":
        """The element with the phases reduced mod 1."""
        return GroupElement(fraction(p, "phase") % 1 for p in phases)

    @property
    def theta(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.d) for x in self.k)

    def __repr__(self) -> str:
        return f"GroupElement(theta={self.theta!r})"

    @property
    def n_vars(self) -> int:
        return len(self.k)

    @property
    def is_identity(self) -> bool:
        return self.d == 1

    @property
    def order(self) -> int:
        return self.d

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        if len(self.k) != len(other.k):
            raise ValueError("group elements live on different variable sets")
        d = math.lcm(self.d, other.d)
        a, b = d // self.d, d // other.d
        return _element([(x * a + y * b) % d for x, y in zip(self.k, other.k)], d)

    def inverse(self) -> "GroupElement":
        return _element([-x % self.d for x in self.k], self.d)

    def __pow__(self, n: int) -> "GroupElement":
        return _element([n * x % self.d for x in self.k], self.d)


def _element(k, d: int) -> GroupElement:
    """The element with phases k_i / d, each k_i in [0, d), over its order."""
    g = math.gcd(d, *k)
    e = object.__new__(GroupElement)
    object.__setattr__(e, "k", tuple(x // g for x in k))
    object.__setattr__(e, "d", d // g)
    return e


@dataclass(frozen=True)
class Sector:
    """Per-element sector data: fixed locus, degree shift, type."""

    gamma: GroupElement
    fixed_indices: tuple[int, ...]
    n_gamma: int
    iota: Fraction
    w_gamma_monomials: tuple[int, ...]
    is_ramond: bool


def is_member(W: QHPoly, gamma: GroupElement) -> bool:
    """True iff every monomial phase sum B.Theta is an integer."""
    if gamma.n_vars != W.n_vars:
        return False
    k, d = gamma.k, gamma.d
    return all(sum(b * x for b, x in zip(row, k)) % d == 0 for row in W.exponents)


def enumerate_group(W: QHPoly) -> tuple[GroupElement, ...]:
    """The full diagonal symmetry group of W, canonically sorted.

    Any n independent exponent rows B_n, picked greedily, confine the
    solutions of B.Theta = 0 mod 1 to B_n^-1 Z^n mod 1, a group of order
    D = |det B_n| generated by the columns of B_n^-1.  The candidates
    that also satisfy the remaining rows form the group.  Finiteness
    requires rank N.
    """
    n = W.n_vars
    B_n: list[tuple[int, ...]] = []
    for row in W.exponents:
        if len(B_n) < n and rank(B_n + [row]) > len(B_n):
            B_n.append(row)
    if len(B_n) < n:
        raise WeightError("exponent matrix is rank-deficient; symmetry group is infinite")
    D = abs(int(det(B_n)))
    # D * B_n^-1 is an integer matrix, so phases are held as integers mod D.
    gens = [tuple(int(D * t) % D for t in col) for col in zip(*inverse(B_n))]
    lattice, frontier = set(), [(0,) * n]
    while frontier:
        v = frontier.pop()
        if v not in lattice:
            lattice.add(v)
            frontier += [tuple((a + b) % D for a, b in zip(v, g)) for g in gens]
    if len(lattice) != D:
        raise RuntimeError(f"lattice closure holds {len(lattice)} phase vectors, not |det| = {D}")
    # Sorting the numerators v sorts the phases v / D.
    return tuple(g for g in (_element(v, D) for v in sorted(lattice)) if is_member(W, g))


def exponential_grading(W: QHPoly) -> GroupElement:
    """The grading element J with phases equal to the weights."""
    J = GroupElement.from_phases(W.weights)
    if not is_member(W, J):
        raise RuntimeError("grading element is not a symmetry; invalid polynomial")
    return J


def central_charge(W: QHPoly) -> Fraction:
    """Exact sum of (1 - 2 q_i)."""
    n, w = W.weights_over_lcm
    return Fraction(len(n) * w - 2 * sum(n), w)


def sector_data(W: QHPoly, gamma: GroupElement) -> Sector:
    """Fixed locus, degree shift and Ramond/NS type for one element."""
    if not is_member(W, gamma):
        raise ValueError(f"{gamma} is not a symmetry of the polynomial")
    k, d = gamma.k, gamma.d
    n, w = W.weights_over_lcm
    fixed = tuple(i for i, x in enumerate(k) if x == 0)
    iota = Fraction(sum(k) * w - sum(n) * d, d * w)
    w_gamma = tuple(j for j, row in enumerate(W.exponents)
                    if sum(b * x for b, x in zip(row, k)) == 0)
    return Sector(gamma=gamma, fixed_indices=fixed, n_gamma=len(fixed), iota=iota,
                  w_gamma_monomials=w_gamma, is_ramond=len(fixed) > 0)


def restricted_polynomial(W: QHPoly, gamma: GroupElement) -> QHPoly | None:
    """W_gamma as a polynomial on the fixed variables of gamma.

    Returns None for the empty restriction (no invariant monomials).
    The restricted polynomial keeps the ambient weights on the fixed
    variables, so it is again quasi-homogeneous.
    """
    sec = sector_data(W, gamma)
    if not sec.w_gamma_monomials:
        return None
    # An invariant monomial has B.k = 0 with every k_i >= 0, so it uses
    # only fixed variables.
    return QHPoly.from_monomials(len(sec.fixed_indices), [
        ([W.exponents[j][i] for i in sec.fixed_indices], W.coeffs[j])
        for j in sec.w_gamma_monomials])


@dataclass(frozen=True)
class Involution:
    """Diagonal map I with W(I u) = -W(u), as phase turns k_i/(2d)."""

    turns: tuple[Fraction, ...]

    def apply(self, u) -> np.ndarray:
        scale = np.array([cmath.exp(2j * cmath.pi * float(t)) for t in self.turns])
        return scale * np.asarray(u, dtype=complex)

    def square(self) -> GroupElement:
        return GroupElement.from_phases([2 * t for t in self.turns])


def gluing_involution(W: QHPoly, choice: int = 0) -> Involution:
    """Anti-symmetry I scaling coordinate i by xi^{n_i}, xi = exp(i pi/d).

    d is the common denominator of the weights and q_i = n_i/d.  The
    principal choice uses xi = exp(i pi/d); alternative choices differ
    by a symmetry group element and are selected by the `choice` index
    (xi -> xi * exp(2 pi i choice / d)).
    """
    n, d = W.weights_over_lcm
    inv = Involution(tuple(Fraction(ni * (1 + 2 * choice) % (2 * d), 2 * d) for ni in n))
    # W(I u) = -W(u) holds exactly when I multiplies every monomial by -1.
    for row in W.exponents:
        if sum(b * t for b, t in zip(row, inv.turns)) % 1 != Fraction(1, 2):
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
