"""Independent oracles for the benchmark's job checks.

Nothing here imports qhsing.  Every expected answer is derived from a
closed form, a brute-force enumeration, a companion-matrix root finder
(numpy.roots) or a product formula for direct sums, so a wrong answer
from the program cannot also hide in its own check.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np


class Mismatch(AssertionError):
    """The program's answer differs from the oracle."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise Mismatch(message)


# -- Exact algebra ---------------------------------------------------------

def _det(rows) -> Fraction:
    """Determinant by cofactor expansion (the matrices here are at most 3x3)."""
    n = len(rows)
    if n == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    for c in range(n):
        minor = [r[:c] + r[c + 1:] for r in rows[1:]]
        total += (-1) ** c * rows[0][c] * _det(minor)
    return total


def weights(rows) -> tuple[Fraction, ...]:
    """Solve B q = 1 for a square exponent matrix by Cramer's rule."""
    d = _det(rows)
    n = len(rows)
    q = []
    for i in range(n):
        swapped = [list(r[:i]) + [1] + list(r[i + 1:]) for r in rows]
        q.append(_det(swapped) / d)
    return tuple(q)


def central_charge(q) -> Fraction:
    return sum((1 - 2 * qi for qi in q), Fraction(0))


def milnor(q) -> int:
    prod = Fraction(1)
    for qi in q:
        prod *= 1 / qi - 1
    return int(prod)


def brute_group(rows) -> set[tuple[Fraction, ...]]:
    """All phase vectors theta with B.theta in Z, by enumeration.

    Phases lie in (1/|det B|) Z; variables are assigned one at a time and
    a monomial is tested as soon as all its variables are assigned.
    """
    n = len(rows[0])
    D = abs(int(_det(rows)))
    ready = [[r for r in rows if all(e == 0 for e in r[k + 1:])] for k in range(n)]
    out = set()

    def extend(prefix):
        k = len(prefix)
        if k == n:
            out.add(tuple(Fraction(v, D) for v in prefix))
            return
        for v in range(D):
            cand = prefix + [v]
            if all(sum(e * c for e, c in zip(r, cand)) % D == 0
                   for r in ready[k] if r[k]):
                extend(cand)

    extend([])
    return out


def element_order(theta) -> int:
    return math.lcm(*(t.denominator for t in theta))


def inverse(theta) -> tuple[Fraction, ...]:
    return tuple((-t) % 1 for t in theta)


def iota(theta, q) -> Fraction:
    return sum((t - qi for t, qi in zip(theta, q)), Fraction(0))


def line_degrees(q, genus: int, tails) -> tuple[Fraction, ...]:
    k = len(tails)
    return tuple(qi * (2 * genus - 2 + k) - sum((t[i] for t in tails), Fraction(0))
                 for i, qi in enumerate(q))


def int_matmul(A, B):
    return [[sum(A[i][k] * B[k][j] for k in range(len(B))) for j in range(len(B[0]))]
            for i in range(len(A))]


def transpose(A):
    return [list(r) for r in zip(*A)]


def congruence(M, R):
    """M R M^T in exact arithmetic."""
    return int_matmul(int_matmul(M, R), transpose(M))


# -- Numerics --------------------------------------------------------------

def fermat_roots(a: int, b: complex) -> np.ndarray:
    """Critical points of x^a + b x: roots of a x^(a-1) + b."""
    return np.roots([a] + [0] * (a - 2) + [b])


def fermat_sum_critical(exps, b):
    """Thom-Sebastiani: critical points and values of sum x_i^a_i + b_i x_i."""
    per_var = []
    for a, bi in zip(exps, b):
        xs = fermat_roots(a, bi)
        per_var.append([(x, x ** a + bi * x) for x in xs])
    pts, vals = [], []
    for combo in itertools.product(*per_var):
        pts.append(np.array([c[0] for c in combo]))
        vals.append(sum(c[1] for c in combo))
    return pts, vals


def chain_critical(a: int, b):
    """Critical points of x^a + x y^2 + b1 x + b2 y (b2 != 0).

    From 2xy + b2 = 0, y = -b2/(2x); substituting into the x-equation
    gives 4a x^(a+1) + 4 b1 x^2 + b2^2 = 0.
    """
    b1, b2 = b
    coeffs = [4 * a] + [0] * (a - 2) + [4 * b1, 0, b2 * b2]
    pts, vals = [], []
    for x in np.roots(coeffs):
        y = -b2 / (2 * x)
        pts.append(np.array([x, y]))
        vals.append(x ** a + x * y * y + b1 * x + b2 * y)
    return pts, vals


def match_points(want, got, tol: float, subset: bool = False) -> list[int]:
    """Injection want[k] -> got[perm[k]] with every distance below tol.

    Unless `subset`, it must be a bijection.
    """
    got = [np.asarray(g, dtype=complex) for g in got]
    expect(len(want) <= len(got) if subset else len(want) == len(got),
           f"{len(got)} points, oracle has {len(want)}")
    perm, used = [], set()
    for w in want:
        dists = [np.linalg.norm(w - g) if k not in used else np.inf
                 for k, g in enumerate(got)]
        k = int(np.argmin(dists))
        expect(dists[k] < tol, f"no point within {tol:g} of oracle point {w}")
        used.add(k)
        perm.append(k)
    return perm


# Walls of x^3 + b x lie where arg b = pi/3 mod 2pi/3, and walls of
# x^4 + b x where arg b = pi/8 mod pi/4.  On the paths
# b = r exp(+-i pi (lam + delta)) and b = r exp(+-i pi (lam + delta) / 2)
# they sit where lam + delta takes these values, for either sign and any r.
CUBIC_WALLS = (1.0 / 3.0, 1.0)
QUARTIC_WALLS = (0.25, 0.75)


def wall_lams(n: int, delta: float) -> list[float]:
    base = CUBIC_WALLS if n == 3 else QUARTIC_WALLS
    return [w - delta for w in base if 0.0 < w - delta < 1.0]


def growth_supremum(exps, radius: float, n_samples: int, seed: int) -> float:
    """Replays the sampled growth-bound supremum with closed-form gradients."""
    rng = np.random.default_rng(seed)
    n = len(exps)
    q = [1.0 / a for a in exps]
    m = min(1 - qi for qi in q)
    deltas = [qi / m for qi in q]
    sup = 0.0
    for _ in range(n_samples):
        u = rng.normal(size=n) + 1j * rng.normal(size=n)
        u *= radius * rng.random() ** (1.0 / (2 * n)) / max(np.linalg.norm(u), 1e-30)
        denom = sum(abs(a * x ** (a - 1)) for a, x in zip(exps, u)) + 1.0
        sup = max([sup] + [abs(u[i]) / denom ** deltas[i] for i in range(n)])
    return sup
