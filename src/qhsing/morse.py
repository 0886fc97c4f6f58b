"""Linear Morse perturbations of a sector polynomial.

Adds W0 = sum b_i x_i to a quasi-homogeneous polynomial, finds all of
its critical points (in closed form on each one-variable summand c x^n,
by multistart Newton on the others), classifies regular / strongly
regular perturbations, and locates wall crossings (coincidences of
imaginary critical values) along parameter paths by continuation with
an extrapolation predictor and Illinois refinement of each crossing.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from operator import add, mul, sub
from typing import Callable, Sequence

import numpy as np

from .wpoly import QHPoly, _norm, _solve, gradient, milnor_number, value

__all__ = [
    "MorseError",
    "MorseData",
    "find_critical_points",
    "is_strongly_regular",
    "detect_wall_crossings",
    "WallCrossing",
]

GRAD_TOL = 1e-10          # Newton residual bound certifying a critical point
HESS_MIN_SV = 1e-8        # nondegeneracy floor for the Hessian
SEPARATION = 1e-6         # minimal distance between distinct roots
NEWTON_STARTS = 200       # default Newton start budget of each multistart
NEWTON_MAX_ITER = 80      # Newton iterations from one start before it is given up
WALL_STEPS = 200          # continuation grid on the path parameter [0, 1]
WALL_REFINE_TOL = 1e-14   # bracket width at which a crossing is reported
CONTINUATION_DEPTH = 40   # halvings of a refused continuation step before it is given up


class MorseError(RuntimeError):
    """Raised when a perturbation is not regular or roots are lost."""


@dataclass(frozen=True)
class MorseData:
    """Critical data of W + sum b_i x_i."""

    W: QHPoly
    b: tuple[complex, ...]
    critical_points: tuple[tuple[complex, ...], ...]
    critical_values: tuple[complex, ...]
    hessian_min_singular_value: tuple[float, ...]
    ordering: tuple[int, ...]       # by increasing Im(value); tied Im by Re
    im_ties: tuple[tuple[int, int], ...]
    n_newton: int                   # Newton iterations (Hessian solves) made

    @property
    def mu(self) -> int:
        return len(self.critical_points)


def perturbed_value(W: QHPoly, b, u) -> complex:
    return value(W, u) + complex(sum(map(mul, b, u)))


def perturbed_gradient(W: QHPoly, b, u) -> np.ndarray:
    return gradient(W, u) + np.asarray(b, dtype=complex)


def _newton(W: QHPoly, b, u0) -> tuple[list[complex] | None, int]:
    """Damped Newton for grad W + b = 0 from u0: (the root or None, iterations).

    Runs on lists of Python complex; b is a sequence of N complex.
    """
    u = [complex(c) for c in u0]
    for k in range(NEWTON_MAX_ITER):
        g = list(map(add, W.gradient_values(u), b))
        if _norm(g) < GRAD_TOL:
            return u, k
        step = _solve(W.hessian_values(u), g)
        norm = math.inf if step is None else _norm(step)
        if not math.isfinite(norm):
            return None, k + 1
        # Damping keeps wild starts from exploding.
        if norm > 10.0:
            step = [c * (10.0 / norm) for c in step]
        u = list(map(sub, u, step))
    g = map(add, W.gradient_values(u), b)
    return (u if _norm(g) < GRAD_TOL else None), NEWTON_MAX_ITER


def _add_root(roots: list[list[complex]], u: list[complex] | None) -> None:
    """Append u to roots unless it is None or within SEPARATION of one of them."""
    if u is not None and all(_norm(map(sub, u, r)) >= SEPARATION for r in roots):
        roots.append(u)


def _canonical_sort(points: list[list[complex]]) -> list[list[complex]]:
    return sorted(points,
                  key=lambda p: tuple(x for c in p for x in (round(c.real, 9), round(c.imag, 9))))


def _multistart(W: QHPoly, b: tuple[complex, ...], seed: int,
                n_starts: int = NEWTON_STARTS) -> tuple[list[list[complex]], int]:
    """Distinct critical points of W + sum b_i x_i from seeded Newton starts.

    Starts lie on concentric spheres scaled by the perturbation size; the
    search stops at the Milnor number of W or after n_starts starts.
    Returns the roots and the Newton iterations made.
    """
    mu = milnor_number(W)
    n = W.n_vars
    rng = np.random.default_rng(seed)
    scale = max(np.linalg.norm(b), 1e-12)
    # Weighted scaling ||b||^q keeps starts near the root cluster.
    radii = [0.5, 1.0, 2.0, 4.0]   # 16 starts on each, in turn
    q_scales = np.array([scale ** float(q) for q in W.weights])
    roots: list[list[complex]] = []
    iterations = 0
    for k in range(n_starts):
        if len(roots) >= mu:
            break
        d = rng.normal(size=n) + 1j * rng.normal(size=n)
        d /= np.linalg.norm(d)
        u, its = _newton(W, b, (radii[k // 16 % len(radii)] * q_scales * d).tolist())
        _add_root(roots, u)
        iterations += its
    return roots, iterations


def _summand_roots(W: QHPoly, b: tuple[complex, ...], seed: int,
                   n_starts: int) -> tuple[list[list[complex]], int]:
    """The distinct critical points of the summand W + sum b_i x_i, and the Newton iterations.

    A one-variable summand c x^n has the n - 1 roots of n c x^(n-1) = -b,
    each polished by Newton; any other summand takes the multistart.
    """
    if W.n_vars > 1:
        return _multistart(W, b, seed, n_starts)
    (n,), c = W.exponents[0], W.coeffs[0]
    w = -b[0] / (n * c)
    rho, theta = abs(w) ** (1.0 / (n - 1)), cmath.phase(w)
    roots, iterations = [], 0
    for k in range(n - 1):
        u, its = _newton(W, b, [cmath.rect(rho, (theta + 2 * math.pi * k) / (n - 1))])
        _add_root(roots, u)
        iterations += its
    return roots, iterations


def find_critical_points(W: QHPoly, b: Sequence[complex], seed: int = 0,
                         n_starts: int = NEWTON_STARTS) -> MorseData:
    """All critical points of W + sum b_i x_i, certified by count.

    The critical points of each summand of W (a block of variables that no
    monomial mixes) are found on their own: in closed form on a summand in
    one variable, by multistart Newton (n_starts starts) on any other.
    Their products, one per root when W is irreducible, are polished by
    Newton on the whole of W (Thom-Sebastiani).  Completeness is certified
    by comparing the count of distinct roots with the Milnor number.
    """
    b = tuple(complex(v) for v in b)
    n = W.n_vars
    if len(b) != n:
        raise ValueError(f"len(b) = {len(b)} does not match n_vars = {n}")
    mu = milnor_number(W)
    blocks = W.summands
    for block in blocks:
        if not any(b[v] for v in block):
            names = ", ".join(f"x{v + 1}" for v in block)
            raise MorseError(f"not W-regular: b = 0 on the summand of W in {names}, "
                             "which has a degenerate critical point at 0")

    parts, iterations = [], 0
    for block in blocks:
        pts, k = _summand_roots(W.restrict(block), tuple(b[v] for v in block), seed, n_starts)
        parts.append(pts)
        iterations += k
    # Thom-Sebastiani: the critical points of W are the products of its
    # summands' critical points; Newton on all of W polishes each product.
    roots = []
    for combo in itertools.product(*parts):
        u = [0j] * n
        for block, pt in zip(blocks, combo):
            for v, c in zip(block, pt):
                u[v] = c
        u, k = _newton(W, b, u)
        _add_root(roots, u)
        iterations += k

    if len(roots) != mu:
        raise MorseError(
            f"degenerate or unresolved: found {len(roots)} of {mu} critical points")

    roots = _canonical_sort(roots)
    values = [perturbed_value(W, b, u) for u in roots]
    min_svs = [float(np.linalg.svd(W.hessian_values(u), compute_uv=False)[-1]) for u in roots]
    if min(min_svs) <= HESS_MIN_SV:
        raise MorseError("not W-regular: degenerate Hessian at a critical point")

    tie_tol = 1e-9 * max((abs(v) for v in values), default=1.0)
    ties = tuple((i, j) for i in range(mu) for j in range(i + 1, mu)
                 if abs(values[i].imag - values[j].imag) <= tie_tol)
    # Runs of tied Im values are ordered by Re, not by float noise in Im.
    by_im = sorted(range(mu), key=lambda i: values[i].imag)
    gaps = [values[q].imag - values[p].imag > tie_tol for p, q in zip(by_im, by_im[1:])]
    run = dict(zip(by_im, itertools.accumulate(gaps, initial=0)))
    order = sorted(range(mu), key=lambda i: (run[i], values[i].real))
    return MorseData(W=W, b=b,
                     critical_points=tuple(tuple(u) for u in roots),
                     critical_values=tuple(values),
                     hessian_min_singular_value=tuple(min_svs),
                     ordering=tuple(order),
                     im_ties=ties,
                     n_newton=iterations)


def is_strongly_regular(m: MorseData) -> tuple[bool, tuple[int, int] | None]:
    """True iff all imaginary critical values are pairwise distinct.

    On failure the witness pair of critical-point indices is returned.
    """
    if m.im_ties:
        return False, m.im_ties[0]
    return True, None


def _track_roots(W: QHPoly, points: list[list[complex]], b_new: list[complex],
                 starts: list[list[complex]] | None = None) -> list[list[complex]] | None:
    """One continuation step: polish the roots at the new parameter.

    Newton starts from starts (predicted roots) or else from points;
    motion is measured from points.  Returns None when a root is lost or
    two tracked roots collide, signalling that the step must be halved.
    """
    new_points = []
    for u in starts or points:
        v, _ = _newton(W, b_new, u)
        if v is None:
            return None
        new_points.append(v)
    if len(new_points) > 1:
        # Nearest-neighbor integrity: motion must stay well below the gap.
        min_gap = min(_norm(map(sub, p, q))
                      for p, q in itertools.combinations(new_points, 2))
        if min_gap < SEPARATION:
            return None
        max_motion = max(_norm(map(sub, u, v)) for u, v in zip(points, new_points))
        if max_motion * 4.0 > min_gap:
            return None
    return new_points


def _extrapolate(history: list[list[list[complex]]]) -> list[list[complex]]:
    """Roots at the next point of a uniform grid, by the polynomial through
    history, the root lists at its last one, two or three points (oldest first)."""
    coeffs = ((1,), (-1, 2), (1, -3, 3))[len(history) - 1]
    return [[sum(c * x for c, x in zip(coeffs, xs)) for xs in zip(*past)]
            for past in zip(*history)]


def _continue(step, x, s: float, s_to: float, depth: int = 0):
    """x carried from s to s_to by step(x, s, s_new): x at s_new, or None to refuse.
    A refused step is split in halves, at most CONTINUATION_DEPTH deep; then MorseError."""
    x_to = step(x, s, s_to)
    if x_to is not None:
        return x_to
    if depth >= CONTINUATION_DEPTH:
        raise MorseError(f"loss of tracked root near s={s:.6g}")
    mid = 0.5 * (s + s_to)
    return _continue(step, _continue(step, x, s, mid, depth + 1), mid, s_to, depth + 1)


@dataclass(frozen=True)
class WallCrossing:
    lam: float
    pair: tuple[int, int]   # indices into the tracked root list


def detect_wall_crossings(W: QHPoly, path: Callable[[float], Sequence[complex]],
                          seed: int = 0) -> list[WallCrossing]:
    """Imaginary-value coincidences along a perturbation path on [0, 1].

    Tracks every critical point over the grid lam = k / WALL_STEPS, each
    step starting Newton from the quadratic extrapolation of the tracked
    roots; a refused step is carried from the previous roots by _continue,
    which halves it up to CONTINUATION_DEPTH times.  Watches the
    signs of Im(alpha_i - alpha_j) for every pair and refines each sign
    change by Illinois regula falsi to a WALL_REFINE_TOL-wide bracket.
    Pairs that flip in the same step are refined one by one when they
    share no critical point (on a direct sum a wall of one summand aligns
    several pairs at once); pairs that share one are refused as non-generic.
    """
    def b_at(lam):
        return [complex(c) for c in path(lam)]

    m0 = find_critical_points(W, b_at(0.0), seed=seed)
    points = [list(p) for p in m0.critical_points]

    def im_gaps(pts, lam):
        b = b_at(lam)
        ims = [(W.value_at(u) + sum(map(mul, b, u))).imag for u in pts]
        return {(i, j): ims[i] - ims[j] for i, j in itertools.combinations(range(len(pts)), 2)}

    def track(pts, lam_from, lam_to):
        return _track_roots(W, pts, b_at(lam_to))

    crossings: list[WallCrossing] = []
    lam_prev = 0.0
    gaps_prev = im_gaps(points, 0.0)
    history = [points]
    for k in range(1, WALL_STEPS + 1):
        lam = k / WALL_STEPS
        points_new = (_track_roots(W, points, b_at(lam), _extrapolate(history))
                      or _continue(track, points, lam_prev, lam))
        gaps = im_gaps(points_new, lam)
        # A gap that lands exactly on 0 at a grid point counts here, once;
        # the sign test alone misses it on both sides.
        flipped = [pair for pair in gaps
                   if gaps_prev[pair] * gaps[pair] < 0
                   or (gaps[pair] == 0 and gaps_prev[pair] != 0)]
        touched = [k for pair in flipped for k in pair]
        if len(touched) > len(set(touched)):
            raise MorseError(f"non-generic crossing near lambda={lam:.6g}: pairs {flipped}")
        for pair in flipped:
            lo, hi, g_lo, g_hi = lam_prev, lam, gaps_prev[pair], gaps[pair]
            pts_lo, kept = points, None
            # Refine essentially to machine precision: `walls` prints
            # lambda to 12 significant digits.  The secant point stays
            # WALL_REFINE_TOL / 2 inside the bracket, so a root within
            # rounding of one end closes the bracket in one step.
            while hi - lo > WALL_REFINE_TOL and g_hi != 0:
                mid = hi - g_hi * (hi - lo) / (g_hi - g_lo)
                mid = (min(max(mid, lo + WALL_REFINE_TOL / 2), hi - WALL_REFINE_TOL / 2)
                       if lo <= mid <= hi else 0.5 * (lo + hi))
                pts_mid = _continue(track, pts_lo, lo, mid)
                g_mid = im_gaps(pts_mid, mid)[pair]
                # Illinois: an end kept twice in a row has its gap halved.
                if g_lo * g_mid <= 0:
                    g_lo *= 0.5 if kept == "lo" else 1.0
                    hi, g_hi, kept = mid, g_mid, "lo"
                else:
                    g_hi *= 0.5 if kept == "hi" else 1.0
                    lo, pts_lo, g_lo, kept = mid, pts_mid, g_mid, "hi"
            lam_star = hi if g_hi == 0 else 0.5 * (lo + hi)
            if WALL_REFINE_TOL < lam_star < 1.0 - WALL_REFINE_TOL:
                crossings.append(WallCrossing(lam=lam_star, pair=pair))
        points, gaps_prev, lam_prev = points_new, gaps, lam
        history = [*history[-2:], points]
    return sorted(crossings, key=lambda c: c.lam)


def morse_report(m: MorseData) -> str:
    """Structured-text export of MorseData."""
    strong, witness = is_strongly_regular(m)
    lines = [
        "b " + ",".join(f"{v.real:.12g}{v.imag:+.12g}i" for v in m.b),
        f"mu {m.mu}",
    ]
    for k, (u, a, sv) in enumerate(zip(m.critical_points, m.critical_values,
                                       m.hessian_min_singular_value)):
        pt = ",".join(f"{c.real:.12g}{c.imag:+.12g}i" for c in u)
        lines.append(f"critical {k} point {pt} value "
                     f"{a.real:.12g}{a.imag:+.12g}i hess_min_sv {sv:.12g}")
    lines.append("ordering " + ",".join(str(i) for i in m.ordering))
    lines.append(f"strongly_regular {str(strong).lower()}")
    if witness is not None:
        lines.append(f"witness_pair {witness[0]} {witness[1]}")
    return "\n".join(lines) + "\n"
