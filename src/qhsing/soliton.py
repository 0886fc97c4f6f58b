"""BPS gradient-flow dynamics and the cylinder Fourier layer.

The flow is du/ds = 2 * conj(grad(W + W0)(u)), integrated by the
adaptive Dormand-Prince 8(5,3) method of the DOP853 code.  Along any
solution the imaginary part of (W + W0)(u) is conserved and the real
part is nondecreasing; both invariants are monitored on every
integrated trajectory.  Connecting orbits between critical points on a
wall are counted as path lifts of [alpha_i, alpha_j] through W + W0 in
one variable; on a direct sum a pair that moves in one one-variable summand
is counted by that summand's lifts (Thom-Sebastiani), and every other
pair is refused rather than counted.  No count integrates the flow.

The linear asymptotic analysis lives on a half-cylinder: bounded
solutions of (d_s + i d_theta + Theta) v = f are built mode by mode
from the explicit integral formulas, and the homogeneous decay rate is
checked against Theta.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from operator import add, mul, sub
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

from .wpoly import QHPoly, _norm, _solve
from .morse import SEPARATION, MorseData, MorseError, _continue, perturbed_value

__all__ = [
    "FlowTrajectory",
    "CylinderField",
    "integrate_flow",
    "count_bps_solitons",
    "energy_identity_check",
    "fourier_bounded_solution",
    "homogeneous_decay_check",
    "witten_vanishing_check",
    "a1_bounded_spectrum_empty",
]

CAPTURE_RADIUS = 1e-6
FLOW_RTOL = 1e-10       # relative local-error tolerance of integrate_flow
FLOW_ATOL = 1e-10       # absolute local-error tolerance of integrate_flow
WALL_TOL = 1e-6         # |Im alpha_i - Im alpha_j| bound of a wall, relative to max |alpha|
IM_DRIFT_TOL = 1e-8
RE_MONOTONE_TOL = 1e-10
LIFT_END = 1e-6         # lift ends' offset from alpha_i, alpha_j, in segment lengths
LIFT_XTOL = 1e-6        # Newton step bound, relative to the start offset
LIFT_MATCH = 0.25       # end match radius, relative to the model offset
WITTEN_MAX_ITER = 50    # Newton steps per start of witten_vanishing_check
WITTEN_ZERO = 1e-6      # max |v| of a field that counts as the zero field
WITTEN_GRID = 32        # grid points of witten_vanishing_check
WITTEN_S_MAX = 8.0      # the grid spans [-WITTEN_S_MAX, WITTEN_S_MAX]
WITTEN_TOL = 1e-8       # Newton step bound of a converged start, relative to max(1, max |v|)
WITTEN_START_SCALE = 0.02  # scale of the seeded complex normal Newton starts
DECAY_S_SAMPLES = 64    # s samples of homogeneous_decay_check on [T, 2T]
DECAY_ANG_SAMPLES = 64  # angle samples of homogeneous_decay_check on the circle
SUPPORT = 50.0          # fourier_bounded_solution integrates the forcing over [-SUPPORT, SUPPORT]
QUAD_RTOL = 1e-10       # summed |20-point - 10-point| bound, relative to the integral of |f|
QUAD_PANELS = 400       # panel budget of one integral; past it, ValueError
_GAUSS = tuple(tuple(a.tolist() for a in leggauss(k)) for k in (20, 10))  # (nodes, weights) each


@dataclass(frozen=True)
class FlowTrajectory:
    """A sampled flow line with its conservation diagnostics."""

    s: np.ndarray                   # sample parameters
    u: np.ndarray                   # samples, shape (len(s), N)
    im_value: float                 # conserved Im(W + W0)
    im_drift: float                 # max |Im - im_value| over samples
    re_monotone: bool
    endpoints: tuple[int | None, int | None]  # (backward, forward) critical indices
    escaped: bool
    n_steps: int
    energy_integral: float          # integral of sum |grad(W+W0)|^2 ds
    n_rhs: int                      # right-hand side evaluations made
    n_rejected: int                 # step attempts rejected by the error control


# Dormand-Prince 8(5,3): the stages, the 8th-order solution weights and
# the 5th- and 3rd-order error weights of the DOP853 code (Hairer-Norsett-
# Wanner, Solving ODEs I, 2nd ed., 1993, II.10), as in scipy's DOP853, and
# the step-size factors of its controller.  The error weights give the
# final evaluation f(y_new) weight 0, so they have one entry per stage.
_DOP_A = (
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.0, 0.08876275643042054),
    (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125),
    (0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023),
    (0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996),
    (0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486, -0.020331201708508627),
    (-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505, 2.4936055526796523,
     -3.0467644718982196),
    (2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235, -8.87285693353063,
     12.360567175794303, 0.6433927460157636))
_DOP_B = (0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
          -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
          0.04471061572777259)
_DOP_E3 = (-0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
           -5.801203960010585, -0.4226823213237919, -0.1521609496625161,
           0.20136540080403034, 0.02265179219836082)
_DOP_E5 = (0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044, -0.4957589496572502,
           1.6643771824549864, -0.35032884874997366, 0.3341791187130175,
           0.08192320648511571, -0.022355307863886294)
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10


def _classify_endpoint(u, critical_points, radius=CAPTURE_RADIUS * 10) -> int | None:
    for k, kappa in enumerate(critical_points):
        if np.linalg.norm(u - kappa) < radius:
            return k
    return None


def _rms(v) -> float:
    return math.sqrt(sum(abs(x) ** 2 for x in v)) / len(v) ** 0.5


def _initial_step(rhs, y, f, span: float) -> float:
    """Hairer-Norsett-Wanner II.4 starting step for an order-7 error estimate."""
    scale = [FLOW_ATOL + abs(a) * FLOW_RTOL for a in y]
    d0 = _rms([a / sc for a, sc in zip(y, scale)])
    d1 = _rms([a / sc for a, sc in zip(f, scale)])
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, span)
    f1 = rhs([a + h0 * c for a, c in zip(y, f)])
    d2 = _rms([(a - c) / sc for a, c, sc in zip(f1, f, scale)]) / h0
    h1 = (max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15
          else (0.01 / max(d1, d2)) ** (1 / 8))
    return min(100 * h0, h1, span)


def _dop853_step(rhs, s: float, y, f, h_abs: float, s_end: float):
    """One accepted Dormand-Prince 8(5,3) step: (s, y, f, next |h|, rejected attempts).

    The error norm blends the 5th- and 3rd-order estimates e5, e3 (each
    scaled by FLOW_ATOL + FLOW_RTOL * |y|) as h |e5|^2 / sqrt((|e5|^2 +
    0.01 |e3|^2) n); every attempt evaluates f(y_new), as scipy's DOP853 does.
    """
    min_step = 10 * (math.nextafter(s, math.inf) - s)
    h_abs = max(h_abs, min_step)
    u, rejected = y[:-1], 0  # stage points omit the energy slot: rhs never reads it
    while True:
        if not min_step <= h_abs < math.inf:  # too small, or not finite
            raise RuntimeError(f"integration failed: step size {h_abs:.3g} at s={s:.6g}")
        s_new = min(s + h_abs, s_end)
        h = h_abs = s_new - s
        K = [[k] for k in f]  # per component, its stage values so far
        for a in _DOP_A:
            for ks, k in zip(K, rhs([c + sum(map(mul, ks, a)) * h for c, ks in zip(u, K)])):
                ks.append(k)
        y_new = [c + sum(map(mul, ks, _DOP_B)) * h for c, ks in zip(y, K)]
        f_new, e5, e3 = rhs(y_new), 0.0, 0.0
        for ks, c, c_new in zip(K, y, y_new):
            sc = FLOW_ATOL + max(abs(c), abs(c_new)) * FLOW_RTOL
            e5 += abs(sum(map(mul, ks, _DOP_E5)) / sc) ** 2
            e3 += abs(sum(map(mul, ks, _DOP_E3)) / sc) ** 2
        error_norm = h * e5 / math.sqrt((e5 + 0.01 * e3) * len(y)) if e5 else 0.0
        if error_norm < 1:
            factor = _MAX_FACTOR if error_norm == 0 else min(
                _MAX_FACTOR, _SAFETY * error_norm ** -0.125)
            return (s_new, y_new, f_new, h_abs * (min(1, factor) if rejected else factor),
                    rejected)
        h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** -0.125)
        rejected += 1


def integrate_flow(W: QHPoly, b, u0, s_span: tuple[float, float],
                   critical_points: Sequence[np.ndarray] = ()) -> FlowTrajectory:
    """Adaptive Dormand-Prince 8(5,3) integration of the BPS flow on s_span.

    b and u0 hold N finite complex numbers.  Each step advances the
    8th-order solution; the step sizes come from an error estimate of
    order 7 under the controller of scipy's DOP853 at FLOW_RTOL and
    FLOW_ATOL, so the steps are DOP853's.  After each accepted
    step the flow stops if the step entered the capture sphere of a
    supplied critical point (one that does not hold u0) or left the escape
    sphere far beyond the critical cluster; that step's end is the last
    sample.  The Im conservation and Re monotonicity invariants are
    verified on the samples.  An overflow raises RuntimeError.
    """
    s0, s1 = (float(t) for t in s_span)
    u0, b = np.asarray(u0, dtype=complex), np.asarray(b, dtype=complex)
    if u0.shape != (W.n_vars,):
        raise ValueError(f"expected vector of length {W.n_vars}, got shape {u0.shape}")
    if b.shape != u0.shape:
        raise ValueError(f"expected b of length {W.n_vars}, got shape {b.shape}")
    if not (np.isfinite(np.concatenate([u0, b, [s0, s1]])).all() and s1 > s0):
        raise ValueError(f"need finite u0, b and s_span with s1 > s0, got {u0}, {b}, {s_span}")
    bl = b.tolist()
    pts = [np.asarray(p, dtype=complex) for p in critical_points]
    escape_radius = 10.0 * max(max((np.linalg.norm(p) for p in pts), default=1.0), 1.0)
    # Do not stop on departure from the start point's own sphere.
    targets = [p.tolist() for p in pts if np.linalg.norm(u0 - p) > CAPTURE_RADIUS]
    n_rhs = n_rejected = 0

    def rhs(y):
        # Last slot accumulates the energy integrand sum |grad|^2.
        nonlocal n_rhs
        n_rhs += 1
        f, sq = [], []
        for a in map(add, W.gradient_values(y), bl):
            f.append(2.0 * a.conjugate())
            sq.append(abs(a) ** 2)
        f.append(complex(sum(sq)))
        return f

    y = u0.tolist() + [0j]
    s, svals, ys = s0, [s0], [y]
    try:
        f = rhs(y)
        h_abs = _initial_step(rhs, y, f, s1 - s0)
        inside = _norm(y[:-1]) <= escape_radius
        while s < s1:
            s, y, f, h_abs, rejected = _dop853_step(rhs, s, y, f, h_abs, s1)
            n_rejected += rejected
            svals.append(s)
            ys.append(y)
            r = _norm(y[:-1])
            if (inside and r >= escape_radius) or any(
                    _norm(map(sub, y, p)) <= CAPTURE_RADIUS for p in targets):
                break
            inside = r <= escape_radius
        wvals = np.array([W.value_at(y) + sum(map(mul, bl, y)) for y in ys])
    except OverflowError:  # complex ** raises on some overflows, nan on others
        raise RuntimeError(f"integration overflows by s={s:.6g}") from None
    samples = np.array([y[:-1] for y in ys])
    im0 = float(wvals[0].imag)
    drift = float(np.max(np.abs(wvals.imag - im0)))
    scale = max(1.0, float(np.max(np.abs(wvals))))
    re_mono = bool(np.all(np.diff(wvals.real) >= -RE_MONOTONE_TOL * scale))
    escaped = bool(np.linalg.norm(samples[-1]) >= escape_radius * 0.999)
    fwd = None if escaped else _classify_endpoint(samples[-1], pts)
    # Shooting orbits start a small offset away from their departure
    # point; classify the backward end with a matching radius.
    bwd = _classify_endpoint(samples[0], pts, radius=2e-3)
    if drift > IM_DRIFT_TOL * scale:
        raise RuntimeError(f"Im drift {drift:.3e} exceeds tolerance")
    return FlowTrajectory(s=np.array(svals), u=samples, im_value=im0, im_drift=drift,
                          re_monotone=re_mono, endpoints=(bwd, fwd),
                          escaped=escaped, n_steps=len(svals),
                          energy_integral=ys[-1][-1].real, n_rhs=n_rhs,
                          n_rejected=n_rejected)


def _lifts(W: QHPoly, b: complex, k_i: complex, k_j: complex
           ) -> list[tuple[complex, complex, bool]]:
    """(start, point at s = 1/2, arrives at k_j) for both lifts of [alpha_i, alpha_j].

    W is in one variable and alpha_i, alpha_j are the values of W + b x at
    its critical points k_i, k_j.  Each lift leaves k_i on a root of the
    quadratic model and follows the root of (W + b x)(x) = alpha_i +
    s (alpha_j - alpha_i) over the grid LIFT_END 2^k, ..., k/16, ..., 1 -
    LIFT_END 2^k (no step longer than 1/16) by an Euler predictor and a
    Newton corrector; morse._continue halves a step whose corrector moves
    more than a tenth of the step.  It arrives if it ends on a model root at
    k_j; a lift that stalls or ends near k_j off the model raises ValueError.
    """
    a_i = W.value_at([k_i]) + b * k_i
    delta = W.value_at([k_j]) + b * k_j - a_i
    d_i = cmath.sqrt(2 * LIFT_END * delta / W.hessian_values([k_i])[0][0])
    d_j = cmath.sqrt(-2 * LIFT_END * delta / W.hessian_values([k_j])[0][0])
    tol = LIFT_XTOL * abs(d_i)

    def root(x, s):
        """Newton on (W + W0)(x) = alpha_i + s delta; None if unsettled."""
        for _ in range(8):
            dx = (W.value_at([x]) + b * x - a_i - s * delta) / (W.gradient_values([x])[0] + b)
            x -= dx
            if abs(dx) <= tol:
                return x
        return None

    def step(x, s, s_new):
        pred = x + (s_new - s) * delta / (W.gradient_values([x])[0] + b)
        nxt = root(pred, s_new)
        return None if nxt is None or abs(nxt - pred) > 0.1 * abs(pred - x) else nxt

    ends = [LIFT_END * 2 ** k for k in range(math.ceil(math.log2(1 / 16 / LIFT_END)))]
    grid = ends + [k / 16 for k in range(1, 16)] + [1 - e for e in reversed(ends)]
    lifts = []
    for sign in (1, -1):
        x = start = root(k_i + sign * d_i, LIFT_END)
        if start is None:
            raise ValueError(f"path lift stalls: no root near s={LIFT_END:.6g}")
        for s, s_next in zip(grid, grid[1:]):
            try:
                x = _continue(step, x, s, s_next)
            except MorseError as exc:
                raise ValueError(f"path lift stalls: {exc}") from exc
            if s_next == 0.5:
                mid = x
        miss = min(abs(x - k_j - d_j), abs(x - k_j + d_j))
        if miss > LIFT_MATCH * abs(d_j) and abs(x - k_j) <= 4 * abs(d_j):
            raise ValueError("path lift ends near kappa_j off its quadratic model")
        lifts.append((start, mid, miss <= LIFT_MATCH * abs(d_j)))
    return lifts


def count_bps_solitons(W: QHPoly, m: MorseData, i: int, j: int) -> int:
    """Number of distinct flow lines from critical point i to j.

    Requires a wall configuration (equal imaginary values, Re alpha_i <
    Re alpha_j).  W + W0 moves on a horizontal ray along the flow, so in
    one variable the count is that of the two lifts of [alpha_i, alpha_j]
    from kappa_i that arrive at kappa_j.  On a direct sum the flow
    decouples (Thom-Sebastiani): a pair that moves in one one-variable
    summand has that summand's lift count.  Every other pair (two moving
    summands, or a moving summand in several variables) has no certified
    count and raises ValueError, as do an index outside 0..mu-1 and a W
    that is not m.W.
    """
    if not (0 <= i < m.mu and 0 <= j < m.mu):
        raise ValueError(f"pair ({i}, {j}) outside 0..{m.mu - 1}")
    if W != m.W:
        raise ValueError("W is not the polynomial of the Morse data")
    if i == j:
        return 0
    a_i, a_j = m.critical_values[i], m.critical_values[j]
    scale = max(1.0, max(abs(v) for v in m.critical_values))
    if abs(a_i.imag - a_j.imag) > WALL_TOL * scale:
        raise ValueError("not a wall configuration: imaginary values differ")
    if not a_i.real < a_j.real:
        raise ValueError("need Re alpha_i < Re alpha_j")
    k_i, k_j = m.critical_points[i], m.critical_points[j]
    moving = [bl for bl in W.summands
              if max(abs(k_i[v] - k_j[v]) for v in bl) > SEPARATION]
    if len(moving) != 1:
        raise ValueError(f"no certified count: the pair moves in {len(moving)} summands "
                         "of W, and only a pair moving in one summand is counted")
    if len(moving[0]) > 1:
        raise ValueError(f"no certified count: the pair moves in a summand of "
                         f"{len(moving[0])} variables, and only one-variable summands are counted")
    v, = moving[0]
    return int(sum(arrives for _, _, arrives in _lifts(W.restrict(moving[0]), m.b[v],
                                                       k_i[v], k_j[v])))


def energy_identity_check(W: QHPoly, b, traj: FlowTrajectory) -> float:
    """Residual of the energy identity along a connecting trajectory.

    Compares the drop of (W + W0) between the endpoint critical values
    with 2*integral of |grad(W+W0)|^2 ds along the samples.  Along the flow
    |du/ds|^2 = 4 |grad|^2, so the integrand is |du/ds|^2 / 2.  A b whose
    length is not N raises ValueError.
    """
    bwd, fwd = traj.endpoints
    b = np.asarray(b, dtype=complex)
    if b.shape != (W.n_vars,):
        raise ValueError(f"expected b of length {W.n_vars}, got shape {b.shape}")
    if bwd is None or fwd is None:
        raise ValueError("open trajectory: both endpoints must be critical points")
    w_start = perturbed_value(W, b, traj.u[0])
    w_end = perturbed_value(W, b, traj.u[-1])
    delta = (w_end - w_start).real
    return abs(delta - 2.0 * traj.energy_integral)


@dataclass(frozen=True)
class CylinderField:
    """Fourier-mode data of a field on the half-cylinder."""

    theta: float                    # twist Theta in (0, 1)
    mode_numbers: tuple[int, ...]
    s_grid: np.ndarray
    mode_values: np.ndarray         # shape (n_modes, len(s_grid)), complex


def _integral(f, a: float, b: float) -> complex:
    """Integral of the complex function f over [a, b], a <= b, by adaptive Gauss-Legendre.

    The panels start at most 1 wide.  The one whose 10- and 20-point sums
    disagree most is halved until the disagreements sum to at most
    QUAD_RTOL times the integral of |f|; the 20-point sums are returned.
    Needing more than QUAD_PANELS panels raises ValueError.
    """
    def panel(lo, hi):  # (|I20 - I10|, lo, hi, I20, the 20-point integral of |f|)
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        (x20, w20), (x10, w10) = _GAUSS
        vals = [f(mid + half * x) for x in x20]
        i20 = half * sum(map(mul, w20, vals))
        i10 = half * sum(w * f(mid + half * x) for x, w in zip(x10, w10))
        return abs(i20 - i10), lo, hi, i20, half * sum(map(mul, w20, map(abs, vals)))

    edges = np.linspace(a, b, math.ceil(b - a) + 1).tolist()
    panels = [panel(lo, hi) for lo, hi in zip(edges, edges[1:])]
    # `not <=` keeps halving on a nan disagreement until the budget refuses it.
    while not sum(p[0] for p in panels) <= QUAD_RTOL * sum(p[4] for p in panels):
        if len(panels) >= QUAD_PANELS:
            raise ValueError(f"integral does not converge on [{a:.4g}, {b:.4g}]")
        _, lo, hi, _, _ = panels.pop(panels.index(max(panels)))
        panels += [panel(lo, 0.5 * (lo + hi)), panel(0.5 * (lo + hi), hi)]
    return sum(p[3] for p in panels)


def fourier_bounded_solution(theta: float,
                             forcing: dict[int, Callable[[float], complex]],
                             s_grid: Sequence[float]) -> CylinderField:
    """Unique bounded solution of (d_s + i d_theta + Theta) v = f.

    The forcing is given mode by mode, f = sum_n rho_n(s) e^{-i n ang},
    and taken to vanish outside [-SUPPORT, SUPPORT].  With lam = n + Theta,
    Mode n >= 0:  v_n(s) = -e^{-lam s} * int_s^inf e^{lam t} rho_n(t) dt
    Mode n <= -1: v_n(s) =  e^{-lam s} * int_-inf^s e^{lam t} rho_n(t) dt
    solves v_n' + lam v_n = rho_n.  One sweep of the grid, from the end
    where v_n vanishes, carries it to each next point s' by v_n(s') =
    e^{lam (s - s')} v_n(s) -+ int_[s, s'] e^{lam (t - s')} rho_n(t) dt,
    in sub-steps with |lam (s - s')| <= 700 so that no weight overflows.
    A forcing that _integral cannot resolve, or a solution beyond the
    float range, raises ValueError.
    """
    if not (0 < theta < 1):
        raise ValueError("Theta must lie in (0, 1)")
    s_grid = np.asarray(s_grid, dtype=float)
    modes = sorted(forcing)
    values = np.zeros((len(modes), len(s_grid)), dtype=complex)
    for row, n in enumerate(modes):
        lam, rho, sign = n + theta, forcing[n], (-1.0 if n >= 0 else 1.0)
        s, v = -sign * SUPPORT, 0j
        for col in sorted(range(len(s_grid)), key=lambda k: sign * s_grid[k]):
            s_new = float(s_grid[col])
            n_sub = math.ceil(abs(lam * (s_new - s)) / 700)
            for p in np.linspace(s, s_new, n_sub + 1)[1:].tolist():
                lo, hi = (min(max(t, -SUPPORT), SUPPORT) for t in sorted((s, p)))
                v = math.exp(lam * (s - p)) * v + sign * _integral(
                    lambda t: math.exp(lam * (t - p)) * rho(t), lo, hi)
                s = p
            if not cmath.isfinite(v):
                raise ValueError(f"mode {n}: the bounded solution at s = {s_new:g} "
                                 "is beyond the float range")
            values[row, col] = v
    return CylinderField(theta=theta, mode_numbers=tuple(modes),
                         s_grid=s_grid, mode_values=values)


def homogeneous_decay_check(theta: float, coeffs: dict[int, complex],
                            T: float) -> tuple[float, float]:
    """Measured decay rate on [T, 2T] and worst bound residual.

    Returns (slope, max_violation) where slope is the fitted decay rate
    of log sup_ang |v(s, .)| and max_violation is the largest amount by
    which the pointwise bound
        |v| <= sqrt(2/Theta) e^{-Theta s} ||d_s v||_{L^2} (1-e^{-2T})^{-1/2}
    is exceeded on the sample grid (<= 0 means the bound holds).
    Angular integrals use the normalized measure on the circle.  Theta
    outside (0, 1), a T that is not finite and positive, a negative mode,
    or fewer than two samples of sup|v| above 1e-300 raise ValueError.
    """
    if not (0 < theta < 1):
        raise ValueError("Theta must lie in (0, 1)")
    if not (math.isfinite(T) and T > 0):
        raise ValueError(f"T must be finite and positive, got {T}")
    if any(n < 0 for n in coeffs):
        raise ValueError("negative-mode input")
    s_vals = np.linspace(T, 2 * T, DECAY_S_SAMPLES)
    ang_vals = np.linspace(0, 2 * np.pi, DECAY_ANG_SAMPLES, endpoint=False)
    sup = np.zeros(DECAY_S_SAMPLES)
    for k, s in enumerate(s_vals):
        v = np.zeros(DECAY_ANG_SAMPLES, dtype=complex)
        for n, c in coeffs.items():
            v += c * np.exp(-(n + theta) * s) * np.exp(-1j * n * ang_vals)
        sup[k] = np.max(np.abs(v))
    mask = sup > 1e-300
    if np.count_nonzero(mask) < 2:
        raise ValueError("fewer than two samples of sup|v| above 1e-300 to fit a decay rate")
    slope = float(np.polyfit(s_vals[mask], np.log(sup[mask]), 1)[0])
    # ||d_s v||^2 over [0, inf) x S^1 with normalized angular measure.
    energy = sum((n + theta) ** 2 * abs(c) ** 2 / (2 * (n + theta))
                 for n, c in coeffs.items())
    bound_const = math.sqrt(2.0 / theta) * math.sqrt(energy) / math.sqrt(1 - math.exp(-2 * T))
    violation = float(np.max(sup - bound_const * np.exp(-theta * s_vals)))
    return slope, violation


def _witten_newton(W: QHPoly, theta: float, h: float, v, tol: float):
    """(verdict, last iterate) of Newton from the start v, WITTEN_GRID lists of N complex."""
    n = W.n_vars
    cI = [[1 / h + theta if i == j else 0j for j in range(n)] for i in range(n)]
    for _ in range(WITTEN_MAX_ITER):
        # Block forward substitution: d[0] = r[0] = v[0], then block k solves
        # c a + 2 conj(H a) = r[k] + d[k-1]/h as a system in (a, conj a).
        d = [v[0]]
        for prev, vk in zip(v, v[1:]):
            try:
                g, H = W.gradient_values(vk), W.hessian_values(vk)
            except OverflowError:  # complex ** raises on some overflows, nan on others
                return "unconverged", v
            rhs = [(a - p) / h + theta * a + 2 * gi.conjugate() + di / h
                   for a, p, gi, di in zip(vk, prev, g, d[-1])]
            A = ([row + [2 * x.conjugate() for x in hrow] for row, hrow in zip(cI, H)]
                 + [[2 * x for x in hrow] + row for row, hrow in zip(cI, H)])
            a = _solve(A, rhs + [x.conjugate() for x in rhs])
            if a is None:
                return "unconverged", v
            d.append(a[:n])
        v = [[a - b for a, b in zip(vk, dk)] for vk, dk in zip(v, d)]
        size = max(abs(a) for vk in v for a in vk)
        bound = tol * max(1.0, size)
        if all(abs(a) <= bound for dk in d for a in dk):  # False on nan, which max skips
            return ("zero" if size <= WITTEN_ZERO else "nonzero"), v
    return "unconverged", v


def witten_vanishing_check(W: QHPoly, theta: float, n_starts: int = 50,
                           seed: int = 0) -> bool:
    """Newton on the discretized twisted flow finds only the zero field.

    In the Neveu-Schwarz sector every variable carries a positive twist,
    so d_s v + Theta v + 2 conj(grad W(v)) = 0 on [-WITTEN_S_MAX, WITTEN_S_MAX]
    with zero boundary value should admit only v = 0.  With step h the
    backward-difference residual, r[0] = v[0] and r[k] = (v[k] - v[k-1])/h
    + Theta v[k] + 2 conj(grad W(v[k])), is block lower-triangular: its
    exact real-linear Jacobian has diagonal blocks c I + 2 conj(H(v[k]) .),
    c = 1/h + Theta, and sub-diagonal blocks -I/h, so a Newton step is one
    forward substitution of WITTEN_GRID small solves.  Each seeded start
    ends converged (step <= WITTEN_TOL * max(1, max |v|)) to zero (max |v|
    <= WITTEN_ZERO), converged to a nonzero field, or unconverged (a
    singular block, an overflow, or WITTEN_MAX_ITER steps).  Returns True
    only when every start converged to zero; n_starts < 1 raises ValueError.

    The discrete system also has mesh-scale roots that do not survive
    refinement: for x^3 a node after zero nodes solves c v + 6 conj(v)^2
    = 0, with nonzero roots of modulus c/6.  Starts that reach that branch
    fail the check, so WITTEN_START_SCALE stays well below it.
    """
    if not (0 < theta < 1):
        raise ValueError("Theta must lie in (0, 1)")
    if n_starts < 1:
        raise ValueError(f"need at least one start, got n_starts={n_starts}")
    rng = np.random.default_rng(seed)
    size = (WITTEN_GRID, W.n_vars)
    h = float(np.diff(np.linspace(-WITTEN_S_MAX, WITTEN_S_MAX, WITTEN_GRID))[0])
    for _ in range(n_starts):
        v0 = WITTEN_START_SCALE * (rng.normal(size=size) + 1j * rng.normal(size=size))
        if _witten_newton(W, theta, h, v0.tolist(), WITTEN_TOL)[0] != "zero":
            return False
    return True


def a1_bounded_spectrum_empty(epsilon: float) -> bool:
    """No bounded orbit of the linear flow du/ds = 2(2+eps) conj(u).

    On the cylinder the mode pair (f_n, conj(f_{-n})) evolves by the
    real symmetric matrix [[-n, c], [c, n]] with c = 2(2+eps), whose
    eigenvalues are +-sqrt(n^2 + c^2).  A bounded solution needs one on
    the imaginary axis, which only n = 0 with c = 0 gives.  Returns True
    when |c| >= 1e-12; a non-finite c is refused.
    """
    c = 2.0 * (2.0 + epsilon)
    if not math.isfinite(c):
        raise ValueError(f"coupling 2(2+eps) = {c} is not finite")
    return abs(c) >= 1e-12

