import cmath
import math
import signal
from dataclasses import replace
from operator import add, mul

import numpy as np
import pytest
import scipy.optimize
from scipy.integrate import solve_ivp

from qhsing import morse, soliton, wpoly
from qhsing.morse import (detect_wall_crossings, find_critical_points,
                          is_strongly_regular, perturbed_gradient,
                          perturbed_value)
from qhsing.soliton import (a1_bounded_spectrum_empty, count_bps_solitons,
                            energy_identity_check, fourier_bounded_solution,
                            homogeneous_decay_check, integrate_flow,
                            witten_vanishing_check)
from qhsing.wpoly import parse_polynomial


def cubic_wall_data():
    """x^3 - 3x: the canonical wall pair alpha = -+2 at kappa = +-1."""
    W = parse_polynomial("x^3")
    m = find_critical_points(W, [-3.0])
    i = min(range(2), key=lambda k: m.critical_values[k].real)
    j = 1 - i
    return W, m, i, j


class TestFlow:
    def test_invariants_on_generic_orbit(self):
        W = parse_polynomial("x^3")
        m = find_critical_points(W, [3.0])
        pts = [np.array(p) for p in m.critical_points]
        traj = integrate_flow(W, m.b, np.array([0.3 + 0.2j]), (0.0, 10.0),
                              critical_points=pts)
        assert traj.re_monotone
        scale = max(1.0, max(abs(v) for v in m.critical_values))
        assert traj.im_drift < 1e-8 * scale

    def test_escape_detection(self):
        W = parse_polynomial("x^3")
        traj = integrate_flow(W, [3.0], np.array([5.0 + 0j]), (0.0, 10.0),
                              critical_points=[np.array([1j]), np.array([-1j])])
        assert traj.escaped
        assert traj.endpoints[1] is None

    def test_capture_and_energy_identity(self):
        W, m, i, j = cubic_wall_data()
        pts = [np.array(p) for p in m.critical_points]
        traj = integrate_flow(W, m.b, pts[i] + np.array([-1e-3]), (0.0, 60.0),
                              critical_points=pts)
        assert traj.endpoints == (i, j)
        res = energy_identity_check(W, m.b, traj)
        assert res < 1e-6

    def test_energy_identity_requires_closed_orbit(self):
        W = parse_polynomial("x^3")
        m = find_critical_points(W, [3.0])
        pts = [np.array(p) for p in m.critical_points]
        traj = integrate_flow(W, m.b, np.array([0.3 + 0.2j]), (0.0, 10.0),
                              critical_points=pts)
        with pytest.raises(ValueError):
            energy_identity_check(W, m.b, traj)


def reference_flow(W, b, u0, s_span, critical_points):
    """The flow by scipy's DOP853 with terminal capture and escape events.

    This is the independent reference that integrate_flow's own
    Dormand-Prince 8(5,3) stepper must match step for step.  Returns the
    solve_ivp result and the escape radius.
    """
    b = np.asarray(b, dtype=complex)
    u0 = np.asarray(u0, dtype=complex)
    pts = [np.asarray(p, dtype=complex) for p in critical_points]
    escape_radius = 10.0 * max(max((np.linalg.norm(p) for p in pts), default=1.0), 1.0)

    def rhs(s, y):
        g = perturbed_gradient(W, b, y[:-1])
        return np.concatenate([2.0 * np.conj(g), [complex(np.sum(np.abs(g) ** 2))]])

    def escape(s, y):
        return np.linalg.norm(y[:-1]) - escape_radius
    escape.terminal, escape.direction = True, 1
    events = [escape]
    for kappa in pts:
        def capture(s, y, kappa=kappa):
            return np.linalg.norm(y[:-1] - kappa) - soliton.CAPTURE_RADIUS
        capture.terminal, capture.direction = True, -1
        if np.linalg.norm(u0 - kappa) > soliton.CAPTURE_RADIUS:
            events.append(capture)
    sol = solve_ivp(rhs, s_span, np.concatenate([u0, [0j]]), method="DOP853",
                    rtol=soliton.FLOW_RTOL, atol=soliton.FLOW_ATOL, events=events)
    assert sol.status in (0, 1), sol.message
    return sol, escape_radius


def reference_shots(text, seed):
    """(W, b, u0, critical points) of seeded flow shots on W.

    Six starts 1e-3 from a critical point at a seeded strongly regular b,
    each in the cone where Re(W + W0) rises, then the start of every
    connecting orbit of a one-variable lift at a wall b, from the lift's
    first point (on the orbit, about 1e-3 from its critical point).
    """
    W = parse_polynomial(text)
    rng = np.random.default_rng(seed)
    while True:
        b = list(2 * (rng.normal(size=W.n_vars) + 1j * rng.normal(size=W.n_vars)))
        m = find_critical_points(W, b)
        if is_strongly_regular(m)[0]:
            break
    pts = [np.array(p) for p in m.critical_points]
    i = int(rng.integers(len(pts)))
    starts = [pts[i] + 1e-3 * np.exp(1j * a) for a in rng.uniform(0, 2 * np.pi, 40)]
    shots = [(W, b, u0, pts) for u0 in starts
             if (perturbed_value(W, b, u0) - m.critical_values[i]).real > 0][:6]
    wall_b = {"x^3": [-3.0], "x^4": [4 * cmath.exp(1j * cmath.pi / 8)],
              "x^3+y^3": [-3.0, -0.3]}[text]
    m = find_critical_points(W, wall_b)
    pts = [np.array(p) for p in m.critical_points]
    for p, q in aligned_pairs(m):
        moved = moved_coordinates(m, p, q)
        if len(moved) != 1:
            continue
        v = moved[0]
        W_v = parse_polynomial(text.split("+")[v].replace("y", "x"))
        k_p, k_q = m.critical_points[p][v], m.critical_points[q][v]
        for start, _, arrives in soliton._lifts(W_v, wall_b[v], k_p, k_q):
            if arrives:
                u0 = pts[p].copy()
                u0[v] = start
                shots.append((W, wall_b, u0, pts))
    return shots


class TestStepperAgainstSolveIvp:
    # Every wall orbit of a lift start is captured: those of x^3 and x^3+y^3
    # on the real axis, and that of x^4 + b x, which no invariant line
    # holds, within CAPTURE_RADIUS as well.  (A Dormand-Prince 5(4) stepper
    # missed that one by about 7e-6: its global error, not the orbit's.)
    # solve_ivp spends 3 more RHS evaluations, the extra stages of its
    # dense output, to locate a terminal event inside the last step.
    @pytest.mark.parametrize("text, seed, captures",
                             [("x^3", 1, 1), ("x^4", 2, 1), ("x^3+y^3", 3, 3)])
    def test_same_steps_samples_and_endpoints(self, text, seed, captures):
        shots = [(*shot, (0.0, 40.0)) for shot in reference_shots(text, seed)]
        shots.append((*shots[0][:4], (0.0, 0.05)))
        outcomes = []
        for W, b, u0, pts, span in shots:
            traj = integrate_flow(W, b, u0, span, critical_points=pts)
            sol, radius = reference_flow(W, b, u0, span, pts)
            ref_u = sol.y[:-1].T
            ref_escaped = bool(np.linalg.norm(ref_u[-1]) >= 0.999 * radius)
            ref_fwd = None if ref_escaped else soliton._classify_endpoint(ref_u[-1], pts)
            ref_bwd = soliton._classify_endpoint(ref_u[0], pts, radius=2e-3)
            assert traj.n_steps == len(sol.t)
            assert traj.n_rhs == sol.nfev - (3 if sol.status == 1 else 0)
            assert traj.escaped == ref_escaped
            assert traj.endpoints == (ref_bwd, ref_fwd)
            # Every step but the last ends at the same sample.
            assert np.max(np.abs(traj.s[:-1] - sol.t[:-1])) < 1e-6
            assert np.max(np.abs(traj.u[:-1] - ref_u[:-1])) < 1e-6
            # solve_ivp's last sample is its event's root inside the last
            # step; the stepper's is the end of that step.
            assert sol.t[-1] <= traj.s[-1] + 1e-12
            if traj.escaped:
                assert np.linalg.norm(traj.u[-1]) >= radius
                outcomes.append("escaped")
            elif ref_fwd is not None:
                assert np.linalg.norm(traj.u[-1] - pts[ref_fwd]) <= soliton.CAPTURE_RADIUS
                ref = replace(traj, s=sol.t, u=ref_u, energy_integral=sol.y[-1, -1].real)
                assert abs(energy_identity_check(W, b, traj)
                           - energy_identity_check(W, b, ref)) < 1e-9
                outcomes.append("captured")
            else:
                assert np.max(np.abs(traj.u[-1] - ref_u[-1])) < 1e-6
                outcomes.append("open")
        assert outcomes.count("captured") == captures
        assert "escaped" in outcomes and outcomes[-1] == "open"

    def test_start_outside_the_escape_sphere(self):
        # On the real line W' + 3 = 3x^2 + 3 > 0: from -20 the flow enters
        # the escape sphere |u| = 10, passes the origin and escapes at +10.
        W = parse_polynomial("x^3")
        pts = [np.array([1j]), np.array([-1j])]
        u0 = np.array([-20.0 + 0j])
        traj = integrate_flow(W, [3.0], u0, (0.0, 10.0), critical_points=pts)
        sol, radius = reference_flow(W, [3.0], u0, (0.0, 10.0), pts)
        assert radius == 10.0
        assert traj.escaped and traj.u[-1, 0].real >= radius
        assert np.min(np.abs(traj.u[:, 0])) < 1.0
        assert traj.n_steps == len(sol.t)
        assert np.max(np.abs(traj.u[:-1] - sol.y[0, :-1, None])) < 1e-6

    @pytest.mark.parametrize("span", [(1.0, 1.0), (2.0, 1.0)])
    def test_empty_or_backward_span_refused(self, span):
        W = parse_polynomial("x^3")
        with pytest.raises(ValueError, match="s1 > s0"):
            integrate_flow(W, [3.0], np.array([0.3 + 0.2j]), span)


def _combine(y, K, w, h):
    """y + h * sum_j w_j K_j on lists of Python complex."""
    return [a + sum(map(mul, ks, w)) * h for a, ks in zip(y, zip(*K))]


def reference_dop853_step(rhs, s, y, f, h_abs, s_end):
    """One accepted Dormand-Prince 8(5,3) step, written plainly.

    It transposes the stage values for every combination and builds every
    stage point with the energy slot.  It is kept here as the reference
    the stepper must match bit for bit.  Returns (s, y, f, next |h|,
    rejected attempts).
    """
    min_step = 10 * (math.nextafter(s, math.inf) - s)
    h_abs = max(h_abs, min_step)
    rejected = 0
    while True:
        if h_abs < min_step:
            raise RuntimeError("step size underflow")
        s_new = min(s + h_abs, s_end)
        h = h_abs = s_new - s
        K = [f]
        for a in soliton._DOP_A:
            K.append(rhs(_combine(y, K, a, h)))
        y_new = _combine(y, K, soliton._DOP_B, h)
        f_new = rhs(y_new)
        scale = [soliton.FLOW_ATOL + max(abs(a), abs(c)) * soliton.FLOW_RTOL
                 for a, c in zip(y, y_new)]

        def sq_norm(w):
            return sum(abs(sum(map(mul, ks, w)) / sc) ** 2 for ks, sc in zip(zip(*K), scale))
        e5, e3 = sq_norm(soliton._DOP_E5), sq_norm(soliton._DOP_E3)
        error_norm = h * e5 / math.sqrt((e5 + 0.01 * e3) * len(y)) if e5 else 0.0
        if error_norm < 1:
            factor = 10 if error_norm == 0 else min(10, 0.9 * error_norm ** (-1 / 8))
            return s_new, y_new, f_new, h_abs * (min(1, factor) if rejected else factor), rejected
        h_abs *= max(0.2, 0.9 * error_norm ** (-1 / 8))
        rejected += 1


def reference_dop853_flow(W, b, u0, s_span, critical_points):
    """The fields of integrate_flow's trajectory, stepped by reference_dop853_step.

    The right-hand side and the capture and escape tests are
    integrate_flow's, written plainly; the Im drift is measured through
    perturbed_value.
    """
    b = np.asarray(b, dtype=complex)
    bl = b.tolist()
    pts = [np.asarray(p, dtype=complex) for p in critical_points]
    escape_radius = 10.0 * max(max((np.linalg.norm(p) for p in pts), default=1.0), 1.0)
    targets = [p.tolist() for p in pts if np.linalg.norm(u0 - p) > soliton.CAPTURE_RADIUS]
    n_rhs = n_rejected = 0

    def rhs(y):
        nonlocal n_rhs
        n_rhs += 1
        g = list(map(add, W.gradient_values(y), bl))
        return [2.0 * a.conjugate() for a in g] + [complex(sum([abs(a) ** 2 for a in g]))]

    def norm(v):
        return math.sqrt(sum(abs(a) ** 2 for a in v))

    s0, s1 = s_span
    y = np.asarray(u0, dtype=complex).tolist() + [0j]
    f = rhs(y)
    h_abs = soliton._initial_step(rhs, y, f, s1 - s0)
    s, svals, ys = s0, [s0], [y]
    inside = norm(y[:-1]) <= escape_radius
    while s < s1:
        s, y, f, h_abs, rejected = reference_dop853_step(rhs, s, y, f, h_abs, s1)
        n_rejected += rejected
        svals.append(s)
        ys.append(y)
        r = norm(y[:-1])
        if (inside and r >= escape_radius) or any(
                norm([a - c for a, c in zip(y, p)]) <= soliton.CAPTURE_RADIUS for p in targets):
            break
        inside = r <= escape_radius
    samples = np.array([y[:-1] for y in ys])
    wvals = np.array([perturbed_value(W, b, u) for u in samples])
    escaped = bool(np.linalg.norm(samples[-1]) >= escape_radius * 0.999)
    fwd = None if escaped else soliton._classify_endpoint(samples[-1], pts)
    bwd = soliton._classify_endpoint(samples[0], pts, radius=2e-3)
    return dict(s=np.array(svals), u=samples, energy_integral=ys[-1][-1].real,
                n_steps=len(svals), n_rhs=n_rhs, n_rejected=n_rejected,
                im_drift=float(np.max(np.abs(wvals.imag - float(wvals[0].imag)))),
                endpoints=(bwd, fwd), escaped=escaped)


def bench_style_shots(n, seed):
    """(W, b, u0, critical points) of 1e-3 starts around a critical point of x^n + b x.

    b is seeded and strongly regular; the starts are 16 evenly spaced
    angles, kept where Re(W + W0) rises.
    """
    W = parse_polynomial(f"x^{n}")
    rng = np.random.default_rng(seed)
    while True:
        b = [complex(*(2 * rng.normal(size=2)))]
        m = find_critical_points(W, b)
        if is_strongly_regular(m)[0]:
            break
    pts = [np.array(p) for p in m.critical_points]
    i = int(rng.integers(len(pts)))
    angles = np.linspace(0, 2 * np.pi, 16, endpoint=False)
    starts = [pts[i] + 1e-3 * np.exp(1j * a) for a in angles]
    return [(W, b, u0, pts) for u0 in starts
            if (perturbed_value(W, b, u0) - m.critical_values[i]).real > 0]


class TestStepperAgainstReference:
    @staticmethod
    def assert_same(shots):
        for W, b, u0, pts, span in shots:
            traj = integrate_flow(W, b, u0, span, critical_points=pts)
            ref = reference_dop853_flow(W, b, u0, span, pts)
            assert np.array_equal(traj.s, ref["s"]) and np.array_equal(traj.u, ref["u"])
            for field in ("energy_integral", "n_steps", "n_rhs", "n_rejected", "im_drift",
                          "endpoints", "escaped"):
                assert getattr(traj, field) == ref[field], field
            # The start and the initial-step probe, then 12 per attempt.
            assert traj.n_rhs == 2 + 12 * (traj.n_steps - 1 + traj.n_rejected)

    @pytest.mark.parametrize("text, seed", [("x^3", 1), ("x^4", 2), ("x^3+y^3", 3)])
    def test_reference_shots_bit_for_bit(self, text, seed):
        shots = [(*shot, (0.0, 40.0)) for shot in reference_shots(text, seed)]
        shots.append((*shots[0][:4], (0.0, 0.05)))
        self.assert_same(shots)

    @pytest.mark.parametrize("n, seed", [(3, 4), (4, 5)])
    def test_bench_style_shots_bit_for_bit(self, n, seed):
        shots = bench_style_shots(n, seed)
        assert len(shots) >= 6
        self.assert_same([(*shot, (0.0, 40.0)) for shot in shots])

    def test_tableau_is_scipys_dop853(self):
        from scipy.integrate import DOP853
        A = np.zeros((12, 12))
        for i, row in enumerate(soliton._DOP_A, start=1):
            A[i, :i] = row
        assert A.tolist() == DOP853.A.tolist()
        assert list(soliton._DOP_B) == DOP853.B.tolist()
        # The error weights of the final evaluation f(y_new) are 0.
        assert [*soliton._DOP_E3, 0.0] == DOP853.E3.tolist()
        assert [*soliton._DOP_E5, 0.0] == DOP853.E5.tolist()

    # A Dormand-Prince 5(4) stepper at the same tolerances took 1,602
    # samples and 9,580 RHS evaluations on the (3, 4) shots, and 2,040
    # and 12,208 on the (4, 5) shots.
    @pytest.mark.parametrize("n, seed, dp5_steps, dp5_rhs",
                             [(3, 4, 1602, 9580), (4, 5, 2040, 12208)])
    def test_flow_work(self, n, seed, dp5_steps, dp5_rhs):
        trajs = [integrate_flow(W, b, u0, (0.0, 40.0), critical_points=pts)
                 for W, b, u0, pts in bench_style_shots(n, seed)]
        assert sum(t.n_steps for t in trajs) <= 0.3 * dp5_steps
        assert sum(t.n_rhs for t in trajs) <= 0.8 * dp5_rhs


@pytest.fixture
def alarm():
    """Turn a call that does not return within 10 s into a TimeoutError."""
    def expire(signum, frame):
        raise TimeoutError("no return within 10 s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(10)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


class TestFlowInput:
    @pytest.mark.parametrize("b, u0, span", [
        ([3.0], [complex("nan")], (0.0, 1.0)),
        ([3.0], [complex("inf")], (0.0, 1.0)),
        ([math.nan], [0.3 + 0.2j], (0.0, 1.0)),
        ([math.inf], [0.3 + 0.2j], (0.0, 1.0)),
        ([3.0], [0.3 + 0.2j], (0.0, math.inf)),
        ([3.0], [0.3 + 0.2j], (math.nan, 1.0)),
    ])
    def test_non_finite_input_refused(self, alarm, b, u0, span):
        W = parse_polynomial("x^3")
        with pytest.raises(ValueError, match="finite"):
            integrate_flow(W, b, np.array(u0), span)

    def test_non_finite_step_size_raises(self, alarm):
        def rhs(y):
            return [2.0 * y[0].conjugate(), 0j]
        with pytest.raises(RuntimeError, match="step size nan at s=0"):
            soliton._dop853_step(rhs, 0.0, [1j, 0j], rhs([1j, 0j]), math.nan, 1.0)

    @pytest.mark.parametrize("b", [[3.0], [3.0, 1.0, 2.0], 3.0])
    def test_b_of_wrong_length_refused(self, b):
        W = parse_polynomial("x^3+y^3")
        with pytest.raises(ValueError, match="expected b of length 2"):
            integrate_flow(W, b, np.array([0.3, 0.2j]), (0.0, 1.0))

    @pytest.mark.parametrize("u0", [1e200, 1e150])
    def test_overflow_is_a_runtime_error_naming_s(self, u0):
        # At 1e200 the gradient overflows, at 1e150 only W does.
        W = parse_polynomial("x^3")
        with pytest.raises(RuntimeError, match="overflows by s=0"):
            integrate_flow(W, [3.0], np.array([complex(u0)]), (0.0, 1.0))


class TestCounting:
    def test_cubic_wall_count_is_one(self):
        W, m, i, j = cubic_wall_data()
        assert count_bps_solitons(W, m, i, j) == 1

    def test_same_index_counts_zero(self):
        W, m, i, j = cubic_wall_data()
        assert count_bps_solitons(W, m, i, i) == 0

    def test_wrong_orientation_rejected(self):
        W, m, i, j = cubic_wall_data()
        with pytest.raises(ValueError):
            count_bps_solitons(W, m, j, i)

    def test_non_wall_rejected(self):
        W = parse_polynomial("x^3")
        m = find_critical_points(W, [3.0])  # alpha = +-2i, not a wall
        with pytest.raises(ValueError):
            count_bps_solitons(W, m, 0, 1)

    def test_strongly_regular_b_has_no_connections(self):
        # Away from walls the shooting sweep captures nothing.
        W = parse_polynomial("x^3")
        m = find_critical_points(W, [3.0])
        pts = [np.array(p) for p in m.critical_points]
        captures = 0
        for a in np.linspace(0, 2 * math.pi, 32, endpoint=False):
            traj = integrate_flow(W, m.b, pts[0] + 1e-3 * np.exp(1j * a),
                                  (0.0, 40.0), critical_points=pts)
            if traj.endpoints[1] is not None and traj.endpoints[1] != 0:
                captures += 1
        assert captures == 0


def quintic_walls():
    """x^5 + b x on every wall of b = 4 e^{i pi lam}, and at b = -5."""
    W = parse_polynomial("x^5")

    def path(lam):
        return [4.0 * cmath.exp(1j * cmath.pi * lam)]

    lams = sorted({round(c.lam, 9) for c in detect_wall_crossings(W, path)})
    return W, [path(lam) for lam in lams] + [[-5.0]]


def aligned_pairs(m):
    """Every pair with tied Im values, oriented by increasing Re."""
    vals = m.critical_values
    return [(p, q) if vals[p].real < vals[q].real else (q, p) for p, q in m.im_ties]


def flow_midpoint(W, b, traj, mid_re):
    """Point of a flow line on Re(W + W0) = mid_re, by bisecting the time
    of short flows from the last sample below that level."""
    wre = [perturbed_value(W, b, u).real for u in traj.u]
    k = int(np.searchsorted(wre, mid_re))
    lo, hi = 0.0, traj.s[k] - traj.s[k - 1]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        u = integrate_flow(W, b, traj.u[k - 1], (0.0, mid)).u[-1]
        if perturbed_value(W, b, u).real < mid_re:
            lo = mid
        else:
            hi = mid
    return u


class TestPathLift:
    def test_no_flow_integration(self, monkeypatch):
        def no_flow(*args, **kwargs):
            raise AssertionError("integrate_flow called by an N = 1 count")

        monkeypatch.setattr(soliton, "integrate_flow", no_flow)
        W, m, i, j = cubic_wall_data()
        assert count_bps_solitons(W, m, i, j) == 1
        W5, bs = quintic_walls()
        m5 = find_critical_points(W5, bs[0])
        assert [count_bps_solitons(W5, m5, p, q) for p, q in aligned_pairs(m5)] == [1]

    def test_quintic_one_soliton_per_aligned_pair(self):
        # Z-symmetric A_4 model: one soliton between every pair of vacua.
        W, bs = quintic_walls()
        assert len(bs) == 5
        counts = []
        for b in bs:
            m = find_critical_points(W, b)
            pairs = aligned_pairs(m)
            assert pairs
            counts += [count_bps_solitons(W, m, p, q) for p, q in pairs]
        assert counts == [1] * 7

    @pytest.mark.parametrize("text, b", [("x^3", -3.0), ("x^5", -5.0)])
    def test_flow_is_an_oracle_for_the_lift(self, text, b):
        W = parse_polynomial(text)
        m = find_critical_points(W, [b])
        (i, j), = aligned_pairs(m)
        kappa = m.critical_points[i][0]
        lifts = [(start, mid) for start, mid, arrives in soliton._lifts(W, b, kappa, m.critical_points[j][0])
                 if arrives]
        assert len(lifts) == 1
        start, mid = lifts[0]
        direction = (start - kappa) / abs(start - kappa)
        pts = [np.array(p) for p in m.critical_points]
        traj = integrate_flow(W, m.b, np.array([kappa + 1e-3 * direction]),
                              (0.0, 60.0), critical_points=pts)
        assert traj.endpoints == (i, j)
        mid_re = 0.5 * (m.critical_values[i].real + m.critical_values[j].real)
        assert abs(flow_midpoint(W, m.b, traj, mid_re)[0] - mid) < 1e-6

    def test_im_gap_inside_wall_tol_counts_one(self):
        # Rotating b = -3 by phi tilts the cubic pair: Im gap = 4 sin(3 phi / 2).
        W = parse_polynomial("x^3")
        m = find_critical_points(W, [-3.0 * cmath.exp(1.7e-9j)])
        i = min(range(2), key=lambda k: m.critical_values[k].real)
        gap = abs(m.critical_values[0].imag - m.critical_values[1].imag)
        assert 5e-9 < gap < 1e-6
        assert count_bps_solitons(W, m, i, 1 - i) == 1

    def test_uncertified_lift_is_refused(self, monkeypatch):
        monkeypatch.setattr(morse, "CONTINUATION_DEPTH", 0)
        W, m, i, j = cubic_wall_data()
        with pytest.raises(ValueError, match="path lift stalls: loss of tracked root near s="):
            count_bps_solitons(W, m, i, j)

    def test_lift_stays_on_its_branch(self):
        # The critical values of x^12 - 12x lie on a circle, so the chord
        # from alpha_k to alpha_{k+2} passes closest to alpha_{k+1}, where
        # two preimages nearly meet, at s = 1/2.  Each lift's point there
        # must be the one that 1,000 small Newton steps from its start reach.
        n, b = 12, -12.0
        W = parse_polynomial(f"x^{n}")
        m = find_critical_points(W, [b])
        pts = sorted((p[0] for p in m.critical_points), key=cmath.phase)
        for k_i, k_j in zip(pts, pts[2:] + pts[:2]):
            a_i = k_i ** n + b * k_i
            delta = k_j ** n + b * k_j - a_i
            for start, mid, _ in soliton._lifts(W, b, k_i, k_j):
                x = start
                for s in np.linspace(soliton.LIFT_END, 0.5, 1001)[1:]:
                    for _ in range(8):
                        x -= (x ** n + b * x - a_i - s * delta) / (n * x ** (n - 1) + b)
                assert abs(mid - x) < 1e-12


def moved_coordinates(m, p, q):
    """Coordinates in which critical points p and q differ."""
    return [v for v, (a, c) in enumerate(zip(m.critical_points[p], m.critical_points[q]))
            if abs(a - c) > 1e-6]


def cubic_sum_data():
    """x^3 + y^3 at b = (-3, -0.3): all four critical values are real."""
    W = parse_polynomial("x^3+y^3")
    m = find_critical_points(W, [-3.0, -0.3])
    pairs = aligned_pairs(m)
    assert len(pairs) == 6
    return W, m, pairs


class TestDirectSum:
    def test_one_summand_pairs_count_one(self, monkeypatch):
        def no_flow(*args, **kwargs):
            raise AssertionError("integrate_flow called by a count")

        monkeypatch.setattr(soliton, "integrate_flow", no_flow)
        W, m, pairs = cubic_sum_data()
        counts = [count_bps_solitons(W, m, p, q) for p, q in pairs
                  if len(moved_coordinates(m, p, q)) == 1]
        assert counts == [1] * 4
        assert all(type(c) is int for c in counts)

    def test_flow_is_an_oracle_for_the_x_lift(self):
        W, m, pairs = cubic_sum_data()
        pts = [np.array(p) for p in m.critical_points]
        x_pairs = [(p, q) for p, q in pairs if moved_coordinates(m, p, q) == [0]]
        assert len(x_pairs) == 2
        for i, j in x_pairs:
            kappa = m.critical_points[i][0]
            (start,) = [start for start, _, arrives in soliton._lifts(
                parse_polynomial("x^3"), m.b[0], kappa, m.critical_points[j][0]) if arrives]
            u0 = pts[i] + 1e-3 * np.array([(start - kappa) / abs(start - kappa), 0])
            traj = integrate_flow(W, m.b, u0, (0.0, 60.0), critical_points=pts)
            assert traj.endpoints == (i, j)
            assert energy_identity_check(W, m.b, traj) < 1e-6

    def test_summand_beside_a_mixed_block(self):
        W = parse_polynomial("x^3+x*y^2+z^3")
        m = find_critical_points(W, [1 + 1j, 0.7 - 0.2j, -3.0])
        pairs = aligned_pairs(m)
        assert len(pairs) == 4
        assert all(moved_coordinates(m, p, q) == [2] for p, q in pairs)
        assert [count_bps_solitons(W, m, p, q) for p, q in pairs] == [1] * 4

    def test_two_moving_summands_refused(self):
        W, m, pairs = cubic_sum_data()
        both = [(p, q) for p, q in pairs if len(moved_coordinates(m, p, q)) == 2]
        assert len(both) == 2
        for p, q in both:
            with pytest.raises(ValueError, match="2 summands"):
                count_bps_solitons(W, m, p, q)

    def test_irreducible_two_variable_pairs_refused(self):
        W = parse_polynomial("x^3+x*y^2")
        m = find_critical_points(W, [-3.0, 0.5])
        pairs = aligned_pairs(m)
        assert len(pairs) == 6
        for p, q in pairs:
            with pytest.raises(ValueError, match="2 variables"):
                count_bps_solitons(W, m, p, q)


class TestCylinder:
    def test_positive_mode_closed_form(self):
        # v' + lam v = e^{-2s} has the bounded solution e^{-2s}/(lam-2).
        theta = 0.4
        s = np.linspace(-3.0, 3.0, 13)
        field = fourier_bounded_solution(theta, {0: lambda t: math.exp(-2 * t)}, s)
        lam = 0 + theta
        want = np.exp(-2 * s) / (lam - 2)
        assert np.max(np.abs(field.mode_values[0] - want)) < 1e-8

    def test_negative_mode_closed_form(self):
        # lam = -1 + theta < 0; rho = e^{2s} gives e^{2s}/(lam+2).
        theta = 0.3
        s = np.linspace(-3.0, 3.0, 13)
        field = fourier_bounded_solution(theta, {-1: lambda t: math.exp(2 * t)}, s)
        lam = -1 + theta
        want = np.exp(2 * s) / (lam + 2)
        assert np.max(np.abs(field.mode_values[0] - want)) < 1e-8

    def test_mode_ode_residual(self):
        # Every returned mode satisfies v' + (n+theta) v = rho_n.
        theta = 0.25
        s = np.linspace(-2.0, 2.0, 401)
        forcing = {0: lambda t: math.exp(-t * t),
                   1: lambda t: t * math.exp(-t * t),
                   -1: lambda t: math.exp(-2 * t * t)}
        field = fourier_bounded_solution(theta, forcing, s)
        h = s[1] - s[0]
        for row, n in enumerate(field.mode_numbers):
            v = field.mode_values[row]
            dv = np.gradient(v, h)
            rho = np.array([forcing[n](t) for t in s])
            resid = dv + (n + theta) * v - rho
            assert np.max(np.abs(resid[2:-2])) < 1e-3

    def test_theta_domain(self):
        with pytest.raises(ValueError):
            fourier_bounded_solution(1.5, {}, [0.0])

    def test_narrow_spike_closed_form(self):
        # rho = e^{-a (t-c)^2}: v(s) = -e^{-lam s} sqrt(pi/a) e^{lam c + lam^2/(4a)}
        # * erfc(sqrt(a) (s - c - lam/(2a))) / 2.  At s = -3 this is about
        # -e^{1.32} sqrt(pi)/100 = -0.066350.
        theta, a, c = 0.4, 1e4, 0.3
        s = np.linspace(-3.0, 3.0, 25)
        field = fourier_bounded_solution(theta, {0: lambda t: math.exp(-a * (t - c) ** 2)}, s)
        total = math.sqrt(math.pi / a) * math.exp(theta * c + theta ** 2 / (4 * a))
        want = [-math.exp(-theta * x) * total * 0.5
                * math.erfc(math.sqrt(a) * (x - c - theta / (2 * a))) for x in s]
        assert abs(want[0] + 0.066350) < 1e-6
        assert np.max(np.abs(field.mode_values[0] - want)) < 1e-8

    def test_step_closed_form(self):
        # rho = 1 on [0.1, 1.1]: v(s) = -(e^{1.1 lam} - e^{lam max(s, 0.1)}) e^{-lam s} / lam
        # below 1.1 and 0 above; v(-3) is about -4.248890.
        theta = 0.4
        s = np.linspace(-3.0, 3.0, 25)
        field = fourier_bounded_solution(theta, {0: lambda t: 1.0 if 0.1 <= t <= 1.1 else 0.0}, s)
        want = [-(math.exp(1.1 * theta) - math.exp(theta * max(x, 0.1))) * math.exp(-theta * x)
                / theta if x < 1.1 else 0.0 for x in s]
        assert abs(want[0] + 4.248890) < 1e-6
        assert np.max(np.abs(field.mode_values[0] - want)) < 1e-8

    def test_grid_order_and_support(self):
        # Columns follow the given grid order; past +-SUPPORT only the
        # carried homogeneous part remains, as in the integral formulas.
        theta = 0.4
        s = np.array([2.0, -60.0, 0.5, 70.0, -1.0])
        rho = {0: lambda t: math.exp(-t * t), -1: lambda t: math.exp(-t * t)}
        field = fourier_bounded_solution(theta, rho, s)
        srt = fourier_bounded_solution(theta, rho, np.sort(s))
        for row in range(2):
            assert list(field.mode_values[row][np.argsort(s)]) == list(srt.mode_values[row])
        assert field.mode_numbers == (-1, 0)
        neg, pos = field.mode_values
        lam = theta - 1
        total = math.sqrt(math.pi) * math.exp(lam ** 2 / 4)
        assert neg[1] == 0
        assert neg[3] == pytest.approx(math.exp(-70 * lam) * total, rel=1e-12)
        total = math.sqrt(math.pi) * math.exp(theta ** 2 / 4)
        assert pos[3] == 0
        assert pos[1] == pytest.approx(-math.exp(60 * theta) * total, rel=1e-12)

    @pytest.mark.parametrize("n", [14, 20, 40, -30])
    def test_high_mode_closed_form(self, n):
        # rho = e^{-t^2}: v(0) = -+e^{lam^2/4} (sqrt(pi)/2) (1 +- erf(lam/2)), the
        # upper signs for n >= 0.  Past mode 13 a weight over the whole gap
        # [0, 50] would leave the float range, though v(0) does not.
        theta = 0.4
        lam, sign = n + theta, (1 if n >= 0 else -1)
        field = fourier_bounded_solution(theta, {n: lambda t: math.exp(-t * t)}, [0.0])
        want = (-sign * math.exp(lam ** 2 / 4) * math.sqrt(math.pi) / 2
                * (1 + sign * math.erf(lam / 2)))
        assert field.mode_values[0, 0] == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("n", [60, -60])
    def test_solution_beyond_float_range_is_refused(self, n):
        # |v(0)| is about e^{50 |lam|} / 2500 / |lam| for rho = 1/(1+t^2).
        with pytest.raises(ValueError, match="beyond the float range"):
            fourier_bounded_solution(0.4, {n: lambda t: 1 / (1 + t * t)}, [0.0])

    def test_zero_far_beyond_support(self):
        # Weights e^{lam (p - s)} past e^709 multiply a zero mode to 0.
        field = fourier_bounded_solution(0.4, {0: lambda t: 0.0}, [-2000.0, -1800.0])
        assert field.mode_values.tolist() == [[0j, 0j]]

    def test_growth_far_beyond_support_is_refused(self):
        # v(-2000) = e^{0.4 * 1950} v(-50), and v(-50) is about -1.8 e^{20}.
        with pytest.raises(ValueError, match="beyond the float range"):
            fourier_bounded_solution(0.4, {0: lambda t: math.exp(-t * t)}, [-2000.0])

    def test_unresolved_forcing_is_refused(self, alarm):
        rho = {0: lambda t: math.sin(1e7 * t) * math.exp(-t * t)}
        with pytest.raises(ValueError, match="does not converge"):
            fourier_bounded_solution(0.4, rho, np.linspace(-3.0, 3.0, 25))


class TestDecay:
    @pytest.mark.parametrize("theta_num,theta_den", [(1, 4), (1, 3), (1, 2), (2, 3)])
    def test_decay_rate_and_bound(self, theta_num, theta_den):
        theta = theta_num / theta_den
        coeffs = {0: 1.0 + 0.2j, 1: 0.3, 2: -0.1j}
        slope, violation = homogeneous_decay_check(theta, coeffs, T=6.0)
        assert abs(slope + theta) < 0.02 * theta
        assert violation <= 1e-8

    def test_pure_higher_mode_decays_faster(self):
        slope, violation = homogeneous_decay_check(0.5, {2: 1.0}, T=4.0)
        assert slope < -2.4
        assert violation <= 0


class TestSpectralChecks:
    def test_witten_vanishing_small(self):
        W = parse_polynomial("x^3")
        assert witten_vanishing_check(W, theta=1.0 / 3.0, n_starts=5, seed=3)

    def test_witten_mesh_branch_is_nonzero(self):
        # After zero nodes, the last node of the x^3 system solves
        # c v + 6 conj(v)^2 = 0, c = 1/h + Theta: a root of modulus c/6.
        W = parse_polynomial("x^3")
        theta = 1.0 / 3.0
        s = np.linspace(-8.0, 8.0, 32)
        h = float(s[1] - s[0])
        c = 1 / h + theta
        v_star = c / 6 * cmath.exp(1j * math.pi / 3)
        start = [[1e-3]] * 31 + [[v_star + 1e-3]]
        verdict, v = soliton._witten_newton(W, theta, h, start, 1e-8)
        assert verdict == "nonzero"
        assert abs(abs(v[-1][0]) - c / 6) < 1e-12

    @pytest.mark.parametrize("start_scale", [50, 1e200])
    def test_witten_large_starts_fail(self, monkeypatch, start_scale):
        # 50 reaches the mesh-scale branch; 1e200 overflows to nan and inf.
        monkeypatch.setattr(soliton, "WITTEN_START_SCALE", start_scale)
        W = parse_polynomial("x^3")
        assert not witten_vanishing_check(W, 1.0 / 3.0, n_starts=5, seed=0)

    def test_witten_uses_no_fsolve_or_ndarray_gradient(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("slow path called by witten_vanishing_check")

        monkeypatch.setattr(wpoly, "gradient", refuse)
        monkeypatch.setattr(scipy.optimize, "fsolve", refuse)
        W = parse_polynomial("x^3")
        assert witten_vanishing_check(W, theta=1.0 / 3.0, n_starts=5, seed=3)

    def test_a1_spectrum_empty(self):
        for eps in (0.5, 1.0, 2.0, 10.0):
            assert a1_bounded_spectrum_empty(eps)

    def test_a1_degenerate_boundary(self):
        # eps = -2 collapses the coupling; the n = 0 mode becomes bounded.
        assert not a1_bounded_spectrum_empty(-2.0)

    def test_a1_matches_mode_spectra(self):
        # The closed form against the eigenvalues of modes 0..16, on seeded
        # eps and on both sides of the collapse at eps = -2.
        def spectra_off_axis(eps):
            c = 2.0 * (2.0 + eps)
            return all(np.all(np.abs(np.linalg.eigvals([[-n, c], [c, n]]).real) >= 1e-12)
                       for n in range(17))

        rng = np.random.default_rng(5)
        eps_values = [-2.0, -2.0 + 1e-14, -2.0 - 1e-14, -2.0 + 1e-11, -2.0 - 1e-11,
                      *rng.uniform(-10.0, 10.0, size=50)]
        for eps in eps_values:
            assert a1_bounded_spectrum_empty(eps) == spectra_off_axis(eps)

    @pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf, 1e308])
    def test_a1_non_finite_refused(self, eps):
        # The eigenvalue loop refused these through numpy's LinAlgError.
        with pytest.raises(ValueError, match="not finite"):
            a1_bounded_spectrum_empty(eps)


def cubic_morse():
    return find_critical_points(parse_polynomial("x^3"), [-3.0])


def cubic_orbit():
    """The connecting orbit of the x^3 - 3x wall, closed at both ends."""
    W, m, i, _ = cubic_wall_data()
    pts = [np.array(p) for p in m.critical_points]
    return integrate_flow(W, m.b, pts[i] + np.array([-1e-3]), (0.0, 60.0), critical_points=pts)


@pytest.mark.parametrize("call, message", [
    (lambda: integrate_flow(parse_polynomial("x^3+y^3"), [3.0, 1.0], np.array([0.3]),
                            (0.0, 1.0)),
     r"expected vector of length 2, got shape \(1,\)"),
    (lambda: homogeneous_decay_check(0.5, {-1: 1.0}, 2.0), "negative-mode input"),
    (lambda: witten_vanishing_check(parse_polynomial("x^3"), 0.0), r"Theta must lie in \(0, 1\)"),
    (lambda: witten_vanishing_check(parse_polynomial("x^3"), 1.0), r"Theta must lie in \(0, 1\)"),
    # (-1, -2) used to wrap to the pair (1, 0) and count 1.
    (lambda: count_bps_solitons(parse_polynomial("x^3"), cubic_morse(), -1, -2),
     r"pair \(-1, -2\) outside 0..1"),
    (lambda: count_bps_solitons(parse_polynomial("x^3"), cubic_morse(), 0, 2),
     r"pair \(0, 2\) outside 0..1"),
    # x^4 with the Morse data of x^3 used to count 0.
    (lambda: count_bps_solitons(parse_polynomial("x^4"), cubic_morse(), 0, 1),
     "W is not the polynomial of the Morse data"),
    # Theta = 1.5 used to return (-1.5, -0.0038); Theta = 0 divided by zero.
    (lambda: homogeneous_decay_check(1.5, {0: 1.0}, 2.0), r"Theta must lie in \(0, 1\)"),
    (lambda: homogeneous_decay_check(0.0, {0: 1.0}, 2.0), r"Theta must lie in \(0, 1\)"),
    # T = 0, nan and inf used to fail inside numpy (LinAlgError, TypeError).
    (lambda: homogeneous_decay_check(0.5, {0: 1.0}, 0.0), "T must be finite and positive, got 0.0"),
    (lambda: homogeneous_decay_check(0.5, {0: 1.0}, math.nan), "T must be finite and positive, got nan"),
    (lambda: homogeneous_decay_check(0.5, {0: 1.0}, math.inf), "T must be finite and positive, got inf"),
    # A zero field has no sample to fit; both raised TypeError.
    (lambda: homogeneous_decay_check(0.5, {}, 2.0),
     r"fewer than two samples of sup\|v\| above 1e-300 to fit a decay rate"),
    (lambda: homogeneous_decay_check(0.5, {0: 0}, 2.0),
     r"fewer than two samples of sup\|v\| above 1e-300 to fit a decay rate"),
    # Both used to return True without running a start.
    (lambda: witten_vanishing_check(parse_polynomial("x^3"), 1 / 3, n_starts=0),
     "need at least one start, got n_starts=0"),
    (lambda: witten_vanishing_check(parse_polynomial("x^3"), 1 / 3, n_starts=-5),
     "need at least one start, got n_starts=-5"),
    # [] used to read as b = 0 (residual 5.997); [-3, 7] dropped the 7.
    (lambda: energy_identity_check(parse_polynomial("x^3"), [], cubic_orbit()),
     r"expected b of length 1, got shape \(0,\)"),
    (lambda: energy_identity_check(parse_polynomial("x^3"), [-3, 7], cubic_orbit()),
     r"expected b of length 1, got shape \(2,\)"),
], ids=["flow-u0-length", "decay-negative-mode", "witten-theta-0", "witten-theta-1",
        "count-negative-pair", "count-pair-past-mu", "count-other-W",
        "decay-theta-above-1", "decay-theta-0", "decay-T-0", "decay-T-nan", "decay-T-inf",
        "decay-no-modes", "decay-zero-field", "witten-no-starts", "witten-negative-starts",
        "energy-empty-b", "energy-long-b"])
def test_refusals(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()
