import cmath
import itertools

import numpy as np
import pytest

from qhsing import morse
from qhsing.morse import (MorseError, detect_wall_crossings,
                          find_critical_points, is_strongly_regular,
                          morse_report, perturbed_gradient)
from qhsing.wpoly import QHPoly, milnor_number, parse_polynomial


def _no_multistart(*args, **kwargs):
    raise AssertionError("multistart ran on a one-variable summand")


class TestFindCriticalPoints:
    def test_cubic_plus_3x(self):
        # x^3 + 3x: kappa = +-i, alpha = +-2i.
        W = parse_polynomial("x^3")
        m = find_critical_points(W, [3.0])
        assert m.mu == 2
        pts = sorted((p[0] for p in m.critical_points), key=lambda z: z.imag)
        assert abs(pts[0] + 1j) < 1e-10 and abs(pts[1] - 1j) < 1e-10
        vals = sorted(m.critical_values, key=lambda z: z.imag)
        assert abs(vals[0] + 2j) < 1e-10 and abs(vals[1] - 2j) < 1e-10

    def test_cubic_minus_3x(self):
        # x^3 - 3x: kappa = +-1, alpha = -+2.
        W = parse_polynomial("x^3")
        m = find_critical_points(W, [-3.0])
        pts = sorted((p[0] for p in m.critical_points), key=lambda z: z.real)
        assert abs(pts[0] + 1) < 1e-10 and abs(pts[1] - 1) < 1e-10
        vals = {round(v.real, 9) for v in m.critical_values}
        assert vals == {-2.0, 2.0}

    def test_residuals_certified(self):
        W = parse_polynomial("x^3+x*y^2")
        rng = np.random.default_rng(4)
        b = rng.normal(size=2) + 1j * rng.normal(size=2)
        m = find_critical_points(W, b)
        assert m.mu == milnor_number(W) == 4
        for u in m.critical_points:
            assert np.linalg.norm(perturbed_gradient(W, b, u)) < 1e-9
        assert all(sv > 1e-8 for sv in m.hessian_min_singular_value)
        # An irreducible summand still takes the Newton multistart.
        assert m.n_newton > 0

    @pytest.mark.parametrize("text, b", [("x^3+y^3", [1.0]), ("x^3", [1.0, 2.0])])
    def test_wrong_length_b_rejected(self, monkeypatch, text, b):
        # Refused before any Newton step, naming both lengths.
        def no_newton(*args, **kwargs):
            raise AssertionError("Newton ran on a b of the wrong length")
        monkeypatch.setattr(morse, "_newton", no_newton)
        W = parse_polynomial(text)
        with pytest.raises(ValueError, match=rf"len\(b\) = {len(b)} .* n_vars = {W.n_vars}"):
            find_critical_points(W, b)

    def test_zero_perturbation_rejected(self):
        with pytest.raises(MorseError):
            find_critical_points(parse_polynomial("x^3"), [0.0])

    def test_zero_perturbation_of_one_summand_rejected(self):
        # b = (1, 0) leaves y^3 unperturbed: its double point at y = 0 is
        # degenerate, and the refusal names the summand.
        with pytest.raises(MorseError, match="summand of W in x2"):
            find_critical_points(parse_polynomial("x^3+y^3"), [1.0, 0.0])

    @pytest.mark.parametrize("b", [
        (-1.481148 - 0.439745j, 0.560264 - 0.853592j, 0.016294 + 2.171815j),
        (-0.743675 + 2.490586j, -0.989697 - 0.391968j, -0.151097 - 2.819326j),
    ])
    def test_fermat_quartic_sum_products(self, monkeypatch, b):
        # x^4 + y^4 + z^4: the critical points are all 27 products of the
        # roots of 4 x^3 + b_i = 0.  A 200-start multistart over the whole
        # sum used to find only 26 of them at these b; each summand now
        # takes its roots in closed form, with no multistart.
        monkeypatch.setattr(morse, "_multistart", _no_multistart)
        m = find_critical_points(parse_polynomial("x^4+y^4+z^4"), b)
        roots = [[(-c / 4) ** (1 / 3) * cmath.exp(2j * cmath.pi * k / 3) for k in range(3)]
                 for c in b]
        want = sorted(itertools.product(*roots), key=lambda p: [(c.real, c.imag) for c in p])
        got = list(m.critical_points)
        assert m.mu == len(want) == 27
        for w in want:
            k = min(range(len(got)), key=lambda k: np.linalg.norm(np.subtract(got[k], w)))
            assert np.linalg.norm(np.subtract(got.pop(k), w)) < 1e-12

    @pytest.mark.parametrize("text", ["x^3+y^3", "x^3+y^4", "x^3+x*y^2+z^3"])
    def test_direct_sum_matches_whole_multistart(self, text):
        # Reference: the seeded multistart over all of W at once.
        W = parse_polynomial(text)
        rng = np.random.default_rng(21)
        for _ in range(3):
            b = tuple(complex(c) for c in rng.normal(size=W.n_vars) + 1j * rng.normal(size=W.n_vars))
            ref, _ = morse._multistart(W, b, 0)
            m = find_critical_points(W, b)
            assert len(ref) == m.mu == milnor_number(W)
            for u in ref:
                assert min(np.linalg.norm(np.subtract(u, p)) for p in m.critical_points) < 1e-10

    def test_ordering_by_imaginary_part(self):
        W = parse_polynomial("x^4")
        m = find_critical_points(W, [1.0 + 0.5j])
        ordered = [m.critical_values[i] for i in m.ordering]
        assert all(a.imag <= b.imag + 1e-12 for a, b in zip(ordered, ordered[1:]))

    def test_ordering_on_real_wall_by_re(self):
        # x^3 - 3.15x: both Im values are 0 up to float noise (~1e-29);
        # the tie is broken by Re, lower first.
        m = find_critical_points(parse_polynomial("x^3"), [-3.15])
        lo, hi = (m.critical_values[k] for k in m.ordering)
        assert lo.real < 0 < hi.real


class TestClosedForm:
    @pytest.mark.parametrize("n", range(3, 10))
    def test_monomial_against_numpy_roots(self, monkeypatch, n):
        # c x^n + b x: the roots of n c x^(n-1) + b from the eigenvalues of
        # its companion matrix, an oracle that takes no roots of unity.
        monkeypatch.setattr(morse, "_multistart", _no_multistart)
        rng = np.random.default_rng(100 + n)
        for _ in range(5):
            c, b = rng.normal(size=2) + 1j * rng.normal(size=2)
            m = find_critical_points(QHPoly.from_monomials(1, [((n,), c)]), [b])
            want = np.roots([n * c] + [0] * (n - 2) + [b])
            got = [p[0] for p in m.critical_points]
            assert m.mu == len(want) == n - 1
            for w in want:
                k = min(range(len(got)), key=lambda k: abs(got[k] - w))
                assert abs(got.pop(k) - w) < 1e-13

    def test_mixed_sum_runs_one_multistart(self, monkeypatch):
        # x^3 + x y^2 + z^4: the chain summand takes the multistart, the
        # one-variable summand z^4 its closed form.
        calls = []
        multistart = morse._multistart

        def counted(W, *args):
            calls.append(W.n_vars)
            return multistart(W, *args)

        monkeypatch.setattr(morse, "_multistart", counted)
        W = parse_polynomial("x^3+x*y^2+z^4")
        rng = np.random.default_rng(8)
        b = rng.normal(size=3) + 1j * rng.normal(size=3)
        m = find_critical_points(W, b)
        assert calls == [2]
        assert m.mu == milnor_number(W) == 12
        for u in m.critical_points:
            assert np.linalg.norm(perturbed_gradient(W, b, u)) < 1e-9


class TestMultistart:
    @pytest.mark.parametrize("n_starts", [1, 40, 200])
    def test_makes_exactly_n_starts(self, monkeypatch, n_starts):
        # x^3 + y^3 + z^3 - 3xyz is degenerate (critical along a line), so
        # the search never reaches mu = 8 and spends its whole budget.
        starts = []
        newton = morse._newton

        def counted(*args):
            starts.append(args[2])
            return newton(*args)

        monkeypatch.setattr(morse, "_newton", counted)
        W = parse_polynomial("x^3+y^3+z^3-3*x*y*z")
        roots, _ = morse._multistart(W, (1.0 + 0.5j, -0.7j, 0.3), 0, n_starts)
        assert len(roots) < milnor_number(W)
        assert len(starts) == n_starts


class TestStrongRegularity:
    def test_regular_case(self):
        m = find_critical_points(parse_polynomial("x^3"), [3.0])
        ok, witness = is_strongly_regular(m)
        assert ok and witness is None

    def test_wall_case_with_witness(self):
        m = find_critical_points(parse_polynomial("x^3"), [-3.0])
        ok, witness = is_strongly_regular(m)
        assert not ok
        assert witness is not None and len(witness) == 2

    def test_random_b_generically_regular(self):
        W = parse_polynomial("x^3")
        rng = np.random.default_rng(9)
        hits = 0
        for _ in range(10):
            b = [complex(rng.normal(), rng.normal())]
            if is_strongly_regular(find_critical_points(W, b))[0]:
                hits += 1
        assert hits == 10


class TestWallDetection:
    def test_cubic_phase_path(self):
        # b(lam) = 3 e^{i pi lam}: the two imaginary values coincide
        # exactly at lam = 1/3.
        W = parse_polynomial("x^3")
        crossings = detect_wall_crossings(
            W, lambda lam: [3.0 * cmath.exp(1j * cmath.pi * lam)])
        assert len(crossings) == 1
        assert abs(crossings[0].lam - 1.0 / 3.0) < 1e-12

    def test_chamber_path_has_no_crossings(self):
        # Staying inside one chamber: real positive b for x^3.
        W = parse_polynomial("x^3")
        crossings = detect_wall_crossings(W, lambda lam: [3.0 + lam])
        assert crossings == []

    def test_chamber_invariance_of_data(self):
        # Within a chamber the Im-ordering of critical values is constant.
        W = parse_polynomial("x^3")
        perm = None
        for lam in np.linspace(0.0, 0.3, 7):
            b = [3.0 * cmath.exp(1j * cmath.pi * lam)]
            m = find_critical_points(W, b)
            key = tuple(np.argsort([m.critical_values[i].imag for i in m.ordering]))
            if perm is None:
                perm = key
            assert key == perm

    def test_quartic_two_pair_path(self):
        # x^4 + b x along b(lam) = 4 e^{-i pi lam / 2}: distinct pairs of
        # values align at lam = 1/4 and lam = 3/4.
        W = parse_polynomial("x^4")
        crossings = detect_wall_crossings(
            W, lambda lam: [4.0 * cmath.exp(-0.5j * cmath.pi * lam)])
        assert len(crossings) == 2
        assert abs(crossings[0].lam - 0.25) < 1e-12
        assert abs(crossings[1].lam - 0.75) < 1e-12
        assert crossings[0].pair != crossings[1].pair

    @pytest.mark.parametrize("r", [2.0, 2.5, 3.0])
    def test_quartic_walls_on_grid_points(self, r):
        # Both walls fall on continuation grid points lam = k/200, where
        # the Im gap of the aligned pair evaluates to exactly 0.
        W = parse_polynomial("x^4")
        crossings = detect_wall_crossings(
            W, lambda lam: [r * cmath.exp(0.5j * cmath.pi * lam)])
        assert len(crossings) == 2
        assert abs(crossings[0].lam - 0.25) < 1e-12
        assert abs(crossings[1].lam - 0.75) < 1e-12

    def test_direct_sum_wall_aligns_two_disjoint_pairs(self):
        # x^3 + y^3 with b = (3 e^{i pi lam}, 2): the cubic summand's wall
        # at lam = 1/3 aligns (x_1, y) with (x_2, y) for both y at once.
        W = parse_polynomial("x^3+y^3")
        crossings = detect_wall_crossings(
            W, lambda lam: [3.0 * cmath.exp(1j * cmath.pi * lam), 2.0])
        at_third = [c for c in crossings if abs(c.lam - 1.0 / 3.0) < 1e-8]
        assert sorted(c.pair for c in at_third) == [(0, 2), (1, 3)]
        assert [c.lam for c in crossings] == sorted(c.lam for c in crossings)

    def test_quintic_simultaneous_walls(self):
        # x^5 + b x on b = 4 e^{i pi lam}: the critical values form a
        # square turning at rate pi * 5/4, so its sides and diagonals are
        # horizontal at lam = 0.2, 0.4 (two sides), 0.6, 0.8 (two sides).
        W = parse_polynomial("x^5")
        crossings = detect_wall_crossings(
            W, lambda lam: [4.0 * cmath.exp(1j * cmath.pi * lam)])
        want = [0.2, 0.4, 0.4, 0.6, 0.8, 0.8]
        assert len(crossings) == len(want)
        assert all(abs(c.lam - w) < 1e-12 for c, w in zip(crossings, want))
        for a, b in zip(crossings, crossings[1:]):
            if abs(a.lam - b.lam) < 1e-8:
                assert not set(a.pair) & set(b.pair)

    @pytest.mark.parametrize("text, path", [
        ("x^3", lambda lam: [3.0 * cmath.exp(1j * cmath.pi * lam)]),
        ("x^4", lambda lam: [4.0 * cmath.exp(-0.5j * cmath.pi * lam)]),
    ], ids=["cubic", "quartic"])
    def test_tracking_work(self, monkeypatch, text, path):
        # The predictor makes each grid step about one Newton iteration per
        # root, and the refinement a few tracking steps per crossing.
        work = {"steps": 0, "calls": 0, "iterations": 0, "tracking": False}
        track, newton = morse._track_roots, morse._newton

        def counted_track(*args):
            work["steps"] += 1
            work["tracking"] = True
            try:
                return track(*args)
            finally:
                work["tracking"] = False

        def counted_newton(*args):
            u, k = newton(*args)
            if work["tracking"]:
                work["calls"] += 1
                work["iterations"] += k
            return u, k

        monkeypatch.setattr(morse, "_track_roots", counted_track)
        monkeypatch.setattr(morse, "_newton", counted_newton)
        crossings = detect_wall_crossings(parse_polynomial(text), path)
        assert crossings
        assert work["steps"] <= morse.WALL_STEPS + 10 * len(crossings)
        assert work["iterations"] <= 1.5 * work["calls"]

    def test_refused_steps_are_halved(self, monkeypatch):
        # b passes 3e-4 i from 0 at lam = 1/2, where the two roots of x^3
        # nearly collide, so the grid steps there are refused.  The Im values
        # +-2 Im w^{3/2}, w = -b/3, coincide where arg w = -2 pi / 3.
        steps = []
        track = morse._track_roots

        def counted(*args):
            steps.append(track(*args))
            return steps[-1]

        monkeypatch.setattr(morse, "_track_roots", counted)
        crossings = detect_wall_crossings(parse_polynomial("x^3"),
                                          lambda lam: [3 * (lam - 0.5) + 3e-4j])
        assert any(nxt is None for nxt in steps)
        assert len(crossings) == 1
        assert abs(crossings[0].lam - (0.5 + 1e-4 / 3 ** 0.5)) < 1e-12

    def test_step_refused_past_the_depth_raises(self, monkeypatch):
        monkeypatch.setattr(morse, "CONTINUATION_DEPTH", 0)
        with pytest.raises(MorseError, match="loss of tracked root"):
            detect_wall_crossings(parse_polynomial("x^3"),
                                  lambda lam: [3 * (lam - 0.5) + 3e-4j])

    def test_walls_sharing_a_point_refused(self):
        # Both cubic summands are on a wall at lam = 1/3: all four critical
        # values share one Im, so the flipped pairs share critical points.
        W = parse_polynomial("x^3+y^3")
        with pytest.raises(MorseError, match="non-generic"):
            detect_wall_crossings(
                W, lambda lam: [3.0 * cmath.exp(1j * cmath.pi * lam),
                                2.0 * cmath.exp(1j * cmath.pi * lam)])


class TestReport:
    def test_morse_report_fields(self):
        m = find_critical_points(parse_polynomial("x^3"), [3.0])
        rep = morse_report(m)
        assert "mu 2" in rep
        assert "strongly_regular true" in rep
        rep2 = morse_report(find_critical_points(parse_polynomial("x^3"), [-3.0]))
        assert "strongly_regular false" in rep2
        assert "witness_pair" in rep2
