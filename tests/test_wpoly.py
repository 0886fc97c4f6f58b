import cmath
import os
import pathlib
import random
import re
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from qhsing import wpoly
from qhsing.morse import MorseError
from qhsing.wpoly import (PolynomialError, WeightError, compute_weights,
                          gradient, growth_exponents, hessian, milnor_number,
                          parse_polynomial, value)

CORPUS = ["x^3", "x^4", "x^3+x*y^2", "x^4+x*y^2", "x^3+y^3", "x^3+x*y^3"]


class TestParse:
    def test_dn_example(self):
        W = parse_polynomial("x^3 + x*y^2")
        assert W.weights == (Fraction(1, 3), Fraction(1, 3))

    def test_single_monomial(self):
        W = parse_polynomial("x^3")
        assert W.weights == (Fraction(1, 3),)

    def test_mixed_two_by_two_system(self):
        # 3q1 = 1 and q1 + 3q2 = 1 solved by hand.
        W = parse_polynomial("x^3 + x*y^3")
        assert W.weights == (Fraction(1, 3), Fraction(2, 9))

    def test_numbered_variables(self):
        W = parse_polynomial("x1^4 + x1*x2^2")
        assert W.weights == (Fraction(1, 4), Fraction(3, 8))

    def test_explicit_coefficients(self):
        W = parse_polynomial("2*x^3 - x*y^2")
        assert set(W.coeffs) == {2 + 0j, -1 + 0j}

    def test_complex_coefficient(self):
        W = parse_polynomial("(1+2i)*x^3")
        assert W.coeffs == (1 + 2j,)

    def test_merge_duplicates(self):
        W = parse_polynomial("x^3 + x^3")
        assert W.coeffs == (2 + 0j,)

    def test_zero_merge_rejected(self):
        with pytest.raises(PolynomialError):
            parse_polynomial("x^3 - x^3")

    def test_syntax_error(self):
        with pytest.raises(PolynomialError):
            parse_polynomial("x^3 + + y")

    def test_constant_rejected(self):
        with pytest.raises(PolynomialError):
            parse_polynomial("x^3 + 5")


def reference_parse(text):
    """parse_polynomial with the terms split by a scan that tracks the paren depth."""
    s = text.replace(" ", "")
    if not s:
        raise PolynomialError("empty polynomial")
    terms = []
    sign, i, depth, start = 1, 0, 0, 0
    if s[0] in "+-":
        sign = -1 if s[0] == "-" else 1
        start = i = 1
    while i <= len(s):
        if i == len(s) or (s[i] in "+-" and depth == 0):
            body = s[start:i]
            if not body:
                raise PolynomialError("empty term")
            terms.append((sign, body))
            if i < len(s):
                sign = -1 if s[i] == "-" else 1
                start = i + 1
        elif s[i] == "(":
            depth += 1
        elif s[i] == ")":
            depth -= 1
        i += 1
    var_indices, parsed = set(), []
    for sgn, body in terms:
        coeff, powers = complex(1.0), []
        for k, f in enumerate(body.split("*")):
            m = re.fullmatch(r"(x\d+|[xyzw])(?:\^(\d+))?", f)
            if m:
                name, exp = m.group(1), int(m.group(2) or 1)
                if exp < 1:
                    raise PolynomialError(f"exponent must be >= 1 in {f!r}")
                if name.startswith("x") and len(name) > 1 and name[1:].isdigit():
                    idx = int(name[1:]) - 1
                    if idx < 0:
                        raise PolynomialError(f"bad variable {name!r}")
                else:
                    idx = {"x": 0, "y": 1, "z": 2, "w": 3}[name]
                powers.append((idx, exp))
                var_indices.add(idx)
            elif k == 0:
                coeff = wpoly._parse_coefficient(f)
            else:
                raise PolynomialError(f"bad factor {f!r}")
        if not powers:
            raise PolynomialError(f"constant term {body!r} not allowed")
        parsed.append((sgn, coeff, powers))
    if not var_indices:
        raise PolynomialError("no variables found")
    n_vars = max(var_indices) + 1
    monomials = []
    for sgn, coeff, powers in parsed:
        row = [0] * n_vars
        for idx, exp in powers:
            row[idx] += exp
        monomials.append((row, sgn * coeff))
    return wpoly.QHPoly.from_monomials(n_vars, monomials)


def parse_outcome(parse, text):
    try:
        return parse(text)
    except ValueError as exc:
        return type(exc), str(exc)


def flat_parens(text):
    """True when every ( closes before the next ( opens, and every ) closes one."""
    depth = 0
    for ch in text:
        depth += {"(": 1, ")": -1}.get(ch, 0)
        if depth not in (0, 1):
            return False
    return depth == 0


# Corpus, README and bench inputs, and coefficients in each accepted form.
PARSE_SEEDS = CORPUS + [
    "x^3+x*y^2+z^4", "x1^4 + x1*x2^2", "2*x^3 - x*y^2", "(1+2i)*x^3", "x^9+x*y^8",
    "x^4*y+y^4*z+z^4*x", "x^3+y^3+z^3-3*x*y*z", "-x^3+(0.5-1.5i)*y^4", "+2.5*x^5+(3i)*y^5",
    "4*x^4+5*x*y^2", "x^2*y+5*x*y^3", "5*x^6+2*y^6+2*z^6", "3*x^3*y+2*x*y^4", "x^3 + (2 - i)*w^3",
]


class TestParseAgainstDepthScan:
    def test_seeded_mutations(self):
        rng = random.Random("parse-reference")
        alphabet = "xyzw0123456789^*+-().i "
        accepted = refused = 0
        for _ in range(4000):
            chars = list(rng.choice(PARSE_SEEDS))
            for _ in range(rng.randint(1, 3)):
                k = rng.randrange(len(chars) + 1)
                edit = rng.randrange(4)
                if edit == 0:
                    chars.insert(k, rng.choice(alphabet))
                elif edit == 1 and k < len(chars):
                    del chars[k]
                elif edit == 2 and k < len(chars):
                    chars[k] = rng.choice(alphabet)
                else:
                    j = rng.randrange(len(chars) + 1)
                    chars[k:k] = chars[min(j, k):max(j, k)]
            text = "".join(chars)
            want = parse_outcome(reference_parse, text)
            got = parse_outcome(parse_polynomial, text)
            if isinstance(want, wpoly.QHPoly):
                assert got == want, text
                accepted += 1
                continue
            refused += 1
            assert got[0] is want[0], text
            if want[0] is PolynomialError or flat_parens(text):
                assert got[0] is PolynomialError or got == want, text
            if flat_parens(text):
                assert got == want, text
        assert accepted > 300 and refused > 2000


class TestWeights:
    @pytest.mark.parametrize("n", range(3, 9))
    def test_dn_family(self, n):
        assert compute_weights([[n, 0], [1, 2]]) == (Fraction(1, n),
                                                     Fraction(n - 1, 2 * n))

    def test_fermat(self):
        assert compute_weights([[3, 0], [0, 3]]) == (Fraction(1, 3), Fraction(1, 3))

    def test_half_weight_rejected(self):
        # q = (1/2, 1/2) solves the system but violates q < 1/2.
        with pytest.raises(WeightError):
            compute_weights([[2, 0], [0, 2], [1, 1]])

    def test_rank_deficient(self):
        with pytest.raises(WeightError):
            compute_weights([[1, 1]])

    def test_inconsistent(self):
        with pytest.raises(WeightError):
            compute_weights([[3, 0], [4, 0]])


class TestCalculus:
    def test_gradient_cubic(self):
        W = parse_polynomial("x^3")
        assert gradient(W, [1.0]) == pytest.approx([3.0])
        assert gradient(W, [0.0]) == pytest.approx([0.0])

    def test_gradient_two_vars(self):
        W = parse_polynomial("x^3 + x*y^2")
        g = gradient(W, [1.0, 1.0])
        assert g == pytest.approx([4.0, 2.0])

    def test_gradient_from_term_table_on_chain(self):
        # x^3 + x*y^2: dW/dx = 3 x^2 + y^2 and dW/dy = 2 x y.
        W = parse_polynomial("x^3 + x*y^2")
        assert milnor_number(W) == 4
        assert "gradient_terms" not in vars(W)  # the exact layers never build it
        rng = np.random.default_rng(3)
        for _ in range(5):
            x, y = rng.normal(size=2) + 1j * rng.normal(size=2)
            g = gradient(W, np.array([x, y]))
            assert type(g) is np.ndarray and g.dtype == complex and g.shape == (2,)
            assert g == pytest.approx([3 * x ** 2 + y ** 2, 2 * x * y], rel=1e-14)
            assert g.tolist() == W.gradient_values([complex(x), complex(y)])
        # Monomials in sorted exponent order: x*y^2, then x^3.
        assert W.gradient_terms == (((1, ((1, 2),)), (3, ((0, 2),))),
                                    ((2, ((0, 1), (1, 1))),))

    def test_hessian_cubic(self):
        W = parse_polynomial("x^3")
        assert np.allclose(hessian(W, [1.0]), [[6.0]])

    def test_hessian_two_vars(self):
        W = parse_polynomial("x^3 + x*y^2")
        H = hessian(W, [1.0, 0.0])
        assert np.allclose(H, [[6.0, 0.0], [0.0, 2.0]])

    def test_hessian_symmetric(self):
        rng = np.random.default_rng(7)
        W = parse_polynomial("x^4 + x*y^2")
        for _ in range(5):
            u = rng.normal(size=2) + 1j * rng.normal(size=2)
            H = hessian(W, u)
            assert np.allclose(H, H.T)

    @pytest.mark.parametrize("text", ["x^5", "x^3+y^4+z^3", "x^4+x*y^3", "x^3*y+x*y^4"])
    def test_hessian_table_matches_monomial_loop(self, text):
        # Reference: the per-monomial loop the term table replaced.  The
        # arithmetic is the same, so the entries agree exactly.
        def by_monomials(W, u):
            H = np.zeros((W.n_vars, W.n_vars), dtype=complex)
            for row, c in zip(W.exponents, W.coeffs):
                for i, ei in enumerate(row):
                    for j, ej in enumerate(row):
                        factor = ei * (ei - 1) if i == j else ei * ej
                        if not factor:
                            continue
                        term = c * factor
                        for k, ek in enumerate(row):
                            p = ek - (k == i) - (k == j)
                            if p:
                                term *= u[k] ** p
                        H[i, j] += term
            return H

        W = parse_polynomial(text)
        rng = np.random.default_rng(8)
        for _ in range(10):
            u = rng.normal(size=W.n_vars) + 1j * rng.normal(size=W.n_vars)
            H = hessian(W, u)
            assert type(H) is np.ndarray and H.dtype == complex
            assert np.array_equal(H, by_monomials(W, u))

    @pytest.mark.parametrize("text", ["x^3", "x^5+y^3+z^4", "x^3*y+y^4", "x^3*y+x*y^4",
                                      "(1+2i)*x^4 - (0.5-1i)*x*y^3 + 3i*z^3"])
    def test_value_table_matches_monomial_loop(self, text):
        # Reference: the per-monomial loop the value term table replaced.
        # It multiplies in the same order, so the values agree bit for bit.
        def by_monomials(W, u):
            total = 0j
            for row, c in zip(W.exponents, W.coeffs):
                term = c
                for ui, e in zip(u, row):
                    if e:
                        term *= ui ** e
                total += term
            return total

        def bits(z):
            return z.real.hex(), z.imag.hex()

        W = parse_polynomial(text)
        rng = np.random.default_rng(9)
        for _ in range(20):
            u = (rng.normal(size=W.n_vars) + 1j * rng.normal(size=W.n_vars)).tolist()
            v = value(W, u)
            assert type(v) is complex
            assert bits(v) == bits(by_monomials(W, u)) == bits(W.value_at(u))
        assert W.value_terms == (W._derivative_terms(),)

    def test_solve_matches_numpy(self):
        rng = np.random.default_rng(12)
        for n in (1, 2, 3, 4):
            for _ in range(10):
                A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
                y = rng.normal(size=n) + 1j * rng.normal(size=n)
                x = wpoly._solve(A.tolist(), y.tolist())
                assert np.allclose(x, np.linalg.solve(A, y), rtol=1e-12, atol=1e-12)
        # A zero leading entry: the first column must be pivoted.
        A = [[0j, 1 + 1j, 2], [3 - 1j, 1, 0.5j], [1, 2j, -1]]
        y = [1j, 2, -3 + 1j]
        assert np.allclose(wpoly._solve(A, y), np.linalg.solve(A, y), rtol=1e-14)
        assert A[0] == [0j, 1 + 1j, 2] and y == [1j, 2, -3 + 1j]  # inputs unchanged

    @pytest.mark.parametrize("A", [[[0j]], [[0, 1], [0, 2]], [[1, 2], [2, 4]],
                                   [[2, 1, 1], [4, 2, 2], [1, 3, 5j]]])
    def test_solve_singular_is_none(self, A):
        assert wpoly._solve(A, [1j] * len(A)) is None

    def test_summands_and_restriction(self):
        W = parse_polynomial("x^3 + x*y^2 + z^4")
        assert W.summands == ((0, 1), (2,))
        V = W.restrict((0, 1))
        assert V.n_vars == 2 and V.weights == W.weights[:2]
        assert V.exponents == ((1, 2), (3, 0)) and V.coeffs == (1, 1)
        assert W.restrict((2,)).exponents == ((4,),)
        assert parse_polynomial("x^3*y + x*y^4").summands == ((0, 1),)
        with pytest.raises(WeightError):
            W.restrict((1,))  # x*y^2 restricted to y is not of weight 1

    def test_dimension_mismatch(self):
        W = parse_polynomial("x^3")
        with pytest.raises(ValueError):
            gradient(W, [1.0, 2.0])


class TestInvariants:
    @pytest.mark.parametrize("text", CORPUS)
    def test_quasi_homogeneity(self, text):
        W = parse_polynomial(text)
        rng = np.random.default_rng(3)
        for k in range(5):
            t = Fraction(k + 1, 7)
            lam = cmath.exp(2j * cmath.pi * float(t))
            u = rng.normal(size=W.n_vars) + 1j * rng.normal(size=W.n_vars)
            scaled = [cmath.exp(2j * cmath.pi * float(t * q)) * c for q, c in zip(W.weights, u)]
            assert abs(value(W, scaled) - lam * value(W, u)) < 1e-10

    @pytest.mark.parametrize("text", CORPUS)
    def test_euler_identity(self, text):
        W = parse_polynomial(text)
        rng = np.random.default_rng(5)
        for _ in range(10):
            u = rng.normal(size=W.n_vars) + 1j * rng.normal(size=W.n_vars)
            g = gradient(W, u)
            lhs = sum(float(q) * ui * gi for q, ui, gi in zip(W.weights, u, g))
            assert abs(lhs - value(W, u)) < 1e-10 * max(1.0, abs(value(W, u)))

    def test_growth_bound_stabilizes(self):
        W = parse_polynomial("x^3 + x*y^2")
        sups = [wpoly.growth_bound_supremum(W, R, n_samples=10_000, seed=1)
                for R in (4.0, 8.0, 16.0)]
        # At desk scale the sampled supremum must stop growing: each
        # doubling of the radius may add at most 5%.
        for prev, cur in zip(sups, sups[1:]):
            assert cur <= prev * 1.05


def _numpy_growth_bound(W, radius, n_samples, seed):
    # Reference: the sampling loop on numpy vectors, one draw each for Re and Im.
    rng = np.random.default_rng(seed)
    deltas = [float(d) for d in growth_exponents(W)]
    n = W.n_vars
    sup = 0.0
    for _ in range(n_samples):
        u = rng.normal(size=n) + 1j * rng.normal(size=n)
        u *= radius * rng.random() ** (1.0 / (2 * n)) / max(np.linalg.norm(u), 1e-30)
        u = u.tolist()
        denom = sum(map(abs, W.gradient_values(u))) + 1.0
        for i in range(n):
            ratio = abs(u[i]) / denom ** deltas[i]
            if ratio > sup:
                sup = ratio
    return sup


class TestGrowthBound:
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_one_draw_is_the_stream_of_two(self, n):
        one, two = np.random.default_rng(n), np.random.default_rng(n)
        xy = one.normal(size=2 * n)
        assert np.array_equal(xy[:n], two.normal(size=n))
        assert np.array_equal(xy[n:], two.normal(size=n))
        assert one.random() == two.random()

    @pytest.mark.parametrize("text", ["x^3", "x^5+y^4", "x^3+y^3+z^3", "x^2*y+y^3",
                                      "x^2*y+y^3*z+z^4", "x^3+x*y^2"])
    def test_matches_numpy_loop(self, text):
        W = parse_polynomial(text)
        for seed, radius in [(1, 4.0), (2, 8.0), (3, 16.0)]:
            want = _numpy_growth_bound(W, radius, 500, seed)
            got = wpoly.growth_bound_supremum(W, radius, n_samples=500, seed=seed)
            assert abs(got - want) <= 1e-15 * want


class TestGrowthExponents:
    def test_cubic(self):
        W = parse_polynomial("x^3")
        assert growth_exponents(W) == (Fraction(1, 2),)

    def test_d4(self):
        W = parse_polynomial("x^4 + x*y^2")
        assert growth_exponents(W) == (Fraction(2, 5), Fraction(3, 5))

    @pytest.mark.parametrize("text", CORPUS)
    def test_all_below_one(self, text):
        W = parse_polynomial(text)
        assert all(d < 1 for d in growth_exponents(W))


class TestMilnor:
    @pytest.mark.parametrize("text,mu", [
        ("x^3", 2),
        ("x^3+x*y^2", 4),
        ("x^3+y^3", 4),
        ("x^4", 3),
        ("x^4+x*y^2", 5),
        ("x^3+x*y^3", 7),
    ])
    def test_corpus(self, text, mu):
        assert milnor_number(parse_polynomial(text)) == mu

    def test_brute_force_oracle(self):
        # Count critical points of x^3 + x*y^2 + b1 x + b2 y for a random
        # generic b via Newton multistart; must equal the product formula.
        W = parse_polynomial("x^3 + x*y^2")
        rng = np.random.default_rng(11)
        b = rng.normal(size=2) + 1j * rng.normal(size=2)
        roots = []
        for _ in range(400):
            u = 3 * (rng.normal(size=2) + 1j * rng.normal(size=2))
            for _ in range(80):
                g = gradient(W, u) + b
                if np.linalg.norm(g) < 1e-11:
                    break
                try:
                    step = np.linalg.solve(hessian(W, u), g)
                except np.linalg.LinAlgError:
                    break
                u = u - step
            if np.linalg.norm(gradient(W, u) + b) < 1e-11:
                if not any(np.linalg.norm(u - r) < 1e-6 for r in roots):
                    roots.append(u)
        assert len(roots) == milnor_number(W) == 4

    # Past the corpus, W whose flat origin stops Newton's residual exit at
    # |u| ~ (tol/5)^(1/4), about 2e-3 for x^5; a stall there is not a
    # nonzero critical point.
    @pytest.mark.parametrize("text", CORPUS + [
        "x^5", "x^6", "x^7", "x^8", "x^5+y^5", "x^3+x*y^4", "x^6+y^3", "x^5+x*y^2",
        "x^3*y+x*y^4", "x^4+y^5"])
    def test_nondegeneracy_attestation(self, text):
        assert wpoly.check_nondegenerate(parse_polynomial(text), n_starts=100)

    def test_support_test_finds_degenerate_line(self):
        # dW/dx vanishes on x = 0, and no monomial is y times a power of y,
        # so dW/dy does too: the whole line x = 0 is critical.
        W = parse_polynomial("x^4+x^2*y^2")
        assert wpoly.degenerate_support(W) == (1,)
        assert not wpoly.check_nondegenerate(W, n_starts=0)

    # Each passes the support test but has a critical line: through
    # (1, 1, 1), on x = -y, on x = +-iy, and on x = -y again.  By weighted
    # Bezout no b gives mu critical points, so the count refuses them.
    @pytest.mark.parametrize("text", [
        "x^3+y^3+z^3-3*x*y*z", "x^3+3*x^2*y+3*x*y^2+y^3", "x^4+2*x^2*y^2+y^4",
        "x^4+x^3*y+x*y^3+y^4"])
    def test_degenerate_past_support_test_is_refused(self, text):
        W = parse_polynomial(text)
        assert wpoly.degenerate_support(W) is None
        for seed in range(4):
            with pytest.raises(MorseError, match="degenerate or unresolved"):
                wpoly.check_nondegenerate(W, seed=seed)

    def test_short_count_is_refused_not_answered(self):
        # x^9 + x y^8 is nondegenerate (mu = 64), but 200 starts do not
        # find all 64 critical points: the answer is a refusal, never False.
        with pytest.raises(MorseError, match="degenerate or unresolved"):
            wpoly.check_nondegenerate(parse_polynomial("x^9+x*y^8"))

    # The bench shapes, with the bench's start budget.
    @pytest.mark.parametrize("text", ["x^3", "x^4+y^4", "x^3+x*y^2", "x^3+y^3+z^3"])
    def test_bench_shapes_at_short_budget(self, text):
        W = parse_polynomial(text)
        assert all(wpoly.check_nondegenerate(W, n_starts=40, seed=seed) for seed in range(20))

    def test_wpoly_imports_without_morse(self):
        # check_nondegenerate imports morse only when it is called.
        src = str(pathlib.Path(wpoly.__file__).parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        code = "import sys, qhsing.wpoly; assert 'qhsing.morse' not in sys.modules"
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)

    # The corpus (which holds the README polynomials) and the bench shapes:
    # Fermat sums, chains x^a + x*y^b and loops x^a*y + x*y^b.
    @pytest.mark.parametrize("text", CORPUS + [
        "x^5", "x^6", "x^3+y^4", "x^4+y^5", "x^3+y^3+z^3", "x^3+y^4+z^4",
        "x^5+x*y^2", "x^2*y+x*y^3", "x^3*y+x*y^3", "x^3*y+x*y^4"])
    def test_support_test_passes_isolated_singularities(self, text):
        assert wpoly.degenerate_support(parse_polynomial(text)) is None


@pytest.mark.parametrize("call, error, message", [
    (lambda: wpoly.QHPoly(0, (), (), ()), PolynomialError, "need at least one variable"),
    (lambda: wpoly.QHPoly(1, ((3, 0),), (1,), (Fraction(1, 3),)), PolynomialError,
     "exponent row length mismatch"),
    (lambda: wpoly.QHPoly(1, ((-3,),), (1,), (Fraction(-1, 3),)), PolynomialError,
     "negative exponent"),
    (lambda: wpoly.QHPoly(1, ((3,),), (0,), (Fraction(1, 3),)), PolynomialError,
     "zero coefficient after merging"),
    (lambda: wpoly.QHPoly(1, ((3,), (3,)), (1, 1), (Fraction(1, 3),)), PolynomialError,
     r"duplicate monomial \(3,\)"),
    (lambda: wpoly.QHPoly(1, ((3,),), (1,), (Fraction(1, 4),)), WeightError,
     r"monomial \(3,\) has weight 3/4 != 1"),
    (lambda: compute_weights([]), WeightError, "empty exponent matrix"),
    (lambda: parse_polynomial(""), PolynomialError, "empty polynomial"),
    (lambda: parse_polynomial("  "), PolynomialError, "empty polynomial"),
], ids=["no-variables", "row-length", "negative-exponent", "zero-coefficient", "duplicate",
        "weight", "empty-exponents", "empty-text", "blank-text"])
def test_refusals(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()


@pytest.mark.parametrize("coeff", ["1234567", "0.1234567", "0.0000001", "2000000", "-2",
                                   "(1+2i)", "(-1.5-0.0000001i)"])
def test_text_parses_back_to_the_polynomial(coeff):
    # :g wrote 1.23457e+06 (refused) and 0.123457 (a different W).
    W = parse_polynomial(f"{coeff}*x^3+y^3")
    assert parse_polynomial(W.text()) == W


@pytest.mark.parametrize("text, rendered", [
    ("x^3+x*y^2", "x1*x2^2 + x1^3"),
    ("2.5*x^3+(1-0.5i)*y^3", "(1-0.5i)*x2^3 + 2.5*x1^3"),
    ("-x^3+0.25*y^3", "0.25*x2^3 - 1*x1^3"),
])
def test_text_keeps_short_coefficients(text, rendered):
    assert parse_polynomial(text).text() == rendered
