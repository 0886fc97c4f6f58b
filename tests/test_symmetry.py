import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from qhsing import exact, symmetry, wpoly
from qhsing.symmetry import (GroupElement, central_charge, direct_sum,
                             enumerate_group, exponential_grading,
                             gluing_involution, is_member,
                             restricted_polynomial, sector_data,
                             sector_table)
from qhsing.wpoly import parse_polynomial, value

CORPUS = ["x^3", "x^4", "x^3+x*y^2", "x^4+x*y^2", "x^3+y^3", "x^3+x*y^3"]


def F(a, b=1):
    return Fraction(a, b)


def full_polynomial(degree, n_vars):
    """The sum of every monomial of the degree in x1..xN, x1^degree first."""
    exps = (e for e in itertools.product(range(degree, -1, -1), repeat=n_vars)
            if sum(e) == degree)
    return "+".join("*".join(f"x{i + 1}^{k}" for i, k in enumerate(e) if k)
                    for e in exps)


class TestGroupElement:
    def test_identity(self):
        e = GroupElement((F(0), F(0)))
        assert e.is_identity and e.order == 1

    def test_mul_mod_one(self):
        a = GroupElement((F(2, 3),))
        assert (a * a).theta == (F(1, 3),)

    def test_inverse(self):
        a = GroupElement((F(1, 3), F(5, 8)))
        assert (a * a.inverse()).is_identity

    def test_pow(self):
        a = GroupElement((F(1, 5),))
        assert (a ** 5).is_identity
        assert (a ** -1) == a.inverse()

    def test_order(self):
        a = GroupElement((F(1, 3), F(1, 4)))
        assert a.order == 12

    def test_phase_range_enforced(self):
        with pytest.raises(ValueError):
            GroupElement((F(3, 2),))

    @pytest.mark.parametrize("phase", [0.5, "1/3"], ids=["float", "str"])
    def test_malformed_phase_is_named(self, phase):
        with pytest.raises(ValueError, match=f"phase {phase!r} is not an int or a Fraction"):
            GroupElement((F(0), phase))

    def test_from_phases_reduces(self):
        assert GroupElement.from_phases([F(7, 3)]).theta == (F(1, 3),)

    @pytest.mark.parametrize("phase", [0.1, "1/3"], ids=["float", "str"])
    def test_from_phases_refuses_malformed_phase(self, phase):
        with pytest.raises(ValueError, match=f"phase {phase!r} is not an int or a Fraction"):
            GroupElement.from_phases([F(1, 2), phase])

    def test_held_over_its_order(self):
        a = GroupElement((F(1, 6), F(1, 2), F(0)))
        assert (a.k, a.d) == ((1, 3, 0), 6)
        assert GroupElement(t for t in a.theta) == a
        assert ((a ** 3).k, (a ** 3).d) == ((1, 1, 0), 2)
        assert GroupElement((F(0),)).d == 1


# Chain and loop groups have elements of several orders in one group.
ARITHMETIC_CORPUS = CORPUS + ["x^2*y+y^3*z+z^4", "x^2*y+y^2*z+z^2*x"]


@pytest.mark.parametrize("text", ARITHMETIC_CORPUS)
def test_integer_arithmetic_matches_fractions(text):
    # Reference: plain Fraction phase arithmetic mod 1.
    group = enumerate_group(parse_polynomial(text))
    for a in group:
        ta = a.theta
        assert all(isinstance(t, Fraction) and 0 <= t < 1 for t in ta)
        assert GroupElement(ta) == a and hash(GroupElement(ta)) == hash(a)
        assert a.order == math.lcm(*(t.denominator for t in ta))
        assert a.is_identity == all(t == 0 for t in ta)
        assert a.inverse().theta == tuple(-t % 1 for t in ta)
        for n in range(-2, a.order + 2):
            assert (a ** n).theta == tuple(n * t % 1 for t in ta)
        for b in group:
            want = tuple((s + t) % 1 for s, t in zip(ta, b.theta))
            assert (a * b).theta == want
            assert a * b == GroupElement(want) and hash(a * b) == hash(GroupElement(want))


class TestEnumerate:
    def test_cubic(self):
        group = enumerate_group(parse_polynomial("x^3"))
        assert [g.theta for g in group] == [(F(0),), (F(1, 3),), (F(2, 3),)]

    def test_fermat_pair(self):
        group = enumerate_group(parse_polynomial("x^3+y^3"))
        assert len(group) == 9
        want = {(F(a, 3), F(b, 3)) for a in range(3) for b in range(3)}
        assert {g.theta for g in group} == want

    def test_d4_cyclic_generated_by_grading_inverse(self):
        W = parse_polynomial("x^4+x*y^2")
        group = enumerate_group(W)
        assert len(group) == 8
        gen = exponential_grading(W).inverse()
        assert {(gen ** k).theta for k in range(8)} == {g.theta for g in group}

    @pytest.mark.parametrize("text", CORPUS)
    def test_group_axioms(self, text):
        group = enumerate_group(parse_polynomial(text))
        assert len(group) <= 64
        elems = {g.theta for g in group}
        for a in group:
            assert a.inverse().theta in elems
            for b in group:
                assert (a * b).theta in elems
        assert GroupElement(tuple(F(0) for _ in group[0].theta)).theta in elems

    @pytest.mark.parametrize("text", CORPUS + [
        # More monomials than variables: the remaining rows are tested.
        "x^3+y^3+z^3+x*y*z", "x^4+y^4+x^2*y^2",
        # The least-|det| rows admit 10 phase vectors; the third row keeps 5.
        "x^5+y^5+x^3*y^2",
        # Three-variable chain and loop: non-Fermat generators.
        "x^2*y+y^3*z+z^4", "x^2*y+y^2*z+z^2*x",
        # Every monomial of the degree: dense exponent matrices.
        pytest.param(full_polynomial(3, 5), id="full-cubic-5-vars"),
        pytest.param(full_polynomial(4, 4), id="full-quartic-4-vars"),
    ])
    def test_brute_force_agreement(self, text):
        # Independent oracle: the order of every element divides |det| of
        # any nonsingular block of n exponent rows, so scanning all phase
        # vectors with that denominator finds the whole group.
        W = parse_polynomial(text)
        group = enumerate_group(W)
        dets = (abs(int(exact.det(rows)))
                for rows in itertools.combinations(W.exponents, W.n_vars))
        d = next(D for D in dets if D)
        found = set()
        for ks in itertools.product(range(d), repeat=W.n_vars):
            g = GroupElement(tuple(F(k, d) for k in ks))
            if is_member(W, g):
                found.add(g.theta)
        assert found == {g.theta for g in group}

    def test_rank_deficient_rejected(self):
        # One monomial in two variables: the symmetry group is a torus.
        W = wpoly.QHPoly(n_vars=2, exponents=((1, 2),), coeffs=(1 + 0j,),
                         weights=(F(1, 3), F(1, 3)))
        with pytest.raises(wpoly.WeightError):
            enumerate_group(W)


class TestSectors:
    def test_cubic_identity_sector(self):
        W = parse_polynomial("x^3")
        sec = sector_data(W, GroupElement((F(0),)))
        assert sec.n_gamma == 1 and sec.is_ramond
        assert sec.iota == F(-1, 3)

    def test_cubic_moving_sectors(self):
        W = parse_polynomial("x^3")
        sec = sector_data(W, GroupElement((F(1, 3),)))
        assert sec.n_gamma == 0 and not sec.is_ramond
        assert sec.iota == 0
        sec2 = sector_data(W, GroupElement((F(2, 3),)))
        assert sec2.iota == F(1, 3)

    def test_central_charge_values(self):
        assert central_charge(parse_polynomial("x^3")) == F(1, 3)
        assert central_charge(parse_polynomial("x^3+x*y^2")) == F(2, 3)
        assert central_charge(parse_polynomial("x^4+x*y^2")) == F(3, 4)

    @pytest.mark.parametrize("text", CORPUS)
    def test_iota_identity_sweep(self, text):
        W = parse_polynomial(text)
        c = central_charge(W)
        for g in enumerate_group(W):
            s1 = sector_data(W, g)
            s2 = sector_data(W, g.inverse())
            assert s1.iota + s2.iota + s1.n_gamma == c

    @pytest.mark.parametrize("text", CORPUS)
    def test_w_gamma_dual_characterization(self, text):
        # Invariant monomials are exactly those supported on the fixed
        # variables of gamma.
        W = parse_polynomial(text)
        for g in enumerate_group(W):
            sec = sector_data(W, g)
            fixed = set(sec.fixed_indices)
            for j, row in enumerate(W.exponents):
                supported = all(i in fixed for i, e in enumerate(row) if e)
                assert (j in sec.w_gamma_monomials) == supported

    def test_non_member_rejected(self):
        W = parse_polynomial("x^3")
        with pytest.raises(ValueError):
            sector_data(W, GroupElement((F(1, 2),)))

    def test_restricted_polynomial(self):
        W = parse_polynomial("x^3+y^3")
        g = GroupElement((F(0), F(1, 3)))
        Wg = restricted_polynomial(W, g)
        assert Wg.n_vars == 1 and Wg.exponents == ((3,),)

    def test_restricted_polynomial_empty(self):
        W = parse_polynomial("x^3")
        assert restricted_polynomial(W, GroupElement((F(1, 3),))) is None


class TestGrading:
    @pytest.mark.parametrize("text", CORPUS)
    def test_grading_is_member(self, text):
        W = parse_polynomial(text)
        J = exponential_grading(W)
        assert J.theta == tuple(W.weights)
        assert is_member(W, J)

    def test_d4_phases(self):
        J = exponential_grading(parse_polynomial("x^4+x*y^2"))
        assert J.theta == (F(1, 4), F(3, 8))


class TestInvolution:
    @pytest.mark.parametrize("text", CORPUS)
    def test_antisymmetry(self, text):
        W = parse_polynomial(text)
        inv = gluing_involution(W)
        rng = np.random.default_rng(2)
        for _ in range(10):
            u = rng.normal(size=W.n_vars) + 1j * rng.normal(size=W.n_vars)
            assert abs(value(W, inv.apply(u)) + value(W, u)) < 1e-10

    @pytest.mark.parametrize("text", CORPUS)
    def test_square_in_group(self, text):
        W = parse_polynomial(text)
        inv = gluing_involution(W)
        assert is_member(W, inv.square())

    def test_cubic_turns(self):
        inv = gluing_involution(parse_polynomial("x^3"))
        assert inv.turns == (F(1, 6),)

    def test_choices_differ_by_group_element(self):
        W = parse_polynomial("x^3+x*y^2")
        i0 = gluing_involution(W, choice=0)
        i1 = gluing_involution(W, choice=1)
        diff = GroupElement.from_phases(
            [a - b for a, b in zip(i1.turns, i0.turns)])
        assert is_member(W, diff)


class TestDirectSum:
    def test_weights_concatenate(self):
        W = direct_sum(parse_polynomial("x^3"), parse_polynomial("x^4"))
        assert W.weights == (F(1, 3), F(1, 4))

    def test_group_is_product(self):
        W1, W2 = parse_polynomial("x^3"), parse_polynomial("x^4")
        W = direct_sum(W1, W2)
        assert len(enumerate_group(W)) == (len(enumerate_group(W1))
                                           * len(enumerate_group(W2)))

    def test_milnor_multiplicative(self):
        W = direct_sum(parse_polynomial("x^3"), parse_polynomial("x^3+x*y^2"))
        assert wpoly.milnor_number(W) == 2 * 4


class TestReport:
    def test_sector_table_shape(self):
        table = sector_table(parse_polynomial("x^3"))
        lines = table.strip().splitlines()
        assert lines[0] == "group_order 3"
        assert len(lines) == 4
        assert all(line.startswith("sector ") for line in lines[1:])


def test_product_across_variable_counts_refused():
    with pytest.raises(ValueError, match="^group elements live on different variable sets$"):
        GroupElement((F(1, 3),)) * GroupElement((F(1, 3), F(0)))


def test_element_on_other_variables_is_no_member():
    assert not is_member(parse_polynomial("x^3"), GroupElement((F(1, 3), F(0))))
    assert not is_member(parse_polynomial("x^3+y^3"), GroupElement((F(1, 3),)))
