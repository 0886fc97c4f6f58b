import itertools
import random
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from qhsing import exact
from qhsing.lefschetz import RationalTensor, ThimbleState, casimir, contract_pm, wall_cross
from qhsing.symmetry import GroupElement, enumerate_group
from qhsing.wpoly import WeightError, compute_weights, parse_polynomial


def leibniz_det(A):
    """Permutation-sum determinant, independent of any elimination."""
    n = len(A)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = -1 if inversions % 2 else 1
        for i in range(n):
            term *= A[i][perm[i]]
        total += term
    return total


def random_matrices(seed, count=40):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 5)
        # Small entries make singular matrices common enough to be covered.
        yield [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]


class TestDet:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_leibniz(self, seed):
        for A in random_matrices(seed):
            assert exact.det(A) == leibniz_det(A)

    def test_singular_is_zero(self):
        assert exact.det([[1, 2], [2, 4]]) == 0

    def test_non_square_refused(self):
        # Elimination on the first two columns alone used to return -3.
        with pytest.raises(ValueError, match=r"^matrix is not square: row lengths \[3, 3\]$"):
            exact.det([[1, 2, 3], [4, 5, 6]])


class TestInverse:
    @pytest.mark.parametrize("seed", range(5))
    def test_product_is_identity(self, seed):
        for A in random_matrices(seed):
            if leibniz_det(A) == 0:
                with pytest.raises(exact.RankError):
                    exact.inverse(A)
                continue
            inv = exact.inverse(A)
            n = len(A)
            for i in range(n):
                for j in range(n):
                    assert sum(A[i][k] * inv[k][j] for k in range(n)) == int(i == j)

    def test_rational_entries(self):
        A = [[Fraction(1, 2), 1], [Fraction(1, 3), Fraction(2, 5)]]
        assert exact.inverse(exact.inverse(A)) == A

    def test_non_square_refused(self):
        # A 2 x 3 matrix used to get a 2 x 3 "inverse".
        with pytest.raises(ValueError, match=r"^matrix is not square: row lengths \[3, 3\]$"):
            exact.inverse([[1, 0, 0], [0, 1, 0]])


class TestRank:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_numpy(self, seed):
        rng = random.Random(seed)
        for _ in range(40):
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            A = [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rows)]
            assert exact.rank(A) == np.linalg.matrix_rank(np.array(A, dtype=float))

    def test_square_full_rank_iff_nonzero_det(self):
        for A in random_matrices(0):
            assert (exact.rank(A) == len(A)) == (exact.det(A) != 0)


class TestSolve:
    def test_overdetermined_consistent(self):
        assert exact.solve([[3, 0], [0, 3], [1, 2]], [1, 1, 1]) == (
            Fraction(1, 3), Fraction(1, 3))

    @pytest.mark.parametrize("B, message", [
        ([[1, 1]], "rank-deficient"),
        ([[3, 0], [4, 0]], "rank-deficient"),
        ([[2, 1], [4, 2]], "rank-deficient"),
        ([[3, 0], [0, 3], [2, 2]], "inconsistent"),
        ([[4, 0], [1, 2], [0, 3]], "inconsistent"),
    ])
    def test_weights_refused(self, B, message):
        with pytest.raises(WeightError, match=message):
            compute_weights(B)


class TestGroupPower:
    def test_matches_repeated_multiplication(self):
        for g in enumerate_group(parse_polynomial("x^5+y^7")):
            order = g.order
            identity = GroupElement((Fraction(0),) * g.n_vars)
            up, down = identity, identity
            for k in range(2 * order + 1):
                assert g ** k == up and g ** -k == down
                up, down = up * g, down * g.inverse()


STATE = ThimbleState.make([[0, 1], [-1, 0]], n_gamma=2, cycle_coords=[[1, 0], [0, 1]])
IDENTITY = RationalTensor.from_nested([[1, 0], [0, 1]])

# Every edge where a caller hands the package an exact number, each taking
# the number as x; at x = 2 each call succeeds.
EDGES = {
    "solve": lambda x: exact.solve([[x, 1], [1, 1]], [1, 1]),
    "inverse": lambda x: exact.inverse([[x, 1], [1, 1]]),
    "det": lambda x: exact.det([[x, 1], [1, 1]]),
    "rank": lambda x: exact.rank([[x, 1], [1, 1]]),
    "casimir": lambda x: casimir([[x, 1], [1, 1]]).data,
    "from_nested": lambda x: RationalTensor.from_nested([[x, 1]]).data,
    "ThimbleState.make": lambda x: ThimbleState.make([[x, 1], [1, x]], n_gamma=1).R,
    "pairing": lambda x: STATE.pairing([x, 0], [0, 1]),
    "wall_cross": lambda x: wall_cross(STATE, 0, "left", x).cycle_coords,
    "contract_pm normalization": lambda x: contract_pm(IDENTITY, [[1, 0], [0, 1]], x),
    "contract_pm pairing": lambda x: contract_pm(IDENTITY, [[x, 0], [0, 1]]),
    "GroupElement.from_phases": lambda x: GroupElement.from_phases([x, 0]),
}
INEXACT = pytest.mark.parametrize("x", [0.1, "1/10", Decimal("0.1"), 1j],
                                  ids=["float", "str", "Decimal", "complex"])


class TestOneRule:
    @pytest.mark.parametrize("edge", sorted(EDGES))
    @INEXACT
    def test_inexact_number_refused(self, edge, x):
        # Fraction(0.1) is 3602879701896397/2^55; Fraction("1/10") is text, not a number.
        with pytest.raises(ValueError, match=re.escape(f"{x!r} is not an int or a Fraction")):
            EDGES[edge](x)

    @pytest.mark.parametrize("edge", sorted(EDGES))
    @pytest.mark.parametrize("x", [np.int64(2), Fraction(2)], ids=["int64", "Fraction"])
    def test_rational_number_accepted(self, edge, x):
        assert EDGES[edge](x) == EDGES[edge](2)

    @INEXACT
    def test_group_element_refuses_inexact_phase(self, x):
        message = re.escape(f"phase {x!r} is not an int or a Fraction")
        with pytest.raises(ValueError, match=message):
            GroupElement((Fraction(1, 2), x))

    def test_group_element_accepts_numpy_integer(self):
        assert GroupElement((np.int64(0), Fraction(1, 2))) == GroupElement((0, Fraction(1, 2)))

    def test_fraction_is_returned_unchanged(self):
        x = Fraction(1, 3)
        assert exact.fraction(x) is x

    def test_numpy_integer_becomes_python_integers(self):
        x = exact.fraction(np.int64(-3))
        assert x == -3 and type(x.numerator) is int and type(x.denominator) is int

    def test_value_is_named(self):
        with pytest.raises(ValueError, match=r"^r 0\.25 is not an int or a Fraction$"):
            exact.fraction(0.25, "r")
