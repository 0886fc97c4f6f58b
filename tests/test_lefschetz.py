import random
from fractions import Fraction

import pytest

from qhsing import exact
from qhsing.lefschetz import (RationalTensor, ThimbleState, braid_move,
                              braid_move_inverse, casimir, contract_pm,
                              gabrielov_move, monodromy_apply,
                              orientation_flip, pl_sign, wall_cross)

F = Fraction


def random_antisym(rng, mu, lo=-3, hi=3):
    R = [[0] * mu for _ in range(mu)]
    for i in range(mu):
        for j in range(i + 1, mu):
            R[i][j] = rng.randint(lo, hi)
            R[j][i] = -R[i][j]
    return R


def random_sym(rng, mu, diag, lo=-3, hi=3):
    R = [[0] * mu for _ in range(mu)]
    for i in range(mu):
        R[i][i] = diag
        for j in range(i + 1, mu):
            R[i][j] = rng.randint(lo, hi)
            R[j][i] = R[i][j]
    return R


def random_state(rng, mu, n_gamma, with_coords=False):
    """Random state of the symmetry type dictated by n_gamma.

    For the symmetric type the diagonal is pinned to -2 * pl_sign, the
    self-intersection for which the braid group acts.
    """
    if (n_gamma - 1) % 2 == 0:
        R = random_sym(rng, mu, -2 * pl_sign(n_gamma))
    else:
        R = random_antisym(rng, mu)
    coords = None
    if with_coords:
        coords = [[F(rng.randint(-5, 5)) for _ in range(mu)] for _ in range(mu)]
    return ThimbleState.make(R, n_gamma=n_gamma, cycle_coords=coords)


class TestConstruction:
    def test_pl_sign_values(self):
        assert [pl_sign(n) for n in range(5)] == [1, -1, -1, 1, 1]

    def test_parity_from_n_gamma(self):
        assert ThimbleState.make([[0, 1], [-1, 0]], n_gamma=2).parity == -1
        assert ThimbleState.make([[2, 1], [1, 2]], n_gamma=1).parity == 1

    def test_symmetry_type_enforced(self):
        with pytest.raises(ValueError):
            ThimbleState.make([[0, 1], [1, 0]], n_gamma=2)
        with pytest.raises(ValueError):
            ThimbleState.make([[0, 1], [-1, 0]], n_gamma=1)

    def test_default_labels(self):
        st = ThimbleState.make([[0, 1], [-1, 0]], n_gamma=2)
        assert st.labels == ("d1", "d2")

    def test_pairing(self):
        st = ThimbleState.make([[2, 1], [1, 2]], n_gamma=1)
        assert st.pairing([1, 0], [0, 1]) == 1
        assert st.pairing([1, 1], [1, 1]) == 6

    def test_float_entries_refused(self):
        # Fraction(0.1) is 3602879701896397/2^55, not 1/10.
        with pytest.raises(ValueError, match=r"^entry 0\.1 is not an int or a Fraction$"):
            ThimbleState.make([[2, 0.1], [0.1, 2]], n_gamma=1)
        with pytest.raises(ValueError, match=r"^entry 0\.5 is not an int or a Fraction$"):
            ThimbleState.make([[2, 1], [1, 2]], n_gamma=1, cycle_coords=[[0.5, 0], [0, 1]])
        with pytest.raises(ValueError, match=r"^entry '1/10' is not an int or a Fraction$"):
            ThimbleState.make([[2, "1/10"], ["1/10", 2]], n_gamma=1)
        st = ThimbleState.make([[2, F(1, 10)], [F(1, 10), 2]], n_gamma=1)
        assert st.R[0][1] == F(1, 10)
        with pytest.raises(ValueError, match="is not an int or a Fraction"):
            st.pairing([0.5, 0], [0, 1])


class TestMonodromy:
    def test_a2_reflection(self):
        # mu=2, one variable: h_0 sends d1 -> -d1, d2 -> d2 - d1.
        st = ThimbleState.make([[2, 1], [1, 2]], n_gamma=1)
        out = monodromy_apply(st, 0)
        # R is preserved by a reflection in its own hyperplane arrangement
        # only up to basis bookkeeping; applying twice returns R exactly.
        back = monodromy_apply(out, 0)
        assert back.R == st.R

    def test_preserves_tracked_pairings(self):
        rng = random.Random(1)
        for n_gamma in (1, 2):
            st = random_state(rng, 4, n_gamma, with_coords=True)
            out = monodromy_apply(st, 2)
            for v1, w1 in zip(st.cycle_coords, out.cycle_coords):
                for v2, w2 in zip(st.cycle_coords, out.cycle_coords):
                    assert st.pairing(v1, v2) == out.pairing(w1, w2)


class TestBraid:
    @pytest.mark.parametrize("n_gamma", [1, 2])
    def test_braid_relation(self, n_gamma):
        rng = random.Random(7)
        for _ in range(25):
            mu = rng.randint(3, 6)
            st = random_state(rng, mu, n_gamma)
            j = rng.randint(0, mu - 3)
            lhs = braid_move(braid_move(braid_move(st, j), j + 1), j)
            rhs = braid_move(braid_move(braid_move(st, j + 1), j), j + 1)
            assert lhs.R == rhs.R

    @pytest.mark.parametrize("n_gamma", [1, 2])
    def test_commuting_relation(self, n_gamma):
        rng = random.Random(8)
        for _ in range(10):
            st = random_state(rng, 5, n_gamma)
            lhs = braid_move(braid_move(st, 0), 3)
            rhs = braid_move(braid_move(st, 3), 0)
            assert lhs.R == rhs.R

    @pytest.mark.parametrize("n_gamma", [1, 2])
    def test_inverse_round_trip(self, n_gamma):
        rng = random.Random(9)
        for _ in range(20):
            st = random_state(rng, 4, n_gamma, with_coords=True)
            j = rng.randint(0, 2)
            fwd = braid_move_inverse(braid_move(st, j), j)
            assert fwd.R == st.R and fwd.cycle_coords == st.cycle_coords
            bwd = braid_move(braid_move_inverse(st, j), j)
            assert bwd.R == st.R and bwd.cycle_coords == st.cycle_coords

    def test_label_swap(self):
        st = ThimbleState.make([[0, 1], [-1, 0]], n_gamma=2,
                               labels=("a", "b"))
        assert braid_move(st, 0).labels == ("b", "a")

    def test_preserves_tracked_pairings(self):
        rng = random.Random(10)
        st = random_state(rng, 4, 2, with_coords=True)
        out = braid_move(st, 1)
        for v1, w1 in zip(st.cycle_coords, out.cycle_coords):
            for v2, w2 in zip(st.cycle_coords, out.cycle_coords):
                assert st.pairing(v1, v2) == out.pairing(w1, w2)


class TestOtherMoves:
    def test_orientation_flip_involution(self):
        rng = random.Random(11)
        st = random_state(rng, 3, 2, with_coords=True)
        assert orientation_flip(orientation_flip(st, 1), 1) == st

    def test_orientation_flip_signs(self):
        st = ThimbleState.make([[0, 2], [-2, 0]], n_gamma=2)
        out = orientation_flip(st, 0)
        assert out.R == ((F(0), F(-2)), (F(2), F(0)))

    def test_gabrielov_single_slot(self):
        st = ThimbleState.make([[2, 1], [1, 2]], n_gamma=1,
                               cycle_coords=[[1, 0], [0, 1]])
        out = gabrielov_move(st, 0, 1)
        # Only slot 1 changed; labels keep their order.
        assert out.labels == st.labels
        back = st  # pairing preservation is the real content
        for v1, w1 in zip(back.cycle_coords, out.cycle_coords):
            for v2, w2 in zip(back.cycle_coords, out.cycle_coords):
                assert back.pairing(v1, v2) == out.pairing(w1, w2)

    def test_gabrielov_same_slot_rejected(self):
        st = ThimbleState.make([[2, 1], [1, 2]], n_gamma=1)
        with pytest.raises(IndexError):
            gabrielov_move(st, 1, 1)

    def test_a2_orbit_reaches_flipped_state(self):
        # Short search over {orientation_flip, braid} words: the state
        # with R[0][1] negated is reachable within length 6.
        start = ThimbleState.make([[2, 1], [1, 2]], n_gamma=1)
        target = ((F(2), F(-1)), (F(-1), F(2)))
        seen = {start.R}
        frontier = [start]
        found = False
        for _ in range(6):
            nxt = []
            for st in frontier:
                for cand in (orientation_flip(st, 0), orientation_flip(st, 1),
                             braid_move(st, 0), braid_move_inverse(st, 0)):
                    if cand.R == target:
                        found = True
                    if cand.R not in seen:
                        seen.add(cand.R)
                        nxt.append(cand)
            frontier = nxt
        assert found


def reference_matrix(state, move, i, j):
    """The basis change M (delta' = M delta) of one move, as Fraction rows."""
    mu, s, R = state.mu, state.pl_sign, state.R
    M = [[F(int(a == b)) for b in range(mu)] for a in range(mu)]
    if move == "monodromy":
        for k in range(mu):
            M[k][i] += s * R[k][i]
    elif move == "braid":
        M[i] = [F(0)] * mu
        M[i][i], M[i][i + 1] = s * R[i + 1][i], F(1)
        M[i + 1] = [F(int(b == i)) for b in range(mu)]
    elif move == "braid_inverse":
        x = F(s * R[i][i + 1]) / (1 + s * R[i + 1][i + 1])
        M[i] = [F(int(b == i + 1)) for b in range(mu)]
        M[i + 1] = [F(0)] * mu
        M[i + 1][i], M[i + 1][i + 1] = F(1), -x
    elif move == "flip":
        M[i][i] = F(-1)
    else:
        M[j][i] += s * R[j][i]
    return M


def reference_move(state, move, i, j):
    """R, labels and cycle coordinates after a move, by full matrix products.

    R becomes M R M^T and each tracked vector v becomes M^{-T} v; a basis
    change with det M other than +-1 is refused.
    """
    mu = state.mu
    M = reference_matrix(state, move, i, j)
    det = exact.det(M)
    if det not in (1, -1):
        raise ValueError(f"basis change is not unimodular (det {det})")
    MR = [[F(0)] * mu for _ in range(mu)]
    for a in range(mu):
        for b in range(mu):
            for k in range(mu):
                MR[a][b] += M[a][k] * state.R[k][b]
    R = [[F(0)] * mu for _ in range(mu)]
    for a in range(mu):
        for b in range(mu):
            for k in range(mu):
                R[a][b] += MR[a][k] * M[b][k]
    labels = list(state.labels)
    if move in ("braid", "braid_inverse"):
        labels[i], labels[i + 1] = labels[i + 1], labels[i]
    Minv = exact.inverse(M)
    coords = [[sum((Minv[k][a] * v[k] for k in range(mu)), F(0)) for a in range(mu)]
              for v in state.cycle_coords]
    return R, labels, coords


MOVES = {
    "monodromy": lambda st, i, j: monodromy_apply(st, i),
    "braid": lambda st, i, j: braid_move(st, i),
    "braid_inverse": lambda st, i, j: braid_move_inverse(st, i),
    "flip": lambda st, i, j: orientation_flip(st, i),
    "gabrielov": lambda st, i, j: gabrielov_move(st, i, j),
}


def random_move_state(rng, mu, n_gamma):
    """Random state with tracked fractional cycles.

    A symmetric diagonal in {-2, 0, 2, 4} makes some monodromies
    non-unimodular and some braid_move_inverse coefficients fractional.
    """
    if (n_gamma - 1) % 2 == 0:
        R = random_sym(rng, mu, 0)
        for k in range(mu):
            R[k][k] = rng.choice([-2, 0, 2, 4])
    else:
        R = random_antisym(rng, mu)
    coords = [[F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(mu)]
              for _ in range(rng.randint(1, 3))]
    return ThimbleState.make(R, n_gamma=n_gamma, cycle_coords=coords)


class TestMovesAgainstMatrixProducts:
    @pytest.mark.parametrize("move", sorted(MOVES))
    def test_move_matches_reference(self, move):
        rng = random.Random(f"elementary-{move}")
        refused = fractional = 0
        for case in range(16):
            mu = 24 if case == 0 else rng.randint(2, 24)
            st = random_move_state(rng, mu, rng.randint(1, 4))
            i = rng.randrange(mu - 1 if move.startswith("braid") else mu)
            j = rng.choice([k for k in range(mu) if k != i])
            if move == "braid_inverse":
                s = st.pl_sign
                x = F(s * st.R[i][i + 1]) / (1 + s * st.R[i + 1][i + 1])
                fractional += x.denominator > 1
            try:
                want = reference_move(st, move, i, j)
            except ValueError as exc:
                refused += 1
                with pytest.raises(ValueError) as got:
                    MOVES[move](st, i, j)
                assert str(got.value) == str(exc)
                continue
            out = MOVES[move](st, i, j)
            assert [list(row) for row in out.R] == want[0]
            assert list(out.labels) == want[1]
            assert [list(v) for v in out.cycle_coords] == want[2]
        assert bool(refused) == (move == "monodromy")
        if move == "braid_inverse":
            assert fractional

    def test_non_unimodular_monodromy_refused(self):
        # det = 1 + pl_sign * R[0][0] = 1 - 4 at n_gamma = 1.
        st = ThimbleState.make([[4, 1], [1, 2]], n_gamma=1, cycle_coords=[[1, 0]])
        with pytest.raises(ValueError, match=r"^basis change is not unimodular \(det -3\)$"):
            monodromy_apply(st, 0)


def reference_wall_cross(state, i, direction, r):
    """Wall crossing with the update of the two cycle vectors written out."""
    for k in (i, i + 1):
        if not (0 <= k < state.mu):
            raise IndexError(f"index {k} out of range for mu={state.mu}")
    coords = [list(v) for v in state.cycle_coords or ()]
    if len(coords) <= i + 1:
        raise ValueError(f"wall crossing at slot {i} needs cycle vectors {i} and {i + 1}, "
                         f"but the state tracks {len(coords)}")
    if not isinstance(r, (int, F)):
        raise ValueError(f"r {r!r} is not an int or a Fraction")
    r = F(r)
    a, b = coords[i], coords[i + 1]
    if direction.lower() == "left":
        new_i, new_ip1 = [bv + r * av for av, bv in zip(a, b)], list(a)
    elif direction.lower() == "right":
        new_i, new_ip1 = list(b), [av - r * bv for av, bv in zip(a, b)]
    else:
        raise ValueError("direction must be 'left' or 'right'")
    coords[i], coords[i + 1] = new_i, new_ip1
    labels = list(state.labels)
    labels[i], labels[i + 1] = labels[i + 1], labels[i]
    return ThimbleState(mu=state.mu, R=state.R, parity=state.parity, pl_sign=state.pl_sign,
                        labels=tuple(labels), cycle_coords=tuple(tuple(v) for v in coords))


def outcome(fn, *args):
    """fn's result, or the type and message of what it raised."""
    try:
        return fn(*args)
    except (ValueError, IndexError) as exc:
        return type(exc), str(exc)


class TestWallCross:
    def make_state(self, coords):
        return ThimbleState.make([[0, 1], [-1, 0]], n_gamma=2,
                                 cycle_coords=coords)

    def test_r_zero_is_swap(self):
        st = self.make_state([[2, 3], [5, 7]])
        out = wall_cross(st, 0, "left", 0)
        assert out.cycle_coords == ((F(5), F(7)), (F(2), F(3)))

    def test_r_one_unit_vectors(self):
        st = self.make_state([[1, 0], [0, 1]])
        out = wall_cross(st, 0, "left", 1)
        assert out.cycle_coords == ((F(1), F(1)), (F(1), F(0)))

    def test_left_right_inverse(self):
        rng = random.Random(13)
        for _ in range(20):
            coords = [[F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(2)]
                      for _ in range(2)]
            r = F(rng.randint(-5, 5))
            st = self.make_state(coords)
            assert wall_cross(wall_cross(st, 0, "left", r), 0, "right", r) == st
            assert wall_cross(wall_cross(st, 0, "right", r), 0, "left", r) == st

    def test_requires_coords(self):
        st = ThimbleState.make([[0, 1], [-1, 0]], n_gamma=2)
        with pytest.raises(ValueError):
            wall_cross(st, 0, "left", 1)

    def test_float_r_refused(self):
        # Fraction(0.1) is 3602879701896397/2^55, not 1/10.
        st = self.make_state([[1, 0], [0, 1]])
        with pytest.raises(ValueError, match=r"^r 0\.1 is not an int or a Fraction$"):
            wall_cross(st, 0, "left", 0.1)
        with pytest.raises(ValueError, match=r"^r '1/10' is not an int or a Fraction$"):
            wall_cross(st, 0, "left", "1/10")

    def test_missing_cycle_vector_refused(self):
        st = ThimbleState.make([[0, 1, 2], [-1, 0, 3], [-2, -3, 0]], n_gamma=2,
                               cycle_coords=[[1, 0, 0]])
        with pytest.raises(ValueError, match=r"^wall crossing at slot 0 needs cycle vectors "
                                             r"0 and 1, but the state tracks 1$"):
            wall_cross(st, 0, "left", 1)

    def test_bad_direction(self):
        st = self.make_state([[1, 0], [0, 1]])
        with pytest.raises(ValueError):
            wall_cross(st, 0, "up", 1)

    def test_matches_written_out_update(self):
        rng = random.Random("wall-cross-reference")
        kinds, refused = set(), {"inexact r": 0, "too few vectors": 0}
        for case in range(600):
            mu, n_gamma = rng.randint(2, 8), rng.randint(1, 4)
            R = random_sym(rng, mu, 0) if n_gamma % 2 else random_antisym(rng, mu)
            n_cycles = rng.randint(1, mu + 1)
            coords = [[F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(mu)]
                      for _ in range(n_cycles)]
            st = ThimbleState.make(R, n_gamma=n_gamma,
                                   cycle_coords=None if case % 50 == 0 else coords)
            i = rng.randint(-1, mu - 1)
            r = rng.choice([0, 1, -1, 2, F(rng.randint(-9, 9), rng.randint(1, 4)), 0.5, "1/3"])
            direction = rng.choice(["left", "right", "Left", "RIGHT"])
            # The written-out update read both cycle vectors before the direction, so an
            # unknown direction is drawn only where both vectors exist.
            if 0 <= i and i + 1 < min(mu, n_cycles) and rng.random() < 0.1:
                direction = "up"
            want = outcome(reference_wall_cross, st, i, direction, r)
            got = outcome(wall_cross, st, i, direction, r)
            assert got == want
            if isinstance(want, ThimbleState):
                assert all(type(x) is F for v in got.cycle_coords for x in v)
                kinds.add("crossed")
            else:
                kinds.add(want[0])
                refused["inexact r"] += "is not an int or a Fraction" in want[1]
                refused["too few vectors"] += "needs cycle vectors" in want[1]
        assert kinds == {"crossed", ValueError, IndexError}
        assert all(refused.values())


class TestTensors:
    def test_casimir_identity(self):
        c = casimir([[1, 0], [0, 1]])
        assert c.data == ((F(1), F(0)), (F(0), F(1)))

    def test_casimir_diagonal(self):
        c = casimir([[2, 0], [0, 2]])
        assert c[(0, 0)] == F(1, 2) and c[(1, 1)] == F(1, 2)

    def test_casimir_singular_pairing(self):
        with pytest.raises(ValueError):
            casimir([[1, 1], [1, 1]])

    def test_casimir_basis_covariance(self):
        # Under delta' = M delta the pairing becomes M R M^T and the
        # Casimir coefficients must become M^{-T} c M^{-1}; realized by
        # recomputing from the braided state's pairing matrix.
        st = ThimbleState.make([[2, 1], [1, 2]], n_gamma=1)
        out = braid_move(st, 0)
        c_new = casimir([[int(v) for v in row] for row in out.R])
        # Invariance check through full contraction with the new pairing:
        # sum_ij c^{ij} eta_{ji} = mu in any basis.
        total = sum(c_new[(i, j)] * out.R[j][i] for i in range(2) for j in range(2))
        assert total == 2

    def test_contract_rank2(self):
        T = RationalTensor.from_nested([[1, 2], [3, 4]])
        assert contract_pm(T, [[1, 0], [0, 1]]) == 5

    def test_contract_normalization(self):
        T = RationalTensor.from_nested([[1, 0], [0, 1]])
        assert contract_pm(T, [[1, 0], [0, 1]], normalization=F(3, 2)) == 3

    def test_contract_higher_rank(self):
        T = RationalTensor.from_nested([[[1, 0], [0, 1]], [[2, 0], [0, 2]]])
        out = contract_pm(T, [[1, 0], [0, 1]])
        assert out.shape == (2,)
        assert out.data == (F(2), F(4))

    def test_contract_shape_mismatch(self):
        T = RationalTensor.from_nested([[1, 2], [3, 4]])
        with pytest.raises(ValueError):
            contract_pm(T, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])

    @pytest.mark.parametrize("pairing, norm, name", [
        ([[1, 0], [0, 1]], 0.5, "normalization"),
        ([[1, 0], [0, 0.1]], 1, "entry"),
    ])
    def test_float_refused(self, pairing, norm, name):
        T = RationalTensor.from_nested([[1, 2], [3, 4]])
        with pytest.raises(ValueError, match=f"^{name} .* is not an int or a Fraction$"):
            contract_pm(T, pairing, norm)

    def test_casimir_non_square_refused(self):
        with pytest.raises(ValueError, match="not square"):
            casimir([[2, 0], [0, 2], [1, 1]])

    @pytest.mark.parametrize("nested, shapes", [
        ([[1], [2, 3]], r"\(1,\), \(2,\)"),
        ([[[1, 0], [0, 1]], [[2, 0, 7], [0, 2, 9]]], r"\(2, 2\), \(2, 3\)"),
    ])
    def test_ragged_refused(self, nested, shapes):
        # Both used to be read as their first entry's shape, so contract_pm
        # never read the 3, or the 7 and the 9.
        with pytest.raises(ValueError, match=f"^ragged tensor: entries of shapes {shapes}$"):
            RationalTensor.from_nested(nested)

    def test_contract_matches_index_walk(self):
        rng = random.Random("contract-reference")
        kinds = set()
        for _ in range(300):
            shape = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 4)))
            nested = random_nested(rng, shape)
            T = RationalTensor.from_nested(nested)
            assert T.shape == shape and T.data == reference_nested(nested)
            na, nb = shape[-2:] if len(shape) >= 2 else (2, 2)
            if rng.random() < 0.1:
                nb += 1
            pairing = [[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(na)]
                       for _ in range(nb)]
            norm = rng.choice([1, 3, F(2, 3)])
            want = outcome(reference_contract, T, pairing, norm)
            got = outcome(contract_pm, T, pairing, norm)
            assert got == want
            if isinstance(want, RationalTensor):
                assert all(type(x) is F for x in flatten(got.data))
                kinds.add("tensor")
            elif isinstance(want, F):
                assert type(got) is F
                kinds.add("scalar")
            else:
                kinds.add(want[1])
        assert kinds == {"scalar", "tensor", "need at least two slots to contract",
                         "pairing dimensions do not match the contracted slots"}


def random_nested(rng, shape):
    if not shape:
        return rng.choice([rng.randint(-5, 5), F(rng.randint(-9, 9), rng.randint(1, 4))])
    return [random_nested(rng, shape[1:]) for _ in range(shape[0])]


def reference_nested(x):
    return tuple(reference_nested(v) for v in x) if isinstance(x, list) else F(x)


def flatten(data):
    return [y for x in data for y in flatten(x)] if isinstance(data, tuple) else [data]


def reference_contract(tensor, pairing, normalization):
    """contract_pm by a walk over every output index, reading entries by full tuples."""
    if tensor.rank < 2:
        raise ValueError("need at least two slots to contract")
    na, nb = tensor.shape[-2], tensor.shape[-1]
    eta = [[F(v) for v in row] for row in pairing]
    if len(eta) != nb or len(eta[0]) != na:
        raise ValueError("pairing dimensions do not match the contracted slots")
    norm, out_shape = F(normalization), tensor.shape[:-2]

    def contract_at(prefix):
        total = F(0)
        for a in range(na):
            for b in range(nb):
                total += tensor[prefix + (a, b)] * eta[b][a]
        return norm * total

    def build(dim, prefix):
        if dim == len(out_shape):
            return contract_at(prefix)
        return tuple(build(dim + 1, prefix + (k,)) for k in range(out_shape[dim]))

    return build(0, ()) if not out_shape else RationalTensor(out_shape, build(0, ()))


@pytest.mark.parametrize("call, message", [
    (lambda: ThimbleState.make([[0, 1]], n_gamma=2), "intersection matrix has wrong shape"),
    (lambda: ThimbleState.make([[0, 1], [-1, 0]], n_gamma=2, labels=["a"]),
     "label count mismatch"),
    (lambda: ThimbleState.make([[0, 1], [-1, 0]], n_gamma=2, cycle_coords=[[1, 0, 0]]),
     "cycle vector length mismatch"),
    # The extra entry used to be dropped: the pairing read 1.
    (lambda: ThimbleState.make([[2, 1], [1, 2]]).pairing([1, 0, 5], [0, 1]),
     "vectors of lengths 3 and 2, not mu=2"),
    (lambda: ThimbleState.make([[2, 1], [1, 2]]).pairing([1, 0], [1]),
     "vectors of lengths 2 and 1, not mu=2"),
    # 1 + pl_sign * R[1][1] = 1 - 1 at n_gamma = 1.
    (lambda: braid_move_inverse(ThimbleState.make([[2, 0], [0, 1]], n_gamma=1), 0),
     "braid inverse undefined for this self-intersection"),
], ids=["shape", "labels", "cycle-length", "long-vector", "short-vector", "braid-inverse"])
def test_refusals(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()
