"""Distinguished thimble bases and the moves that act on them.

A ThimbleState is an ordered basis of mu labels with an integer
intersection matrix R (R[i][j] = delta_i o delta_j) and optional
virtual-cycle coordinate vectors expressed over the current basis.
Each move is a list of elementary steps on the basis: ("add", t, k, c)
for delta_t += c * delta_k, ("neg", t) for delta_t = -delta_t, or
("swap", t, k).  R takes each step as a row and a column operation
(M R M^T), the cycle coordinates its inverse transpose (M^{-T} v), and
the labels its swap.  A monodromy h_i is refused unless its determinant
1 + pl_sign * R[i][i] is +-1.  A wall crossing applies a braid move's
steps to the list of cycle vectors alone.  make passes entries through
exact.fraction; the constructor refuses any but an int or a Fraction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import chain
from typing import Sequence

from . import exact

__all__ = [
    "ThimbleState",
    "pl_sign",
    "monodromy_apply",
    "braid_move",
    "braid_move_inverse",
    "orientation_flip",
    "gabrielov_move",
    "wall_cross",
    "casimir",
    "RationalTensor",
    "contract_pm",
]

Matrix = tuple[tuple[Fraction, ...], ...]


def _mat(rows) -> Matrix:
    return tuple(tuple(map(exact.fraction, row)) for row in rows)


def pl_sign(n_gamma: int) -> int:
    """Global sign (-1)^{N(N+1)/2} folded into monodromy coefficients."""
    return -1 if (n_gamma * (n_gamma + 1) // 2) % 2 else 1


@dataclass(frozen=True)
class ThimbleState:
    """Ordered thimble basis with intersection data and tracked cycles."""

    mu: int
    R: Matrix                       # R[i][j] = delta_i o delta_j
    parity: int                     # +1 symmetric, -1 antisymmetric (off-diagonal)
    pl_sign: int                    # sign convention baked into monodromy
    labels: tuple[str, ...]
    cycle_coords: tuple[tuple[Fraction, ...], ...] | None = None

    def __post_init__(self):
        inexact = set(map(type, chain(*self.R, *(self.cycle_coords or ())))) - {int, Fraction}
        if inexact:
            raise ValueError(f"{min(t.__name__ for t in inexact)} entry is not an int or a Fraction")
        if self.parity not in (-1, 1) or self.pl_sign not in (-1, 1):
            raise ValueError("parity and pl_sign must be +-1")
        if len(self.R) != self.mu or any(len(row) != self.mu for row in self.R):
            raise ValueError("intersection matrix has wrong shape")
        R, symmetric = self.R, self.parity == 1
        if any(R[i][j] != (R[j][i] if symmetric else -R[j][i])
               for i in range(self.mu) for j in range(i)):
            raise ValueError("intersection matrix violates its symmetry type")
        if len(self.labels) != self.mu:
            raise ValueError("label count mismatch")
        if self.cycle_coords is not None and any(len(v) != self.mu for v in self.cycle_coords):
            raise ValueError("cycle vector length mismatch")

    @staticmethod
    def make(R, n_gamma: int = 1, labels: Sequence[str] | None = None,
             cycle_coords=None) -> "ThimbleState":
        R = _mat(R)
        mu = len(R)
        parity = 1 if (n_gamma - 1) % 2 == 0 else -1
        labels = tuple(labels) if labels is not None else tuple(f"d{i + 1}" for i in range(mu))
        return ThimbleState(mu=mu, R=R, parity=parity,
                            pl_sign=pl_sign(n_gamma), labels=labels,
                            cycle_coords=None if cycle_coords is None else _mat(cycle_coords))

    def pairing(self, v, w) -> Fraction:
        """Intersection value of two coordinate vectors of length mu in this basis."""
        v, w = _mat([v, w])
        if len(v) != self.mu or len(w) != self.mu:
            raise ValueError(f"vectors of lengths {len(v)} and {len(w)}, not mu={self.mu}")
        return sum((v[i] * self.R[i][j] * w[j] for i in range(self.mu) for j in range(self.mu)),
                   Fraction(0))


def _apply(steps, rows) -> list:
    """The rows after each step in turn, as a row operation."""
    rows = list(rows)
    for op, t, *args in steps:
        if op == "neg":
            rows[t] = [-a for a in rows[t]]
        elif op == "swap":
            rows[t], rows[args[0]] = rows[args[0]], rows[t]
        else:
            k, c = args
            rows[t] = [a + c * b for a, b in zip(rows[t], rows[k])]
    return rows


def _swap_labels(state: ThimbleState, steps) -> tuple[str, ...]:
    return tuple(_apply([s for s in steps if s[0] == "swap"], state.labels))


def _change_basis(state: ThimbleState, steps) -> ThimbleState:
    """The state in the basis M delta, M the product of the steps.

    R becomes M R M^T: the steps on the rows, then on the columns.  The
    cycle coordinates take the steps' inverse transposes, which make
    M^{-T}: v_k -= c * v_t for delta_t += c * delta_k, and a negation or
    a swap is its own.  So the classes they represent are unchanged.
    """
    R = tuple(zip(*_apply(steps, zip(*_apply(steps, state.R)))))     # (M (M R)^T)^T = M R M^T
    coords = state.cycle_coords
    if coords:
        inverse_t = [("add", s[2], s[1], -s[3]) if s[0] == "add" else s for s in steps]
        coords = tuple(zip(*_apply(inverse_t, zip(*coords))))
    return replace(state, R=R, labels=_swap_labels(state, steps), cycle_coords=coords)


def _braid(j: int, c) -> list:
    """delta_j, delta_{j+1} become c * delta_j + delta_{j+1}, delta_j."""
    return [("swap", j, j + 1), ("add", j, j + 1, c)]


def _check_index(state: ThimbleState, *indices: int):
    for i in indices:
        if not (0 <= i < state.mu):
            raise IndexError(f"index {i} out of range for mu={state.mu}")


def monodromy_apply(state: ThimbleState, i: int) -> ThimbleState:
    """Picard-Lefschetz monodromy around critical value i (0-based).

    h_i sends delta_k to delta_k + u_k delta_i with u = pl_sign * R[:, i],
    so delta_i goes to (1 + u_i) delta_i, which must be +-delta_i.
    """
    _check_index(state, i)
    u = [state.pl_sign * row[i] for row in state.R]
    det = 1 + u[i]
    if det not in (1, -1):
        raise ValueError(f"basis change is not unimodular (det {det})")
    steps = [("add", k, i, uk) for k, uk in enumerate(u) if uk and k != i]
    return _change_basis(state, steps + [("neg", i)] * (det == -1))


def braid_move(state: ThimbleState, j: int) -> ThimbleState:
    """Replace positions (j, j+1) by (h_j(delta_{j+1}), delta_j)."""
    _check_index(state, j, j + 1)
    return _change_basis(state, _braid(j, state.pl_sign * state.R[j + 1][j]))


def braid_move_inverse(state: ThimbleState, j: int) -> ThimbleState:
    """Algebraic inverse of braid_move at the same position."""
    _check_index(state, j, j + 1)
    # Undo braid_move's steps with coefficient x, last first.  Requiring braid_move to
    # reproduce the current state pins x from post-move intersection entries alone.
    denom = 1 + state.pl_sign * state.R[j + 1][j + 1]
    if denom == 0:
        raise ValueError("braid inverse undefined for this self-intersection")
    x = exact.fraction(state.pl_sign * state.R[j][j + 1]) / denom
    return _change_basis(state, _braid(j, -x)[::-1])


def orientation_flip(state: ThimbleState, j: int) -> ThimbleState:
    """Flip the orientation of basis element j."""
    _check_index(state, j)
    return _change_basis(state, [("neg", j)])


def gabrielov_move(state: ThimbleState, i: int, j: int) -> ThimbleState:
    """Replace only slot j by h_i(delta_j)."""
    _check_index(state, i, j)
    if i == j:
        raise IndexError("Gabrielov move needs two distinct slots")
    return _change_basis(state, [("add", j, i, state.pl_sign * state.R[j][i])])


def wall_cross(state: ThimbleState, i: int, direction: str,
               r: int | Fraction) -> ThimbleState:
    """Wall-crossing transformation of the virtual-cycle coordinates.

    Left (crossing with Re alpha_i < Re alpha_{i+1}):
        v_i(+)   = v_{i+1}(-) + r * v_i(-)
        v_{i+1}(+) = v_i(-)
    Right is the exact inverse with the same r.  They are the steps of
    braid_move and braid_move_inverse with coefficient r, applied to the
    list of cycle vectors, so the labels of slots i, i+1 swap.  A state
    with no cycle vector at slot i or i + 1, or an inexact r, raises
    ValueError.
    """
    _check_index(state, i, i + 1)
    coords = state.cycle_coords or ()
    if len(coords) < i + 2:
        raise ValueError(f"wall crossing at slot {i} needs cycle vectors {i} and {i + 1}, "
                         f"but the state tracks {len(coords)}")
    r = exact.fraction(r, "r")
    if direction.lower() not in ("left", "right"):
        raise ValueError("direction must be 'left' or 'right'")
    steps = _braid(i, r) if direction.lower() == "left" else _braid(i, -r)[::-1]
    return replace(state, cycle_coords=tuple(map(tuple, _apply(steps, coords))),
                   labels=_swap_labels(state, steps))


@dataclass(frozen=True)
class RationalTensor:
    """Small dense tensor of Fractions, indexed by full tuples."""

    shape: tuple[int, ...]
    data: tuple  # nested tuples matching shape

    @staticmethod
    def from_nested(nested) -> "RationalTensor":
        """Tensor of the nested lists or tuples; ValueError if they are ragged."""
        def conv(x) -> tuple:
            if not isinstance(x, (list, tuple)):
                return (), exact.fraction(x)
            parts = [conv(v) for v in x]
            shapes = {shape for shape, _ in parts}
            if len(shapes) > 1:
                raise ValueError("ragged tensor: entries of shapes "
                                 + ", ".join(map(str, sorted(shapes))))
            return (len(x),) + (shapes.pop() if shapes else ()), tuple(d for _, d in parts)

        return RationalTensor(*conv(nested))

    def __getitem__(self, idx: tuple[int, ...]) -> Fraction:
        x = self.data
        for i in idx:
            x = x[i]
        return x

    @property
    def rank(self) -> int:
        return len(self.shape)


def casimir(pairing) -> RationalTensor:
    """Casimir tensor: coefficients are the inverse of the pairing.

    Coefficient c[i][j] multiplies basis_i (x) basis_j, with
    c = pairing^{-1}.
    """
    return RationalTensor.from_nested(exact.inverse(pairing))


def contract_pm(tensor: RationalTensor, pairing,
                normalization: Fraction | int = 1) -> RationalTensor | Fraction:
    """Contract the last two tensor slots through the pairing.

    out[...] = norm * sum_{a,b} T[..., a, b] * pairing[b][a].  The
    stabilizer-count normalization (e.g. |G|/|<gamma>|) is supplied by
    the caller.  A rank-2 input contracts to a plain Fraction.  An
    inexact normalization or pairing entry raises ValueError.
    """
    if tensor.rank < 2:
        raise ValueError("need at least two slots to contract")
    na, nb = tensor.shape[-2], tensor.shape[-1]
    eta = _mat(pairing)
    if len(eta) != nb or len(eta[0]) != na:
        raise ValueError("pairing dimensions do not match the contracted slots")
    norm = exact.fraction(normalization, "normalization")

    def contract(x, rank: int):
        if rank > 2:
            return tuple(contract(y, rank - 1) for y in x)
        return norm * sum((x[a][b] * eta[b][a] for a in range(na) for b in range(nb)),
                          Fraction(0))

    out = contract(tensor.data, tensor.rank)
    return out if tensor.rank == 2 else RationalTensor(shape=tensor.shape[:-2], data=out)
