"""Decorated dual graphs: stability, selection rules, index bookkeeping.

Graphs are immutable: vertices carry a genus, edges carry a balanced
(gamma, gamma^{-1}) decoration pair, tails carry a single decoration.
All degree and index formulas are exact: sums of integer numerators over
a common denominator, so the integrality tests that drive the selection
rules are never subject to rounding.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

from .wpoly import QHPoly, parse_polynomial
from .symmetry import (GroupElement, central_charge, enumerate_group,
                       exponential_grading, is_member, sector_data)

__all__ = [
    "GraphError",
    "Edge",
    "Tail",
    "DecoratedGraph",
    "line_bundle_degrees",
    "witten_index",
    "virtual_degree",
    "VirtualDegree",
    "cut_edge",
    "forget_tail",
    "graph_to_text",
    "graph_from_text",
]


class GraphError(ValueError):
    """Raised on invalid graph data or surgery."""


@dataclass(frozen=True)
class Edge:
    v1: int
    v2: int
    gamma: GroupElement | None = None  # decoration at the v1 end; v2 end carries the inverse


@dataclass(frozen=True)
class Tail:
    vertex: int
    gamma: GroupElement


@dataclass(frozen=True)
class DecoratedGraph:
    """A stable dual graph decorated by symmetry group elements of W."""

    W: QHPoly
    genera: tuple[int, ...]
    edges: tuple[Edge, ...]
    tails: tuple[Tail, ...]
    allow_unstable: bool = False  # soliton-type vertices are representable but flagged

    def __post_init__(self):
        for g in self.genera:
            if g < 0:
                raise GraphError("negative vertex genus")
        nv = len(self.genera)
        for e in self.edges:
            if not (0 <= e.v1 < nv and 0 <= e.v2 < nv):
                raise GraphError("edge endpoint out of range")
            if e.gamma is not None and not is_member(self.W, e.gamma):
                raise GraphError("edge decoration is not a symmetry of W")
        for t in self.tails:
            if not (0 <= t.vertex < nv):
                raise GraphError("tail vertex out of range")
            if not is_member(self.W, t.gamma):
                raise GraphError("tail decoration is not a symmetry of W")
        if not self.allow_unstable:
            for v, k in enumerate(self.valences()):
                if k + 2 * self.genera[v] < 3:
                    raise GraphError(f"vertex {v} unstable: k={k}, g={self.genera[v]}")

    def valences(self) -> list[int]:
        k = [0] * len(self.genera)
        for e in self.edges:
            k[e.v1] += 1
            k[e.v2] += 1
        for t in self.tails:
            k[t.vertex] += 1
        return k

    def n_components(self) -> int:
        nv = len(self.genera)
        parent = list(range(nv))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for e in self.edges:
            ra, rb = find(e.v1), find(e.v2)
            if ra != rb:
                parent[ra] = rb
        return len({find(v) for v in range(nv)})

    def betti_1(self) -> int:
        return len(self.edges) - len(self.genera) + self.n_components()

    @property
    def total_genus(self) -> int:
        return sum(self.genera) + self.betti_1()

    @property
    def is_stable(self) -> bool:
        return all(k + 2 * g >= 3 for k, g in zip(self.valences(), self.genera))


def line_bundle_degrees(W: QHPoly, g: int, tails: Sequence[GroupElement]
                        ) -> tuple[tuple[Fraction, ...], bool]:
    """Per-variable degrees q_i(2g-2+k) - sum of tail phases; admissible
    iff every degree is an integer."""
    if not all(is_member(W, gamma) for gamma in tails):
        raise ValueError("tail decoration is not a symmetry of W")
    # The degree numerators over M = lcm(weight denominator, tail orders).
    n, w = W.weights_over_lcm
    M = math.lcm(w, *(gamma.d for gamma in tails))
    nums = [ni * (2 * g - 2 + len(tails)) * (M // w)
            - sum(gamma.k[i] * (M // gamma.d) for gamma in tails) for i, ni in enumerate(n)]
    return tuple(Fraction(x, M) for x in nums), all(x % M == 0 for x in nums)


def witten_index(W: QHPoly, g: int, tails: Sequence[GroupElement]) -> int:
    """Fredholm index 2*c_hat*(1-g) - 2*sum iota - sum N_gamma, exact.

    A non-integer value signals an inadmissible type; this is
    cross-checked against the degree integrality test.
    """
    secs = [sector_data(W, gamma) for gamma in tails]
    idx = 2 * central_charge(W) * (1 - g) - sum(2 * sec.iota + sec.n_gamma for sec in secs)
    _, admissible = line_bundle_degrees(W, g, tails)
    if idx.denominator != 1:
        if admissible:
            raise RuntimeError("degree test and index integrality disagree")
        raise ValueError(f"non-integer index {idx}: inadmissible type")
    return int(idx)


@dataclass(frozen=True)
class VirtualDegree:
    """Exact dimension bookkeeping for a decorated graph."""

    D: Fraction                  # c_hat*(g-1) + sum of tail iotas
    cycle_degree: Fraction       # 6g-6+2k - 2D - 2#E
    r_value: Fraction            # cycle_degree - sum of tail N_gamma
    two_D_integral: bool         # 2D in Z (half-integer test on D)
    two_D_parity_odd: bool | None  # parity of 2D when integral, else None
    degrees_integral: bool       # every line-bundle degree integral


def virtual_degree(graph: DecoratedGraph) -> VirtualDegree:
    """Dimension-formula data for a decorated graph.

    The half-integer vanishing flag (2D not an integer) and the parity
    of 2D are reported separately from per-variable degree integrality;
    the two tests do not collapse into one emptiness predicate.
    """
    W = graph.W
    g = graph.total_genus
    k = len(graph.tails)
    secs = [sector_data(W, t.gamma) for t in graph.tails]
    # D = c_hat*(g-1) + sum of tail iotas, summed in integers over the
    # lcm M of their denominators.
    parts = [(g - 1, central_charge(W))] + [(1, sec.iota) for sec in secs]
    M = math.lcm(*(x.denominator for _, x in parts))
    D = sum(m * x.numerator * (M // x.denominator) for m, x in parts)
    degree = (6 * g - 6 + 2 * k - 2 * len(graph.edges)) * M - 2 * D
    r = degree - sum(sec.n_gamma for sec in secs) * M
    integral = 2 * D % M == 0
    _, adm = line_bundle_degrees(W, g, [t.gamma for t in graph.tails])
    return VirtualDegree(D=Fraction(D, M), cycle_degree=Fraction(degree, M),
                         r_value=Fraction(r, M), two_D_integral=integral,
                         two_D_parity_odd=(2 * D // M % 2 == 1) if integral else None,
                         degrees_integral=adm)


def cut_edge(graph: DecoratedGraph, edge_index: int) -> DecoratedGraph:
    """Replace a decorated edge by two tails with inverse decorations.

    A loop cut lowers the first Betti number by one; a tree-edge cut
    disconnects the graph.  Either way the vertex genera are unchanged.
    """
    if not (0 <= edge_index < len(graph.edges)):
        raise GraphError("edge index out of range")
    e = graph.edges[edge_index]
    if e.gamma is None:
        raise GraphError("cannot cut an undecorated edge")
    edges = tuple(x for i, x in enumerate(graph.edges) if i != edge_index)
    tails = graph.tails + (Tail(e.v1, e.gamma), Tail(e.v2, e.gamma.inverse()))
    return replace(graph, edges=edges, tails=tails)


def glue_tails(graph: DecoratedGraph, i: int, j: int) -> DecoratedGraph:
    """Inverse of cut_edge: join two tails with inverse decorations."""
    if not (0 <= i < len(graph.tails) and 0 <= j < len(graph.tails)):
        raise GraphError("tail index out of range")
    if i == j:
        raise GraphError("cannot glue a tail to itself")
    ti, tj = graph.tails[i], graph.tails[j]
    if not (ti.gamma * tj.gamma).is_identity:
        raise GraphError("tail decorations are not inverse to each other")
    tails = tuple(t for k, t in enumerate(graph.tails) if k not in (i, j))
    edges = graph.edges + (Edge(ti.vertex, tj.vertex, ti.gamma),)
    return replace(graph, edges=edges, tails=tails)


def forget_tail(graph: DecoratedGraph, tail_index: int) -> DecoratedGraph:
    """Drop a tail decorated with J^{-1}; the result must stay stable."""
    if not (0 <= tail_index < len(graph.tails)):
        raise GraphError("tail index out of range")
    t = graph.tails[tail_index]
    J_inv = exponential_grading(graph.W).inverse()
    if t.gamma != J_inv:
        raise GraphError("only tails decorated with the inverse grading element can be forgotten")
    tails = tuple(x for i, x in enumerate(graph.tails) if i != tail_index)
    out = replace(graph, tails=tails)
    if not out.is_stable:
        raise GraphError("forgetting this tail destabilizes the graph")
    return out


def graph_to_text(graph: DecoratedGraph) -> str:
    """Serialize to the interchange format (group-table indices)."""
    group = enumerate_group(graph.W)
    index = {g: i for i, g in enumerate(group)}
    lines = [f"poly {graph.W.text()}"]
    for v, g in enumerate(graph.genera):
        lines.append(f"vertex {v} genus {g}")
    for e in graph.edges:
        dec = f" gamma {index[e.gamma]}" if e.gamma is not None else ""
        lines.append(f"edge {e.v1} {e.v2}{dec}")
    for t in graph.tails:
        lines.append(f"tail {t.vertex} gamma {index[t.gamma]}")
    return "\n".join(lines) + "\n"


_RECORDS = {
    "vertex": re.compile(r"vertex (-?\d+) genus (-?\d+)"),
    "edge": re.compile(r"edge (-?\d+) (-?\d+)(?: gamma (-?\d+))?"),
    "tail": re.compile(r"tail (-?\d+) gamma (-?\d+)"),
}


def graph_from_text(text: str) -> DecoratedGraph:
    """Parse the interchange format produced by graph_to_text."""
    W = None
    records: list[tuple[str, list[int | None], str]] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "poly":
            if W is not None:
                raise GraphError(f"second poly line {line!r}")
            W = parse_polynomial(" ".join(parts[1:]))
            continue
        if parts[0] not in _RECORDS:
            raise GraphError(f"unknown record {parts[0]!r}")
        match = _RECORDS[parts[0]].fullmatch(" ".join(parts))
        if match is None:
            raise GraphError(f"malformed record {line!r}")
        records.append((parts[0], [None if f is None else int(f) for f in match.groups()], line))
    if W is None:
        raise GraphError("no polynomial given")
    group = enumerate_group(W)

    def element(gi: int, line: str) -> GroupElement:
        if not 0 <= gi < len(group):
            raise GraphError(f"gamma {gi} outside 0..{len(group) - 1} in {line!r}")
        return group[gi]

    vertices, edges, tails = [], [], []
    for head, f, line in records:
        if head == "vertex":
            vertices.append(f)
        elif head == "edge":
            edges.append(Edge(f[0], f[1], None if f[2] is None else element(f[2], line)))
        else:
            tails.append(Tail(f[0], element(f[1], line)))
    ids = sorted(v for v, _ in vertices)
    if ids != list(range(len(ids))):
        raise GraphError(f"vertex ids {ids} are not 0..{len(ids) - 1}, each once")
    return DecoratedGraph(W=W, genera=tuple(g for _, g in sorted(vertices)),
                          edges=tuple(edges), tails=tuple(tails))
