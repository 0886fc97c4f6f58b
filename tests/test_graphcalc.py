from fractions import Fraction

import pytest

from qhsing.graphcalc import (DecoratedGraph, Edge, GraphError, Tail,
                              cut_edge, forget_tail, glue_tails,
                              graph_from_text, graph_to_text,
                              line_bundle_degrees, virtual_degree,
                              witten_index)
from qhsing.symmetry import (GroupElement, central_charge, enumerate_group,
                             exponential_grading, sector_data)
from qhsing.wpoly import parse_polynomial

CORPUS = ["x^3", "x^4", "x^3+x*y^2", "x^4+x*y^2", "x^3+y^3", "x^3+x*y^3"]


def F(a, b=1):
    return Fraction(a, b)


def g3(k):
    return GroupElement((F(k, 3),))


class TestGraphBasics:
    def test_stability_enforced(self):
        W = parse_polynomial("x^3")
        with pytest.raises(GraphError):
            DecoratedGraph(W=W, genera=(0,), edges=(),
                           tails=(Tail(0, g3(1)), Tail(0, g3(1))))

    def test_unstable_flagged_but_representable(self):
        W = parse_polynomial("x^3")
        g = DecoratedGraph(W=W, genera=(0,), edges=(Edge(0, 0, g3(1)),),
                           tails=(), allow_unstable=True)
        assert not g.is_stable
        assert g.total_genus == 1

    def test_total_genus_loop(self):
        W = parse_polynomial("x^3")
        g = DecoratedGraph(W=W, genera=(1,), edges=(Edge(0, 0, g3(1)),), tails=())
        assert g.betti_1() == 1
        assert g.total_genus == 2

    def test_total_genus_tree(self):
        W = parse_polynomial("x^3")
        g = DecoratedGraph(W=W, genera=(1, 1), edges=(Edge(0, 1, g3(1)),),
                           tails=(Tail(0, g3(1)), Tail(1, g3(2))))
        assert g.betti_1() == 0
        assert g.total_genus == 2

    def test_bad_decoration_rejected(self):
        W = parse_polynomial("x^3")
        with pytest.raises(GraphError):
            DecoratedGraph(W=W, genera=(1,), edges=(),
                           tails=(Tail(0, GroupElement((F(1, 2),))),))

    def test_edge_endpoint_range(self):
        W = parse_polynomial("x^3")
        with pytest.raises(GraphError):
            DecoratedGraph(W=W, genera=(1,), edges=(Edge(0, 3, g3(1)),), tails=())


class TestSelectionRule:
    def test_point_class(self):
        # x^3, g=0, k=3, phases (1/3, 1/3, 2/3): the zero-dimensional case.
        W = parse_polynomial("x^3")
        graph = DecoratedGraph(W=W, genera=(0,), edges=(),
                               tails=(Tail(0, g3(1)), Tail(0, g3(1)), Tail(0, g3(2))))
        vd = virtual_degree(graph)
        assert vd.D == 0
        assert vd.cycle_degree == 0
        assert vd.degrees_integral and vd.two_D_integral

    def test_inadmissible_triple(self):
        W = parse_polynomial("x^3")
        graph = DecoratedGraph(W=W, genera=(0,), edges=(),
                               tails=tuple(Tail(0, g3(1)) for _ in range(3)))
        vd = virtual_degree(graph)
        assert not vd.degrees_integral
        assert not vd.two_D_integral

    def test_cubic_all_triples(self):
        # Admissible iff the phase sum is 1/3 mod 1.
        W = parse_polynomial("x^3")
        for a in range(3):
            for b in range(3):
                for c in range(3):
                    _, adm = line_bundle_degrees(W, 0, [g3(a), g3(b), g3(c)])
                    want = (F(a + b + c, 3) - F(1, 3)).denominator == 1
                    assert adm == want

    def test_degree_formula_by_hand(self):
        # q(2g-2+k) - sum of phases, one variable, g=1, k=2.
        W = parse_polynomial("x^3")
        degs, adm = line_bundle_degrees(W, 1, [g3(1), g3(0)])
        assert degs == (F(2, 3) - F(1, 3),)
        assert not adm

    def test_non_member_tail_rejected(self):
        W = parse_polynomial("x^3")
        with pytest.raises(ValueError):
            line_bundle_degrees(W, 0, [GroupElement((F(1, 2),))])


    @pytest.mark.parametrize("text", CORPUS + ["x^2*y+y^3*z+z^4"])
    def test_against_fraction_reference(self, text):
        # Degrees, D, cycle degree, r and the 2D flags from plain Fraction sums.
        W = parse_polynomial(text)
        q, c = W.weights, central_charge(W)
        group = enumerate_group(W)
        for a, b in zip(group, group[1:] + group[:1]):
            for g, tails in ((0, [a, b, (a * b).inverse()]), (1, [a, b]), (2, [a]), (0, [a])):
                want = tuple(qi * (2 * g - 2 + len(tails))
                             - sum((t.theta[i] for t in tails), F(0))
                             for i, qi in enumerate(q))
                assert line_bundle_degrees(W, g, tails) == (
                    want, all(x.denominator == 1 for x in want))
                iotas = [sum((t - qi for t, qi in zip(gam.theta, q)), F(0)) for gam in tails]
                D = c * (g - 1) + sum(iotas)
                graph = DecoratedGraph(W=W, genera=(g,), edges=(),
                                       tails=tuple(Tail(0, gam) for gam in tails),
                                       allow_unstable=True)
                vd = virtual_degree(graph)
                assert vd.D == D
                assert vd.cycle_degree == 6 * g - 6 + 2 * len(tails) - 2 * D
                assert vd.r_value == vd.cycle_degree - sum(
                    sum(1 for t in gam.theta if t == 0) for gam in tails)
                assert vd.two_D_integral == ((2 * D).denominator == 1)
                assert vd.two_D_parity_odd == (
                    int(2 * D) % 2 == 1 if vd.two_D_integral else None)


class TestWittenIndex:
    def test_point_class_value(self):
        W = parse_polynomial("x^3")
        assert witten_index(W, 0, [g3(1), g3(1), g3(2)]) == 0

    def test_inadmissible_raises(self):
        W = parse_polynomial("x^3")
        with pytest.raises(ValueError):
            witten_index(W, 0, [g3(1), g3(1), g3(1)])

    @pytest.mark.parametrize("text", CORPUS)
    def test_matches_formula_on_admissible_types(self, text):
        W = parse_polynomial(text)
        c = central_charge(W)
        group = enumerate_group(W)
        for gam1 in group:
            for gam2 in group:
                for g in (0, 1):
                    tails = [gam1, gam2, gam2.inverse()]
                    _, adm = line_bundle_degrees(W, g, tails)
                    if not adm:
                        continue
                    want = 2 * c * (1 - g)
                    for gam in tails:
                        sec = sector_data(W, gam)
                        want -= 2 * sec.iota + sec.n_gamma
                    assert witten_index(W, g, tails) == want

    @pytest.mark.parametrize("text", CORPUS)
    def test_r_value_identity(self, text):
        # r = 6g-6+2k-2D-2#E - sum N, evaluated from independent pieces.
        W = parse_polynomial(text)
        c = central_charge(W)
        group = enumerate_group(W)
        for gam in group:
            graph = DecoratedGraph(W=W, genera=(1,), edges=(),
                                   tails=(Tail(0, gam), Tail(0, gam.inverse())))
            vd = virtual_degree(graph)
            g, k = 1, 2
            secs = [sector_data(W, t.gamma) for t in graph.tails]
            D = c * (g - 1) + sum(s.iota for s in secs)
            assert vd.D == D
            assert vd.r_value == 6 * g - 6 + 2 * k - 2 * D - sum(s.n_gamma for s in secs)


class TestCutGlue:
    def test_loop_cut_bookkeeping(self):
        W = parse_polynomial("x^3")
        graph = DecoratedGraph(W=W, genera=(0,), edges=(Edge(0, 0, g3(1)),),
                               tails=(), allow_unstable=True)
        cut = cut_edge(graph, 0)
        assert cut.total_genus == 0
        assert len(cut.tails) == 2
        assert cut.tails[0].gamma == g3(1) and cut.tails[1].gamma == g3(2)

    def test_tree_cut_splits(self):
        W = parse_polynomial("x^3")
        graph = DecoratedGraph(W=W, genera=(1, 1), edges=(Edge(0, 1, g3(1)),),
                               tails=())
        cut = cut_edge(graph, 0)
        assert cut.n_components() == 2
        assert cut.total_genus == 2

    def test_undecorated_edge_rejected(self):
        W = parse_polynomial("x^3")
        graph = DecoratedGraph(W=W, genera=(1, 1), edges=(Edge(0, 1, None),),
                               tails=())
        with pytest.raises(GraphError):
            cut_edge(graph, 0)

    def test_cut_then_glue_is_identity(self):
        W = parse_polynomial("x^3")
        graph = DecoratedGraph(W=W, genera=(1,), edges=(Edge(0, 0, g3(1)),),
                               tails=(Tail(0, g3(0)),))
        cut = cut_edge(graph, 0)
        back = glue_tails(cut, len(cut.tails) - 2, len(cut.tails) - 1)
        assert back.genera == graph.genera
        assert back.tails == graph.tails
        assert back.edges == graph.edges
        assert virtual_degree(back) == virtual_degree(graph)

    def test_glue_requires_inverse_pair(self):
        W = parse_polynomial("x^3")
        graph = DecoratedGraph(W=W, genera=(1,), edges=(),
                               tails=(Tail(0, g3(1)), Tail(0, g3(1))))
        with pytest.raises(GraphError):
            glue_tails(graph, 0, 1)

    def test_ramond_loop_cut_adds_two(self):
        # Identity decoration fixes the only variable (N=1): cutting the
        # loop raises the cycle degree by exactly 2.
        W = parse_polynomial("x^3")
        graph = DecoratedGraph(W=W, genera=(1,), edges=(Edge(0, 0, g3(0)),),
                               tails=())
        cut = cut_edge(graph, 0)
        assert (virtual_degree(cut).cycle_degree
                == virtual_degree(graph).cycle_degree + 2)

    @pytest.mark.parametrize("text", CORPUS)
    def test_cut_additivity_sweep(self, text):
        # degree' = degree + 2 N_gamma and r is invariant, for every
        # possible loop decoration; driven by iota + iota^-1 + N = c_hat.
        W = parse_polynomial(text)
        for gam in enumerate_group(W):
            graph = DecoratedGraph(W=W, genera=(1,), edges=(Edge(0, 0, gam),),
                                   tails=())
            vd = virtual_degree(graph)
            vd_cut = virtual_degree(cut_edge(graph, 0))
            n_gamma = sector_data(W, gam).n_gamma
            assert vd_cut.cycle_degree == vd.cycle_degree + 2 * n_gamma
            assert vd_cut.r_value == vd.r_value

    @pytest.mark.parametrize("text", CORPUS)
    def test_cut_preserves_admissibility(self, text):
        W = parse_polynomial(text)
        for gam in enumerate_group(W):
            graph = DecoratedGraph(W=W, genera=(1,), edges=(Edge(0, 0, gam),),
                                   tails=())
            adm = virtual_degree(graph).degrees_integral
            adm_cut = virtual_degree(cut_edge(graph, 0)).degrees_integral
            assert adm == adm_cut


class TestForgetTail:
    def test_forget_grading_inverse_tail(self):
        W = parse_polynomial("x^3")
        J_inv = exponential_grading(W).inverse()
        graph = DecoratedGraph(W=W, genera=(1,), edges=(),
                               tails=(Tail(0, J_inv), Tail(0, g3(1))))
        out = forget_tail(graph, 0)
        assert len(out.tails) == 1
        assert out.total_genus == 1

    def test_wrong_decoration_rejected(self):
        W = parse_polynomial("x^3")
        graph = DecoratedGraph(W=W, genera=(1,), edges=(),
                               tails=(Tail(0, g3(1)), Tail(0, g3(1))))
        with pytest.raises(GraphError):
            forget_tail(graph, 0)

    def test_destabilizing_forget_rejected(self):
        W = parse_polynomial("x^3")
        J_inv = exponential_grading(W).inverse()
        graph = DecoratedGraph(W=W, genera=(0,), edges=(),
                               tails=(Tail(0, J_inv), Tail(0, g3(1)), Tail(0, g3(0))))
        with pytest.raises(GraphError):
            forget_tail(graph, 0)


class TestSerialization:
    def test_round_trip(self):
        W = parse_polynomial("x^3+x*y^2")
        group = enumerate_group(W)
        graph = DecoratedGraph(
            W=W, genera=(1, 0),
            edges=(Edge(0, 1, group[1]), Edge(0, 1, None)),
            tails=(Tail(1, group[2]),))
        text = graph_to_text(graph)
        back = graph_from_text(text)
        assert back.genera == graph.genera
        assert back.tails == graph.tails
        assert [(e.v1, e.v2, e.gamma) for e in back.edges] == \
               [(e.v1, e.v2, e.gamma) for e in graph.edges]

    def test_comments_and_blank_lines_ignored(self):
        text = """# a point class
poly x^3
vertex 0 genus 0

tail 0 gamma 1
tail 0 gamma 1
tail 0 gamma 2
"""
        graph = graph_from_text(text)
        assert len(graph.tails) == 3
        assert virtual_degree(graph).cycle_degree == 0

    def test_unknown_record_rejected(self):
        with pytest.raises(GraphError):
            graph_from_text("poly x^3\nwidget 1 2\n")

    @pytest.mark.parametrize("record", [
        "vertex 0", "vertex 0 genus", "vertex 0 genus 0 1", "vertex zero genus 0",
        "tail 0", "tail 0 gamma", "edge 0", "edge 0 0 gamma",
    ])
    def test_missing_field_names_the_line(self, record):
        text = f"poly x^3\nvertex 0 genus 1\n{record}\n"
        with pytest.raises(GraphError, match=record):
            graph_from_text(text)

    @pytest.mark.parametrize("gamma", ["3", "9", "-1"])
    def test_gamma_outside_the_group(self, gamma):
        # |G| = 3 for x^3: the indices are 0, 1, 2.
        text = ("poly x^3\nvertex 0 genus 0\ntail 0 gamma 1\ntail 0 gamma 1\n"
                f"tail 0 gamma {gamma}\n")
        with pytest.raises(GraphError, match=f"tail 0 gamma {gamma}"):
            graph_from_text(text)

    def test_edge_gamma_outside_the_group(self):
        with pytest.raises(GraphError, match="edge 0 0 gamma 5"):
            graph_from_text("poly x^3\nvertex 0 genus 0\nedge 0 0 gamma 5\n")

    @pytest.mark.parametrize("vertices", [
        "vertex 1 genus 1",
        "vertex 0 genus 1\nvertex 0 genus 1",
        "vertex 0 genus 1\nvertex 2 genus 1",
        "vertex -1 genus 1\nvertex 0 genus 1",
    ])
    def test_vertex_ids_must_be_zero_to_n_minus_one(self, vertices):
        with pytest.raises(GraphError, match="vertex ids"):
            graph_from_text(f"poly x^3\n{vertices}\n")

    def test_vertices_in_any_order(self):
        graph = graph_from_text("poly x^3\nvertex 1 genus 2\nvertex 0 genus 1\nedge 0 1\n")
        assert graph.genera == (1, 2)


def six_tails():
    """x^3 at genus 0 with tails g, g, g, g^-1, g^-1, g^-1 for g = 1/3."""
    return DecoratedGraph(W=parse_polynomial("x^3"), genera=(0,), edges=(),
                          tails=tuple(Tail(0, g3(k)) for k in (1, 1, 1, 2, 2, 2)))


@pytest.mark.parametrize("call, message", [
    (lambda: DecoratedGraph(W=parse_polynomial("x^3"), genera=(-1,), edges=(), tails=()),
     "negative vertex genus"),
    (lambda: DecoratedGraph(W=parse_polynomial("x^3"), genera=(1,),
                            edges=(Edge(0, 0, GroupElement((F(1, 2),))),), tails=()),
     "edge decoration is not a symmetry of W"),
    (lambda: DecoratedGraph(W=parse_polynomial("x^3"), genera=(1,), edges=(),
                            tails=(Tail(1, g3(1)),)),
     "tail vertex out of range"),
    (lambda: cut_edge(six_tails(), 0), "edge index out of range"),
    (lambda: cut_edge(six_tails(), -1), "edge index out of range"),
    (lambda: forget_tail(six_tails(), 6), "tail index out of range"),
    (lambda: forget_tail(six_tails(), -1), "tail index out of range"),
    # -1 used to glue the last tail and keep it, 9 to raise a bare IndexError.
    (lambda: glue_tails(six_tails(), -1, 0), "tail index out of range"),
    (lambda: glue_tails(six_tails(), 0, 9), "tail index out of range"),
    (lambda: graph_from_text("vertex 0 genus 1\n"), "no polynomial given"),
    # The second line used to be dropped: the graph was read over x^3.
    (lambda: graph_from_text("poly x^3\npoly x^4\nvertex 0 genus 2\n"),
     r"second poly line 'poly x\^4'"),
], ids=["negative-genus", "edge-decoration", "tail-vertex", "cut-edge", "cut-edge-negative",
        "forget-tail", "forget-tail-negative", "glue-negative", "glue-past-end", "no-poly-line",
        "second-poly-line"])
def test_refusals(call, message):
    with pytest.raises(GraphError, match=f"^{message}$"):
        call()
