"""Command-line surface for the workbench.

One job per invocation.  Reports are plain structured text with a
stable key order: floats print with 12 significant digits, rationals as
"p/q".  Exit codes: 0 success, 2 domain errors (inadmissible types,
irregular perturbations), 1 internal errors.
"""

from __future__ import annotations

import argparse
import ast
import cmath
import math
import operator
import sys
from fractions import Fraction

import numpy as np

from . import graphcalc, lefschetz, morse, soliton, symmetry, wpoly

# Built-in example corpus: the classical chain/dihedral shapes plus the
# two-variable mixed forms exercised throughout the test suite.
CORPUS = (
    "x^3",
    "x^4",
    "x^3+x*y^2",
    "x^4+x*y^2",
    "x^3+y^3",
    "x^3+x*y^3",
)


class DomainError(Exception):
    """User-facing domain failure (exit code 2)."""


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _parse_b(text: str) -> list[complex]:
    out = []
    for tok in text.split(","):
        out.append(wpoly._parse_coefficient(tok.strip()))
    return out


# The --path grammar: numbers, these names and functions, + - * / ** and
# unary signs.  Anything else is refused before a path is ever evaluated.
_PATH_CONSTS = {"pi": math.pi, "e": math.e, "j": 1j}
_PATH_FUNCS = {"exp": cmath.exp, "cos": cmath.cos, "sin": cmath.sin, "sqrt": cmath.sqrt}
_PATH_BINOPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
                ast.Div: operator.truediv, ast.Pow: operator.pow}
_PATH_UNARY = {ast.UAdd: operator.pos, ast.USub: operator.neg}


def _path_term(node, text: str):
    """Closure lam -> value of one whitelisted expression node."""
    if isinstance(node, ast.Constant) and type(node.value) in (int, float, complex):
        v = node.value
        return lambda lam: v
    if isinstance(node, ast.Name) and node.id == "lam":
        return lambda lam: lam
    if isinstance(node, ast.Name) and node.id in _PATH_CONSTS:
        v = _PATH_CONSTS[node.id]
        return lambda lam: v
    if isinstance(node, ast.BinOp) and type(node.op) in _PATH_BINOPS:
        op = _PATH_BINOPS[type(node.op)]
        a, b = _path_term(node.left, text), _path_term(node.right, text)
        return lambda lam: op(a(lam), b(lam))
    if isinstance(node, ast.UnaryOp) and type(node.op) in _PATH_UNARY:
        op, a = _PATH_UNARY[type(node.op)], _path_term(node.operand, text)
        return lambda lam: op(a(lam))
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in _PATH_FUNCS and len(node.args) == 1 and not node.keywords):
        f, a = _PATH_FUNCS[node.func.id], _path_term(node.args[0], text)
        return lambda lam: f(a(lam))
    raise DomainError(f"--path: {ast.get_source_segment(text, node)!r} is not allowed")


def _parse_path(expr: str):
    """Build lambda -> b vector from comma-separated expressions in `lam`."""
    terms = []
    for part in expr.split(","):
        part = part.strip()
        try:
            terms.append(_path_term(ast.parse(part, mode="eval").body, part))
        except SyntaxError as exc:
            raise DomainError(f"--path: cannot parse {part!r}: {exc.msg}") from None
        except RecursionError:
            raise DomainError(f"--path: {part[:20]!r}... is nested too deeply") from None

    def path(lam: float):
        try:
            return [complex(t(lam)) for t in terms]
        except ArithmeticError as exc:
            raise DomainError(f"--path at lam={lam:.6g}: {exc}") from None

    return path


def cmd_analyze(args, out):
    W = wpoly.parse_polynomial(args.polynomial)
    if I := wpoly.degenerate_support(W):
        raise DomainError("degenerate W (support test): positive-dimensional critical set "
                          "on span{" + ",".join(f"x{k + 1}" for k in I) + "}")
    out.append(f"polynomial {W.text()}")
    out.append(f"n_vars {W.n_vars}")
    out.append("weights " + ",".join(_fmt(q) for q in W.weights))
    out.append(f"milnor {wpoly.milnor_number(W)}")
    out.append(f"central_charge {_fmt(symmetry.central_charge(W))}")
    out.append("growth_exponents " + ",".join(_fmt(d) for d in wpoly.growth_exponents(W)))
    out.append(f"group_order {len(symmetry.enumerate_group(W))}")
    return 0


def cmd_group(args, out):
    W = wpoly.parse_polynomial(args.polynomial)
    group = symmetry.enumerate_group(W)
    J = symmetry.exponential_grading(W)
    out.append(f"group_order {len(group)}")
    out.append("grading_element " + ",".join(_fmt(t) for t in J.theta))
    for k, g in enumerate(group):
        out.append(f"element {k} theta " + ",".join(_fmt(t) for t in g.theta)
                   + f" order {g.order}")
    return 0


def cmd_sectors(args, out):
    W = wpoly.parse_polynomial(args.polynomial)
    out.append(symmetry.sector_table(W).rstrip("\n"))
    return 0


def cmd_graph(args, out):
    if not args.graph:
        raise DomainError("graph command needs --graph <path>")
    try:
        with open(args.graph) as fh:
            text = fh.read()
    except OSError as exc:
        raise DomainError(f"--graph {args.graph}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise DomainError(f"--graph {args.graph}: not {exc.encoding} text") from exc
    graph = graphcalc.graph_from_text(text)
    vd = graphcalc.virtual_degree(graph)
    degs, adm = graphcalc.line_bundle_degrees(
        graph.W, graph.total_genus, [t.gamma for t in graph.tails])
    out.append(f"total_genus {graph.total_genus}")
    out.append(f"stable {str(graph.is_stable).lower()}")
    out.append(f"D {_fmt(vd.D)}")
    out.append(f"cycle_degree {_fmt(vd.cycle_degree)}")
    out.append(f"r_value {_fmt(vd.r_value)}")
    out.append(f"two_D_integral {str(vd.two_D_integral).lower()}")
    out.append("line_bundle_degrees " + ",".join(_fmt(d) for d in degs))
    out.append(f"admissible {str(adm).lower()}")
    return 0


def _morse_data(args):
    W = wpoly.parse_polynomial(args.polynomial)
    if not args.b:
        raise DomainError("need --b <comma list of complex>")
    return W, morse.find_critical_points(W, _parse_b(args.b), seed=args.seed)


def cmd_perturb(args, out):
    _, m = _morse_data(args)
    out.append(morse.morse_report(m).rstrip("\n"))
    return 0


def cmd_walls(args, out):
    W = wpoly.parse_polynomial(args.polynomial)
    if not args.path:
        raise DomainError("need --path <expr in lam>")
    crossings = morse.detect_wall_crossings(W, _parse_path(args.path), seed=args.seed)
    out.append(f"n_crossings {len(crossings)}")
    for c in crossings:
        out.append(f"crossing lambda {_fmt(c.lam)} pair {c.pair[0]} {c.pair[1]}")
    return 0


def cmd_solitons(args, out):
    W, m = _morse_data(args)
    if not args.pair:
        raise DomainError("need --pair <i> <j>")
    i, j = args.pair
    if not (1 <= i <= m.mu and 1 <= j <= m.mu):
        raise DomainError(f"--pair {i} {j}: indices must lie in 1..{m.mu}")
    count = soliton.count_bps_solitons(W, m, m.ordering[i - 1], m.ordering[j - 1])
    out.append(f"count {count}")
    return 0


def cmd_wallcross(args, out):
    mu = args.mu
    if mu < 2:
        raise DomainError(f"--mu {mu}: need mu >= 2")
    i, j = args.pair or (1, 2)
    if not (1 <= i < mu and j == i + 1):
        raise DomainError(f"--pair {i} {j}: need adjacent slots i, i+1 in 1..{mu}")
    coords = [[int(i == k) for i in range(mu)] for k in range(mu)]
    state = lefschetz.ThimbleState.make(
        [[0] * mu for _ in range(mu)], n_gamma=2, cycle_coords=coords)
    new = lefschetz.wall_cross(state, i - 1, args.direction, args.r)
    for v in new.cycle_coords:
        out.append("cycle " + " ".join(_fmt(x) for x in v))
    return 0


def cmd_selftest(args, out):
    failures = []

    def check(name, ok):
        out.append(f"{'PASS' if ok else 'FAIL'} {name}")
        if not ok:
            failures.append(name)

    # Weight examples.
    check("weights x^3+x*y^2",
          wpoly.parse_polynomial("x^3+x*y^2").weights == (Fraction(1, 3), Fraction(1, 3)))
    check("weights x^3+x*y^3",
          wpoly.parse_polynomial("x^3+x*y^3").weights == (Fraction(1, 3), Fraction(2, 9)))
    for n in range(3, 9):
        W = wpoly.compute_weights([[n, 0], [1, 2]])
        check(f"weights x^{n}+x*y^2",
              W == (Fraction(1, n), Fraction(n - 1, 2 * n)))

    # Sector identity sweep over the corpus.
    for text in CORPUS:
        W = wpoly.parse_polynomial(text)
        c = symmetry.central_charge(W)
        ok = True
        for g in symmetry.enumerate_group(W):
            s1 = symmetry.sector_data(W, g)
            s2 = symmetry.sector_data(W, g.inverse())
            if s1.iota + s2.iota + s1.n_gamma != c:
                ok = False
        check(f"sector identity sweep {text}", ok)

    # Selection rule for x^3, g=0, k=3.
    W = wpoly.parse_polynomial("x^3")
    group = symmetry.enumerate_group(W)
    ok = True
    for g1 in group:
        for g2 in group:
            for g3 in group:
                _, adm = graphcalc.line_bundle_degrees(W, 0, [g1, g2, g3])
                total = g1.theta[0] + g2.theta[0] + g3.theta[0]
                want = (total - Fraction(1, 3)).denominator == 1
                if adm != want:
                    ok = False
    check("selection rule x^3 g=0 k=3", ok)

    # Morse example.
    m = morse.find_critical_points(wpoly.parse_polynomial("x^3"), [3.0], seed=args.seed)
    vals = sorted(m.critical_values, key=lambda v: v.imag)
    ok = (abs(vals[0] + 2j) < 1e-9 and abs(vals[1] - 2j) < 1e-9)
    check("morse x^3 b=3", ok and morse.is_strongly_regular(m)[0])

    # Braid relation sample.
    rng = np.random.default_rng(args.seed)
    ok = True
    for _ in range(10):
        mu = int(rng.integers(3, 6))
        R = [[0] * mu for _ in range(mu)]
        for i in range(mu):
            for j in range(i + 1, mu):
                R[i][j] = int(rng.integers(-3, 4))
                R[j][i] = -R[i][j]
        st = lefschetz.ThimbleState.make(R, n_gamma=2)
        for j in range(mu - 2):
            lhs = lefschetz.braid_move(lefschetz.braid_move(
                lefschetz.braid_move(st, j), j + 1), j)
            rhs = lefschetz.braid_move(lefschetz.braid_move(
                lefschetz.braid_move(st, j + 1), j), j + 1)
            if lhs.R != rhs.R:
                ok = False
    check("braid relations", ok)

    if failures:
        out.append(f"FAILED {len(failures)}")
        return 2
    out.append("ALL PASS")
    return 0


COMMANDS = {
    "analyze": cmd_analyze,
    "group": cmd_group,
    "sectors": cmd_sectors,
    "graph": cmd_graph,
    "perturb": cmd_perturb,
    "walls": cmd_walls,
    "solitons": cmd_solitons,
    "wallcross": cmd_wallcross,
    "selftest": cmd_selftest,
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="qhsing",
                                description="quasi-homogeneous singularity workbench")
    p.add_argument("command", choices=sorted(COMMANDS))
    p.add_argument("polynomial", nargs="?", default="",
                   help="polynomial text, e.g. 'x^3+x*y^2'")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=str, default="")
    p.add_argument("--graph", type=str, default="")
    p.add_argument("--b", type=str, default="",
                   help="comma list of complex coefficients 'a+bi'")
    p.add_argument("--path", type=str, default="",
                   help="comma list of expressions in lam, e.g. '3*exp(1j*pi*lam)'")
    p.add_argument("--pair", type=int, nargs=2, default=None)
    p.add_argument("--mu", type=int, default=2)
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--direction", choices=["left", "right"], default="left")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out: list[str] = []
    try:
        if args.seed < 0:
            raise DomainError(f"--seed {args.seed}: must be a non-negative integer")
        status = COMMANDS[args.command](args, out)
    except (DomainError, ValueError, morse.MorseError) as exc:
        out.append(f"error {exc}")
        status = 2
    except Exception as exc:  # noqa: BLE001 - internal failure path
        out.append(f"internal_error {exc}")
        status = 1
    report = "\n".join(out) + "\n"
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(report)
        except OSError as exc:
            sys.stderr.write(f"error --out {args.out}: {exc.strerror}\n")
            return 2
    else:
        sys.stdout.write(report)
    return status


if __name__ == "__main__":
    sys.exit(main())
