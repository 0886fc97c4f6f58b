"""Seeded job lists for the three workloads, and how to run and check each job.

A job is a plain dict: ``kind`` names an entry of ``KINDS`` and the other
keys are the generated inputs.  ``generate(workload, seed)`` builds the job
list from the seed alone; it never calls qhsing.  Each kind has a ``run``
step, the only part that calls qhsing and the only part that is timed as
the job, and a ``check`` step that compares the answer with an independent
oracle from ``oracles``.

qhsing functions are always looked up through their module at call time
(``morse.find_critical_points(...)``), so the traced run sees every call;
importing this module imports qhsing.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import re
from fractions import Fraction

import numpy as np

import oracles as O
from oracles import expect
from qhsing import cli, graphcalc, lefschetz, morse, soliton, symmetry, wpoly

# Known defects of the program.  Jobs that hit them stay in the job list
# and count as failed, but they do not flip the run's "correct" flag.
KNOWN_TS_PAIR = "N=2 one-summand soliton pair counted 0 (ROADMAP open item 2)"
KNOWN_GRID_WALL = "wall on a continuation grid point with Im gap exactly 0 is skipped"
KNOWN_PAIR_ORDER = "CLI pair numbering on a real wall follows float noise in Im"


# -- Input helpers ---------------------------------------------------------

VARS = ("x", "y", "z")


def poly_text(terms) -> str:
    """Render [(coeff, exps), ...] in the x, y, z input grammar."""
    parts = []
    for c, exps in terms:
        factors = [v if e == 1 else f"{v}^{e}" for v, e in zip(VARS, exps) if e]
        head = "" if c == 1 else f"{c}*"
        parts.append(head + "*".join(factors))
    return "+".join(parts)


def fermat(exps, coeffs=None):
    n = len(exps)
    coeffs = coeffs or [1] * n
    return [(c, [a if k == i else 0 for k in range(n)])
            for i, (a, c) in enumerate(zip(exps, coeffs))]


def chain(a, b, coeffs=(1, 1)):
    """x^a + x y^b."""
    return [(coeffs[0], [a, 0]), (coeffs[1], [1, b])]


def loop(a, b, coeffs=(1, 1)):
    """x^a y + x y^b."""
    return [(coeffs[0], [a, 1]), (coeffs[1], [1, b])]


def rows_of(terms):
    return [list(e) for _, e in terms]


def frac_str(q) -> list[str]:
    return [str(x) for x in q]


def fracs(strs) -> tuple[Fraction, ...]:
    return tuple(Fraction(s) for s in strs)


def rand_b(rng: random.Random, lo=1.0, hi=3.0) -> list[float]:
    """A complex coefficient with |b| in [lo, hi], as [re, im] to 6 decimals."""
    r = rng.uniform(lo, hi)
    t = rng.uniform(0, 2 * math.pi)
    return [round(r * math.cos(t), 6), round(r * math.sin(t), 6)]


def cplx(pair) -> complex:
    return complex(pair[0], pair[1])


def b_text(pair) -> str:
    return f"{pair[0]:.6f}{pair[1]:+.6f}i"


def sorted_group(rows):
    return sorted(O.brute_group(rows))


# -- CLI helpers -----------------------------------------------------------

def cli_run(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            status = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects the command line
            status = exc.code
    return status, buf.getvalue()


def cli_lines(result, key=None):
    """Split report lines, those starting with `key` only when one is given."""
    status, text = result
    if status != 0:
        raise Refused(f"cli exit {status}: {text.strip()[:200]}")
    lines = [ln.split() for ln in text.splitlines()]
    return [ln for ln in lines if ln and (key is None or ln[0] == key)]


def cli_fields(result):
    """The report's `key value` lines as a dict."""
    return {ln[0]: ln[1] for ln in cli_lines(result) if len(ln) == 2}


class Refused(RuntimeError):
    """The program refused the job with a domain error."""


_CPLX = re.compile(r"([+-]?[0-9.]+(?:e[+-]?\d+)?)([+-][0-9.]+(?:e[+-]?\d+)?)i")


def parse_cplx(tok: str) -> complex:
    m = _CPLX.fullmatch(tok)
    expect(m is not None, f"unparsable complex {tok!r}")
    return complex(float(m.group(1)), float(m.group(2)))


# -- exact-algebra ---------------------------------------------------------

# Polynomial shapes of the exact-algebra workload.  The seed varies
# coefficients and variable order, never the shapes or sizes, so that
# every seed costs about the same.
SHAPES = [((3,),), ((4,),), ((5,),), ((6,),), ((3, 3),), ((3, 4),), ((4, 5),),
          ((3, 3, 3),), ((3, 4, 4),), ("chain", 3, 2), ("chain", 4, 2), ("chain", 3, 3),
          ("chain", 5, 2), ("loop", 2, 3), ("loop", 3, 3), ("loop", 3, 4)]


def _shape(rng, shape):
    c = lambda: rng.randint(1, 5)  # noqa: E731
    if shape[0] == "chain":
        return chain(shape[1], shape[2], (c(), c()))
    if shape[0] == "loop":
        return loop(shape[1], shape[2], (c(), c()))
    exps = tuple(rng.sample(shape[0], len(shape[0])))
    return fermat(exps, [c() for _ in exps])


def _random_R(rng, mu, antisymmetric):
    if antisymmetric:
        R = [[0] * mu for _ in range(mu)]
        for i in range(mu):
            for j in range(i + 1, mu):
                R[i][j] = rng.randint(-3, 3)
                R[j][i] = -R[i][j]
        return R, 2
    R = [[2 if i == j else 0 for j in range(mu)] for i in range(mu)]
    for i in range(mu):
        for j in range(i + 1, mu):
            R[i][j] = R[j][i] = rng.randint(-3, 3)
    return R, 1


def gen_exact_algebra(rng: random.Random) -> list[dict]:
    jobs = []
    for shape in SHAPES + SHAPES[:8]:
        t = _shape(rng, shape)
        jobs.append(dict(kind="parse-weights", text=poly_text(t), rows=rows_of(t)))
    for shape in SHAPES[4:10]:
        t = _shape(rng, shape)
        jobs.append(dict(kind="cli-analyze", text=poly_text(t), rows=rows_of(t)))
    for shape in SHAPES[9:13]:
        t = _shape(rng, shape)
        jobs.append(dict(kind="cli-group", text=poly_text(t), rows=rows_of(t)))
    # Sector sweeps.  Cyclic groups (coprime Fermat exponents) make the
    # element order equal |G|, and sector_data cost grows with the square
    # of the order; the others have a large |G| but small orders.
    for exps in [(4, 5), (5, 7), (5, 6), (4, 9), (6, 6), (4, 4, 4)]:
        t = _shape(rng, (exps,))
        jobs.append(dict(kind="sector-sweep", text=poly_text(t), rows=rows_of(t)))
    for exps in [(3, 4, 5), (6, 6, 6)]:
        t = _shape(rng, (exps,))
        jobs.append(dict(kind="cli-sectors", text=poly_text(t), rows=rows_of(t)))
    # Selection-rule sweeps over seeded triples of tail decorations.
    for k, t in enumerate([fermat((3,)), fermat((4,)), fermat((3, 3)), chain(4, 2),
                           fermat((3, 4)), chain(3, 3)] * 2):
        group = [frac_str(g) for g in sorted_group(rows_of(t))]
        triples = [[rng.choice(group) for _ in range(3)] for _ in range(24)]
        jobs.append(dict(kind="selection-sweep", text=poly_text(t), rows=rows_of(t),
                         genus=k % 2, triples=triples))
    # Surgeries with text round trips, and decorated graphs through the CLI.
    for t in [fermat((3,)), fermat((4,)), fermat((3, 3)), chain(3, 2),
              fermat((5,)), chain(4, 2)]:
        rows = rows_of(t)
        group = sorted_group(rows)
        j_inv = tuple((1 - q) % 1 for q in O.weights(rows))
        gamma = rng.choice([g for g in group if any(g)])
        tails0 = [rng.choice(group) for _ in range(2)]
        tails1 = [j_inv] + [rng.choice(group) for _ in range(2)]
        jobs.append(dict(kind="surgery-roundtrip", text=poly_text(t), rows=rows,
                         gamma=frac_str(gamma), tails0=[frac_str(g) for g in tails0],
                         tails1=[frac_str(g) for g in tails1]))
    for genus, k, t in [(0, 3, fermat((3,))), (1, 2, fermat((3, 3))), (2, 4, chain(4, 2))]:
        rows = rows_of(t)
        tails = [rng.randrange(len(sorted_group(rows))) for _ in range(k)]
        text = (f"poly {poly_text(t)}\nvertex 0 genus {genus}\n"
                + "".join(f"tail 0 gamma {i}\n" for i in tails))
        jobs.append(dict(kind="cli-graph", rows=rows, genus=genus, tails=tails,
                         graph_text=text))
    # Picard-Lefschetz moves.  Cost grows as mu^3, so mu and the move are
    # fixed per slot and the seed varies the intersection data and positions.
    for k in range(10):
        mu = 3 + k % 6
        R, n_gamma = _random_R(rng, mu, antisymmetric=k % 2 == 0)
        jobs.append(dict(kind="braid-relation", R=R, n_gamma=n_gamma,
                         j=rng.randint(0, mu - 3)))
    for k, (mu, move) in enumerate([(8, "braid"), (12, "gabrielov"), (16, "monodromy"),
                                    (20, "flip"), (24, "braid"), (24, "monodromy")]):
        R, n_gamma = _random_R(rng, mu, antisymmetric=k % 2 == 0)
        i = rng.randrange(mu - 1)
        jobs.append(dict(kind="move", R=R, n_gamma=n_gamma, move=move,
                         i=i, j=rng.choice([x for x in range(mu) if x != i])))
    for mu in (3, 4, 5, 6, 7, 8):
        coords = [[str(Fraction(rng.randint(-9, 9), rng.randint(1, 5))) for _ in range(mu)]
                  for _ in range(mu)]
        jobs.append(dict(kind="wall-cross", mu=mu, coords=coords,
                         i=rng.randint(0, mu - 2), r=rng.randint(-4, 4)))
    for mu in (2, 5, 8):
        jobs.append(dict(kind="cli-wallcross", mu=mu, i=rng.randint(0, mu - 2),
                         r=rng.randint(-4, 4), direction=rng.choice(["left", "right"])))
    for mu in (3, 4, 5, 6):
        eta = [[0] * mu for _ in range(mu)]
        for a in range(mu):
            eta[a][a] = rng.randint(10, 14)
            for b in range(a + 1, mu):
                eta[a][b] = eta[b][a] = rng.randint(-3, 3)
        jobs.append(dict(kind="tensor", eta=eta, norm=rng.randint(1, 6)))
    jobs.append(dict(kind="cli-selftest"))
    return jobs


def run_parse_weights(job):
    return wpoly.parse_polynomial(job["text"]).weights


def check_parse_weights(job, q):
    expect(tuple(q) == O.weights(job["rows"]), f"weights {q}")


def run_cli_analyze(job):
    return cli_run(["analyze", job["text"]])


def check_cli_analyze(job, result):
    q = O.weights(job["rows"])
    got = cli_fields(result)
    expect(fracs(got["weights"].split(",")) == q, "weights")
    expect(int(got["milnor"]) == O.milnor(q), "milnor number")
    expect(Fraction(got["central_charge"]) == O.central_charge(q), "central charge")
    m = min(1 - x for x in q)
    expect(fracs(got["growth_exponents"].split(",")) == tuple(x / m for x in q),
           "growth exponents")
    expect(int(got["group_order"]) == len(O.brute_group(job["rows"])), "group order")


def run_cli_group(job):
    return cli_run(["group", job["text"]])


def check_cli_group(job, result):
    group = O.brute_group(job["rows"])
    elems = cli_lines(result, "element")
    got = {fracs(ln[3].split(",")): int(ln[5]) for ln in elems}
    expect(len(elems) == len(group) and set(got) == group, "group elements")
    expect(all(o == O.element_order(t) for t, o in got.items()), "element orders")
    grading = cli_lines(result, "grading_element")[0][1]
    expect(fracs(grading.split(",")) == O.weights(job["rows"]), "grading element")


def run_sector_sweep(job):
    W = wpoly.parse_polynomial(job["text"])
    out = []
    for g in symmetry.enumerate_group(W):
        s1 = symmetry.sector_data(W, g)
        s2 = symmetry.sector_data(W, g.inverse())
        out.append((g.theta, s1.iota, s1.n_gamma, s2.iota))
    return out


def check_sector_sweep(job, out):
    q = O.weights(job["rows"])
    c = O.central_charge(q)
    expect({t for t, *_ in out} == O.brute_group(job["rows"]), "group elements")
    for theta, i1, n1, i2 in out:
        expect(i1 + i2 + n1 == c, f"iota identity fails at {theta}")
        expect(i1 == O.iota(theta, q), f"iota at {theta}")
        expect(n1 == sum(1 for t in theta if t == 0), f"N_gamma at {theta}")


def run_cli_sectors(job):
    return cli_run(["sectors", job["text"]])


def check_cli_sectors(job, result):
    q = O.weights(job["rows"])
    c = O.central_charge(q)
    rows = {}
    for ln in cli_lines(result, "sector"):
        theta = fracs(ln[3].split(","))
        rows[theta] = (int(ln[5]), Fraction(ln[7]), ln[9])
    expect(set(rows) == O.brute_group(job["rows"]), "sector table elements")
    for theta, (n, i1, typ) in rows.items():
        expect(n == sum(1 for t in theta if t == 0), f"N_gamma at {theta}")
        expect(i1 == O.iota(theta, q), f"iota at {theta}")
        expect(typ == ("R" if n else "NS"), f"type at {theta}")
        expect(i1 + rows[O.inverse(theta)][1] + n == c, f"iota identity at {theta}")


def _element(theta):
    return symmetry.GroupElement(tuple(Fraction(t) for t in theta))


def run_selection_sweep(job):
    W = wpoly.parse_polynomial(job["text"])
    out = []
    for triple in job["triples"]:
        tails = [_element(t) for t in triple]
        degs, adm = graphcalc.line_bundle_degrees(W, job["genus"], tails)
        graph = graphcalc.DecoratedGraph(W=W, genera=(job["genus"],), edges=(),
                                         tails=tuple(graphcalc.Tail(0, g) for g in tails))
        out.append((degs, adm, graphcalc.virtual_degree(graph)))
    return out


def check_selection_sweep(job, out):
    q = O.weights(job["rows"])
    g = job["genus"]
    for triple, (degs, adm, vd) in zip(job["triples"], out):
        thetas = [fracs(t) for t in triple]
        want = O.line_degrees(q, g, thetas)
        expect(tuple(degs) == want, f"line bundle degrees for {triple}")
        expect(adm == all(d.denominator == 1 for d in want), f"admissibility for {triple}")
        D = O.central_charge(q) * (g - 1) + sum(O.iota(t, q) for t in thetas)
        expect(vd.D == D, f"virtual D for {triple}")
        expect(vd.cycle_degree == 6 * g - 6 + 2 * len(thetas) - 2 * D, "cycle degree")


def run_surgery_roundtrip(job):
    W = wpoly.parse_polynomial(job["text"])
    tails = tuple(graphcalc.Tail(0, _element(t)) for t in job["tails0"]) + \
        tuple(graphcalc.Tail(1, _element(t)) for t in job["tails1"])
    edge = graphcalc.Edge(0, 1, _element(job["gamma"]))
    graph = graphcalc.DecoratedGraph(W=W, genera=(0, 0), edges=(edge,), tails=tails)
    k = len(graph.tails)
    cut = graphcalc.cut_edge(graph, 0)
    glued = graphcalc.glue_tails(cut, k, k + 1)
    reread = graphcalc.graph_from_text(graphcalc.graph_to_text(graph))
    forgot = graphcalc.forget_tail(graph, len(job["tails0"]))
    return graph, cut, glued, reread, forgot


def check_surgery_roundtrip(job, result):
    graph, cut, glued, reread, forgot = result
    expect(glued == graph, "glue_tails(cut_edge(G)) != G")
    expect(reread == graph, "graph_from_text(graph_to_text(G)) != G")
    expect(not cut.edges and len(cut.tails) == len(graph.tails) + 2, "cut shape")
    a, b = cut.tails[-2].gamma.theta, cut.tails[-1].gamma.theta
    expect(tuple(b) == O.inverse(a), "cut tails are not inverse")
    expect(len(forgot.tails) == len(graph.tails) - 1
           and forgot.tails == graph.tails[:len(job["tails0"])]
           + graph.tails[len(job["tails0"]) + 1:], "forget_tail")


def prepare_cli_graph(job, workdir, index):
    path = workdir / f"job{index}.graph"
    path.write_text(job["graph_text"])
    job["graph_path"] = str(path)


def run_cli_graph(job):
    return cli_run(["graph", "--graph", job["graph_path"]])


def check_cli_graph(job, result):
    q = O.weights(job["rows"])
    group = sorted_group(job["rows"])
    thetas = [group[i] for i in job["tails"]]
    g = job["genus"]
    got = cli_fields(result)
    D = O.central_charge(q) * (g - 1) + sum(O.iota(t, q) for t in thetas)
    expect(int(got["total_genus"]) == g, "total genus")
    expect(Fraction(got["D"]) == D, "D")
    expect(Fraction(got["cycle_degree"]) == 6 * g - 6 + 2 * len(thetas) - 2 * D,
           "cycle degree")
    adm = all(d.denominator == 1 for d in O.line_degrees(q, g, thetas))
    expect(got["admissible"] == str(adm).lower(), "admissible")


def _state(job):
    return lefschetz.ThimbleState.make(job["R"], n_gamma=job["n_gamma"])


def _pl_sign(n_gamma):
    return -1 if (n_gamma * (n_gamma + 1) // 2) % 2 else 1


def run_braid_relation(job):
    braid = lefschetz.braid_move
    st, j = _state(job), job["j"]
    lhs = braid(braid(braid(st, j), j + 1), j)
    rhs = braid(braid(braid(st, j + 1), j), j + 1)
    return lhs.R, rhs.R


def check_braid_relation(job, result):
    lhs, rhs = result
    expect(lhs == rhs, "braid relation fails")


def _move_matrix(job):
    R, s, mu = job["R"], _pl_sign(job["n_gamma"]), len(job["R"])
    i, j = job["i"], job["j"]
    M = [[int(a == b) for b in range(mu)] for a in range(mu)]
    if job["move"] == "monodromy":
        for k in range(mu):
            M[k][i] += s * R[k][i]
    elif job["move"] == "braid":
        M[i] = [0] * mu
        M[i][i + 1], M[i][i] = 1, s * R[i + 1][i]
        M[i + 1] = [int(b == i) for b in range(mu)]
    elif job["move"] == "gabrielov":
        M[j][i] += s * R[j][i]
    else:
        M[i][i] = -1
    return M


def run_move(job):
    st, i, j = _state(job), job["i"], job["j"]
    move = job["move"]
    if move == "monodromy":
        return lefschetz.monodromy_apply(st, i).R
    if move == "braid":
        moved = lefschetz.braid_move(st, i)
        return lefschetz.braid_move_inverse(moved, i).R, moved.R
    if move == "gabrielov":
        return lefschetz.gabrielov_move(st, i, j).R
    return lefschetz.orientation_flip(st, i).R


def check_move(job, result):
    if job["move"] == "braid":
        back, result = result
        expect([list(r) for r in back] == job["R"], "braid_move_inverse(braid_move) != id")
    want = O.congruence(_move_matrix(job), job["R"])
    expect([list(r) for r in result] == want, f"{job['move']} move: R != M R M^T")


def run_wall_cross(job):
    mu = job["mu"]
    st = lefschetz.ThimbleState.make([[0] * mu for _ in range(mu)], n_gamma=2,
                              cycle_coords=[[Fraction(x) for x in v] for v in job["coords"]])
    left = lefschetz.wall_cross(st, job["i"], "left", job["r"])
    return st, left, lefschetz.wall_cross(left, job["i"], "right", job["r"])


def check_wall_cross(job, result):
    st, left, back = result
    expect(back == st, "wall_cross right(left) != identity")
    i, r = job["i"], job["r"]
    v = [[Fraction(x) for x in row] for row in job["coords"]]
    want = [list(row) for row in v]
    want[i] = [b + r * a for a, b in zip(v[i], v[i + 1])]
    want[i + 1] = v[i]
    expect([list(row) for row in left.cycle_coords] == want, "left crossing formula")


def run_cli_wallcross(job):
    return cli_run(["wallcross", "--mu", str(job["mu"]), "--r", str(job["r"]),
                    "--direction", job["direction"], "--pair",
                    str(job["i"] + 1), str(job["i"] + 2)])


def check_cli_wallcross(job, result):
    mu, i, r = job["mu"], job["i"], job["r"]
    e = [[Fraction(int(a == b)) for b in range(mu)] for a in range(mu)]
    want = [row[:] for row in e]
    if job["direction"] == "left":
        want[i] = [b + r * a for a, b in zip(e[i], e[i + 1])]
        want[i + 1] = e[i]
    else:
        want[i] = e[i + 1]
        want[i + 1] = [a - r * b for a, b in zip(e[i], e[i + 1])]
    got = [[Fraction(x) for x in ln[1:]] for ln in cli_lines(result, "cycle")]
    expect(got == want, "wallcross cycles")


def run_tensor(job):
    return lefschetz.contract_pm(lefschetz.casimir(job["eta"]), job["eta"], job["norm"])


def check_tensor(job, value):
    # sum_ab (eta^-1)_ab eta_ba = trace(identity) = mu
    expect(value == job["norm"] * len(job["eta"]), f"contraction {value}")


def run_cli_selftest(job):
    return cli_run(["selftest"])


def check_cli_selftest(job, result):
    status, text = result
    expect(status == 0 and text.rstrip().endswith("ALL PASS"), "selftest did not pass")


# -- morse-walls -----------------------------------------------------------

def gen_morse_walls(rng: random.Random) -> list[dict]:
    jobs = []
    # Many draws of b per shape: the multistart's effort depends on b, and
    # the median job lies among these.
    for n in (3, 4, 5) * 10:
        jobs.append(dict(kind="crit-fermat", exps=[n], b=[rand_b(rng)]))
    for exps in [(3, 3), (3, 4), (4, 4), (3, 5)] * 15 + [(3, 3, 3), (3, 3, 4), (4, 4, 4)] * 4:
        jobs.append(dict(kind="crit-fermat", exps=list(exps),
                         b=[rand_b(rng) for _ in exps]))
    for a in (3, 4) * 8:
        jobs.append(dict(kind="crit-chain", a=a, b=[rand_b(rng), rand_b(rng)]))
    # Wall paths start at a seeded phase offset delta, so the walls fall
    # between the continuation grid points lam = k/200.
    for n in (3, 4) * 4:
        jobs.append(dict(kind="walls", n=n, r=round(rng.uniform(2.0, 4.0), 6),
                         sign=rng.choice([-1, 1]), delta=round(rng.uniform(0.02, 0.2), 6)))
    for n in (3, 4) * 2:
        jobs.append(dict(kind="cli-walls", n=n, r=round(rng.uniform(2.0, 4.0), 6),
                         sign=rng.choice([-1, 1]), delta=round(rng.uniform(0.02, 0.2), 6)))
    # With delta = 0 the quartic walls sit on grid points; at this radius
    # their Im gap there is exactly 0 and one wall is skipped.
    jobs.append(dict(kind="walls", n=4, r=2.0, sign=1, delta=0.0,
                     known_defect=KNOWN_GRID_WALL))
    for exps in [(3,), (4,), (3, 3), (3, 4)]:
        jobs.append(dict(kind="cli-perturb", exps=list(exps),
                         b=[rand_b(rng) for _ in exps]))
    for exps in [(3,), (4,), (3, 3), (3, 4)]:
        jobs.append(dict(kind="growth-bound", exps=list(exps),
                         radius=round(rng.uniform(2.0, 6.0), 6),
                         n_samples=1500, seed=rng.randrange(2 ** 31)))
    for t in [fermat((3,)), fermat((4, 4)), chain(3, 2), fermat((3, 3, 3))]:
        jobs.append(dict(kind="nondegenerate", text=poly_text(t), n_starts=40,
                         seed=rng.randrange(2 ** 31)))
    return jobs


def _fermat_text(exps):
    return poly_text(fermat(exps))


def run_crit_fermat(job):
    W = wpoly.parse_polynomial(_fermat_text(job["exps"]))
    return morse.find_critical_points(W, [cplx(b) for b in job["b"]])


def _check_critical(want_pts, want_vals, pts, vals):
    perm = O.match_points(want_pts, pts, 1e-8)
    for k, w in zip(perm, want_vals):
        expect(abs(vals[k] - w) < 1e-8 * max(1.0, abs(w)), f"critical value {vals[k]}")


def check_crit_fermat(job, m):
    pts, vals = O.fermat_sum_critical(job["exps"], [cplx(b) for b in job["b"]])
    _check_critical(pts, vals, m.critical_points, m.critical_values)


def run_crit_chain(job):
    W = wpoly.parse_polynomial(poly_text(chain(job["a"], 2)))
    return morse.find_critical_points(W, [cplx(b) for b in job["b"]])


def check_crit_chain(job, m):
    pts, vals = O.chain_critical(job["a"], [cplx(b) for b in job["b"]])
    _check_critical(pts, vals, m.critical_points, m.critical_values)


def _wall_path(n, r, sign, delta=0.0):
    rate = 1.0 if n == 3 else 0.5
    return lambda lam: [r * np.exp(sign * rate * 1j * np.pi * (lam + delta))]


def run_walls(job):
    W = wpoly.parse_polynomial(f"x^{job['n']}")
    return [c.lam for c in morse.detect_wall_crossings(
        W, _wall_path(job["n"], job["r"], job["sign"], job["delta"]))]


def check_walls(job, lams):
    want = O.wall_lams(job["n"], job["delta"])
    expect(len(lams) == len(want), f"{len(lams)} walls, oracle has {len(want)}")
    for got, w in zip(sorted(lams), want):
        expect(abs(got - w) < 1e-8, f"wall at {got}, oracle {w}")


def run_cli_walls(job):
    rate = "" if job["n"] == 3 else "0.5*"
    path = f"{job['r']}*exp({job['sign']}*{rate}1j*pi*(lam+{job['delta']}))"
    return cli_run(["walls", f"x^{job['n']}", "--path", path])


def check_cli_walls(job, result):
    check_walls(job, [float(ln[2]) for ln in cli_lines(result, "crossing")])


def run_cli_perturb(job):
    return cli_run(["perturb", _fermat_text(job["exps"]),
                    "--b=" + ",".join(b_text(b) for b in job["b"])])


def check_cli_perturb(job, result):
    pts, vals = [], []
    for ln in cli_lines(result, "critical"):
        pts.append(np.array([parse_cplx(t) for t in ln[3].split(",")]))
        vals.append(parse_cplx(ln[5]))
    want_pts, want_vals = O.fermat_sum_critical(job["exps"], [cplx(b) for b in job["b"]])
    _check_critical(want_pts, want_vals, pts, vals)


def run_growth_bound(job):
    W = wpoly.parse_polynomial(_fermat_text(job["exps"]))
    return wpoly.growth_bound_supremum(W, job["radius"], job["n_samples"], seed=job["seed"])


def check_growth_bound(job, sup):
    want = O.growth_supremum(job["exps"], job["radius"], job["n_samples"], job["seed"])
    expect(abs(sup - want) <= 1e-9 * want, f"supremum {sup}, oracle {want}")


def run_nondegenerate(job):
    return wpoly.check_nondegenerate(wpoly.parse_polynomial(job["text"]),
                                     n_starts=job["n_starts"], seed=job["seed"])


def check_nondegenerate(job, ok):
    # Fermat and chain polynomials are isolated singularities.
    expect(ok is True, "nondegenerate polynomial reported degenerate")


# -- soliton-shoot ---------------------------------------------------------

def _strongly_regular_b(rng, n):
    """A seeded b for x^n + b x whose critical values have well-separated Im."""
    while True:
        b = [round(2 * rng.gauss(0, 1), 6), round(2 * rng.gauss(0, 1), 6)]
        xs = O.fermat_roots(n, cplx(b))
        ims = sorted((x ** n + cplx(b) * x).imag for x in xs)
        if min(np.diff(ims)) > 0.1 * max(1.0, abs(cplx(b))):
            return b, xs


def gen_soliton_shoot(rng: random.Random) -> list[dict]:
    jobs = [dict(kind="count-cubic-cli", s=round(rng.uniform(0.9, 1.1), 6))]
    jobs.append(dict(kind="count-quartic", wall=rng.randint(0, 1), sign=rng.choice([-1, 1]),
                     s=round(rng.uniform(0.9, 1.1), 6)))
    for ysign in (-1, 1):
        jobs.append(dict(kind="count-ts-pair", s=round(rng.uniform(0.9, 1.1), 6),
                         t=round(rng.uniform(0.9, 1.1), 6), ysign=ysign,
                         known_defect=KNOWN_TS_PAIR))
    # On the real wall both critical values have Im 0, and the CLI's pair
    # numbering follows float noise in Im: here "--pair 1 2" names the
    # higher critical value first and the count is refused.
    jobs.append(dict(kind="cli-pair-order", b=-3.15, known_defect=KNOWN_PAIR_ORDER))
    jobs.append(dict(kind="energy-orbit", s=round(rng.uniform(0.9, 1.1), 6)))
    # No-capture scans at strongly regular b: every departure direction
    # in the increasing-Re cone, 16 angles around one critical point of each b.
    for n in (3, 4) * 3:
        b, xs = _strongly_regular_b(rng, n)
        pts = [[x.real, x.imag] for x in xs]
        i = rng.randrange(len(xs))
        alpha = xs[i] ** n + cplx(b) * xs[i]
        for a in np.linspace(0, 2 * np.pi, 16, endpoint=False):
            u0 = xs[i] + 1e-3 * np.exp(1j * a)
            if (u0 ** n + cplx(b) * u0 - alpha).real > 0:
                jobs.append(dict(kind="no-capture-shot", n=n, b=b, pts=pts, i=i,
                                 u0=[u0.real, u0.imag]))
    for _ in range(4):
        jobs.append(dict(kind="fourier", theta=round(rng.uniform(0.2, 0.8), 6),
                         a=round(rng.uniform(1.5, 2.5), 6), mode=rng.choice([0, -1])))
    jobs.append(dict(kind="witten", n_starts=4, seed=rng.randrange(2 ** 31)))
    return jobs


def run_count_cubic_cli(job):
    """As a user would: read the critical values, then ask for the pair."""
    b = f"--b={-3 * job['s']:.6f}"
    report = cli_run(["perturb", "x^3", b])
    values = {int(ln[1]): parse_cplx(ln[5]) for ln in cli_lines(report, "critical")}
    order = [int(k) for k in cli_lines(report, "ordering")[0][1].split(",")]
    p, q = sorted((1, 2), key=lambda k: values[order[k - 1]].real)
    return cli_run(["solitons", "x^3", b, "--pair", str(p), str(q)])


def check_count_cubic_cli(job, result):
    got = cli_lines(result, "count")
    expect(got == [["count", "1"]], f"cubic wall soliton count {got}")


def run_cli_pair_order(job):
    return cli_run(["solitons", "x^3", f"--b={job['b']:.6f}", "--pair", "1", "2"])


check_cli_pair_order = check_count_cubic_cli


def _index_map(want_pts, m):
    return O.match_points(want_pts, m.critical_points, 1e-7, subset=True)


def run_count_quartic(job):
    W = wpoly.parse_polynomial("x^4")
    path = _wall_path(4, 4.0, job["sign"])
    crossings = morse.detect_wall_crossings(W, path)
    lam = crossings[job["wall"]].lam
    m = morse.find_critical_points(W, [job["s"] * path(lam)[0]])
    # The aligned pair, chosen from the closed-form wall configuration.
    b = job["s"] * path(O.QUARTIC_WALLS[job["wall"]])[0]
    xs = O.fermat_roots(4, b)
    vals = [x ** 4 + b * x for x in xs]
    i, j = min(((p, q) for p in range(3) for q in range(3)
                if vals[p].real < vals[q].real),
               key=lambda pq: abs(vals[pq[0]].imag - vals[pq[1]].imag))
    idx = _index_map([np.array([x]) for x in xs], m)
    count = soliton.count_bps_solitons(W, m, idx[i], idx[j])
    return [c.lam for c in crossings], count


def check_count_quartic(job, result):
    lams, count = result
    check_walls(dict(n=4, delta=0.0), lams)
    expect(count == 1, f"quartic wall soliton count {count}")


def run_count_ts_pair(job):
    W = wpoly.parse_polynomial("x^3+y^3")
    b = [-3 * job["s"], -0.3 * job["t"]]
    m = morse.find_critical_points(W, b)
    x, y = math.sqrt(job["s"]), job["ysign"] * math.sqrt(0.1 * job["t"])
    # Re alpha is lower at x = +sqrt(s): the pair differs only in x.
    idx = _index_map([np.array([x, y]), np.array([-x, y])], m)
    return soliton.count_bps_solitons(W, m, idx[0], idx[1])


def check_count_ts_pair(job, count):
    # Thom-Sebastiani: the y summand sits at its critical point, so the
    # count equals the cubic wall's count, 1.
    expect(count == 1, f"one-summand pair soliton count {count}")


def run_energy_orbit(job):
    c = math.sqrt(job["s"])
    b = [-3 * job["s"]]
    pts = [np.array([c + 0j]), np.array([-c + 0j])]
    W = wpoly.parse_polynomial("x^3")
    traj = soliton.integrate_flow(W, b, pts[0] - 1e-3, (0.0, 60.0), critical_points=pts)
    return traj, soliton.energy_identity_check(W, b, traj)


def check_energy_orbit(job, result):
    traj, residual = result
    c3 = job["s"] ** 1.5
    expect(traj.endpoints == (0, 1), f"orbit endpoints {traj.endpoints}")
    expect(traj.re_monotone and traj.im_drift < 1e-8 * max(1.0, 2 * c3), "invariants")
    expect(residual < 1e-6, f"energy identity residual {residual}")
    # Closed form: Re W rises by 4 s^(3/2) between the critical values.
    expect(abs(2 * traj.energy_integral - 4 * c3) < 1e-4 * 4 * c3, "energy closed form")


def run_no_capture_shot(job):
    W = wpoly.parse_polynomial(f"x^{job['n']}")
    pts = [np.array([cplx(p)]) for p in job["pts"]]
    return soliton.integrate_flow(W, [cplx(job["b"])], np.array([cplx(job["u0"])]),
                                        (0.0, 40.0), critical_points=pts)


def check_no_capture_shot(job, traj):
    fwd = traj.endpoints[1]
    expect(fwd is None or fwd == job["i"], f"captured at {fwd} off any wall")


def run_fourier(job):
    a, mode = job["a"], job["mode"]
    rho = (lambda t: math.exp(-a * t)) if mode == 0 else (lambda t: math.exp(a * t))
    return soliton.fourier_bounded_solution(job["theta"], {mode: rho},
                                                     np.linspace(-3.0, 3.0, 25))


def check_fourier(job, field):
    s = np.linspace(-3.0, 3.0, 25)
    theta, a = job["theta"], job["a"]
    if job["mode"] == 0:
        want = np.exp(-a * s) / (theta - a)
    else:
        want = np.exp(a * s) / (theta - 1 + a)
    err = np.abs(field.mode_values[0] - want) / np.maximum(1.0, np.abs(want))
    expect(float(np.max(err)) < 1e-8, f"bounded solution error {np.max(err):.3g}")


def run_witten(job):
    W = wpoly.parse_polynomial("x^3")
    return soliton.witten_vanishing_check(W, theta=1.0 / 3.0, n_starts=job["n_starts"],
                                      seed=job["seed"])


def check_witten(job, ok):
    expect(ok is True, "nonzero solution of the NS-sector equation")


# -- Registry --------------------------------------------------------------

def _kinds():
    out = {}
    for name, fn in list(globals().items()):
        if name.startswith("run_"):
            kind = name[4:].replace("_", "-")
            out[kind] = (fn, globals()["check_" + name[4:]])
    return out


KINDS = _kinds()
PREPARE = {"cli-graph": prepare_cli_graph}
GENERATORS = {"exact-algebra": gen_exact_algebra, "morse-walls": gen_morse_walls,
              "soliton-shoot": gen_soliton_shoot}


def generate(workload: str, seed: int) -> list[dict]:
    """The workload's job list for one seed, in a seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = GENERATORS[workload](rng)
    rng.shuffle(jobs)
    for k, job in enumerate(jobs):
        job["id"] = k
    return jobs


def prepare(jobs, workdir) -> None:
    """Write the input files some jobs read (graph files for the CLI)."""
    workdir.mkdir(parents=True, exist_ok=True)
    for job in jobs:
        if job["kind"] in PREPARE:
            PREPARE[job["kind"]](job, workdir, job["id"])
