import ast
import importlib
import os
import pathlib
import shlex
import subprocess
import sys

import pytest

import qhsing
from qhsing import cli
from qhsing.graphcalc import (DecoratedGraph, Tail, graph_to_text)
from qhsing.symmetry import GroupElement, enumerate_group
from qhsing.wpoly import parse_polynomial


def run(capsys, *argv):
    status = cli.main(list(argv))
    return status, capsys.readouterr().out


class TestAnalyze:
    def test_basic(self, capsys):
        status, out = run(capsys, "analyze", "x^3+x*y^2")
        assert status == 0
        assert "weights 1/3,1/3" in out
        assert "milnor 4" in out
        assert "central_charge 2/3" in out
        assert "group_order 6" in out

    def test_bad_polynomial_is_domain_error(self, capsys):
        status, out = run(capsys, "analyze", "x^3 + +")
        assert status == 2
        assert out.startswith("error ")

    def test_invalid_weights_is_domain_error(self, capsys):
        status, _ = run(capsys, "analyze", "x^2")
        assert status == 2

    def test_degenerate_support_is_domain_error(self, capsys):
        status, out = run(capsys, "analyze", "x^4+x^2*y^2")
        assert status == 2
        assert out == ("error degenerate W (support test): positive-dimensional "
                       "critical set on span{x2}\n")


class TestGroupAndSectors:
    def test_group_listing(self, capsys):
        status, out = run(capsys, "group", "x^4+x*y^2")
        assert status == 0
        assert "group_order 8" in out
        assert "grading_element 1/4,3/8" in out
        assert out.count("\nelement ") == 8

    def test_sector_table(self, capsys):
        status, out = run(capsys, "sectors", "x^3")
        assert status == 0
        assert "group_order 3" in out
        assert out.count("sector ") == 3


class TestGraph:
    def test_graph_report(self, capsys, tmp_path):
        W = parse_polynomial("x^3")
        group = enumerate_group(W)
        graph = DecoratedGraph(
            W=W, genera=(0,), edges=(),
            tails=(Tail(0, group[1]), Tail(0, group[1]), Tail(0, group[2])))
        path = tmp_path / "point.graph"
        path.write_text(graph_to_text(graph))
        status, out = run(capsys, "graph", "--graph", str(path))
        assert status == 0
        assert "cycle_degree 0" in out
        assert "admissible true" in out

    def test_disjoint_graph_report(self, capsys, tmp_path):
        # Two copies of the x^3 point class report as one copy does, with one
        # degree line per component.
        path = tmp_path / "two.graph"
        path.write_text("poly x^3\nvertex 0 genus 0\nvertex 1 genus 0\n"
                        + "".join(f"tail {v} gamma {k}\n" for v in (0, 1) for k in (1, 1, 2)))
        assert run(capsys, "graph", "--graph", str(path)) == (0, (
            "total_genus 0\nstable true\nD 0\ncycle_degree 0\nr_value 0\n"
            "two_D_integral true\nline_bundle_degrees -1\nline_bundle_degrees -1\n"
            "admissible true\n"))

    def test_malformed_graph_file_is_domain_error(self, capsys, tmp_path):
        path = tmp_path / "bad.graph"
        path.write_text("poly x^3\nvertex 0\n")
        status, out = run(capsys, "graph", "--graph", str(path))
        assert status == 2
        assert out.startswith("error ") and "vertex 0" in out

    def test_unreadable_graph_file_is_domain_error(self, capsys, tmp_path):
        binary = tmp_path / "binary.graph"
        binary.write_bytes(b"\xff\xfe\x00poly")
        for path in (tmp_path / "missing.graph", tmp_path, binary):
            status, out = run(capsys, "graph", "--graph", str(path))
            assert status == 2
            assert out.startswith("error ") and str(path) in out

    def test_missing_graph_flag(self, capsys):
        status, out = run(capsys, "graph", "x^3")
        assert status == 2


GOLDEN = pathlib.Path(__file__).parent / "golden"
PINNED = {"fermat_pair": "x^3+y^3", "chain": "x^2*y+y^3*z+z^4", "loop": "x^2*y+y^2*z+z^2*x"}


@pytest.mark.parametrize("command", ["group", "sectors", "graph"])
@pytest.mark.parametrize("name", sorted(PINNED))
def test_output_is_pinned(capsys, name, command):
    # tests/golden holds the exact bytes these commands print: a Fermat pair,
    # a chain and a loop, with one graph file each.
    args = ["--graph", str(GOLDEN / f"{name}.graph")] if command == "graph" else [PINNED[name]]
    status, out = run(capsys, command, *args)
    assert status == 0
    assert out.encode() == (GOLDEN / f"{name}.{command}.txt").read_bytes()


class TestMorseCommands:
    def test_perturb(self, capsys):
        status, out = run(capsys, "perturb", "x^3", "--b", "3")
        assert status == 0
        assert "mu 2" in out
        assert "strongly_regular true" in out

    def test_perturb_requires_b(self, capsys):
        status, _ = run(capsys, "perturb", "x^3")
        assert status == 2

    def test_perturb_zero_b_rejected(self, capsys):
        status, out = run(capsys, "perturb", "x^3", "--b", "0")
        assert status == 2
        assert "error" in out

    def test_perturb_zero_b_on_one_summand_rejected(self, capsys):
        # y^3 is left unperturbed; Newton stalls near its double points
        # used to be reported as four critical points.
        status, out = run(capsys, "perturb", "x^3+y^3", "--b=1,0")
        assert status == 2
        assert out.startswith("error ") and "summand of W in x2" in out

    @pytest.mark.parametrize("argv", [
        ("perturb", "x^3+y^3", "--b=1"),
        ("perturb", "x^3", "--b=1,2"),
        ("walls", "x^3+y^3", "--path", "3*exp(1j*pi*lam)"),
        ("solitons", "x^3+y^3", "--b=-3", "--pair", "1", "2"),
    ], ids=lambda argv: " ".join(argv[:3]))
    def test_b_of_wrong_length_is_domain_error(self, capsys, argv):
        status, out = run(capsys, *argv)
        assert status == 2
        assert out.startswith("error len(b) = ") and "n_vars = " in out

    def test_walls(self, capsys):
        status, out = run(capsys, "walls", "x^3",
                          "--path", "3*exp(1j*pi*lam)")
        assert status == 0
        assert "n_crossings 1" in out
        lam = float(out.split("crossing lambda ")[1].split()[0])
        assert abs(lam - 1.0 / 3.0) < 1e-8

    def test_walls_on_direct_sum(self, capsys):
        # A wall of the cubic summand aligns two pairs at once
        # (Thom-Sebastiani): (2b/3) sqrt(-b/3) is real at lam = 1/3.
        status, out = run(capsys, "walls", "x^3+y^3",
                          "--path", "3*exp(1j*pi*lam), 2")
        assert status == 0
        lines = [ln.split() for ln in out.splitlines() if ln.startswith("crossing")]
        at_third = {(int(p), int(q)) for _, _, lam, _, p, q in lines
                    if abs(float(lam) - 1.0 / 3.0) < 1e-8}
        assert at_third == {(0, 2), (1, 3)}

    def test_walls_shifted_path(self, capsys):
        status, out = run(capsys, "walls", "x^4",
                          "--path", "3.1*exp(-1*0.5*1j*pi*(lam+0.1))")
        assert status == 0
        assert "n_crossings 2" in out
        lams = [float(part.split()[0]) for part in out.split("crossing lambda ")[1:]]
        assert abs(lams[0] - 0.15) < 1e-8 and abs(lams[1] - 0.65) < 1e-8

    @pytest.mark.parametrize("expr, token", [
        ("().__class__", "().__class__"),
        ("__import__('os')", "__import__('os')"),
        ("lam.real", "lam.real"),
        ("[1][0]", "[1][0]"),
        ("exp(lam) + (lambda: 1)()", "(lambda: 1)()"),
        ("abs(lam)", "abs(lam)"),
    ])
    def test_walls_path_outside_grammar(self, capsys, monkeypatch, expr, token):
        def no_continuation(*args, **kwargs):
            raise AssertionError("continuation ran on a refused path")

        monkeypatch.setattr(cli.morse, "detect_wall_crossings", no_continuation)
        status, out = run(capsys, "walls", "x^3", "--path", expr)
        assert status == 2
        assert out.startswith("error ") and token in out

    @pytest.mark.parametrize("expr", ["3*(lam", "1/0", "10**400"])
    def test_walls_path_malformed(self, capsys, expr):
        status, out = run(capsys, "walls", "x^3", "--path", expr)
        assert status == 2
        assert out.startswith("error ")


class TestSolitonCommand:
    def test_count_on_wall(self, capsys):
        status, out = run(capsys, "solitons", "x^3", "--b", "-3",
                          "--pair", "1", "2")
        assert status == 0
        assert "count 1" in out

    def test_pair_numbering_on_real_wall(self, capsys):
        # Both Im values are 0 up to float noise; "1 2" is the lower Re first.
        status, out = run(capsys, "solitons", "x^3", "--b=-3.15",
                          "--pair", "1", "2")
        assert status == 0
        assert "count 1" in out

    def test_off_wall_rejected(self, capsys):
        status, _ = run(capsys, "solitons", "x^3", "--b", "3",
                        "--pair", "1", "2")
        assert status == 2

    @pytest.mark.parametrize("tol", ["10", "nan", "inf"])
    def test_wall_tolerance_is_not_an_option(self, capsys, tol):
        # At b = -3+i the critical values have Im -+1.0045: no wall, no count.
        argv = ["solitons", "x^3", "--b=-3+1i", "--pair", "2", "1"]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + [f"--tol={tol}"])
        assert exc.value.code == 2
        assert "count" not in capsys.readouterr().out
        status, out = run(capsys, *argv)
        assert status == 2
        assert out.startswith("error not a wall configuration")

    def test_direct_sum_one_summand_pair(self, capsys):
        status, out = run(capsys, "solitons", "x^3+y^3", "--b=-3,-0.3",
                          "--pair", "1", "3")
        assert status == 0
        assert "count 1" in out

    def test_direct_sum_two_summand_pair_refused(self, capsys):
        status, out = run(capsys, "solitons", "x^3+y^3", "--b=-3,-0.3",
                          "--pair", "1", "4")
        assert status == 2
        assert out.startswith("error ")

    @pytest.mark.parametrize("polynomial, b, pair", [
        ("x^3", "-3", ("1", "3")),
        # The mu = 3 quartic wall at b = 4 exp(i pi/8).
        ("x^4", "3.695518130045147+1.530733729460359i", ("0", "2")),
        ("x^4", "3.695518130045147+1.530733729460359i", ("0", "3")),
    ])
    def test_pair_outside_one_to_mu_refused(self, capsys, polynomial, b, pair):
        status, out = run(capsys, "solitons", polynomial, f"--b={b}", "--pair", *pair)
        assert status == 2
        assert out.startswith(f"error --pair {pair[0]} {pair[1]}")


class TestWallcrossCommand:
    def test_unit_vectors(self, capsys):
        status, out = run(capsys, "wallcross", "--mu", "2", "--r", "1",
                          "--direction", "left")
        assert status == 0
        lines = [l for l in out.splitlines() if l.startswith("cycle ")]
        assert lines == ["cycle 1 1", "cycle 1 0"]

    @pytest.mark.parametrize("argv, value", [
        (["--mu", "0"], "--mu 0"),
        (["--mu", "1"], "--mu 1"),
        (["--mu", "3", "--pair", "3", "4"], "--pair 3 4"),
        (["--pair", "0", "1"], "--pair 0 1"),
    ])
    def test_out_of_range_refused(self, capsys, argv, value):
        status, out = run(capsys, "wallcross", *argv)
        assert status == 2
        assert out.startswith(f"error {value}")


class TestOutputFile:
    def test_out_flag_writes_file(self, capsys, tmp_path):
        path = tmp_path / "report.txt"
        status = cli.main(["analyze", "x^3", "--out", str(path)])
        assert status == 0
        assert "milnor 2" in path.read_text()
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("where", ["missing-dir", "directory"])
    def test_unwritable_out_is_domain_error(self, capsys, tmp_path, where):
        path = tmp_path / "no" / "such" / "f" if where == "missing-dir" else tmp_path
        status = cli.main(["group", "x^3", "--out", str(path)])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.err.startswith(f"error --out {path}: ")
        assert captured.out == ""


class TestSeed:
    @pytest.mark.parametrize("argv", [("perturb", "x^3", "--b=3"), ("selftest",)])
    def test_negative_seed_refused_before_the_command(self, capsys, argv):
        status, out = run(capsys, *argv, "--seed", "-1")
        assert status == 2
        assert out == "error --seed -1: must be a non-negative integer\n"


class TestSelftest:
    def test_selftest_passes(self, capsys):
        status, out = run(capsys, "selftest")
        assert status == 0
        assert "ALL PASS" in out
        assert "FAIL " not in out


def test_no_eval_or_exec_in_package():
    for path in pathlib.Path(qhsing.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                assert name not in ("eval", "exec"), f"{path.name}:{node.lineno}"


def test_every_exported_name_resolves():
    for path in pathlib.Path(qhsing.__file__).parent.glob("*.py"):
        name = "qhsing" if path.stem == "__init__" else f"qhsing.{path.stem}"
        module = importlib.import_module(name)
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, f"{name}.__all__ names {missing}"


def test_cli_import_loads_no_scipy():
    # scipy is a test dependency only; a fresh interpreter shows what the CLI loads.
    src = str(pathlib.Path(qhsing.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    code = ("import sys, qhsing.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out == "[]\n"


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def readme_block(heading, fence):
    """The body of the first block opened by the line `fence` after the line `heading`."""
    text = README.read_text()
    text = text[text.index(heading + "\n"):]
    start = text.index(fence + "\n") + len(fence) + 1
    return text[start:text.index("```", start)]


class TestReadme:
    """The README's CLI examples, run through cli.main, so the README cannot drift."""

    @pytest.mark.parametrize("argv", [shlex.split(line, comments=True) for line
                                      in readme_block("## CLI", "```sh").splitlines()],
                             ids=lambda argv: argv[1])
    def test_cli_block(self, capsys, tmp_path, monkeypatch, argv):
        # `graph` reads the README's own graph file.
        (tmp_path / "point.graph").write_text(readme_block("## Graph file format", "```"))
        monkeypatch.chdir(tmp_path)
        assert argv[0] == "qhsing"
        status, out = run(capsys, *argv[1:])
        assert status == 0, out

    @staticmethod
    def states(phrase):
        """Whether the README's prose holds phrase, across line breaks."""
        return phrase in " ".join(README.read_text().split())

    def run_quoted(self, capsys, quoted, *extra):
        """Run the command that the README quotes verbatim, with extra arguments."""
        assert self.states(quoted)
        return run(capsys, *shlex.split(quoted)[1:], *extra)

    def test_quartic_walls(self, capsys):
        status, out = self.run_quoted(
            capsys, "qhsing walls 'x^4' --path '3.1*exp(-0.5*1j*pi*(lam+0.1))'")
        assert status == 0
        assert self.states("finds the walls at λ = 0.15 and 0.65")
        assert [line.split()[2] for line in out.splitlines()[1:]] == ["0.15", "0.65"]

    def test_direct_sum_walls(self, capsys):
        status, out = self.run_quoted(capsys, "qhsing walls 'x^3+y^3' --path '3*exp(1j*pi*lam), 2'")
        assert status == 0
        assert self.states("reports the cubic summand's wall at λ = 1/3 twice, as `pair 0 2` and "
                           "`pair 1 3`")
        assert "crossing lambda 0.333333333333 pair 0 2\n" in out
        assert "crossing lambda 0.333333333333 pair 1 3\n" in out

    def test_direct_sum_solitons(self, capsys):
        quoted = "qhsing solitons 'x^3+y^3' --b=-3,-0.3 --pair 1 3"
        assert self.run_quoted(capsys, quoted) == (0, "count 1\n")
        assert self.states("prints `count 1`") and self.states("`--pair 1 4` moves in both summands")
        status, out = self.run_quoted(capsys, quoted.removesuffix(" --pair 1 3"), "--pair", "1", "4")
        assert status == 2 and out.startswith("error ")


@pytest.mark.parametrize("argv, message", [
    (("walls", "x^3"), "need --path <expr in lam>"),
    (("solitons", "x^3", "--b=-3"), "need --pair <i> <j>"),
    (("walls", "x^3", "--path", "lam" + "+1" * 3000),
     "--path: 'lam+1+1+1+1+1+1+1+1+'... is nested too deeply"),
], ids=["walls-no-path", "solitons-no-pair", "path-too-deep"])
def test_refusals(capsys, argv, message):
    assert run(capsys, *argv) == (2, f"error {message}\n")
