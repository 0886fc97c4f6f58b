"""Self-tests of the benchmark harness.

    python3 bench/selfcheck.py

Checks that job lists are a function of the seed, that a planted wrong
answer is counted as a failure, that per-layer counts repeat exactly
between two traced runs, that the cubic wall count reproduces the known
RK-sample and RHS-evaluation totals, that a renamed function is reported
as missing instead of breaking the trace, and that BENCHMARK.json and
layers.json agree with what the harness reports.  Takes about a minute.
Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

FAILED = []


def check(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'} {name}" + (f": {detail}" if detail and not ok else ""))
    if not ok:
        FAILED.append(name)


def job_lists_follow_the_seed():
    for w in workloads.GENERATORS:
        a = json.dumps(workloads.generate(w, 7))
        check(f"{w}: same seed, same job list", a == json.dumps(workloads.generate(w, 7)))
        check(f"{w}: other seed, other job list", a != json.dumps(workloads.generate(w, 8)))


def planted_wrong_answer_is_counted():
    from qhsing import lefschetz
    job = next(j for j in workloads.generate("exact-algebra", 1) if j["kind"] == "tensor")
    real = lefschetz.contract_pm
    lefschetz.contract_pm = lambda *a, **k: real(*a, **k) + 1
    try:
        planted = worker.execute(job)
    finally:
        lefschetz.contract_pm = real
    honest = worker.execute(job)
    summary = worker.summarize([honest, planted])
    check("planted wrong answer counted as failed",
          planted["status"] == "wrong" and summary["failed"] == 1
          and summary["attempted"] == 2 and not summary["correct"], str(summary))


def traced_counts(workload, seed):
    out = subprocess.run([sys.executable, str(BENCH / "worker.py"), "--workload", workload,
                          "--seed", str(seed), "--trace", "1"],
                         cwd=ROOT, env=run.child_env(), capture_output=True, text=True,
                         check=True)
    layers = json.loads(out.stdout.strip().splitlines()[-1])["layers"]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    # Times and ratios of times vary; everything else is a count of work.
    return {k: v for k, v in layers.items()
            if units[k] not in ("s", "us") and k != "trace.overhead_ratio"}


def layer_counts_repeat():
    for w in ("exact-algebra", "morse-walls"):
        a, b = traced_counts(w, 3), traced_counts(w, 3)
        diff = {k: (a[k], b[k]) for k in a if a[k] != b[k]}
        check(f"{w}: per-layer counts repeat between traced runs", not diff, str(diff))


def cubic_count_reproduces_baseline():
    tracer = spans.Tracer()
    tracer.install()
    try:
        outcome = worker.execute(dict(kind="count-cubic-cli", s=1.0))
    finally:
        tracer.uninstall()
    m = spans.layer_metrics(tracer, 0.0, 1.0)
    rk, rhs = m["soliton.rk_samples"], m["soliton.rhs_evals"]
    check("cubic wall count = 1", outcome["status"] == "ok", str(outcome))
    check(f"cubic count RK samples {rk} ~ 47k, RHS evaluations {rhs} ~ 283k",
          abs(rk - 46906) <= 0.02 * 46906 and abs(rhs - 282680) <= 0.02 * 282680)


def missing_name_is_reported():
    from qhsing import lefschetz
    real = lefschetz.gabrielov_move
    del lefschetz.gabrielov_move
    tracer = spans.Tracer()
    try:
        tracer.install()
        tracer.uninstall()
        metrics = spans.layer_metrics(tracer, 0.0, 1.0)
    finally:
        lefschetz.gabrielov_move = real
    check("removed function reported as missing",
          tracer.missing == ["lefschetz.gabrielov_move"] and metrics["trace.missing"] == 1,
          str(tracer.missing))


def uninstall_restores():
    from qhsing import morse, wpoly
    before = (morse.gradient, wpoly.gradient, morse.find_critical_points)
    tracer = spans.Tracer()
    tracer.install()
    wrapped = morse.gradient is not before[0]
    tracer.uninstall()
    check("install wraps and uninstall restores",
          wrapped and (morse.gradient, wpoly.gradient, morse.find_critical_points) == before)


def spec_agrees():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((BENCH / "layers.json").read_text())
    per_layer = [m["name"] for m in spec["per_layer"]]
    e2e = [m["name"] for m in spec["end_to_end"]]
    reported = spans.layer_metrics(spans.Tracer(), 0.0, 1.0)
    fake = dict(job_s=[0.1] * 20, jobs_per_pass=20, failed=0, attempted=20, peak_rss_mb=1.0)
    check("per-layer metrics match BENCHMARK.json", set(reported) == set(per_layer))
    check("end-to-end metrics match BENCHMARK.json",
          set(run.end_to_end(fake, [1.0])) == set(e2e))
    check("layers.json maps every per-layer metric", set(layers["moves"]) == set(per_layer))
    check("layers.json moves name known metrics and workloads",
          all(m in e2e and w in workloads.GENERATORS
              for mv in layers["moves"].values() for m, w in mv))
    check("workloads match", [w["name"] for w in spec["workloads"]] == list(workloads.GENERATORS)
          == list(layers["workloads"]))


def main() -> int:
    job_lists_follow_the_seed()
    planted_wrong_answer_is_counted()
    missing_name_is_reported()
    uninstall_restores()
    spec_agrees()
    layer_counts_repeat()
    cubic_count_reproduces_baseline()
    print("ALL PASS" if not FAILED else f"FAILED {len(FAILED)}")
    return 1 if FAILED else 0


if __name__ == "__main__":
    sys.exit(main())
