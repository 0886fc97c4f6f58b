"""qhsing benchmark: one workload, one seed, one line of metrics.

    python3 bench/run.py --workload soliton-shoot --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's src/.  Set-up is measured in fresh interpreters (four set-up
probes plus the workload process itself, median reported).  The workload
then runs in one single-threaded process as a closed loop: one client
sends each job when the previous one has returned and checks every answer
against an independent oracle.  It runs whole passes over the seed's job
list, at least two, and starts another only while it is expected to end
within --seconds.  Processes run one at a time.

The last stdout line is a JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics of BENCHMARK.json with
--trace 0, its per-layer metrics with --trace 1.  Lines before it name
the environment, the failing job kinds and the tail percentile used.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 4
DEADLINE_S = 170.0


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(argv, deadline) -> tuple[float, dict]:
    """Run one workload process to the end; (start time, its report)."""
    start = now()
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), *argv],
                          cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=max(deadline - start, 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"workload process failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    return start, json.loads(proc.stdout.strip().splitlines()[-1])


def tail_percentile(jobs_per_pass: int) -> int:
    """Highest whole percentile with at least ten jobs of one pass beyond it."""
    return max(0, math.floor(100 * (jobs_per_pass - 10) / jobs_per_pass))


def nearest_rank(values, pct) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        path = ROOT / ".git" / ref[5:]
        return path.read_text().strip() if path.is_file() else ref[5:]
    return ref


def end_to_end(report, setups) -> dict[str, float]:
    job_s = report["job_s"]
    pct = tail_percentile(report["jobs_per_pass"])
    return {
        "jobs_per_s": len(job_s) / sum(job_s),
        "job_p50_ms": 1e3 * statistics.median(job_s),
        "job_tail_ms": 1e3 * nearest_rank(job_s, pct),
        "ok_ratio": 1.0 - report["failed"] / report["attempted"],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": report["peak_rss_mb"],
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "qhsing" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"no qhsing sources or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        p.error(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    deadline = now() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = []
    for _ in range(SETUP_PROBES):
        start, rep = spawn(common + ["--setup-only"], deadline)
        setups.append(rep["ready"] - start)
    start, report = spawn(common + ["--seconds", str(args.seconds),
                                    "--trace", str(args.trace)], deadline)
    setups.append(report["ready"] - start)

    values = report["layers"] if args.trace else end_to_end(report, setups)
    differ = set(values) ^ {m["name"] for m in wanted}
    if differ:
        print(f"metric names differ from BENCHMARK.json: {sorted(differ)}", file=sys.stderr)
        return 1

    env = dict(report["env"], commit=commit(), nproc=os.cpu_count(),
               affinity=len(os.sched_getaffinity(0)))
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"jobs_per_pass {report['jobs_per_pass']} passes {report['passes']} "
          f"attempted {report['attempted']} failed {report['failed']} "
          f"fail_ratio {report['failed'] / report['attempted']:.6g}")
    if not args.trace:
        print(f"job_tail_ms is p{tail_percentile(report['jobs_per_pass'])} "
              f"over {report['attempted']} jobs")
    for label, n in sorted(report["outcomes"].items()):
        if label.split(":", 2)[1] != "ok":
            print(f"failing {n} {label}")
    for name in report.get("missing", []):
        print(f"missing {name}")
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
