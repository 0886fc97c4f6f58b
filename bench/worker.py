"""One workload process: set up, run the job list as a closed loop, report.

Started by run.py with PYTHONPATH pointing at the checkout's src/.  One
client sends each job only after the previous one returned.  Prints one
JSON line on stdout:

* ``--setup-only``: the monotonic time at which set-up finished;
* untraced: per-job times and outcomes of whole passes over the job list
  (at least two);
* ``--trace 1``: one untraced pass, then the same pass traced, and the
  per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from collections import Counter
from pathlib import Path

import workloads
from oracles import Mismatch
from workloads import Refused

OUT = Path(__file__).resolve().parent.parent / ".bench_out"


def execute(job) -> dict:
    """Run one job and check its answer; never raises."""
    run, check = workloads.KINDS[job["kind"]]
    status, label = "ok", ""
    t0 = time.perf_counter()
    try:
        result = run(job)
    except (ValueError, RuntimeError) as exc:  # the program's domain refusals
        status, label = "refused", type(exc).__name__
    except Exception as exc:  # noqa: BLE001 - any other raise is a crash
        status, label = "crash", type(exc).__name__
    t1 = time.perf_counter()
    if status == "ok":
        try:
            check(job, result)
        except Mismatch as exc:
            status, label = "wrong", str(exc)[:120]
        except Refused as exc:
            status, label = "refused", str(exc)[:120]
        except Exception as exc:  # noqa: BLE001 - unreadable answer
            status, label = "crash", f"check {type(exc).__name__}: {exc}"[:120]
    return dict(kind=job["kind"], s=t1 - t0, check_s=time.perf_counter() - t1,
                status=status, label=label, known_defect=bool(job.get("known_defect")))


def run_pass(jobs, tracer=None) -> tuple[list[dict], float]:
    t0 = time.perf_counter()
    outcomes = []
    for job in jobs:
        if tracer is not None:
            tracer.job = job["id"]
        outcomes.append(execute(job))
    return outcomes, time.perf_counter() - t0


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    # Set-up: everything a CLI user pays on each call (importing qhsing,
    # done by the imports above), plus generating the inputs.
    jobs = workloads.generate(args.workload, args.seed)
    workloads.prepare(jobs, OUT / "inputs" / f"{args.workload}-{args.seed}")
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    import numpy
    import scipy
    report = {"ready": ready, "jobs_per_pass": len(jobs),
              "env": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                      "scipy": scipy.__version__}}
    if args.trace:
        from spans import Tracer, layer_metrics
        plain, _ = run_pass(jobs)
        tracer = Tracer()
        tracer.install()
        try:
            outcomes, _ = run_pass(jobs, tracer)
        finally:
            tracer.uninstall()
        tracer.write_spans(OUT / f"spans-{args.workload}-{args.seed}.tsv")
        overhead = sum(o["s"] for o in outcomes) / sum(o["s"] for o in plain)
        report["layers"] = layer_metrics(tracer, sum(o["check_s"] for o in outcomes),
                                         overhead)
        report["missing"] = tracer.missing
        report["passes"] = 1
    else:
        # Whole passes only, so every run measures the same job mix: at
        # least two, then another only if it is expected to end in time.
        outcomes, elapsed, passes = [], 0.0, 0
        while passes < 2 or elapsed + elapsed / passes <= args.seconds:
            done, dt = run_pass(jobs)
            outcomes += done
            elapsed += dt
            passes += 1
        report["passes"] = passes
        report["job_s"] = [o["s"] for o in outcomes]
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report.update(summarize(outcomes))
    print(json.dumps(report))
    return 0


def summarize(outcomes) -> dict:
    """Counts by outcome, and whether every answer was right.

    A refusal is a failure but not a wrong answer.  A wrong answer from a
    job marked as a known defect is a failure that leaves `correct` true.
    """
    return {
        "outcomes": Counter(
            f"{o['kind']}:{o['status']}" + (f":{o['label']}" if o["label"] else "")
            + (" [known defect]" if o["known_defect"] and o["status"] != "ok" else "")
            for o in outcomes),
        "attempted": len(outcomes),
        "failed": sum(o["status"] != "ok" for o in outcomes),
        "correct": not any(o["status"] == "crash"
                           or (o["status"] == "wrong" and not o["known_defect"])
                           for o in outcomes),
    }


if __name__ == "__main__":
    sys.exit(main())
