"""Scoring benchmark of the naswot library.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py): ``full-search``, ``desk-search`` and
``desk-wide-batch``.  Each is a closed loop, one caller in one process:
``naswot_search`` calls over seeded genotype draws, scored through the
library's public ``make_scorer`` by a wrapper that times every call.

With ``--trace 0`` it prints the end-to-end metrics:

* ``genotypes_per_s``  draws ranked per second of timed search wall time
* ``score_ms_p50``     median wall time of one scorer call
* ``score_ms_tail``    highest percentile of the same samples with at
                       least ten samples beyond it (a quarter of them
                       when a run has too few; the percentile is printed)
* ``peak_rss_mb``      peak resident memory of the scoring process
* ``setup_s``          process start to first timed score (imports, input
                       batch, BLAS warm-up; not the benchmark's own reading
                       of its reference table), median over several fresh
                       processes
* ``failed_fraction``  scorings that raised or disagreed with the stored
                       reference, over scorings attempted; it is carried
                       by ``failed`` / ``attempted`` of the result line

With ``--trace 1`` it scores a fixed number of blocks for the given
``--seconds`` with timing wrappers around the scoring path, scores each
of those genotypes once more without them for the tracing overhead, and
prints the per-layer table (spans.py).

The last line of stdout is one JSON object with keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  This file uses the standard
library only; the scoring runs in child processes (worker.py) with the
BLAS thread count pinned.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# One BLAS thread on every commit: at most nproc on any box, and an
# unpinned count moved desk-search throughput by ~10%.
BLAS_THREADS = 1
BLAS_ENV = {name: str(BLAS_THREADS)
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
# Set-up is measured in this many extra fresh processes, plus the
# scoring process itself, and the median is reported.  Half run before
# the scoring process and half after it: a shared host's CPU speed can change
# within seconds, and probes at both ends of the run sample more of it.
SETUP_PROBES = 8
CHILD_TIMEOUT_S = 170

E2E_UNITS = {
    "genotypes_per_s": "1/s",
    "score_ms_p50": "ms",
    "score_ms_tail": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


def worker(args, setup_only: bool) -> dict:
    """Run worker.py in a fresh interpreter; return its JSON result."""
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    spawned_at = perf_counter()  # CLOCK_MONOTONIC: comparable across processes
    cmd += ["--spawned-at", repr(spawned_at)]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S,
                              text=True, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"worker exceeded {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchmarkError(f"worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchmarkError("worker printed no result")
    return json.loads(lines[-1])


def report_untraced(result: dict, setups: list[float]) -> dict:
    metrics = dict(result["metrics"], setup_s=statistics.median(setups))
    calls, draws = result["attempted"], result["draws"]
    counts = {
        "genotypes_per_s": f"n={draws} draws in {result['wall_s']:.2f} s",
        "score_ms_p50": f"n={calls} calls",
        "score_ms_tail": f"p{result['tail_percentile']:.1f} of n={calls} calls",
        "peak_rss_mb": "n=1 process",
        "setup_s": f"median of n={len(setups)} set-ups",
    }
    for name, unit in E2E_UNITS.items():
        print(f"{name:<18} {metrics[name]:>14.6g} {unit:<8} {counts[name]}")
    print(f"{'failed_fraction':<18} {result['failed'] / calls:>14.6g} {'1':<8} "
          f"failed/attempted = {result['failed']}/{calls}")
    return {name: {"value": metrics[name], "unit": unit} for name, unit in E2E_UNITS.items()}


def report_traced(result: dict) -> dict:
    draws = result["draws"]
    print(f"spans (self ms per scored genotype; {draws} draws, traced wall "
          f"{result['wall_s']:.2f} s)")
    calls = result["spans"]["scoring.score_network"]["calls"]
    for name, span in sorted(result["spans"].items(), key=lambda kv: -kv[1]["self_ms"]):
        print(f"  {name:<32} {span['self_ms'] / calls:>12.4f} ms  calls={int(span['calls'])}")
    print(f"  self times / traced wall = {result['accounted_ratio']:.6f}")
    for name, value in result["metrics"].items():
        print(f"{name:<36} {value:>14.6g} {result['units'][name]}")
    return {name: {"value": value, "unit": result["units"][name]}
            for name, value in result["metrics"].items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="naswot scoring benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "naswot" / "__init__.py").is_file():
        print(f"error: no naswot sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    try:
        probes = 0 if args.trace else SETUP_PROBES // 2
        setups = [worker(args, True)["setup_s"] for _ in range(probes)]
        result = worker(args, False)
        setups += [worker(args, True)["setup_s"] for _ in range(probes)]
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    env = result["env"]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    if args.trace:
        metrics = report_traced(result)
    else:
        metrics = report_untraced(result, setups + [result["setup_s"]])
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
