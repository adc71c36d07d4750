"""Run the benchmark over several seeds and summarise each metric.

Usage, from the repository root:

    python3 perfbench/spread.py --workload NAME [--workload NAME ...]
        [--seeds 1-10] [--seconds S] [--trace 0|1] [--json OUT]

For every workload and metric it prints the median, the first and
third quartiles (``statistics.quantiles(values, n=4)``) and the spread,
(q3 - q1) / median, next to the metric's bound from BENCHMARK.json.
Runs are sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=200, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    spread = (q3 - q1) / median if median else None
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": values}


def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=declared["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", type=Path, help="also write the summary here")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in declared["end_to_end"]}
    out = {}
    for workload in args.workload:
        results = [run_once(workload, s, args.seconds, args.trace) for s in args.seeds]
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print(f"{workload}: {len(results)} runs, failed {failed}/{attempted}")
        out[workload] = {"seeds": args.seeds, "failed": failed,
                         "attempted": [r["attempted"] for r in results], "metrics": {}}
        for name in results[0]["metrics"]:
            s = summary([r["metrics"][name]["value"] for r in results])
            out[workload]["metrics"][name] = s
            bound = bounds.get(name)
            print(f"  {name:<36} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {s['spread']}"
                  + (f"  bound {bound} (spread/bound {s['spread'] / bound:.2f})" if bound else ""))
    if args.json:
        args.json.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
