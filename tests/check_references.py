"""Score every row of the benchmark's reference tables and compare.

Usage, from the repository root:

    python3 tests/check_references.py [--workload NAME ...]

For each ``perfbench/reference/<workload>.json`` it scores the rows in
memory exactly as ``perfbench/make_reference.py`` would write them, and
counts the stored rows whose (status, score) the new scores equal
exactly and the rows within the workload's tolerance (status exact,
score within its relative bound).  The tables are only read.  It exits
1 if any row misses its tolerance.  The full-search table takes a
minute or two on one core.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
# first: it pins the BLAS thread count before NumPy loads
from make_reference import make_reference  # noqa: E402

import argparse  # noqa: E402

from workloads import WORKLOADS, check_score, load_reference  # noqa: E402


def check_workload(workload) -> tuple[int, int, int]:
    """(rows, rows equal to the reference, rows within tolerance)."""
    stored = load_reference(workload)["rows"]
    scored = make_reference(workload)["rows"]
    equal = sum(scored.get(arch) == row for arch, row in stored.items())
    within = sum(arch in scored and check_score(stored, arch, *scored[arch], workload.score_rel_tol)
                 for arch in stored)
    return len(stored), equal, within


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="check only this workload (repeatable)")
    args = parser.parse_args(argv)
    totals = [0, 0, 0]
    for name in args.workload or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        counts = check_workload(workload)
        rows, equal, within = counts
        print(f"{name}: {rows} rows, {equal} ==, {within} within rel {workload.score_rel_tol:g}, "
              f"{rows - within} missed", flush=True)
        totals = [t + c for t, c in zip(totals, counts)]
    rows, equal, within = totals
    print(f"total: {rows} rows, {equal} ==, {within} within tolerance, {rows - within} missed")
    return 0 if within == rows else 1


if __name__ == "__main__":
    sys.exit(main())
