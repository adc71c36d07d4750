"""Regenerate the reference tables the benchmark checks every score against.

Usage, from the repository root:

    python3 perfbench/make_reference.py [--workload NAME ...]

It draws each workload's genotype pool from the default seed, scores
every genotype in it on the workload's input batch with the BLAS thread
count pinned as in a benchmark run, and writes
``perfbench/reference/<workload>.json``.  Run it only when the pool
design changes: the tables record the scores of the commit that made
them, and a later commit must match them, not regenerate them.
The full-search table takes a few minutes on one core.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
from run import BLAS_ENV  # noqa: E402

os.environ.update(BLAS_ENV)  # before NumPy loads BLAS

import argparse  # noqa: E402
import json  # noqa: E402

from naswot import make_scorer, parse_arch, random_normal_batch  # noqa: E402

from workloads import DEFAULT_SEED, WORKLOADS, design_pool, reference_path  # noqa: E402


def make_reference(workload) -> dict:
    pool = design_pool(workload)
    scorer = make_scorer(workload.config(), random_normal_batch(workload.input_shape(), DEFAULT_SEED))
    rows = {}
    for arch in sorted({a for block in pool for slot in block for a in slot}):
        score = scorer(parse_arch(arch))
        rows[arch] = [score.status.value, score.value if score.is_valid else None]
    return {"workload": workload.name, "seed": DEFAULT_SEED, "pool": pool, "rows": rows}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="regenerate only this workload (repeatable)")
    args = parser.parse_args(argv)
    for name in args.workload or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        path = reference_path(workload)
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(make_reference(workload), indent=1) + "\n", encoding="utf-8")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
