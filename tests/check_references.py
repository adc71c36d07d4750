"""Score every row of the benchmark's reference tables and compare.

Usage, from the repository root:

    python3 tests/check_references.py [--workload NAME ...]
    python3 tests/check_references.py --base OTHER/src [--workload NAME ...]

For each ``perfbench/reference/<workload>.json`` it scores the rows in
memory exactly as ``perfbench/make_reference.py`` would write them, and
counts the stored rows whose (status, score) the new scores equal
exactly and the rows within the workload's tolerance (status exact,
score within its relative bound).  The tables are only read.  It exits
1 if any row misses its tolerance.  The full-search table takes a
minute or two on one core.

With ``--base`` it counts flips between two source trees instead: this
repository's ``src`` and OTHER/src (say, an unpacked ``git archive`` of
another commit).  Each tree scores every reference row in its own
subprocess, building, running and scoring each network through the
public ``naswot`` API, and streams each row's activation codes and
score; this process compares the two streams one row at a time, so no
codes are kept.  Per workload it prints the rows whose code bits differ,
the code bits flipped, the rows whose status differs and the largest
relative score drift among rows valid under both.  It exits 1 if any
bit flipped or any status differs.  A tree whose codes carry ``sites``
(each site packed once, from a word boundary on, with its multiplicity
m) streams each site's words m times over: the layout of a tree that
writes each site m times in a row wherever every site fills whole
words, as at every preset.  A row whose streamed code matrices differ in
shape is an error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
from run import BLAS_ENV  # noqa: E402

os.environ.update(BLAS_ENV)  # before NumPy loads BLAS, here and in the subprocesses

import numpy as np  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, check_score, load_reference  # noqa: E402


def check_workload(workload) -> tuple[int, int, int]:
    """(rows, rows equal to the reference, rows within tolerance)."""
    from make_reference import make_reference

    stored = load_reference(workload)["rows"]
    scored = make_reference(workload)["rows"]
    equal = sum(scored.get(arch) == row for arch, row in stored.items())
    within = sum(arch in scored and check_score(stored, arch, *scored[arch], workload.score_rel_tol)
                 for arch in stored)
    return len(stored), equal, within


def repeated_sites(codes):
    """The code words with each site's words repeated m times in a row,
    for codes that carry ``sites``; the words as they are otherwise."""
    if not hasattr(codes, "sites"):
        return codes.words
    columns, at = [], 0
    for units, m in codes.sites:
        span = -(-units // 64)
        columns += [codes.words[:, at:at + span]] * m
        at += span
    return np.concatenate(columns, axis=1)


def emit_codes(src: str, workload) -> None:
    """Write, for each reference row in order, one JSON line (arch,
    status, value, code shape) and then the code words' bytes (see
    ``repeated_sites``), scored by the ``naswot`` under ``src``."""
    sys.path.insert(0, src)
    from naswot import (NonFiniteActivation, Score, ScoreStatus, build_network, forward_collect_codes,
                        hamming_kernel, logdet_score, parse_arch, random_normal_batch)

    config = workload.config()
    batch = random_normal_batch(workload.input_shape(), DEFAULT_SEED)
    out = sys.stdout.buffer
    for arch in sorted(load_reference(workload)["rows"]):
        try:
            codes = forward_collect_codes(build_network(parse_arch(arch), config), batch)
        except NonFiniteActivation:
            codes = None
        if codes is None:
            score, shape = Score.invalid(ScoreStatus.NON_FINITE), None
        else:
            words = repeated_sites(codes)
            score, shape = logdet_score(hamming_kernel(codes)), [*words.shape, codes.n_units]
        head = {"arch": arch, "status": score.status.value, "value": score.value if score.is_valid else None,
                "shape": shape}
        out.write(json.dumps(head).encode() + b"\n")
        if codes is not None:
            out.write(words.tobytes())
        out.flush()


def count_flips(workload, base_src: str) -> dict:
    """Rows, rows with flipped code bits, bits flipped, status changes and
    the largest relative score drift of this tree against ``base_src``."""
    procs = [subprocess.Popen([sys.executable, __file__, "--emit-codes", src, "--workload", workload.name],
                              stdout=subprocess.PIPE, cwd=ROOT)
             for src in (str(ROOT / "src"), base_src)]
    counts = {"rows": 0, "flipped_rows": 0, "bits": 0, "status_changed": 0, "max_rel_drift": 0.0}

    def next_row(proc) -> tuple:
        """The next (head, code bytes) ``proc`` wrote; (None, None) at its end."""
        line = proc.stdout.readline()
        if not line:
            return None, None
        head = json.loads(line)
        shape = head["shape"]
        return head, shape and proc.stdout.read(8 * shape[0] * shape[1])

    try:
        while True:
            (new, new_words), (old, old_words) = map(next_row, procs)
            if new is None and old is None:
                break
            if new is None or old is None or new["arch"] != old["arch"] or new["shape"] != old["shape"]:
                raise SystemExit(f"{workload.name}: the trees' rows differ at {new} against {old}")
            counts["rows"] += 1
            if new_words:
                flips = (int.from_bytes(new_words, "little") ^ int.from_bytes(old_words, "little")).bit_count()
                counts["flipped_rows"] += flips > 0
                counts["bits"] += flips
            counts["status_changed"] += new["status"] != old["status"]
            if new["value"] is not None and old["value"] is not None and new["value"] != old["value"]:
                drift = abs(new["value"] - old["value"]) / abs(old["value"]) if old["value"] else math.inf
                counts["max_rel_drift"] = max(counts["max_rel_drift"], drift)
        for proc in procs:
            proc.wait()
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
    if any(proc.returncode for proc in procs):
        raise SystemExit(f"{workload.name}: a scoring subprocess failed")
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="check only this workload (repeatable)")
    parser.add_argument("--base", metavar="SRC", help="count code bit flips against the naswot under SRC")
    parser.add_argument("--emit-codes", metavar="SRC", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    names = args.workload or sorted(WORKLOADS)
    if args.emit_codes:
        emit_codes(args.emit_codes, WORKLOADS[names[0]])
        return 0
    if args.base:
        bad = 0
        for name in names:
            c = count_flips(WORKLOADS[name], str(Path(args.base).resolve()))
            print(f"{name}: {c['rows']} rows, {c['flipped_rows']} with code bits flipped, {c['bits']} bits "
                  f"flipped, {c['status_changed']} status changed, max rel drift {c['max_rel_drift']:.3g}",
                  flush=True)
            bad += c["bits"] + c["status_changed"]
        return 1 if bad else 0
    totals = [0, 0, 0]
    for name in names:
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
