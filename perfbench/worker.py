"""One benchmark process: set up, run one workload, print one JSON line.

``run.py`` starts this file in a fresh interpreter with the BLAS thread
count pinned and ``src`` on the path; see ``run.py`` for the metrics.
With ``--setup-only`` it stops where the first timed score would start,
which is how ``run.py`` repeats set-up several times in a run.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

from naswot import (Genotype, NetworkConfig, OpKind, Score, ScoreStatus, make_scorer,
                    naswot_search, random_normal_batch)

from spans import REPLAY, SEARCH, Tracer, per_layer_metrics
from workloads import DEFAULT_SEED, WORKLOADS, DrawPlan, check_score, load_reference, tail_rank

OUT_DIR = Path(__file__).resolve().parents[1] / ".perfbench-out"
# What the scorer wrapper returns when a scoring raised; the call is
# counted as failed and the search goes on.
FAILED = Score.invalid(ScoreStatus.NON_FINITE)


def warm_up() -> None:
    """Initialise BLAS/LAPACK and the lazily loaded parts of the scoring
    path by scoring on a tiny 4x4-input network, at no workload's preset."""
    config = NetworkConfig.desk(input_shape=(3, 4, 4))
    genotype = Genotype((OpKind.CONV_3X3, OpKind.CONV_1X1, OpKind.AVGPOOL_3X3,
                         OpKind.IDENTITY, OpKind.ZEROISE, OpKind.CONV_3X3))
    make_scorer(config, np.ones((2, 3, 4, 4), dtype=np.float32)
                * np.arange(2, dtype=np.float32)[:, None, None, None])(genotype)
    np.linalg.cholesky(np.eye(8))


class TimedScorer:
    """The benchmark's scorer: times each call and keeps its outcome."""

    def __init__(self, scorer, tracer=None) -> None:
        self._scorer = scorer
        self._tracer = tracer
        self.calls: list[tuple[Genotype, object, float]] = []  # (genotype, Score or error, s)

    def __call__(self, genotype: Genotype) -> Score:
        start = perf_counter()
        try:
            if self._tracer is None:
                score = self._scorer(genotype)
            else:
                with self._tracer.span("scoring.score_network"):
                    score = self._scorer(genotype)
        except Exception as exc:  # a failed scoring is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            self.calls.append((genotype, exc, perf_counter() - start))
            return FAILED
        self.calls.append((genotype, score, perf_counter() - start))
        return score

    def failures(self, rows: dict, rel_tol: float) -> int:
        failed = 0
        for genotype, outcome, _ in self.calls:
            if not isinstance(outcome, Score) or not check_score(
                rows, str(genotype), outcome.status.value, outcome.value, rel_tol
            ):
                failed += 1
        return failed


def blas_info() -> dict:
    cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line and ".so" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"blas": f"{cfg.get('name')} {cfg.get('version')}", "blas_threads": threads,
            "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS")}


def environment() -> dict:
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__, **blas_info()}


def run_search(candidates, scorer, seed: int, tracer=None) -> tuple[int, float]:
    """One naswot_search call; returns (draws, wall seconds)."""
    start = perf_counter()
    if tracer is None:
        result = naswot_search(0, scorer, seed, candidates=candidates)
    else:
        with tracer.span(SEARCH):
            result = naswot_search(0, scorer, seed, candidates=candidates)
    return len(result.history), perf_counter() - start


def untraced(plan, scorer, seed, seconds) -> dict:
    draws, wall = 0, 0.0
    start = perf_counter()
    deadline = start + seconds
    expired = lambda: perf_counter() >= deadline  # noqa: E731
    while not (draws and expired()):
        n, dt = run_search(plan.timed_pass(expired), scorer, seed)
        draws += n
        wall += dt
    times = sorted(s for _, _, s in scorer.calls)
    k, pct = tail_rank(len(times))
    return {
        "draws": draws,
        "wall_s": wall,
        "tail_percentile": pct,
        "metrics": {
            "genotypes_per_s": draws / wall,
            "score_ms_p50": statistics.median(times) * 1e3,
            "score_ms_tail": times[k] * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
    }


class PairedScorer:
    """Scores each genotype traced and untraced, alternating which goes
    first, so the tracing overhead is measured on the same genotypes
    under the same machine load."""

    def __init__(self, scorer, tracer) -> None:
        self._tracer = tracer
        self.traced = TimedScorer(scorer, tracer)
        self.plain = TimedScorer(scorer)

    def _plain(self, genotype: Genotype) -> None:
        with self._tracer.span(REPLAY), self._tracer.paused():
            self.plain(genotype)

    def __call__(self, genotype: Genotype) -> Score:
        plain_first = len(self.traced.calls) % 2
        if plain_first:
            self._plain(genotype)
        score = self.traced(genotype)
        if not plain_first:
            self._plain(genotype)
        return score


def traced(workload, plan, scorer_fn, seed, seconds, batch_ms) -> tuple[dict, list]:
    # A fixed number of blocks for a given --seconds, so the computed
    # counts repeat exactly for a seed from run to run and commit to commit.
    n_blocks = max(1, round(seconds / 2 / workload.block_seconds))
    tracer = Tracer()
    scorer = PairedScorer(scorer_fn, tracer)
    draws, first = 0, 0
    with tracer.installed():
        for genotypes in plan.fixed_passes(n_blocks):
            draws += run_search(tracer.indexed(genotypes, first), scorer, seed, tracer)[0]
            first += len(genotypes)
    tracer.check_all_called()

    totals = tracer.totals()
    replay = totals.pop(REPLAY)
    traced_wall = totals[SEARCH]["s"] - replay["s"]
    statuses = [o.status for _, o, _ in scorer.traced.calls if isinstance(o, Score)]
    traced_s = sum(t for *_, t in scorer.traced.calls)
    plain_s = sum(t for *_, t in scorer.plain.calls)
    metrics = per_layer_metrics(
        totals, draws,
        singular=statuses.count(ScoreStatus.SINGULAR),
        valid=statuses.count(ScoreStatus.VALID),
        batch_ms=batch_ms,
        overhead_ratio=traced_s / plain_s,
    )
    result = {
        "draws": draws,
        "wall_s": traced_wall,
        # Self times of all traced spans (wrapped layers, scorer glue,
        # search loop) over the traced wall: 1.0 when they account for it.
        "accounted_ratio": sum(t["self_s"] for t in totals.values()) / traced_wall,
        "spans": {name: {"calls": t["calls"], "self_ms": t["self_s"] * 1e3}
                  for name, t in totals.items()},
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "units": {k: u for k, (_, u) in metrics.items()},
    }
    tracer.write(OUT_DIR / f"trace-{workload.name}-seed{seed}.jsonl")
    return result, [scorer.traced, scorer.plain]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="perf_counter() of the parent just before it started this process")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    config = workload.config()
    start = perf_counter()
    batch = random_normal_batch(workload.input_shape(), DEFAULT_SEED)
    batch_ms = (perf_counter() - start) * 1e3
    scorer_fn = make_scorer(config, batch)
    warm_up()
    setup_s = perf_counter() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    # The benchmark's own bookkeeping stays out of setup_s.
    reference = load_reference(workload)
    plan = DrawPlan(reference["pool"], args.seed)

    if args.trace:
        result, scorers = traced(workload, plan, scorer_fn, args.seed, args.seconds, batch_ms)
    else:
        scorer = TimedScorer(scorer_fn)
        result = untraced(plan, scorer, args.seed, args.seconds)
        scorers = [scorer]
    result["setup_s"] = setup_s
    result["attempted"] = sum(len(s.calls) for s in scorers)
    result["failed"] = sum(s.failures(reference["rows"], workload.score_rel_tol) for s in scorers)
    result["env"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
