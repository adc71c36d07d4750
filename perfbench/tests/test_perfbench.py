"""Tests of the benchmark itself: run with ``python3 -m pytest -q perfbench/tests``."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import naswot.network
from naswot import NUM_EDGES, OpKind, Score, ScoreStatus, parse_arch
from spans import MissingTraceTarget, Tracer, UnusedTraceTarget, _computed
from worker import TimedScorer
from workloads import WORKLOADS, check_score, design_pool, load_reference, tail_rank

PERFBENCH = Path(__file__).resolve().parents[1]
ROOT = PERFBENCH.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
COMPUTED = (  # per-layer metrics derived from argument shapes only
    "network.relu_units", "network.code_bytes", "layers.conv2d.calls", "layers.conv2d.gflop",
    "layers.conv2d.im2col_mb", "layers.batchnorm_batchstats.calls",
    "layers.batchnorm_batchstats.mb", "layers.avg_pool2d.calls", "layers.avg_pool2d.mb",
    "scoring.hamming_kernel.mb_read", "scoring.valid_ratio", "scoring.singular_count",
    "search.memo_hit_ratio",
)


# -- tail rule ---------------------------------------------------------------


@pytest.mark.parametrize("n", [41, 65, 650, 5000])
def test_tail_keeps_ten_samples_beyond_when_a_run_has_enough(n):
    k, pct = tail_rank(n)
    assert n - 1 - k == 10
    assert pct == pytest.approx(100 * k / (n - 1))


@pytest.mark.parametrize("n, beyond", [(2, 0), (5, 1), (10, 2), (21, 5), (40, 10)])
def test_tail_keeps_a_quarter_beyond_when_a_run_is_short(n, beyond):
    k, _ = tail_rank(n)
    assert n - 1 - k == beyond


def test_tail_of_one_sample_and_of_none():
    assert tail_rank(1) == (0, 100.0)
    with pytest.raises(ValueError):
        tail_rank(0)


# -- output check ------------------------------------------------------------


def test_check_score_tolerance_and_status():
    rows = {"a": ["valid", 100.0], "b": ["singular", None]}
    assert check_score(rows, "a", "valid", 100.0, 1e-9)
    assert check_score(rows, "a", "valid", 100.0 * (1 + 5e-10), 1e-9)
    assert not check_score(rows, "a", "valid", 100.0 * (1 + 2e-9), 1e-9)
    assert not check_score(rows, "a", "singular", float("-inf"), 1e-9)
    assert not check_score(rows, "b", "valid", 100.0, 1e-9)
    assert check_score(rows, "b", "singular", float("-inf"), 1e-9)
    assert not check_score(rows, "c", "valid", 100.0, 1e-9)


def test_scorer_wrapper_counts_perturbed_flipped_and_raising_scores():
    workload = WORKLOADS["desk-search"]
    rows = load_reference(workload)["rows"]
    valid = [arch for arch, (status, _) in rows.items() if status == "valid"][:4]
    outcomes = {
        valid[0]: Score(rows[valid[0]][1]),
        valid[1]: Score(rows[valid[1]][1] * (1 + 1e-8)),
        valid[2]: Score.invalid(ScoreStatus.SINGULAR),
    }

    def fake_scorer(genotype):
        if str(genotype) not in outcomes:
            raise FloatingPointError("boom")
        return outcomes[str(genotype)]

    scorer = TimedScorer(fake_scorer)
    for arch in valid:
        scorer(parse_arch(arch))
    assert len(scorer.calls) == 4
    assert scorer.failures(rows, workload.score_rel_tol) == 3


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_reference_pool_is_the_latin_design_and_fully_tabulated(name):
    workload = WORKLOADS[name]
    reference = load_reference(workload)
    pool = design_pool(workload)
    assert reference["pool"] == pool
    assert len(pool) == workload.blocks
    for block in pool:
        genotypes = [[parse_arch(a) for a in slot] for slot in block]
        for e in range(NUM_EDGES):
            assert sorted(slot[0].ops[e] for slot in genotypes) == list(OpKind)
        for slot in genotypes:
            assert len(slot) == workload.arrangements
            assert all(sorted(g.ops) == sorted(slot[0].ops) for g in slot)
            assert all(str(g) in reference["rows"] for g in slot)


# -- tracer ------------------------------------------------------------------


def test_tracer_names_a_missing_target_and_restores_the_rest(monkeypatch):
    original = naswot.network.avg_pool2d
    monkeypatch.delattr(naswot.network, "conv2d")
    with pytest.raises(MissingTraceTarget, match="naswot.network.conv2d"):
        with Tracer().installed():
            pass
    assert naswot.network.avg_pool2d is original


def test_tracer_names_a_target_that_got_no_calls():
    tracer = Tracer()
    with tracer.installed():
        naswot.network.conv2d(np.ones((2, 1, 4, 4), np.float32), np.ones((1, 1, 1, 1), np.float32))
    with pytest.raises(UnusedTraceTarget, match="naswot.scoring.build_network got no calls"):
        tracer.check_all_called()


def test_self_times_partition_the_root_span():
    tracer = Tracer()
    with tracer.span("root"):
        with tracer.span("child"):
            with tracer.span("grandchild"):
                pass
        with tracer.span("child"):
            pass
    totals = tracer.totals()
    root = tracer.spans[0]
    assert sum(t["self_s"] for t in totals.values()) == pytest.approx(root[2] - root[1])
    assert totals["child"]["calls"] == 2


def test_computed_conv_counts():
    counts = _computed("layers.conv2d", ((2, 3, 8, 8), (8, 3, 3, 3), 2, 1))
    cols = 2 * 4 * 4 * 3 * 9
    assert counts == {"flop": 2.0 * cols * 8, "im2col_bytes": 4.0 * cols}


# -- the command -------------------------------------------------------------


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _declared(kind):
    return {m["name"]: m["unit"] for m in DECLARED[kind]}


@pytest.fixture(scope="module")
def traced_runs():
    return [_run("--workload", "desk-search", "--seed", "3", "--seconds", "1", "--trace", "1")
            for _ in range(2)]


def test_every_printed_metric_is_declared_in_benchmark_json(traced_runs):
    untraced = _run("--workload", "desk-search", "--seed", "3", "--seconds", "1", "--trace", "0")
    for proc, kind in ((untraced, "end_to_end"), (traced_runs[0], "per_layer")):
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        declared = _declared(kind)
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
        printed = {m.group(1) for line in lines[:-1]
                   if (m := re.match(r"([a-z][\w.]*)\s+-?[\d.]+(e[-+]\d+)?\s", line))}
        # failed_fraction is carried by the result's failed / attempted
        assert printed - {"failed_fraction"} <= set(declared)
        assert set(declared) <= printed


def test_computed_counts_repeat_exactly_for_a_seed(traced_runs):
    first, second = (json.loads(p.stdout.strip().splitlines()[-1])["metrics"] for p in traced_runs)
    for name in COMPUTED:
        assert first[name]["value"] == second[name]["value"], name


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(PERFBENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run("--workload", "desk-search", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
