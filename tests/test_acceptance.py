"""Acceptance suite: one test per contract criterion, run `pytest -v` for
a pass/fail line apiece.  Criteria 1-9 are self-contained; criterion 10
needs a user-supplied benchmark accuracy export (see the skip reason).
"""
import csv
import functools
import io
import math
import os
import time

import numpy as np
import pytest

import oracles
from naswot.benchdata import load_benchmark_csv, load_cifar10_batch, random_normal_batch
from naswot.cli import main as cli_main
from naswot.network import NetworkConfig, build_network, forward_collect_codes
from naswot.scoring import ScoreStatus, hamming_kernel, logdet_score, make_scorer, score_network
from naswot.search import area_search, naswot_search, rea_search
from naswot.searchspace import Genotype, OpKind, enumerate_all, sample_uniform
from naswot.stats import kendall_tau

ZEROISE_ARCH = Genotype.uniform(OpKind.ZEROISE)
CONV_ARCH = Genotype.uniform(OpKind.CONV_3X3)


@functools.lru_cache(maxsize=1)
def _code_corpus():
    """1,000 random binary code matrices, N <= 64 inputs, N_A <= 4,096 units."""
    rng = np.random.default_rng(20230817)
    corpus = []
    for _ in range(1000):
        n = int(rng.integers(2, 65))
        n_units = int(rng.integers(1, 4097))
        corpus.append(rng.integers(0, 2, size=(n, n_units), dtype=np.uint8))
    return corpus


@functools.lru_cache(maxsize=1)
def _corpus_kernels():
    """(codes, kernel) for each corpus matrix."""
    return [(codes, hamming_kernel(codes)) for codes in map(oracles.codes_from_bits, _code_corpus())]


def test_criterion_1_packed_kernel_matches_per_bit_oracle_on_1000_matrices():
    """Bit-packed Hamming kernel == per-bit oracle exactly; diagonal is the
    unit count; symmetric.  Must finish inside 10 seconds."""
    start = time.perf_counter()
    for bits in _code_corpus():
        kernel = hamming_kernel(oracles.codes_from_bits(bits))
        expected = oracles.kernel_per_bit(bits)
        assert np.array_equal(kernel, expected)
        assert np.all(np.diag(kernel) == bits.shape[1])
        assert np.array_equal(kernel, kernel.T)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"kernel corpus took {elapsed:.1f}s, budget 10s"


def test_criterion_2_kernel_is_positive_semidefinite_over_the_corpus():
    """Minimum eigenvalue >= -1e-6 * N_A for every corpus kernel."""
    for codes, kernel in _corpus_kernels():
        smallest = np.linalg.eigvalsh(kernel)[0]
        assert smallest >= -1e-6 * codes.n_units


def test_criterion_3_logdet_matches_determinant_oracles_within_rel_1e8():
    """logdet_score on 500 random PSD matrices (size <= 8) vs an LU oracle,
    relative 1e-8; cofactor expansion cross-checks the small sizes; the
    integer fixture [[4,3,3],[3,4,2],[3,2,4]] has determinant 12."""
    fixture = np.array([[4.0, 3.0, 3.0], [3.0, 4.0, 2.0], [3.0, 2.0, 4.0]])
    assert oracles.det_cofactor(fixture) == 12.0
    fixture_score = logdet_score(fixture)
    assert fixture_score.is_valid
    assert math.isclose(fixture_score.value, math.log(12.0), rel_tol=1e-8)

    rng = np.random.default_rng(3)
    for _ in range(500):
        n = int(rng.integers(1, 9))
        basis = rng.normal(size=(n, n + 3))
        psd = basis @ basis.T
        ours = logdet_score(psd)
        assert ours.is_valid
        expected = oracles.logdet_lu(psd)
        assert math.isclose(ours.value, expected, rel_tol=1e-8, abs_tol=1e-8)
        if n <= 5:
            det = oracles.det_cofactor(psd)
            assert det > 0
            assert math.isclose(ours.value, math.log(det), rel_tol=1e-8, abs_tol=1e-8)


def test_criterion_4_score_invariances_hold_for_100_random_desk_genotypes():
    """Batch permutation moves the score by <= 1e-9; doubling the input
    leaves the codes bit-identical under zero-bias batch-stat normalization
    (epsilon 0 so the first normalizer cancels the scale exactly); permuting
    code columns leaves the kernel exactly unchanged.  Under 2 minutes."""
    arch_rng = np.random.default_rng(4)
    cfg = NetworkConfig.desk()
    cfg_exact = NetworkConfig.desk(bn_epsilon=0.0)
    batch = random_normal_batch((16, 3, 8, 8), seed=7)
    perm = np.random.default_rng(8).permutation(16)

    start = time.perf_counter()
    for _ in range(100):
        genotype = sample_uniform(arch_rng)

        base = score_network(genotype, cfg, batch)
        permuted = score_network(genotype, cfg, batch[perm])
        assert base.status == permuted.status
        if base.is_valid:
            assert abs(base.value - permuted.value) <= 1e-9

        net = build_network(genotype, cfg_exact)
        codes = forward_collect_codes(net, batch)
        scaled = forward_collect_codes(net, batch * 2.0)
        assert np.array_equal(codes.words, scaled.words)

        bits = oracles.unpack_codes(codes)
        cols = np.random.default_rng(9).permutation(bits.shape[1])
        shuffled = oracles.codes_from_bits(bits[:, cols])
        assert np.array_equal(hamming_kernel(codes), hamming_kernel(shuffled))
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"invariance sweep took {elapsed:.1f}s, budget 120s"


def test_criterion_5_all_zeroise_genotype_is_singular_and_never_selected():
    """The all-ZEROISE cell yields a constant code for every input, so the
    score is SINGULAR for any batch, and sampling search never returns it
    while a VALID candidate exists."""
    cfg = NetworkConfig.desk()
    for batch in (
        random_normal_batch((4, 3, 8, 8), seed=0),
        random_normal_batch((16, 3, 8, 8), seed=1),
        random_normal_batch((64, 3, 8, 8), seed=2),
        np.zeros((8, 3, 8, 8), dtype=np.float32),
    ):
        assert score_network(ZEROISE_ARCH, cfg, batch).status is ScoreStatus.SINGULAR

    batch = random_normal_batch((8, 3, 8, 8), seed=3)
    scorer = make_scorer(cfg, batch)
    draw = np.random.default_rng(5)
    others = [sample_uniform(draw) for _ in range(8)] + [CONV_ARCH]
    for position in (0, 4, len(others)):
        candidates = list(others)
        candidates.insert(position, ZEROISE_ARCH)
        result = naswot_search(len(candidates), scorer, 0, candidates=candidates)
        assert result.chosen.genotype != ZEROISE_ARCH
        assert result.chosen.score.is_valid


def test_criterion_6_enumeration_search_returns_exhaustive_argmax_on_729_space():
    """Restricted to 3 ops (ZEROISE, IDENTITY, CONV_3X3) the space has 729
    genotypes; scored at desk config with a fixed random batch of 16, the
    enumeration-mode search must return the brute-force argmax.  Under 5
    minutes."""
    start = time.perf_counter()
    cfg = NetworkConfig.desk()
    batch = random_normal_batch((16, 3, 8, 8), seed=6)
    candidates = list(enumerate_all(ops=(OpKind.ZEROISE, OpKind.IDENTITY, OpKind.CONV_3X3)))
    assert len(candidates) == 729

    scores = [score_network(g, cfg, batch) for g in candidates]
    best_index = max(range(len(candidates)), key=lambda i: (scores[i], -i))

    result = naswot_search(len(candidates), make_scorer(cfg, batch), 0, candidates=candidates)
    assert result.chosen.genotype == candidates[best_index]
    assert result.chosen.score == scores[best_index]
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"enumeration took {elapsed:.1f}s, budget 300s"


def test_criterion_7_kendall_tau_matches_pair_enumeration_oracle_exactly():
    """Tie-corrected tau equals the O(n^2) pair-enumeration oracle bit for
    bit on 100 random tied and untied inputs (n <= 200), and reproduces the
    fixed examples -1 and 2/3 exactly."""
    assert kendall_tau([1, 2, 3], [3, 2, 1]) == -1.0
    assert kendall_tau([1, 2, 3, 4], [1, 3, 2, 4]) == 2.0 / 3.0

    rng = np.random.default_rng(7)
    for trial in range(100):
        n = int(rng.integers(2, 201))
        if trial % 2 == 0:
            x = rng.integers(0, 6, size=n).astype(float)  # heavy ties
            y = rng.integers(0, 6, size=n).astype(float)
        else:
            x = rng.normal(size=n)
            y = rng.normal(size=n)
        if len(set(x)) == 1 or len(set(y)) == 1:
            continue  # degenerate by construction, covered elsewhere
        assert kendall_tau(x, y) == oracles.tau_pair_enumeration(x, y)


def test_criterion_8_pool_selection_retains_top_scores_and_beats_plain_evolution():
    """Scored-pool seeding (pool 20 -> population 10): every retained initial
    score >= every discarded score, across 100 seeds.  With a strictly
    score-monotone evaluator and budget == population, the score-assisted
    run is at least as good as plain evolution for each common seed."""
    cfg = NetworkConfig.desk()
    batch = random_normal_batch((8, 3, 8, 8), seed=8)
    base_scorer = make_scorer(cfg, batch)
    memo = {}

    def scorer(genotype):
        if genotype not in memo:
            memo[genotype] = base_scorer(genotype)
        return memo[genotype]

    def evaluator(genotype):
        score = scorer(genotype)
        if not score.is_valid:
            return 0.0
        return 50.0 + 50.0 * math.tanh(score.value / 100.0)

    for seed in range(100):
        area = area_search(
            scorer, evaluator, pool_size=20, population_size=10,
            tournament_size=5, budget_evals=10, rng=seed,
        )
        assert len(area.pool) == 20
        retained_archs = {c.genotype for c in area.history}
        retained = [c.score for c in area.pool if c.genotype in retained_archs]
        discarded = [c.score for c in area.pool if c.genotype not in retained_archs]
        assert len(retained) + len(discarded) == 20
        assert min(retained) >= max(discarded)

        rea = rea_search(
            evaluator, population_size=10, tournament_size=5,
            budget_evals=10, rng=seed,
        )
        assert area.chosen.accuracy >= rea.chosen.accuracy


def test_criterion_9_every_cli_subcommand_is_byte_identical_across_reruns(
    capsys, tmp_path, full_bench_csv
):
    """Rerunning each subcommand with identical flags and seed reproduces
    the output file and stdout byte for byte."""
    arch = str(CONV_ARCH)
    bench = str(full_bench_csv)
    desk = ["--preset", "desk", "--batch-size", "8", "--seed", "11"]
    commands = {
        "score": ["score", arch, *desk, "--dump-kernel", "raw"],
        "dump-kernel": ["dump-kernel", arch, *desk],
        "search": ["search", *desk, "--n", "5"],
        "rea": ["rea", "--bench", bench, "--seed", "11", "--pop", "4",
                "--tournament", "2", "--budget", "8"],
        "area": ["area", "--bench", bench, *desk, "--pool", "6", "--pop", "3",
                 "--tournament", "2", "--budget", "6"],
        "correlate": ["correlate", "--bench", bench, *desk, "--n", "4"],
        "ablate": ["ablate", arch, *desk, "--mode", "batches", "--repeats", "2"],
    }
    def stable_stdout(text):
        # walltime is the one legitimately nondeterministic stdout line
        return [l for l in text.splitlines() if not l.startswith("walltime ")]

    for name, args in commands.items():
        out_path = tmp_path / f"{name}.csv"
        argv = [*args, "--out", str(out_path)]

        assert cli_main(argv) == 0, name
        first_stdout = capsys.readouterr().out
        first_bytes = out_path.read_bytes()

        assert cli_main(argv) == 0, name
        second_stdout = capsys.readouterr().out
        assert stable_stdout(second_stdout) == stable_stdout(first_stdout), name
        assert out_path.read_bytes() == first_bytes, name


NB201_CSV_ENV = "NASWOT_NB201_CSV"
CIFAR10_DIR_ENV = "NASWOT_CIFAR10_DIR"
REFERENCE_MEAN_TEST_ACC = 92.81  # 100-sample search on the CIFAR-10 export


@pytest.mark.skipif(
    NB201_CSV_ENV not in os.environ,
    reason=(
        "needs a benchmark accuracy export: set NASWOT_NB201_CSV to a CSV with "
        "header arch,dataset,val_acc,test_acc covering the full space "
        "(optionally NASWOT_CIFAR10_DIR to a directory of CIFAR-10 .bin files); "
        "extended suite, expect minutes to hours on CPU"
    ),
)
def test_criterion_10_benchmark_export_reproduces_reference_numbers():
    """(a) score/accuracy rank correlation over 1,000 sampled genotypes at
    batch 128 exceeds 0.3; (b) 100-sample search repeated over 50 seeds lands
    within +/-1.5 points of the reference mean test accuracy 92.81."""
    table = load_benchmark_csv(os.environ[NB201_CSV_ENV], dataset="cifar10")
    cfg = NetworkConfig()
    if CIFAR10_DIR_ENV in os.environ:
        batch = load_cifar10_batch(
            os.environ[CIFAR10_DIR_ENV], 128, np.random.default_rng(0)
        )
    else:
        batch = random_normal_batch((128, *cfg.input_shape), seed=0)

    base_scorer = make_scorer(cfg, batch)
    memo = {}

    def scorer(genotype):
        if genotype not in memo:
            memo[genotype] = base_scorer(genotype)
        return memo[genotype]

    from naswot.stats import correlate_space

    report = correlate_space(
        table, scorer, sample_n=1000, rng=np.random.default_rng(10),
    )
    assert report.tau > 0.3, f"tau {report.tau:.3f} <= 0.3"

    test_metric = table.evaluator("test_acc")
    finals = []
    for run_seed in range(50):
        result = naswot_search(100, scorer, np.random.default_rng(1000 + run_seed))
        finals.append(test_metric(result.chosen.genotype))
    mean_acc = sum(finals) / len(finals)
    assert abs(mean_acc - REFERENCE_MEAN_TEST_ACC) <= 1.5, (
        f"mean test accuracy {mean_acc:.2f} outside "
        f"{REFERENCE_MEAN_TEST_ACC} +/- 1.5"
    )
