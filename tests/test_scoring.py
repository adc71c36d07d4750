import inspect
import math
from collections import Counter

import numpy as np
import pytest

import naswot.network
from naswot.benchdata import random_normal_batch
from naswot.network import ActivationCodeMatrix, NetworkConfig, build_network, forward_collect_codes
from naswot.scoring import (
    Score,
    ScoreStatus,
    ZeroDiagonal,
    hamming_kernel,
    logdet_score,
    make_scorer,
    normalize_kernel,
    score_network,
)
from naswot.searchspace import Genotype, OpKind, as_generator, parse_arch, sample_uniform

from make_golden import MIXED, TABLES
from oracles import (codes_from_bits, codes_from_sites, det_cofactor, kernel_per_bit, kernel_python_loops, logdet_lu,
                     unpack_codes)

EXAMPLE = "|nor_conv_3x3~0|+|none~0|skip_connect~1|+|avg_pool_3x3~0|nor_conv_1x1~1|skip_connect~2|"


def random_codes(rng, n=None, n_units=None) -> ActivationCodeMatrix:
    n = n or int(rng.integers(2, 16))
    n_units = n_units or int(rng.integers(1, 200))
    return codes_from_bits(rng.integers(0, 2, size=(n, n_units)))


class TestHammingKernel:
    def test_identical_codes(self):
        codes = codes_from_bits([[1, 0, 1, 0], [1, 0, 1, 0]])
        k = hamming_kernel(codes)
        assert type(k) is np.ndarray and k.dtype == np.float64
        assert np.array_equal(k, [[4, 4], [4, 4]])
        assert codes.n_units == 4

    def test_complementary_codes(self):
        k = hamming_kernel(codes_from_bits([[0, 0, 0, 0], [1, 1, 1, 1]]))
        assert np.array_equal(k, [[4, 0], [0, 4]])

    def test_three_code_fixture(self):
        k = hamming_kernel(codes_from_bits([[1, 0, 1, 0], [1, 1, 1, 0], [0, 0, 1, 0]]))
        assert np.array_equal(k, [[4, 3, 3], [3, 4, 2], [3, 2, 4]])

    def test_matches_per_bit_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            codes = random_codes(rng)
            bits = unpack_codes(codes)
            assert np.array_equal(hamming_kernel(codes), kernel_per_bit(bits))

    def test_oracle_agrees_with_python_loops_on_tiny_codes(self):
        rng = np.random.default_rng(1)
        bits = rng.integers(0, 2, size=(4, 9)).astype(bool)
        assert np.array_equal(kernel_per_bit(bits), np.array(kernel_python_loops(list(bits))))

    def test_symmetric_with_unit_count_diagonal(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            codes = random_codes(rng)
            k = hamming_kernel(codes)
            assert np.array_equal(k, k.T)
            assert np.all(np.diag(k) == codes.n_units)
            assert k.min() >= 0 and k.max() <= codes.n_units

    def test_equals_code_gram_plus_complement_gram(self):
        # K = C C^T + (1-C)(1-C)^T, which is why it is always PSD
        rng = np.random.default_rng(3)
        for _ in range(20):
            bits = unpack_codes(random_codes(rng)).astype(np.int64)
            gram = bits @ bits.T + (1 - bits) @ (1 - bits).T
            k = hamming_kernel(codes_from_bits(bits))
            assert np.array_equal(k, gram)

    def test_column_permutation_leaves_kernel_unchanged(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            codes = random_codes(rng)
            bits = unpack_codes(codes)
            perm = rng.permutation(bits.shape[1])
            permuted = codes_from_bits(bits[:, perm])
            assert np.array_equal(hamming_kernel(codes), hamming_kernel(permuted))

    def test_weighted_sites_match_per_bit_oracle(self):
        # sites of multiplicity 1-3, most ending inside a word: each word's
        # count weighted by its site's multiplicity, pad bits left out
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(2, 16))
            codes = codes_from_sites([(rng.integers(0, 2, size=(n, int(rng.integers(1, 150)))), int(rng.integers(1, 4)))
                                      for _ in range(int(rng.integers(1, 6)))])
            assert np.array_equal(hamming_kernel(codes), kernel_per_bit(unpack_codes(codes)))

    def test_weighted_disagreement_above_2_to_the_24_is_exact(self):
        # one unit of multiplicity 2^24 + 1 and 63 of multiplicity 1: the
        # codes disagree on the heavy unit and on 2 light ones, 2^24 + 3
        # weighted bits, an odd integer that float32 cannot hold
        heavy, light = np.array([[0], [1]]), np.zeros((2, 63), dtype=int)
        light[1, [5, 40]] = 1
        codes = codes_from_sites([(heavy, 2 ** 24 + 1), (light, 1)])
        n_units = 2 ** 24 + 64
        assert codes.n_units == n_units
        want = np.array([[n_units, n_units - (2 ** 24 + 3)], [n_units - (2 ** 24 + 3), n_units]], dtype=np.float64)
        assert np.array_equal(hamming_kernel(codes), want)


class TestLogdet:
    def test_diagonal_fixture(self):
        score = logdet_score(np.diag([4.0, 4.0]))
        assert score.is_valid
        assert math.isclose(score.value, math.log(16.0), rel_tol=1e-12)

    def test_rank_one_fixture_is_singular(self):
        score = logdet_score(np.array([[4.0, 4.0], [4.0, 4.0]]))
        assert score.status is ScoreStatus.SINGULAR

    def test_three_by_three_fixture(self):
        matrix = np.array([[4, 3, 3], [3, 4, 2], [3, 2, 4]], dtype=np.float64)
        assert det_cofactor(matrix) == 12.0
        score = logdet_score(matrix)
        assert score.is_valid
        assert math.isclose(score.value, math.log(12.0), rel_tol=1e-8)
        assert math.isclose(score.value, 2.484907, rel_tol=1e-6)

    def test_matches_lu_oracle_on_random_psd(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            a = rng.standard_normal((n, n))
            matrix = a @ a.T + n * np.eye(n)
            score = logdet_score(matrix)
            assert score.is_valid
            assert math.isclose(score.value, logdet_lu(matrix), rel_tol=1e-8)

    def test_cofactor_and_lu_oracles_agree(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            n = int(rng.integers(1, 6))
            a = rng.standard_normal((n, n))
            matrix = a @ a.T + n * np.eye(n)
            assert math.isclose(math.log(det_cofactor(matrix)), logdet_lu(matrix), rel_tol=1e-8)

    def test_non_finite_matrix_flagged(self):
        matrix = np.array([[np.nan, 0.0], [0.0, 1.0]])
        assert logdet_score(matrix).status is ScoreStatus.NON_FINITE

    def test_indefinite_matrix_is_singular_status(self):
        matrix = np.array([[1.0, 2.0], [2.0, 1.0]])  # det < 0
        assert logdet_score(matrix).status is ScoreStatus.SINGULAR

    @pytest.mark.parametrize("shape", [(3, 4), (4, 3), (3,), (), (2, 2, 2)])
    def test_malformed_matrix_raises(self, shape):
        with pytest.raises(ValueError, match="square matrix"):
            logdet_score(np.ones(shape))


class TestNormalize:
    def test_unit_diagonal_always(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            k = hamming_kernel(random_codes(rng))
            normalized = normalize_kernel(k)
            assert np.array_equal(np.diag(normalized), np.ones(k.shape[0]))
            assert np.array_equal(normalized, normalized.T)

    def test_diagonal_fixture(self):
        k = np.array([[4.0, 0.0], [0.0, 4.0]])
        assert np.array_equal(normalize_kernel(k), np.eye(2))

    def test_three_code_fixture_off_diagonals(self):
        k = np.array([[4.0, 3, 3], [3, 4, 2], [3, 2, 4]])
        normalized = normalize_kernel(k)
        np.testing.assert_allclose(normalized[0, 1], 0.75)
        np.testing.assert_allclose(normalized[0, 2], 0.75)
        np.testing.assert_allclose(normalized[1, 2], 0.5)

    def test_zero_diagonal_rejected(self):
        k = np.array([[0.0, 0.0], [0.0, 4.0]])
        with pytest.raises(ZeroDiagonal):
            normalize_kernel(k)


class TestScoreOrdering:
    def test_invalid_sorts_below_every_valid(self):
        scores = [
            Score(-1e9),
            Score.invalid(ScoreStatus.SINGULAR),
            Score(2.0),
            Score.invalid(ScoreStatus.NON_FINITE),
        ]
        ordered = sorted(scores)
        assert [s.is_valid for s in ordered] == [False, False, True, True]
        assert ordered[-1] == Score(2.0)

    def test_valid_scores_order_by_value(self):
        assert Score(1.0) < Score(2.0)
        assert Score(2.0) >= Score(1.0)
        assert max(Score(1.0), Score.invalid(ScoreStatus.SINGULAR)) == Score(1.0)

    def test_sentinel_value_not_used_for_valid_comparisons(self):
        singular = Score.invalid(ScoreStatus.SINGULAR)
        assert singular.value == -np.inf
        assert singular < Score(-1e300)

    def test_hash_consistent_with_equality(self):
        assert hash(Score(1.5)) == hash(Score(1.5))
        assert Score.invalid(ScoreStatus.SINGULAR) != Score.invalid(ScoreStatus.NON_FINITE)


class TestScoreNetwork:
    def setup_method(self):
        self.cfg = NetworkConfig.desk()
        self.batch = np.random.default_rng(0).standard_normal((32, 3, 8, 8), dtype=np.float32)

    def test_all_zeroise_is_singular(self):
        for seed in range(3):
            batch = np.random.default_rng(seed).standard_normal((16, 3, 8, 8), dtype=np.float32)
            score = score_network(Genotype.uniform(OpKind.ZEROISE), self.cfg, batch)
            assert score.status is ScoreStatus.SINGULAR

    def test_same_inputs_twice_bit_identical(self):
        genotype = parse_arch(EXAMPLE)
        a = score_network(genotype, self.cfg, self.batch)
        b = score_network(genotype, self.cfg, self.batch)
        assert a == b and a.value == b.value

    def test_frozen_regression_value(self):
        # pinned at first build: all-3x3-conv cell, desk config, init
        # seed 0, standard-normal batch seed 0, batch size 32
        score = score_network(Genotype.uniform(OpKind.CONV_3X3), self.cfg, self.batch)
        assert score.is_valid
        assert math.isclose(score.value, 259.03738650222635, rel_tol=1e-9)

    def test_duplicate_input_forces_singular(self):
        genotype = parse_arch(EXAMPLE)
        batch = self.batch.copy()
        batch[5] = batch[2]
        assert score_network(genotype, self.cfg, batch).status is ScoreStatus.SINGULAR

    def test_batch_permutation_leaves_score_nearly_unchanged(self):
        gen = as_generator(8)
        perm = np.random.default_rng(9).permutation(self.batch.shape[0])
        for _ in range(5):
            genotype = sample_uniform(gen)
            a = score_network(genotype, self.cfg, self.batch)
            b = score_network(genotype, self.cfg, self.batch[perm])
            assert a.status == b.status
            if a.is_valid:
                assert abs(a.value - b.value) <= 1e-9

    def test_make_scorer_binds_config_and_batch(self):
        scorer = make_scorer(self.cfg, self.batch)
        genotype = parse_arch(EXAMPLE)
        assert scorer(genotype) == score_network(genotype, self.cfg, self.batch)

    def test_score_is_finite_positive_for_typical_genotype(self):
        net = build_network(parse_arch(EXAMPLE), self.cfg)
        codes = forward_collect_codes(net, self.batch)
        score = logdet_score(hamming_kernel(codes))
        assert score.is_valid and math.isfinite(score.value)


def same_score(got: Score, want: Score) -> bool:
    return got.status is want.status and got.value == want.value


class TestMakeScorer:
    # A scorer keeps the all-3x3 genotype's weight stream and the stem's
    # output while making and keeping each stays under layers._SPLIT_BYTES:
    # both at the desk preset at batch 128 (363 KB; 256 KB, its stem conv
    # 0.9 MB), the stream alone at 1024 (its stem conv 7 MB), neither at
    # the full preset (6.1 MB; 8 MB).  Its scores are score_network's, bit
    # for bit.
    _, DESK, DESK_BATCH, _, DESK_ARCHS = TABLES[0]

    @pytest.mark.parametrize("batch_size", [DESK_BATCH, 1024])
    def test_desk_scores_equal_score_network(self, batch_size):
        batch = random_normal_batch((batch_size, *self.DESK.input_shape), 0)
        scorer = make_scorer(self.DESK, batch)
        for arch in self.DESK_ARCHS:
            genotype = parse_arch(arch)
            assert same_score(scorer(genotype), score_network(genotype, self.DESK, batch)), arch

    def test_full_score_equals_score_network_after_the_batch_changes(self):
        config = NetworkConfig()
        batch = random_normal_batch((128, *config.input_shape), 0)
        genotype = parse_arch(MIXED[0])
        want = score_network(genotype, config, batch)
        scorer = make_scorer(config, batch)
        batch[1] = batch[0]  # would make the kernel singular
        assert same_score(scorer(genotype), want)

    @pytest.mark.parametrize("batch_size", [DESK_BATCH, 1024])
    def test_desk_score_ignores_later_changes_to_the_batch(self, batch_size):
        batch = random_normal_batch((batch_size, *self.DESK.input_shape), 1)
        genotypes = [parse_arch(arch) for arch in MIXED[:3]]
        want = [score_network(genotype, self.DESK, batch) for genotype in genotypes]
        scorer = make_scorer(self.DESK, batch)
        batch[1] = batch[0]
        batch[2:] = -batch[2:]
        assert all(same_score(scorer(g), w) for g, w in zip(genotypes, want))

    @pytest.mark.parametrize("config,batch_size,kept", [(DESK, 128, (True, True)), (DESK, 1024, (True, False)),
                                                        (NetworkConfig(), 128, (False, False))],
                             ids=["desk", "desk-1024", "full"])
    def test_keeps_small_pieces_read_only(self, config, batch_size, kept):
        batch = random_normal_batch((batch_size, *config.input_shape), 0)
        state = inspect.getclosurevars(make_scorer(config, batch)).nonlocals
        assert (state["stream"] is not None, state["stem"] is not None) == kept
        assert not np.shares_memory(state["batch"], batch)
        for name in ("batch", "stream", "stem"):
            assert state[name] is None or not state[name].flags.writeable, name

    def test_kept_stem_and_stream_are_not_made_per_genotype(self, monkeypatch):
        calls = Counter()
        for module, name in ((naswot.network, "conv2d"), (naswot.network, "_weight_stream")):
            fn = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, _fn=fn, _name=name, **k: calls.update([_name]) or _fn(*a, **k))
        batch = random_normal_batch((32, *self.DESK.input_shape), 0)
        genotype = parse_arch(EXAMPLE)
        score_network(genotype, self.DESK, batch)
        fresh = Counter(calls)
        scorer = make_scorer(self.DESK, batch)
        calls.clear()
        scorer(genotype)
        assert fresh - calls == Counter({"conv2d": 1, "_weight_stream": 1})

    @pytest.mark.parametrize("shape", [(1, 3, 8, 8), (4, 3, 4, 8), (4, 8, 8)])
    def test_bad_batch_raises_when_the_scorer_is_made(self, shape):
        with pytest.raises(ValueError):
            make_scorer(self.DESK, np.zeros(shape, dtype=np.float32))
