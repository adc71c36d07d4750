import numpy as np
import pytest

from naswot.benchdata import BenchmarkRecord, EvaluatorTable
from naswot.network import NetworkConfig
from naswot.scoring import Score, ScoreStatus, score_network
from naswot.searchspace import Genotype, OpKind, as_generator, sample_uniform
from naswot.stats import (
    ABLATION_BATCH_SIZES,
    AllSingularGroup,
    DegenerateInput,
    EmptyGroup,
    ablation_run,
    correlate_space,
    kendall_tau,
    normalize_by_min,
)

from oracles import tau_pair_enumeration


class TestKendallTau:
    def test_identical_ranking(self):
        assert kendall_tau([1, 2, 3], [1, 2, 3]) == 1.0

    def test_reversed_ranking(self):
        assert kendall_tau([1, 2, 3], [3, 2, 1]) == -1.0

    def test_one_swap_fixture(self):
        # 5 concordant pairs, 1 discordant: (5 - 1) / 6
        got = kendall_tau([1, 2, 3, 4], [1, 3, 2, 4])
        assert got == 4 / 6
        assert got == tau_pair_enumeration([1, 2, 3, 4], [1, 3, 2, 4])

    def test_matches_pair_enumeration_oracle_exactly(self):
        rng = np.random.default_rng(0)
        for trial in range(100):
            n = int(rng.integers(2, 201))
            if trial % 2:
                # heavy ties: small integer alphabet
                x = rng.integers(0, 6, size=n).astype(float)
                y = rng.integers(0, 6, size=n).astype(float)
            else:
                x = rng.standard_normal(n)
                y = rng.standard_normal(n)
            if len(set(x)) < 2 or len(set(y)) < 2:
                continue
            assert kendall_tau(x, y) == tau_pair_enumeration(list(x), list(y))

    def test_bounded_by_one(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(2, 60))
            x = rng.integers(0, 4, size=n).astype(float)
            y = rng.standard_normal(n)
            if len(set(x)) < 2:
                continue
            assert -1.0 <= kendall_tau(x, y) <= 1.0

    def test_antisymmetric_in_y(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(40)
        y = rng.standard_normal(40)
        assert kendall_tau(x, -y) == -kendall_tau(x, y)

    def test_invariant_under_strictly_increasing_transforms(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(50)
        y = rng.integers(0, 5, size=50).astype(float)
        base = kendall_tau(x, y)
        assert kendall_tau(x ** 3, y) == base
        assert kendall_tau(2 * x + 1, 3 * y - 2) == base

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(DegenerateInput):
            kendall_tau([1, 1, 1], [1, 2, 3])
        with pytest.raises(DegenerateInput):
            kendall_tau([1, 2, 3], [5, 5, 5])

    def test_bad_shapes_rejected(self):
        with pytest.raises(ValueError):
            kendall_tau([1, 2], [1, 2, 3])
        with pytest.raises(ValueError):
            kendall_tau([1], [2])
        with pytest.raises(ValueError):
            kendall_tau([1, np.nan, 3], [1, 2, 3])


def make_table(genotypes, accuracies):
    records = {
        str(g): BenchmarkRecord(str(g), "cifar10", acc, acc)
        for g, acc in zip(genotypes, accuracies)
    }
    return EvaluatorTable(records=records, dataset="cifar10")


class TestCorrelateSpace:
    def setup_method(self):
        self.cfg = NetworkConfig.desk()
        self.batch = np.random.default_rng(0).standard_normal((16, 3, 8, 8), dtype=np.float32)
        gen = as_generator(1)
        seen = {}
        while len(seen) < 12:
            g = sample_uniform(gen)
            seen.setdefault(str(g), g)
        self.genotypes = list(seen.values())
        self.scores = {
            str(g): score_network(g, self.cfg, self.batch) for g in self.genotypes
        }

    def scorer(self, genotype):
        return self.scores[str(genotype)]

    def valid_values(self):
        return {a: s.value for a, s in self.scores.items() if s.is_valid}

    def test_accuracy_equal_to_score_gives_tau_one(self):
        values = self.valid_values()
        table = make_table([g for g in self.genotypes if str(g) in values],
                           [min(max(v / 10, 0), 100) for v in values.values()])
        report = correlate_space(table, self.scorer, len(table), 5)
        assert report.tau == 1.0
        assert report.excluded_count == 0
        assert report.n == len(table)

    def test_accuracy_equal_to_negated_score_gives_tau_minus_one(self):
        values = self.valid_values()
        table = make_table([g for g in self.genotypes if str(g) in values],
                           [min(max(50 - v / 10, 0), 100) for v in values.values()])
        report = correlate_space(table, self.scorer, len(table), 5)
        assert report.tau == -1.0

    def test_deterministic_given_seed(self):
        values = self.valid_values()
        table = make_table([g for g in self.genotypes if str(g) in values],
                           list(np.linspace(10, 90, len(values))))
        a = correlate_space(table, self.scorer, 5, 9)
        b = correlate_space(table, self.scorer, 5, 9)
        assert [r.arch for r in a.rows] == [r.arch for r in b.rows]
        assert a.tau == b.tau

    def test_invalid_scores_excluded_but_reported(self):
        genotypes = self.genotypes[:4] + [Genotype.uniform(OpKind.ZEROISE)]
        table = make_table(genotypes, [10.0, 20.0, 30.0, 40.0, 50.0])

        def scorer(genotype):
            if all(op is OpKind.ZEROISE for op in genotype.ops):
                return Score.invalid(ScoreStatus.SINGULAR)
            return Score(float(sum(genotype.ops)))

        report = correlate_space(table, scorer, 5, 2)
        assert report.n == 5
        assert report.excluded_count == 1
        assert len([r for r in report.rows if r.score.is_valid]) == 4

    def test_sample_n_validated(self):
        table = make_table(self.genotypes[:3], [10.0, 20.0, 30.0])
        with pytest.raises(ValueError):
            correlate_space(table, self.scorer, 4, 0)
        with pytest.raises(ValueError):
            correlate_space(table, self.scorer, 0, 0)


class TestAblationRun:
    def setup_method(self):
        self.cfg = NetworkConfig.desk()
        gen = as_generator(4)
        self.genotype = sample_uniform(gen)

    def test_inits_mode_returns_requested_repeats(self):
        groups = ablation_run(self.genotype, self.cfg, "inits", 5, batch_size=8)
        assert list(groups) == ["inits"]
        assert len(groups["inits"]) == 5
        values = [s.value for s in groups["inits"] if s.is_valid]
        assert len(set(values)) > 1  # the varied factor actually varies

    def test_batches_mode_varies_the_batch_only(self):
        groups = ablation_run(self.genotype, self.cfg, "batches", 4, batch_size=8)
        assert len(groups["batches"]) == 4
        again = ablation_run(self.genotype, self.cfg, "batches", 4, batch_size=8)
        assert groups == again  # same seeds, identical scores

    def test_random_inputs_mode_ignores_the_factory(self):
        marker = {"calls": 0}

        def factory(batch_size, seed):
            marker["calls"] += 1
            return np.zeros((batch_size, 3, 8, 8), dtype=np.float32)

        groups = ablation_run(self.genotype, self.cfg, "random_inputs", 3,
                              batch_factory=factory, batch_size=8)
        assert marker["calls"] == 0
        assert len(groups["random_inputs"]) == 3

    def test_batch_sizes_mode_uses_the_fixed_size_ladder(self):
        groups = ablation_run(self.genotype, self.cfg, "batch_sizes", 2, batch_size=8)
        assert list(groups) == [str(s) for s in ABLATION_BATCH_SIZES] == ["32", "64", "128", "256"]
        assert all(len(scores) == 2 for scores in groups.values())

    def test_mode_and_repeats_validated(self):
        with pytest.raises(ValueError):
            ablation_run(self.genotype, self.cfg, "weights", 3)
        with pytest.raises(ValueError):
            ablation_run(self.genotype, self.cfg, "inits", 1)


class TestNormalizeByMin:
    def test_divides_by_group_minimum(self):
        assert normalize_by_min({"g": [Score(2.0), Score(4.0)]}) == {"g": [1.0, 2.0]}

    def test_single_element_group(self):
        assert normalize_by_min({"g": [Score(3.5)]}) == {"g": [1.0]}

    def test_groups_normalize_independently(self):
        groups = {"a": [Score(2.0), Score(6.0)], "b": [Score(10.0), Score(5.0)]}
        got = normalize_by_min(groups)
        for label, scores in groups.items():
            low = min(s.value for s in scores)
            assert got[label] == [s.value / low for s in scores]

    def test_score_objects_and_invalid_entries(self):
        groups = {"g": [Score(4.0), Score.invalid(ScoreStatus.SINGULAR), Score(2.0)]}
        assert normalize_by_min(groups) == {"g": [2.0, None, 1.0]}

    def test_empty_group_rejected(self):
        with pytest.raises(EmptyGroup):
            normalize_by_min({"g": []})

    def test_all_singular_group_rejected(self):
        with pytest.raises(AllSingularGroup):
            normalize_by_min({"g": [Score.invalid(ScoreStatus.SINGULAR)]})
