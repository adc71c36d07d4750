import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import naswot
from naswot.scoring import Score, ScoreStatus
from naswot.search import Candidate, area_search, naswot_search, rea_search
from naswot.searchspace import Genotype, OpKind, enumerate_all, sample_uniform

from oracles import synthetic_accuracy


def synthetic_score(genotype) -> Score:
    """Deterministic stand-in for network scoring; singular on all-zeroise."""
    if all(op is OpKind.ZEROISE for op in genotype.ops):
        return Score.invalid(ScoreStatus.SINGULAR)
    value = sum((i + 1) * int(op) for i, op in enumerate(genotype.ops))
    return Score(float(value))


def monotone_evaluator(genotype) -> float:
    """Accuracy strictly increasing in the synthetic score."""
    score = synthetic_score(genotype)
    value = score.value if score.is_valid else -1.0
    return 50.0 + 50.0 * np.tanh(value / 100.0)


class TestNaswotSearch:
    def test_single_sample_is_returned_whatever_its_score(self):
        result = naswot_search(1, synthetic_score, 0)
        assert result.chosen.genotype == result.history[0].genotype
        assert len(result.history) == 1

    def test_history_length_and_chosen_is_argmax(self):
        result = naswot_search(40, synthetic_score, 1)
        assert len(result.history) == 40
        best = max(c.score for c in result.history)
        assert result.chosen.score == best

    def test_earliest_birth_wins_ties(self):
        result = naswot_search(25, lambda g: Score(1.0), 2)
        assert result.chosen.birth == 0

    def test_all_singular_falls_back_to_first_draw(self):
        result = naswot_search(10, lambda g: Score.invalid(ScoreStatus.SINGULAR), 3)
        assert result.chosen.birth == 0

    @pytest.mark.parametrize("jobs", [1, 2, 3])
    def test_duplicates_scored_once(self, jobs):
        calls = []

        def counting(genotype):
            calls.append(genotype)
            return synthetic_score(genotype)

        identity, conv = Genotype.uniform(OpKind.IDENTITY), Genotype.uniform(OpKind.CONV_3X3)
        candidates = [identity, conv, identity] * 3 + [conv]
        result = naswot_search(0, counting, 0, candidates=candidates, jobs=jobs)
        assert sorted(calls, key=str) == sorted([identity, conv], key=str)
        assert [c.genotype for c in result.history] == candidates
        assert result.chosen == naswot_search(0, synthetic_score, 0, candidates=candidates).chosen

    @pytest.mark.parametrize("jobs", [2, 3])
    def test_sampled_search_same_at_every_jobs(self, jobs):
        serial = naswot_search(60, synthetic_score, 5)
        parallel = naswot_search(60, synthetic_score, 5, jobs=jobs)
        assert (parallel.chosen, parallel.history) == (serial.chosen, serial.history)

    def test_one_job_draws_each_candidate_just_before_scoring_it(self):
        """A caller's generator (perfbench checks its deadline in one) is
        consumed one draw per score, not drawn ahead."""
        space = [Genotype.uniform(op) for op in OpKind]
        events = []

        def draws():
            for genotype in space:
                events.append(("draw", genotype))
                yield genotype

        def scorer(genotype):
            events.append(("score", genotype))
            return synthetic_score(genotype)

        naswot_search(0, scorer, 0, candidates=draws())
        assert events == [event for g in space for event in (("draw", g), ("score", g))]

    def test_scorer_error_on_a_thread_is_raised_and_no_thread_outlives_it(self):
        failing = Genotype.uniform(OpKind.CONV_3X3)
        error = ZeroDivisionError("no score")

        def scorer(genotype):
            if genotype == failing:
                raise error
            return synthetic_score(genotype)

        candidates = [Genotype.uniform(op) for op in OpKind] * 4
        before = set(threading.enumerate())
        with pytest.raises(ZeroDivisionError) as raised:
            naswot_search(0, scorer, 0, candidates=candidates, jobs=2)
        assert raised.value is error
        assert set(threading.enumerate()) == before

    @pytest.mark.parametrize("jobs", [0, -2, True, False, 2.0])
    def test_jobs_validated(self, jobs):
        with pytest.raises(ValueError, match="jobs"):
            naswot_search(3, synthetic_score, 0, jobs=jobs)

    def test_deterministic_given_seed(self):
        a = naswot_search(30, synthetic_score, 11)
        b = naswot_search(30, synthetic_score, 11)
        assert a.chosen.genotype == b.chosen.genotype
        assert [c.genotype for c in a.history] == [c.genotype for c in b.history]

    @pytest.mark.parametrize("jobs", [1, 2, 3])
    def test_candidate_list_equals_bruteforce_argmax(self, jobs):
        space = list(enumerate_all(ops=(OpKind.ZEROISE, OpKind.IDENTITY, OpKind.CONV_3X3)))
        calls = []

        def counting(genotype):
            calls.append(genotype)
            return synthetic_score(genotype)

        result = naswot_search(0, counting, 0, candidates=space, jobs=jobs)
        best = max(space, key=lambda g: (synthetic_score(g), -space.index(g)))
        assert result.chosen.genotype == best
        assert len(result.history) == 729
        assert len(calls) == 729 and set(calls) == set(space)
        assert [c.score for c in result.history] == [synthetic_score(g) for g in space]

    def test_never_selects_singular_when_valid_exists(self):
        zero = Genotype.uniform(OpKind.ZEROISE)
        candidates = [zero, zero, Genotype.uniform(OpKind.IDENTITY), zero]
        result = naswot_search(0, synthetic_score, 0, candidates=candidates)
        assert result.chosen.genotype != zero
        assert result.chosen.score.is_valid

    def test_sample_count_validated(self):
        with pytest.raises(ValueError, match="^sample_count must be positive$"):
            naswot_search(0, synthetic_score, 0)
        for count in (True, 2.5, 3.0, "3"):
            with pytest.raises(ValueError, match=f"^sample_count must be an int of at least 1, got {count!r}$"):
                naswot_search(count, synthetic_score, 0)


class TestReaSearch:
    def test_budget_equal_population_returns_initial_best(self):
        result = rea_search(synthetic_accuracy, 10, 5, 10, 7)
        assert len(result.history) == 10
        assert result.chosen.accuracy == max(c.accuracy for c in result.history)
        assert {c.birth for c in result.history} == set(range(10))

    def test_history_length_equals_budget(self):
        calls = []

        def counting(genotype):
            calls.append(genotype)
            return synthetic_accuracy(genotype)

        result = rea_search(counting, 10, 5, 64, 7)
        assert len(result.history) == 64
        assert [c.birth for c in result.history] == list(range(64))
        # one call per evaluation: the initial members in birth order, then the children
        assert calls == [c.genotype for c in result.history]

    def test_children_are_single_edge_mutants(self):
        # every evolved child must differ from some member of the
        # population alive at its creation; cheap necessary check: it
        # differs from its recorded predecessor pool in >= 1 op
        result = rea_search(synthetic_accuracy, 5, 3, 40, 1)
        genotypes = [c.genotype for c in result.history]
        assert len(set(genotypes)) > 1

    def test_deterministic_given_seed(self):
        a = rea_search(synthetic_accuracy, 8, 4, 50, 3)
        b = rea_search(synthetic_accuracy, 8, 4, 50, 3)
        assert a.chosen.genotype == b.chosen.genotype
        assert [c.genotype for c in a.history] == [c.genotype for c in b.history]

    def test_hill_climbable_landscape_reached(self):
        # accuracy = number of 3x3-conv edges; evolution should find
        # the all-conv optimum almost always within 200 evaluations.
        # Aging keeps no elite, so this needs real selection pressure:
        # tournament 7 of 10 lands ~97/100 here, tournament 5 only ~88
        def conv_count(genotype):
            return float(sum(op is OpKind.CONV_3X3 for op in genotype.ops))

        optimum = Genotype.uniform(OpKind.CONV_3X3)
        hits = sum(
            rea_search(conv_count, 10, 7, 200, seed).chosen.genotype == optimum
            for seed in range(100)
        )
        assert hits >= 95

    def test_argument_validation(self):
        with pytest.raises(ValueError, match="^population_size must be at least 2$"):
            rea_search(synthetic_accuracy, 1, 1, 5, 0)
        with pytest.raises(ValueError, match=r"^tournament_size must be in \[1, population_size\]$"):
            rea_search(synthetic_accuracy, 10, 11, 20, 0)
        with pytest.raises(ValueError, match="^budget_evals must cover the initial population$"):
            rea_search(synthetic_accuracy, 10, 5, 9, 0)
        for name, args in [("population_size", (10.0, 5, 30)), ("population_size", (True, 1, 30)),
                           ("tournament_size", (10, 5.0, 30)), ("budget_evals", (10, 5, 30.5)),
                           ("budget_evals", (10, 5, np.float64(30)))]:
            with pytest.raises(ValueError, match=f"^{name} must be an int of at least "):
                rea_search(synthetic_accuracy, *args, 0)

    def test_evaluator_errors_propagate(self):
        def explode(genotype):
            raise KeyError("missing row")

        with pytest.raises(KeyError):
            rea_search(explode, 4, 2, 4, 0)


class TestAreaSearch:
    def test_pool_and_history_structure(self):
        calls = []

        def counting(genotype):
            calls.append(genotype)
            return synthetic_accuracy(genotype)

        result = area_search(synthetic_score, counting, 20, 10, 5, 25, 9)
        # one call per evaluation: the retained members in birth order, then the children
        assert calls == [c.genotype for c in result.history]
        assert len(result.pool) == 20
        assert [c.birth for c in result.pool] == list(range(20))
        assert len(result.history) == 25
        retained_births = {c.birth for c in result.history[:10]}
        assert retained_births <= set(range(20))
        # children are numbered after the pool
        assert [c.birth for c in result.history[10:]] == list(range(20, 35))

    def test_retained_scores_dominate_discarded(self):
        for seed in range(20):
            result = area_search(synthetic_score, synthetic_accuracy, 20, 10, 5, 20, seed)
            retained = {c.birth for c in result.history[:10]}
            kept = [c.score for c in result.pool if c.birth in retained]
            dropped = [c.score for c in result.pool if c.birth not in retained]
            assert min(kept) >= max(dropped)

    def test_pool_equal_population_reduces_to_rea(self):
        for seed in range(10):
            rea = rea_search(synthetic_accuracy, 10, 5, 30, seed)
            area = area_search(synthetic_score, synthetic_accuracy, 10, 10, 5, 30, seed)
            assert area.chosen.genotype == rea.chosen.genotype
            assert [c.genotype for c in area.history] == [c.genotype for c in rea.history]

    def test_dominates_rea_under_monotone_coupling(self):
        # same seed, budget = population: REA keeps its first N draws,
        # AREA keeps the best-scored N of a 2N pool drawn from the same
        # stream, so with accuracy monotone in score AREA cannot lose
        for seed in range(100):
            rea = rea_search(monotone_evaluator, 10, 5, 10, seed)
            area = area_search(synthetic_score, monotone_evaluator, 20, 10, 5, 10, seed)
            assert area.chosen.accuracy >= rea.chosen.accuracy

    def test_evaluated_population_carries_scores(self):
        result = area_search(synthetic_score, synthetic_accuracy, 12, 6, 3, 12, 2)
        for candidate in result.history[:6]:
            assert candidate.score is not None
            assert candidate.accuracy is not None

    def test_pool_smaller_than_population_rejected(self):
        with pytest.raises(ValueError, match="^pool_size must be at least population_size$"):
            area_search(synthetic_score, synthetic_accuracy, 5, 10, 5, 20, 0)
        for pool_size in (20.0, True):
            with pytest.raises(ValueError, match=f"^pool_size must be an int of at least 10, got {pool_size!r}$"):
                area_search(synthetic_score, synthetic_accuracy, pool_size, 10, 5, 30, 0)

    def test_repeated_pool_draw_scored_once(self):
        calls = []

        def counting(genotype):
            calls.append(genotype)
            return synthetic_score(genotype)

        result = area_search(counting, synthetic_accuracy, 300, 10, 5, 10, 4)
        drawn = [c.genotype for c in result.pool]
        assert len(set(drawn)) < len(drawn)  # seed 4 repeats draws in a pool of 300
        assert len(calls) == len(set(calls)) == len(set(drawn))
        # the same Candidates as scoring each draw in turn
        gen = np.random.default_rng(4)
        each = [Candidate(genotype=(g := sample_uniform(gen)), birth=birth, score=synthetic_score(g))
                for birth in range(300)]
        assert list(result.pool) == each

    def test_deterministic_given_seed(self):
        a = area_search(synthetic_score, synthetic_accuracy, 16, 8, 4, 30, 21)
        b = area_search(synthetic_score, synthetic_accuracy, 16, 8, 4, 30, 21)
        assert a.chosen.genotype == b.chosen.genotype
        assert [c.genotype for c in a.pool] == [c.genotype for c in b.pool]


def test_import_does_not_load_the_executor():
    """``concurrent.futures`` loads ``logging``: a search loads it only
    when it scores on threads, so ``import naswot`` stays cheap."""
    src = str(Path(naswot.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = "import sys, naswot; print('concurrent.futures' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"
