"""Search drivers over the cell space.

Three drivers share one result type:

* naswot_search: sample-and-score.  Draw N genotypes uniformly with
  replacement (or scan a caller-supplied candidate list), score each
  distinct one once on a fixed batch, one draw at a time or, with
  ``jobs`` > 1, on threads, and return the best one.  No training.
  It is the one scoring path: area_search scores its pool and
  ``stats.correlate_space`` its picks through it.
* rea_search: regularized (aging) evolution against an accuracy
  evaluator.  Tournament parent selection, single-edge mutation, the
  oldest member dies each step.
* area_search: evolution warm-started by the score.  Score a pool of
  pool_size random genotypes with naswot_search, keep the top
  population_size as the initial population, then evolve as rea_search does.

The two evolutions differ only in their initial population: both hand
it to one run that evaluates it, evolves it and builds the result.
Scores and accuracies never mix: the score only picks the starting
population, and evolution compares accuracies only.  Every count
argument must be an int, not a bool; a bad one raises ValueError
naming it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Optional

import numpy as np

from .scoring import Score
from .searchspace import Genotype, as_generator, mutate, sample_uniform

__all__ = ["Candidate", "SearchResult", "naswot_search", "rea_search", "area_search"]

Evaluator = Callable[[Genotype], float]
Scorer = Callable[[Genotype], Score]


@dataclass(frozen=True)
class Candidate:
    """One sampled or evolved genotype with its measurements.

    ``birth`` is the draw/creation index; ``score`` is set by scoring
    drivers, ``accuracy`` by evaluating drivers.
    """

    genotype: Genotype
    birth: int
    score: Optional[Score] = None
    accuracy: Optional[float] = None


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one search run.

    ``history`` lists every candidate in creation order (including the
    chosen one).  ``pool`` is only populated by area_search (the scored
    pre-selection pool, which is wider than the evaluated history).
    """

    chosen: Candidate
    history: tuple[Candidate, ...]
    wall_time: float
    pool: tuple[Candidate, ...] = field(default=())


def naswot_search(
    sample_count: int,
    scorer: Scorer,
    rng,
    *,
    candidates: Optional[Iterable[Genotype]] = None,
    jobs: int = 1,
) -> SearchResult:
    """Score sampled (or given) genotypes, return the best.

    With ``candidates`` the iterable is scanned in order instead of
    sampling; ``sample_count`` is ignored then.  Repeated genotypes are
    scored once (the score is a pure function of the genotype for a
    fixed scorer) and the earliest draw of the best score wins.  At
    ``jobs=1`` each draw is scored before the next is taken.  Above 1
    the whole pass is drawn first, and its distinct genotypes are scored
    in draw order on ``jobs`` threads, so the scorer must be thread-safe.
    ``wall_time`` covers drawing and scoring.
    """
    _check_count("jobs", jobs, 1)
    start = time.perf_counter()
    gen = as_generator(rng)
    if candidates is None:
        _check_count("sample_count", sample_count, 1, "sample_count must be positive")
        pool = (sample_uniform(gen) for _ in range(sample_count))
    else:
        pool = iter(candidates)

    memo: dict[Genotype, Score] = {}
    if jobs > 1:
        # imported here: it loads logging, which ``import naswot`` need not
        from concurrent.futures import ThreadPoolExecutor

        pool = list(pool)
        unique = list(dict.fromkeys(pool))
        with ThreadPoolExecutor(jobs) as executor:
            memo = dict(zip(unique, executor.map(scorer, unique)))
    history: list[Candidate] = []
    best: Optional[Candidate] = None
    for birth, genotype in enumerate(pool):
        score = memo.get(genotype)
        if score is None:
            score = scorer(genotype)
            memo[genotype] = score
        cand = Candidate(genotype=genotype, birth=birth, score=score)
        history.append(cand)
        if best is None or score > best.score:  # strict: earliest best wins
            best = cand
    if best is None:
        raise ValueError("no candidates to search over")
    return SearchResult(chosen=best, history=tuple(history), wall_time=time.perf_counter() - start)


def _tournament_best(population: list[Candidate], k: int, gen: np.random.Generator) -> Candidate:
    picks = gen.choice(len(population), size=k, replace=False)
    best = population[picks[0]]
    for idx in picks[1:]:
        cand = population[idx]
        if cand.accuracy > best.accuracy:
            best = cand
    return best


def _evolve(
    population: list[Candidate],
    evaluator: Evaluator,
    tournament_size: int,
    budget_evals: int,
    next_birth: int,
    gen: np.random.Generator,
    start: float,
    pool: tuple[Candidate, ...] = (),
) -> SearchResult:
    """Evaluate the initial population in birth order, evolve it until
    ``budget_evals`` evaluations, and return the run's result.

    Children are numbered from ``next_birth``.  The chosen candidate is
    the highest accuracy ever evaluated, the earliest birth on ties.
    """
    population = [replace(c, accuracy=evaluator(c.genotype)) for c in population]
    history = list(population)
    for birth in range(next_birth, next_birth + budget_evals - len(population)):
        parent = _tournament_best(population, tournament_size, gen)
        genotype = mutate(parent.genotype, gen)
        child = Candidate(genotype=genotype, birth=birth, accuracy=evaluator(genotype))
        population.append(child)
        population.pop(0)  # aging: the oldest member dies, fitness ignored
        history.append(child)
    chosen = max(history, key=lambda c: (c.accuracy, -c.birth))
    return SearchResult(chosen=chosen, history=tuple(history), wall_time=time.perf_counter() - start, pool=pool)


def rea_search(
    evaluator: Evaluator,
    population_size: int,
    tournament_size: int,
    budget_evals: int,
    rng,
) -> SearchResult:
    """Regularized evolution: tournament parents, aging replacement.

    ``budget_evals`` counts every evaluator call including the initial
    population, so it must be at least ``population_size``; with
    equality the result is simply the best of the initial population.
    Returns the highest-accuracy candidate ever evaluated.
    """
    _check_evo_args(population_size, tournament_size, budget_evals)
    start = time.perf_counter()
    gen = as_generator(rng)
    population = [Candidate(genotype=sample_uniform(gen), birth=birth) for birth in range(population_size)]
    return _evolve(population, evaluator, tournament_size, budget_evals, population_size, gen, start)


def area_search(
    scorer: Scorer,
    evaluator: Evaluator,
    pool_size: int,
    population_size: int,
    tournament_size: int,
    budget_evals: int,
    rng,
) -> SearchResult:
    """Score-assisted evolution: seed the population from a scored pool.

    Draws ``pool_size`` genotypes, scores them with naswot_search, and
    keeps the ``population_size`` best scores (ties broken toward the
    earlier draw) as the starting population; evolution then proceeds
    exactly as in rea_search.  The scored pool is returned in ``pool``;
    ``history`` holds evaluated candidates only.
    """
    _check_evo_args(population_size, tournament_size, budget_evals)
    _check_count("pool_size", pool_size, population_size, "pool_size must be at least population_size")
    start = time.perf_counter()
    gen = as_generator(rng)

    pool = naswot_search(pool_size, scorer, gen).history
    ranked = sorted(pool, key=lambda c: (c.score, -c.birth), reverse=True)
    retained = sorted(ranked[:population_size], key=lambda c: c.birth)
    return _evolve(retained, evaluator, tournament_size, budget_evals, pool_size, gen, start, pool)


def _check_count(name: str, value, least: int, message: Optional[str] = None, *, most: Optional[int] = None) -> None:
    """Raise ValueError unless ``value`` is an int, not a bool, in
    [``least``, ``most``]: a value of another type gets a message naming
    ``name``, an int out of range ``message`` (by default the same one).
    """
    default = f"{name} must be an int of at least {least}, got {value!r}"
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(default)
    if value < least or (most is not None and value > most):
        raise ValueError(message or default)


def _check_evo_args(population_size: int, tournament_size: int, budget_evals: int) -> None:
    _check_count("population_size", population_size, 2, "population_size must be at least 2")
    _check_count("tournament_size", tournament_size, 1, "tournament_size must be in [1, population_size]",
                 most=population_size)
    _check_count("budget_evals", budget_evals, population_size, "budget_evals must cover the initial population")
