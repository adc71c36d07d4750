"""Search drivers over the cell space.

Three drivers share one result type:

* naswot_search: sample-and-score.  Draw N genotypes uniformly with
  replacement (or scan a caller-supplied candidate list), score each
  distinct one once on a fixed batch, one draw at a time or, with
  ``jobs`` > 1, on threads, and return the best one.  No training.
* rea_search: regularized (aging) evolution against an accuracy
  evaluator.  Tournament parent selection, single-edge mutation, the
  oldest member dies each step.
* area_search: evolution warm-started by the score.  Score a pool of
  pool_size random genotypes with naswot_search, keep the top
  population_size as the initial population, then evolve as rea_search does.

Scores and accuracies never mix: the score only picks the starting
population, and evolution compares accuracies only.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
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
    if isinstance(jobs, bool) or not isinstance(jobs, int) or jobs < 1:
        raise ValueError(f"jobs must be an int of at least 1, got {jobs!r}")
    start = time.perf_counter()
    gen = as_generator(rng)
    if candidates is None:
        if sample_count < 1:
            raise ValueError("sample_count must be positive")
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
    child_evals: int,
    next_birth: int,
    gen: np.random.Generator,
    history: list[Candidate],
) -> None:
    for step in range(child_evals):
        parent = _tournament_best(population, tournament_size, gen)
        child_genotype = mutate(parent.genotype, gen)
        child = Candidate(
            genotype=child_genotype,
            birth=next_birth + step,
            accuracy=evaluator(child_genotype),
        )
        population.append(child)
        population.pop(0)  # aging: the oldest member dies, fitness ignored
        history.append(child)


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

    population: list[Candidate] = []
    for birth in range(population_size):
        genotype = sample_uniform(gen)
        population.append(Candidate(genotype=genotype, birth=birth, accuracy=evaluator(genotype)))
    history = list(population)
    _evolve(population, evaluator, tournament_size, budget_evals - population_size,
            population_size, gen, history)

    chosen = max(history, key=lambda c: (c.accuracy, -c.birth))
    return SearchResult(chosen=chosen, history=tuple(history), wall_time=time.perf_counter() - start)


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
    if pool_size < population_size:
        raise ValueError("pool_size must be at least population_size")
    start = time.perf_counter()
    gen = as_generator(rng)

    pool = naswot_search(pool_size, scorer, gen).history
    ranked = sorted(pool, key=lambda c: (c.score, -c.birth), reverse=True)
    retained = sorted(ranked[:population_size], key=lambda c: c.birth)

    population = [
        Candidate(genotype=c.genotype, birth=c.birth, score=c.score,
                  accuracy=evaluator(c.genotype))
        for c in retained
    ]
    history = list(population)
    _evolve(population, evaluator, tournament_size, budget_evals - population_size,
            pool_size, gen, history)

    chosen = max(history, key=lambda c: (c.accuracy, -c.birth))
    return SearchResult(
        chosen=chosen,
        history=tuple(history),
        wall_time=time.perf_counter() - start,
        pool=pool,
    )


def _check_evo_args(population_size: int, tournament_size: int, budget_evals: int) -> None:
    if population_size < 2:
        raise ValueError("population_size must be at least 2")
    if not 1 <= tournament_size <= population_size:
        raise ValueError("tournament_size must be in [1, population_size]")
    if budget_evals < population_size:
        raise ValueError("budget_evals must cover the initial population")
