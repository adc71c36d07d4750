"""Rank correlation and ablation protocols.

kendall_tau is the tie-corrected (tau-b) statistic, computed with
integer concordance counts so it matches a pair-enumeration oracle
bit for bit.  correlate_space joins the scores of a genotype -> Score
scorer (the one ``make_scorer`` returns and the searches take) against
a trained accuracy table.  ablation_run rescores one genotype while
varying a single factor (data batch, input distribution, weight init,
or batch size); normalize_by_min rescales its Score groups for
cross-batch-size comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .benchdata import EvaluatorTable, random_normal_batch
from .network import NetworkConfig
from .scoring import Score, score_network
from .searchspace import Genotype, as_generator, parse_arch

__all__ = [
    "DegenerateInput",
    "EmptyGroup",
    "AllSingularGroup",
    "CorrelationRow",
    "CorrelationReport",
    "ABLATION_BATCH_SIZES",
    "ABLATION_MODES",
    "kendall_tau",
    "correlate_space",
    "ablation_run",
    "normal_batch_factory",
    "normalize_by_min",
]

ABLATION_BATCH_SIZES = (32, 64, 128, 256)
ABLATION_MODES = ("batches", "random_inputs", "inits", "batch_sizes")

BatchFactory = Callable[[int, int], np.ndarray]  # (batch_size, seed) -> batch


class DegenerateInput(ValueError):
    """Rank correlation is undefined: one variable is constant."""


class EmptyGroup(ValueError):
    """A score group has no members."""


class AllSingularGroup(ValueError):
    """A score group has no valid member to take the minimum over."""


def kendall_tau(x: Sequence[float], y: Sequence[float]) -> float:
    """Tie-corrected Kendall rank correlation (tau-b).

    tau = (C - D) / sqrt((n0 - t_x)(n0 - t_y)) where C and D count
    concordant and discordant pairs, n0 = n(n-1)/2, and t_x, t_y count
    pairs tied within x and within y.  Counts are exact integers; only
    the final quotient rounds, so the result agrees exactly with any
    pair-enumeration implementation of the same formula.
    """
    xs = np.asarray(x, dtype=np.float64)
    ys = np.asarray(y, dtype=np.float64)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError("x and y must be equal-length 1-d sequences")
    n = xs.size
    if n < 2:
        raise ValueError("need at least 2 observations")
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise ValueError("inputs must be finite")

    concordant = 0
    discordant = 0
    cols = np.arange(n)
    chunk = max(1, min(256, (1 << 22) // n))
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        dx = np.sign(xs[start:stop, None] - xs[None, :]).astype(np.int8)
        dy = np.sign(ys[start:stop, None] - ys[None, :]).astype(np.int8)
        prod = dx * dy
        upper = cols[None, :] > np.arange(start, stop)[:, None]
        concordant += int(((prod > 0) & upper).sum())
        discordant += int(((prod < 0) & upper).sum())

    n0 = n * (n - 1) // 2
    tie_x = _tie_pairs(xs)
    tie_y = _tie_pairs(ys)
    if n0 == tie_x or n0 == tie_y:
        raise DegenerateInput("all x values equal or all y values equal")
    return (concordant - discordant) / math.sqrt((n0 - tie_x) * (n0 - tie_y))


def _tie_pairs(values: np.ndarray) -> int:
    _, counts = np.unique(values, return_counts=True)
    return sum(int(c) * (int(c) - 1) // 2 for c in counts)


@dataclass(frozen=True)
class CorrelationRow:
    arch: str
    score: Score
    accuracy: float


@dataclass(frozen=True)
class CorrelationReport:
    """Scores joined with table accuracies plus their rank correlation.

    ``rows`` holds every sampled architecture in draw order; ``tau`` is
    computed over the rows with VALID scores only, and
    ``excluded_count`` says how many rows that dropped.
    """

    tau: float
    rows: tuple[CorrelationRow, ...]
    excluded_count: int

    @property
    def n(self) -> int:
        return len(self.rows)


def correlate_space(
    table: EvaluatorTable,
    scorer: Callable[[Genotype], Score],
    sample_n: int,
    rng,
    metric: str = "val_acc",
) -> CorrelationReport:
    """Score sampled table architectures untrained; correlate with accuracy.

    Samples ``sample_n`` architectures from the table without
    replacement (over the sorted key domain, so the draw is a pure
    function of the seed), scores each with ``scorer(genotype)``,
    and returns Kendall's tau between valid scores and the chosen
    accuracy metric.
    """
    if not 1 <= sample_n <= len(table):
        raise ValueError(f"sample_n must be in [1, {len(table)}]")
    gen = as_generator(rng)
    domain = table.archs()
    picks = gen.choice(len(domain), size=sample_n, replace=False)
    accuracy_of = table.evaluator(metric)

    rows = []
    for idx in picks:
        arch = domain[int(idx)]
        genotype = parse_arch(arch)
        rows.append(CorrelationRow(arch=arch, score=scorer(genotype),
                                   accuracy=accuracy_of(genotype)))
    valid = [(r.score.value, r.accuracy) for r in rows if r.score.is_valid]
    tau = kendall_tau([v for v, _ in valid], [a for _, a in valid])
    return CorrelationReport(tau=tau, rows=tuple(rows), excluded_count=len(rows) - len(valid))


def normal_batch_factory(config: NetworkConfig) -> BatchFactory:
    """Standard-normal batches shaped for ``config``: (batch_size, seed) -> batch."""
    return lambda batch_size, seed: random_normal_batch((batch_size, *config.input_shape), seed)


def ablation_run(
    genotype: Genotype,
    config: NetworkConfig,
    mode: str,
    repeats: int,
    *,
    batch_factory: Optional[BatchFactory] = None,
    batch_size: int = 32,
    data_seed: int = 0,
) -> dict[str, list[Score]]:
    """Rescore one genotype ``repeats`` times varying a single factor.

    Modes: ``batches`` draws a fresh batch from ``batch_factory`` per
    repeat; ``random_inputs`` draws fresh standard-normal batches
    regardless of the factory; ``inits`` keeps one batch and steps the
    weight init seed; ``batch_sizes`` repeats the fresh-batch protocol
    at each size in ABLATION_BATCH_SIZES (repeat r reuses data seed
    ``data_seed + r`` across sizes so rows are comparable).  Returns
    scores grouped by factor level in a deterministic order.
    """
    if mode not in ABLATION_MODES:
        raise ValueError(f"mode must be one of {ABLATION_MODES}, got {mode!r}")
    if repeats < 2:
        raise ValueError("repeats must be at least 2")
    if batch_factory is None or mode == "random_inputs":
        batch_factory = normal_batch_factory(config)
    if mode == "batch_sizes":
        levels = [(str(size), size) for size in ABLATION_BATCH_SIZES]
    else:
        levels = [(mode, batch_size)]
    groups: dict[str, list[Score]] = {}
    for label, size in levels:
        fixed_batch = batch_factory(size, data_seed) if mode == "inits" else None
        scores = []
        for r in range(repeats):
            if mode == "inits":
                run_config, batch = replace(config, init_seed=config.init_seed + r), fixed_batch
            else:
                run_config, batch = config, batch_factory(size, data_seed + r)
            scores.append(score_network(genotype, run_config, batch))
        groups[label] = scores
    return groups


def normalize_by_min(
    groups: Mapping[str, Sequence[Score]],
) -> dict[str, list[Optional[float]]]:
    """Divide each group's scores by the group's minimum valid score.

    Invalid scores normalize to None.  Raises EmptyGroup for an empty
    group and AllSingularGroup when a group has no valid score.
    """
    out: dict[str, list[Optional[float]]] = {}
    for label, scores in groups.items():
        if len(scores) == 0:
            raise EmptyGroup(f"group {label!r} is empty")
        values = [s.value if s.is_valid else None for s in scores]
        valid = [v for v in values if v is not None]
        if not valid:
            raise AllSingularGroup(f"group {label!r} has no valid score")
        low = min(valid)
        out[label] = [None if v is None else v / low for v in values]
    return out
