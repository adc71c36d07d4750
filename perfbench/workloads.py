"""Workloads of the scoring benchmark: what each one scores, and the check.

Every workload is a closed loop of ``naswot_search`` calls over genotypes
drawn from a fixed pool, scored on one seeded ``random_normal_batch``.

The pool is a list of blocks.  A block holds five slots whose op lists
form a Latin design: on every edge, the five slots carry the five
operations once each.  Because a network computes every edge whatever
its op, and an op costs the same on every edge of a cell, the score
time of a genotype is close to a sum of per-op costs, so every block
costs the same work.  Each slot keeps a few arrangements of its ops
over the six edges (same op counts, different cell graph).  A run
walks the blocks in an order drawn from ``--seed`` and takes one
arrangement per slot, also from ``--seed``; it stops only at a block
boundary.  So the seed changes which architectures are scored, but not
how much work a run holds, which keeps the end-to-end figures steady
from seed to seed.

full-search and desk-wide-batch score only 5 to 40 genotypes in a run,
too few for a median and a tail to settle over a changing op mix, so
their pool is one block: every run scores the same five op mixes, and
the seed picks among eight arrangements of each.  desk-search scores
hundreds per run and draws from a hundred blocks.

The pool is drawn from ``DEFAULT_SEED`` and every genotype in it has a
stored reference (status, score) in ``reference/<workload>.json``,
generated by ``make_reference.py`` at the commit that added the
benchmark; every run checks every score it gets against that table.
The input batch is fixed by ``DEFAULT_SEED`` too, because the reference
scores belong to that batch.

This module imports NumPy and naswot only inside functions, so the
stdlib-only ``run.py`` can read the workload table.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 0
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
# Reported tail: the highest percentile with this many samples beyond it.
TAIL_BEYOND = 10


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str  # "full" or "desk"
    batch_size: int
    blocks: int  # pool size, in Latin blocks of five slots
    arrangements: int  # edge arrangements kept per slot
    # Expected wall time of one block at the commit that added the
    # benchmark.  It only sizes the traced run, so that the traced run
    # scores the same draws for a seed on every commit.
    block_seconds: float
    # Relative score tolerance of the output check; status must match exactly.
    score_rel_tol: float

    def config(self):
        from naswot import NetworkConfig

        return NetworkConfig() if self.preset == "full" else NetworkConfig.desk()

    def input_shape(self) -> tuple[int, ...]:
        return (self.batch_size,) + tuple(self.config().input_shape)


# Full rows may drift with float summation order: a full-scale NHWC
# prototype moved a score by 1.3e-11 relative; 1e-8 leaves that kind of
# layout work about a thousandfold room.  Desk rows keep the rel 1e-9 of
# the desk regression pin.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("full-search", "full", 128, blocks=1, arrangements=8,
                 block_seconds=20.0, score_rel_tol=1e-8),
        Workload("desk-search", "desk", 128, blocks=100, arrangements=2,
                 block_seconds=0.2, score_rel_tol=1e-9),
        Workload("desk-wide-batch", "desk", 1024, blocks=1, arrangements=8,
                 block_seconds=2.4, score_rel_tol=1e-9),
    )
}


# ---------------------------------------------------------------------------
# Pool design
# ---------------------------------------------------------------------------


def design_pool(workload: Workload, seed: int = DEFAULT_SEED) -> list[list[list[str]]]:
    """The pool as blocks -> slots -> arrangements (architecture strings)."""
    import numpy as np
    from naswot import NUM_EDGES, Genotype, OpKind, format_arch

    rng = np.random.default_rng(seed)
    pool = []
    for _ in range(workload.blocks):
        perms = [rng.permutation(len(OpKind)) for _ in range(NUM_EDGES)]
        block = []
        for j in range(len(OpKind)):
            ops = [OpKind(int(perms[e][j])) for e in range(NUM_EDGES)]
            arrangements = [format_arch(Genotype(tuple(ops)))]
            for _ in range(workload.arrangements - 1):
                order = rng.permutation(NUM_EDGES)
                arrangements.append(format_arch(Genotype(tuple(ops[i] for i in order))))
            block.append(arrangements)
        pool.append(block)
    return pool


class DrawPlan:
    """The seeded walk over a pool: passes of blocks of genotypes.

    One pass visits every block once, so a genotype repeats inside a
    pass only when two slots share it, as in uniform sampling; each
    pass is one ``naswot_search`` call with a fresh memo.
    """

    def __init__(self, pool: list[list[list[str]]], seed: int) -> None:
        import numpy as np
        from naswot import parse_arch

        self._rng = np.random.default_rng(seed)
        self._pool = [[[parse_arch(a) for a in slot] for slot in block] for block in pool]

    def next_block(self, block_index: int) -> list:
        block = self._pool[block_index]
        order = self._rng.permutation(len(block))
        return [block[i][int(self._rng.integers(len(block[i])))] for i in order]

    def block_order(self) -> list[int]:
        return [int(i) for i in self._rng.permutation(len(self._pool))]

    def timed_pass(self, expired):
        """Yield one pass, stopping at the first block boundary where
        ``expired()`` is true.  The first block is always yielded."""
        for n, b in enumerate(self.block_order()):
            if n and expired():
                return
            yield from self.next_block(b)

    def fixed_passes(self, n_blocks: int) -> list[list]:
        """Exactly ``n_blocks`` blocks, split into passes."""
        passes: list[list] = []
        while n_blocks > 0:
            order = self.block_order()[:n_blocks]
            passes.append([g for b in order for g in self.next_block(b)])
            n_blocks -= len(order)
        return passes


# ---------------------------------------------------------------------------
# Reference table and output check
# ---------------------------------------------------------------------------


def reference_path(workload: Workload) -> Path:
    return REFERENCE_DIR / f"{workload.name}.json"


def load_reference(workload: Workload) -> dict:
    with reference_path(workload).open(encoding="utf-8") as handle:
        return json.load(handle)


def check_score(rows: dict, arch: str, status: str, value: float, rel_tol: float) -> bool:
    """True when (status, value) matches the reference row of ``arch``.

    Status must match exactly; a VALID value must lie within ``rel_tol``
    of the reference value.  Invalid scores carry no value to compare.
    An architecture without a reference row fails.
    """
    ref = rows.get(arch)
    if ref is None:
        return False
    ref_status, ref_value = ref
    if status != ref_status:
        return False
    if status != "valid":
        return True
    return abs(value - ref_value) <= rel_tol * abs(ref_value)


# ---------------------------------------------------------------------------
# Summary statistics
# ---------------------------------------------------------------------------


def tail_rank(n: int) -> tuple[int, float]:
    """Index into n sorted samples, and its percentile, of the reported tail.

    The tail is the highest percentile that has at least TAIL_BEYOND
    samples beyond it.  A run with too few samples to leave that many
    beyond it above the median (full-search scores about ten genotypes
    in a run) keeps a quarter of its samples beyond the tail instead.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    if n == 1:
        return 0, 100.0
    beyond = min(TAIL_BEYOND, n // 4)
    k = n - 1 - beyond
    return k, 100.0 * k / (n - 1)
