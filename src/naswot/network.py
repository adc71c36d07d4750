"""Cell-skeleton networks and their binary ReLU activation codes.

A network is built from one Genotype repeated through a fixed skeleton:

    stem conv+BN
    -> stage 1: cells_per_stage cells
    -> residual downsample (stride 2, channels x2)
    -> stage 2 -> residual downsample -> stage 3
    -> BN + ReLU

Only the cells change from one genotype to the next, so a ``Network``
is plain weights: the stem kernel and a list of the three stages, each
holding its downsample block's kernels (none in stage 1) and, per cell,
its conv groups.  ``Network.forward`` runs that list as straight-line
code, one function for a cell and one for a downsample block.

Each cell realizes the genotype's 6 edges on the 4-node DAG; a node's
state is the sum of its incoming edge outputs, added in EDGES order.
Convolution edges are ReLU -> conv -> BN triplets, so every such edge
contributes one ReLU site.  A forward pass records, for every input,
one bit per ReLU unit (1 where the pre-activation is strictly positive),
bit-packed 64 to a word.  The code length N_A is the total unit count
over all sites, a site of multiplicity m counted m times.

The forward pass runs a cell node by node (A, B, C) and does each
node's shared work once.  The m conv edges leaving a node share one
ReLU, whose site is recorded once and weighted m times in the kernel,
and those of one kernel size share one convolution with their kernels
stacked along C_out and one batch-norm over the stacked channels, which
writes each edge's channels to its own NHWC array.  Stacking moves no
bit (see ``layers``), so the codes are a column permutation of running
each edge on its own and every kernel and score is the same.  Zero
edges add nothing to a sum: that can change only the sign of an exact
zero, and a code bit reads ``> 0``.  A node keeps the memory layout its
sum would have with the zeros in it, because the stride-2 pool after a
stage sums in an order set by its input's layout.

The weights are one float32 standard-normal stream drawn at
``init_seed``, cut into kernels in build order.  Handed the stem's
output, which a scorer may keep (see ``scoring.make_scorer``), a
forward pass starts at stage 1.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .layers import _split, add, avg_pool2d, batchnorm_batchstats, conv2d, relu
from .searchspace import EDGES, Genotype, OpKind

__all__ = [
    "NetworkConfig",
    "Network",
    "ActivationCodeMatrix",
    "NonFiniteActivation",
    "build_network",
    "forward_collect_codes",
    "count_relu_units",
]


class NonFiniteActivation(ArithmeticError):
    """A forward pass produced a NaN or infinite activation."""


@dataclass(frozen=True)
class NetworkConfig:
    """Skeleton hyperparameters.  The default is the full-scale setup
    (stem 16, five cells per stage, 32x32 RGB inputs); ``desk()`` gives
    the small configuration used for fast CPU experiments."""

    stem_channels: int = 16
    cells_per_stage: int = 5
    input_shape: tuple[int, int, int] = (3, 32, 32)
    bn_epsilon: float = 1e-5
    init_seed: int = 0

    def __post_init__(self) -> None:
        if self.stem_channels < 1 or self.cells_per_stage < 1:
            raise ValueError("channel and cell counts must be positive")
        # stored as a tuple of three ints, as Genotype stores its ops: the
        # config then hashes, and a batch's shape[1:] compares equal to it
        shape = tuple(self.input_shape) if np.iterable(self.input_shape) else ()
        if len(shape) != 3 or not all(isinstance(d, (int, np.integer)) for d in shape):
            raise ValueError(f"input_shape must be three ints (channels, height, width), got {self.input_shape!r}")
        object.__setattr__(self, "input_shape", tuple(int(d) for d in shape))
        c, h, w = self.input_shape
        if c < 1 or h < 1 or w < 1:
            raise ValueError(f"bad input shape {self.input_shape}")
        if h % 4 or w % 4:
            raise ValueError("input height/width must be multiples of 4 (two stride-2 blocks)")
        if not (math.isfinite(self.bn_epsilon) and self.bn_epsilon >= 0):
            raise ValueError(f"bn_epsilon must be finite and non-negative, got {self.bn_epsilon}")

    @classmethod
    def desk(cls, **overrides) -> "NetworkConfig":
        """Small config for desk-scale runs: stem 8, one cell per stage, 8x8 inputs."""
        base = dict(stem_channels=8, cells_per_stage=1, input_shape=(3, 8, 8))
        base.update(overrides)
        return cls(**base)


@dataclass(frozen=True)
class ActivationCodeMatrix:
    """Per-input binary ReLU codes, bit-packed into uint64 words.

    Row i holds input i's bits site after site in forward order, each
    site from a word boundary on, its last word padded with 0 bits.
    ``sites`` holds each site's (units, multiplicity m); n_units counts
    a site's units m times.  Within a site the units keep its memory
    order: row, column, then channel for the NHWC memory that conv2d and
    batch-norm return, channel-major for C-contiguous input.  The kernel
    counts agreeing bits, so column order does not reach a score.
    """

    words: np.ndarray  # (N, n_words) uint64
    sites: tuple[tuple[int, int], ...]

    @property
    def n_units(self) -> int:
        return sum(units * m for units, m in self.sites)

    @property
    def n_inputs(self) -> int:
        return self.words.shape[0]


class _CodeRecorder:
    """Packs ReLU pre-activation sign bits into codes laid out for
    ``sites``, the (units, multiplicity) of each site in forward order.

    Each site's bits are taken in the site's own memory order, batch
    axis first, so no site is copied into channel-major order, and are
    packed once.  A large site is checked, signed and packed in runs of
    images, one per CPU (see ``layers``).
    """

    def __init__(self, n_inputs: int, sites) -> None:
        sites = tuple(sites)
        self.plan = ActivationCodeMatrix(np.zeros((n_inputs, sum(-(-u // 64) for u, _ in sites)), np.uint64), sites)
        self.packed = self.plan.words.view(np.uint8)  # the plan's words, filled site by site
        self.recorded: list[tuple[int, int]] = []
        self.filled = self.at = 0  # the units (m per unit of multiplicity m) and bytes recorded

    def record(self, pre_activation: np.ndarray, times: int = 1) -> None:
        """Record a site's sign bits with multiplicity ``times``: the
        ReLU of a node that leads that many conv edges."""
        # the non-batch axes from largest to smallest stride: the order
        # the site's values lie in memory
        axes = sorted(range(1, pre_activation.ndim), key=lambda a: -pre_activation.strides[a])
        src = pre_activation.transpose(0, *axes)
        units = src[0].size
        at, span = self.at, -(-units // 64) * 8
        if self.filled + times * units > self.plan.n_units or at + span > self.packed.shape[1]:
            raise RuntimeError(f"ReLU sites hold more units than the {self.plan.n_units} "
                               "that count_relu_units gives")
        n = src.shape[0]
        bits = np.empty((n, units), dtype=bool)

        def sign_bits(start: int, stop: int) -> None:
            part = bits[start:stop].reshape(src[start:stop].shape)
            np.isfinite(src[start:stop], out=part)
            if not part.all():
                raise NonFiniteActivation("NaN or Inf pre-activation at a ReLU site")
            np.greater(src[start:stop], 0, out=part)
            self.packed[start:stop, at:at + -(-units // 8)] = np.packbits(bits[start:stop], axis=1)

        _split(n, src.nbytes, sign_bits)
        self.filled += times * units
        self.at += span
        self.recorded.append((units, times))

    def codes(self) -> ActivationCodeMatrix:
        if tuple(self.recorded) != self.plan.sites:
            raise RuntimeError(f"ReLU sites hold {self.filled} units, count_relu_units gives "
                               f"{self.plan.n_units}")
        return self.plan


def _cell_forward(x, ops: tuple[OpKind, ...], cell_groups: list, epsilon: float, recorder):
    """One genotype cell; node state = sum of incoming edge outputs.

    ``ops`` is aligned with EDGES.  The conv edges leaving one node share
    its ReLU, and those of one kernel size share one convolution and one
    batch-norm: ``cell_groups`` holds, per (source node, kernel size) in
    EDGES order (per edge in a one-channel cell), the source, the edges'
    kernels stacked along C_out and the edge indices.
    """
    states = [x]
    # per node: the running sum of its non-zero inputs, and the
    # sources of its zero inputs
    sums: list = [None] * 4
    zero_sources: list = [[] for _ in range(4)]
    for src in (0, 1, 2):
        if src:
            states.append(_node_state(sums[src], zero_sources[src]))
        a = states[src]
        groups = [g for g in cell_groups if g[0] == src]
        convs = {}  # conv edge index -> its batch-norm output
        if groups:
            recorder.record(a, times=sum(len(edges) for _, _, edges in groups))
            activated = relu(a)
            for _, weights, edges in groups:
                y = conv2d(activated, weights, 1, weights.shape[-1] // 2)
                convs.update(zip(edges, batchnorm_batchstats(y, epsilon, parts=len(edges))))
                del y  # freed before the next group's conv
            del activated
        for k, (s, dest) in enumerate(EDGES):
            if s != src:
                continue
            op = ops[k]
            if op is OpKind.ZEROISE:
                zero_sources[dest].append(a)
                continue
            if op is OpKind.IDENTITY:
                y = a
            elif op is OpKind.AVGPOOL_3X3:
                y = avg_pool2d(a, 3, 1, 1)
            else:
                y = convs.pop(k)
            sums[dest] = y if sums[dest] is None else add(sums[dest], y)
    return _node_state(sums[3], zero_sources[3])


def _node_state(total, zero_sources: list):
    """A node's state from the sum of its non-zero inputs (None if all
    are zero) and the sources of its zero inputs.

    Zero inputs add nothing but their memory layout: numpy lays out a sum
    of NHWC and C-ordered operands in C order, and the stride-2 pool of
    a downsample block adds up its windows in an order set by the layout
    of the cell output it reads.  So the state keeps the layout the sum
    with zeros shaped like each zero input's source would have.
    """
    if total is None:
        total = np.zeros_like(zero_sources[0])
    if not total.flags.c_contiguous and any(z.flags.c_contiguous for z in zero_sources):
        total = np.ascontiguousarray(total)
    return total


def _downsample_forward(x, kernels: tuple, epsilon: float, recorder):
    """Residual block: stride-2 double-conv main path, pooled 1x1 shortcut.

    ``kernels`` is (conv1, conv2, shortcut).  Each statement drops the
    array before it as soon as the next is made, so no temporary
    outlives its use.
    """
    conv1, conv2, shortcut = kernels
    recorder.record(x)
    out = conv2d(relu(x), conv1, 2, 1)
    out = batchnorm_batchstats(out, epsilon)
    recorder.record(out)
    out = relu(out)
    out = conv2d(out, conv2, 1, 1)
    out = batchnorm_batchstats(out, epsilon)
    # The main path ends in a fresh batch-norm output laid out like
    # the shortcut's conv output, so adding into it in place gives
    # the bits and strides of ``main + shortcut`` with one full-size
    # buffer fewer.  A binary op on a large temporary would also make
    # numpy check whether it may reuse that temporary, and its first
    # such check allocates a thread-local block for the life of the
    # process; placed high in a heap the forward pass has grown, that
    # block keeps the freed memory below it resident.
    out += conv2d(avg_pool2d(x, 2, 2, 0), shortcut, 1, 0)
    return out


@dataclass
class Network:
    """An untrained network: a genotype realized through the skeleton."""

    genotype: Genotype
    config: NetworkConfig
    stem: np.ndarray = field(repr=False)  # the stem's 3x3 kernel
    # per stage: its downsample block's kernels (None in stage 1), and
    # per cell its conv groups
    stages: list = field(repr=False)

    def forward(self, batch: np.ndarray, recorder: _CodeRecorder, stem: np.ndarray | None = None) -> None:
        """Run the skeleton on a float32 batch, handing ``recorder`` each
        ReLU site's pre-activation in forward order.  With ``stem``, the
        stem's output for ``batch``, the pass starts at stage 1."""
        eps = self.config.bn_epsilon
        x = self.stem_output(batch) if stem is None else stem
        for downsample, cells in self.stages:
            if downsample is not None:
                x = _downsample_forward(x, downsample, eps, recorder)
            for cell_groups in cells:
                x = _cell_forward(x, self.genotype.ops, cell_groups, eps, recorder)
        # the final ReLU's output reaches no score; its site does
        recorder.record(batchnorm_batchstats(x, eps))

    def stem_output(self, batch: np.ndarray) -> np.ndarray:
        """The stem's conv and batch-norm over a float32 batch.  The stem
        is drawn first, so every genotype at one config shares it."""
        return batchnorm_batchstats(conv2d(batch, self.stem, 1, 1), self.config.bn_epsilon)


_KERNEL_SIZE = {OpKind.CONV_3X3: 3, OpKind.CONV_1X1: 1}


def _weight_count(genotype: Genotype, config: NetworkConfig) -> int:
    """How many weights ``build_network`` draws for a genotype."""
    per_cell = sum(_KERNEL_SIZE[op] ** 2 for op in genotype.ops if op in _KERNEL_SIZE)
    c = config.stem_channels
    total = 9 * c * config.input_shape[0] + config.cells_per_stage * per_cell * c * c
    for _ in range(2):
        # conv1 (2c, c, 3x3), conv2 (2c, 2c, 3x3), shortcut (2c, c, 1x1)
        total += 9 * 2 * c * c + 9 * 4 * c * c + 2 * c * c
        c *= 2
        total += config.cells_per_stage * per_cell * c * c
    return total


def _weight_stream(genotype: Genotype, config: NetworkConfig) -> np.ndarray:
    """The float32 standard-normal draws ``build_network`` scales into a
    genotype's kernels, in build order, from ``default_rng(init_seed)``."""
    return np.random.default_rng(config.init_seed).standard_normal(_weight_count(genotype, config),
                                                                   dtype=np.float32)


def _cell_groups(genotype: Genotype, he_normal, channels: int) -> list:
    # kernels are drawn edge by edge in EDGES order, then stacked per
    # (source, kernel size).  numpy sums a one-channel batch-norm pairwise
    # but a wider one row by row, so one-channel convs stay unstacked.
    groups: dict = {}  # key -> (source, kernels, edge indices)
    for k, op in enumerate(genotype.ops):
        if op in _KERNEL_SIZE:
            size, src = _KERNEL_SIZE[op], EDGES[k][0]
            _, kernels, edges = groups.setdefault((src, size) if channels > 1 else k, (src, [], []))
            kernels.append(he_normal(channels, channels, size))
            edges.append(k)
    return [(src, np.concatenate(kernels), edges) for src, kernels, edges in groups.values()]


def build_network(genotype: Genotype, config: NetworkConfig, stream: np.ndarray | None = None) -> Network:
    """Instantiate the skeleton for a genotype, weights drawn at init_seed.

    Structure and weights are a pure function of (genotype, config):
    each kernel is the next run of one float32 standard-normal stream,
    in fixed build order (the stem, then per stage the downsample
    block's conv1, conv2 and shortcut (from stage 2 on) and each cell's
    conv edges), scaled by He's std.  The stream is ``stream`` if given,
    else this genotype's own draws.  A run of draws from one generator
    equals the same stretch of one long draw, bit for bit, so a scorer
    draws the all-3x3 genotype's stream once, and every genotype's
    stream is a prefix of it.
    """
    if stream is None:
        stream = _weight_stream(genotype, config)
    taken = 0

    def he_normal(c_out: int, c_in: int, kernel: int) -> np.ndarray:
        nonlocal taken
        size = c_out * c_in * kernel * kernel
        std = np.float32(math.sqrt(2.0 / (c_in * kernel * kernel)))
        weights = stream[taken:taken + size].reshape(c_out, c_in, kernel, kernel) * std
        taken += size
        return weights

    channels = config.stem_channels
    stem = he_normal(channels, config.input_shape[0], 3)
    stages = []
    for stage in range(3):
        downsample = None
        if stage > 0:
            c_out = 2 * channels
            downsample = (he_normal(c_out, channels, 3), he_normal(c_out, c_out, 3), he_normal(c_out, channels, 1))
            channels = c_out
        stages.append((downsample, [_cell_groups(genotype, he_normal, channels)
                                    for _ in range(config.cells_per_stage)]))
    return Network(genotype=genotype, config=config, stem=stem, stages=stages)


def _check_batch(batch: np.ndarray, config: NetworkConfig) -> None:
    """Raise ValueError unless ``batch`` is a batch the network can take:
    inputs of the config's shape, at least 2 of them for batch statistics."""
    expected = config.input_shape
    if batch.ndim != 4 or batch.shape[1:] != expected:
        raise ValueError(f"batch shape {batch.shape} does not match input shape {expected}")
    if batch.shape[0] < 2:
        raise ValueError("need at least 2 inputs for batch statistics")


def forward_collect_codes(net: Network, batch: np.ndarray, stem: np.ndarray | None = None) -> ActivationCodeMatrix:
    """Run the forward pass and return the packed activation codes.

    ``stem`` is ``net.stem_output(batch)`` if the caller kept it (a
    scorer does; see ``scoring.make_scorer``).  Raises
    NonFiniteActivation if any ReLU pre-activation is NaN or infinite;
    the last site is the final batch-norm's output, so that covers the
    output too.
    """
    _check_batch(batch, net.config)
    recorder = _CodeRecorder(batch.shape[0], _relu_sites(net))
    net.forward(np.ascontiguousarray(batch, dtype=np.float32), recorder, stem)
    return recorder.codes()


def _relu_sites(net: Network):
    """(units, multiplicity) of each ReLU site in forward order, from the
    genotype and config alone: a cell node leading m conv edges has one
    site of multiplicity m over its stage's (C, H, W) map, a downsample
    block one before each conv (at the incoming size, then the halved
    one), and the final ReLU one over the last stage's map."""
    leads = Counter(EDGES[k][0] for k, op in enumerate(net.genotype.ops) if op in _KERNEL_SIZE)
    c = net.config.stem_channels
    _, h, w = net.config.input_shape
    for stage in range(3):
        if stage > 0:
            yield c * h * w, 1
            c, h, w = 2 * c, h // 2, w // 2
            yield c * h * w, 1
        for _ in range(net.config.cells_per_stage):
            for node in sorted(leads):
                yield c * h * w, leads[node]
    yield c * h * w, 1


def count_relu_units(net: Network) -> int:
    """N_A from the genotype and config alone: each site's units times its multiplicity."""
    return sum(units * m for units, m in _relu_sites(net))
