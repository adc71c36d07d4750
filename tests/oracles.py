"""Independent reference implementations used to check the library.

Everything here is written the slow, obvious way (per-element loops,
textbook formulas) so that agreement with the fast library paths is
meaningful evidence rather than a tautology.  The pieces from
``conv2d_window_im2col`` on are the exception: they are the earlier
vectorized conv, pool and batch-norm, which the faster ones must match
bit for bit, the earlier code recorder, whose kernels the packing one
must match, the earlier per-edge cell, whose kernels the fused one must
match, and the earlier per-kernel weight draw, which the slices of one
weight stream must match.  ``synthetic_accuracy`` is no oracle: it is
the accuracy surrogate that the search tests and the table fixtures
share.  ``unkept_score`` is no oracle either: it is the score taken
the plain way, one fresh network and one fresh forward per call, which
a scorer that keeps pieces across genotypes must match bit for bit.
"""

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from naswot.network import ActivationCodeMatrix, NonFiniteActivation, build_network, forward_collect_codes
from naswot.scoring import Score, ScoreStatus, hamming_kernel, logdet_score
from naswot.searchspace import OpKind


def codes_from_sites(sites) -> ActivationCodeMatrix:
    """Pack (bits, multiplicity) pairs, each bits an (N, units) 0/1
    array, into the library's code matrix: each site from a word
    boundary on, its last word padded with 0 bits."""
    words = []
    for bits, _ in sites:
        packed = np.packbits(np.asarray(bits, dtype=bool), axis=1)
        words.append(np.pad(packed, ((0, 0), (0, -packed.shape[1] % 8))))
    return ActivationCodeMatrix(words=np.ascontiguousarray(np.concatenate(words, axis=1)).view(np.uint64),
                                sites=tuple((np.shape(bits)[1], m) for bits, m in sites))


def codes_from_bits(bits) -> ActivationCodeMatrix:
    """Pack an (N, n_units) 0/1 array into the library's code matrix:
    one site of multiplicity 1."""
    return codes_from_sites([(bits, 1)])


def unpack_codes(codes: ActivationCodeMatrix) -> np.ndarray:
    """Recover the (N, n_units) boolean matrix from packed codes: each
    site's bits without its last word's pad bits, m times over for a
    site of multiplicity m."""
    bits = np.unpackbits(codes.words.view(np.uint8), axis=1).astype(bool)
    columns, at = [], 0
    for units, m in codes.sites:
        columns += [bits[:, at:at + units]] * m
        at += -(-units // 64) * 64
    assert at == bits.shape[1], "the sites do not fill the code words"
    return np.concatenate(columns, axis=1)


def kernel_per_bit(bits: np.ndarray) -> np.ndarray:
    """Agreement-count kernel straight from the unpacked bit matrix."""
    bits = np.asarray(bits, dtype=bool)
    agree = (bits[:, None, :] == bits[None, :, :]).sum(axis=2)
    return agree.astype(np.float64)


def kernel_python_loops(bits) -> list:
    """Same kernel again with pure-Python loops (checks the oracle)."""
    n = len(bits)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[i][j] = sum(1 for a, b in zip(bits[i], bits[j]) if bool(a) == bool(b))
    return out


def det_cofactor(matrix) -> float:
    """Determinant by recursive cofactor expansion along the first row."""
    m = [[float(v) for v in row] for row in np.asarray(matrix)]
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0.0
    for col in range(n):
        minor = [row[:col] + row[col + 1:] for row in m[1:]]
        total += (-1.0) ** col * m[0][col] * det_cofactor(minor)
    return total


def logdet_lu(matrix) -> float:
    """log det via LU factorization (sign checked by the caller)."""
    sign, value = np.linalg.slogdet(np.asarray(matrix, dtype=np.float64))
    if sign <= 0:
        raise ValueError("matrix is not positive definite")
    return float(value)


def tau_pair_enumeration(x, y) -> float:
    """Tie-corrected Kendall tau by explicit enumeration of all pairs."""
    x = [float(v) for v in x]
    y = [float(v) for v in y]
    n = len(x)
    concordant = discordant = tie_x = tie_y = 0
    for i in range(n):
        for j in range(i + 1, n):
            dx = (x[i] > x[j]) - (x[i] < x[j])
            dy = (y[i] > y[j]) - (y[i] < y[j])
            if dx == 0:
                tie_x += 1
            if dy == 0:
                tie_y += 1
            if dx * dy > 0:
                concordant += 1
            elif dx * dy < 0:
                discordant += 1
    n0 = n * (n - 1) // 2
    return (concordant - discordant) / math.sqrt((n0 - tie_x) * (n0 - tie_y))


def conv2d_loops(x: np.ndarray, weights: np.ndarray, stride: int, padding: int) -> np.ndarray:
    """Direct cross-correlation, one output element at a time, in float64."""
    x = np.asarray(x, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    n, c_in, h, w = x.shape
    c_out, _, kh, kw = weights.shape
    padded = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    out = np.zeros((n, c_out, oh, ow))
    for b in range(n):
        for o in range(c_out):
            for i in range(oh):
                for j in range(ow):
                    patch = padded[b, :, i * stride:i * stride + kh, j * stride:j * stride + kw]
                    out[b, o, i, j] = float((patch * weights[o]).sum())
    return out


def batchnorm_two_pass(x: np.ndarray, epsilon: float) -> np.ndarray:
    """Per-channel standardization with separate mean and variance passes."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    for c in range(x.shape[1]):
        channel = x[:, c]
        mean = channel.sum() / channel.size
        var = ((channel - mean) ** 2).sum() / channel.size
        out[:, c] = (channel - mean) / math.sqrt(var + epsilon)
    return out


def avg_pool_loops(x: np.ndarray, kernel: int, stride: int, padding: int) -> np.ndarray:
    """Average pooling with zero padding counted in the divisor."""
    x = np.asarray(x, dtype=np.float64)
    n, c, h, w = x.shape
    padded = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh = (h + 2 * padding - kernel) // stride + 1
    ow = (w + 2 * padding - kernel) // stride + 1
    out = np.zeros((n, c, oh, ow))
    for b in range(n):
        for ch in range(c):
            for i in range(oh):
                for j in range(ow):
                    window = padded[b, ch, i * stride:i * stride + kernel, j * stride:j * stride + kernel]
                    out[b, ch, i, j] = window.sum() / (kernel * kernel)
    return out


def conv2d_window_im2col(x: np.ndarray, weights: np.ndarray, stride: int, padding: int) -> np.ndarray:
    """The im2col conv that ``conv2d`` must match bit for bit, strides included.

    Gathers a C-ordered (N*oh*ow, C_in*k*k) column matrix from a
    sliding-window view and multiplies it by the flattened kernel.
    """
    n, c_in, _, _ = x.shape
    c_out, _, kh, kw = weights.shape
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    windows = sliding_window_view(x, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
    _, _, oh, ow, _, _ = windows.shape
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(n * oh * ow, c_in * kh * kw)
    out = cols @ weights.reshape(c_out, -1).T
    return out.reshape(n, oh, ow, c_out).transpose(0, 3, 1, 2)


def avg_pool_window_mean(x: np.ndarray, kernel: int, stride: int, padding: int) -> np.ndarray:
    """The window-mean pool that ``avg_pool2d`` must match bit for bit, strides included."""
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    windows = sliding_window_view(x, (kernel, kernel), axis=(2, 3))[:, :, ::stride, ::stride]
    return windows.mean(axis=(4, 5))


def batchnorm_float64_temporaries(x: np.ndarray, epsilon: float) -> np.ndarray:
    """The batch-norm that ``batchnorm_batchstats`` must match bit for bit, strides included.

    Broadcasts float64 per-channel statistics against the float32 input,
    making a fresh float64 temporary at every step.
    """
    mean = x.mean(axis=(0, 2, 3), dtype=np.float64)
    centered = x - mean[None, :, None, None]
    var = np.mean(centered * centered, axis=(0, 2, 3))
    denom = np.sqrt(var + epsilon)
    safe = np.where(denom == 0.0, 1.0, denom)
    return (centered / safe[None, :, None, None]).astype(np.float32)


class ChannelMajorRecorder:
    """The recorder that copies each site's sign bits channel-major and
    concatenates the sites at the end; it goes wherever the forward pass
    takes a recorder."""

    def __init__(self) -> None:
        self.site_bits: list[np.ndarray] = []

    def record(self, pre_activation: np.ndarray, times: int = 1) -> np.ndarray:
        n = pre_activation.shape[0]
        self.site_bits += [(pre_activation > 0).reshape(n, -1)] * times
        return np.maximum(pre_activation, 0.0)

    def bits(self) -> np.ndarray:
        return np.concatenate(self.site_bits, axis=1)


def unkept_score(genotype, config, batch) -> Score:
    """The score with nothing kept: a fresh ``build_network`` and a
    fresh ``forward_collect_codes`` over the whole batch."""
    try:
        codes = forward_collect_codes(build_network(genotype, config), batch)
    except NonFiniteActivation:
        return Score.invalid(ScoreStatus.NON_FINITE)
    return logdet_score(hamming_kernel(codes))


def kernels_in_draw_order(genotype, config) -> tuple:
    """(stem kernel, per stage its downsample block's (conv1, conv2,
    shortcut) or None, per cell its conv kernels by edge index), each
    kernel drawn He-normal from ``init_seed`` on its own, edge by edge in
    build order: the stem conv, then per stage the downsample block's
    three convs (from stage 2 on) and each cell's conv edges in EDGES
    order.  The cells' kernels are the ones the fused cells stack."""
    rng = np.random.default_rng(config.init_seed)

    def draw(c_out, c_in, k):
        std = np.float32(math.sqrt(2.0 / (c_in * k * k)))
        return rng.standard_normal((c_out, c_in, k, k), dtype=np.float32) * std

    sizes = {OpKind.CONV_3X3: 3, OpKind.CONV_1X1: 1}
    c = config.stem_channels
    stem = draw(c, config.input_shape[0], 3)
    downsamples, cells = [], []
    for stage in range(3):
        downsample = None
        if stage:
            downsample = tuple(draw(c_out, c_in, k) for c_out, c_in, k in ((2 * c, c, 3), (2 * c, 2 * c, 3), (2 * c, c, 1)))
            c *= 2
        downsamples.append(downsample)
        for _ in range(config.cells_per_stage):
            cells.append({k: draw(c, c, sizes[op]) for k, op in enumerate(genotype.ops) if op in sizes})
    return stem, downsamples, cells


def per_edge_cell_forward(ops, kernels: dict, epsilon: float, x: np.ndarray, recorder) -> np.ndarray:
    """The cell forward that the fused one must match: every conv edge
    its own ReLU, record, window-im2col conv (``kernels`` by edge index)
    and float64-temporaries batch-norm, every zero edge a zero tensor
    shaped like its source, and each node the left-to-right sum of its
    inputs in EDGES order."""
    from naswot.searchspace import EDGES

    states = {0: x}
    for dest in (1, 2, 3):
        acc = None
        for k, (src, d) in enumerate(EDGES):
            if d != dest:
                continue
            a, op = states[src], ops[k]
            if op is OpKind.ZEROISE:
                y = np.zeros_like(a)
            elif op is OpKind.IDENTITY:
                y = a
            elif op is OpKind.AVGPOOL_3X3:
                y = avg_pool_window_mean(a, 3, 1, 1)
            else:
                recorder.record(a)
                w = kernels[k]
                y = conv2d_window_im2col(np.maximum(a, 0.0), w, 1, w.shape[-1] // 2)
                y = batchnorm_float64_temporaries(y, epsilon)
            acc = y if acc is None else acc + y
        states[dest] = acc
    return states[3]


def synthetic_accuracy(genotype) -> float:
    """A hill-climbable accuracy surrogate: rewards convolution edges."""
    ops = genotype.ops
    return (
        10.0 * sum(op is OpKind.CONV_3X3 for op in ops)
        + 2.0 * sum(op is OpKind.CONV_1X1 for op in ops)
        + 1.0 * sum(op is OpKind.IDENTITY for op in ops)
    )
