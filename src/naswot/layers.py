"""Tensor primitives for the CPU forward pass.

All operations take and return float32 arrays shaped (batch, channels,
height, width).  Convolutions carry no bias and batch normalization uses
current-batch statistics only, so the whole pipeline is positively
homogeneous: scaling an input batch by a power of two scales every
linear-layer output exactly, bit for bit.

Numerical contract: ``conv2d`` and ``avg_pool2d`` return the same bits
and the same strides as the sliding-window expressions they replaced
(kept as references in ``tests/oracles.py``), on the NCHW and NHWC
memory layouts the forward pass produces, so every score is unchanged.
``conv2d`` hands BLAS the same im2col matrix, staged channel-major and
passed transposed, one block of images at a time: each output row is
the dot product of one image patch with one filter over the same K
entries in the same order whichever block holds it, so blocking over
the batch moves no bit.  ``tests/test_layers.py`` checks this at every
preset conv shape and at batches ending inside, below and on a block
edge.  The stride-1 pool adds each window row, then the
row sums, which is the order numpy's window mean uses on every memory
layout but fully reversed (W, H, C, N) memory, which the forward pass
never produces.  The stride-2 pool still takes that window mean: numpy
sums a 2x2 window in one of four orders, chosen by which axis is
innermost in memory, and the stored reference scores depend on that
order.

``batchnorm_batchstats`` returns the same bits and strides as the
float64-temporaries expression the tests keep as its oracle, on both
layouts.  Its elementwise steps (cast to float64, subtract, square,
divide, cast back) each round once whatever order they run in, so it
casts once and then subtracts and divides in place against one image's
worth of per-channel values laid out like each image.  Its two float64
sums are that expression's ``np.add.reduce`` calls on arrays of the same
layout, so they add in the same layout-dependent order.  The tests check
both layouts on inputs built so that another summation order shows in
the float32 output.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "ShapeMismatch",
    "conv2d",
    "batchnorm_batchstats",
    "avg_pool2d",
]


# bytes of im2col columns per block of images: about one core's L2, so
# each block's GEMM reads its columns from cache, not DRAM
_BLOCK_BYTES = 2 << 20


class ShapeMismatch(ValueError):
    """Raised when operand shapes are incompatible."""


def conv2d(x: np.ndarray, weights: np.ndarray, stride: int = 1, padding: int = 0) -> np.ndarray:
    """Cross-correlate a batch with a (C_out, C_in, k, k) kernel, no bias.

    Kernels are 1x1 or 3x3.  With the usual same-padding choices
    (padding 1 for 3x3, 0 for 1x1) the output spatial size is
    ceil(H / stride) x ceil(W / stride).
    """
    if x.ndim != 4 or weights.ndim != 4:
        raise ShapeMismatch(f"need 4-d input and weights, got {x.shape} and {weights.shape}")
    n, c_in, _, _ = x.shape
    c_out, c_in_w, kh, kw = weights.shape
    if c_in_w != c_in:
        raise ShapeMismatch(f"input has {c_in} channels, kernel expects {c_in_w}")
    if kh != kw or kh not in (1, 3):
        raise ShapeMismatch(f"kernel must be 1x1 or 3x3, got {kh}x{kw}")
    h, w = x.shape[2] + 2 * padding, x.shape[3] + 2 * padding
    oh = (h - kh) // stride + 1
    ow = (w - kw) // stride + 1
    k, m = c_in * kh * kw, oh * ow
    nb = max(1, min(n, _BLOCK_BYTES // max(1, k * m * x.itemsize)))
    wmat = weights.reshape(c_out, k).T
    out = np.empty((n * m, c_out), dtype=np.result_type(x, weights))
    # the block's images, channel-major, inside a zero border that stays
    # zero because only the interior is ever written
    padded = np.zeros((c_in, nb, h, w), dtype=x.dtype)
    cols_buf = np.empty(k * nb * m, dtype=x.dtype)
    for i in range(0, n, nb):
        b = min(nb, n - i)
        src = padded[:, :b]
        src[:, :, padding:h - padding, padding:w - padding] = x[i:i + b].transpose(1, 0, 2, 3)
        # im2col staged as (C_in, kh, kw, b, oh, ow): one contiguous block
        # copy per kernel tap; its transpose is the block's
        # (b*oh*ow, C_in*kh*kw) column matrix in F order
        cols = cols_buf[:k * b * m].reshape(c_in, kh, kw, b, oh, ow)
        for dy in range(kh):
            for dx in range(kw):
                cols[:, dy, dx] = src[:, :, dy:dy + stride * (oh - 1) + 1:stride, dx:dx + stride * (ow - 1) + 1:stride]
        np.matmul(cols.reshape(k, b * m).T, wmat, out=out[i * m:(i + b) * m])
    return out.reshape(n, oh, ow, c_out).transpose(0, 3, 1, 2)


def batchnorm_batchstats(x: np.ndarray, epsilon: float) -> np.ndarray:
    """Standardize each channel by its own mini-batch statistics.

    y = (x - mean) / sqrt(var + epsilon) with the mean and biased
    variance taken over (batch, height, width); scale and shift are
    fixed at 1 and 0 (the network is never trained).  Statistics are
    accumulated in float64 so that reordering the batch perturbs them
    only at the 1e-16 level.  epsilon == 0 is allowed: channels with
    exactly zero variance then map to exactly zero output.
    """
    if x.shape[0] < 2:
        raise ShapeMismatch("batch statistics need at least 2 inputs")
    count = x.shape[0] * x.shape[2] * x.shape[3]
    work = x.astype(np.float64)  # keeps x's memory layout
    # one image's worth of per-channel values laid out like each image of
    # work, so the subtract and divide broadcast over the batch axis only
    # and run as one long inner loop per image
    per_image = np.empty_like(work[0])
    # numpy adds these sums in an order set by the input's memory layout
    # (and, casting float32, by its cast buffer); the stored reference
    # scores depend on that order, so both stay plain add.reduce calls
    per_image[...] = (np.add.reduce(x, axis=(0, 2, 3), dtype=np.float64) / count)[:, None, None]
    work -= per_image
    squares = np.square(work)
    var = np.add.reduce(squares, axis=(0, 2, 3)) / count
    del squares  # frees it before the float32 output is made
    denom = np.sqrt(var + epsilon)
    # A zero denominator implies every deviation in the channel is zero.
    per_image[...] = np.where(denom == 0.0, 1.0, denom)[:, None, None]
    work /= per_image
    return work.astype(np.float32)


def avg_pool2d(x: np.ndarray, kernel: int, stride: int = 1, padding: int = 0) -> np.ndarray:
    """Average pooling over kernel x kernel windows.

    Zero padding counts toward the average (the divisor is always
    kernel**2), which keeps the operator linear in its input.
    """
    if x.ndim != 4:
        raise ShapeMismatch(f"need a 4-d input, got {x.shape}")
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    if stride != 1 or kernel == 1:
        # numpy's window mean sums a strided window in an order set by
        # which axis is innermost in memory, and the reference scores
        # encode that order; a 1x1 window has nothing to add up
        windows = sliding_window_view(x, (kernel, kernel), axis=(2, 3))[:, :, ::stride, ::stride]
        return windows.mean(axis=(4, 5))
    oh = x.shape[2] - kernel + 1
    ow = x.shape[3] - kernel + 1
    rows = x[..., 0:ow] + x[..., 1:1 + ow]
    for dx in range(2, kernel):
        rows += x[..., dx:dx + ow]
    del x  # frees the padded copy before the second full-size buffer
    out = rows[:, :, 0:oh] + rows[:, :, 1:1 + oh]
    for dy in range(2, kernel):
        out += rows[:, :, dy:dy + oh]
    out /= kernel * kernel
    return out
