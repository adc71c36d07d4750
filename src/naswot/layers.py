"""Tensor primitives for the CPU forward pass.

All operations take and return float32 arrays shaped (batch, channels,
height, width).  Convolutions carry no bias and batch normalization uses
current-batch statistics only, so the whole pipeline is positively
homogeneous: scaling an input batch by a power of two scales every
linear-layer output exactly, bit for bit.

Numerical contract: ``conv2d`` and ``avg_pool2d`` return the same bits
and the same strides as the sliding-window expressions they replaced
(kept as references in ``tests/oracles.py``), on the NCHW and NHWC
memory layouts the forward pass produces, so every score is unchanged;
the stride-1 pool's exceptions on one-pixel maps are named below.
For ``conv2d`` that is a property of OpenBLAS's ``SkylakeX`` SGEMM
kernels, which sum a row alike whatever the call's row count, the row's
offset and the column count; on other families (``Haswell``, the AVX2
ones) only the values agree.  It holds from two output channels up: with
one, numpy hands the GEMM to a matrix-vector routine whose summation
order follows the operands' layout.  Only one-channel cells
(``stem_channels=1``) convolve to one channel, and no preset does.
``conv2d`` hands BLAS the same im2col matrix, staged channel-major and
passed transposed, one block of images at a time: each output row is
the dot product of one image patch with one filter over the same K
entries in the same order whichever block holds it and wherever it sits
in the block's GEMM, so on ``SkylakeX`` neither blocking over the batch
nor the order of a block's rows moves a bit.  A 3x3 conv whose block
holds more images than an output row holds pixels (at batch 128, every
desk-preset one and the full preset's onto 8x8 maps) stages the block
with the batch innermost, so each kernel tap is one copy of ow * b
floats at a time, not of ow; its GEMM writes into a buffer whose rows
one transposing copy puts back in image order.  1x1 convs and the other 3x3 shapes stage image by
image.  Stacking the kernels of several convolutions of one input along
C_out keeps each output column the same K-long dot product, so on
``SkylakeX`` each run of columns equals a separate call.
``tests/test_layers.py`` checks all three at every preset conv shape,
and batches of one, two and three blocks, in both stagings.  The
stride-1 pool adds each window row, then the row sums, which is the
order numpy's window mean uses on every memory layout but fully
reversed (W, H, C, N) memory, which the forward pass never produces.
Maps one pixel wide and three or more tall are the other exception:
numpy adds their windows in another order, so the last bit can
differ.  Each output is the same sequence of additions whatever the
memory order, so the pool sums in the input's own memory order, where
an add over NHWC memory runs along a map row of w * C floats, a block
at a time in its part's padded, row-sum and window-sum buffers, and
divides each block into a C-ordered output on every layout; only that
output's layout reaches a later bit, through the stride-2 pool's order.
numpy lays out the mean of a one-image NHWC batch whose map is one
pixel high or wide as its input, so only there do the strides differ.
No preset pools such maps.  The stride-2 pool adds four strided views
of the window's taps, x00 x01 on the top row and x10 x11 below, in the
order numpy's window mean takes them, which is set by the memory
layout and which the stored reference scores encode:
``(x00 + x01) + (x10 + x11)`` on C-ordered input whose output rows
hold more than one pixel, and ``((x00 + x01) + x10) + x11`` on NHWC
memory and on C-ordered input pooled to one column.  numpy's sum
starts from +0, which shows only on a window of -0s, so the sum then
adds +0 before it is divided by 4; the output is laid out as numpy
lays out that mean.

``batchnorm_batchstats`` returns NHWC memory on every input layout,
with the bits the float64-temporaries expression the tests keep as its
oracle gives on NHWC memory holding the same values.  Its elementwise
steps (cast to float64, subtract, square, divide, round to float32)
each round once whatever order they run in, so it runs them over
blocks of images that fit in cache, in three passes: the mean sum;
cast, subtract and square into the variance sum; cast, subtract,
divide and store.  A batch that fits in one block is cast once.  On
NHWC memory numpy adds each channel's float64 sum row by row over
(n, h, w), and so does ``np.einsum("ij->j")`` on the (rows, C) block
buffer, in one inner loop over the channels per row, which takes the
sums; the blocks keep that order by carrying the sum of the rows
before in a row ahead of each block's rows, so the sum of the whole
batch is the same sequence of additions.  Each channel's sum is its
own sequence, so splitting the output into parts, or stacking more
channels into one call, moves no bit.  One channel is the exception:
numpy sums a lone channel pairwise, in runs set by its cast buffer, so
a one-channel batch is one block and keeps ``np.add.reduce`` for both
sums.
The tests check blocked, one-block and split batches on inputs built so
that another summation order shows in the float32 output.

Every call runs over the batch in blocks of images set by its shape
alone (``_images_per_block``): the fewest blocks of about
``_BLOCK_BYTES``, evened out to sizes at most one image apart.  A call
that touches ``_SPLIT_BYTES`` or more runs its blocks in one contiguous
part per CPU in the process's affinity mask (``_split``), cut only
between blocks: the caller runs the first part, and a thread it starts
and joins runs each other part, so no thread outlives the call and calls
from several threads share nothing.  Each block runs the same operations
whichever part holds it, in its part's buffers, which the caller made:
blocks of images for ``conv2d``, both pools, ``add``, the code recorder
(which also returns the ReLU's output) and batch-norm's third pass; row
block pairs for the Hamming kernel, whose entries are integers.
Batch-norm's two sums are not split: each channel's sum stays one
sequence of additions, taken by the caller.  So each GEMM is the same
call and no code bit or stride depends on the part count, on any BLAS
kernel family: ``taskset`` to one CPU gives the same codes.  While a
call runs in more than one part, BLAS is held at one thread
(``_one_blas_thread``), so its own threads do not contend with the
parts for the same CPUs.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import threading

import numpy as np

__all__ = [
    "ShapeMismatch",
    "conv2d",
    "batchnorm_batchstats",
    "avg_pool2d",
    "add",
]


# bytes of im2col columns per block of images: about one core's L2, so
# each block's GEMM reads its columns from cache, not DRAM
_BLOCK_BYTES = 2 << 20

# the CPUs this process may run on: a large call splits into one part each
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
# bytes a call must touch before splitting it pays: below this the
# hand-off, and reading the other core's cache after it, cost more than
# the second core saves (split from 2 MB up, desk-preset scoring at batch
# 128 ran ~25% slower)
_SPLIT_BYTES = 4 << 20


def _openblas(name: str, restype, *argtypes):
    """The function ``name`` of the OpenBLAS that numpy's own LAPACK
    calls (numpy's wheels bundle scipy-openblas), through ctypes; None
    where numpy links a library without it."""
    try:
        fn = getattr(ctypes.CDLL(np.linalg._umath_linalg.__file__), name)
    except (AttributeError, OSError):
        return None
    fn.restype, fn.argtypes = restype, argtypes
    return fn


_INT64_P = ctypes.POINTER(ctypes.c_int64)
# LAPACK dpotrf(uplo, n, a, lda, info), 64-bit integers, and the hidden
# length of the uplo string
_DPOTRF = _openblas("scipy_dpotrf_64_", None, ctypes.c_char_p, _INT64_P, ctypes.c_void_p, _INT64_P,
                    _INT64_P, ctypes.c_size_t)
_GET_BLAS_THREADS = _openblas("scipy_openblas_get_num_threads64_", ctypes.c_int)
_SET_BLAS_THREADS = _openblas("scipy_openblas_set_num_threads64_", None, ctypes.c_int)

# overlapping holders of _one_blas_thread, and the count the first one found
_blas_lock = threading.Lock()
_blas_holders = 0
_blas_saved = 1


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with BLAS at one thread, then restore the count.

    OpenBLAS keeps one thread count per process (its
    ``openblas_set_num_threads_local`` sets that count too), so holders
    on several threads share one hold: the first saves the count and sets
    1, the last restores it.  BLAS calls that other threads make in the
    meantime run on one thread as well.  Without the symbols, a no-op.
    """
    global _blas_holders, _blas_saved
    if _GET_BLAS_THREADS is None or _SET_BLAS_THREADS is None:
        yield
        return
    with _blas_lock:
        if not _blas_holders:
            _blas_saved = _GET_BLAS_THREADS()
            if _blas_saved != 1:
                _SET_BLAS_THREADS(1)
        _blas_holders += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_holders -= 1
            if not _blas_holders and _blas_saved != 1:
                _SET_BLAS_THREADS(_blas_saved)


def _images_per_block(n: int, image_bytes: int) -> int:
    """The most images a block of an n-image call holds, by the shape
    alone: the fewest blocks of about ``_BLOCK_BYTES``, evened out."""
    most = max(1, _BLOCK_BYTES // max(1, image_bytes))
    return -(-n // max(1, -(-n // most))) or 1


def _blocks(n: int, nb: int) -> list[tuple[int, int]]:
    """range(n) in ceil(n / nb) runs (start, stop), sizes at most one apart."""
    count = -(-n // nb)
    return [(n * i // count, n * (i + 1) // count) for i in range(count)]


def _split(n: int, nb: int, nbytes: int, work, scratch=None) -> None:
    """Run ``work(start, stop)`` once per block of range(n) (``_blocks``),
    in one contiguous run of blocks per CPU, so a block is the same
    whatever the part count.

    A call touching fewer than ``_SPLIT_BYTES`` is one part.  Otherwise
    the caller starts one thread for each part after the first, runs the
    first part itself and joins the threads, with BLAS held at one thread
    throughout (``_one_blas_thread``).  With ``scratch``, a part's
    blocks run ``work(start, stop, scratch(a, b))``, a...b-1 the part's
    images, every part's buffers made by the caller first, so the threads
    allocate no large array.  Every part has finished before this returns
    or raises the first error a part raised, in part order.
    """
    blocks = _blocks(n, nb)
    if not blocks:
        return
    parts = min(_WORKERS, len(blocks)) if nbytes >= _SPLIT_BYTES else 1
    # part p starts at the block index nearest len(blocks) * p / parts
    cuts = [(2 * len(blocks) * p + parts) // (2 * parts) for p in range(parts + 1)]
    runs = [blocks[cuts[p]:cuts[p + 1]] for p in range(parts)]
    args = [(scratch(run[0][0], run[-1][1]),) if scratch else () for run in runs]
    errors = [None] * parts

    def run(part: int) -> None:
        try:
            for start, stop in runs[part]:
                work(start, stop, *args[part])
        except BaseException as exc:
            errors[part] = exc

    threads = [threading.Thread(target=run, args=(part,), name="naswot-split") for part in range(1, parts)]
    with _one_blas_thread() if threads else contextlib.nullcontext():
        try:
            for thread in threads:
                thread.start()
            run(0)
        finally:
            for thread in threads:
                if thread.is_alive():
                    thread.join()
    error = next((exc for exc in errors if exc is not None), None)
    if error is not None:
        raise error


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
    # a block's im2col columns fill about _BLOCK_BYTES; a 3x3 conv's block of more
    # images than an output row has pixels puts the batch innermost (see above)
    nb = _images_per_block(n, k * m * x.itemsize)
    batch_inner = kh > 1 and nb > ow
    wmat = weights.reshape(c_out, k).T
    out = np.empty((n * m, c_out), dtype=np.result_type(x, weights))

    def images(start: int, stop: int, scratch: tuple) -> None:
        """One block, images start...stop-1, into its output rows."""
        # the block's images, channel-major, inside a zero border that
        # stays zero because only the interior is ever written
        padded, cols_buf, gemm_buf = scratch
        b = stop - start
        src = padded[:, :b]
        src[:, :, padding:h - padding, padding:w - padding] = x[start:stop].transpose(1, 0, 2, 3)
        # im2col staged as (C_in, kh, kw, b, oh, ow), or with the batch
        # innermost as (C_in, kh, kw, oh, ow, b): one block copy per
        # kernel tap; its transpose is the block's (b*oh*ow, C_in*kh*kw)
        # column matrix in F order, its rows in the staging's order
        flat = cols_buf[:k * b * m]
        rows = out[start * m:stop * m]
        if batch_inner:
            cols = flat.reshape(c_in, kh, kw, oh, ow, b).transpose(0, 1, 2, 5, 3, 4)
            gemm = gemm_buf[:b * m]
        else:
            cols, gemm = flat.reshape(c_in, kh, kw, b, oh, ow), rows
        for dy in range(kh):
            for dx in range(kw):
                cols[:, dy, dx] = src[:, :, dy:dy + stride * (oh - 1) + 1:stride,
                                      dx:dx + stride * (ow - 1) + 1:stride]
        np.matmul(flat.reshape(k, b * m).T, wmat, out=gemm)
        if batch_inner:
            rows.reshape(b, m, c_out)[...] = gemm.reshape(m, b, c_out).transpose(1, 0, 2)

    def scratch(start: int, stop: int) -> tuple:
        """A part's padded block (in memory as (C_in, h, w, b) when the
        batch is innermost), im2col buffer and GEMM buffer.  They hold a
        full _BLOCK_BYTES block, not just the evened one, so a shape asks
        malloc for the same sizes whatever n: sized to the evened blocks
        (64 images, not 113, at desk batch 128), they had glibc trim and
        re-fault its heap on about one desk scoring call in ten."""
        b = min(max(1, _BLOCK_BYTES // max(1, k * m * x.itemsize)), stop - start)
        if not batch_inner:
            return np.zeros((c_in, b, h, w), dtype=x.dtype), np.empty(k * b * m, dtype=x.dtype), None
        return (np.zeros((c_in, h, w, b), dtype=x.dtype).transpose(0, 3, 1, 2),
                np.empty(k * b * m, dtype=x.dtype), np.empty((b * m, c_out), dtype=out.dtype))

    _split(n, nb, n * k * m * x.itemsize, images, scratch)
    return out.reshape(n, oh, ow, c_out).transpose(0, 3, 1, 2)


def _column_sums(a: np.ndarray) -> np.ndarray:
    """Per-channel sums of a C-contiguous (rows, C) float64 array, each
    channel added row by row as ``np.add.reduce`` adds it, in one inner
    loop over the channels per row; one channel keeps ``np.add.reduce``,
    which sums a lone channel pairwise."""
    return np.einsum("ij->j", a) if a.shape[1] > 1 else np.add.reduce(a, axis=0)


def _carried_sum(buf: np.ndarray, rows: np.ndarray, total: np.ndarray | None) -> np.ndarray:
    """Per-channel sum of ``rows`` (buf's rows 1...), added row by row onto
    ``total``, the sum of the blocks before (None for the first block)."""
    if total is None:
        return _column_sums(rows)
    buf[0] = total
    return _column_sums(buf[:1 + len(rows)])


def batchnorm_batchstats(x: np.ndarray, epsilon: float, parts: int | None = None):
    """Standardize each channel by its own mini-batch statistics.

    y = (x - mean) / sqrt(var + epsilon) with the mean and biased
    variance taken over (batch, height, width); scale and shift are
    fixed at 1 and 0 (the network is never trained).  Statistics are
    accumulated in float64 so that reordering the batch perturbs them
    only at the 1e-16 level.  epsilon == 0 is allowed: channels with
    exactly zero variance then map to exactly zero output.

    Returns NHWC memory viewed as (N, C, H, W).  With ``parts`` = m it
    returns a list of m such arrays instead, each with its own memory,
    holding consecutive runs of C / m channels: the batch-norms of m
    convolutions whose kernels were stacked into one.
    """
    n, c, h, w = x.shape
    if n < 2:
        raise ShapeMismatch("batch statistics need at least 2 inputs")
    if c % (parts or 1):
        raise ShapeMismatch(f"{c} channels do not split into {parts} parts")
    cp = c // (parts or 1)
    hw = h * w
    count = n * hw
    nhwc = x.transpose(0, 2, 3, 1)
    # images per block: a quarter of _BLOCK_BYTES of float64 rows.  numpy
    # sums a lone channel pairwise, not row by row, so one channel is
    # always one block.
    nb = n if c == 1 else _images_per_block(n, 32 * hw * c)
    one_block = nb >= n
    # row 0 holds the per-channel sums carried from the blocks before
    buf = np.empty((1 + nb * hw, c))

    def load(into: np.ndarray, i: int, j: int) -> np.ndarray:
        """Images i...j-1 as float64 rows of C channels, in into's rows
        from 1 on."""
        rows = into[1:1 + (j - i) * hw]
        rows.reshape(j - i, h, w, c)[...] = nhwc[i:j]
        return rows

    def per_image(op, rows: np.ndarray, channel_values: np.ndarray) -> None:
        """rows = op(rows, channel_values) in place, against one image's
        worth of values, so the op broadcasts over images only and runs
        as one long inner loop per image."""
        images = rows.reshape(-1, hw * c)
        op(images, channel_values, out=images)

    # pass 1: the mean
    total = None
    for i, j in _blocks(n, nb):
        rows = load(buf, i, j)
        if c > 1:
            total = _carried_sum(buf, rows, total)
    if c == 1:
        total = np.add.reduce(x, axis=(0, 2, 3), dtype=np.float64)
    mean = np.tile(total / count, hw)
    # pass 2: the variance; a one-block batch keeps its deviations for pass 3
    if one_block:
        per_image(np.subtract, rows, mean)
        total = _column_sums(np.square(rows))
    else:
        total = None
        for i, j in _blocks(n, nb):
            rows = load(buf, i, j)
            per_image(np.subtract, rows, mean)
            total = _carried_sum(buf, np.square(rows, out=rows), total)
    denom = np.sqrt(total / count + epsilon)
    # A zero denominator implies every deviation in the channel is zero.
    denom = np.tile(np.where(denom == 0.0, 1.0, denom), hw)
    outs = [np.empty((count, cp), dtype=np.float32) for _ in range(parts or 1)]

    def normalize(i: int, j: int, own: np.ndarray) -> None:
        """Pass 3 over one block, images i...j-1: deviations over the
        denominators, rounded to float32 on store."""
        if one_block:
            rows = buf[1:1 + n * hw]
        else:
            rows = load(own, i, j)
            per_image(np.subtract, rows, mean)
        per_image(np.divide, rows, denom)
        for k, out in enumerate(outs):
            out[i * hw:j * hw] = rows[:, k * cp:(k + 1) * cp]

    # the sums stay one part: split by channel, each part still pays
    # numpy's inner-loop call per row and reads every cache line
    _split(n, nb, x.nbytes, normalize,
           lambda start, stop: buf if start == 0 else np.empty((1 + min(nb, stop - start) * hw, c)))
    # one channel in NHWC memory is C order, and numpy gives it C strides
    views = [out.reshape(n, h, w, cp).transpose(0, 3, 1, 2) if cp > 1 else out.reshape(n, 1, h, w)
             for out in outs]
    return views if parts else views[0]


def avg_pool2d(x: np.ndarray, kernel: int, stride: int = 1, padding: int = 0) -> np.ndarray:
    """Average pooling over kernel x kernel windows.

    Takes the 3x3, stride-1 window padded by 1 of a cell's pool edge and
    the 2x2, stride-2, unpadded window of a downsample shortcut; any
    other window raises ShapeMismatch.  Zero padding counts toward the
    average (the divisor is always 9), which keeps the operator linear
    in its input.  The stride-1 pool sums in the input's memory order
    and returns C order; on maps one pixel wide and three or more tall
    its last bit can differ from numpy's window mean (see the module
    docstring).
    """
    if x.ndim != 4:
        raise ShapeMismatch(f"need a 4-d input, got {x.shape}")
    n, c, h, w = x.shape
    if (kernel, stride, padding) == (2, 2, 0):
        return _pool_2x2_stride_2(x)
    if (kernel, stride, padding) != (3, 1, 1):
        raise ShapeMismatch(f"no {kernel}x{kernel} pool with stride {stride} and padding {padding}; "
                            "pools are 3x3 stride 1 padding 1 or 2x2 stride 2")
    # the non-batch axes from largest to smallest stride: the order the
    # input's values lie in memory, which each buffer below keeps, so an
    # add on NHWC memory runs over a map row of w * C floats
    order = (0, *sorted(range(1, 4), key=lambda a: -x.strides[a]))
    back = tuple(map(order.index, range(4)))  # the inverse permutation
    # a block's padded input, row sums and window sums, which with its
    # input and output fill about _BLOCK_BYTES
    maps = [(h + 2, w + 2), (h + 2, w), (h, w)]
    nb = _images_per_block(n, c * (2 * h * w + sum(y * z for y, z in maps)) * x.itemsize)
    out = np.empty(x.shape, dtype=x.dtype)

    def scratch(start: int, stop: int) -> list:
        """A part's block buffers in ``order``; only the padded input's interior is written."""
        shapes = [(min(nb, stop - start), c, *size) for size in maps]
        return [np.zeros([shape[a] for a in order], dtype=x.dtype).transpose(back) for shape in shapes]

    def windows(i: int, j: int, buffers: list) -> None:
        padded, rows, sums = (buf[:j - i] for buf in buffers)
        padded[:, :, 1:1 + h, 1:1 + w] = x[i:j]
        np.add(padded[..., 0:w], padded[..., 1:1 + w], out=rows)
        rows += padded[..., 2:2 + w]
        np.add(rows[:, :, 0:h], rows[:, :, 1:1 + h], out=sums)
        sums += rows[:, :, 2:2 + h]
        np.divide(sums, 9, out=out[i:j])

    _split(n, nb, x.nbytes, windows, scratch)
    return out


def _pool_2x2_stride_2(x: np.ndarray) -> np.ndarray:
    """The 2x2, stride-2 window mean, as numpy's window mean adds it on
    the layouts the forward pass produces (see the module docstring)."""
    n, _, h, w = x.shape
    oh, ow = h // 2, w // 2
    x00, x01, x10, x11 = (x[:, :, dy:2 * oh:2, dx:2 * ow:2] for dy in (0, 1) for dx in (0, 1))
    # laid out like the mean numpy would make
    out = np.empty_like(x00)
    pairwise = x.flags.c_contiguous and ow > 1

    def windows(start: int, stop: int) -> None:
        part = out[start:stop]
        np.add(x00[start:stop], x01[start:stop], out=part)
        if pairwise:
            part += x10[start:stop] + x11[start:stop]
        else:
            part += x10[start:stop]
            part += x11[start:stop]
        part += 0.0  # numpy's sum starts from +0, so no window sums to -0
        part /= 4

    _split(n, _images_per_block(n, x[:1].nbytes), x.nbytes, windows)
    return out


def add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a + b, laid out as numpy lays out the sum: like the operands when
    their strides agree, in C order when they do not."""
    out = np.empty_like(a) if a.strides == b.strides else np.empty(a.shape, dtype=np.result_type(a, b))
    _split(len(a), _images_per_block(len(a), a[:1].nbytes), a.nbytes,
           lambda start, stop: np.add(a[start:stop], b[start:stop], out=out[start:stop]))
    return out
