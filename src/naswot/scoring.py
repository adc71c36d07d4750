"""Hamming-kernel log-determinant scoring of untrained networks.

Given the binary activation codes c_1..c_N of a batch (one code per
input, N_A bits each), the kernel entry K[i, j] = N_A - d_H(c_i, c_j)
counts the bits on which codes i and j agree.  The score of a network
is ln det K.  K is positive semidefinite (it is C C^T + (1-C)(1-C)^T
for the 0/1 code matrix C), so the determinant is non-negative; it is
zero exactly when two inputs share a code or the codes are otherwise
linearly dependent, and such batches are flagged SINGULAR rather than
given a numeric score.  K is a plain (N, N) float64 array: the diagonal
holds N_A, so nothing else travels with it.
"""

from __future__ import annotations

import ctypes
import enum
import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .layers import _BLOCK_BYTES, _DPOTRF, _SPLIT_BYTES, _one_blas_thread, _split
from .network import (ActivationCodeMatrix, NetworkConfig, NonFiniteActivation, _check_batch, _weight_count,
                      _weight_stream, build_network, forward_collect_codes)
from .searchspace import Genotype, OpKind

__all__ = [
    "ScoreStatus",
    "Score",
    "ZeroDiagonal",
    "hamming_kernel",
    "normalize_kernel",
    "logdet_score",
    "score_network",
    "make_scorer",
]


class ScoreStatus(enum.Enum):
    VALID = "valid"
    SINGULAR = "singular"
    NON_FINITE = "non_finite"


@functools.total_ordering
@dataclass(frozen=True)
class Score:
    """A network score with its validity status.

    Invalid scores (singular kernel, non-finite activations) carry
    value -inf purely as an ordering sentinel; they compare below every
    valid score and must not be used in arithmetic.  Ordering among
    invalid scores is by status name, so sorting is total and stable.
    """

    value: float
    status: ScoreStatus = ScoreStatus.VALID

    @classmethod
    def invalid(cls, status: ScoreStatus) -> "Score":
        return cls(value=-np.inf, status=status)

    @property
    def is_valid(self) -> bool:
        return self.status is ScoreStatus.VALID

    def _key(self) -> tuple:
        # valid scores rank above any invalid one; ties among invalid
        # ones break on the status name for determinism
        return (self.is_valid, self.value if self.is_valid else 0.0, self.status.value)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Score):
            return NotImplemented
        return self._key() == other._key()

    def __lt__(self, other) -> bool:
        if not isinstance(other, Score):
            return NotImplemented
        return self._key() < other._key()

    def __hash__(self) -> int:
        return hash(self._key())


class ZeroDiagonal(ValueError):
    """Kernel normalization hit a zero diagonal entry."""


def hamming_kernel(codes: ActivationCodeMatrix, *, upper: bool = False) -> np.ndarray:
    """The (N, N) float64 matrix K[i, j] = n_units - popcount(code_i XOR
    code_j), each word's bit count weighted by its site's multiplicity.

    Per cache-sized block of row pairs: one XOR + bit count per packed
    word and one matrix-vector product of the counts with the per-word
    weights.  Only blocks from the diagonal on are computed, each
    mirrored into the lower triangle; large kernels split their row
    blocks over the CPUs (see ``layers``).  With ``upper=True`` nothing
    is mirrored: the array holds K[i, j] for j >= i, the triangle that
    ``logdet_score`` reads, and zeros below the diagonal.  Pad bits are
    0 in every row, so they XOR to 0, and every partial sum of a pair's
    weighted counts is an integer in [0, N_A]: exact in any summation
    order in float32, which the product runs in while N_A < 2^24, and in
    float64 above.
    """
    words = codes.words
    n, n_words = words.shape
    dtype = np.float32 if codes.n_units < 2 ** 24 else np.float64
    weights = np.repeat(np.array([m for _, m in codes.sites], dtype), [-(-u // 64) for u, _ in codes.sites])
    out = (np.zeros if upper else np.empty)((n, n), dtype=np.float64)
    # row pairs XORed per step, about half of one core's L2: a block of
    # rows (one row of long codes) against as many columns as fit.  Each
    # part's step buffers are live while the kernel is, so they stay small.
    step = max(1, _BLOCK_BYTES // 2 // max(1, 8 * n_words))
    r = max(1, min(n, step // max(1, n)))
    blocks = -(-n // r)

    def row_blocks(j: int, _: int, scratch: tuple) -> None:
        """Row blocks j and blocks-1-j from their diagonal on: every such
        pair is about equal work."""
        xor_buf, count_buf = scratch
        for i in {j * r, (blocks - 1 - j) * r}:
            i1 = min(n, i + r)
            cols = max(1, step // (i1 - i))
            for k in range(i, n, cols):
                k1 = min(n, k + cols)
                xor = xor_buf[:(i1 - i) * (k1 - k)]
                np.bitwise_xor(words[i:i1, None], words[None, k:k1], out=xor.reshape(i1 - i, k1 - k, n_words))
                counts = np.bitwise_count(xor, out=count_buf[:len(xor)])
                out[i:i1, k:k1] = (codes.n_units - counts @ weights).reshape(i1 - i, k1 - k)
            if upper:
                for t in range(i + 1, i1):
                    out[t, i:t] = 0
            else:
                out[i1:, i:i1] = out[i:i1, i1:].T

    _split((blocks + 1) // 2, 1, words.nbytes + out.nbytes, row_blocks,
           lambda start, stop: (np.empty((step, n_words), np.uint64), np.empty((step, n_words), dtype)))
    return out


def normalize_kernel(kernel: np.ndarray) -> np.ndarray:
    """Rescale to unit diagonal: K[i,j] / sqrt(K[i,i] K[j,j])."""
    diag = np.diag(kernel)
    if np.any(diag == 0):
        raise ZeroDiagonal("kernel has a zero diagonal entry; cannot normalize")
    scale = np.sqrt(np.outer(diag, diag))
    return kernel / scale


def logdet_score(kernel: np.ndarray, *, overwrite: bool = False) -> Score:
    """ln det K via Cholesky: 2 * sum(log diag(L)).

    LAPACK's ``dpotrf`` from numpy's own OpenBLAS factors one C-ordered
    float64 copy of K in place (by default the caller's array is
    untouched) at one BLAS thread (``layers._one_blas_thread``), so the
    bits do not depend on the BLAS thread count.  It reads only the upper
    triangle, the K[i, j] with j >= i, which is the lower triangle of the
    copy read in Fortran order; for a symmetric K both are K.  What lies
    below the diagonal is never read, bar the check that every entry is
    finite.
    Where numpy's BLAS lacks those symbols (other numpy builds),
    ``np.linalg.cholesky`` factors the same triangle, and the bits may
    then follow the BLAS thread count.

    With ``overwrite=True``, as scipy's ``overwrite_a``, a kernel that
    already is a writeable C-ordered float64 array is factored itself,
    not copied: its upper triangle then holds the factor, or part of it,
    and the array should not be read again.  Any other kernel is copied
    as by default.  The score is the same either way.

    A kernel that is numerically singular (the factor fails, or a factor
    diagonal underflows to zero) yields a SINGULAR score; non-finite
    kernel entries yield NON_FINITE.  An input that is not a square
    matrix raises ValueError.
    """
    if overwrite:
        matrix = np.require(kernel, np.float64, ("C", "W"))
    else:
        matrix = np.array(kernel, dtype=np.float64, order="C")
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"kernel must be a square matrix, got shape {matrix.shape}")
    if not np.isfinite(matrix).all():
        return Score.invalid(ScoreStatus.NON_FINITE)
    n = len(matrix)
    with _one_blas_thread():
        if _DPOTRF is None:
            try:
                diag = np.diagonal(np.linalg.cholesky(matrix.T))
            except np.linalg.LinAlgError:
                return Score.invalid(ScoreStatus.SINGULAR)
        else:
            info = ctypes.c_int64()
            _DPOTRF(b"L", ctypes.c_int64(n), matrix.ctypes.data, ctypes.c_int64(max(1, n)), info, 1)
            if info.value:
                return Score.invalid(ScoreStatus.SINGULAR)
            diag = np.diagonal(matrix)
    if np.any(diag <= 0):
        return Score.invalid(ScoreStatus.SINGULAR)
    value = 2.0 * float(np.sum(np.log(diag)))
    if not np.isfinite(value):
        return Score.invalid(ScoreStatus.SINGULAR)
    return Score(value=value)


def score_network(genotype: Genotype, config: NetworkConfig, batch: np.ndarray) -> Score:
    """One genotype's score on one batch: ln det of the code Hamming kernel."""
    return make_scorer(config, batch)(genotype)


def make_scorer(config: NetworkConfig, batch: np.ndarray) -> Callable[[Genotype], Score]:
    """Bind config and batch into a genotype -> Score callable.

    The scorer does once what every genotype would redo, and moves no
    bit by it: it keeps the all-3x3 genotype's weight stream, of which
    every genotype's is a prefix, and the stem's output for the batch,
    and scores as ``build_network`` and ``forward_collect_codes`` alone
    would.  It keeps each only while making and keeping it stays under
    ``layers._SPLIT_BYTES``, the size below which a layer
    call runs on one core: both at the desk preset at batch 128, the
    stream alone at batch 1024 (whose stem conv splits), neither at the
    full preset (6.1 and 8 MB).  A larger piece holds its memory for the
    scorer's life and gains little: keeping the desk stem at batch 1024
    (a 7 MB im2col) saves ~9 ms of a ~160 ms score, yet on a 2-vCPU VM
    it won only 2 of 4 paired desk-wide-batch runs, raised set-up time
    in 3 of 4 and took ``make_scorer`` from ~2 to ~12 ms.  A piece it
    does not keep is made per genotype.  Per genotype it fills only the
    kernel's upper triangle (``hamming_kernel(codes, upper=True)``) and
    lets ``logdet_score`` factor that array in place (``overwrite=True``),
    so the tail of a score holds one N x N array, not two, and mirrors
    nothing that ln det would not read.  It scores its own read-only
    float32 copy of ``batch``, so later changes to the caller's array
    change no score.  A batch the network cannot take raises ValueError
    here.
    """
    batch = np.array(batch, dtype=np.float32, order="C")
    _check_batch(batch, config)
    batch.flags.writeable = False
    longest = Genotype.uniform(OpKind.CONV_3X3)
    stream = stem = None
    # the stream and the stem's output are float32, as the batch is
    if _weight_count(longest, config) * batch.itemsize < _SPLIT_BYTES:
        stream = _weight_stream(longest, config)
        stream.flags.writeable = False
    # the stem's 3x3 conv stages 9 floats for each float of the batch, and
    # its output holds stem_channels maps an image to the batch's input_shape[0]
    if max(9 * batch.nbytes, batch.nbytes // config.input_shape[0] * config.stem_channels) < _SPLIT_BYTES:
        stem = build_network(longest, config, stream).stem_output(batch)
        stem.flags.writeable = False

    def scorer(genotype: Genotype) -> Score:
        try:
            codes = forward_collect_codes(build_network(genotype, config, stream), batch, stem)
        except NonFiniteActivation:
            return Score.invalid(ScoreStatus.NON_FINITE)
        return logdet_score(hamming_kernel(codes, upper=True), overwrite=True)

    return scorer
