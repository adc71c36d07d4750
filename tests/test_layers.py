import tracemalloc

import numpy as np
import pytest

import naswot.layers
from naswot.layers import (
    _BLOCK_BYTES,
    ShapeMismatch,
    _blocks,
    _images_per_block,
    avg_pool2d,
    batchnorm_batchstats,
    conv2d,
)

from naswot.network import NetworkConfig

from oracles import (
    avg_pool_loops,
    avg_pool_window_mean,
    batchnorm_float64_temporaries,
    batchnorm_two_pass,
    conv2d_loops,
    conv2d_window_im2col,
)

# (config, batch size) of the full and desk presets at their scoring batch
PRESETS = [(NetworkConfig(), 128), (NetworkConfig.desk(), 32)]
STAGES = 3  # the skeleton's fixed stage count


@pytest.fixture(autouse=True)
def split_in_two_at_least(monkeypatch):
    """Calls at the full preset's shapes split in two or more parts, as
    on any machine with two CPUs, so the oracles check the split path
    (tests/test_split.py checks the shape does take it)."""
    monkeypatch.setattr(naswot.layers, "_WORKERS", max(2, naswot.layers._WORKERS))


def conv_shapes():
    """Every (N, C_in, C_out, k, stride, H) a preset's forward pass convolves."""
    shapes = set()
    for config, n in PRESETS:
        c_in, h, _ = config.input_shape
        c = config.stem_channels
        shapes.add((n, c_in, c, 3, 1, h))
        for stage in range(STAGES):
            shapes |= {(n, c, c, 3, 1, h), (n, c, c, 1, 1, h)}
            if stage + 1 < STAGES:
                shapes |= {(n, c, 2 * c, 3, 2, h), (n, 2 * c, 2 * c, 3, 1, h // 2), (n, c, 2 * c, 1, 1, h // 2)}
                c, h = 2 * c, h // 2
    return sorted(shapes)


def conv_blocking(n, c_in, kernel, stride, h):
    """(images per block, batch innermost?) of conv2d at a same-padded shape."""
    o = (h - 1) // stride + 1
    nb = _images_per_block(n, c_in * kernel * kernel * o * o * 4)
    return nb, kernel > 1 and nb > o


def cell_conv_shapes():
    """Every (N, C, k, H) a preset's cells convolve: stride 1, C in and out."""
    return [(n, config.stem_channels << s, k, config.input_shape[1] >> s)
            for config, n in PRESETS for s in range(STAGES) for k in (3, 1)]


def pool_shapes():
    """Every (N, C, H) a preset's stride-1 pools see; stride-2 pools see all but the last."""
    return [(n, config.stem_channels << s, config.input_shape[1] >> s, s + 1 < STAGES)
            for config, n in PRESETS for s in range(STAGES)]


def bn_shapes():
    """Every (N, C, H) a preset's batch-norms see: each stage's map."""
    return [(n, config.stem_channels << s, config.input_shape[1] >> s)
            for config, n in PRESETS for s in range(STAGES)]


def cancelling_batch(shape, rng):
    """Balanced +-2**40 entries among uniform [0, 1) ones: the float64 sum
    of a channel keeps a different share of the small entries in every
    summation order, so the mean shows the order."""
    x = rng.random(shape, dtype=np.float32)
    big = rng.permutation(x.size)[: x.size // 10 * 2]
    x.flat[big] = np.where(np.arange(big.size) % 2, np.float32(2.0**40), np.float32(-2.0**40))
    return x


def absorbing_batch(shape, rng):
    """Each channel leads with two entries 3 * 2**25 away from its mean,
    then entries whose squared deviations fall below half an ulp of those
    two squares: a sequential variance sum drops them all, a pairwise one
    keeps them, so the variance shows the order."""
    x = (rng.uniform(-1.4, 1.4, shape) + 1000.3).astype(np.float32)
    x[0, :, 0, 0] = 1000 + 3 * 2.0**25
    x[0, :, 0, 1] = 1000 - 3 * 2.0**25
    return x


def midpoint_batch(shape, rng):
    """(one-channel batch, epsilon) that put every output on a float32
    rounding midpoint, so the float64 variance's last bits decide how
    each output rounds: the values sum exactly to a mean of 4 + 2**-24,
    every deviation from it lies in [1, 2) on a float32 midpoint, and
    epsilon takes the variance to 4, so the output is deviation / 2."""
    half = int(np.prod(shape)) // 2
    k = rng.integers(2**21, 2**22 - 1, half) * 4 + 3       # odd deviation ulps above the mean
    j = k + np.where(np.arange(half) < half // 2, -1, 1)   # as many below, with the same sum
    mean = 4 + 2.0**-24
    dev = np.concatenate([k, -j]) * 2.0**-23 + np.sign(np.concatenate([k, -j])) * 2.0**-24
    x = rng.permutation((mean + dev).astype(np.float32)).reshape(shape)
    return x, 4.0 - np.mean(np.square(x.astype(np.float64) - mean))


# 2x2 windows whose sum shows the order of its adds or the +0 it starts
# from; each holds at most one NaN source
EDGE_WINDOWS = [(-0.0, -0.0, -0.0, -0.0), (0.0, -0.0, -0.0, -0.0), (-0.0, 0.0, 0.0, -0.0),
                (np.nan, 1.0, -2.0, 3.0), (np.nan, -0.0, -0.0, -0.0), (np.inf, 1.0, 2.0, -0.0),
                (-np.inf, -0.0, 2.0, 3.0), (np.inf, np.inf, 1.0, 2.0), (np.inf, -np.inf, 1.0, 2.0),
                (3e38, 3e38, -3e38, -3e38), (3e38, 3e38, 3e38, -3e38), (3e38, 3e38, 1.0, 1.0),
                (1.0, 2.0**-24, 2.0**-24, -1.0), (2.0**24, 1.0, 1.0, -2.0**24)]


def edge_window_batch(shape, rng):
    """Standard normals with every 2x2 stride-2 window replaced by one of
    EDGE_WINDOWS in a random tap order; odd edges stay normal."""
    x = rng.standard_normal(shape, dtype=np.float32)
    n, c, h, w = shape
    oh, ow = h // 2, w // 2
    picks = np.array(EDGE_WINDOWS, dtype=np.float32)[rng.integers(len(EDGE_WINDOWS), size=(n, c, oh, ow))]
    picks = rng.permuted(picks, axis=-1).reshape(n, c, oh, ow, 2, 2)
    x[:, :, :2 * oh, :2 * ow] = picks.transpose(0, 1, 2, 4, 3, 5).reshape(n, c, 2 * oh, 2 * ow)
    return x


def in_layouts(x):
    """The two memory layouts the forward pass feeds a layer: C-contiguous
    NCHW, and the NCHW view of NHWC memory that conv2d and BN return."""
    return x, np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


def assert_same_bits_and_strides(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.strides == want.strides
    # compared as raw bits, so NaN payloads and the sign of zero count too
    assert np.array_equal(got.view(np.uint32), want.view(np.uint32))


class TestConv2d:
    def test_identity_1x1_kernel_returns_input(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 3, 5, 5), dtype=np.float32)
        weights = np.eye(3, dtype=np.float32).reshape(3, 3, 1, 1)
        assert np.array_equal(conv2d(x, weights, 1, 0), x)

    def test_zero_kernel_gives_zero_output(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 3, 4, 4), dtype=np.float32)
        weights = np.zeros((5, 3, 3, 3), dtype=np.float32)
        assert not conv2d(x, weights, 1, 1).any()

    def test_ones_kernel_on_ones_input_counts_window_overlap(self):
        # 3x3 ones kernel, 3x3 ones input, same padding: the center sees
        # the full window, each corner only a 2x2 slice of it
        x = np.ones((1, 1, 3, 3), dtype=np.float32)
        weights = np.ones((1, 1, 3, 3), dtype=np.float32)
        out = conv2d(x, weights, 1, 1)[0, 0]
        assert out[1, 1] == 9.0
        for corner in ((0, 0), (0, 2), (2, 0), (2, 2)):
            assert out[corner] == 4.0

    # one output channel included: conv2d does not give the window-im2col
    # bits there (see layers), only values at float32 tolerance
    @pytest.mark.parametrize("stride,padding,kernel,c_out",
                             [pytest.param(*case, 4, id="-".join(map(str, case)))
                              for case in [(1, 1, 3), (2, 1, 3), (1, 0, 1), (2, 0, 1)]]
                             + [pytest.param(1, 1, 3, 1, id="1-1-3-c_out1")])
    def test_matches_direct_loop_oracle(self, stride, padding, kernel, c_out):
        rng = np.random.default_rng(stride * 10 + padding)
        x = rng.standard_normal((2, 3, 8, 8), dtype=np.float32)
        weights = rng.standard_normal((c_out, 3, kernel, kernel), dtype=np.float32)
        got = conv2d(x, weights, stride, padding)
        want = conv2d_loops(x, weights, stride, padding)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)

    @pytest.mark.parametrize("n,c_in,c_out,kernel,stride,h", conv_shapes())
    def test_bit_identical_to_window_im2col(self, n, c_in, c_out, kernel, stride, h):
        rng = np.random.default_rng([c_in, c_out, kernel, stride, h])
        x = rng.standard_normal((n, c_in, h, h), dtype=np.float32)
        weights = rng.standard_normal((c_out, c_in, kernel, kernel), dtype=np.float32)
        for view in in_layouts(x):
            assert_same_bits_and_strides(conv2d(view, weights, stride, kernel // 2),
                                         conv2d_window_im2col(view, weights, stride, kernel // 2))

    # conv2d fits 3 images in a block at the stage-1 3x3 shape and 14 at
    # the stride-2 shape: a batch of 1 is one block, 5 is two blocks of 2
    # and 3 at one shape and one block at the other, and 129 is 43 blocks
    # of 3 at one shape and ten blocks of 12 and 13 at the other
    @pytest.mark.parametrize("n", [1, 5, 129])
    @pytest.mark.parametrize("c_in,c_out,stride", [(16, 16, 1), (16, 32, 2)])
    def test_bit_identical_across_block_boundaries(self, n, c_in, c_out, stride):
        rng = np.random.default_rng([n, c_in, c_out, stride])
        x = rng.standard_normal((n, c_in, 32, 32), dtype=np.float32)
        weights = rng.standard_normal((c_out, c_in, 3, 3), dtype=np.float32)
        for view in in_layouts(x):
            assert_same_bits_and_strides(conv2d(view, weights, stride, 1),
                                         conv2d_window_im2col(view, weights, stride, 1))

    # conv2d stages a 3x3 block with the batch innermost when it holds more
    # images than an output row has pixels.  113 images fit in a block at
    # the desk stage-1 shape, so batches 112 and 113 are one block, 114 is
    # two of 57 and 227 three of 75 and 76; then the desk-wide batch,
    # stacked kernels (24 and 48 channels out) and stride 2, whole, split
    # in two and split in three
    @pytest.mark.parametrize("parts", [None, 2, 3])
    @pytest.mark.parametrize("n,c_in,c_out,stride,h", [
        (112, 8, 8, 1, 8), (113, 8, 8, 1, 8), (114, 8, 8, 1, 8), (227, 8, 8, 1, 8), (1024, 8, 8, 1, 8),
        (128, 8, 24, 1, 8), (128, 16, 48, 1, 4), (128, 8, 16, 2, 8), (227, 8, 16, 2, 8)])
    def test_batch_innermost_bit_identical_to_window_im2col(self, n, c_in, c_out, stride, h, parts, monkeypatch):
        assert conv_blocking(n, c_in, 3, stride, h)[1]
        if parts:
            monkeypatch.setattr(naswot.layers, "_WORKERS", parts)
            monkeypatch.setattr(naswot.layers, "_SPLIT_BYTES", 0)
        rng = np.random.default_rng([n, c_in, c_out, stride, h])
        x = rng.standard_normal((n, c_in, h, h), dtype=np.float32)
        weights = rng.standard_normal((c_out, c_in, 3, 3), dtype=np.float32)
        for view in in_layouts(x):
            assert_same_bits_and_strides(conv2d(view, weights, stride, 1),
                                         conv2d_window_im2col(view, weights, stride, 1))

    def test_preset_3x3_shapes_take_both_stagings(self):
        assert conv_blocking(10**6, 8, 3, 1, 8)[0] == 113
        assert {conv_blocking(n, c_in, kernel, stride, h)[1]
                for n, c_in, _, kernel, stride, h in conv_shapes() if kernel == 3} == {True, False}

    # a cell stacks the kernels of the m conv edges leaving one node; each
    # output channel is the same K-long dot product as in a separate call
    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("n,c,kernel,h", cell_conv_shapes())
    def test_stacked_kernels_give_bits_of_separate_calls(self, n, c, kernel, h, m):
        rng = np.random.default_rng([n, c, kernel, h, m])
        x = rng.standard_normal((n, c, h, h), dtype=np.float32)
        weights = rng.standard_normal((m * c, c, kernel, kernel), dtype=np.float32)
        for view in in_layouts(x):
            stacked = conv2d(view, weights, 1, kernel // 2)
            for j in range(m):
                alone = conv2d(view, weights[j * c:(j + 1) * c], 1, kernel // 2)
                assert np.array_equal(stacked[:, j * c:(j + 1) * c].view(np.uint32), alone.view(np.uint32))

    @pytest.mark.parametrize("shape,kernel,want", [((0, 3, 4, 4), 3, (0, 4, 4, 4)), ((2, 3, 0, 0), 1, (2, 4, 0, 0))])
    def test_empty_batch_or_image_gives_empty_output(self, shape, kernel, want):
        weights = np.zeros((4, 3, kernel, kernel), dtype=np.float32)
        assert conv2d(np.zeros(shape, dtype=np.float32), weights, 1, kernel // 2).shape == want

    def test_stride_two_halves_spatial_dims(self):
        x = np.zeros((1, 2, 8, 8), dtype=np.float32)
        weights = np.zeros((3, 2, 3, 3), dtype=np.float32)
        assert conv2d(x, weights, 2, 1).shape == (1, 3, 4, 4)

    def test_channel_mismatch_rejected(self):
        x = np.zeros((1, 2, 4, 4), dtype=np.float32)
        weights = np.zeros((3, 5, 3, 3), dtype=np.float32)
        with pytest.raises(ShapeMismatch):
            conv2d(x, weights, 1, 1)


class TestBatchNorm:
    def test_constant_channel_maps_to_zero(self):
        x = np.full((4, 2, 3, 3), 7.5, dtype=np.float32)
        assert not batchnorm_batchstats(x, 1e-5).any()

    def test_pm_one_channel_stays_pm_one_within_epsilon(self):
        x = np.ones((2, 1, 2, 2), dtype=np.float32)
        x[1] = -1.0
        out = batchnorm_batchstats(x, 1e-5)
        np.testing.assert_allclose(np.abs(out), 1.0, atol=1e-4)

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(9)
        x = (rng.standard_normal((6, 4, 5, 5), dtype=np.float32) * 3 + 1).astype(np.float32)
        for eps in (1e-5, 0.1):
            got = batchnorm_batchstats(x, eps)
            want = batchnorm_two_pass(x, eps)
            np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-6)

    def test_output_moments(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((8, 3, 6, 6), dtype=np.float32) * 2.5
        eps = 1e-3
        out = batchnorm_batchstats(x, eps).astype(np.float64)
        var = x.astype(np.float64).var(axis=(0, 2, 3))
        np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-6)
        np.testing.assert_allclose(out.var(axis=(0, 2, 3)), var / (var + eps), rtol=1e-5)

    def test_zero_epsilon_zero_variance_channel_is_zero(self):
        x = np.full((3, 1, 2, 2), 4.0, dtype=np.float32)
        assert not batchnorm_batchstats(x, 0.0).any()

    def test_single_input_rejected(self):
        with pytest.raises(ValueError):
            batchnorm_batchstats(np.zeros((1, 1, 2, 2), dtype=np.float32), 1e-5)

    # batch-norm sums in NHWC order and returns NHWC memory on every
    # layout, so its oracle is the old expression on NHWC memory holding
    # the same values
    @pytest.mark.parametrize("n,c,h", bn_shapes())
    def test_bit_identical_to_float64_temporaries(self, n, c, h):
        x = np.random.default_rng([n, c, h]).standard_normal((n, c, h, h), dtype=np.float32)
        want = batchnorm_float64_temporaries(in_layouts(x)[1], 1e-5)
        for view in in_layouts(x):
            assert_same_bits_and_strides(batchnorm_batchstats(view, 1e-5), want)

    # rounding to float32 hides most float64 summation-order changes in
    # the statistics; these inputs make them show in the output.  The
    # extra shape has channel runs of 65,536 values, longer than the
    # 8,192-value buffer numpy casts float32 through while summing.
    @pytest.mark.parametrize("n,c,h", bn_shapes() + [(2, 1, 256)])
    @pytest.mark.parametrize("make", [cancelling_batch, absorbing_batch])
    def test_bit_identical_where_summation_order_shows(self, n, c, h, make):
        x = make((n, c, h, h), np.random.default_rng([n, c, h]))
        want = batchnorm_float64_temporaries(in_layouts(x)[1], 1e-5)
        for view in in_layouts(x):
            assert_same_bits_and_strides(batchnorm_batchstats(view, 1e-5), want)

    # numpy sums a lone channel pairwise and the other sums row by row:
    # here any other variance order moves the last bits that decide how
    # half the outputs round (each case below does round otherwise when
    # the variance is taken with einsum)
    @pytest.mark.parametrize("n,h", [(128, 8), (32, 16), (4, 64)])
    def test_one_channel_bit_identical_where_variance_order_shows(self, n, h):
        x, eps = midpoint_batch((n, 1, h, h), np.random.default_rng([n, 1, h]))
        want = batchnorm_float64_temporaries(x, eps)
        for view in in_layouts(x):
            assert_same_bits_and_strides(batchnorm_batchstats(view, eps), want)

    # parts=m is the batch-norm of m stacked convs: each run of C / m
    # channels must come out as its own call would give it, in its own
    # NHWC memory.  Batches fill one block of images, exactly three, or
    # two and a half blocks' worth, which is three evened blocks; the sums
    # carry from block to block.
    @pytest.mark.parametrize("blocks", [1, 3, 2.5])
    @pytest.mark.parametrize("parts,c", [(2, 16), (3, 24)])
    @pytest.mark.parametrize("make", [cancelling_batch, absorbing_batch])
    def test_parts_bit_identical_to_separate_calls(self, blocks, parts, c, make):
        h, cp = 16, c // parts
        n = int(blocks * (_BLOCK_BYTES // (32 * h * h * c)))  # images per block, as batch-norm sizes it
        x = make((n, c, h, h), np.random.default_rng([n, c]))
        for view in in_layouts(x):
            got = batchnorm_batchstats(view, 1e-5, parts=parts)
            assert len(got) == parts
            for j, part in enumerate(got):
                want = batchnorm_float64_temporaries(in_layouts(x[:, j * cp:(j + 1) * cp])[1], 1e-5)
                assert_same_bits_and_strides(part, want)

    def test_parts_must_divide_channels(self):
        with pytest.raises(ShapeMismatch):
            batchnorm_batchstats(np.zeros((2, 4, 2, 2), dtype=np.float32), 1e-5, parts=3)

    @pytest.mark.parametrize("eps", [0.0, 1e-5])
    def test_bit_identical_on_zero_variance_channels_at_batch_two(self, eps):
        rng = np.random.default_rng(11)
        x = (rng.standard_normal((2, 6, 5, 5), dtype=np.float32) * 4 + 2).astype(np.float32)
        x[:, 1] = 3.25    # constant channel
        x[:, 4] = 0.0     # all-zero channel
        x[:, 5] = -0.0    # negative zeros
        want = batchnorm_float64_temporaries(in_layouts(x)[1], eps)
        for view in in_layouts(x):
            assert_same_bits_and_strides(batchnorm_batchstats(view, eps), want)

    def test_bit_identical_on_non_finite_inputs(self):
        x = np.random.default_rng(12).standard_normal((4, 5, 3, 3), dtype=np.float32)
        x[0, 0, 1, 1] = np.nan
        x[2, 1, 0, 2] = np.inf
        x[3, 2, 2, 0] = -np.inf
        x[1, 3] = np.inf  # a whole image's channel
        with np.errstate(invalid="ignore"):
            want = batchnorm_float64_temporaries(in_layouts(x)[1], 1e-5)
        for view in in_layouts(x):
            with np.errstate(invalid="ignore"):
                got = batchnorm_batchstats(view, 1e-5)
            assert_same_bits_and_strides(got, want)
            assert np.isfinite(got[:, 4]).all() and not np.isfinite(got[:, :4]).any()


class TestPooling:
    def test_same_padded_3x3_mean_of_ones(self):
        # zero padding counts toward the average, so corners see 4/9
        x = np.ones((1, 1, 3, 3), dtype=np.float32)
        out = avg_pool2d(x, 3, 1, 1)[0, 0]
        assert out[1, 1] == 1.0
        np.testing.assert_allclose(out[0, 0], 4.0 / 9.0, rtol=1e-6)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 3, 6, 6), dtype=np.float32)
        for kernel, stride, padding in ((3, 1, 1), (2, 2, 0)):
            got = avg_pool2d(x, kernel, stride, padding)
            want = avg_pool_loops(x, kernel, stride, padding)
            np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize("n,c,h,downsamples", pool_shapes())
    def test_bit_identical_to_window_mean(self, n, c, h, downsamples):
        x = np.random.default_rng([c, h]).standard_normal((n, c, h, h), dtype=np.float32)
        settings = [(3, 1, 1), (2, 2, 0)] if downsamples else [(3, 1, 1)]
        for view in in_layouts(x):
            for kernel, stride, padding in settings:
                assert_same_bits_and_strides(avg_pool2d(view, kernel, stride, padding),
                                             avg_pool_window_mean(view, kernel, stride, padding))

    # the stride-2 pool adds four strided views of the window's taps in
    # numpy's order for the layout; windows a tap order shows in: -0
    # sums (numpy's sum starts from +0), NaN and infinities, and 3e38s
    # that overflow unless the opposite signs meet first.  One NaN source
    # a window: which of two NaNs an add returns is the CPU's choice.
    @pytest.mark.parametrize("shape", [(3, 5, 7, 9), (2, 3, 4, 6), (2, 4, 6, 4), (2, 3, 5, 3), (4, 1, 6, 6),
                                       (2, 3, 2, 2), (2, 16, 8, 8)])
    def test_stride_2_bit_identical_to_window_mean_on_edge_windows(self, shape):
        rng = np.random.default_rng(list(shape))
        for trial in range(4):
            x = edge_window_batch(shape, rng)
            for view in in_layouts(x):
                with np.errstate(invalid="ignore", over="ignore"):
                    got = avg_pool2d(view, 2, 2, 0)
                    want = avg_pool_window_mean(view, 2, 2, 0)
                assert_same_bits_and_strides(got, want)

    def test_stride_2_all_negative_zero_window_is_positive_zero(self):
        x = np.full((2, 3, 4, 6), -0.0, dtype=np.float32)
        for view in in_layouts(x):
            out = avg_pool2d(view, 2, 2, 0)
            assert not np.signbit(out).any()
            assert_same_bits_and_strides(out, avg_pool_window_mean(view, 2, 2, 0))

    # the skeleton pools 3x3 windows at stride 1 and 2x2 windows at stride
    # 2; a 3x3 stride-2 call must not come back stride-1 shaped, and no
    # other stride-1 window or padding is taken
    @pytest.mark.parametrize("kernel,stride,padding", [(3, 2, 1), (3, 2, 0), (2, 1, 0), (2, 2, 1), (1, 1, 0),
                                                       (4, 1, 1), (2, 3, 0), (3, 1, -1), (5, 1, 0),
                                                       (3, 1, 0), (3, 1, 2), (5, 1, 1), (5, 1, 2)])
    def test_unsupported_windows_raise(self, kernel, stride, padding):
        x = np.ones((2, 3, 4, 4), dtype=np.float32)
        with pytest.raises(ShapeMismatch):
            avg_pool2d(x, kernel, stride, padding)

    def test_stride_1_peak_is_the_output_and_each_parts_block_buffers(self):
        # each part's padded input, row sums and window sums hold one
        # block of images; only the output is full size
        n, c, h = 128, 16, 32
        x = np.random.default_rng(5).standard_normal((n, c, h, h), dtype=np.float32)
        buffer_bytes = c * ((h + 2) * (h + 2) + (h + 2) * h + h * h) * x.itemsize
        nb = _images_per_block(n, buffer_bytes + 2 * x[0].nbytes)  # with the block's input and output
        parts = min(naswot.layers._WORKERS, len(_blocks(n, nb)))
        out_and_blocks = x.nbytes + parts * nb * buffer_bytes
        for view in in_layouts(x):
            tracemalloc.start()
            try:
                avg_pool2d(view, 3, 1, 1)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # 1 MB for the interpreter's own objects; one more full-size
            # buffer would add 8 MB
            assert peak <= out_and_blocks + (1 << 20)

    def test_pooling_is_linear(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((1, 2, 4, 4), dtype=np.float32)
        b = rng.standard_normal((1, 2, 4, 4), dtype=np.float32)
        lhs = avg_pool2d(a + b, 3, 1, 1)
        rhs = avg_pool2d(a, 3, 1, 1) + avg_pool2d(b, 3, 1, 1)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-5, atol=1e-6)
