"""Large calls split over the CPUs: any part count gives the bits of one part.

``naswot.layers._WORKERS`` (the part count) and ``_SPLIT_BYTES`` (the
size below which a call stays one part) are module constants; these
tests set them with ``monkeypatch`` to run the split path on small
inputs, at part counts that leave uneven and one-image parts.
"""

import json
import multiprocessing
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import naswot.layers as layers
import naswot.network
import naswot.scoring
from naswot.benchdata import random_normal_batch
from naswot.layers import _split, add, avg_pool2d, batchnorm_batchstats, conv2d
from naswot.network import NetworkConfig, NonFiniteActivation, _CodeRecorder, build_network, forward_collect_codes
from naswot.scoring import ScoreStatus, hamming_kernel, score_network
from naswot.searchspace import parse_arch, sample_uniform

from oracles import avg_pool_window_mean, batchnorm_float64_temporaries, unpack_codes
from test_layers import absorbing_batch, assert_same_bits_and_strides, cancelling_batch, in_layouts

# conv, pool and identity on every node, two kernel sizes leaving node A
MIXED = [
    "|nor_conv_3x3~0|+|nor_conv_1x1~0|avg_pool_3x3~1|+|skip_connect~0|nor_conv_3x3~1|nor_conv_3x3~2|",
    "|avg_pool_3x3~0|+|nor_conv_3x3~0|nor_conv_3x3~1|+|nor_conv_1x1~0|none~1|skip_connect~2|",
]


def split_into(monkeypatch, workers: int, min_bytes: int = 0) -> None:
    monkeypatch.setattr(layers, "_WORKERS", workers)
    monkeypatch.setattr(layers, "_SPLIT_BYTES", min_bytes)


def codes_at(monkeypatch, workers: int, min_bytes: int, arch: str, config, batch) -> bytes:
    split_into(monkeypatch, workers, min_bytes)
    return forward_collect_codes(build_network(parse_arch(arch), config), batch).words.tobytes()


class TestSplitHelper:
    @pytest.mark.parametrize("nb", [1, 2, 4])
    def test_blocks_cover_the_range_once_in_order(self, monkeypatch, nb):
        split_into(monkeypatch, 3)
        for n in (0, 1, 2, 5, 129):
            seen = []
            lock = threading.Lock()

            def work(start, stop):
                with lock:
                    seen.append((threading.current_thread(), start, stop))

            _split(n, nb, 1, work)
            blocks = sorted((start, stop) for _, start, stop in seen)
            assert len(blocks) == -(-n // nb)
            assert [start for start, _ in blocks] + [n] == [0] + [stop for _, stop in blocks]
            # none over nb, sizes at most one image apart
            sizes = {stop - start for start, stop in blocks}
            assert max(sizes, default=nb) <= nb and max(sizes, default=0) - min(sizes, default=0) <= 1
            # each part runs its blocks in order, one part per CPU
            for thread in {t for t, _, _ in seen}:
                mine = [(start, stop) for t, start, stop in seen if t == thread]
                assert all(a[1] == b[0] for a, b in zip(mine, mine[1:]))
            assert len({t for t, _, _ in seen}) == min(3, len(blocks))

    @pytest.mark.parametrize("n,nb", [(12, 4), (128, 3), (129, 13), (7, 2)])
    def test_parts_are_cut_only_between_blocks(self, monkeypatch, n, nb):
        """Every block, so every layer call a block makes, is the same
        whatever the part count."""
        blocks = {}
        for workers in (1, 2, 3):
            split_into(monkeypatch, workers)
            seen = []
            _split(n, nb, 1, lambda start, stop: seen.append((start, stop)))
            blocks[workers] = sorted(seen)
        assert blocks[2] == blocks[1] and blocks[3] == blocks[1]
        if n % nb == 0:  # even blocks of nb: parts are cut at multiples of nb
            assert {start % nb for start, _ in blocks[1]} == {0}

    def test_parts_cut_at_the_block_nearest_an_even_share(self, monkeypatch):
        """The full stage-1 3x3 conv: 128 images in 43 blocks of 2-3 split
        65 + 63, not 62 + 66; the longer part sets the call's time."""
        split_into(monkeypatch, 2)
        caller = threading.get_ident()
        images = {True: 0, False: 0}
        lock = threading.Lock()

        def work(start, stop):
            with lock:
                images[threading.get_ident() == caller] += stop - start

        _split(128, 3, 1, work)
        assert (images[True], images[False]) == (65, 63)

    def test_small_calls_stay_one_part(self, monkeypatch):
        split_into(monkeypatch, 2, min_bytes=100)
        seen = []
        _split(10, 3, 99, lambda start, stop: seen.append((threading.get_ident(), start, stop)))
        caller = threading.get_ident()
        assert seen == [(caller, 0, 2), (caller, 2, 5), (caller, 5, 7), (caller, 7, 10)]

    def test_scratch_is_made_by_the_caller_for_each_part(self, monkeypatch):
        split_into(monkeypatch, 2)
        made, used = [], []
        caller = threading.get_ident()

        def scratch(start, stop):
            made.append((threading.get_ident(), start, stop))
            return (start, stop)

        _split(7, 2, 1, lambda start, stop, buf: used.append((start, stop, buf)), scratch)
        assert made == [(caller, 0, 3), (caller, 3, 7)]
        assert sorted(used) == [(0, 1, (0, 3)), (1, 3, (0, 3)), (3, 5, (3, 7)), (5, 7, (3, 7))]

    @pytest.mark.parametrize("failing", [0, 1])
    def test_error_re_raised_after_the_other_part_is_done(self, monkeypatch, failing):
        split_into(monkeypatch, 2)
        finished = []
        started = threading.Event()

        def work(start, stop):
            part = 0 if start == 0 else 1
            if part == 1:
                started.set()
            if part == failing:
                started.wait(5)  # both parts run when one fails
                raise ZeroDivisionError(f"part {part}")
            time.sleep(0.2)  # the other part outlives the failing one
            finished.append(part)

        with pytest.raises(ZeroDivisionError, match=f"part {failing}"):
            _split(2, 1, 1, work)
        # no part still runs once the call has raised
        assert finished == [1 - failing]

    @pytest.mark.parametrize("fails", [False, True])
    def test_no_thread_outlives_the_call(self, monkeypatch, fails):
        split_into(monkeypatch, 3)
        before = threading.active_count()
        ran_in = []

        def work(start, stop):
            ran_in.append(threading.current_thread())
            if fails and start > 0:
                raise ZeroDivisionError

        if fails:
            with pytest.raises(ZeroDivisionError):
                _split(3, 1, 1, work)
        else:
            _split(3, 1, 1, work)
        # the caller, and a thread of its own for each other part
        assert len(set(ran_in)) == 3 and threading.current_thread() in ran_in
        assert sorted(t.name for t in ran_in if t is not threading.current_thread()) == ["naswot-split"] * 2
        assert threading.active_count() == before


class TestImagesPerBlock:
    @pytest.mark.parametrize("image_bytes", [1, 4608, 18432, 589824, 3 << 20])
    @pytest.mark.parametrize("n", [0, 1, 5, 113, 114, 128, 129, 227, 1024])
    def test_fewest_blocks_of_about_block_bytes_at_most_one_image_apart(self, n, image_bytes):
        nb = layers._images_per_block(n, image_bytes)
        most = max(1, layers._BLOCK_BYTES // image_bytes)  # images that fit in a block
        assert 1 <= nb <= max(1, min(n, most))
        blocks = layers._blocks(n, nb)
        assert len(blocks) == -(-n // most)
        sizes = [stop - start for start, stop in blocks]
        assert sum(sizes) == n and max(sizes, default=0) - min(sizes, default=0) <= 1

    def test_an_empty_call_runs_no_block(self, monkeypatch):
        split_into(monkeypatch, 2)
        seen = []
        _split(0, layers._images_per_block(0, 100), 1, seen.append, lambda start, stop: seen.append("scratch"))
        assert seen == []


class TestSharedPool:
    def test_callers_in_more_threads_than_cores_get_their_own_codes(self, monkeypatch):
        """``search --jobs`` scores in threads that share the pool: each
        caller's parts write only its own buffers."""
        config = NetworkConfig.desk()
        batch = random_normal_batch((7, *config.input_shape), 0)
        archs = [str(sample_uniform(seed)) for seed in range(6)]
        split_into(monkeypatch, 1)
        want = [forward_collect_codes(build_network(parse_arch(a), config), batch).words.tobytes()
                for a in archs]
        split_into(monkeypatch, 3)
        got = [None] * len(archs)

        def score(i):
            for _ in range(3):
                codes = forward_collect_codes(build_network(parse_arch(archs[i]), config), batch)
                got[i] = codes.words.tobytes() if got[i] in (None, want[i]) else b"mismatch"

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=score, args=(i,)) for i in range(len(archs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        assert got == want


class TestLayersSplit:
    """Each layer at 2 and 3 parts gives the bits and strides of one part
    (and of its oracle, where the oracle is exact at these small shapes),
    on batches that leave uneven and one-image parts."""

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_conv2d(self, monkeypatch, workers, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal((n, 6, 9, 9), dtype=np.float32)
        for weights, stride, padding in [(rng.standard_normal((8, 6, 3, 3), dtype=np.float32), 1, 1),
                                         (rng.standard_normal((12, 6, 3, 3), dtype=np.float32), 2, 1),
                                         (rng.standard_normal((4, 6, 1, 1), dtype=np.float32), 1, 0)]:
            for view in in_layouts(x):
                split_into(monkeypatch, 1)
                want = conv2d(view, weights, stride, padding)
                split_into(monkeypatch, workers)
                assert_same_bits_and_strides(conv2d(view, weights, stride, padding), want)

    # shapes where the stride-1 pool's memory order, taken from the
    # strides, is ambiguous: one channel and 1x1 maps tie strides; maps
    # that are not square (input_shape (3, 8, 16)); and, for that pool,
    # NHWC memory both as in_layouts makes it and as a fresh buffer,
    # whose strides tie where the other's do not.  The last two shapes
    # miss the window mean in the stride-1 pool whatever its buffers'
    # order: see the FOUND lines in CHANGES.md on one-pixel maps.
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("shape", [
        (2, 5, 8, 8), (3, 5, 8, 8), (5, 5, 8, 8), (5, 1, 8, 8), (5, 6, 1, 1), (5, 1, 1, 1), (5, 4, 8, 16),
        (5, 4, 4, 8), (5, 4, 2, 4), (5, 1, 2, 4),
        pytest.param((16, 32, 5, 1), marks=pytest.mark.xfail(
            strict=True, raises=AssertionError, reason="width-1 maps 3+ tall: last bit differs")),
        pytest.param((1, 2, 1, 5), marks=pytest.mark.xfail(
            strict=True, raises=AssertionError, reason="batch-1 NHWC one-pixel-high map: strides differ"))],
        ids=lambda shape: "x".join(map(str, shape)))
    def test_pools_relu_and_sums(self, monkeypatch, workers, shape):
        x = np.random.default_rng(list(shape)).standard_normal(shape, dtype=np.float32)
        fresh = np.empty((shape[0], *shape[2:], shape[1]), dtype=x.dtype)
        fresh[...] = x.transpose(0, 2, 3, 1)
        split_into(monkeypatch, workers)
        for view in (*in_layouts(x), fresh.transpose(0, 3, 1, 2)):
            assert_same_bits_and_strides(avg_pool2d(view, 3, 1, 1), avg_pool_window_mean(view, 3, 1, 1))
        for view in in_layouts(x):
            if min(shape[2:]) > 1:  # the window mean needs a 2x2 map
                assert_same_bits_and_strides(avg_pool2d(view, 2, 2, 0), avg_pool_window_mean(view, 2, 2, 0))
            activated = _CodeRecorder(len(view), [(view[0].size, 1)]).record(view)
            assert_same_bits_and_strides(activated, np.maximum(view, 0.0))
            # node sums of same and of mixed layouts
            for other in in_layouts(x[::-1]):
                assert_same_bits_and_strides(add(view, other), view + other)

    # channel counts that split into pairs, pairs plus an odd channel,
    # and stacked parts whose channel runs cross the split's cut
    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("n,c,parts", [(2, 2, None), (3, 5, None), (5, 6, 3), (40, 16, 2)])
    @pytest.mark.parametrize("make", [cancelling_batch, absorbing_batch])
    def test_batchnorm(self, monkeypatch, workers, n, c, parts, make):
        x = make((n, c, 16, 16), np.random.default_rng([n, c]))
        cp = c // (parts or 1)
        split_into(monkeypatch, workers)
        for view in in_layouts(x):
            got = batchnorm_batchstats(view, 1e-5, parts=parts)
            for j, part in enumerate(got if parts else [got]):
                want = batchnorm_float64_temporaries(in_layouts(x[:, j * cp:(j + 1) * cp])[1], 1e-5)
                assert_same_bits_and_strides(part, want)

    # a step of 3 row pairs: one row at a time, in several column steps;
    # 2n + 1 and 5n + 1 pairs: blocks of 2 and 5 rows, odd block counts.
    # A step holds half of _BLOCK_BYTES of row pairs.
    @pytest.mark.parametrize("pairs_per_step", [lambda n: 3, lambda n: 2 * n + 1, lambda n: 5 * n + 1])
    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("n", [2, 3, 5, 64])
    def test_hamming_kernel(self, monkeypatch, workers, n, pairs_per_step):
        config = NetworkConfig.desk()
        codes = forward_collect_codes(build_network(sample_uniform(n), config),
                                      random_normal_batch((n, *config.input_shape), n))
        want = np.array([[np.sum(a != b) for b in unpack_codes(codes)] for a in unpack_codes(codes)])
        split_into(monkeypatch, workers)
        monkeypatch.setattr(naswot.scoring, "_BLOCK_BYTES", 2 * codes.words[0].nbytes * pairs_per_step(n))
        assert np.array_equal(hamming_kernel(codes), codes.n_units - want)


class TestForwardSplit:
    """Packed codes are byte-identical whatever the part count."""

    @pytest.mark.parametrize("arch", MIXED)
    def test_full_preset_batch_128(self, monkeypatch, arch):
        config = NetworkConfig()
        batch = random_normal_batch((128, *config.input_shape), 0)
        default = layers._SPLIT_BYTES
        want = codes_at(monkeypatch, 1, default, arch, config, batch)
        assert codes_at(monkeypatch, max(2, layers._WORKERS), default, arch, config, batch) == want

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("n", [2, 3, 5, 129])
    @pytest.mark.parametrize("arch", MIXED)
    def test_desk_preset_uneven_batches(self, monkeypatch, arch, n, workers):
        config = NetworkConfig.desk()
        batch = random_normal_batch((n, *config.input_shape), n)
        want = codes_at(monkeypatch, 1, 0, arch, config, batch)
        assert codes_at(monkeypatch, workers, 0, arch, config, batch) == want

    @pytest.mark.parametrize("workers", [2, 3])
    def test_sites_ending_inside_a_byte(self, monkeypatch, workers):
        # one-channel cells with 4-unit stage-3 sites, which end inside
        # a byte and leave pad bits in their word, and one-channel
        # batch-norms
        config = NetworkConfig.desk(stem_channels=1, input_shape=(3, 4, 4))
        batch = random_normal_batch((5, *config.input_shape), 0)
        want = codes_at(monkeypatch, 1, 0, MIXED[0], config, batch)
        assert codes_at(monkeypatch, workers, 0, MIXED[0], config, batch) == want

    def test_layers_at_the_full_stage_one_shape_take_the_split(self, monkeypatch):
        """The layer oracle tests in test_layers.py run this shape, so
        they check the split path too."""
        seen = []

        def recording(n, nb, nbytes, work, scratch=None):
            seen.append(nbytes >= layers._SPLIT_BYTES and min(layers._WORKERS, -(-n // nb)) > 1)
            return _split(n, nb, nbytes, work, scratch)

        monkeypatch.setattr(layers, "_WORKERS", max(2, layers._WORKERS))
        monkeypatch.setattr(layers, "_split", recording)
        x = np.zeros((128, 16, 32, 32), dtype=np.float32)
        for call in (lambda: conv2d(x, np.zeros((16, 16, 3, 3), dtype=np.float32), 1, 1),
                     lambda: conv2d(x, np.zeros((16, 16, 1, 1), dtype=np.float32), 1, 0),
                     lambda: avg_pool2d(x, 3, 1, 1),
                     lambda: batchnorm_batchstats(x, 1e-5)):
            seen.clear()
            call()
            assert seen and all(seen)


class TestForwardPools:
    """Every pool call a desk-preset forward makes, on the layouts the
    forward gives it, matches the window mean in bits and strides."""

    # a pool edge out of node 2, which sums a pool and a conv edge
    # (C-ordered and NHWC operands) into C order
    POOL_OF_A_MIXED_SUM = "|nor_conv_3x3~0|+|avg_pool_3x3~0|nor_conv_1x1~1|+|skip_connect~0|none~1|avg_pool_3x3~2|"

    @pytest.mark.parametrize("workers", [1, 2])
    def test_every_pool_call_matches_the_window_mean(self, monkeypatch, workers):
        config = NetworkConfig.desk()
        batch = random_normal_batch((128, *config.input_shape), 0)
        real, checked = naswot.network.avg_pool2d, []

        def checking(x, kernel, stride=1, padding=0):
            out = real(x, kernel, stride, padding)
            assert_same_bits_and_strides(out, avg_pool_window_mean(x, kernel, stride, padding))
            checked.append((stride, x.flags.c_contiguous))
            return out

        monkeypatch.setattr(naswot.network, "avg_pool2d", checking)
        split_into(monkeypatch, workers)
        for arch in (*MIXED, self.POOL_OF_A_MIXED_SUM):
            forward_collect_codes(build_network(parse_arch(arch), config), batch)
        # stride-1 and stride-2 pools of C-ordered and of NHWC input
        assert set(checked) == {(1, True), (1, False), (2, True), (2, False)}


class TestErrorsSplit:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_only_in_the_last_part_is_caught(self, monkeypatch, bad):
        split_into(monkeypatch, 2)
        x = np.ones((6, 4, 4, 4), dtype=np.float32)
        x[5, 3, 2, 1] = bad
        recorder = _CodeRecorder(6, [(64, 1)])
        with pytest.raises(NonFiniteActivation):
            recorder.record(x)

    def test_non_finite_in_the_second_half_of_the_batch_scores_non_finite(self, monkeypatch):
        split_into(monkeypatch, 2)
        config = NetworkConfig.desk()
        batch = random_normal_batch((6, *config.input_shape), 1)
        batch[5, 0, 0, 0] = np.nan
        score = score_network(parse_arch(MIXED[0]), config, batch)
        assert score.status is ScoreStatus.NON_FINITE


def record_site(x) -> tuple:
    """A one-site recorder's code words and the activation it returns for x."""
    recorder = _CodeRecorder(len(x), [(x[0].size, 1)])
    activated = recorder.record(x)
    return recorder.codes().words, activated


class TestRecorderBlocks:
    # _BLOCK_BYTES patched to hold one and two images of the site, so
    # each part of 7 images reads several blocks
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("images_per_block", [1, 2])
    @pytest.mark.parametrize("site", [(3, 5, 5), (8, 4, 4)], ids=["unaligned", "word"])
    def test_blocks_give_the_words_and_activation_of_one_block(self, monkeypatch, workers, images_per_block, site):
        x = np.random.default_rng(list(site)).standard_normal((7, *site), dtype=np.float32)
        x[2, 0] = 0.0
        x[4, 1] = -0.0
        for view in in_layouts(x):
            want_words, want = record_site(view)
            split_into(monkeypatch, workers)
            monkeypatch.setattr(layers, "_BLOCK_BYTES", images_per_block * view[0].nbytes)
            words, activated = record_site(view)
            monkeypatch.undo()
            assert np.array_equal(words, want_words)
            assert_same_bits_and_strides(activated, want)
            assert_same_bits_and_strides(activated, np.maximum(view, 0.0))

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_only_in_a_later_block_is_caught(self, monkeypatch, workers, bad):
        x = np.ones((6, 4, 4, 4), dtype=np.float32)
        x[2, 1, 0, 3] = bad  # in the first part's last block
        split_into(monkeypatch, workers)
        monkeypatch.setattr(layers, "_BLOCK_BYTES", x[0].nbytes)
        with pytest.raises(NonFiniteActivation):
            _CodeRecorder(6, [(64, 1)]).record(x)


class TestUnitCountsSplit:
    """The recorder's unit-count errors come before any split."""

    def test_more_units_than_counted_raises(self, monkeypatch):
        split_into(monkeypatch, 2)
        config = NetworkConfig.desk()
        net = build_network(parse_arch(MIXED[0]), config)
        net.stages[0][1].append(net.stages[0][1][0])  # a cell count_relu_units does not know
        with pytest.raises(RuntimeError, match="more units"):
            forward_collect_codes(net, random_normal_batch((4, *config.input_shape), 0))

    def test_fewer_units_than_counted_raises(self, monkeypatch):
        split_into(monkeypatch, 2)
        config = NetworkConfig.desk()
        net = build_network(parse_arch(MIXED[0]), config)
        net.stages[0][1].pop()
        with pytest.raises(RuntimeError, match="count_relu_units gives"):
            forward_collect_codes(net, random_normal_batch((4, *config.input_shape), 0))


def _score_in_child(arch, batch, results) -> None:
    results.put(score_network(parse_arch(arch), NetworkConfig.desk(), batch))


class TestFork:
    def test_forked_child_scores_like_its_parent(self, monkeypatch):
        split_into(monkeypatch, 2)
        config = NetworkConfig.desk()
        batch = random_normal_batch((16, *config.input_shape), 3)
        want = score_network(parse_arch(MIXED[0]), config, batch)
        context = multiprocessing.get_context("fork")
        results = context.Queue()
        child = context.Process(target=_score_in_child, args=(MIXED[0], batch, results))
        child.start()
        try:
            got = results.get(timeout=60)
        finally:
            child.join(timeout=60)
            if child.is_alive():
                child.kill()
        assert not child.is_alive() and child.exitcode == 0
        assert got == want and got.value == want.value


# Run in a child whose BLAS picks OpenBLAS's AVX2 (Haswell) kernels, on
# which an SGEMM row's bits change with the call's row count and the
# row's offset: the conv at the full stage-1 shape, and a full-preset
# forward at batch 128, at 1 and at 2 parts.
KERNEL_FAMILY_CHILD = """
import ctypes, json, sys
import numpy as np
import naswot.layers as layers
from naswot.benchdata import random_normal_batch
from naswot.network import NetworkConfig, build_network, forward_collect_codes
from naswot.searchspace import parse_arch

def core():
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line and ".so" in line}
    for lib in sorted(libs):
        name = getattr(ctypes.CDLL(lib), "scipy_openblas_get_corename64_", None)
        if name is not None:
            name.restype = ctypes.c_char_p
            return name().decode()

rng = np.random.default_rng(0)
x = rng.standard_normal((128, 16, 32, 32), dtype=np.float32)
weights = rng.standard_normal((16, 16, 3, 3), dtype=np.float32)
config = NetworkConfig()
net = build_network(parse_arch(sys.argv[1]), config)
batch = random_normal_batch((128, *config.input_shape), 0)
got = {}
for workers in (1, 2):
    layers._WORKERS = workers
    got[workers] = layers.conv2d(x, weights, 1, 1), forward_collect_codes(net, batch).words
print(json.dumps({
    "core": core(),
    "conv_bits_differ": int(np.sum(got[1][0].view(np.uint32) != got[2][0].view(np.uint32))),
    "code_bits_differ": int(np.bitwise_count(got[1][1] ^ got[2][1]).sum()),
}))
"""


class TestKernelFamilies:
    def test_codes_do_not_depend_on_the_part_count_on_avx2_kernels(self):
        src = str(Path(naswot.network.__file__).resolve().parents[1])
        env = dict(os.environ, OPENBLAS_CORETYPE="Haswell", OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", KERNEL_FAMILY_CHILD, MIXED[0]], env=env,
                              capture_output=True, text=True, timeout=600)
        assert done.returncode == 0, done.stderr
        got = json.loads(done.stdout)
        if got["core"] != "Haswell":
            pytest.skip(f"OpenBLAS ran its {got['core']} kernels, not Haswell")
        assert (got["conv_bits_differ"], got["code_bits_differ"]) == (0, 0)
