from collections import Counter

import numpy as np
import pytest

import naswot.network
from naswot.benchdata import random_normal_batch
from naswot.layers import avg_pool2d, batchnorm_batchstats, conv2d
from naswot.network import (
    NetworkConfig,
    NonFiniteActivation,
    _CodeRecorder,
    _cell_forward,
    _downsample_forward,
    build_network,
    count_relu_units,
    forward_collect_codes,
)
from naswot.scoring import hamming_kernel
from naswot.searchspace import EDGES, Genotype, OpKind, as_generator, format_arch, parse_arch, sample_uniform

from make_golden import MIXED, TABLES
from oracles import ChannelMajorRecorder, codes_from_bits, kernels_in_draw_order, per_edge_cell_forward, unpack_codes

_, DESK_GOLDEN_CONFIG, DESK_GOLDEN_BATCH, _, DESK_GOLDEN_ARCHS = TABLES[0]

EXAMPLE = "|nor_conv_3x3~0|+|none~0|skip_connect~1|+|avg_pool_3x3~0|nor_conv_1x1~1|skip_connect~2|"
THREE_CONVS = "|nor_conv_3x3~0|+|nor_conv_1x1~0|none~1|+|skip_connect~0|avg_pool_3x3~1|nor_conv_3x3~2|"


def normal_batch(n, shape, seed):
    return np.random.default_rng(seed).standard_normal((n, *shape), dtype=np.float32)


class TestConfig:
    def test_defaults_are_full_scale(self):
        cfg = NetworkConfig()
        assert (cfg.stem_channels, cfg.cells_per_stage, cfg.input_shape) == (16, 5, (3, 32, 32))

    def test_desk_preset(self):
        cfg = NetworkConfig.desk()
        assert (cfg.stem_channels, cfg.cells_per_stage, cfg.input_shape) == (8, 1, (3, 8, 8))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"stem_channels": 0},
            {"cells_per_stage": 0},
            {"input_shape": (0, 8, 8)},
            {"input_shape": (3, 6, 8)},  # not divisible by the two stride-2 blocks
            {"bn_epsilon": -1e-6},
            {"bn_epsilon": float("nan")},
            {"bn_epsilon": float("inf")},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            NetworkConfig.desk(**kwargs)

    def test_input_shape_stored_as_a_tuple_of_ints(self):
        # a list or numpy ints make the same config as the tuple: it
        # hashes, and a batch of that shape scores
        for shape in ([3, 8, 8], (np.int64(3), np.int32(8), 8)):
            cfg = NetworkConfig.desk(input_shape=shape)
            assert cfg == NetworkConfig.desk() and hash(cfg) == hash(NetworkConfig.desk())
            assert type(cfg.input_shape) is tuple and all(type(d) is int for d in cfg.input_shape)
            batch = normal_batch(4, (3, 8, 8), 0)
            assert forward_collect_codes(build_network(parse_arch(EXAMPLE), cfg), batch).n_inputs == 4

    # none of these may reach a numpy call or the weight draw, whose
    # errors name no setting
    @pytest.mark.parametrize("name,value", [
        ("stem_channels", 2.5), ("stem_channels", True), ("stem_channels", "8"), ("cells_per_stage", 1.5),
        ("cells_per_stage", False), ("init_seed", 1.5), ("init_seed", -1), ("init_seed", np.int64(-1)),
    ])
    def test_non_int_counts_and_seed_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be an int >= [01], got "):
            NetworkConfig.desk(**{name: value})

    @pytest.mark.parametrize("value", [True, np.True_, "1e-5", None, 1e-5j], ids=repr)
    def test_non_real_bn_epsilon_rejected(self, value):
        with pytest.raises(ValueError, match="^bn_epsilon must be a finite non-negative real number, got "):
            NetworkConfig.desk(bn_epsilon=value)

    def test_numpy_int_counts_and_seed_stored_as_ints(self):
        cfg = NetworkConfig.desk(stem_channels=np.int64(8), cells_per_stage=np.int32(1), init_seed=np.uint8(0))
        assert cfg == NetworkConfig.desk() and hash(cfg) == hash(NetworkConfig.desk())
        assert all(type(v) is int for v in (cfg.stem_channels, cfg.cells_per_stage, cfg.init_seed))

    @pytest.mark.parametrize("shape", [(3, 8.0, 8), [3, 8], (3, 8, 8, 1), (True, 8, 8), (3, np.True_, 8)],
                             ids=["float", "two", "four", "bool", "numpy-bool"])
    def test_input_shape_not_three_ints_rejected(self, shape):
        with pytest.raises(ValueError, match="input_shape must be three ints"):
            NetworkConfig.desk(input_shape=shape)


class TestCodeMatrix:
    def test_pack_unpack_roundtrip(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 20))
            n_units = int(rng.integers(1, 300))
            bits = rng.integers(0, 2, size=(n, n_units)).astype(bool)
            codes = codes_from_bits(bits)
            assert codes.n_units == n_units
            assert codes.n_inputs == n
            assert np.array_equal(unpack_codes(codes), bits)

    def test_words_are_uint64(self):
        codes = codes_from_bits(np.ones((2, 65), dtype=bool))
        assert codes.words.dtype == np.uint64
        assert codes.words.shape == (2, 2)


class TestBuildForward:
    def test_all_identity_cell_multiplies_input_by_path_count(self):
        # node D receives A over 4 paths (direct, via B, via C, via B->C),
        # so with identity edges the cell is exactly 4x the input
        net = build_network(Genotype.uniform(OpKind.IDENTITY), NetworkConfig.desk())
        x = normal_batch(2, (8, 8, 8), 1)
        got = _cell_forward(x, net.genotype.ops, net.stages[0][1][0], net.config.bn_epsilon, ChannelMajorRecorder())
        assert np.array_equal(got, 4.0 * x)

    def test_all_zeroise_cell_outputs_zero(self):
        net = build_network(Genotype.uniform(OpKind.ZEROISE), NetworkConfig.desk())
        x = normal_batch(2, (8, 8, 8), 2)
        got = _cell_forward(x, net.genotype.ops, net.stages[0][1][0], net.config.bn_epsilon, ChannelMajorRecorder())
        assert not got.any()

    @pytest.mark.parametrize("layout", ["nchw", "nhwc"])
    def test_downsample_block_gives_bits_and_strides_of_branch_sum(self, layout):
        net = build_network(parse_arch(EXAMPLE), NetworkConfig.desk())
        kernels = net.stages[1][0]
        conv1, conv2, shortcut = kernels
        eps = net.config.bn_epsilon
        x = normal_batch(4, (8, 8, 8), 6)
        if layout == "nhwc":
            x = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
        before = x.copy()
        main = batchnorm_batchstats(conv2d(np.maximum(x, 0.0), conv1, 2, 1), eps)
        main = batchnorm_batchstats(conv2d(np.maximum(main, 0.0), conv2, 1, 1), eps)
        expected = main + conv2d(avg_pool2d(x, 2, 2, 0), shortcut, 1, 0)
        got = _downsample_forward(x, kernels, eps, ChannelMajorRecorder())
        assert got.strides == expected.strides
        assert np.array_equal(got.view(np.uint32), expected.view(np.uint32))
        assert np.array_equal(x, before)

    def test_all_zeroise_codes_rows_identical(self):
        cfg = NetworkConfig.desk()
        net = build_network(Genotype.uniform(OpKind.ZEROISE), cfg)
        codes = unpack_codes(forward_collect_codes(net, normal_batch(8, cfg.input_shape, 3)))
        assert all(np.array_equal(codes[0], row) for row in codes)

    def test_rebuild_gives_bit_identical_weights_and_codes(self):
        cfg = NetworkConfig.desk(init_seed=9)
        genotype = parse_arch(EXAMPLE)
        batch = normal_batch(16, cfg.input_shape, 4)
        first = forward_collect_codes(build_network(genotype, cfg), batch)
        second = forward_collect_codes(build_network(genotype, cfg), batch)
        assert np.array_equal(first.words, second.words)
        assert first.n_units == second.n_units

    def test_different_init_seeds_give_different_codes(self):
        genotype = parse_arch(EXAMPLE)
        batch = normal_batch(16, (3, 8, 8), 4)
        a = forward_collect_codes(build_network(genotype, NetworkConfig.desk(init_seed=0)), batch)
        b = forward_collect_codes(build_network(genotype, NetworkConfig.desk(init_seed=1)), batch)
        assert not np.array_equal(a.words, b.words)

    def test_duplicated_input_rows_share_codes(self):
        cfg = NetworkConfig.desk()
        net = build_network(parse_arch(EXAMPLE), cfg)
        batch = normal_batch(8, cfg.input_shape, 5)
        batch[3] = batch[0]
        codes = unpack_codes(forward_collect_codes(net, batch))
        assert np.array_equal(codes[0], codes[3])

    def test_batch_shape_validated(self):
        net = build_network(parse_arch(EXAMPLE), NetworkConfig.desk())
        with pytest.raises(ValueError):
            forward_collect_codes(net, normal_batch(4, (3, 16, 16), 0))
        with pytest.raises(ValueError):
            forward_collect_codes(net, normal_batch(1, (3, 8, 8), 0))

    def test_non_finite_weights_raise(self):
        net = build_network(parse_arch(EXAMPLE), NetworkConfig.desk())
        net.stem[0, 0, 0, 0] = np.nan
        with pytest.raises(NonFiniteActivation):
            forward_collect_codes(net, normal_batch(4, (3, 8, 8), 0))


def sorted_columns(bits):
    """The columns of a bool matrix as sorted byte strings, one per column."""
    packed = np.packbits(bits, axis=0)
    return np.sort(np.ascontiguousarray(packed.T).view(f"V{packed.shape[0]}").ravel())


class TestCodeRecorder:
    # the recorder writes each site in its memory order, so its columns are
    # a permutation of the channel-major ones and the kernel, which counts
    # agreeing bits, is the same matrix.  The last case has stage-3 sites
    # of 4 units, which end inside a byte, and 124 units in all.
    @pytest.mark.parametrize("config,batch_size,arch",
                             [(DESK_GOLDEN_CONFIG, DESK_GOLDEN_BATCH, arch) for arch in DESK_GOLDEN_ARCHS]
                             + [(NetworkConfig(), 128, MIXED[0]),
                                (NetworkConfig.desk(stem_channels=1, input_shape=(3, 4, 4)), 8, THREE_CONVS)],
                             ids=[f"desk{i}" for i in range(len(DESK_GOLDEN_ARCHS))] + ["full", "unaligned"])
    def test_kernel_bit_identical_to_channel_major_recorder(self, config, batch_size, arch):
        net = build_network(parse_arch(arch), config)
        batch = random_normal_batch((batch_size, *config.input_shape), 0)
        oracle = ChannelMajorRecorder()
        net.forward(batch, oracle)
        want = oracle.bits()
        codes = forward_collect_codes(net, batch)
        assert codes.n_units == want.shape[1]
        got = hamming_kernel(codes)
        assert np.array_equal(got, hamming_kernel(codes_from_bits(want)))
        # and the same columns, counted with multiplicity
        assert np.array_equal(sorted_columns(unpack_codes(codes)), sorted_columns(want))

    def test_more_units_than_counted_raises(self):
        cfg = NetworkConfig.desk()
        net = build_network(parse_arch(EXAMPLE), cfg)
        net.stages[0][1].append(net.stages[0][1][0])  # a cell count_relu_units does not know
        with pytest.raises(RuntimeError, match="more units"):
            forward_collect_codes(net, normal_batch(4, cfg.input_shape, 0))

    def test_fewer_units_than_counted_raises(self):
        cfg = NetworkConfig.desk()
        net = build_network(parse_arch(EXAMPLE), cfg)
        net.stages[0][1].pop()  # drops the stage-1 cell's sites
        with pytest.raises(RuntimeError, match="count_relu_units gives 3072"):
            forward_collect_codes(net, normal_batch(4, cfg.input_shape, 0))

    # a node leading m conv edges records its site once with times=m; the
    # codes unpack to the same columns, in the same order, and give the
    # same kernel as m separate records, after sites of 0, 3 and 8 units
    # and for sites that end inside a byte and inside a word
    @pytest.mark.parametrize("lead", [0, 3, 8])
    @pytest.mark.parametrize("site", [(2, 2, 2), (3, 1, 3)])
    @pytest.mark.parametrize("times", [1, 2, 3])
    def test_repeated_site_packs_like_separate_records(self, lead, site, times):
        rng = np.random.default_rng([lead, *site, times])
        first = rng.standard_normal((6, lead, 1, 1), dtype=np.float32)
        x = rng.standard_normal((6, *site), dtype=np.float32)
        last = rng.standard_normal((6, 5, 1, 1), dtype=np.float32)
        once = _CodeRecorder(6, [(lead, 1), (x[0].size, times), (5, 1)])
        apart = _CodeRecorder(6, [(lead, 1), *[(x[0].size, 1)] * times, (5, 1)])
        once.record(first)
        once.record(x, times=times)
        once.record(last)
        apart.record(first)
        for _ in range(times):
            apart.record(x)
        apart.record(last)
        want = ChannelMajorRecorder()
        for y in (first, x, last):
            want.record(y, times=times if y is x else 1)
        once, apart = once.codes(), apart.codes()
        assert once.n_units == apart.n_units == want.bits().shape[1]
        assert np.array_equal(unpack_codes(once), unpack_codes(apart))
        assert np.array_equal(hamming_kernel(once), hamming_kernel(apart))
        assert np.array_equal(sorted_columns(unpack_codes(once)), sorted_columns(want.bits()))

    # a site that ends inside a word leaves the rest of that word 0 in
    # every row, so its pad bits XOR to 0 and never reach the kernel
    @pytest.mark.parametrize("sizes", [[(1, 1), (65, 2), (8, 3)], [(63, 1), (64, 1), (127, 2)]],
                             ids=["short", "near-word"])
    def test_pad_bits_are_zero_in_every_row(self, sizes):
        rng = np.random.default_rng(0)
        recorder = _CodeRecorder(5, sizes)
        for units, m in sizes:
            # all positive but one input, so every site's bits are mostly 1
            x = np.abs(rng.standard_normal((5, units, 1, 1), dtype=np.float32)) + 1
            x[0] = -x[0]
            recorder.record(x, times=m)
        codes = recorder.codes()
        bits = np.unpackbits(codes.words.view(np.uint8), axis=1).astype(bool)
        at = 0
        for units, _ in sizes:
            span = -(-units // 64) * 64
            assert bits[1:, at:at + units].all() and not bits[0, at:at + units].any()
            assert not bits[:, at + units:at + span].any()
            at += span
        assert at == bits.shape[1]

    def test_repeated_site_past_the_unit_count_raises(self):
        recorder = _CodeRecorder(2, [(8, 2)])
        with pytest.raises(RuntimeError, match="more units"):
            recorder.record(np.ones((2, 2, 2, 2), dtype=np.float32), times=3)


# hand-derived relu-unit table for the desk skeleton (stem 8, one cell
# per stage, 8x8 input).  Each conv edge leads with one ReLU over the
# full (C, H, W) feature map; each downsample block has a ReLU before
# each of its two convolutions; the skeleton ends in one final ReLU.
def desk_unit_table(conv_edges: int) -> list[int]:
    return [
        conv_edges * 8 * 8 * 8,     # stage 1 cell      (8ch, 8x8)
        8 * 8 * 8 + 16 * 4 * 4,     # downsample 1      (8ch 8x8, then 16ch 4x4)
        conv_edges * 16 * 4 * 4,    # stage 2 cell      (16ch, 4x4)
        16 * 4 * 4 + 32 * 2 * 2,    # downsample 2
        conv_edges * 32 * 2 * 2,    # stage 3 cell      (32ch, 2x2)
        32 * 2 * 2,                 # final relu
    ]


# genotypes covering every way a cell's conv edges group by (source node,
# kernel size): node A leading one, two or three 3x3s, three 1x1s, or a
# mix; node B leading two; every node leading some
FUSED = {
    "A1-B1": EXAMPLE,
    "A2": "|nor_conv_3x3~0|+|nor_conv_3x3~0|none~1|+|skip_connect~0|avg_pool_3x3~1|none~2|",
    "A3": "|nor_conv_3x3~0|+|nor_conv_3x3~0|skip_connect~1|+|nor_conv_3x3~0|none~1|avg_pool_3x3~2|",
    "A3-1x1": "|nor_conv_1x1~0|+|nor_conv_1x1~0|avg_pool_3x3~1|+|nor_conv_1x1~0|skip_connect~1|none~2|",
    "A-mixed": "|nor_conv_3x3~0|+|nor_conv_1x1~0|none~1|+|nor_conv_3x3~0|skip_connect~1|avg_pool_3x3~2|",
    "B2": "|skip_connect~0|+|avg_pool_3x3~0|nor_conv_3x3~1|+|none~0|nor_conv_3x3~1|nor_conv_1x1~2|",
    "all-conv": format_arch(Genotype.uniform(OpKind.CONV_3X3)),
}


def per_edge_forward(net, batch, recorder):
    """The network's forward pass with every cell run edge by edge, on
    kernels drawn in the per-edge build order."""
    kernels = iter(kernels_in_draw_order(net.genotype, net.config)[2])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(naswot.network, "_cell_forward", lambda x, ops, _, epsilon, recorder:
                      per_edge_cell_forward(ops, next(kernels), epsilon, x, recorder))
        net.forward(batch, recorder)


class TestFusedCell:
    @pytest.mark.parametrize("config,batch_size,arch",
                             [(DESK_GOLDEN_CONFIG, DESK_GOLDEN_BATCH, arch) for arch in FUSED.values()]
                             + [(NetworkConfig(), 128, FUSED["A-mixed"])],
                             ids=[f"desk-{name}" for name in FUSED] + ["full-A-mixed"])
    def test_kernel_bit_identical_to_per_edge_cells(self, config, batch_size, arch):
        net = build_network(parse_arch(arch), config)
        batch = random_normal_batch((batch_size, *config.input_shape), 0)
        oracle = ChannelMajorRecorder()
        per_edge_forward(net, batch, oracle)
        want = oracle.bits()
        codes = forward_collect_codes(net, batch)
        assert np.array_equal(hamming_kernel(codes), hamming_kernel(codes_from_bits(want)))
        assert np.array_equal(sorted_columns(unpack_codes(codes)), sorted_columns(want))

    # values and memory layout of a cell's output: the layout sets the
    # summation order of the stride-2 pool that reads the last cell of a
    # stage.  Zero edges drop out of the sums, but a node keeps the layout
    # their zeros gave it.  Two channels, so every group is stacked.
    @pytest.mark.parametrize("layout", ["nchw", "nhwc"])
    def test_cell_output_equals_per_edge_cell_in_value_and_layout(self, layout):
        config = NetworkConfig.desk(stem_channels=2)
        gen = as_generator(21)
        genotypes = [parse_arch(arch) for arch in FUSED.values()] + [sample_uniform(gen) for _ in range(150)]
        genotypes += [Genotype.uniform(OpKind.ZEROISE),
                      parse_arch("|avg_pool_3x3~0|+|none~0|none~1|+|nor_conv_3x3~0|none~1|none~2|"),
                      parse_arch("|nor_conv_1x1~0|+|avg_pool_3x3~0|none~1|+|none~0|none~1|none~2|")]
        x = normal_batch(3, (2, 8, 8), 22)
        if layout == "nhwc":
            x = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
        for genotype in genotypes:
            groups = build_network(genotype, config).stages[0][1][0]
            kernels = kernels_in_draw_order(genotype, config)[2][0]
            got = _cell_forward(x, genotype.ops, groups, config.bn_epsilon, ChannelMajorRecorder())
            want = per_edge_cell_forward(genotype.ops, kernels, config.bn_epsilon, x, ChannelMajorRecorder())
            assert np.array_equal(got, want), format_arch(genotype)
            assert got.strides == want.strides, format_arch(genotype)


class TestLayerCalls:
    # the benchmark's traced run times each layer kind by rebinding these
    # names in naswot.network, so a forward pass must call every conv,
    # batch-norm and pool through them: the stem conv + BN, three convs and
    # two BNs per downsample block plus its shortcut pool, per cell one conv
    # and one BN per (source, kernel size) group and one pool per pool
    # edge, and the final BN
    @pytest.mark.parametrize("arch", FUSED.values(), ids=FUSED.keys())
    def test_forward_calls_layers_once_per_group(self, arch, monkeypatch):
        calls = Counter()

        def counting(name):
            fn = getattr(naswot.network, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        for name in ("conv2d", "batchnorm_batchstats", "avg_pool2d"):
            monkeypatch.setattr(naswot.network, name, counting(name))
        config = NetworkConfig.desk(cells_per_stage=2)
        genotype = parse_arch(arch)
        forward_collect_codes(build_network(genotype, config), normal_batch(4, config.input_shape, 0))
        groups = len({(EDGES[k][0], op) for k, op in enumerate(genotype.ops)
                      if op in (OpKind.CONV_3X3, OpKind.CONV_1X1)})
        cells = 3 * config.cells_per_stage
        assert calls == {"conv2d": 1 + 3 * 2 + cells * groups,
                         "batchnorm_batchstats": 1 + 2 * 2 + cells * groups + 1,
                         "avg_pool2d": 2 + cells * genotype.ops.count(OpKind.AVGPOOL_3X3)}


def same_bits(got, want) -> bool:
    return got.dtype == want.dtype and got.shape == want.shape and np.array_equal(got.view(np.uint32),
                                                                                  want.view(np.uint32))


class TestWeightStream:
    # build_network slices one float32 stream where it once drew each
    # kernel on its own.  Consecutive draws are one long draw, bit for
    # bit, so both the genotype's own stream and the all-3x3 genotype's,
    # which a scorer keeps and of which every stream is a prefix, give
    # the per-kernel draws' kernels.  One-channel cells keep their convs
    # unstacked; two cells a stage put a cell's draws between others.
    @pytest.mark.parametrize("config", [NetworkConfig(), NetworkConfig.desk(), NetworkConfig.desk(stem_channels=1),
                                        NetworkConfig.desk(cells_per_stage=2, init_seed=7)],
                             ids=["full", "desk", "desk-stem1", "desk-2cells"])
    def test_kernels_bit_identical_to_per_kernel_draws(self, config):
        longest = naswot.network._weight_stream(Genotype.uniform(OpKind.CONV_3X3), config)
        gen = as_generator(31)
        genotypes = [parse_arch(arch) for arch in DESK_GOLDEN_ARCHS] + [sample_uniform(gen) for _ in range(6)]
        for genotype in genotypes:
            stem, downsamples, cells = kernels_in_draw_order(genotype, config)
            drawn = [stem, *(k for d in downsamples if d for k in d), *(k for c in cells for k in c.values())]
            assert naswot.network._weight_count(genotype, config) == sum(k.size for k in drawn)
            for net in (build_network(genotype, config), build_network(genotype, config, longest)):
                assert same_bits(net.stem, stem)
                net_cells = [cell for _, stage_cells in net.stages for cell in stage_cells]
                assert len(net_cells) == len(cells)
                for (downsample, _), want in zip(net.stages, downsamples):
                    assert (downsample is None) == (want is None)
                    assert downsample is None or all(map(same_bits, downsample, want))
                for groups, want in zip(net_cells, cells):
                    assert sorted(k for _, _, edges in groups for k in edges) == sorted(want)
                    for _, stacked, edges in groups:
                        assert same_bits(stacked, np.concatenate([want[k] for k in edges])), format_arch(genotype)

    def test_short_stream_raises(self):
        config = NetworkConfig.desk()
        genotype = Genotype.uniform(OpKind.CONV_1X1)
        stream = naswot.network._weight_stream(genotype, config)
        with pytest.raises(ValueError):
            build_network(Genotype.uniform(OpKind.CONV_3X3), config, stream)


class TestKeptStem:
    # a scorer runs the stem once and hands its output to every forward
    @pytest.mark.parametrize("config", [NetworkConfig.desk(), NetworkConfig.desk(stem_channels=1)],
                             ids=["desk", "desk-stem1"])
    def test_codes_bit_identical_with_kept_stem(self, config):
        batch = random_normal_batch((16, *config.input_shape), 3)
        stem = build_network(Genotype.uniform(OpKind.CONV_3X3), config).stem_output(batch)
        stem.flags.writeable = False
        for arch in DESK_GOLDEN_ARCHS:
            net = build_network(parse_arch(arch), config)
            want = forward_collect_codes(net, batch)
            got = forward_collect_codes(net, batch, stem)
            assert np.array_equal(got.words, want.words) and got.n_units == want.n_units, arch

    def test_kept_stem_skips_the_stem_layers(self, monkeypatch):
        calls = Counter()
        for name in ("conv2d", "batchnorm_batchstats"):
            fn = getattr(naswot.network, name)
            monkeypatch.setattr(naswot.network, name,
                                lambda *a, _fn=fn, _name=name, **k: calls.update([_name]) or _fn(*a, **k))
        config = NetworkConfig.desk()
        net = build_network(parse_arch(EXAMPLE), config)
        batch = normal_batch(4, config.input_shape, 0)
        stem = net.stem_output(batch)
        calls.clear()
        forward_collect_codes(net, batch)
        fresh = Counter(calls)
        calls.clear()
        forward_collect_codes(net, batch, stem)
        assert fresh - calls == Counter({"conv2d": 1, "batchnorm_batchstats": 1})


class TestUnitCounts:
    def test_example_genotype_matches_hand_table(self):
        # the example genotype has two conv edges (one 3x3, one 1x1)
        net = build_network(parse_arch(EXAMPLE), NetworkConfig.desk())
        assert count_relu_units(net) == sum(desk_unit_table(conv_edges=2)) == 3072

    def test_all_conv_genotype_matches_hand_table(self):
        net = build_network(Genotype.uniform(OpKind.CONV_3X3), NetworkConfig.desk())
        assert count_relu_units(net) == sum(desk_unit_table(conv_edges=6))

    def test_counts_agree_with_forward_pass(self):
        # square desk inputs, the full preset, and a non-square input;
        # each config also gets the all-conv genotype (most ReLU sites)
        gen = as_generator(7)
        all_conv = Genotype.uniform(OpKind.CONV_3X3)
        for cfg, n, draws in [
            (NetworkConfig.desk(), 4, 20),
            (NetworkConfig(), 2, 3),
            (NetworkConfig.desk(input_shape=(3, 12, 16)), 2, 5),
        ]:
            batch = normal_batch(n, cfg.input_shape, 8)
            for genotype in [sample_uniform(gen) for _ in range(draws)] + [all_conv]:
                net = build_network(genotype, cfg)
                assert count_relu_units(net) == forward_collect_codes(net, batch).n_units

    def test_doubling_stem_channels_doubles_units(self):
        gen = as_generator(8)
        for _ in range(5):
            genotype = sample_uniform(gen)
            small = build_network(genotype, NetworkConfig.desk(stem_channels=8))
            wide = build_network(genotype, NetworkConfig.desk(stem_channels=16))
            assert count_relu_units(wide) == 2 * count_relu_units(small)

    def test_monotone_in_cells_per_stage(self):
        genotype = parse_arch(EXAMPLE)
        counts = [
            count_relu_units(build_network(genotype, NetworkConfig.desk(cells_per_stage=c)))
            for c in (1, 2, 3)
        ]
        assert counts[0] < counts[1] < counts[2]


class TestInvariances:
    def test_codes_bit_identical_under_power_of_two_scaling(self):
        # exact when the normalization epsilon vanishes: doubling the
        # input doubles batch mean and centered values, quadruples the
        # variance, and sqrt(4v) = 2 sqrt(v) exactly in binary floats
        gen = as_generator(12)
        cfg = NetworkConfig.desk(bn_epsilon=0.0)
        batch = normal_batch(16, cfg.input_shape, 13)
        for _ in range(10):
            net = build_network(sample_uniform(gen), cfg)
            base = forward_collect_codes(net, batch)
            scaled = forward_collect_codes(net, batch * np.float32(2.0))
            assert np.array_equal(base.words, scaled.words)

    def test_permuting_batch_permutes_code_rows(self):
        cfg = NetworkConfig.desk()
        net = build_network(parse_arch(EXAMPLE), cfg)
        batch = normal_batch(16, cfg.input_shape, 14)
        perm = np.random.default_rng(15).permutation(16)
        base = unpack_codes(forward_collect_codes(net, batch))
        permuted = unpack_codes(forward_collect_codes(net, batch[perm]))
        assert np.array_equal(permuted, base[perm])
