import numpy as np
import pytest

from naswot.benchdata import (
    CIFAR10_MEAN,
    CIFAR10_STD,
    BenchmarkRecord,
    DuplicateKeyError,
    EvaluatorMiss,
    EvaluatorTable,
    MissingFile,
    ParseError,
    TruncatedRecord,
    load_benchmark_csv,
    load_cifar10_batch,
    random_normal_batch,
)
from naswot.searchspace import Genotype, OpKind, parse_arch

HEADER = "arch,dataset,val_acc,test_acc"
A1 = str(Genotype.uniform(OpKind.IDENTITY))
A2 = str(Genotype.uniform(OpKind.CONV_3X3))
A3 = str(Genotype.uniform(OpKind.AVGPOOL_3X3))


def write_csv(tmp_path, rows, name="bench.csv"):
    path = tmp_path / name
    path.write_text("\n".join([HEADER, *rows]) + "\n", encoding="utf-8")
    return path


class TestLoadBenchmarkCsv:
    def test_header_only_gives_empty_table(self, tmp_path):
        table = load_benchmark_csv(write_csv(tmp_path, []))
        assert len(table) == 0

    def test_three_row_fixture_roundtrips_accuracies(self, tmp_path):
        path = write_csv(tmp_path, [f"{A1},cifar10,61.25,59.5", f"{A2},cifar10,91.5,91.0", f"{A3},cifar10,55.0,"])
        table = load_benchmark_csv(path)
        assert len(table) == 3
        assert table.lookup(A1) == BenchmarkRecord(A1, "cifar10", 61.25, 59.5)
        assert table.lookup(A2).val_acc == 91.5
        assert table.lookup(A3).test_acc is None
        assert table.dataset == "cifar10"

    def test_accuracy_out_of_range_rejected(self, tmp_path):
        with pytest.raises(ParseError):
            load_benchmark_csv(write_csv(tmp_path, [f"{A1},cifar10,101,50"]))
        with pytest.raises(ParseError):
            load_benchmark_csv(write_csv(tmp_path, [f"{A1},cifar10,-0.5,50"]))

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("arch,val_acc,test_acc\n", encoding="utf-8")
        with pytest.raises(ParseError):
            load_benchmark_csv(path)

    def test_wrong_field_count_rejected(self, tmp_path):
        with pytest.raises(ParseError):
            load_benchmark_csv(write_csv(tmp_path, [f"{A1},cifar10,50"]))

    def test_unparseable_arch_rejected(self, tmp_path):
        with pytest.raises(ParseError):
            load_benchmark_csv(write_csv(tmp_path, ["|wat~0|,cifar10,50,50"]))

    def test_duplicate_arch_rejected(self, tmp_path):
        rows = [f"{A1},cifar10,50,50", f"{A1},cifar10,51,51"]
        with pytest.raises(DuplicateKeyError):
            load_benchmark_csv(write_csv(tmp_path, rows))

    def test_dataset_filter_selects_one_dataset(self, tmp_path):
        rows = [f"{A1},cifar10,50,50", f"{A1},cifar100,25,25", f"{A2},cifar100,30,30"]
        table = load_benchmark_csv(write_csv(tmp_path, rows), dataset="cifar100")
        assert len(table) == 2
        assert table.dataset == "cifar100"
        assert table.lookup(A1).val_acc == 25

    def test_mixed_datasets_without_filter_rejected(self, tmp_path):
        rows = [f"{A1},cifar10,50,50", f"{A2},cifar100,25,25"]
        with pytest.raises(ParseError):
            load_benchmark_csv(write_csv(tmp_path, rows))

    def test_unknown_dataset_tag_rejected(self, tmp_path):
        with pytest.raises(ParseError):
            load_benchmark_csv(write_csv(tmp_path, [f"{A1},svhn,50,50"]))

    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingFile):
            load_benchmark_csv(tmp_path / "absent.csv")

    def test_loaded_table_holds_the_written_records(self, tmp_path):
        # repr floats load back exactly, and an empty test_acc loads as None
        records = {
            A1: BenchmarkRecord(A1, "cifar10", 61.25, 0.1 + 0.2),
            A2: BenchmarkRecord(A2, "cifar10", 91.5, None),
        }
        path = write_csv(tmp_path, [f"{A1},cifar10,61.25,{0.1 + 0.2!r}", f"{A2},cifar10,91.5,"])
        assert load_benchmark_csv(path) == EvaluatorTable(records=records, dataset="cifar10")


class TestEvaluator:
    def make_table(self):
        return EvaluatorTable(
            records={A1: BenchmarkRecord(A1, "cifar10", 61.0, 60.0),
                     A2: BenchmarkRecord(A2, "cifar10", 91.0, None)},
            dataset="cifar10",
        )

    def test_lookup_by_genotype_or_string(self):
        table = self.make_table()
        assert table.lookup(parse_arch(A1)).val_acc == 61.0
        assert table.lookup(A1).val_acc == 61.0

    def test_missing_arch_raises(self):
        with pytest.raises(EvaluatorMiss):
            self.make_table().lookup(A3)

    def test_evaluator_returns_requested_metric(self):
        table = self.make_table()
        assert table.evaluator("val_acc")(parse_arch(A2)) == 91.0
        assert table.evaluator("test_acc")(parse_arch(A1)) == 60.0

    def test_evaluator_miss_on_absent_metric_value(self):
        with pytest.raises(EvaluatorMiss):
            self.make_table().evaluator("test_acc")(parse_arch(A2))

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError):
            self.make_table().evaluator("flops")

    def test_archs_sorted(self):
        assert self.make_table().archs() == sorted([A1, A2])


def write_cifar_file(path, n_records, seed=0):
    rng = np.random.default_rng(seed)
    raw = rng.integers(0, 256, size=(n_records, 3073), dtype=np.uint8)
    raw[:, 0] = np.arange(n_records) % 10  # label byte
    path.write_bytes(raw.tobytes())
    return raw


class TestCifarLoader:
    def test_shape_dtype_and_determinism(self, tmp_path):
        write_cifar_file(tmp_path / "batch_1.bin", 50)
        a = load_cifar10_batch(tmp_path, 8, 3)
        b = load_cifar10_batch(tmp_path, 8, 3)
        assert a.shape == (8, 3, 32, 32)
        assert a.dtype == np.float32
        assert np.array_equal(a, b)
        assert not np.array_equal(a, load_cifar10_batch(tmp_path, 8, 4))

    def test_truncated_file_rejected(self, tmp_path):
        file = tmp_path / "batch_1.bin"
        write_cifar_file(file, 10)
        file.write_bytes(file.read_bytes() + b"\x00")
        with pytest.raises(TruncatedRecord):
            load_cifar10_batch(tmp_path, 4, 0)
        file.write_bytes(file.read_bytes()[:-2])
        with pytest.raises(TruncatedRecord):
            load_cifar10_batch(tmp_path, 4, 0)

    def test_exact_multiple_accepted(self, tmp_path):
        file = tmp_path / "b.bin"
        write_cifar_file(file, 10)
        assert load_cifar10_batch(file, 10, 0).shape[0] == 10

    def test_standardization_matches_pinned_constants(self, tmp_path):
        file = tmp_path / "b.bin"
        raw = np.zeros((4, 3073), dtype=np.uint8)
        raw[:, 1:] = 255  # all pixels at full scale
        file.write_bytes(raw.tobytes())
        batch = load_cifar10_batch(file, 2, 0)
        for c in range(3):
            expected = (np.float32(1.0) - np.float32(CIFAR10_MEAN[c])) / np.float32(CIFAR10_STD[c])
            np.testing.assert_allclose(batch[:, c], expected, rtol=1e-6)

    def test_values_within_standardized_pixel_range(self, tmp_path):
        write_cifar_file(tmp_path / "b.bin", 64, seed=5)
        batch = load_cifar10_batch(tmp_path, 32, 1)
        for c in range(3):
            low = (0.0 - CIFAR10_MEAN[c]) / CIFAR10_STD[c]
            high = (1.0 - CIFAR10_MEAN[c]) / CIFAR10_STD[c]
            assert batch[:, c].min() >= low - 1e-5
            assert batch[:, c].max() <= high + 1e-5

    def test_channel_means_reasonable_for_uniform_pixels(self, tmp_path):
        # uniform bytes average near the pinned channel means, so the
        # standardized sample mean must sit well inside (-0.5, 0.5)
        write_cifar_file(tmp_path / "b.bin", 1200, seed=7)
        batch = load_cifar10_batch(tmp_path, 1024, 2)
        means = batch.mean(axis=(0, 2, 3))
        assert np.all(np.abs(means) < 0.5)

    def test_sampling_without_replacement_covers_all_records(self, tmp_path):
        file = tmp_path / "b.bin"
        raw = np.zeros((16, 3073), dtype=np.uint8)
        raw[:, 1] = np.arange(16) * 16  # unique marker pixel per record
        file.write_bytes(raw.tobytes())
        batch = load_cifar10_batch(file, 16, 0)
        markers = batch[:, 0, 0, 0]
        assert len(np.unique(markers)) == 16

    def test_batch_larger_than_file_rejected(self, tmp_path):
        write_cifar_file(tmp_path / "b.bin", 4)
        with pytest.raises(ValueError):
            load_cifar10_batch(tmp_path, 5, 0)

    def test_missing_path_and_empty_dir(self, tmp_path):
        with pytest.raises(MissingFile):
            load_cifar10_batch(tmp_path / "nope", 4, 0)
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(MissingFile):
            load_cifar10_batch(empty, 4, 0)

    def test_multiple_files_concatenate_in_sorted_order(self, tmp_path):
        write_cifar_file(tmp_path / "batch_2.bin", 8, seed=2)
        write_cifar_file(tmp_path / "batch_1.bin", 8, seed=1)
        a = load_cifar10_batch(tmp_path, 16, 9)
        b = load_cifar10_batch(tmp_path, 16, 9)
        assert np.array_equal(a, b)


class TestRandomNormalBatch:
    def test_seeded_and_bit_identical(self):
        a = random_normal_batch((4, 3, 8, 8), 7)
        b = random_normal_batch((4, 3, 8, 8), 7)
        assert a.dtype == np.float32
        assert np.array_equal(a, b)
        assert not np.array_equal(a, random_normal_batch((4, 3, 8, 8), 8))

    def test_large_sample_moments(self):
        n = 1_000_000
        sample = random_normal_batch((n, 1, 1, 1), 0).ravel().astype(np.float64)
        assert abs(sample.mean()) < 4 / np.sqrt(n)
        assert abs(sample.std() - 1.0) < 4 / np.sqrt(2 * n)

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            random_normal_batch((0, 3, 8, 8), 0)
