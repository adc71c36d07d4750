"""Accuracy tables and input batches.

The accuracy table is the offline stand-in for training: a CSV export
mapping architecture strings to trained accuracies, loaded once and
queried by the evolution drivers.  Input batches come either from
CIFAR-10 binary files or from a seeded standard-normal generator.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Optional, Union

import numpy as np

from .searchspace import Genotype, MalformedArchString, as_generator, parse_arch

__all__ = [
    "BenchmarkRecord",
    "EvaluatorTable",
    "ParseError",
    "DuplicateKeyError",
    "MissingFile",
    "TruncatedRecord",
    "EvaluatorMiss",
    "BENCH_CSV_HEADER",
    "DATASET_TAGS",
    "CIFAR10_MEAN",
    "CIFAR10_STD",
    "load_benchmark_csv",
    "load_cifar10_batch",
    "random_normal_batch",
]

BENCH_CSV_HEADER = ("arch", "dataset", "val_acc", "test_acc")
DATASET_TAGS = ("cifar10", "cifar100", "imagenet16-120")

# standard CIFAR-10 per-channel pixel statistics on the [0, 1] scale
CIFAR10_MEAN = (0.4914, 0.4822, 0.4465)
CIFAR10_STD = (0.2470, 0.2435, 0.2616)

_RECORD_BYTES = 3073  # 1 label byte + 3 * 32 * 32 pixel bytes


class ParseError(ValueError):
    """A benchmark CSV row or header is malformed."""


class DuplicateKeyError(ParseError):
    """Two rows share the same architecture key."""


class MissingFile(FileNotFoundError):
    """A required input file or directory does not exist."""


class TruncatedRecord(ValueError):
    """A CIFAR-10 binary file is not a whole number of records."""


class EvaluatorMiss(KeyError):
    """An architecture has no row in the accuracy table."""


@dataclass(frozen=True)
class BenchmarkRecord:
    arch: str
    dataset: str
    val_acc: float
    test_acc: Optional[float] = None


@dataclass(frozen=True)
class EvaluatorTable:
    """Immutable arch -> record mapping for one dataset."""

    records: dict[str, BenchmarkRecord]
    dataset: str

    def __len__(self) -> int:
        return len(self.records)

    def archs(self) -> list[str]:
        """Architecture keys in sorted order (stable sampling domain)."""
        return sorted(self.records)

    def lookup(self, arch: Union[str, Genotype]) -> BenchmarkRecord:
        key = str(arch)
        try:
            return self.records[key]
        except KeyError:
            raise EvaluatorMiss(f"no table row for arch {key!r}") from None

    def evaluator(self, metric: str = "val_acc") -> Callable[[Genotype], float]:
        """An accuracy lookup usable as a search evaluator.

        ``metric`` is ``val_acc`` or ``test_acc``; the callable raises
        EvaluatorMiss for architectures absent from the table (or with
        no recorded value for the metric).
        """
        if metric not in ("val_acc", "test_acc"):
            raise ValueError(f"metric must be val_acc or test_acc, got {metric!r}")

        def evaluate(genotype: Genotype) -> float:
            record = self.lookup(genotype)
            value = getattr(record, metric)
            if value is None:
                raise EvaluatorMiss(f"arch {record.arch!r} has no {metric}")
            return value

        return evaluate


def _parse_acc(token: str, *, line: int, column: str, optional: bool) -> Optional[float]:
    if token == "":
        if optional:
            return None
        raise ParseError(f"line {line}: empty {column}")
    try:
        value = float(token)
    except ValueError:
        raise ParseError(f"line {line}: {column} {token!r} is not a number") from None
    if not 0.0 <= value <= 100.0:
        raise ParseError(f"line {line}: {column} {value} outside [0, 100]")
    return value


def load_benchmark_csv(path: Union[str, Path], dataset: Optional[str] = None) -> EvaluatorTable:
    """Load an accuracy table from ``arch,dataset,val_acc,test_acc`` CSV.

    With ``dataset`` given, rows for other datasets are skipped;
    without it the file must contain a single dataset.  Architecture
    strings must parse, accuracies must lie in [0, 100], and arch keys
    must be unique within the loaded dataset.
    """
    path = Path(path)
    if not path.is_file():
        raise MissingFile(f"benchmark CSV not found: {path}")
    if dataset is not None:
        dataset = dataset.lower()
        if dataset not in DATASET_TAGS:
            raise ValueError(f"unknown dataset {dataset!r}; expected one of {DATASET_TAGS}")

    records: dict[str, BenchmarkRecord] = {}
    seen_tags: set[str] = set()
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or tuple(header) != BENCH_CSV_HEADER:
            raise ParseError(f"bad header {header!r}; expected {','.join(BENCH_CSV_HEADER)}")
        for line, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 4:
                raise ParseError(f"line {line}: expected 4 fields, got {len(row)}")
            arch, tag, val_token, test_token = row
            tag = tag.lower()
            if tag not in DATASET_TAGS:
                raise ParseError(f"line {line}: unknown dataset {tag!r}")
            if dataset is not None and tag != dataset:
                continue
            try:
                parse_arch(arch)
            except MalformedArchString as exc:
                raise ParseError(f"line {line}: bad arch: {exc}") from None
            val_acc = _parse_acc(val_token, line=line, column="val_acc", optional=False)
            test_acc = _parse_acc(test_token, line=line, column="test_acc", optional=True)
            if arch in records:
                raise DuplicateKeyError(f"line {line}: duplicate arch {arch!r}")
            records[arch] = BenchmarkRecord(arch=arch, dataset=tag, val_acc=val_acc, test_acc=test_acc)
            seen_tags.add(tag)

    if dataset is None:
        if len(seen_tags) > 1:
            raise ParseError(f"file mixes datasets {sorted(seen_tags)}; pass dataset= to select one")
        dataset = next(iter(seen_tags), "cifar10")
    return EvaluatorTable(records=records, dataset=dataset)


def _cifar_files(path: Path) -> list[Path]:
    if path.is_file():
        return [path]
    if path.is_dir():
        files = sorted(path.glob("*.bin"))
        if not files:
            raise MissingFile(f"no *.bin batch files under {path}")
        return files
    raise MissingFile(f"CIFAR-10 path not found: {path}")


def load_cifar10_batch(path: Union[str, Path], batch_size: int, rng) -> np.ndarray:
    """Sample a standardized batch from CIFAR-10 binary files.

    ``path`` is one .bin file or a directory of them; each record is
    3,073 bytes (label byte, then 1,024 bytes per R/G/B plane).
    Records are sampled uniformly without replacement across all
    files, scaled to [0, 1], and standardized per channel with the
    pinned CIFAR-10 statistics.  Returns float32 (batch_size, 3, 32, 32).
    """
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    chunks = []
    for file in _cifar_files(Path(path)):
        raw = np.fromfile(file, dtype=np.uint8)
        if raw.size == 0 or raw.size % _RECORD_BYTES:
            raise TruncatedRecord(
                f"{file}: {raw.size} bytes is not a positive multiple of {_RECORD_BYTES}"
            )
        chunks.append(raw.reshape(-1, _RECORD_BYTES))
    records = np.concatenate(chunks) if len(chunks) > 1 else chunks[0]
    if batch_size > records.shape[0]:
        raise ValueError(f"batch_size {batch_size} exceeds {records.shape[0]} records")

    gen = as_generator(rng)
    picks = gen.choice(records.shape[0], size=batch_size, replace=False)
    pixels = records[picks, 1:].reshape(batch_size, 3, 32, 32).astype(np.float32) / np.float32(255)
    mean = np.asarray(CIFAR10_MEAN, dtype=np.float32).reshape(1, 3, 1, 1)
    std = np.asarray(CIFAR10_STD, dtype=np.float32).reshape(1, 3, 1, 1)
    return (pixels - mean) / std


def random_normal_batch(shape: Iterable[int], seed) -> np.ndarray:
    """I.i.d. standard-normal float32 tensor from the seeded stream."""
    shape = tuple(int(s) for s in shape)
    if any(s < 1 for s in shape):
        raise ValueError(f"bad shape {shape}")
    return as_generator(seed).standard_normal(shape, dtype=np.float32)
