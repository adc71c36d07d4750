import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # make oracles importable

from naswot import NetworkConfig, enumerate_all
from oracles import synthetic_accuracy


@pytest.fixture(scope="session")
def desk_config() -> NetworkConfig:
    return NetworkConfig.desk()


@pytest.fixture(scope="session")
def full_bench_csv(tmp_path_factory) -> Path:
    """Accuracy table covering the whole space (15,625 rows)."""
    path = tmp_path_factory.mktemp("bench") / "full.csv"
    lines = ["arch,dataset,val_acc,test_acc"]
    for genotype in enumerate_all():
        acc = synthetic_accuracy(genotype)
        lines.append(f"{genotype},cifar10,{acc!r},{max(acc - 0.25, 0.0)!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path
