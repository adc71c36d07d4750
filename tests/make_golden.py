"""Write the golden score table checked by test_golden.py.

    PYTHONPATH=src python tests/make_golden.py

Each row is (arch, status, score) for one genotype scored by
``score_network`` with init seed 0 on the seed-0 standard-normal batch.
Regenerate only when a change is meant to move scores, and note in
CHANGES.md why the table changed.
"""

import json
from pathlib import Path

from naswot.benchdata import random_normal_batch
from naswot.network import NetworkConfig
from naswot.scoring import score_network
from naswot.searchspace import Genotype, OpKind, parse_arch

GOLDEN_PATH = Path(__file__).with_name("golden_scores.json")

MIXED = [
    "|nor_conv_3x3~0|+|none~0|skip_connect~1|+|avg_pool_3x3~0|nor_conv_1x1~1|skip_connect~2|",
    "|avg_pool_3x3~0|+|nor_conv_3x3~0|avg_pool_3x3~1|+|skip_connect~0|none~1|nor_conv_3x3~2|",
    "|nor_conv_1x1~0|+|avg_pool_3x3~0|nor_conv_3x3~1|+|none~0|skip_connect~1|avg_pool_3x3~2|",
    "|skip_connect~0|+|nor_conv_1x1~0|none~1|+|nor_conv_3x3~0|avg_pool_3x3~1|nor_conv_1x1~2|",
    "|avg_pool_3x3~0|+|avg_pool_3x3~0|avg_pool_3x3~1|+|nor_conv_3x3~0|avg_pool_3x3~1|avg_pool_3x3~2|",
    "|nor_conv_3x3~0|+|none~0|none~1|+|none~0|none~1|none~2|",
    "|none~0|+|none~0|none~1|+|skip_connect~0|none~1|none~2|",
]

# (table key, config, batch size, relative score tolerance, archs)
TABLES = [
    ("desk", NetworkConfig.desk(), 32, 1e-9, [str(Genotype.uniform(op)) for op in OpKind] + MIXED),
    ("full", NetworkConfig(), 128, 1e-8, MIXED[:2]),
]


def score_rows(config: NetworkConfig, batch_size: int, archs) -> list:
    batch = random_normal_batch((batch_size, *config.input_shape), 0)
    rows = []
    for arch in archs:
        score = score_network(parse_arch(arch), config, batch)
        rows.append({"arch": arch, "status": score.status.name,
                     "score": score.value if score.is_valid else None})
    return rows


def main() -> None:
    golden = {
        key: {"batch_size": batch_size, "rel_tol": rel_tol, "rows": score_rows(config, batch_size, archs)}
        for key, config, batch_size, rel_tol, archs in TABLES
    }
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
