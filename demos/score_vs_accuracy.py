"""
Does the untrained score rank like trained accuracy?
====================================================

The score is only useful if architectures that score high untrained also
train to high accuracy.  Kendall's tau over (score, accuracy) pairs
measures exactly that rank agreement, ties handled.  Here the accuracy
column is synthetic (so the demo needs no downloads); point the loader
at a real benchmark export and nothing else changes.
"""

import pathlib
import tempfile

import numpy as np

from naswot import (
    NetworkConfig,
    OpKind,
    correlate_space,
    enumerate_all,
    load_benchmark_csv,
    make_scorer,
    random_normal_batch,
)

# write a benchmark table covering the whole space; real exports use the
# same four columns
rows = ["arch,dataset,val_acc,test_acc"]
for genotype in enumerate_all():
    ops = genotype.ops
    acc = (10.0 * sum(op is OpKind.CONV_3X3 for op in ops)
           + 2.0 * sum(op is OpKind.CONV_1X1 for op in ops)
           + 1.0 * sum(op is OpKind.IDENTITY for op in ops))
    rows.append(f"{genotype},cifar10,{acc},{acc}")

table_path = pathlib.Path(tempfile.mkdtemp()) / "bench.csv"
table_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
table = load_benchmark_csv(table_path, dataset="cifar10")
print(f"table covers {len(table)} architectures")

config = NetworkConfig.desk()
batch = random_normal_batch((16, 3, 8, 8), seed=0)
report = correlate_space(
    table,
    make_scorer(config, batch),
    sample_n=150,
    rng=np.random.default_rng(7),
)

print(f"kendall tau over {report.n} sampled architectures: {report.tau:.3f}")
print(f"rank-deficient scores excluded from tau: {report.excluded_count}")

# eyeball a few (score, accuracy) pairs, best scores first
print("\n  score    accuracy  arch")
for row in sorted(report.rows, key=lambda r: r.score, reverse=True)[:5]:
    print(f"{row.score.value:8.3f}  {row.accuracy:8.2f}  {row.arch}")
