import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from make_golden import GOLDEN_PATH, TABLES, score_rows

GOLDEN = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize("key,config,batch_size,rel_tol,archs", TABLES, ids=[t[0] for t in TABLES])
def test_scores_match_golden_table(key, config, batch_size, rel_tol, archs):
    table = GOLDEN[key]
    assert (table["batch_size"], table["rel_tol"]) == (batch_size, rel_tol)
    assert [row["arch"] for row in table["rows"]] == archs
    for got, want in zip(score_rows(config, batch_size, archs), table["rows"]):
        assert got["status"] == want["status"], got["arch"]
        if want["score"] is None:
            assert got["score"] is None, got["arch"]
        else:
            assert math.isclose(got["score"], want["score"], rel_tol=rel_tol), got["arch"]


@pytest.mark.parametrize("workload", ["desk-search", "desk-wide-batch"])
def test_desk_search_reference_table_holds(workload):
    # every stored row of a desk workload of the benchmark: status exact
    # and the score within the workload's relative bound; the table is
    # only read
    script = Path(__file__).with_name("check_references.py")
    done = subprocess.run([sys.executable, str(script), "--workload", workload],
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    assert " 0 missed" in done.stdout.splitlines()[-1]


# Scores every desk-wide-batch reference row through ``make_scorer`` in
# a child whose BLAS runs two threads; the table is only read.
BLAS_THREADS_CHILD = """
import ctypes, json, sys
sys.path.insert(0, sys.argv[1])
import numpy as np
from naswot import make_scorer, parse_arch, random_normal_batch
from workloads import DEFAULT_SEED, WORKLOADS, load_reference

blas = ctypes.CDLL(np.linalg._umath_linalg.__file__)
if not all(hasattr(blas, name) for name in ("scipy_dpotrf_64_", "scipy_openblas_get_num_threads64_")):
    print(json.dumps({"skip": "numpy's BLAS lacks scipy_dpotrf_64_ or its thread count"}))
    sys.exit()
workload = WORKLOADS["desk-wide-batch"]
rows = load_reference(workload)["rows"]
scorer = make_scorer(workload.config(), random_normal_batch(workload.input_shape(), DEFAULT_SEED))
equal = 0
for arch, row in rows.items():
    score = scorer(parse_arch(arch))
    equal += [score.status.value, score.value if score.is_valid else None] == row
print(json.dumps({"threads": blas.scipy_openblas_get_num_threads64_(), "rows": len(rows), "equal": equal}))
"""


def test_wide_batch_scores_do_not_depend_on_the_blas_thread_count():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2",
               PYTHONPATH=os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", BLAS_THREADS_CHILD, str(root / "perfbench")], env=env,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    got = json.loads(done.stdout.splitlines()[-1])
    if "skip" in got:
        pytest.skip(got["skip"])
    if got["threads"] < 2:
        pytest.skip("BLAS ran one thread: one CPU")
    assert got["equal"] == got["rows"] == 40
