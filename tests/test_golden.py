import json
import math
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
