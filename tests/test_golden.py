import json
import math

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
