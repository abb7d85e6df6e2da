"""The seeded-snapshot tool, ``tools/snapshot.py``: it must see a planted change."""

import copy
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_tool():
    spec = importlib.util.spec_from_file_location("snapshot_tool", ROOT / "tools" / "snapshot.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_snapshot_compare_reports_a_planted_change():
    tool = load_tool()
    cell = tool.table1_cell(("estimated", 2.0, 90.0), tool.ACCEPTANCE_SEED, reps=2)
    assert [len(dec["pairs"]) for dec in cell["decompositions"]] == [1, 1]
    a = {"table1": [cell]}
    lines, same = tool.compare(a, copy.deepcopy(a))
    assert same and len(lines) == 2

    b = copy.deepcopy(a)
    b["table1"][0]["decompositions"][1]["pairs"][0]["epsilon1_hat"] *= 1.0 + 1e-9
    lines, same = tool.compare(a, b)
    assert not same
    assert lines == ["epsilon1_hat: 1 of 2 identical, max relative difference 1e-09",
                     "per-replicate epsilon: 200 of 200 identical, max relative difference 0"]
