"""`tools/pencil_sizes.py` runs, with its cross-checks, on two small cases."""

import importlib.util
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "pencil_sizes.py")


def test_pencil_sizes_tool_runs_its_checks(monkeypatch, capsys):
    """One closed-form tuple (e = 1) and one DP tuple (e = 3) at n = 3.

    At REPEAT = 1 every way runs once: the reference pencil, `pencil_poly`
    on kept and fresh members, both DP layouts (timed only on the DP
    tuple) and both squarefree ways.  `main` exits with a message if any
    of them disagree: the pencils, packed against `dict_dp`, the rescaled
    packed DP against `pencil_poly`, or the squarefree parts.
    """
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool prepends to it
    spec = importlib.util.spec_from_file_location("pencil_sizes", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    monkeypatch.setattr(tool, "REPEAT", 1)
    monkeypatch.setattr(tool, "CASES", {
        "closed": (2, [(3, (1, 2, 1), 31)], 1),
        "dp": (2, [(3, (2, 2, 2), 32)], 1),
    })
    assert tool.main([]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [row["case"] for row in rows] == ["closed", "dp"]
    assert [row["path"] for row in rows] == [["closed form"], ["packed"]]
    assert "packed" not in rows[0] and "packed" in rows[1]
    for row in rows:
        assert {"reference", "per_projection", "fresh", "sf",
                "sf_gcd_loop"} <= set(row)
