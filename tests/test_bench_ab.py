"""`tools/bench_ab.py` runs one `pencil` pair of the repository against itself."""

import importlib.util
import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "bench_ab.py")


def test_bench_ab_tool_runs_one_pair(tmp_path, capsys):
    """Both sides run and are correct; one pair gives runs, no summary.

    The summary needs two pairs, so it is checked on fixed figures:
    quartiles of the parent, wins by the metric's `better`, and the bound.
    """
    spec = importlib.util.spec_from_file_location("bench_ab", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    out = tmp_path / "bench.json"
    assert tool.main([ROOT, ROOT, "--pairs", "1", "--seconds", "0.2",
                      "--seed-base", "10", "--workload", "pencil",
                      "--out", str(out)]) == 0
    assert capsys.readouterr().out == "pencil: no summary, fewer than two pairs\n"
    result = json.loads(out.read_text(encoding="utf-8"))
    assert set(result) == {"machine", "method", "workloads"}
    assert result["method"]["seeds"] == [11]
    entry = result["workloads"]["pencil"]
    assert entry["all_correct"] and "summary" not in entry
    runs = entry["runs"]
    assert [(r["side"], r["first"], r["seed"]) for r in runs] == \
        [("parent", "parent", 11), ("change", "parent", 11)]
    assert all(r["exit"] == 0 and r["attempted"] > 0 and r["items_per_s"] > 0
               for r in runs)

    higher = {"better": "higher", "bound": 0.25}
    s = tool.summarize([10, 12, 11, 13], [12, 11, 14, 15], higher)
    assert (s["parent_median"], s["change_median"]) == (11.5, 13.0)
    assert s["parent_quartiles"] == [10.25, 11.5, 12.75]
    assert s["parent_iqr"] == 2.5
    assert s["pairs_change_better"] == 3
    assert s["within_bound"]
    lower = {"better": "lower", "bound": 0.1}
    s = tool.summarize([10, 10, 10], [12, 9, 12], lower)
    assert s["pairs_change_better"] == 1
    assert s["change_worse_by"] == 0.2 and not s["within_bound"]
