"""Run the benchmark on two source trees in alternating pairs and compare.

    python3 tools/bench_ab.py PARENT CHANGE [--pairs N] [--seconds S]
        [--seed-base B] [--workload W ...] [--out FILE]

PARENT and CHANGE are the roots of two jspec source trees, for instance a
`git archive` of the parent commit and a copy of the change.  Each tree
runs the command that CHANGE's BENCHMARK.json declares
(``benchmarks/run.py`` of that tree, from its root) with ``--trace 0``.

Pair i (1 to N) runs every workload once on each side, with seed B + i on
both sides.  The side that runs first alternates from run slot to run
slot, over workloads within a pair and over pairs, so that a drift in the
host's speed falls on both sides alike.  A run counts as correct when it
exits 0 and its last line reports no failed item.

For each workload and end-to-end metric the tool prints the two medians,
the quartiles of the parent's runs (`statistics.quantiles(n=4)`, the
exclusive method) and how many pairs the change won, by the metric's
``better`` in BENCHMARK.json.  With ``--out`` it writes the same figures,
and every run, as the ``machine``, ``method`` and ``workloads`` blocks of a
``BENCH_<n>.json``.  Exit status 0 when every run was correct, 1 if not.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


def load_spec(tree: str) -> dict:
    with open(os.path.join(tree, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def run_once(tree: str, command: list[str], workload: str, seed: int,
             seconds: float) -> dict:
    """One untraced benchmark run in tree: its exit code and last JSON line."""
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True,
                          timeout=10 * seconds + 600)
    record = {"exit": proc.returncode, "attempted": 0, "failed": 0,
              "correct": False}
    lines = proc.stdout.strip().splitlines()
    try:
        final = json.loads(lines[-1])
    except (IndexError, ValueError):
        return record
    record.update(attempted=final["attempted"], failed=final["failed"],
                  correct=proc.returncode == 0 and final["correct"])
    for name, metric in final["metrics"].items():
        record[name] = round(metric["value"], 4)
    return record


def summarize(parent: list[float], change: list[float], metric: dict) -> dict:
    """Medians, quartiles, pair wins and the bound check of one metric."""
    higher = metric["better"] == "higher"
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q = statistics.quantiles(parent, n=4)
    c_q = statistics.quantiles(change, n=4)
    wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
    worse_by = ((p_med - c_med) if higher else (c_med - p_med)) / p_med
    return {
        "parent_median": round(p_med, 4),
        "change_median": round(c_med, 4),
        "ratio_of_medians": round(c_med / p_med, 4),
        "pairs_change_better": wins,
        "parent_quartiles": [round(x, 4) for x in (p_q[0], p_med, p_q[2])],
        "change_quartiles": [round(x, 4) for x in (c_q[0], c_med, c_q[2])],
        "median_pair_difference": round(statistics.median(
            c - p for p, c in zip(parent, change)), 4),
        "parent_iqr": round(p_q[2] - p_q[0], 4),
        "change_worse_by": round(worse_by, 4),
        "within_bound": worse_by <= metric["bound"],
    }


def compare(trees: dict, spec: dict, workloads: list[str], pairs: int,
            seconds: float, seed_base: int) -> dict:
    """Run the pairs and return the workloads block, printing each run."""
    runs = {w: [] for w in workloads}
    slot = 0
    for i in range(1, pairs + 1):
        for w in workloads:
            first = SIDES[slot % 2]
            slot += 1
            order = (first, SIDES[1 - SIDES.index(first)])
            for side in order:
                record = {"pair": i, "seed": seed_base + i, "side": side,
                          "first": first}
                record.update(run_once(trees[side], spec["command"], w,
                                       seed_base + i, seconds))
                runs[w].append(record)
                print(f"pair {i} {w} {side}: exit {record['exit']}, "
                      f"{record['attempted']} items, "
                      f"{record.get('items_per_s', 'no')} items/s",
                      file=sys.stderr, flush=True)
    block = {}
    for w in workloads:
        by_side = {side: sorted((r for r in runs[w] if r["side"] == side),
                                key=lambda r: r["pair"]) for side in SIDES}
        ok = all(r["correct"] for r in runs[w])
        entry = {
            "n_pairs": pairs,
            "all_correct": ok,
            "failed_items": {s: sum(r["failed"] for r in by_side[s])
                             for s in SIDES},
            "attempted_items": {s: sum(r["attempted"] for r in by_side[s])
                                for s in SIDES},
        }
        if ok and pairs >= 2:
            entry["summary"] = {
                m["name"]: summarize([r[m["name"]] for r in by_side["parent"]],
                                     [r[m["name"]] for r in by_side["change"]],
                                     m)
                for m in spec["end_to_end"]}
        entry["runs"] = runs[w]
        block[w] = entry
    return block


def report(block: dict, spec: dict) -> None:
    """One line per workload and metric, and the runs that failed."""
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for w, entry in block.items():
        if "summary" not in entry:
            why = "fewer than two pairs" if entry["all_correct"] \
                else "a run failed"
            print(f"{w}: no summary, {why}")
            continue
        for name, s in entry["summary"].items():
            p_lo, _, p_hi = s["parent_quartiles"]
            print(f"{w} {name}: parent {s['parent_median']:g}, change "
                  f"{s['change_median']:g} {units[name]} "
                  f"(x{s['ratio_of_medians']:g}); parent quartiles "
                  f"{p_lo:g}..{p_hi:g} (spread {s['parent_iqr']:g}); change "
                  f"better in {s['pairs_change_better']} of {entry['n_pairs']}"
                  f" pairs; {'within' if s['within_bound'] else 'PAST'} "
                  "its bound")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="root of the parent's source tree")
    parser.add_argument("change", help="root of the change's source tree")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float,
                        help="seconds per run (default: BENCHMARK.json's "
                             "run_seconds)")
    parser.add_argument("--seed-base", type=int, default=2600)
    parser.add_argument("--workload", action="append", dest="workloads",
                        help="a workload to run (default: all, repeatable)")
    parser.add_argument("--out", help="write the BENCH_<n>.json blocks here")
    args = parser.parse_args(argv)
    spec = load_spec(args.change)
    known = [w["name"] for w in spec["workloads"]]
    workloads = args.workloads or known
    unknown = [w for w in workloads if w not in known]
    if unknown:
        parser.error(f"unknown workloads {unknown}; known: {known}")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    seconds = args.seconds or spec["run_seconds"]
    trees = {"parent": args.parent, "change": args.change}
    block = compare(trees, spec, workloads, args.pairs, seconds,
                    args.seed_base)
    report(block, spec)
    if args.out:
        command = " ".join(spec["command"])
        result = {
            "machine": {"python": platform.python_version(),
                        "cpu_count": os.cpu_count()},
            "method": {
                "command": f"{command} --workload W --seed S --seconds "
                           f"{seconds:g} --trace 0",
                "seeds": [args.seed_base + i
                          for i in range(1, args.pairs + 1)],
                "seeds_note": f"pair i uses seed {args.seed_base} + i on "
                              "both sides",
                "order": "pair by pair, workloads in turn within a pair; the "
                         "side that runs first alternates from run slot to "
                         "run slot (see 'first')",
                "quartiles": "statistics.quantiles(n=4), exclusive method, "
                             "over the runs of one side",
                "bound_rule": "change_worse_by is the relative change of the "
                              "median in the worse direction; within_bound "
                              "compares it with the BENCHMARK.json bound",
            },
            "workloads": block,
        }
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(result, f, indent=1)
            f.write("\n")
    return 0 if all(e["all_correct"] for e in block.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
