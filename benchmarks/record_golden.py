"""Record golden.json: the digest of every pool item's output.

    python3 benchmarks/record_golden.py

Runs every item of each workload's pool once, untimed, and stores the first
16 hex digits of the SHA-256 of its output: exit code plus captured stdout
and stderr for CLI items, the pencil and its squarefree part for pencil
items.  Items whose workload gives them a shared golden entry must agree
on it.  Refuses to record an item whose exit code or verdict is wrong.
Re-record only when a change is meant to alter the program's output.
"""

from __future__ import annotations

import argparse
import json
import sys

import run
from workloads import WORKLOADS, digest


def record(name: str) -> dict[str, str]:
    workload = WORKLOADS[name]
    keys = workload.pool_keys()
    mods = run.import_jspec()
    state = workload.setup(mods, set(keys), run.OUT)
    digests = {}
    for key in keys:
        output = workload.run(mods, state, key)
        if not workload.verdict_ok(output):
            raise SystemExit(f"{name} item {key} has the wrong verdict:\n"
                             f"{output}")
        entry = workload.golden_key(key)
        if digests.setdefault(entry, digest(output)) != digest(output):
            raise SystemExit(f"{name} item {key} differs from the other "
                             f"items of golden entry {entry}:\n{output}")
    return digests


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(
        argv)
    golden = {}
    for name in sorted(WORKLOADS):
        golden[name] = record(name)
        print(f"{name}: {len(golden[name])} digests", file=sys.stderr)
    with open(run.GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
