"""jspec benchmark: run one workload and print its metrics.

    python3 benchmarks/run.py --workload pairs --seed 1 --seconds 40 --trace 0

Run from the root of a jspec source tree; the program is imported from its
``src`` directory.  With ``--trace 0`` the run prints the end-to-end metrics
of BENCHMARK.json; with ``--trace 1`` it prints the per-layer metrics from a
traced run, plus the tracing overhead against an untraced run of the same
items.  Every item's output is checked against golden.json.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.

Single process, single thread: items run one after another (a closed loop
with one caller), each in-process through jspec's public entry points.

End-to-end times are reported at a fixed reference speed: every timed step
(an item, a set-up) is bracketed by runs of a fixed pure-Python loop that
does not touch jspec, and its wall time is scaled by REFERENCE_S over the
mean of the loop's two times.  The host's speed drifts in phases of seconds
to minutes; the scaling cancels most of that drift, which a run's wall times
alone cannot.  The unscaled wall figures are printed beside the metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from time import perf_counter
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
GOLDEN = os.path.join(HERE, "golden.json")
SETUP_MIN_SECONDS = 1.0
# Nominal time of reference_loop(): its time in the fast phases of a shared
# 2-vCPU Xeon VM under Python 3.11.  Scaled times read as if measured at
# that speed.
REFERENCE_S = 0.0025
MODULES = ("scalar", "exactla", "lattice", "maps", "polyalg", "spectrum",
           "verify", "cli")

sys.path.insert(0, HERE)
import tracing  # noqa: E402
from workloads import WORKLOADS, D, digest, direct  # noqa: E402


class SourceMissing(RuntimeError):
    """The tree holds no jspec sources to benchmark."""


def import_jspec() -> SimpleNamespace:
    """Fresh import of every jspec module from this tree's src directory."""
    if not os.path.isfile(os.path.join(SRC, "jspec", "__init__.py")):
        raise SourceMissing(f"no jspec package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    for name in [m for m in sys.modules if m == "jspec" or
                 m.startswith("jspec.")]:
        del sys.modules[name]
    mods = SimpleNamespace(package=importlib.import_module("jspec"), **{
        name: importlib.import_module(f"jspec.{name}") for name in MODULES})
    origin = os.path.dirname(os.path.abspath(mods.cli.__file__))
    if origin != os.path.join(SRC, "jspec"):
        raise SourceMissing(f"jspec imported from {origin}, not {SRC}")
    return mods


def traced_modules(mods: SimpleNamespace) -> dict:
    """The jspec package and its modules, by name, for the tracer."""
    return {"jspec": mods.package,
            **{f"jspec.{name}": getattr(mods, name) for name in MODULES}}


def reference_loop() -> float:
    """Wall time of one run of a fixed Fraction loop that does not use jspec.

    Most of jspec's time is in fractions, so the loop slows with the host
    much as items do.  The loop makes no reference cycles; the collector is
    off while it runs, so its time does not depend on the size of the heap
    a workload leaves behind.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        acc = Fraction(0)
        for i in range(1, 600):
            acc += Fraction(i, i + 7) * Fraction(3, i + 1)
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Clock:
    """Times steps in wall seconds and at the reference speed.

    Each step's wall time is scaled by REFERENCE_S over the mean of the
    reference loop's times just before and just after it; the loop after
    one step serves as the loop before the next.
    """

    def __init__(self):
        self.before = reference_loop()
        self.wall = []
        self.scaled = []

    def step(self, fn, *args):
        start = perf_counter()
        result = fn(*args)
        elapsed = perf_counter() - start
        after = reference_loop()
        self.wall.append(elapsed)
        self.scaled.append(elapsed * 2 * REFERENCE_S / (self.before + after))
        self.before = after
        return result


def set_up(workload, seed: int):
    """Import jspec and build the run's inputs, until SETUP_MIN_SECONDS pass.

    A cheap set-up is thus sampled many times for a steady median.  Each
    repeat runs as timed steps (the import, then the workload's own set-up
    steps), so a long set-up is scaled to the reference speed piece by
    piece, like items.  The modules and inputs of each repeat but the last
    are garbage (module objects are cyclic), collected untimed so that
    peak_rss_mb barely grows with the number of repeats.  Returns the
    modules and inputs of the last repeat, the item sequence, and the wall
    and scaled times of every repeat.
    """
    sequence = workload.sequence(seed)
    keys = set(sequence)
    clock = Clock()
    wall, scaled = [], []
    while sum(wall) < SETUP_MIN_SECONDS:
        mods = state = None
        gc.collect()
        first = len(clock.wall)
        mods = clock.step(import_jspec)
        state = workload.setup(mods, keys, OUT, clock.step)
        wall.append(sum(clock.wall[first:]))
        scaled.append(sum(clock.scaled[first:]))
    return mods, state, sequence, SimpleNamespace(wall=wall, scaled=scaled)


class Checker:
    """Checks item outputs against golden digests and the expected verdict."""

    def __init__(self, workload, golden: dict):
        self.workload = workload
        self.golden = golden.get(workload.name, {})
        self.attempted = 0
        self.failed = 0

    def run(self, call, mods, state, key: str) -> None:
        """Run one item through call and check its output."""
        self.attempted += 1
        try:
            output = call(self.workload.run, mods, state, key)
        except Exception:
            self.failed += 1
            print(f"item {key} raised:\n{traceback.format_exc()}",
                  file=sys.stderr)
            return
        expected = self.golden.get(self.workload.golden_key(key))
        if not self.workload.verdict_ok(output):
            self.failed += 1
            print(f"item {key}: wrong exit code or verdict:\n{output}",
                  file=sys.stderr)
        elif digest(output) != expected:
            self.failed += 1
            print(f"item {key}: output digest {digest(output)} does not "
                  f"match golden {expected}", file=sys.stderr)


def tail(times: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten items beyond it: (value, pct).

    With ten or fewer items no such percentile exists; the maximum is
    reported as the 100th percentile.
    """
    ordered = sorted(times)
    if len(ordered) <= 10:
        return ordered[-1], 100.0
    rank = len(ordered) - 10
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def measure(workload, seed: int, seconds: float, golden: dict) -> dict:
    """Untraced run: end-to-end metrics over `seconds` of items."""
    mods, state, sequence, setup = set_up(workload, seed)
    checker = Checker(workload, golden)
    clock = Clock()
    start = perf_counter()
    for key in itertools.cycle(sequence):
        clock.step(checker.run, direct, mods, state, key)
        if perf_counter() - start >= seconds:
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tail_ms, pct = tail(clock.scaled)
    wall_tail_ms, _ = tail(clock.wall)
    count = len(clock.scaled)
    return {
        "checker": checker,
        "notes": {
            "setup_s": f"wall {statistics.median(setup.wall):.4g} s, "
                       f"median of {len(setup.wall)}",
            "items_per_s": f"wall {count / sum(clock.wall):.4g} 1/s",
            "item_ms_p50": f"wall {statistics.median(clock.wall) * 1e3:.4g}"
                           " ms",
            "item_ms_tail": f"p{pct:.1f} of {count} items; "
                            f"wall {wall_tail_ms * 1e3:.4g} ms",
        },
        "metrics": {
            "setup_s": (statistics.median(setup.scaled), "s"),
            "items_per_s": (count / sum(clock.scaled), "1/s"),
            "item_ms_p50": (statistics.median(clock.scaled) * 1000.0, "ms"),
            "item_ms_tail": (tail_ms * 1000.0, "ms"),
            "peak_rss_mb": (rss_mb, "MB"),
        },
    }


def _round(checker, call, mods, state, items) -> float:
    start = perf_counter()
    for key in items:
        checker.run(call, mods, state, key)
    return perf_counter() - start


def measure_traced(workload, seed: int, seconds: float, golden: dict) -> dict:
    """Per-layer metrics from a traced run of a fixed item list.

    The first `round_len` items of the seed's sequence run as rounds,
    untraced and traced in turn until `seconds` pass, so both see the same
    machine conditions.  Repeating one list keeps the per-item call counts
    exact from run to run.
    """
    mods, state, sequence, _ = set_up(workload, seed)
    items = sequence[:workload.round_len]
    checker = Checker(workload, golden)
    tracer = tracing.Tracer()
    modules = traced_modules(mods)
    counter = itertools.count()

    def traced(fn, *args):
        return tracer.run_item(next(counter), fn, *args)

    rounds, plain_s, traced_s = 0, 0.0, 0.0
    start = perf_counter()
    while not rounds or perf_counter() - start < seconds:
        plain_s += _round(checker, direct, mods, state, items)
        tracer.install(modules)
        try:
            traced_s += _round(checker, traced, mods, state, items)
        finally:
            tracer.uninstall()
        rounds += 1
    tracer.require_calls(workload.uses)
    os.makedirs(OUT, exist_ok=True)
    tracer.write_spans(os.path.join(OUT, f"spans-{workload.name}.jsonl"))
    metrics = tracer.layer_metrics(rounds * len(items))
    plain_rate = rounds * len(items) / plain_s
    traced_rate = rounds * len(items) / traced_s
    metrics["trace.overhead_ratio"] = (plain_rate / traced_rate, "ratio")
    return {
        "checker": checker,
        "notes": {"trace.overhead_ratio":
                  f"items_per_s untraced {plain_rate:.4f}, "
                  f"traced {traced_rate:.4f}"},
        "metrics": metrics,
    }


def _commit() -> str:
    """Commit hash of the tree; "unknown" outside a git checkout."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(workload: str, seed: int, seconds: float, trace: int) -> dict:
    return {"python": platform.python_version(), "cpu_count": os.cpu_count(),
            "platform": platform.platform(), "commit": _commit(), "d": D,
            "workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace}


def load_golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)


def report(result: dict, env: dict) -> dict:
    """Print the human-readable lines and return the final JSON object."""
    checker = result["checker"]
    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in result["metrics"].items():
        note = result["notes"].get(name)
        print(f"{name} {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    ratio = checker.failed / checker.attempted
    print(f"fail_ratio {ratio:.6g} ratio  "
          f"({checker.failed} of {checker.attempted} items failed)")
    return {"correct": checker.failed == 0,
            "attempted": checker.attempted,
            "failed": checker.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit)
                        in result["metrics"].items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    workload = WORKLOADS[args.workload]
    try:
        golden = load_golden()
        run = measure_traced if args.trace else measure
        result = run(workload, args.seed, args.seconds, golden)
    except (SourceMissing, OSError, ValueError) as err:
        print(f"benchmark cannot run: {err}", file=sys.stderr)
        return 2
    except tracing.TraceError as err:
        print(f"trace failed: {err}", file=sys.stderr)
        return 3
    final = report(result, environment(args.workload, args.seed,
                                       args.seconds, args.trace))
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
