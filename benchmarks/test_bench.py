"""Smoke test of the benchmark itself.

    python3 -m pytest -q benchmarks/test_bench.py

Runs every workload at minimum size (one item, one traced round), checks
that each metric BENCHMARK.json names is printed with its unit, and checks
that a corrupted golden digest makes items fail, so the correctness gate is
shown to bite.
"""

import contextlib
import io
import json
import os
import subprocess
import sys

import pytest

import run
import tracing
from workloads import WORKLOADS

SPEC = os.path.join(run.ROOT, "BENCHMARK.json")


def _spec():
    with open(SPEC, encoding="utf-8") as handle:
        return json.load(handle)


def _printed(result, env):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        final = run.report(result, env)
    return out.getvalue(), final


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", (0, 1))
def test_workload_prints_every_metric(name, trace):
    spec = _spec()
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    measure = run.measure_traced if trace else run.measure
    result = measure(WORKLOADS[name], 7, 1e-3, run.load_golden())
    text, final = _printed(result, run.environment(name, 7, 1e-3, trace))
    assert final["correct"] and final["failed"] == 0
    assert final["attempted"] >= 1
    assert set(final["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        got = final["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert f"\n{metric['name']} " in "\n" + text
    assert "fail_ratio 0 ratio" in text
    if not trace:
        assert all(final["metrics"][m["name"]]["value"] > 0
                   for m in expected)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_corrupted_golden_fails_items(name):
    golden = run.load_golden()
    golden[name] = {entry: "0" * 16 for entry in golden[name]}
    result = run.measure(WORKLOADS[name], 7, 1e-3, golden)
    text, final = _printed(result, run.environment(name, 7, 1e-3, 0))
    assert not final["correct"]
    assert final["failed"] == final["attempted"] >= 1
    assert "fail_ratio 1 ratio" in text


def test_missed_boundary_fails_loudly():
    tracer = tracing.Tracer()
    tracer.calls["spectrum.pencil"] = 3
    tracer.require_calls(["spectrum.pencil"])
    with pytest.raises(tracing.TraceError, match="maps.apply"):
        tracer.require_calls(["spectrum.pencil", "maps.apply"])


def test_rebinding_reaches_names_imported_by_name():
    mods = run.import_jspec()
    pencil_poly, gcd = mods.spectrum.pencil_poly, mods.polyalg.gcd
    tracer = tracing.Tracer()
    tracer.install(run.traced_modules(mods))
    try:
        assert mods.spectrum.pencil_poly is not pencil_poly
        assert mods.verify.pencil_poly is mods.spectrum.pencil_poly
        assert mods.cli.pencil_poly is mods.spectrum.pencil_poly
        assert mods.package.pencil_poly is mods.spectrum.pencil_poly
        assert mods.spectrum.squarefree_part is mods.polyalg.squarefree_part
        assert mods.polyalg.gcd is not gcd  # recursion goes through the global
        one = mods.scalar.FieldContext(2).one
        _ = 1 + one, one + 1, 2 * one
        assert tracer.calls["scalar.add"] == 2
        assert tracer.calls["scalar.mul"] == 1
    finally:
        tracer.uninstall()


def test_cli_without_sources_exits_nonzero(tmp_path):
    bench = tmp_path / "benchmarks"
    bench.mkdir()
    for name in os.listdir(run.HERE):
        if name.endswith((".py", ".json")):
            (bench / name).write_bytes(
                open(os.path.join(run.HERE, name), "rb").read())
    (tmp_path / "BENCHMARK.json").write_bytes(open(SPEC, "rb").read())
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "pairs",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
