"""The benchmark tracer's entry points still exist and are still reached.

benchmarks/tracing.py wraps the functions and methods named in BOUNDARIES
and the FieldElem operations named in SCALAR_OPS, and refuses to run if one
is gone.  A traced benchmark run also fails when a boundary its workload
lists in `uses` sees no call.  The benchmark's own tests sit outside the
default test paths, so a rename, a deletion or a layer that stops being
reached is caught here instead.
"""

import importlib
import importlib.util
import json
import os
import sys
from types import SimpleNamespace

import pytest

import jspec.cli  # noqa: F401  (imports every other jspec module)
from jspec.scalar import FieldElem

BENCHMARKS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "benchmarks")


def _import_benchmark_module(name):
    spec = importlib.util.spec_from_file_location(
        f"benchmarks.{name}", os.path.join(BENCHMARKS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _import_benchmark_module("tracing")
workloads = _import_benchmark_module("workloads")


@pytest.mark.parametrize("modname, path",
                         [(modname, path)
                          for _, modname, path in tracing.BOUNDARIES],
                         ids=lambda x: x)
def test_boundary_is_in_its_owner(modname, path):
    owner_name, _, attr = path.rpartition(".")
    owner = importlib.import_module(modname)
    if owner_name:
        owner = getattr(owner, owner_name)
    assert attr in vars(owner)


def test_scalar_ops_are_field_elem_methods():
    assert [op for op in tracing.SCALAR_OPS if op not in vars(FieldElem)] == []


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_round_reaches_every_used_boundary(name, tmp_path):
    """One traced round of a workload's items, on the jspec already loaded."""
    workload = workloads.WORKLOADS[name]
    modules = {modname: module for modname, module in sys.modules.items()
               if modname == "jspec" or modname.startswith("jspec.")}
    mods = SimpleNamespace(**{modname[len("jspec."):]: module
                              for modname, module in modules.items()
                              if modname != "jspec"})
    with open(os.path.join(BENCHMARKS, "golden.json"),
              encoding="utf-8") as handle:
        golden = json.load(handle)[name]
    items = workload.sequence(211)[:workload.round_len]
    state = workload.setup(mods, set(items), str(tmp_path))
    tracer = tracing.Tracer()
    tracer.install(modules)
    try:
        outputs = [tracer.run_item(j, workload.run, mods, state, key)
                   for j, key in enumerate(items)]
    finally:
        tracer.uninstall()
    tracer.require_calls(workload.uses)
    for key, output in zip(items, outputs):
        assert workload.verdict_ok(output), output
        assert workloads.digest(output) == golden[workload.golden_key(key)]
