"""The benchmark tracer's entry points still exist in the library.

benchmarks/tracing.py wraps the functions and methods named in BOUNDARIES
and the FieldElem operations named in SCALAR_OPS, and refuses to run if one
is gone.  The benchmark's own tests sit outside the default test paths, so
a rename or deletion of an entry point is caught here instead.
"""

import importlib
import importlib.util
import os

import pytest

from jspec.scalar import FieldElem

TRACING_PY = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "benchmarks", "tracing.py")


def _import_tracing():
    spec = importlib.util.spec_from_file_location("benchmarks.tracing",
                                                  TRACING_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _import_tracing()


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
