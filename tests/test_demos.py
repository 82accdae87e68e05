"""Each demo script runs to completion against the current library."""

import contextlib
import glob
import io
import os
import runpy

import pytest

DEMOS = sorted(glob.glob(os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "demos", "*.py")))


def test_every_demo_is_found():
    assert len(DEMOS) == 7


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_runs_cleanly(path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(path, run_name="__main__")
    assert out.getvalue()
