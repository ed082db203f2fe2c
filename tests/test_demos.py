"""Every demo script runs to the end.

The scripts in ``demos/`` drive the public API the way a reader would copy
it, so each one is run in-process with ``runpy``; standard output is
captured and must be nonempty.
"""

import glob
import os
import runpy

import pytest

DEMOS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), os.pardir,
                                      "demos", "*.py")))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("script", DEMOS, ids=os.path.basename)
def test_demo_runs(script, capsys):
    runpy.run_path(script, run_name="__main__")
    assert capsys.readouterr().out.strip()
