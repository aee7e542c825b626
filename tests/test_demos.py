"""Every narrative demo runs to completion in a fresh interpreter."""

import glob
import os

import pytest

DEMOS = sorted(glob.glob(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                      os.pardir, "demos", "*.py")))


def test_demos_found():
    # an empty glob would leave test_demo_runs with no cases, which passes silently
    assert len(DEMOS) >= 3


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_runs(isolated, path):
    code, out = isolated("import runpy; runpy.run_path(%r, run_name='__main__')" % path)
    assert code == 0
    assert out
