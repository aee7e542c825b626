"""Every narrative demo, and README's Quick start, runs to completion in a fresh interpreter."""

import glob
import os

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


def test_demos_found():
    # an empty glob would leave test_demo_runs with no cases, which passes silently
    assert len(DEMOS) >= 3


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_runs(isolated, path):
    code, out = isolated("import runpy; runpy.run_path(%r, run_name='__main__')" % path)
    assert code == 0
    assert out


def quick_start():
    """The fenced python block after "Quick start:" in README.md."""
    with open(os.path.join(ROOT, "README.md")) as fh:
        text = fh.read()
    return text.split("Quick start:", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_quick_start_runs(isolated):
    code, out = isolated(quick_start())
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 6
    assert lines[3] == lines[4]  # the rate at 40 km, alone and as a row of the 0..100 km curve
