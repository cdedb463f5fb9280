"""Smoke tests for the narrated demos and the README's python blocks, so
their library calls cannot rot."""

import re
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def test_divergence_walkthrough_demo_runs(capsys):
    runpy.run_path(str(DEMOS / "divergence_walkthrough.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "ratio N/E            = 0.4472" in out
    assert "mean ratio: iid" in out


def test_partition_gallery_demo_runs(capsys):
    runpy.run_path(str(DEMOS / "partition_gallery.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "  client 0: n= 50  classes [ 10   6   6  16  12]" in out


def test_strategy_comparison_demo_runs(capsys):
    runpy.run_path(str(DEMOS / "strategy_comparison.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "fednnnn       0.9325    0.9340     0.145" in out


README = DEMOS.parent / "README.md"
README_BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)


@pytest.mark.parametrize("code", README_BLOCKS, ids=range(len(README_BLOCKS)))
def test_readme_python_block_runs(capsys, code):
    """Each python block of the README runs; a block that states its output
    in whole-line comments ("# 46 [20 26  0  0  0]: ...", up to the colon)
    prints exactly those lines."""
    exec(compile(code, str(README), "exec"), {"__name__": "__main__"})
    expected = [line[2:].split(":")[0] for line in code.splitlines() if line.startswith("# ")]
    if expected:
        assert capsys.readouterr().out.splitlines() == expected
