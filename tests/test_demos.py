"""Smoke test for the narrated demos, so their library calls cannot rot."""

import runpy
from pathlib import Path

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
