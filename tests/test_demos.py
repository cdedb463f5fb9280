"""Smoke test for the narrated demos, so their library calls cannot rot."""

import runpy
from pathlib import Path

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def test_divergence_walkthrough_demo_runs(capsys):
    runpy.run_path(str(DEMOS / "divergence_walkthrough.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "ratio N/E            = 0.4472" in out
    assert "mean ratio: iid" in out
