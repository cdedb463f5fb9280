"""The benchmark launcher's untraced targets, which time every round and the
whole experiment, must name functions the program has: the tracer skips a
missing target silently, so a rename would leave the round timings empty."""

import importlib
import importlib.util
import sys
from pathlib import Path

LAUNCH = Path(__file__).resolve().parents[1] / "benchmarks" / "launch.py"


def test_every_untraced_benchmark_target_resolves_to_a_callable(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # launch.py prepends its folder
    spec = importlib.util.spec_from_file_location("benchmark_launch", LAUNCH)
    launch = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(launch)
    assert launch.UNTRACED
    for target in launch.UNTRACED:
        module_name, _, class_name = target.owner.partition(":")
        owner = importlib.import_module(module_name)
        if class_name:
            owner = getattr(owner, class_name)
        assert callable(getattr(owner, target.attr, None)), target
