"""The benchmark launcher's targets must name functions the program has: the
tracer skips a missing target silently, so a rename would leave the round
timings empty, or a traced layer reading zero."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

LAUNCH = Path(__file__).resolve().parents[1] / "benchmarks" / "launch.py"

# traced names the program no longer calls, each of which reads zero until the
# benchmark retargets it (ROADMAP item 4); that change must shrink this list
DEAD = {
    ("fednorm.client", "backward"),
    ("fednorm.client", "sgd_step"),
    ("fednorm.client", "prox_gradient_addend"),
    ("fednorm.client", "delta"),
    ("fednorm.orchestrator", "nwda"),
}


@pytest.fixture
def launch(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # launch.py prepends its folder
    spec = importlib.util.spec_from_file_location("benchmark_launch", LAUNCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolves(target) -> bool:
    module_name, _, class_name = target.owner.partition(":")
    owner = importlib.import_module(module_name)
    if class_name:
        owner = getattr(owner, class_name)
    return callable(getattr(owner, target.attr, None))


def test_every_untraced_benchmark_target_resolves_to_a_callable(launch):
    assert launch.UNTRACED
    for target in launch.UNTRACED:
        assert resolves(target), target


def test_every_traced_target_resolves_but_the_known_dead_ones(launch):
    named = {(target.owner, target.attr) for target in launch.TRACED}
    assert DEAD <= named
    for target in launch.TRACED:
        dead = (target.owner, target.attr) in DEAD
        assert resolves(target) != dead, target
