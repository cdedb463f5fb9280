"""The benchmark launcher's targets must name functions the program has and
calls: the tracer skips a missing target silently, and a target the program
no longer calls records nothing, so a rename or a rerouted call would leave
the round timings empty, or a traced layer reading zero."""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

import fednorm.cli

LAUNCH = Path(__file__).resolve().parents[1] / "benchmarks" / "launch.py"

# traced names the program no longer calls, each of which reads zero until the
# benchmark retargets it (ROADMAP item 4); that change must shrink this list
DEAD = {
    ("fednorm.client", "backward"),
    ("fednorm.client", "sgd_step"),
    ("fednorm.client", "prox_gradient_addend"),
    ("fednorm.client", "delta"),
    ("fednorm.orchestrator", "nwda"),
    ("fednorm.params:ParamVector", "__post_init__"),
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
        owner = getattr(owner, class_name, None)
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


def test_a_run_calls_every_traced_target_but_the_known_dead_ones(launch, tmp_path):
    """A tiny `fednorm run` with each live target wrapped under its own name
    records a call to every one of them, the data layer's included."""
    live = [launch.Target(f"{t.owner}.{t.attr}", t.owner, t.attr) for t in launch.TRACED
            if (t.owner, t.attr) not in DEAD]
    config = tmp_path / "tiny.yaml"
    config.write_text(json.dumps({  # JSON is valid YAML
        "dataset": {"kind": "synth", "classes": 3, "train_per_class": 10,
                    "test_per_class": 5, "features": 4},
        "network": {"hidden": [4]},
        "training": {"rounds": 1, "clients": 3},
        "strategies": [{"kind": "normnorm"}],
    }))
    tracer = launch.Tracer()
    with launch.installed(tracer, live) as found:
        assert fednorm.cli.main(["run", "--config", str(config),
                                 "--out", str(tmp_path / "out")]) == 0
    assert found == live
    called = {span.name for span in tracer.spans}
    for name in ("fednorm.cli.normalize", "fednorm.cli.normalization_stats",
                 "fednorm.orchestrator.partition", "fednorm.client.batches"):
        assert name in called
    assert [t.span for t in live if t.span not in called] == []
