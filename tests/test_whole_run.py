"""Whole runs against the paper's round rebuilt in plain numpy
(oracles.paper_run): run_experiment must give every RoundMetrics field,
per-layer rows included, and the final parameters bit for bit.

The golden tables pin output bytes only on the OpenBLAS kernels they hold
entries for, and skip on any other. This check holds on every kernel. Both
also run in a process forced onto each other kernel this CPU can run, so an
AVX-512 machine checks every golden table's Haswell and Sandybridge entries
too.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import fednorm
from fednorm.aggregate import STRATEGY_KINDS, AggregationStrategy
from fednorm.cli import load_data, parse_config
from fednorm.client import ClientConfig
from fednorm.data import PartitionSpec, synth_split
from fednorm.nn import NetworkSpec
from fednorm.orchestrator import WEIGHT_MODES, ExperimentConfig, Schedule, run_experiment
from fednorm.params import openblas_kernel
from oracles import paper_run
from test_golden import DESK_QUICK_SHA256, WIDE_TRIMMED

TRAIN, TEST = synth_split(3, 16, 8, 5, seed=7)


def assert_matches_paper_run(train, test, config):
    result = run_experiment(train, test, config)
    metrics, final = paper_run(train, test, config)
    # repr tells every float apart, -0.0 from 0.0 included
    assert repr(result.metrics) == repr(metrics)
    assert result.final_params.tobytes() == final.tobytes()


def small(kind, hidden=(6,), weight_decay=0.0, label_mode="iid", participation=1.0,
          weight_mode="uniform", workers=1, rounds=2, clients=4, batch_size=6, epochs=2,
          seed=0):
    """A config of the 5-feature, 3-class set TRAIN; clients weighted by
    their sample counts hold unbalanced shares of it."""
    return ExperimentConfig(
        NetworkSpec((5, *hidden, 3)),
        AggregationStrategy(kind, beta=0.7, gamma=0.8),
        ClientConfig(learning_rate=0.1, batch_size=batch_size, local_epochs=epochs,
                     weight_decay=weight_decay, mu=0.05 if kind == "fedprox" else 0.0),
        PartitionSpec(label_mode, "unbalanced" if weight_mode != "uniform" else "balanced"),
        Schedule(rounds=rounds, clients=clients, participation=participation,
                 weight_mode=weight_mode, seed=seed, workers=workers))


@given(st.builds(small, st.sampled_from(STRATEGY_KINDS), st.sampled_from([(), (6,), (7, 4)]),
                 st.sampled_from([0.0, 1e-3]), st.sampled_from(["iid", "noniid"]),
                 st.sampled_from([1.0, 0.5]), st.sampled_from(WEIGHT_MODES),
                 st.integers(1, 2), st.integers(1, 3), st.integers(2, 5), st.integers(3, 17),
                 st.integers(1, 2), st.integers(0, 2**16)))
@example(small("fedavg"))
@example(small("fedprox", weight_decay=1e-3, label_mode="noniid", workers=2))
@example(small("normnorm", participation=0.5, weight_mode="by_sample_count"))
@example(small("momentum", hidden=(7, 4), label_mode="noniid", weight_mode="by_sample_count"))
@example(small("fednnnn", weight_decay=1e-3, participation=0.5, workers=2))
@example(small("normnorm", clients=1))
def test_small_runs_match_the_paper_run(config):
    assert_matches_paper_run(TRAIN, TEST, config)


def test_a_run_of_two_blocks_matches_the_paper_run():
    """50 clients of the 784-200-200-10 net: each round folds in three blocks
    of the ring, two of them on the server thread."""
    plan = parse_config(WIDE_TRIMMED)
    train, test = load_data(plan)
    for entry in plan.strategies:
        assert_matches_paper_run(train, test, plan.experiment(entry, 784, 10))


# the CPU features (numpy's names) each kernel a process can be forced onto
# needs; the golden tables hold digests for the first two
KERNELS = {"Haswell": ("AVX2", "FMA3"), "Sandybridge": ("AVX",), "Nehalem": ("SSE42",),
           "Katmai": ()}


def cannot_force(kernel):
    """Why this process cannot start a run forced onto kernel, or None. A
    kernel this CPU lacks an instruction for cannot run: its process would
    die on an illegal instruction."""
    from numpy._core._multiarray_umath import __cpu_features__
    if openblas_kernel() in (None, kernel):
        return f"numpy's BLAS is not its bundled OpenBLAS, or already {kernel!r}"
    missing = [f for f in KERNELS[kernel] if not __cpu_features__.get(f)]
    if missing:
        return f"this CPU lacks {missing} for the OpenBLAS kernel {kernel!r}"
    return None


@pytest.fixture(scope="module")
def forced_runs():
    """A process per kernel that can run, all started at once, each forced
    onto its kernel with OPENBLAS_CORETYPE and running the tests above and
    test_golden.py's; each prints the kernel it runs on first."""
    src = str(Path(fednorm.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    this = Path(__file__).resolve()
    modules = [str(this), str(this.with_name("test_golden.py"))]
    script = ("import sys, pytest; from fednorm.params import openblas_kernel; "
              "print(openblas_kernel()); "
              f"sys.exit(pytest.main(['-q', '-p', 'no:cacheprovider', *{modules!r}, "
              "'-k', 'not forced']))")
    runs = {}
    try:
        for kernel in sorted(KERNELS):
            if cannot_force(kernel) is None:
                runs[kernel] = subprocess.Popen(
                    [sys.executable, "-c", script], stdout=subprocess.PIPE,
                    stderr=subprocess.PIPE, text=True, cwd=this.parents[1],
                    env={**env, "OPENBLAS_CORETYPE": kernel})
        yield runs
    finally:
        for proc in runs.values():
            proc.kill()  # a run no test waited for
            proc.communicate()


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_runs_forced_onto_another_kernel_match_the_paper_run(kernel, forced_runs):
    """The tests above and the golden tables in a process forced onto the
    kernel; on a kernel the tables hold digests for, none of them skips."""
    reason = cannot_force(kernel)
    if reason:
        pytest.skip(reason)
    proc = forced_runs[kernel]
    stdout, stderr = proc.communicate(timeout=300)
    assert stdout.split("\n", 1)[0] == kernel, stdout
    assert proc.returncode == 0, stdout + stderr
    if kernel in DESK_QUICK_SHA256:
        assert "skipped" not in stdout, stdout
