"""The 784-200-200-10 network's rounds, which reach the server thread: output
bytes must not depend on the BLAS thread count, must equal golden digests,
and a diverging client must still fail with one line.

Each run is a fresh `fednorm run` process, so that the BLAS pin is tested as
a program meets it: importing fednorm before numpy, or after. The config is
test_golden.py's WIDE_TRIMMED, and its digests that module's table.
"""

import json
import subprocess
import sys
import threading
from pathlib import Path

import pytest
import yaml

import fednorm.orchestrator as orchestrator
from fednorm.cli import main
from oracles import child_env, kernel_digests
from test_golden import WIDE_TRIMMED, WIDE_TRIMMED_SHA256, csv_digests

PARAMS = 784 * 200 + 200 + 200 * 200 + 200 + 200 * 10 + 10

# at these settings client 48 of round 1 diverges first: in the third block,
# after two were handed to the server, with its row in a reused half of the ring
DIVERGING = {"learning_rate": 1000.0, "local_epochs": 8}


def run_cli(config: dict, out: Path, blas_threads: str | None,
            numpy_first: bool = False, args: tuple = ()) -> subprocess.CompletedProcess:
    path = out.parent / f"{out.name}.yaml"
    path.write_text(yaml.safe_dump(config))
    env = child_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    entry = (["-c", "import sys, numpy; from fednorm.cli import main; sys.exit(main())"]
             if numpy_first else ["-m", "fednorm.cli"])
    return subprocess.run(
        [sys.executable, *entry, "run", "--config", str(path), "--seed", "0",
         "--out", str(out), *args],
        capture_output=True, text=True, env=env, timeout=600,
    )


@pytest.fixture(scope="module")
def digests_by_blas_threads(tmp_path_factory):
    """CSV digests of WIDE_TRIMMED under OPENBLAS_NUM_THREADS 1, 2 and unset,
    and under 2 in a program that imports numpy before fednorm."""
    runs = {}
    for threads, numpy_first in (("1", False), ("2", False), (None, False), ("2", True)):
        key = f"{threads}, numpy first" if numpy_first else threads
        out = tmp_path_factory.mktemp("wide") / f"threads-{threads}-{numpy_first}"
        proc = run_cli(WIDE_TRIMMED, out, threads, numpy_first)
        assert proc.returncode == 0, proc.stderr
        runs[key] = csv_digests(out)
    return runs


def test_trimmed_config_reaches_the_server_thread_and_wraps_the_ring():
    clients = WIDE_TRIMMED["training"]["clients"]
    rows, _ = orchestrator.ring_shape(clients, PARAMS, 1)
    block = rows // 2
    assert rows == 2 * block and clients > 2 * block


def test_output_bytes_do_not_depend_on_blas_threads(digests_by_blas_threads):
    one = digests_by_blas_threads["1"]
    assert len(one) == 4
    assert digests_by_blas_threads["2"] == one
    assert digests_by_blas_threads[None] == one


def test_blas_pin_holds_when_numpy_was_imported_first(digests_by_blas_threads):
    assert digests_by_blas_threads["2, numpy first"] == kernel_digests(WIDE_TRIMMED_SHA256)


def test_server_thread_path_matches_golden_hashes(digests_by_blas_threads):
    assert digests_by_blas_threads[None] == kernel_digests(WIDE_TRIMMED_SHA256)


def diverging_config(**training) -> dict:
    config = json.loads(json.dumps(WIDE_TRIMMED))
    config["training"].update(training or DIVERGING)
    config["strategies"] = [{"kind": "normnorm", "beta": 0.9}]
    return config


@pytest.mark.parametrize("workers", ["1", "3"])
def test_diverging_client_fails_with_one_line_after_handoffs(tmp_path, workers):
    """Client 48's NaN is caught where its block is folded, in client order,
    on one worker as on a pool."""
    out = tmp_path / "out"
    proc = run_cli(diverging_config(), out, None, args=("--workers", workers))
    assert proc.returncode == 2
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr == ("error: normnorm round 1 client 48: parameter vector "
                           "contains NaN or Inf\n")
    assert json.loads((out / "manifest.json").read_text())["status"] == "failed"


def test_overflowing_update_norms_fail_at_the_server(tmp_path):
    """One step at this rate leaves every client update finite but too large
    to square: the run fails at the server, not with a score of NaN logits."""
    out = tmp_path / "out"
    proc = run_cli(diverging_config(learning_rate=1.0e300), out, None)
    assert proc.returncode == 2
    assert proc.stderr == ("error: normnorm round 1 server: N, E or the step norm "
                           "is NaN or Inf\n")
    assert json.loads((out / "manifest.json").read_text())["status"] == "failed"


def test_diverging_run_leaves_no_thread_behind(tmp_path, capsys):
    config = tmp_path / "diverge.yaml"
    config.write_text(yaml.safe_dump(diverging_config()))
    baseline = threading.active_count()
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert "parameter vector contains NaN or Inf" in capsys.readouterr().err
    assert threading.active_count() == baseline
