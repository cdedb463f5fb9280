"""The 784-200-200-10 network's rounds, which reach the server thread: output
bytes must not depend on the BLAS thread count, must equal golden digests,
and a diverging client must still fail with one line.

Each run is a fresh `fednorm run` process, so that the BLAS pin is tested as
a program meets it: importing fednorm before numpy, or after. The config is
the benchmark's wide_round cut down to 50 clients, 2 rounds and 40/20 rows
per class: its 1.6 MB rows fill three blocks a round, so the server thread
folds two of them and the third reuses the first half of the ring.
"""

import hashlib
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest
import yaml

import fednorm
import fednorm.orchestrator as orchestrator
from fednorm.cli import main
from oracles import kernel_digests

WIDE_TRIMMED = {
    "dataset": {"kind": "synth", "classes": 10, "features": 784, "center_scale": 0.5,
                "components_per_class": 2, "train_per_class": 40, "test_per_class": 20},
    "network": {"hidden": [200, 200]},
    "partition": {"label_mode": "noniid", "classes_per_client": 2,
                  "size_mode": "unbalanced", "power_exponent": 1.5},
    "training": {"clients": 50, "rounds": 2, "participation": 1.0, "batch_size": 50,
                 "local_epochs": 1, "workers": 1},
    "strategies": [{"kind": "normnorm", "beta": 0.9}, {"kind": "momentum", "gamma": 0.8}],
}
PARAMS = 784 * 200 + 200 + 200 * 200 + 200 + 200 * 10 + 10

# SHA-256 of the CSVs `fednorm run --seed 0` writes for WIDE_TRIMMED, keyed by
# OpenBLAS kernel: SkylakeX's were written before the server thread existed,
# with OPENBLAS_NUM_THREADS=1, the others by runs forced onto their kernel with
# OPENBLAS_CORETYPE on one AVX-512 machine
WIDE_TRIMMED_SHA256 = {
    "SkylakeX": {
        "momentum_layers.csv": "433dc36afc914cef6c51f4f8ed62a129772ed897dda199ed3a0ba230125a82d0",
        "momentum_metrics.csv": "cae41dba7823bdf731caae67518cbda8314380a1d387137da61606efc28e496b",
        "normnorm_layers.csv": "a3fd3a975743383f1d2318ccd6a0336763bc726d4f268aa73a712fa33871a27d",
        "normnorm_metrics.csv": "aa924179c53f277c7732c94a0b31eda71d29aaf0ebd634ced2a31cf36aaa059a",
    },
    "Haswell": {
        "momentum_layers.csv": "73f4dae2e981bcfe800de9b246836a1c077aa7e0aebcb3dbf2b877d10eb3a1e2",
        "momentum_metrics.csv": "d85e5c5a3fbdfec8af6a2ee176d4064084e2553b699b4c71d38800ecb22fbcf9",
        "normnorm_layers.csv": "d9da5cf49c85a71d19f39b652618f12e16d2abfd1886d45e1abebf3dae0d9c4f",
        "normnorm_metrics.csv": "ccebe5c8990a622c103df8699178922d3a588ebfc8f447146c715977d8f77026",
    },
    "Sandybridge": {
        "momentum_layers.csv": "e72d4553a7ec08a86d5bf2d19f1f60d567972d6f3ede7bb6c574480c5fe4bd44",
        "momentum_metrics.csv": "d59fbd0006f7f35285009f26da833322fd3fb3b38358303800bcec9794764c50",
        "normnorm_layers.csv": "6ba73b3d909b98b5819ac2219f8291d94882915b87cf0271a34f0392c6f147e6",
        "normnorm_metrics.csv": "51fc7e4a4538d58a5a41ac6557fb2cf1811553b9681bbd7a3d860f6742895105",
    },
}
# at these settings client 48 of round 1 diverges first: in the third block,
# after two were handed to the server, with its row in a reused half of the ring
DIVERGING = {"learning_rate": 1000.0, "local_epochs": 8}


def run_cli(config: dict, out: Path, blas_threads: str | None,
            numpy_first: bool = False, args: tuple = ()) -> subprocess.CompletedProcess:
    path = out.parent / f"{out.name}.yaml"
    path.write_text(yaml.safe_dump(config))
    src = str(Path(fednorm.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
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


def csv_digests(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.glob("*.csv"))}


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
