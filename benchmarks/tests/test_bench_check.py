import csv
import io
import json
import math
import shutil

import pytest

from check import REFERENCE_DIR, REFERENCE_SEED, OutputError, check_run

DESK_LABELS = ("fedavg", "fedprox", "normnorm", "momentum", "fednnnn")
MNIST_LABELS = ("fedprox", "fednnnn")


def _run_dir(tmp_path, workload, labels):
    out = tmp_path / workload
    shutil.copytree(REFERENCE_DIR / workload, out)
    (out / "manifest.json").write_text(json.dumps(
        {"status": "complete", "strategies": list(labels)}))
    return out


def _rewrite_cell(path, line, column, change):
    """Apply change(float) -> float to one cell, written as the CLI writes floats."""
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index(column)
    rows[line - 1][col] = f"{change(float(rows[line - 1][col])):.17g}"
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    path.write_bytes(buf.getvalue().encode())


def test_unchanged_desk_quick_output_is_accepted(tmp_path):
    out = _run_dir(tmp_path, "desk_quick", DESK_LABELS)
    check_run(out, "desk_quick", DESK_LABELS, 8, REFERENCE_SEED, exact=True)


def test_one_ulp_change_in_desk_quick_is_rejected(tmp_path):
    out = _run_dir(tmp_path, "desk_quick", DESK_LABELS)
    _rewrite_cell(out / "fednnnn_metrics.csv", 3, "E", lambda v: math.nextafter(v, math.inf))
    with pytest.raises(OutputError, match="fednnnn_metrics.csv: SHA-256"):
        check_run(out, "desk_quick", DESK_LABELS, 8, REFERENCE_SEED, exact=True)


def test_reduction_order_drift_is_accepted_but_a_rule_change_is_not(tmp_path):
    out = _run_dir(tmp_path, "mnist_synth", MNIST_LABELS)
    path = out / "fednnnn_metrics.csv"
    _rewrite_cell(path, 4, "step_norm", lambda v: v * (1 + 4e-16))
    check_run(out, "mnist_synth", MNIST_LABELS, 3, REFERENCE_SEED, exact=False)
    _rewrite_cell(path, 4, "step_norm", lambda v: v * (1 + 1e-6))
    with pytest.raises(OutputError, match="step_norm"):
        check_run(out, "mnist_synth", MNIST_LABELS, 3, REFERENCE_SEED, exact=False)


def test_other_seeds_check_invariants(tmp_path):
    out = _run_dir(tmp_path, "mnist_synth", MNIST_LABELS)
    check_run(out, "mnist_synth", MNIST_LABELS, 3, seed=7, exact=False)
    _rewrite_cell(out / "fedprox_layers.csv", 2, "N", lambda v: 2 * v + 1.0)
    with pytest.raises(OutputError, match="N .* > E"):
        check_run(out, "mnist_synth", MNIST_LABELS, 3, seed=7, exact=False)


def test_ratio_outside_unit_interval_is_rejected(tmp_path):
    out = _run_dir(tmp_path, "desk_quick", DESK_LABELS)
    _rewrite_cell(out / "fedavg_metrics.csv", 2, "ratio", lambda v: 1.5)
    with pytest.raises(OutputError, match="ratio"):
        check_run(out, "desk_quick", DESK_LABELS, 8, seed=5, exact=True)


def test_incomplete_manifest_or_missing_rounds_are_rejected(tmp_path):
    out = _run_dir(tmp_path, "desk_quick", DESK_LABELS)
    (out / "manifest.json").write_text(json.dumps({"status": "failed", "strategies": []}))
    with pytest.raises(OutputError, match="status"):
        check_run(out, "desk_quick", DESK_LABELS, 8, seed=5, exact=True)
    out = _run_dir(tmp_path / "b", "desk_quick", DESK_LABELS)
    with pytest.raises(OutputError, match="rounds are not"):
        check_run(out, "desk_quick", DESK_LABELS, 9, seed=5, exact=True)
