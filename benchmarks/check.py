"""Output check for one `fednorm run` directory.

Every run must finish with `manifest.json` status `complete`, list one
metrics and one layers CSV per expected strategy, and write a row per round
(per round and layer in the layers CSV). On those rows `N <= E` must hold to
rounding and `ratio` must lie in [0, 1].

At the reference seed the CSVs are compared with the committed ones in
reference/<workload>/ as well: by SHA-256 for workloads whose bytes do not
depend on the BLAS thread count, and otherwise column by column within
RTOL. Across the processes of one seed the digests must also agree; the
caller checks that with `digest`.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

REFERENCE_SEED = 0
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Relative tolerance against reference rows where BLAS threading changes the
# reduction order. Measured drift between OPENBLAS_NUM_THREADS=1 and the
# default is at most 1.3e-15 relative; a changed update rule moves values by far
# more than 1e-9.
RTOL = 1e-9
# "to rounding" for N <= E and ratio <= 1
ROUNDING = 1e-12

TEXT_COLUMNS = ("round", "strategy", "layer")


class OutputError(Exception):
    """The run's outputs are missing, malformed or wrong."""


def digest(out: Path) -> dict[str, str]:
    """SHA-256 of every CSV in a run directory, by file name."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.glob("*.csv"))}


def _rows(path: Path) -> list[dict[str, str]]:
    if not path.is_file():
        raise OutputError(f"{path.name}: missing")
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def _number(row: dict[str, str], column: str, where: str) -> float | None:
    text = row.get(column)
    if text is None:
        raise OutputError(f"{where}: no column {column}")
    if text == "":
        return None
    value = float(text)
    if not math.isfinite(value):
        raise OutputError(f"{where}: {column} is {text}")
    return value


def _check_invariants(rows: list[dict[str, str]], where: str) -> None:
    for i, row in enumerate(rows, start=2):
        at = f"{where} line {i}"
        n = _number(row, "N", at)
        e = _number(row, "E", at)
        if n is None or e is None:
            raise OutputError(f"{at}: N or E is empty")
        if n > e * (1.0 + ROUNDING):
            raise OutputError(f"{at}: N {n!r} > E {e!r}")
        if "ratio" in row:
            ratio = _number(row, "ratio", at)
            if ratio is not None and not 0.0 <= ratio <= 1.0 + ROUNDING:
                raise OutputError(f"{at}: ratio {ratio!r} outside [0, 1]")


def _check_close(got: list[dict[str, str]], want: list[dict[str, str]], where: str) -> None:
    if len(got) != len(want):
        raise OutputError(f"{where}: {len(got)} rows, reference has {len(want)}")
    for i, (g, w) in enumerate(zip(got, want), start=2):
        if list(g) != list(w):
            raise OutputError(f"{where}: columns {list(g)}, reference has {list(w)}")
        for column, text in w.items():
            at = f"{where} line {i} {column}"
            if column in TEXT_COLUMNS or text == "" or g[column] == "":
                if g[column] != text:
                    raise OutputError(f"{at}: {g[column]!r}, reference {text!r}")
                continue
            if not math.isclose(float(g[column]), float(text), rel_tol=RTOL, abs_tol=0.0):
                raise OutputError(f"{at}: {g[column]}, reference {text}")


def check_run(out: Path, workload: str, labels: tuple[str, ...], rounds: int,
              seed: int, exact: bool) -> None:
    """Raise OutputError unless `out` holds a complete, correct run.

    exact selects the SHA-256 comparison at the reference seed; otherwise
    the reference rows are compared within RTOL.
    """
    manifest_path = out / "manifest.json"
    if not manifest_path.is_file():
        raise OutputError("manifest.json: missing")
    manifest = json.loads(manifest_path.read_text())
    if manifest.get("status") != "complete":
        raise OutputError(f"manifest.json: status {manifest.get('status')!r}")
    if tuple(manifest.get("strategies", ())) != labels:
        raise OutputError(f"manifest.json: strategies {manifest.get('strategies')}")

    for label in labels:
        metrics = _rows(out / f"{label}_metrics.csv")
        layers = _rows(out / f"{label}_layers.csv")
        if [r.get("round") for r in metrics] != [str(i) for i in range(1, rounds + 1)]:
            raise OutputError(f"{label}_metrics.csv: rounds are not 1..{rounds}")
        per_round = len(layers) // rounds
        if per_round == 0 or len(layers) != per_round * rounds:
            raise OutputError(f"{label}_layers.csv: {len(layers)} rows for {rounds} rounds")
        _check_invariants(metrics, f"{label}_metrics.csv")
        _check_invariants(layers, f"{label}_layers.csv")

    if seed != REFERENCE_SEED:
        return
    ref = REFERENCE_DIR / workload
    got, want = digest(out), digest(ref)
    if sorted(got) != sorted(want):
        raise OutputError(f"files {sorted(got)}, reference has {sorted(want)}")
    for name in sorted(want):
        if exact and got[name] != want[name]:
            raise OutputError(f"{name}: SHA-256 {got[name]} != reference {want[name]}")
        if not exact:
            _check_close(_rows(out / name), _rows(ref / name), name)
