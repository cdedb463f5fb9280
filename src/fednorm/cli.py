"""Command-line front end.

    fednorm run --config exp.yaml --out results/
    fednorm run --preset mnist_noniid_unbalanced --out results/
    fednorm compare results/fedavg_metrics.csv results/fednnnn_metrics.csv
    fednorm analyze-nwda --rounds 12 --out divergence/

`run` executes every strategy in the config against the same data and seed,
writing one metrics CSV and one per-layer CSV per strategy plus a manifest.
The manifest appears with status "running" before training starts and is
rewritten with status "complete" at the end; the exit code is 0 only when
that final rewrite happened.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass, fields, replace
from importlib import resources
from pathlib import Path
from types import UnionType
from typing import get_args, get_type_hints

import numpy as np
import yaml

from .aggregate import AggregationStrategy
from .client import ClientConfig
from .data import (
    Dataset,
    DegenerateDataError,
    IdxFormatError,
    PartitionSpec,
    load_idx,
    mnist_dir,
    normalization_stats,
    normalize,
    synth_split,
)
from .errors import ConfigError, DivergenceError
from .nn import NetworkSpec
from .orchestrator import ExperimentConfig, RoundMetrics, Schedule, run_experiment
from .params import openblas_threads

METRIC_COLUMNS = [
    "round", "strategy", "N", "E", "ratio", "integrated_norm", "step_norm",
    "eval_acc_distributed", "eval_acc_averaged",
]
LAYER_COLUMNS = ["round", "strategy", "layer", "N", "E"]


# ---------------------------------------------------------------- config model

@dataclass(frozen=True)
class SynthData:
    """Gaussian-blob data drawn by `synth_split` with the schedule's seed."""

    classes: int = 10
    train_per_class: int = 200
    test_per_class: int = 200
    features: int = 20
    center_scale: float = 1.0
    components_per_class: int = 1

    def __post_init__(self) -> None:
        for name in ("classes", "train_per_class", "test_per_class", "features",
                     "components_per_class"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name}: must be >= 1, got {getattr(self, name)}")
        if not self.center_scale > 0:
            raise ConfigError(f"center_scale: must be positive, got {self.center_scale}")


@dataclass(frozen=True)
class IdxData:
    """IDX image/label files; dir may come from the environment instead."""

    dir: str | None = None
    train_images: str = "train-images-idx3-ubyte"
    train_labels: str = "train-labels-idx1-ubyte"
    test_images: str = "t10k-images-idx3-ubyte"
    test_labels: str = "t10k-labels-idx1-ubyte"
    train_limit: int | None = None

    def __post_init__(self) -> None:
        if self.train_limit is not None and self.train_limit < 1:
            raise ConfigError(f"train_limit: must be >= 1, got {self.train_limit}")


@dataclass(frozen=True)
class StrategyPlan:
    label: str
    strategy: AggregationStrategy
    client: ClientConfig


@dataclass(frozen=True)
class RunPlan:
    dataset: SynthData | IdxData
    hidden: tuple[int, ...]
    partition: PartitionSpec
    schedule: Schedule
    strategies: tuple[StrategyPlan, ...]

    def experiment(self, entry: StrategyPlan, features: int, classes: int) -> ExperimentConfig:
        """The experiment one strategy runs on data of this shape."""
        return ExperimentConfig(NetworkSpec((features, *self.hidden, classes)),
                                entry.strategy, entry.client, self.partition, self.schedule)


DATASETS = {"synth": SynthData, "idx": IdxData}
# ClientConfig fields that each strategy sets instead of the training section
PER_STRATEGY = ("mu",)


def schema(cls, omit=()) -> dict[str, type]:
    """The config fields of a dataclass and the type of each, in declaration
    order, less `omit`. An `X | None` field takes an X, so YAML null is
    rejected; leaving the field out keeps its None default."""
    hints = get_type_hints(cls)
    kinds = {f.name: hints[f.name] for f in fields(cls) if f.name not in omit}
    return {key: get_args(kind)[0] if isinstance(kind, UnionType) else kind
            for key, kind in kinds.items()}


def _require_mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected a mapping, got {type(value).__name__}")
    return value


def _reject_unknown(section: dict, allowed: set[str], path: str) -> None:
    for key in section:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}: unknown field")


def _field(section: dict, key: str, path: str, kind, default=...):
    """Fetch section[key], type-checked; `...` as default makes it required."""
    if key not in section:
        if default is ...:
            raise ConfigError(f"{path}.{key}: required field missing")
        return default
    value = section[key]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, kind) or isinstance(value, bool):
        hint = ""
        spelling = _yaml_float(value) if kind is float else None
        if spelling is not None:
            hint = f" (YAML reads this spelling as a string; write {spelling})"
        raise ConfigError(
            f"{path}.{key}: expected {kind.__name__}, got {value!r}{hint}"
        )
    return value


def _fields(section: dict, path: str, kinds: dict[str, type]) -> dict:
    """The fields of `kinds` present in section, type-checked; absent ones
    take the defaults of the dataclass they are passed to."""
    return {key: _field(section, key, path, kind)
            for key, kind in kinds.items() if key in section}


def _build(prefix: str, make, *args, **kwargs):
    """make(*args, **kwargs), with the config path prefixed to its complaint."""
    try:
        return make(*args, **kwargs)
    except ConfigError as exc:
        raise ConfigError(f"{prefix}{exc}") from None


def _yaml_float(value) -> str | None:
    """A spelling PyYAML reads as a float for a string that Python reads as a
    finite float, e.g. '1e6' -> '1.0e+6' (YAML 1.1 floats need a dot and a
    signed exponent); None for anything else."""
    if not isinstance(value, str):
        return None
    try:
        if not math.isfinite(float(value)):
            return None
    except ValueError:
        return None
    mantissa, _, exponent = value.strip().lower().partition("e")
    if "." not in mantissa:
        mantissa += ".0"
    if exponent and exponent[0] not in "+-":
        exponent = "+" + exponent
    return f"{mantissa}e{exponent}" if exponent else mantissa


def _parse_dataset(section: dict) -> SynthData | IdxData:
    kind = _field(section, "kind", "dataset", str)
    if kind not in DATASETS:
        raise ConfigError(f"dataset.kind: must be synth or idx, got {kind!r}")
    kinds = schema(DATASETS[kind])
    _reject_unknown(section, {"kind", *kinds}, "dataset")
    return _build("dataset.", DATASETS[kind], **_fields(section, "dataset", kinds))


def _parse_strategy(entry, index: int, labels_seen: dict,
                    training: ClientConfig) -> StrategyPlan:
    path = f"strategies[{index}]"
    section = _require_mapping(entry, path)
    knobs = schema(AggregationStrategy, omit=("kind",))
    own = {key: kind for key, kind in schema(ClientConfig).items() if key in PER_STRATEGY}
    _reject_unknown(section, {"kind", *knobs, *own}, path)
    kind = _field(section, "kind", path, str)
    strategy = _build(f"{path}.", AggregationStrategy, kind, **_fields(section, path, knobs))
    client = _build(f"{path}.", replace, training, **_fields(section, path, own))
    if client.mu > 0 and not strategy.proximal:
        raise ConfigError(f"{path}.mu: only fedprox takes a proximal term")
    labels_seen[kind] = labels_seen.get(kind, 0) + 1
    label = kind if labels_seen[kind] == 1 else f"{kind}_{labels_seen[kind]}"
    return StrategyPlan(label, strategy, client)


def parse_config(raw: dict) -> RunPlan:
    """Map a loaded YAML mapping onto a RunPlan.

    Every section's dataclass declares its fields and their types (see
    `schema`), checks its values and supplies the defaults of absent
    fields; every complaint names the offending field by its path, e.g.
    "strategies[1].gamma: must be in [0, 1), got 1.2".
    """
    root = _require_mapping(raw, "config")
    _reject_unknown(root, {"dataset", "network", "partition", "training", "strategies"},
                    "config")
    dataset = _parse_dataset(_require_mapping(root.get("dataset"), "dataset")
                             if "dataset" in root
                             else {"kind": "synth"})

    network = _require_mapping(root.get("network", {}), "network")
    _reject_unknown(network, {"hidden"}, "network")
    hidden = _field(network, "hidden", "network", list, [64])
    if not hidden or not all(isinstance(h, int) and not isinstance(h, bool) and h > 0
                             for h in hidden):
        raise ConfigError("network.hidden: expected a list of positive ints")

    part = _require_mapping(root.get("partition", {}), "partition")
    kinds = schema(PartitionSpec)
    _reject_unknown(part, set(kinds), "partition")
    partition_spec = _build("partition.", PartitionSpec, **_fields(part, "partition", kinds))

    training = _require_mapping(root.get("training", {}), "training")
    run_kinds, client_kinds = schema(Schedule), schema(ClientConfig, omit=PER_STRATEGY)
    _reject_unknown(training, {*run_kinds, *client_kinds}, "training")
    schedule = _build("training.", Schedule, **_fields(training, "training", run_kinds))
    client = _build("training.", ClientConfig, **_fields(training, "training", client_kinds))

    entries = root.get("strategies", [{"kind": "fedavg"}])
    if not isinstance(entries, list) or not entries:
        raise ConfigError("strategies: expected a non-empty list")
    labels_seen: dict = {}
    strategies = tuple(
        _parse_strategy(entry, i, labels_seen, client) for i, entry in enumerate(entries)
    )
    return RunPlan(dataset, tuple(hidden), partition_spec, schedule, strategies)


def available_presets() -> list[str]:
    files = resources.files("fednorm.presets")
    return sorted(p.name[:-5] for p in files.iterdir() if p.name.endswith(".yaml"))


def load_preset(name: str) -> dict:
    files = resources.files("fednorm.presets")
    target = files.joinpath(f"{name}.yaml")
    if not target.is_file():
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(available_presets())}"
        )
    return yaml.safe_load(target.read_text())


def load_config_file(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8 text: {exc.reason}") from None
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config {path} is not valid YAML: {exc}") from None
    return raw


# ------------------------------------------------------------------- data load

def _head(ds: Dataset, limit: int) -> Dataset:
    if limit >= len(ds):
        return ds
    return Dataset(ds.inputs[:limit], ds.labels[:limit], ds.class_count)


def load_data(plan: RunPlan) -> tuple[Dataset, Dataset]:
    """Materialize normalized train and test sets for a plan."""
    if isinstance(plan.dataset, SynthData):
        d = plan.dataset
        train, test = synth_split(
            d.classes, d.train_per_class, d.test_per_class, d.features,
            seed=plan.schedule.seed, center_scale=d.center_scale,
            components_per_class=d.components_per_class,
        )
    else:
        d = plan.dataset
        base = mnist_dir(d.dir)
        if base is None:
            raise ConfigError(
                "dataset.dir: no IDX directory configured and none in the environment"
            )
        train = load_idx(base / d.train_images, base / d.train_labels)
        test = load_idx(base / d.test_images, base / d.test_labels)
        if d.train_limit is not None:
            train = _head(train, d.train_limit)
    stats = normalization_stats(train)
    return normalize(train, stats), normalize(test, stats)


# ----------------------------------------------------------------- CSV writing

def _fmt(value: float | None) -> str:
    return "" if value is None else f"{value:.17g}"


def write_metrics_csv(path: Path, label: str, metrics: list[RoundMetrics]) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRIC_COLUMNS)
        for row in metrics:
            writer.writerow([
                row.round, label, _fmt(row.aggregate_norm),
                _fmt(row.mean_local_norm), _fmt(row.ratio),
                _fmt(row.integrated_norm), _fmt(row.step_norm),
                _fmt(row.eval_acc_distributed), _fmt(row.eval_acc_averaged),
            ])


def write_layers_csv(path: Path, label: str, metrics: list[RoundMetrics]) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(LAYER_COLUMNS)
        for row in metrics:
            for name, agg, mean in row.per_layer:
                writer.writerow([row.round, label, name, _fmt(agg), _fmt(mean)])


def _numeric_environment() -> dict:
    """What output bytes may depend on beyond config and seed: numpy, its BLAS,
    the BLAS thread settings (None when unset) and the thread count the BLAS
    reports (None when it cannot say); no timestamps."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # numpy < 1.26 only prints its config
        blas = {}
    threads = {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    return {"numpy": np.__version__, "threads": threads, "blas_threads": openblas_threads(),
            "blas": {"name": blas.get("name"), "version": blas.get("version")}}


def _write_manifest(out: Path, payload: dict) -> None:
    (out / "manifest.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


# ----------------------------------------------------------------- subcommands

def cmd_run(args) -> int:
    raw = load_preset(args.preset) if args.preset else load_config_file(args.config)
    plan = parse_config(raw)
    overrides = {name: value for name, value in (("seed", args.seed), ("workers", args.workers))
                 if value is not None}
    plan = replace(plan, schedule=_build("--", replace, plan.schedule, **overrides))
    if args.strategies is not None:
        wanted = [s.strip() for s in args.strategies.split(",") if s.strip()]
        have = {e.label: e for e in plan.strategies}
        missing = [w for w in wanted if w not in have]
        if not wanted:
            raise ConfigError("--strategies: names no strategy")
        repeated = sorted({w for w in wanted if wanted.count(w) > 1})
        if repeated:
            raise ConfigError(f"--strategies: {', '.join(repeated)} named more than once")
        if missing:
            raise ConfigError(
                f"--strategies: {', '.join(missing)} not in this config "
                f"(available: {', '.join(have)})"
            )
        plan = replace(plan, strategies=tuple(have[w] for w in wanted))

    train, test = load_data(plan)
    features = train.inputs.shape[1]
    classes = train.class_count

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "status": "running",
        "seed": plan.schedule.seed,
        "rounds": plan.schedule.rounds,
        "strategies": [e.label for e in plan.strategies],
        "environment": _numeric_environment(),
        "files": {},
    }
    _write_manifest(out, manifest)

    files: dict = {}
    try:
        for entry in plan.strategies:
            try:
                result = run_experiment(train, test, plan.experiment(entry, features, classes))
            except DivergenceError as exc:
                raise DivergenceError(f"{entry.label} {exc}") from None
            metrics_name = f"{entry.label}_metrics.csv"
            layers_name = f"{entry.label}_layers.csv"
            write_metrics_csv(out / metrics_name, entry.label, result.metrics)
            write_layers_csv(out / layers_name, entry.label, result.metrics)
            files[entry.label] = {"metrics": metrics_name, "layers": layers_name}
            final = result.metrics[-1]
            shown = final.eval_acc_averaged
            extra = "" if shown is None else f" (averaged {shown:.4f})"
            print(f"{entry.label}: {plan.schedule.rounds} rounds, "
                  f"final accuracy {final.eval_acc_distributed:.4f}{extra}")
    except Exception:
        _write_manifest(out, {**manifest, "status": "failed", "files": files})
        raise
    _write_manifest(out, {**manifest, "status": "complete", "files": files})
    return 0


def _number(path: str, index: int, row: dict, column: str) -> float | None:
    """The float in row[column], None for an empty optional cell; a cell that
    does not parse raises ConfigError naming the file, row (counted from 1
    after the header) and column."""
    text = row[column]
    if not text and column in ("ratio", "eval_acc_averaged"):
        return None
    try:
        return float(text)
    except (TypeError, ValueError):
        raise ConfigError(
            f"{path}: row {index}, column {column}: not a number: {text!r}") from None


def _read_metrics_csv(path: str) -> list[dict]:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames != METRIC_COLUMNS:
                raise ConfigError(
                    f"{path}: not a metrics CSV (columns {reader.fieldnames})"
                )
            rows = list(reader)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc.reason}") from None
    if not rows:
        raise ConfigError(f"{path}: metrics CSV has no rows")
    return rows


def cmd_compare(args) -> int:
    summary = []
    for path in args.metrics:
        rows = _read_metrics_csv(path)
        last = len(rows)
        final = rows[-1]
        accs = [_number(path, i, r, "eval_acc_distributed") for i, r in enumerate(rows, 1)]
        summary.append({
            "strategy": final["strategy"],
            "rounds": final["round"],
            "final_acc": accs[-1],
            "final_acc_averaged": _number(path, last, final, "eval_acc_averaged"),
            "best_acc": max(accs),
            "final_ratio": _number(path, last, final, "ratio"),
            "integrated_norm": _number(path, last, final, "integrated_norm"),
        })
    header = (f"{'strategy':<14} {'rounds':>6} {'final_acc':>10} "
              f"{'avg_acc':>10} {'best_acc':>10} {'N/E':>8} {'path_len':>10}")
    print(header)
    print("-" * len(header))
    for s in summary:
        avg = "" if s["final_acc_averaged"] is None else f"{s['final_acc_averaged']:.4f}"
        ratio = "" if s["final_ratio"] is None else f"{s['final_ratio']:.4f}"
        print(f"{s['strategy']:<14} {s['rounds']:>6} {s['final_acc']:>10.4f} "
              f"{avg:>10} {s['best_acc']:>10.4f} {ratio:>8} "
              f"{s['integrated_norm']:>10.3f}")
    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["strategy", "rounds", "final_acc", "final_acc_averaged",
                             "best_acc", "final_ratio", "integrated_norm"])
            for s in summary:
                writer.writerow([
                    s["strategy"], s["rounds"], _fmt(s["final_acc"]),
                    _fmt(s["final_acc_averaged"]), _fmt(s["best_acc"]),
                    _fmt(s["final_ratio"]), _fmt(s["integrated_norm"]),
                ])
    return 0


def cmd_analyze_nwda(args) -> int:
    """Run the same small task three ways (single client, IID, non-IID) and
    tabulate N/E per round; label skew should show the smallest ratios."""
    schedule = _build("--", Schedule, rounds=args.rounds, seed=args.seed,
                      workers=args.workers)
    base = {
        "dataset": {"kind": "synth", "classes": 10, "train_per_class": 50,
                    "test_per_class": 20, "features": 20, "center_scale": 0.5,
                    "components_per_class": 2},
        "network": {"hidden": [64]},
        "strategies": [{"kind": "fedavg"}],
    }
    scenarios = [
        ("k1", {"label_mode": "iid", "size_mode": "balanced"}, 1),
        ("iid", {"label_mode": "iid", "size_mode": "balanced"}, 10),
        ("noniid", {"label_mode": "noniid", "size_mode": "balanced",
                    "classes_per_client": 2}, 10),
    ]
    columns = {}
    for name, part, clients in scenarios:
        plan = replace(parse_config({**base, "partition": part}),
                       schedule=replace(schedule, clients=clients))
        train, test = load_data(plan)
        result = run_experiment(train, test, plan.experiment(
            plan.strategies[0], train.inputs.shape[1], train.class_count))
        columns[name] = result.metrics
        if args.out:
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            write_metrics_csv(out / f"{name}_metrics.csv", name, result.metrics)

    print(f"{'round':>5} {'k1':>8} {'iid':>8} {'noniid':>8}")
    for i in range(args.rounds):
        cells = [f"{columns[n][i].ratio:8.4f}" for n in ("k1", "iid", "noniid")]
        print(f"{i + 1:>5} " + " ".join(cells))
    means = {n: sum(r.ratio for r in columns[n]) / args.rounds
             for n in ("k1", "iid", "noniid")}
    print(f"\nmean N/E: k1 {means['k1']:.4f}, iid {means['iid']:.4f}, "
          f"noniid {means['noniid']:.4f}")
    print("smaller N/E means more divergence cancellation between clients; "
          "a single client always has N = E.")
    return 0


# ------------------------------------------------------------------ entry point

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fednorm",
        description="Federated aggregation laboratory with per-round "
                    "weight-divergence analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run every strategy in a config")
    src = run.add_mutually_exclusive_group(required=True)
    src.add_argument("--config", help="YAML experiment file")
    src.add_argument("--preset", help="named built-in config; see --preset help")
    run.add_argument("--out", required=True, help="output directory")
    run.add_argument("--seed", type=int, default=None, help="override training.seed")
    run.add_argument("--workers", type=int, default=None,
                     help="override training.workers")
    run.add_argument("--strategies", default=None,
                     help="comma-separated subset of the config's strategy labels")
    run.set_defaults(func=cmd_run)

    comp = sub.add_parser("compare", help="summarize metrics CSVs side by side")
    comp.add_argument("metrics", nargs="+", help="metrics CSV files from `run`")
    comp.add_argument("--out", default=None, help="also write the summary as CSV")
    comp.set_defaults(func=cmd_compare)

    ana = sub.add_parser("analyze-nwda",
                         help="contrast update divergence for one client vs "
                              "IID vs non-IID")
    ana.add_argument("--rounds", type=int, default=12)
    ana.add_argument("--seed", type=int, default=0)
    ana.add_argument("--workers", type=int, default=1)
    ana.add_argument("--out", default=None, help="directory for the three CSVs")
    ana.set_defaults(func=cmd_analyze_nwda)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DivergenceError, IdxFormatError, DegenerateDataError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
