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
import os
import sys
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

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
from .errors import (AT_LEAST_ONE, POSITIVE, ConfigError, DivergenceError, check_fields,
                     field_types)
from .nn import NetworkSpec
from .orchestrator import ExperimentConfig, RoundMetrics, Schedule, run_experiment
from .params import openblas_kernel, openblas_threads

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
        check_fields(self, classes=AT_LEAST_ONE, train_per_class=AT_LEAST_ONE,
                     test_per_class=AT_LEAST_ONE, features=AT_LEAST_ONE,
                     center_scale=POSITIVE, components_per_class=AT_LEAST_ONE)


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
        check_fields(self, train_limit=AT_LEAST_ONE)


@dataclass(frozen=True)
class RunPlan:
    dataset: SynthData | IdxData
    hidden: tuple[int, ...]
    partition: PartitionSpec
    schedule: Schedule
    client: ClientConfig
    strategies: dict[str, AggregationStrategy]  # by label, in config order

    def experiment(self, strategy: AggregationStrategy, features: int,
                   classes: int) -> ExperimentConfig:
        """The experiment one strategy runs on data of this shape."""
        return ExperimentConfig(NetworkSpec((features, *self.hidden, classes)),
                                strategy, self.client, self.partition, self.schedule)


DATASETS = {"synth": SynthData, "idx": IdxData}


def _require_mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected a mapping, got {type(value).__name__}")
    return value


def _reject_unknown(section: dict, allowed, path: str) -> None:
    for key in section:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}: unknown field")


def _kind(section: dict, path: str):
    if "kind" not in section:
        raise ConfigError(f"{path}.kind: required field missing")
    return section["kind"]


def _present(section: dict, path: str, cls) -> dict:
    """The fields of cls that section holds, for cls to check. YAML null is
    rejected: an `X | None` field keeps its None default by being left out."""
    kinds = field_types(cls)
    present = {key: value for key, value in section.items() if key in kinds}
    for key, value in present.items():
        if value is None:
            raise ConfigError(f"{path}.{key}: expected {kinds[key][0].__name__}, got None")
    return present


def _build(prefix: str, make, *args, **kwargs):
    """make(*args, **kwargs), with the config path prefixed to its complaint."""
    try:
        return make(*args, **kwargs)
    except ConfigError as exc:
        raise ConfigError(f"{prefix}{exc}") from None


def _parse_dataset(section: dict) -> SynthData | IdxData:
    kind = _kind(section, "dataset")
    if not isinstance(kind, str) or kind not in DATASETS:
        raise ConfigError(f"dataset.kind: must be synth or idx, got {kind!r}")
    cls = DATASETS[kind]
    _reject_unknown(section, {"kind", *field_types(cls)}, "dataset")
    return _build("dataset.", cls, **_present(section, "dataset", cls))


def _parse_strategy(entry, path: str) -> AggregationStrategy:
    section = _require_mapping(entry, path)
    _reject_unknown(section, field_types(AggregationStrategy), path)
    _kind(section, path)
    return _build(f"{path}.", AggregationStrategy,
                  **_present(section, path, AggregationStrategy))


def parse_config(raw: dict) -> RunPlan:
    """Map a loaded YAML mapping onto a RunPlan.

    Each section's present keys go to its dataclass, which checks every
    field's type, range and finiteness (`errors.check_fields`) and supplies
    the defaults of absent fields; every complaint names the offending
    field by its path, e.g. "strategies[1].gamma: must be in [0, 1), got 1.2".
    `training` gives the one ClientConfig every strategy's clients use, and
    each `strategies` entry one AggregationStrategy, its `mu` included,
    labelled by its kind (kind_2, kind_3, ... when the kind repeats).
    """
    root = _require_mapping(raw, "config")
    _reject_unknown(root, {"dataset", "network", "partition", "training", "strategies"},
                    "config")
    dataset = _parse_dataset(_require_mapping(root.get("dataset"), "dataset")
                             if "dataset" in root
                             else {"kind": "synth"})

    network = _require_mapping(root.get("network", {}), "network")
    _reject_unknown(network, {"hidden"}, "network")
    hidden = network.get("hidden", [64])
    if not isinstance(hidden, list) or not hidden or not all(
            isinstance(h, int) and not isinstance(h, bool) and h > 0 for h in hidden):
        raise ConfigError("network.hidden: expected a list of positive ints")

    part = _require_mapping(root.get("partition", {}), "partition")
    _reject_unknown(part, field_types(PartitionSpec), "partition")
    partition_spec = _build("partition.", PartitionSpec,
                            **_present(part, "partition", PartitionSpec))

    training = _require_mapping(root.get("training", {}), "training")
    _reject_unknown(training, {*field_types(Schedule), *field_types(ClientConfig)}, "training")
    schedule = _build("training.", Schedule, **_present(training, "training", Schedule))
    client = _build("training.", ClientConfig, **_present(training, "training", ClientConfig))

    entries = root.get("strategies", [{"kind": "fedavg"}])
    if not isinstance(entries, list) or not entries:
        raise ConfigError("strategies: expected a non-empty list")
    strategies: dict[str, AggregationStrategy] = {}
    for i, entry in enumerate(entries):
        strategy = _parse_strategy(entry, f"strategies[{i}]")
        repeat = sum(s.kind == strategy.kind for s in strategies.values())
        strategies[f"{strategy.kind}_{repeat + 1}" if repeat else strategy.kind] = strategy
    return RunPlan(dataset, tuple(hidden), partition_spec, schedule, client, strategies)


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
        # one line, not PyYAML's snippets: the problem, at the start of the
        # construct it broke when PyYAML names one, else where it was found
        mark = getattr(exc, "context_mark", None) or getattr(exc, "problem_mark", None)
        where = f"line {mark.line + 1}, column {mark.column + 1}: " if mark else ""
        problem = " ".join(str(getattr(exc, "problem", None) or exc).split())
        raise ConfigError(f"config {path} is not valid YAML: {where}{problem}") from None
    return raw


# ------------------------------------------------------------------- data load

def load_data(plan: RunPlan) -> tuple[Dataset, Dataset]:
    """Materialize normalized train and test sets for a plan. Both are
    normalized in place, in arrays this function made, with the train
    set's stats."""
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
        train = load_idx(base / d.train_images, base / d.train_labels, d.train_limit)
        test = load_idx(base / d.test_images, base / d.test_labels)
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
    the BLAS thread settings (None when unset), and the thread count and
    kernel the BLAS reports (None when it cannot say); no timestamps."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # numpy < 1.26 only prints its config
        blas = {}
    threads = {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    return {"numpy": np.__version__, "threads": threads, "blas_threads": openblas_threads(),
            "blas_kernel": openblas_kernel(),
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
        missing = [w for w in wanted if w not in plan.strategies]
        if not wanted:
            raise ConfigError("--strategies: names no strategy")
        repeated = sorted({w for w in wanted if wanted.count(w) > 1})
        if repeated:
            raise ConfigError(f"--strategies: {', '.join(repeated)} named more than once")
        if missing:
            raise ConfigError(
                f"--strategies: {', '.join(missing)} not in this config "
                f"(available: {', '.join(plan.strategies)})"
            )
        plan = replace(plan, strategies={w: plan.strategies[w] for w in wanted})

    train, test = load_data(plan)
    features = train.inputs.shape[1]
    classes = train.class_count

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "status": "running",
        "seed": plan.schedule.seed,
        "rounds": plan.schedule.rounds,
        "strategies": list(plan.strategies),
        "environment": _numeric_environment(),
        "files": {},
    }
    _write_manifest(out, manifest)

    files: dict = {}
    try:
        for label, strategy in plan.strategies.items():
            try:
                # only the metrics: the final parameters would stay alive
                # while the next strategy trains
                metrics = run_experiment(train, test,
                                         plan.experiment(strategy, features, classes)).metrics
            except DivergenceError as exc:
                raise DivergenceError(f"{label} {exc}") from None
            metrics_name = f"{label}_metrics.csv"
            layers_name = f"{label}_layers.csv"
            write_metrics_csv(out / metrics_name, label, metrics)
            write_layers_csv(out / layers_name, label, metrics)
            files[label] = {"metrics": metrics_name, "layers": layers_name}
            final = metrics[-1]
            shown = final.eval_acc_averaged
            extra = "" if shown is None else f" (averaged {shown:.4f})"
            print(f"{label}: {plan.schedule.rounds} rounds, "
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
    plan = replace(parse_config({
        "dataset": {"kind": "synth", "classes": 10, "train_per_class": 50,
                    "test_per_class": 20, "features": 20, "center_scale": 0.5,
                    "components_per_class": 2},
        "network": {"hidden": [64]},
        "strategies": [{"kind": "fedavg"}],
    }), schedule=schedule)
    train, test = load_data(plan)
    config = plan.experiment(plan.strategies["fedavg"], train.inputs.shape[1],
                             train.class_count)
    scenarios = [
        ("k1", PartitionSpec("iid", "balanced"), 1),
        ("iid", PartitionSpec("iid", "balanced"), 10),
        ("noniid", PartitionSpec("noniid", "balanced", classes_per_client=2), 10),
    ]
    columns = {}
    for name, part, clients in scenarios:
        result = run_experiment(train, test, replace(
            config, partition=part, schedule=replace(schedule, clients=clients)))
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
