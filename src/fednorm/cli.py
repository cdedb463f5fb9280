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
import re
import sys
from dataclasses import MISSING, dataclass, fields, replace
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
# compare's summary: each column's CSV name, table heading, table alignment
# and width, and the format of its numbers ("" for a text column)
SUMMARY_COLUMNS = [
    ("strategy", "strategy", "<14", ""), ("rounds", "rounds", ">6", ""),
    ("final_acc", "final_acc", ">10", ".4f"), ("final_acc_averaged", "avg_acc", ">10", ".4f"),
    ("best_acc", "best_acc", ">10", ".4f"), ("final_ratio", "N/E", ">8", ".4f"),
    ("integrated_norm", "path_len", ">10", ".3f"),
]


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


def _build(prefix: str, make, *args, **kwargs):
    """make(*args, **kwargs), with the config path prefixed to its complaint."""
    try:
        return make(*args, **kwargs)
    except ConfigError as exc:
        raise ConfigError(f"{prefix}{exc}") from None


def _section(value, path: str, *classes, admit=(), kinds=None) -> list:
    """Each of classes built from the config section `value` at `path`, the
    fields it holds going to each class that has them; given kinds, the one
    class that its `kind` key names instead. Checked in this order: a value
    that is not a mapping, a missing or unknown kind, a key that no class
    has and admit does not hold, a field with no default left out, a YAML
    null (an `X | None` field keeps its None default by being left out),
    and each class's own complaint, the path put before each."""
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected a mapping, got {type(value).__name__}")
    if kinds is not None:
        if "kind" not in value:
            raise ConfigError(f"{path}.kind: required field missing")
        kind = value["kind"]
        if not isinstance(kind, str) or kind not in kinds:
            raise ConfigError(f"{path}.kind: must be {' or '.join(kinds)}, got {kind!r}")
        classes, admit = (kinds[kind],), ("kind",)
    for key in value:
        if key not in admit and not any(key in field_types(cls) for cls in classes):
            raise ConfigError(f"{path}.{key}: unknown field")
    built = []
    for cls in classes:
        for f in fields(cls):
            if f.name not in value and f.default is MISSING and f.default_factory is MISSING:
                raise ConfigError(f"{path}.{f.name}: required field missing")
        types = field_types(cls)
        present = {key: item for key, item in value.items() if key in types}
        for key, item in present.items():
            if item is None:
                raise ConfigError(f"{path}.{key}: expected {types[key][0].__name__}, got None")
        built.append(_build(f"{path}.", cls, **present))
    return built


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
    _section(raw, "config", admit=("dataset", "network", "partition", "training", "strategies"))
    (dataset,) = _section(raw.get("dataset", {"kind": "synth"}), "dataset", kinds=DATASETS)

    network = raw.get("network", {})
    _section(network, "network", admit=("hidden",))
    hidden = network.get("hidden", [64])
    if not isinstance(hidden, list) or not hidden or not all(
            isinstance(h, int) and not isinstance(h, bool) and h > 0 for h in hidden):
        raise ConfigError("network.hidden: expected a list of positive ints")

    (partition_spec,) = _section(raw.get("partition", {}), "partition", PartitionSpec)
    schedule, client = _section(raw.get("training", {}), "training", Schedule, ClientConfig)

    entries = raw.get("strategies", [{"kind": "fedavg"}])
    if not isinstance(entries, list) or not entries:
        raise ConfigError("strategies: expected a non-empty list")
    strategies: dict[str, AggregationStrategy] = {}
    for i, entry in enumerate(entries):
        (strategy,) = _section(entry, f"strategies[{i}]", AggregationStrategy)
        repeat = sum(s.kind == strategy.kind for s in strategies.values())
        strategies[f"{strategy.kind}_{repeat + 1}" if repeat else strategy.kind] = strategy
    return RunPlan(dataset, tuple(hidden), partition_spec, schedule, client, strategies)


class _ConfigLoader(yaml.SafeLoader):
    """PyYAML's safe loader, which also reads an exponent float with no dot
    or an unsigned exponent (1e-3, 1.0e9: YAML 1.2's spelling, a string in
    YAML 1.1) as a float; yaml.SafeLoader itself is left as it is."""


_ConfigLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)[eE][-+]?[0-9]+$"), list("-+.0123456789"))


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
    return yaml.load(target.read_text(), _ConfigLoader)


def load_config_file(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8 text: {exc.reason}") from None
    try:
        raw = yaml.load(text, _ConfigLoader)
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


def _write_csv(path, header: list[str], rows) -> None:
    """A CSV file of header, then rows; each float or None cell is written by _fmt."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_fmt(cell) if isinstance(cell, float | None) else cell for cell in row]
                         for row in rows)


def write_metrics_csv(path: Path, label: str, metrics: list[RoundMetrics]) -> None:
    _write_csv(path, METRIC_COLUMNS, ([
        row.round, label, row.aggregate_norm, row.mean_local_norm, row.ratio,
        row.integrated_norm, row.step_norm, row.eval_acc_distributed, row.eval_acc_averaged,
    ] for row in metrics))


def write_layers_csv(path: Path, label: str, metrics: list[RoundMetrics]) -> None:
    _write_csv(path, LAYER_COLUMNS, ([row.round, label, name, agg, mean]
                                     for row in metrics for name, agg, mean in row.per_layer))


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


def _summary_row(path: str) -> list:
    """The summary of one metrics CSV, a cell per SUMMARY_COLUMNS entry."""
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
    last = len(rows)
    final = rows[-1]
    accs = [_number(path, i, r, "eval_acc_distributed") for i, r in enumerate(rows, 1)]
    return [final["strategy"], final["round"], accs[-1],
            _number(path, last, final, "eval_acc_averaged"), max(accs),
            _number(path, last, final, "ratio"), _number(path, last, final, "integrated_norm")]


def cmd_compare(args) -> int:
    summary = [_summary_row(path) for path in args.metrics]
    header = " ".join(f"{heading:{width}}" for _, heading, width, _ in SUMMARY_COLUMNS)
    print(header)
    print("-" * len(header))
    for row in summary:
        print(" ".join(f"{'' if value is None else format(value, number):{width}}"
                       for value, (_, _, width, number) in zip(row, SUMMARY_COLUMNS)))
    if args.out:
        _write_csv(args.out, [name for name, *_ in SUMMARY_COLUMNS], summary)
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
