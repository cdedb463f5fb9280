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
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

import numpy as np
import yaml

from .aggregate import AggregationStrategy
from .client import WEIGHT_MODES, ClientConfig
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
from .orchestrator import ExperimentConfig, RoundMetrics, run_experiment

METRIC_COLUMNS = [
    "round", "strategy", "N", "E", "ratio", "integrated_norm", "step_norm",
    "eval_acc_distributed", "eval_acc_averaged",
]
LAYER_COLUMNS = ["round", "strategy", "layer", "N", "E"]


# ---------------------------------------------------------------- config model

@dataclass(frozen=True)
class SynthData:
    classes: int
    train_per_class: int
    test_per_class: int
    features: int
    center_scale: float
    components_per_class: int


@dataclass(frozen=True)
class IdxData:
    dir: str | None
    train_images: str
    train_labels: str
    test_images: str
    test_labels: str
    train_limit: int | None


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
    rounds: int
    clients: int
    participation: float
    weight_mode: str
    eval_dual: bool
    seed: int
    workers: int
    strategies: tuple[StrategyPlan, ...]


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
    if kind is not None and (not isinstance(value, kind) or isinstance(value, bool)):
        hint = ""
        spelling = _yaml_float(value) if kind is float else None
        if spelling is not None:
            hint = f" (YAML reads this spelling as a string; write {spelling})"
        raise ConfigError(
            f"{path}.{key}: expected {kind.__name__}, got {value!r}{hint}"
        )
    return value


def _fields(section: dict, path: str, **kinds) -> dict:
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


def _positive(value, path: str, minimum=1):
    if value < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}, got {value}")
    return value


def _parse_dataset(section: dict) -> SynthData | IdxData:
    kind = _field(section, "kind", "dataset", str)
    if kind == "synth":
        _reject_unknown(section, {
            "kind", "classes", "train_per_class", "test_per_class", "features",
            "center_scale", "components_per_class",
        }, "dataset")
        return SynthData(
            classes=_positive(_field(section, "classes", "dataset", int, 10), "dataset.classes"),
            train_per_class=_positive(
                _field(section, "train_per_class", "dataset", int, 200),
                "dataset.train_per_class"),
            test_per_class=_positive(
                _field(section, "test_per_class", "dataset", int, 200),
                "dataset.test_per_class"),
            features=_positive(_field(section, "features", "dataset", int, 20), "dataset.features"),
            center_scale=_field(section, "center_scale", "dataset", float, 1.0),
            components_per_class=_positive(
                _field(section, "components_per_class", "dataset", int, 1),
                "dataset.components_per_class"),
        )
    if kind == "idx":
        _reject_unknown(section, {
            "kind", "dir", "train_images", "train_labels", "test_images",
            "test_labels", "train_limit",
        }, "dataset")
        limit = _field(section, "train_limit", "dataset", int, None)
        if limit is not None:
            _positive(limit, "dataset.train_limit")
        return IdxData(
            dir=_field(section, "dir", "dataset", str, None),
            train_images=_field(section, "train_images", "dataset", str,
                                "train-images-idx3-ubyte"),
            train_labels=_field(section, "train_labels", "dataset", str,
                                "train-labels-idx1-ubyte"),
            test_images=_field(section, "test_images", "dataset", str,
                               "t10k-images-idx3-ubyte"),
            test_labels=_field(section, "test_labels", "dataset", str,
                               "t10k-labels-idx1-ubyte"),
            train_limit=limit,
        )
    raise ConfigError(f"dataset.kind: must be synth or idx, got {kind!r}")


def _parse_strategy(entry, index: int, labels_seen: dict,
                    training: ClientConfig) -> StrategyPlan:
    path = f"strategies[{index}]"
    section = _require_mapping(entry, path)
    _reject_unknown(section, {"kind", "beta", "gamma", "epsilon", "mu"}, path)
    kind = _field(section, "kind", path, str)
    strategy = _build(f"{path}.", AggregationStrategy, kind,
                      **_fields(section, path, beta=float, gamma=float, epsilon=float))
    client = _build(f"{path}.", replace, training, **_fields(section, path, mu=float))
    if client.mu > 0 and not strategy.proximal:
        raise ConfigError(f"{path}.mu: only fedprox takes a proximal term")
    labels_seen[kind] = labels_seen.get(kind, 0) + 1
    label = kind if labels_seen[kind] == 1 else f"{kind}_{labels_seen[kind]}"
    return StrategyPlan(label, strategy, client)


def parse_config(raw: dict) -> RunPlan:
    """Map a loaded YAML mapping onto a RunPlan.

    The strategy, client and partition dataclasses check their own values;
    every complaint names the offending field by its path, e.g.
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
    _reject_unknown(part, {"label_mode", "size_mode", "classes_per_client",
                           "power_exponent"}, "partition")
    partition_spec = _build("partition.", PartitionSpec, **_fields(
        part, "partition", label_mode=str, size_mode=str, classes_per_client=int,
        power_exponent=float))

    training = _require_mapping(root.get("training", {}), "training")
    _reject_unknown(training, {
        "rounds", "clients", "participation", "learning_rate", "batch_size",
        "local_epochs", "weight_decay", "weight_mode", "eval_dual", "seed",
        "workers",
    }, "training")
    rounds = _positive(_field(training, "rounds", "training", int, 10),
                       "training.rounds")
    clients = _positive(_field(training, "clients", "training", int, 10),
                        "training.clients")
    participation = _field(training, "participation", "training", float, 1.0)
    if not 0.0 < participation <= 1.0:
        raise ConfigError(
            f"training.participation: must be in (0, 1], got {participation}"
        )
    client = _build("training.", ClientConfig, **_fields(
        training, "training", learning_rate=float, batch_size=int, local_epochs=int,
        weight_decay=float))
    weight_mode = _field(training, "weight_mode", "training", str, "uniform")
    if weight_mode not in WEIGHT_MODES:
        raise ConfigError(
            f"training.weight_mode: must be one of {WEIGHT_MODES}, got {weight_mode!r}"
        )
    seed = _field(training, "seed", "training", int, 0)
    if seed < 0:
        raise ConfigError("training.seed: must be non-negative")

    entries = root.get("strategies", [{"kind": "fedavg"}])
    if not isinstance(entries, list) or not entries:
        raise ConfigError("strategies: expected a non-empty list")
    labels_seen: dict = {}
    strategies = tuple(
        _parse_strategy(entry, i, labels_seen, client) for i, entry in enumerate(entries)
    )

    return RunPlan(
        dataset=dataset,
        hidden=tuple(hidden),
        partition=partition_spec,
        rounds=rounds,
        clients=clients,
        participation=participation,
        weight_mode=weight_mode,
        eval_dual=_field(training, "eval_dual", "training", bool, True),
        seed=seed,
        workers=_positive(_field(training, "workers", "training", int, 1),
                          "training.workers"),
        strategies=strategies,
    )


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
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
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
            seed=plan.seed, center_scale=d.center_scale,
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


def build_experiment(plan: RunPlan, entry: StrategyPlan,
                     features: int, classes: int) -> ExperimentConfig:
    return ExperimentConfig(
        network=NetworkSpec((features, *plan.hidden, classes)),
        strategy=entry.strategy,
        client=entry.client,
        partition=plan.partition,
        rounds=plan.rounds,
        client_count=plan.clients,
        participation=plan.participation,
        weight_mode=plan.weight_mode,
        eval_dual=plan.eval_dual,
        seed=plan.seed,
        workers=plan.workers,
    )


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
    """What output bytes may depend on beyond config and seed: numpy, its BLAS
    and the BLAS thread settings (None when unset); no timestamps."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # numpy < 1.26 only prints its config
        blas = {}
    threads = {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    return {"numpy": np.__version__, "threads": threads,
            "blas": {"name": blas.get("name"), "version": blas.get("version")}}


def _write_manifest(out: Path, payload: dict) -> None:
    (out / "manifest.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


# ----------------------------------------------------------------- subcommands

def cmd_run(args) -> int:
    raw = load_preset(args.preset) if args.preset else load_config_file(args.config)
    plan = parse_config(raw)
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError("--seed: must be non-negative")
        plan = replace(plan, seed=args.seed)
    if args.workers is not None:
        if args.workers < 1:
            raise ConfigError("--workers: must be >= 1")
        plan = replace(plan, workers=args.workers)
    if args.strategies:
        wanted = [s.strip() for s in args.strategies.split(",") if s.strip()]
        have = {e.label: e for e in plan.strategies}
        missing = [w for w in wanted if w not in have]
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
        "seed": plan.seed,
        "rounds": plan.rounds,
        "strategies": [e.label for e in plan.strategies],
        "environment": _numeric_environment(),
        "files": {},
    }
    _write_manifest(out, manifest)

    files: dict = {}
    try:
        for entry in plan.strategies:
            config = build_experiment(plan, entry, features, classes)
            try:
                result = run_experiment(train, test, config)
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
            print(f"{entry.label}: {plan.rounds} rounds, "
                  f"final accuracy {final.eval_acc_distributed:.4f}{extra}")
    except Exception:
        _write_manifest(out, {**manifest, "status": "failed", "files": files})
        raise
    _write_manifest(out, {**manifest, "status": "complete", "files": files})
    return 0


def _read_metrics_csv(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != METRIC_COLUMNS:
            raise ConfigError(
                f"{path}: not a metrics CSV (columns {reader.fieldnames})"
            )
        rows = list(reader)
    if not rows:
        raise ConfigError(f"{path}: metrics CSV has no rows")
    return rows


def cmd_compare(args) -> int:
    summary = []
    for path in args.metrics:
        rows = _read_metrics_csv(path)
        final = rows[-1]
        accs = [float(r["eval_acc_distributed"]) for r in rows]
        summary.append({
            "strategy": final["strategy"],
            "rounds": final["round"],
            "final_acc": float(final["eval_acc_distributed"]),
            "final_acc_averaged": (float(final["eval_acc_averaged"])
                                   if final["eval_acc_averaged"] else None),
            "best_acc": max(accs),
            "final_ratio": float(final["ratio"]) if final["ratio"] else None,
            "integrated_norm": float(final["integrated_norm"]),
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
    if args.rounds < 1:
        raise ConfigError("--rounds: must be >= 1")
    if args.seed < 0:
        raise ConfigError("--seed: must be non-negative")
    base = {
        "dataset": {"kind": "synth", "classes": 10, "train_per_class": 50,
                    "test_per_class": 20, "features": 20, "center_scale": 0.5,
                    "components_per_class": 2},
        "network": {"hidden": [64]},
        "training": {"rounds": args.rounds, "clients": 10, "seed": args.seed,
                     "workers": args.workers},
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
        raw = {**base, "partition": part,
               "training": {**base["training"], "clients": clients}}
        plan = parse_config(raw)
        train, test = load_data(plan)
        config = build_experiment(plan, plan.strategies[0],
                                  train.inputs.shape[1], train.class_count)
        result = run_experiment(train, test, config)
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
            FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
