"""CLI tests: config validation with field-path messages, preset integrity,
CSV/manifest contracts, and byte-identical reruns."""

import csv
import dataclasses
import json
import gc
import math
import re
import struct
import typing
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
import yaml

import fednorm.cli as cli
from fednorm.aggregate import AggregationStrategy
from fednorm.cli import (
    METRIC_COLUMNS,
    IdxData,
    SynthData,
    available_presets,
    load_preset,
    main,
    parse_config,
)
from fednorm.client import ClientConfig
from fednorm.data import PartitionSpec
from fednorm.errors import ConfigError
from fednorm.orchestrator import Schedule
from fednorm.params import openblas_kernel
from oracles import cli_process
from test_server_thread import diverging_config

SMALL = {
    "dataset": {"kind": "synth", "classes": 3, "train_per_class": 20,
                "test_per_class": 10, "features": 5, "center_scale": 0.5,
                "components_per_class": 2},
    "network": {"hidden": [8]},
    "partition": {"label_mode": "noniid", "size_mode": "unbalanced",
                  "classes_per_client": 2},
    "training": {"rounds": 2, "clients": 3, "batch_size": 16,
                 "local_epochs": 2, "seed": 1},
    "strategies": [
        {"kind": "fedavg"},
        {"kind": "fednnnn", "beta": 0.7, "gamma": 0.8},
    ],
}


def write_config(tmp_path, overrides=None, name="exp.yaml"):
    raw = yaml.safe_load(yaml.safe_dump(SMALL))
    if overrides:
        raw.update(overrides)
    path = tmp_path / name
    path.write_text(yaml.safe_dump(raw))
    return path


# -------------------------------------------------------------- config parsing

def test_parse_full_config():
    plan = parse_config(SMALL)
    assert plan.schedule.rounds == 2
    assert plan.schedule.clients == 3
    assert plan.hidden == (8,)
    assert plan.partition.label_mode == "noniid"
    assert list(plan.strategies) == ["fedavg", "fednnnn"]
    assert plan.strategies["fednnnn"].beta == 0.7


def test_parse_minimal_config_uses_defaults():
    plan = parse_config({})
    assert plan.schedule.rounds == 10
    assert plan.schedule.clients == 10
    assert plan.hidden == (64,)
    assert plan.schedule.weight_mode == "uniform"
    assert list(plan.strategies) == ["fedavg"]


def test_unknown_field_is_named():
    with pytest.raises(ConfigError, match="training.leraning_rate: unknown field"):
        parse_config({"training": {"leraning_rate": 0.05}})
    with pytest.raises(ConfigError, match="dataset.noise: unknown field"):
        parse_config({"dataset": {"kind": "synth", "noise": 1.0}})
    with pytest.raises(ConfigError, match="training.eval_dual: unknown field"):
        parse_config({"training": {"eval_dual": True}})


def test_bad_values_are_rejected_with_paths():
    with pytest.raises(ConfigError, match="dataset.kind"):
        parse_config({"dataset": {"kind": "csv"}})
    with pytest.raises(ConfigError, match="training.participation"):
        parse_config({"training": {"participation": 1.5}})
    with pytest.raises(ConfigError, match="network.hidden"):
        parse_config({"network": {"hidden": [0]}})
    with pytest.raises(ConfigError, match=r"strategies\[0\].kind"):
        parse_config({"strategies": [{"kind": "fedsum"}]})
    with pytest.raises(ConfigError, match=r"strategies\[0\].kind: required"):
        parse_config({"strategies": [{"beta": 1.0}]})
    with pytest.raises(ConfigError, match="strategies"):
        parse_config({"strategies": []})
    with pytest.raises(ConfigError, match="partition"):
        parse_config({"partition": {"label_mode": "sorted"}})
    with pytest.raises(ConfigError, match="training.rounds"):
        parse_config({"training": {"rounds": 0}})
    # the dataclasses' own complaints, prefixed with the config path
    for raw, message in (
        ({"strategies": [{"kind": "normnorm", "beta": 0}]},
         "strategies[0].beta: must be positive, got 0.0"),
        ({"strategies": [{"kind": "fednnnn", "epsilon": 0}]},
         "strategies[0].epsilon: must be positive, got 0.0"),
        ({"strategies": [{"kind": "fedprox", "mu": -1}]},
         "strategies[0].mu: must be non-negative, got -1.0"),
        ({"strategies": [{"kind": "fedsum"}]},
         "strategies[0].kind: must be one of ('fedavg', 'fedprox', 'normnorm', "
         "'momentum', 'fednnnn'), got 'fedsum'"),
        ({"strategies": [{"kind": "fedavg"}, {"kind": "fednnnn", "gamma": 1.2}]},
         "strategies[1].gamma: must be in [0, 1), got 1.2"),
        ({"training": {"learning_rate": -1}},
         "training.learning_rate: must be non-negative, got -1.0"),
        ({"training": {"batch_size": 0}}, "training.batch_size: must be >= 1, got 0"),
        ({"partition": {"power_exponent": 0}},
         "partition.power_exponent: must be positive, got 0.0"),
        ({"partition": {"label_mode": "sorted"}},
         "partition.label_mode: must be iid or noniid, got 'sorted'"),
        ({"dataset": {"kind": "synth", "center_scale": 0.0}},
         "dataset.center_scale: must be positive, got 0.0"),
        ({"training": {"rounds": 0}}, "training.rounds: must be >= 1, got 0"),
        ({"training": {"workers": 0}}, "training.workers: must be >= 1, got 0"),
        ({"training": {"seed": -1}}, "training.seed: must be non-negative"),
    ):
        with pytest.raises(ConfigError) as info:
            parse_config(raw)
        assert str(info.value) == message


# each float field whose own check admits +Inf, in a config that reaches it
INFINITE_FLOATS = [
    ("strategies[0].beta", {"strategies": [{"kind": "normnorm", "beta": math.inf}]}),
    ("strategies[0].epsilon", {"strategies": [{"kind": "normnorm", "epsilon": math.inf}]}),
    ("strategies[0].mu", {"strategies": [{"kind": "fedprox", "mu": math.inf}]}),
    ("training.learning_rate", {"training": {"learning_rate": math.inf}}),
    ("training.weight_decay", {"training": {"weight_decay": math.inf}}),
    ("partition.power_exponent", {"partition": {"power_exponent": math.inf}}),
    ("dataset.center_scale", {"dataset": {"kind": "synth", "center_scale": math.inf}}),
]


@pytest.mark.parametrize("path, raw", INFINITE_FLOATS, ids=[p for p, _ in INFINITE_FLOATS])
def test_an_infinite_float_exits_2_with_one_line_naming_its_field(tmp_path, capsys, path, raw):
    """A YAML `.inf` used to pass validation: as epsilon it silently froze
    normnorm (s = 0 every round), elsewhere the run failed naming a round
    and a client, or leaked a numpy warning. Nothing is trained or
    written."""
    cfg = tmp_path / "inf.yaml"
    cfg.write_text(yaml.safe_dump(raw))  # PyYAML spells math.inf .inf
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {path}: must be finite, got inf\n"
    assert not out.exists()


def test_repeated_kinds_get_distinct_labels():
    plan = parse_config({"strategies": [
        {"kind": "fednnnn", "beta": 0.6},
        {"kind": "fednnnn", "beta": 0.8},
    ]})
    assert list(plan.strategies) == ["fednnnn", "fednnnn_2"]


# a valid value, other than the default, for every field of each section
NON_DEFAULT = {
    "synth": dict(classes=3, train_per_class=7, test_per_class=5, features=4,
                  center_scale=0.25, components_per_class=2),
    "idx": dict(dir="/data/mnist", train_images="a", train_labels="b", test_images="c",
                test_labels="d", train_limit=100),
    "partition": dict(label_mode="noniid", size_mode="unbalanced", classes_per_client=3,
                      power_exponent=2.5),
    "training": dict(rounds=3, clients=4, participation=0.5, weight_mode="by_sample_count",
                     seed=9, workers=2, learning_rate=0.125, batch_size=7, local_epochs=2,
                     weight_decay=0.001),
    "strategy": dict(kind="fedprox", beta=0.5, gamma=0.25, epsilon=1e-6, mu=0.03),
}


def field_names(cls) -> set[str]:
    return {f.name for f in dataclasses.fields(cls)}


def test_every_dataclass_field_is_settable():
    """Each config dataclass field can be set from its section, and the
    value reaches the built dataclass."""
    training, strategy = NON_DEFAULT["training"], NON_DEFAULT["strategy"]
    assert set(NON_DEFAULT["synth"]) == field_names(SynthData)
    assert set(NON_DEFAULT["idx"]) == field_names(IdxData)
    assert set(NON_DEFAULT["partition"]) == field_names(PartitionSpec)
    assert set(training) == field_names(Schedule) | field_names(ClientConfig)
    assert set(strategy) == field_names(AggregationStrategy)

    plan = parse_config({"dataset": {"kind": "synth", **NON_DEFAULT["synth"]},
                         "partition": NON_DEFAULT["partition"],
                         "training": training, "strategies": [strategy]})
    idx = parse_config({"dataset": {"kind": "idx", **NON_DEFAULT["idx"]}}).dataset
    for built, values in ((plan.dataset, NON_DEFAULT["synth"]), (idx, NON_DEFAULT["idx"]),
                          (plan.partition, NON_DEFAULT["partition"]),
                          (plan.schedule, training), (plan.client, training),
                          (plan.strategies["fedprox"], strategy)):
        for f in dataclasses.fields(built):
            assert f.default != values[f.name], (type(built).__name__, f.name)
            assert getattr(built, f.name) == values[f.name], (type(built).__name__, f.name)


def test_fields_owned_elsewhere_are_unknown():
    # the partition seed derives from training.seed; mu is set per strategy
    for raw, message in (({"partition": {"seed": 3}}, "partition.seed: unknown field"),
                         ({"training": {"mu": 0.1}}, "training.mu: unknown field")):
        with pytest.raises(ConfigError) as info:
            parse_config(raw)
        assert str(info.value) == message


def test_optional_fields_reject_yaml_null():
    # leaving an `X | None` field out keeps its None default; null is no X
    for key, kind in (("dir", "str"), ("train_limit", "int")):
        with pytest.raises(ConfigError, match=rf"^dataset.{key}: expected {kind}, got None$"):
            parse_config({"dataset": {"kind": "idx", key: None}})


CONFIG_CLASSES = (SynthData, IdxData, PartitionSpec, Schedule, ClientConfig,
                  AggregationStrategy)


def config_fields():
    """(class, field, declared type, whether None fits) of every config
    dataclass field."""
    for cls in CONFIG_CLASSES:
        hints = typing.get_type_hints(cls)
        for f in dataclasses.fields(cls):
            kinds = typing.get_args(hints[f.name]) or (hints[f.name],)
            yield cls, f.name, kinds[0], type(None) in kinds


def make(cls, **values):
    """cls with values, and the one field without a default filled in."""
    return cls(**({"kind": "fedavg"} if cls is AggregationStrategy else {}) | values)


WRONG_TYPED = {int: ["3", 1.5, True, np.float64(2.0)], float: ["0.5", True, False],
               str: [3, b"iid", True]}
TYPE_CASES = [(cls, name, kind, value) for cls, name, kind, optional in config_fields()
              for value in WRONG_TYPED[kind] + ([] if optional else [None])]


@pytest.mark.parametrize("cls, name, kind, value", TYPE_CASES,
                         ids=[f"{c.__name__}.{n}={v!r}" for c, n, _, v in TYPE_CASES])
def test_config_dataclasses_reject_wrong_types(cls, name, kind, value):
    """Library callers get the CLI's complaint: a str for a number, a float
    for an int, a bool for either, or None for a field that is not
    optional used to be accepted or to fail deep inside the run."""
    with pytest.raises(ConfigError) as info:
        make(cls, **{name: value})
    assert str(info.value).startswith(f"{name}: expected {kind.__name__}, got {value!r}")


FLOAT_FIELDS = [(cls, name) for cls, name, kind, _ in config_fields() if kind is float]


@pytest.mark.parametrize("cls, name", FLOAT_FIELDS,
                         ids=[f"{c.__name__}.{n}" for c, n in FLOAT_FIELDS])
def test_an_int_given_for_a_float_field_is_stored_as_that_float(cls, name):
    default = next(f.default for f in dataclasses.fields(cls) if f.name == name)
    value = math.ceil(default)  # within the field's range
    stored = getattr(make(cls, **{name: value}), name)
    assert type(stored) is float and stored == value


def readme_config_section() -> str:
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return text.split("\n## Config files\n", 1)[1].split("\n## ", 1)[0]


def test_readme_config_reference_parses_and_names_every_field():
    section = readme_config_section()
    blocks = re.findall(r"```yaml\n(.*?)```", section, re.S)
    assert len(blocks) >= 2
    for block in blocks:
        parse_config(yaml.safe_load(block))
    admitted = {"kind", "hidden"}
    for cls in (SynthData, IdxData, PartitionSpec, Schedule, ClientConfig,
                AggregationStrategy):
        admitted |= field_names(cls)
    missing = sorted(name for name in admitted if not re.search(rf"\b{name}\b", section))
    assert not missing, f"README config section never names {missing}"


# --------------------------------------------------------------------- presets

def test_all_presets_parse():
    names = available_presets()
    assert "mnist_noniid_unbalanced" in names
    assert "desk_divergence" in names
    for name in names:
        plan = parse_config(load_preset(name))
        assert plan.strategies


def test_unknown_preset_lists_available():
    with pytest.raises(ConfigError, match="desk_quick"):
        load_preset("nonexistent")


def test_hardest_split_preset_hyperparameters():
    plan = parse_config(load_preset("mnist_noniid_unbalanced"))
    assert plan.strategies["fedprox"].mu == 0.02
    assert plan.strategies["normnorm"].beta == 0.9
    assert plan.strategies["momentum"].gamma == 0.8
    assert plan.strategies["fednnnn"].beta == 0.7
    assert plan.strategies["fednnnn"].gamma == 0.8
    assert plan.schedule.rounds == 100
    assert plan.schedule.clients == 100


# ------------------------------------------------------------------ run command

def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_run_writes_csvs_and_manifest(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "complete"
    assert manifest["strategies"] == ["fedavg", "fednnnn"]
    assert manifest["files"]["fedavg"]["metrics"] == "fedavg_metrics.csv"

    rows = read_csv(out / "fedavg_metrics.csv")
    assert rows[0] == METRIC_COLUMNS
    assert len(rows) == 1 + 2  # header + one per round
    assert [r[0] for r in rows[1:]] == ["1", "2"]
    assert all(r[1] == "fedavg" for r in rows[1:])
    # fedavg distributes the plain average: no separate averaged accuracy
    assert all(r[8] == "" for r in rows[1:])
    float(rows[1][2]), float(rows[1][3]), float(rows[1][4])

    fnn = read_csv(out / "fednnnn_metrics.csv")
    assert all(r[8] != "" for r in fnn[1:])

    layers = read_csv(out / "fednnnn_layers.csv")
    assert layers[0] == ["round", "strategy", "layer", "N", "E"]
    layer_names = {r[2] for r in layers[1:]}
    assert layer_names == {"fc1.weight", "fc1.bias", "fc2.weight", "fc2.bias"}


def test_run_full_float_precision(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    main(["run", "--config", str(cfg), "--out", str(out)])
    rows = read_csv(out / "fedavg_metrics.csv")
    # 17 significant digits survive a text round trip exactly
    value = float(rows[1][2])
    assert f"{value:.17g}" == rows[1][2]


def test_manifest_records_numeric_environment_deterministically(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    cfg = write_config(tmp_path)
    for name in ("a", "b"):
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
    text = (tmp_path / "a" / "manifest.json").read_text()
    assert text == (tmp_path / "b" / "manifest.json").read_text()
    env = json.loads(text)["environment"]
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert env == {
        "numpy": np.__version__,
        "blas": {"name": blas["name"], "version": blas["version"]},
        "threads": {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None},
        "blas_threads": 1,
        "blas_kernel": openblas_kernel(),
    }


def test_seed_override_changes_results(tmp_path):
    cfg = write_config(tmp_path)
    main(["run", "--config", str(cfg), "--out", str(tmp_path / "a")])
    main(["run", "--config", str(cfg), "--out", str(tmp_path / "d"), "--seed", "9"])
    assert ((tmp_path / "a" / "fedavg_metrics.csv").read_bytes()
            != (tmp_path / "d" / "fedavg_metrics.csv").read_bytes())


def test_strategy_filter(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "only"
    assert main(["run", "--config", str(cfg), "--out", str(out),
                 "--strategies", "fednnnn"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["strategies"] == ["fednnnn"]
    assert not (out / "fedavg_metrics.csv").exists()


def test_strategy_filter_unknown_name(tmp_path, capsys):
    cfg = write_config(tmp_path)
    rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "x"),
               "--strategies", "fedavg,fedmax"])
    assert rc == 2
    assert "fedmax" in capsys.readouterr().err


@pytest.mark.parametrize("names, message", [
    (",", "--strategies: names no strategy"),
    ("", "--strategies: names no strategy"),
    ("fedavg,fedavg", "--strategies: fedavg named more than once"),
    ("fednnnn, fedavg,fednnnn", "--strategies: fednnnn named more than once"),
])
def test_strategy_filter_rejects_empty_and_repeated_names(tmp_path, capsys, names, message):
    """Nothing is trained or written: no CSV and no manifest."""
    cfg = write_config(tmp_path)
    out = tmp_path / "x"
    assert main(["run", "--config", str(cfg), "--out", str(out), "--strategies", names]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_missing_idx_dir_fails_cleanly(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("FEDNORM_DATA_DIR", raising=False)
    cfg = tmp_path / "idx.yaml"
    cfg.write_text(yaml.safe_dump({"dataset": {"kind": "idx"}}))
    rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert rc == 2
    cfg2 = tmp_path / "idx2.yaml"
    cfg2.write_text(yaml.safe_dump(
        {"dataset": {"kind": "idx", "dir": str(tmp_path / "nowhere")}}
    ))
    rc2 = main(["run", "--config", str(cfg2), "--out", str(tmp_path / "x")])
    assert rc2 == 2
    assert "error" in capsys.readouterr().err


def test_failure_mid_run_marks_manifest(tmp_path, monkeypatch):
    cfg = write_config(tmp_path)
    out = tmp_path / "boom"

    import fednorm.cli as cli_mod

    def explode(*a, **k):
        raise RuntimeError("disk full")
    monkeypatch.setattr(cli_mod, "run_experiment", explode)
    with pytest.raises(RuntimeError):
        main(["run", "--config", str(cfg), "--out", str(out)])
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "failed"


def test_a_run_is_silent_in_dev_mode_with_warnings_as_errors(tmp_path):
    """Under `python -X dev -W error`, desk_quick on one worker and on two
    exits 0 with nothing on stderr: overflow and NaN surface as one error,
    never as a numpy warning, and no file is left unclosed. A diverging
    50-client wide run, whose error rises from the server thread's fold,
    prints that one line and nothing else."""
    dev = ("-X", "dev", "-W", "error")
    for workers in ("1", "2"):
        proc = cli_process("run", "--preset", "desk_quick", "--seed", "0", "--workers", workers,
                           "--out", str(tmp_path / workers), flags=dev)
        assert (proc.returncode, proc.stderr) == (0, ""), workers
    cfg = tmp_path / "diverge.yaml"
    cfg.write_text(yaml.safe_dump(diverging_config()))
    proc = cli_process("run", "--config", str(cfg), "--seed", "0",
                       "--out", str(tmp_path / "diverge"), flags=dev)
    assert (proc.returncode, proc.stderr) == (
        2, "error: normnorm round 1 client 48: parameter vector contains NaN or Inf\n")


def test_test_labels_beyond_the_training_classes_fail_with_one_line(tmp_path):
    """IDX files whose test set has classes the training set lacks: the
    network gets the training set's class count, so the run stops before
    training instead of crashing in the first evaluation."""
    rng = np.random.default_rng(0)
    for prefix, labels in (("train", [0, 1, 2, 3] * 2), ("test", [0, 1, 2, 3, 4, 5])):
        header = struct.pack(">IIII", 0x803, len(labels), 2, 2)
        (tmp_path / f"{prefix}-images").write_bytes(
            header + rng.integers(0, 256, 4 * len(labels), dtype=np.uint8).tobytes())
        (tmp_path / f"{prefix}-labels").write_bytes(
            struct.pack(">II", 0x801, len(labels)) + bytes(labels))
    cfg = tmp_path / "idx.yaml"
    cfg.write_text(yaml.safe_dump({
        "dataset": {"kind": "idx", "dir": str(tmp_path), "train_images": "train-images",
                    "train_labels": "train-labels", "test_images": "test-images",
                    "test_labels": "test-labels"},
        "network": {"hidden": [4]},
        "training": {"rounds": 1, "clients": 2, "batch_size": 4, "local_epochs": 1},
    }))
    proc = cli_process("run", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert proc.returncode == 2
    assert proc.stderr == ("error: network has 4 outputs but data has 4 (train) / "
                           "6 (test) classes\n")
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["status"] == "failed"


def test_idx_images_without_pixels_fail_with_one_line(tmp_path, capsys):
    """A pair of four 0x0 images stops at loading, where it crashed in
    normalization dividing by zero pixels."""
    for prefix in ("train", "test"):
        (tmp_path / f"{prefix}-images").write_bytes(struct.pack(">IIII", 0x803, 4, 0, 0))
        (tmp_path / f"{prefix}-labels").write_bytes(
            struct.pack(">II", 0x801, 4) + bytes([0, 1, 0, 1]))
    cfg = tmp_path / "idx.yaml"
    cfg.write_text(yaml.safe_dump({
        "dataset": {"kind": "idx", "dir": str(tmp_path), "train_images": "train-images",
                    "train_labels": "train-labels", "test_images": "test-images",
                    "test_labels": "test-labels"},
        "training": {"rounds": 1, "clients": 2}}))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (f"error: {tmp_path / 'train-images'}: images of 0x0 "
                                       "pixels at offset 8, expected at least one pixel\n")


def test_out_naming_a_file_fails_with_one_line(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["run", "--config", str(write_config(tmp_path)), "--out", str(taken)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(taken) in err


@pytest.mark.parametrize("text, message", [
    ("training:\n  rounds: [1, 2\n",
     "line 2, column 11: expected ',' or ']', but got '<stream end>'"),
    ("training:\n\trounds: 2\n",
     "line 2, column 1: found character '\\t' that cannot start any token"),
], ids=["unterminated_flow_sequence", "tab_indented_block"])
def test_malformed_yaml_fails_with_one_line(tmp_path, capsys, text, message):
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(text)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err == f"error: config {cfg} is not valid YAML: {message}\n"


def test_float_without_dot_gets_yaml_spelling_hint(tmp_path, capsys):
    cfg = tmp_path / "exp.yaml"
    cfg.write_text("training:\n  learning_rate: 1e6\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.strip() == ("error: training.learning_rate: expected float, got '1e6' "
                           "(YAML reads this spelling as a string; write 1.0e+6)")
    assert yaml.safe_load("learning_rate: 1.0e+6") == {"learning_rate": 1e6}
    with pytest.raises(ConfigError, match=r"write 1\.5e\+3\)$"):
        parse_config({"training": {"learning_rate": "1.5e3"}})
    # YAML reads these spellings as floats: the string came from quotes or Python
    for text in ("0.7", "7", "-2.5E-3"):
        with pytest.raises(ConfigError, match=f"got '{re.escape(text)}'$"):
            parse_config({"strategies": [{"kind": "fedprox", "mu": text}]})
    with pytest.raises(ConfigError, match=r"^beta: expected float, got '0\.7'$"):
        AggregationStrategy("fednnnn", beta="0.7")
    with pytest.raises(ConfigError, match=r"got 'fast'$"):
        parse_config({"training": {"learning_rate": "fast"}})


def test_zero_learning_rate_gives_empty_ratio_cells(tmp_path):
    raw = yaml.safe_load(yaml.safe_dump(SMALL))
    raw["training"]["learning_rate"] = 0.0
    raw["training"]["rounds"] = 1
    raw["strategies"] = [{"kind": "fedavg"}]
    cfg = tmp_path / "frozen.yaml"
    cfg.write_text(yaml.safe_dump(raw))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    rows = read_csv(out / "fedavg_metrics.csv")
    assert rows[1][2] == "0"  # N
    assert rows[1][4] == ""  # ratio column empty when nothing moved


# -------------------------------------------------------------------- compare

def test_compare_table_and_csv(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    main(["run", "--config", str(cfg), "--out", str(out)])
    summary = tmp_path / "summary.csv"
    rc = main(["compare", str(out / "fedavg_metrics.csv"),
               str(out / "fednnnn_metrics.csv"), "--out", str(summary)])
    assert rc == 0
    shown = capsys.readouterr().out
    assert "fedavg" in shown and "fednnnn" in shown
    rows = read_csv(summary)
    assert rows[0][0] == "strategy"
    assert {r[0] for r in rows[1:]} == {"fedavg", "fednnnn"}


def test_compare_rejects_non_metrics_csv(tmp_path, capsys):
    junk = tmp_path / "junk.csv"
    junk.write_text("a,b\n1,2\n")
    assert main(["compare", str(junk)]) == 2
    assert "not a metrics CSV" in capsys.readouterr().err


def test_files_that_are_not_utf8_fail_with_one_line(tmp_path, capsys):
    """A config or a metrics CSV that is not UTF-8 text, in its first bytes
    or after a valid header, exits 2 with one line naming the file."""
    binary = tmp_path / "binary"
    binary.write_bytes(b"\x7fELF\x02\x01\x01\x00" + bytes(range(128, 256)))
    late = tmp_path / "late_metrics.csv"
    late.write_bytes((",".join(METRIC_COLUMNS) + "\n").encode() + b"fedavg,\xd0\xff\n")
    for argv in (["run", "--config", str(binary), "--out", str(tmp_path / "out")],
                 ["compare", str(binary)], ["compare", str(late)]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert argv[2 if argv[0] == "run" else 1] in err and "not UTF-8 text" in err
    assert not (tmp_path / "out").exists()


def test_compare_directory_fails_with_one_line(tmp_path, capsys):
    assert main(["compare", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(tmp_path) in err


def test_compare_names_the_cell_that_is_not_a_number(tmp_path, capsys):
    bad = tmp_path / "bad_metrics.csv"
    good = ["1", "fedavg", "1.5", "2", "0.75", "1.5", "1.5", "0.5", ""]
    with bad.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRIC_COLUMNS)
        writer.writerow(good)
        writer.writerow(["2", *good[1:5], "e", *good[6:]])
    assert main(["compare", str(bad)]) == 2
    assert capsys.readouterr().err == (
        f"error: {bad}: row 2, column integrated_norm: not a number: 'e'\n")


# ----------------------------------------------------------------- analyze-nwda

def test_analyze_nwda_triptych(tmp_path, capsys):
    out = tmp_path / "nwda"
    rc = main(["analyze-nwda", "--rounds", "2", "--seed", "0",
               "--out", str(out)])
    assert rc == 0
    shown = capsys.readouterr().out
    assert "mean N/E" in shown
    for name in ("k1", "iid", "noniid"):
        assert (out / f"{name}_metrics.csv").exists()
    k1 = read_csv(out / "k1_metrics.csv")
    assert all(float(r[4]) == 1.0 for r in k1[1:])


def test_analyze_nwda_validation(capsys):
    assert main(["analyze-nwda", "--rounds", "0"]) == 2
    assert "rounds" in capsys.readouterr().err


def test_flag_overrides_are_checked_under_the_flag_name(tmp_path, capsys):
    cfg = write_config(tmp_path)
    for argv, message in (
        (["run", "--config", str(cfg), "--out", str(tmp_path / "o"), "--seed", "-1"],
         "--seed: must be non-negative"),
        (["run", "--config", str(cfg), "--out", str(tmp_path / "o"), "--workers", "0"],
         "--workers: must be >= 1, got 0"),
        (["analyze-nwda", "--rounds", "0"], "--rounds: must be >= 1, got 0"),
        (["analyze-nwda", "--seed", "-1"], "--seed: must be non-negative"),
        (["analyze-nwda", "--workers", "0"], "--workers: must be >= 1, got 0"),
    ):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "o").exists()


def test_a_strategy_trains_without_the_previous_strategys_result(monkeypatch, tmp_path):
    """`run` keeps a strategy's metrics, not its result: no earlier
    strategy's final parameters are alive while the next one trains."""
    finals = []
    alive = []
    run_experiment = cli.run_experiment

    def checked(*args, **kwargs):
        gc.collect()
        alive.append(sum(ref() is not None for ref in finals))
        result = run_experiment(*args, **kwargs)
        finals.append(weakref.ref(result.final_params))
        return result
    monkeypatch.setattr(cli, "run_experiment", checked)
    assert main(["run", "--preset", "desk_quick", "--strategies", "fedavg,fednnnn,momentum",
                 "--out", str(tmp_path)]) == 0
    assert len(finals) == 3 and alive == [0, 0, 0]
