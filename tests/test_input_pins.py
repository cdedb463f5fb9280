"""Exact bytes of the CLI's input readers: the one-line message of every
config-shape fault, and `compare`'s table and summary CSV from hand-written
metrics CSVs, so no training run (and no BLAS kernel) moves them."""

import pytest

from fednorm.cli import METRIC_COLUMNS, main, parse_config
from fednorm.errors import ConfigError


@pytest.mark.parametrize("raw, message", [
    ([], "config: expected a mapping, got list"),
    ({"extra": 1}, "config.extra: unknown field"),
    ({"dataset": []}, "dataset: expected a mapping, got list"),
    ({"dataset": {"noise": 1}}, "dataset.kind: required field missing"),
    ({"dataset": {"kind": 3}}, "dataset.kind: must be synth or idx, got 3"),
    ({"dataset": {"kind": "synth", "noise": 1, "classes": None}}, "dataset.noise: unknown field"),
    ({"network": [64]}, "network: expected a mapping, got list"),
    ({"network": {"width": 3}}, "network.width: unknown field"),
    ({"network": {"hidden": []}}, "network.hidden: expected a list of positive ints"),
    ({"training": None}, "training: expected a mapping, got NoneType"),
    ({"training": {"rounds": None}}, "training.rounds: expected int, got None"),
    ({"strategies": "fedavg"}, "strategies: expected a non-empty list"),
    ({"strategies": ["fedavg"]}, "strategies[0]: expected a mapping, got str"),
    ({"strategies": [{"beta": 1.0, "foo": 1}]}, "strategies[0].foo: unknown field"),
    ({"strategies": [{"beta": 1.0}]}, "strategies[0].kind: required field missing"),
    ({"strategies": [{"kind": "fedavg", "beta": None}]},
     "strategies[0].beta: expected float, got None"),
])
def test_config_shape_faults_have_exact_messages(raw, message):
    with pytest.raises(ConfigError) as info:
        parse_config(raw)
    assert str(info.value) == message


METRICS = {
    "a_metrics.csv": ["1,fedavg,0.5,2,0.25,0.5,0.5,0.3125,0.28125",
                      "2,fedavg,1.25,2.5,0.5,1.75,1.25,0.71875,0.6875",
                      "3,fedavg,0.75,3,0.25,2.5,0.75,0.625,0.59375"],
    # no averaged evaluation, and no client moved in the last round
    "b_metrics.csv": ["1,fednnnn_2,0.1,0.2,0.5,0.1,0.1,0.1,",
                      "2,fednnnn_2,0,0,,12.3456,0,0.1,"],
}

TABLE = """\
strategy       rounds  final_acc    avg_acc   best_acc      N/E   path_len
--------------------------------------------------------------------------
fedavg              3     0.6250     0.5938     0.7188   0.2500      2.500
fednnnn_2           2     0.1000                0.1000              12.346
"""

SUMMARY_CSV = (b"strategy,rounds,final_acc,final_acc_averaged,best_acc,final_ratio,"
               b"integrated_norm\r\n"
               b"fedavg,3,0.625,0.59375,0.71875,0.25,2.5\r\n"
               b"fednnnn_2,2,0.10000000000000001,,0.10000000000000001,,12.345599999999999\r\n")


def test_compare_prints_and_writes_exact_bytes(tmp_path, capsys):
    paths = []
    for name, rows in METRICS.items():
        paths.append(tmp_path / name)
        paths[-1].write_text("\n".join([",".join(METRIC_COLUMNS), *rows]) + "\n")
    summary = tmp_path / "summary.csv"
    assert main(["compare", *map(str, paths), "--out", str(summary)]) == 0
    assert capsys.readouterr().out == TABLE
    assert summary.read_bytes() == SUMMARY_CSV
