import json
from pathlib import Path

import pytest

import run


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    samples = [float(i) for i in range(1, 21)]
    assert run.tail_percentile(samples) == (10.0, 50, 20)
    # n=30: p66 has rank 20 and 10 beyond it; p67 has rank 21 and only 9
    assert run.tail_percentile([float(i) for i in range(30, 0, -1)]) == (20.0, 66, 30)
    # n=50: p80 has rank 40 and 10 beyond it
    assert run.tail_percentile([float(i) for i in range(1, 51)]) == (40.0, 80, 50)


def test_tail_stops_at_the_cap_when_samples_are_many():
    value, pct, n = run.tail_percentile([float(i) for i in range(1, 1001)])
    assert (value, pct, n) == (900.0, run.TAIL_MAX_PCT, 1000)


def test_tail_needs_eleven_samples():
    assert run.tail_percentile([1.0] * 11)[1] == 9
    with pytest.raises(ValueError):
        run.tail_percentile([1.0] * 10)


def test_fail_rate():
    assert run.fail_rate(0, 3) == 0.0
    assert run.fail_rate(1, 4) == 0.25
    assert run.fail_rate(3, 3) == 1.0
    with pytest.raises(ValueError):
        run.fail_rate(0, 0)


def _process(traced, run_s, rounds=(), totals=None, error=None):
    return run.Process(traced=traced, run_s=run_s, cpu_s=1.0, peak_rss_mb=10.0, setup_s=0.1,
                       rounds=list(rounds), totals=totals or {}, digest={}, error=error)


def test_end_to_end_uses_medians_of_successful_processes():
    procs = [_process(False, s, rounds=[s / 10] * 10) for s in (1.0, 3.0, 2.0)]
    procs.append(_process(False, 100.0, rounds=[50.0] * 10, error="exit code 1"))
    values, note = run.end_to_end(procs)
    assert values["run_s"] == 2.0
    assert values["round_s_p50"] == pytest.approx(0.2)
    assert "30 round samples" in note


def test_per_layer_overhead_and_pool_efficiency():
    totals = {"client.local_train_s": 3.0, "orchestrator.train_phase_s": 2.0,
              "params.construct_calls": 4.0}
    procs = [_process(False, 1.0, rounds=[0.5]), _process(True, 1.5, totals=dict(totals)),
             _process(False, 1.2, rounds=[0.7]), _process(True, 1.9, totals=dict(totals))]
    values = run.per_layer(procs, workers=2)
    assert values["orchestrator.pool_efficiency"] == pytest.approx(0.75)
    assert values["trace.overhead_s"] == pytest.approx(1.7 - 1.1)
    assert values["trace.untraced_rounds_s"] == pytest.approx(0.6)
    assert values["params.vectors_built"] == 4.0
    # never-called functions read 0
    assert values["nn.sgd_step_s"] == 0.0


def test_benchmark_json_names_the_metrics_the_benchmark_reports():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    want = run.PER_LAYER | run.RUN_LEVEL
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == want
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS) - {"mnist_synth"}
