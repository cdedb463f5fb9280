"""Acceptance checks, one test per criterion.

Each test enforces its stated tolerance and prints one summary line (visible
with -s; under plain -v the test verdict itself is the pass/fail line).
Criteria 5, 6, and 9 train real federated runs on the synthetic desk data, so
this module takes a few seconds rather than milliseconds.
"""

import json
import math
import struct
import time

import numpy as np
import pytest
import yaml

from fednorm import (
    AggregationStrategy,
    ClientConfig,
    ExperimentConfig,
    NetworkSpec,
    PartitionSpec,
    Schedule,
    Segment,
    nwda,
    run_experiment,
    synth_split,
)
from fednorm.cli import main as cli_main
from fednorm.data import IdxCountError, IdxMagicError, IdxTruncatedError, load_idx
from fednorm.nn import init_params
from fednorm.params import l2_norm
from oracles import backward, loss_and_accuracy, server_step


def report(criterion: int, text: str) -> None:
    print(f"\n[criterion {criterion}] PASS: {text}")


def random_round(rng, m, segs):
    """m random updates laid out by segments fc1.weight, fc2.weight, ... of
    the lengths segs, as nwda's (weights, deltas, segments)."""
    size = sum(segs)
    raw = rng.uniform(0.05, 1.0, m)
    weights = raw / raw.sum()
    pos, segments = 0, []
    for i, ln in enumerate(segs):
        segments.append(Segment(f"fc{i + 1}.weight", pos, ln))
        pos += ln
    deltas = np.array([rng.standard_normal(size) * rng.uniform(0.1, 10) for _ in range(m)])
    return [float(w) for w in weights], deltas, tuple(segments)


def apply(w, rep, kind, **knobs):
    """One apply_strategy step from a zero server direction."""
    return server_step(w, rep, AggregationStrategy(kind, **knobs), np.zeros_like(w))


# -------------------------------------------------- shared desk-scale training

DESK_NET = NetworkSpec((20, 64, 10))
DESK_PARTITION = PartitionSpec("noniid", "unbalanced", 2, 1.5)
DESK_SEEDS = (0, 1, 2)
_desk_cache: dict = {}


def desk_run(kind: str, seed: int, mu: float = 0.0, beta: float = 1.0,
             gamma: float = 0.0):
    """30-round run on the mixture-blob desk task; cached across criteria."""
    key = (kind, seed, mu, beta, gamma)
    if key not in _desk_cache:
        train, test = synth_split(10, 200, 200, 20, seed=seed,
                                  center_scale=0.5, components_per_class=2)
        config = ExperimentConfig(
            network=DESK_NET,
            strategy=AggregationStrategy(kind, beta=beta, gamma=gamma),
            client=ClientConfig(learning_rate=0.05, batch_size=50,
                                local_epochs=5, mu=mu),
            partition=DESK_PARTITION,
            schedule=Schedule(rounds=30, clients=10, seed=seed),
        )
        started = time.monotonic()
        result = run_experiment(train, test, config)
        elapsed = time.monotonic() - started
        assert elapsed < 600.0, f"desk run took {elapsed:.0f}s, budget is 600s"
        _desk_cache[key] = result
    return _desk_cache[key]


# ------------------------------------------------------------------- criteria

def test_criterion_01_aggregate_norm_never_exceeds_mean_local_norm():
    """N <= E + 1e-12*max(1, E) on 1000 random rounds, within 10 seconds."""
    rng = np.random.default_rng(42)
    started = time.monotonic()
    worst = -math.inf
    for _ in range(1000):
        m = int(rng.integers(1, 12))
        segs = tuple(int(s) for s in rng.integers(1, 40, size=rng.integers(1, 4)))
        rep = nwda(*random_round(rng, m, segs))
        slack = 1e-12 * max(1.0, rep.mean_local_norm)
        assert rep.aggregate_norm <= rep.mean_local_norm + slack
        worst = max(worst, rep.aggregate_norm - rep.mean_local_norm)
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"1000 fixtures took {elapsed:.1f}s, budget is 10s"
    report(1, f"N <= E (slack 1e-12) held on 1000 random rounds in {elapsed:.2f}s; "
              f"worst N-E = {worst:.3e}")


def test_criterion_02_normalized_step_norm_equals_beta_times_mean_local():
    """||normnorm step|| = beta*E to relative 1e-10 on 100 random rounds."""
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 100:
        m = int(rng.integers(2, 10))
        rep = nwda(*random_round(rng, m, (8, 24, 5)))
        if rep.aggregate_norm <= 1e-9 * max(1.0, rep.mean_local_norm):
            continue
        beta = float(rng.uniform(0.2, 1.8))
        w = rng.standard_normal(rep.combined.size)
        _, step = apply(w, rep, "normnorm", beta=beta, epsilon=1e-9)
        target = beta * rep.mean_local_norm
        assert abs(l2_norm(step, (Segment("w", 0, step.size),)) - target) <= 1e-10 * target
        checked += 1
    report(2, "||step|| = beta*E to rel 1e-10 on 100 random rounds")


def test_criterion_03_reduction_identities():
    """fednnnn(gamma=0) == normnorm at any beta and momentum(gamma=0) ==
    fedavg bitwise, new parameters and step alike; normnorm(m=1, beta=1) ==
    fedavg within 1e-15 per element."""
    rng = np.random.default_rng(3)
    for beta in np.random.default_rng(4).uniform(0.3, 1.5, 25).tolist():
        rep = nwda(*random_round(rng, int(rng.integers(2, 8)), (6, 14)))
        w = rng.standard_normal(rep.combined.size)

        nn_new, nn_step = apply(w, rep, "normnorm", beta=beta, epsilon=1e-9)
        fn_new, fn_step = apply(w, rep, "fednnnn", beta=beta, gamma=0.0, epsilon=1e-9)
        assert np.array_equal(nn_new, fn_new)
        assert np.array_equal(nn_step, fn_step)

        avg, avg_step = apply(w, rep, "fedavg")
        mom, mom_step = apply(w, rep, "momentum", gamma=0.0)
        assert np.array_equal(avg, mom)
        assert np.array_equal(avg_step, mom_step)

        solo = nwda(*random_round(rng, 1, (6, 14)))
        w1 = rng.standard_normal(solo.combined.size)
        one_new, _ = apply(w1, solo, "normnorm", beta=1.0, epsilon=1e-9)
        assert np.max(np.abs(apply(w1, solo, "fedavg")[0] - one_new)) <= 1e-15
    report(3, "fednnnn(gamma=0) == normnorm (beta in [0.3, 1.5)) and "
              "momentum(gamma=0) == fedavg bitwise; normnorm(m=1, beta=1) == "
              "fedavg within 1e-15/element, 25 fixtures")


def test_criterion_04_backprop_matches_finite_differences():
    """Max relative gradient error < 1e-6 on 20 random networks (<= 1000
    parameters each), within 30 seconds."""
    from fednorm.nn import layer_views

    rng = np.random.default_rng(11)
    started = time.monotonic()
    worst = 0.0
    for _ in range(20):
        while True:
            depth = int(rng.integers(1, 3))
            sizes = (int(rng.integers(2, 9)),
                     *(int(rng.integers(3, 17)) for _ in range(depth)),
                     int(rng.integers(2, 6)))
            spec = NetworkSpec(sizes)
            if spec.param_count <= 1000:
                break
        params = init_params(spec, seed=int(rng.integers(1 << 30)))
        while True:
            inputs = rng.standard_normal((6, sizes[0]))
            labels = rng.integers(0, sizes[-1], 6)
            # central differences are invalid within h of a relu kink, so
            # keep every hidden pre-activation at least 100*h away from zero
            pre, x = [], inputs
            for w, b in layer_views(spec, params)[:-1]:
                pre.append(x @ w + b)
                x = np.maximum(pre[-1], 0.0)
            if all(np.min(np.abs(z)) > 1e-3 for z in pre):
                break
        analytic = backward(spec, params, inputs, labels)

        def loss_at(vals):
            return loss_and_accuracy(spec, vals, inputs, labels)[0]

        h = 1e-5
        numeric = np.empty_like(analytic)
        for i in range(params.size):
            up, down = params.copy(), params.copy()
            up[i] += h
            down[i] -= h
            numeric[i] = (loss_at(up) - loss_at(down)) / (2 * h)
        rel = np.max(np.abs(analytic - numeric)) / max(np.max(np.abs(numeric)), 1e-12)
        worst = max(worst, rel)
        assert rel < 1e-6, f"gradient mismatch: rel error {rel:.2e} on {sizes}"
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"20 networks took {elapsed:.1f}s, budget is 30s"
    report(4, f"backprop vs central differences: worst rel error {worst:.2e} "
              f"(< 1e-6) over 20 networks in {elapsed:.1f}s")


def test_criterion_05_normalized_momentum_beats_plain_averaging_on_desk_task():
    """Final averaged-model accuracy of fednnnn (beta 0.7, gamma 0.8) exceeds
    fedavg by >= 2 points, averaged over seeds 0..2, on the non-IID unbalanced
    desk task (10 clients, 30 rounds)."""
    gaps = []
    for seed in DESK_SEEDS:
        avg = desk_run("fedavg", seed).metrics[-1].eval_acc_distributed
        fnn = desk_run("fednnnn", seed, beta=0.7, gamma=0.8).metrics[-1]
        assert fnn.eval_acc_averaged is not None
        gaps.append(100.0 * (fnn.eval_acc_averaged - avg))
    mean_gap = sum(gaps) / len(gaps)
    assert mean_gap >= 2.0, f"mean gap {mean_gap:+.2f}pp is below +2pp"
    report(5, "fednnnn averaged-model accuracy beat fedavg by "
              + ", ".join(f"{g:+.1f}" for g in gaps)
              + f"pp (mean {mean_gap:+.2f}pp >= +2pp)")


def test_criterion_06_divergence_grows_with_label_skew():
    """Mean N/E is strictly smaller under non-IID(2) than IID for each of 3
    seeds, and a single-client run keeps N == E to rel 1e-12 every round."""
    for seed in DESK_SEEDS:
        train, test = synth_split(10, 50, 20, 20, seed=seed,
                                  center_scale=0.5, components_per_class=2)
        means = {}
        for name, part, clients in (
            ("iid", PartitionSpec("iid", "balanced"), 10),
            ("noniid", PartitionSpec("noniid", "balanced", 2), 10),
        ):
            config = ExperimentConfig(
                network=DESK_NET,
                strategy=AggregationStrategy("fedavg"),
                client=ClientConfig(learning_rate=0.05, batch_size=50,
                                    local_epochs=5),
                partition=part,
                schedule=Schedule(rounds=10, clients=clients, seed=seed),
            )
            result = run_experiment(train, test, config)
            means[name] = sum(r.ratio for r in result.metrics) / 10
        assert means["noniid"] < means["iid"], (
            f"seed {seed}: noniid ratio {means['noniid']:.3f} not below "
            f"iid {means['iid']:.3f}"
        )

    train, test = synth_split(10, 50, 20, 20, seed=0,
                              center_scale=0.5, components_per_class=2)
    single = ExperimentConfig(
        network=DESK_NET,
        strategy=AggregationStrategy("fedavg"),
        client=ClientConfig(learning_rate=0.05, batch_size=50, local_epochs=5),
        partition=PartitionSpec("iid", "balanced"),
        schedule=Schedule(rounds=5, clients=1, seed=0),
    )
    for row in run_experiment(train, test, single).metrics:
        assert abs(row.aggregate_norm - row.mean_local_norm) <= (
            1e-12 * row.mean_local_norm
        )
    report(6, "mean N/E strictly smaller under non-IID than IID on 3 seeds; "
              "single client keeps N == E to rel 1e-12")


def test_criterion_07_reruns_and_worker_counts_are_byte_identical(tmp_path):
    """The same config and seed produce byte-identical metrics and per-layer
    CSVs and manifest on rerun and with 1 vs 4 workers."""
    config = {
        "dataset": {"kind": "synth", "classes": 4, "train_per_class": 25,
                    "test_per_class": 10, "features": 6,
                    "center_scale": 0.5, "components_per_class": 2},
        "network": {"hidden": [12]},
        "partition": {"label_mode": "noniid", "size_mode": "unbalanced",
                      "classes_per_client": 2},
        "training": {"rounds": 3, "clients": 4, "seed": 3},
        "strategies": [{"kind": "fedavg"},
                       {"kind": "fednnnn", "beta": 0.7, "gamma": 0.8}],
    }
    path = tmp_path / "exp.yaml"
    path.write_text(yaml.safe_dump(config))
    for name, workers in (("a", None), ("b", None), ("c", "4")):
        argv = ["run", "--config", str(path), "--out", str(tmp_path / name)]
        if workers:
            argv += ["--workers", workers]
        assert cli_main(argv) == 0
    for fname in ("fedavg_metrics.csv", "fednnnn_metrics.csv",
                  "fednnnn_layers.csv", "manifest.json"):
        a = (tmp_path / "a" / fname).read_bytes()
        assert a == (tmp_path / "b" / fname).read_bytes(), f"{fname}: rerun differs"
        assert a == (tmp_path / "c" / fname).read_bytes(), f"{fname}: workers differ"
    assert json.loads((tmp_path / "a" / "manifest.json").read_text())["status"] == "complete"
    report(7, "metrics and per-layer CSVs and manifest byte-identical across "
              "rerun and workers 1 vs 4")


def test_criterion_08_idx_parsing_and_distinct_failures(tmp_path):
    """A well-formed IDX pair parses; wrong magic, truncation, and count
    mismatch each raise their own error type with file offsets."""
    def pair(prefix, pixels, labels):
        ip = tmp_path / f"{prefix}i.idx"
        lp = tmp_path / f"{prefix}l.idx"
        ip.write_bytes(struct.pack(">IIII", 0x803, len(labels), 2, 2) + bytes(pixels))
        lp.write_bytes(struct.pack(">II", 0x801, len(labels)) + bytes(labels))
        return ip, lp

    ip, lp = pair("ok", list(range(8)), [1, 0])
    ds = load_idx(ip, lp)
    assert ds.inputs.shape == (2, 4)
    assert ds.inputs[0, 3] == 3 / 255
    assert list(ds.labels) == [1, 0]

    bad_magic, _ = pair("m", list(range(8)), [1, 0])
    bad_magic.write_bytes(b"\x00\x00\x09\x99" + bad_magic.read_bytes()[4:])
    with pytest.raises(IdxMagicError, match="offset 0"):
        load_idx(bad_magic, lp)

    short, _ = pair("t", list(range(8)), [1, 0])
    short.write_bytes(short.read_bytes()[:-3])
    with pytest.raises(IdxTruncatedError, match="offset"):
        load_idx(short, lp)

    _, fewer = pair("c", list(range(8)), [1])
    with pytest.raises(IdxCountError, match="2.*1"):
        load_idx(ip, fewer)
    report(8, "IDX pair parsed; magic, truncation, and count failures raised "
              "distinct errors naming offsets")


def test_criterion_09_proximal_term_shrinks_local_movement():
    """Round-averaged E with fedprox mu=0.02 is strictly below mu=0 on the
    desk task for every seed in 0..2."""
    shrinks = []
    for seed in DESK_SEEDS:
        free = desk_run("fedavg", seed)
        prox = desk_run("fedprox", seed, mu=0.02)
        e_free = sum(r.mean_local_norm for r in free.metrics) / len(free.metrics)
        e_prox = sum(r.mean_local_norm for r in prox.metrics) / len(prox.metrics)
        assert e_prox < e_free, (
            f"seed {seed}: prox E {e_prox:.5f} not below free E {e_free:.5f}"
        )
        shrinks.append(100 * (1 - e_prox / e_free))
    report(9, "mu=0.02 cut round-averaged E by "
              + ", ".join(f"{s:.2f}" for s in shrinks) + "% on seeds 0..2")
