"""
Watching client updates cancel each other
=========================================

Two clients that pull the shared model in opposite directions produce a
combined step that is much shorter than either local step. The aggregate
norm N picks that up; the mean local norm E does not. This script first
builds the effect by hand, then shows it emerging from real training when
the label distribution is skewed across clients.

Run it from the repo root after an editable install:

    python3 demos/divergence_walkthrough.py
"""

import numpy as np

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

# ---------------------------------------------------------------- by hand

print("hand-built round, two clients, opposite pulls")
print("---------------------------------------------")

# one row per client, laid out by the segments; weights alpha_k = 0.5 each
segments = (Segment("fc1.weight", 0, 4),)
deltas = np.array([
    [1.0, 0.0, 0.5, 0.0],   # pulls right
    [-1.0, 0.0, 0.5, 0.0],  # pulls left
])

report = nwda([0.5, 0.5], deltas, segments)
print(f"client deltas: {deltas[0]} and {deltas[1]}")
print(f"aggregate norm N     = {report.aggregate_norm:.4f}")
print(f"mean local norm E    = {report.mean_local_norm:.4f}")
print(f"ratio N/E            = {report.ratio:.4f}")
print("the x-components cancel; only the shared y-direction survives")
print()

# ------------------------------------------------------------- from training

print("same measurement on real federated rounds")
print("-----------------------------------------")
print("10 clients, synthetic 10-class mixture data, fedavg, 10 rounds.")
print("iid clients see every class; the skewed run gives each client")
print("only 2 of the 10 classes.")
print()

train, test = synth_split(10, 50, 20, 20, seed=0,
                          center_scale=0.5, components_per_class=2)

ratios = {}
for name, partition in (
    ("iid", PartitionSpec("iid", "balanced")),
    ("skewed", PartitionSpec("noniid", "balanced", classes_per_client=2)),
):
    config = ExperimentConfig(
        network=NetworkSpec((20, 64, 10)),
        strategy=AggregationStrategy("fedavg"),
        client=ClientConfig(learning_rate=0.05, batch_size=50, local_epochs=5),
        partition=partition,
        schedule=Schedule(rounds=10, clients=10, seed=0),
    )
    result = run_experiment(train, test, config)
    ratios[name] = [round_.ratio for round_ in result.metrics]

print(f"{'round':>5}  {'iid N/E':>8}  {'skewed N/E':>10}")
for i, (a, b) in enumerate(zip(ratios["iid"], ratios["skewed"]), start=1):
    print(f"{i:>5}  {a:>8.3f}  {b:>10.3f}")

mean_iid = sum(ratios["iid"]) / len(ratios["iid"])
mean_skew = sum(ratios["skewed"]) / len(ratios["skewed"])
print()
print(f"mean ratio: iid {mean_iid:.3f}, skewed {mean_skew:.3f}")
print("label skew makes clients disagree, so more of the local work")
print("cancels at the server and the ratio drops")
