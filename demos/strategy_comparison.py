"""
Five aggregation strategies on one hard federation
==================================================

Same data, same clients, same seeds; only the server-side update rule
changes. The task is a 10-class synthetic mixture split across 10 clients
in the worst supported configuration: each client holds just 2 classes and
the shard sizes follow a power law.

Strategies that rescale the aggregate by E/N (normnorm, fednnnn) report a
second accuracy column: the model evaluated as if plain averaging had been
applied to the same round, which is the deployable variant when the server
keeps both.

    python3 demos/strategy_comparison.py
"""

from fednorm import (
    AggregationStrategy,
    ClientConfig,
    ExperimentConfig,
    NetworkSpec,
    PartitionSpec,
    Schedule,
    run_experiment,
    synth_split,
)

ROUNDS = 30
SEED = 0

STRATEGIES = [
    AggregationStrategy("fedavg"),
    AggregationStrategy("fedprox", mu=0.02),
    AggregationStrategy("normnorm", beta=0.9),
    AggregationStrategy("momentum", gamma=0.8),
    AggregationStrategy("fednnnn", beta=0.7, gamma=0.8),
]

train, test = synth_split(10, 200, 200, 20, seed=SEED,
                          center_scale=0.5, components_per_class=2)

print(f"10 clients, 2 classes each, power-law shard sizes, {ROUNDS} rounds")
print()
print(f"{'strategy':<10} {'final acc':>9} {'averaged':>9} {'mean N/E':>9}")

for strategy in STRATEGIES:
    config = ExperimentConfig(
        network=NetworkSpec((20, 64, 10)),
        strategy=strategy,
        client=ClientConfig(learning_rate=0.05, batch_size=50, local_epochs=5),
        partition=PartitionSpec("noniid", "unbalanced", 2, 1.5),
        schedule=Schedule(rounds=ROUNDS, clients=10, seed=SEED),
    )
    result = run_experiment(train, test, config)
    last = result.metrics[-1]
    ratios = [r.ratio for r in result.metrics if r.ratio is not None]
    averaged = "" if last.eval_acc_averaged is None else f"{last.eval_acc_averaged:9.4f}"
    print(f"{strategy.kind:<10} {last.eval_acc_distributed:>9.4f} {averaged:>9} "
          f"{sum(ratios) / len(ratios):>9.3f}")

print()
print("the averaged column is the fairer score for the rescaled strategies:")
print("their distributed model moves on a longer leash, but averaging the")
print("same client work back in recovers a strong deployable model")
