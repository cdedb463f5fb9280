"""
The four partition flavors
==========================

One dataset, 8 clients, four ways to slice it. Each client's shard is an
array of row indices into the one dataset. Prints each client's shard size
and per-class label counts so you can see exactly what the label_mode and
size_mode knobs change.

    python3 demos/partition_gallery.py
"""

import numpy as np

from fednorm import PartitionSpec, partition, synth_dataset

CLASSES = 5
CLIENTS = 8

data = synth_dataset(class_count=CLASSES, per_class=80, feature_dim=4, seed=7)

flavors = [
    ("iid balanced", PartitionSpec("iid", "balanced")),
    ("iid unbalanced", PartitionSpec("iid", "unbalanced",
                                     power_exponent=1.5)),
    ("noniid balanced", PartitionSpec("noniid", "balanced",
                                      classes_per_client=2)),
    ("noniid unbalanced", PartitionSpec("noniid", "unbalanced",
                                        classes_per_client=2,
                                        power_exponent=1.5)),
]

for title, spec in flavors:
    shards = partition(data, spec, CLIENTS, seed=3)
    print(title)
    print("-" * len(title))
    for cid, rows in enumerate(shards):
        counts = np.bincount(data.labels[rows], minlength=CLASSES)
        bars = " ".join(f"{c:>3}" for c in counts)
        print(f"  client {cid}: n={len(rows):>3}  classes [{bars}]")
    sizes = [len(s) for s in shards]
    print(f"  sizes: min {min(sizes)}, max {max(sizes)}, "
          f"total {sum(sizes)} of {len(data)}")
    print()

print("iid spreads every class everywhere; noniid(2) restricts each client")
print("to two classes. balanced keeps shards within one example of equal;")
print("unbalanced draws sizes from a power law, so a few clients dominate")
