"""Deterministic federated-learning lab: five server aggregation rules with
norm-based divergence analysis on every round.

The usual entry points are `run_experiment` for library use and the `fednorm`
command line for batch runs; see the README for the round-loop semantics.
Everything else is imported from its submodule.

Importing fednorm pins OpenBLAS to one thread, whatever the environment says
and even when numpy was imported first: a threaded matrix product can round
differently with the thread count, and output bytes must not depend on the
machine. The pin calls numpy's bundled OpenBLAS; a numpy with another BLAS
gets OPENBLAS_NUM_THREADS=1 instead, which only holds when numpy has not been
loaded yet.
"""

import os
import sys

if "numpy" not in sys.modules:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .aggregate import AggregationStrategy, nwda
from .client import ClientConfig
from .data import PartitionSpec, partition, synth_dataset, synth_split
from .errors import ConfigError
from .nn import NetworkSpec
from .orchestrator import ExperimentConfig, Schedule, run_experiment
from .params import Segment, openblas_threads

openblas_threads(1)

__version__ = "0.1.0"

__all__ = [
    "AggregationStrategy", "ClientConfig", "ConfigError", "ExperimentConfig",
    "NetworkSpec", "PartitionSpec", "Schedule", "Segment", "nwda", "partition",
    "run_experiment", "synth_dataset", "synth_split", "__version__",
]
