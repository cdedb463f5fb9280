"""One benchmark process: `fednorm run`, started the way the console script
starts it, with clock marks recorded from outside the program.

    python3 benchmarks/launch.py --marks FILE [--trace] -- run --preset desk_quick --out DIR

Untraced, the only hooks are clock reads around `run_experiment` (looked up
in `fednorm.cli`) and `run_round` (looked up in `fednorm.orchestrator`).
With --trace, every function in TRACED is wrapped as well. The marks file
gets the first run_experiment start, each round's duration and, when traced,
the per-layer totals. The exit code is the one `fednorm run` returns.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import ROUND, Target, Tracer, clock, installed, summarize  # noqa: E402

EXPERIMENT = "orchestrator.run_experiment"

UNTRACED = (
    Target(EXPERIMENT, "fednorm.cli", "run_experiment"),
    Target(ROUND, "fednorm.orchestrator", "run_round"),
)


def _built_bytes(args, _result) -> float:
    # ParamVector.__post_init__(self) copies its input into self.values
    return float(args[0].values.nbytes)


TRACED = UNTRACED + (
    Target("cli.load_data", "fednorm.cli", "load_data"),
    Target("cli.write_csv", "fednorm.cli", "write_metrics_csv"),
    Target("cli.write_csv", "fednorm.cli", "write_layers_csv"),
    Target("data.synth_split", "fednorm.cli", "synth_split"),
    Target("data.normalize", "fednorm.cli", "normalization_stats"),
    Target("data.normalize", "fednorm.cli", "normalize"),
    Target("data.partition", "fednorm.orchestrator", "partition"),
    Target("data.batches", "fednorm.client", "batches"),
    Target("client.local_train", "fednorm.orchestrator", "local_train"),
    Target("nn.backward", "fednorm.client", "backward"),
    Target("nn.sgd_step", "fednorm.client", "sgd_step"),
    Target("nn.prox_gradient_addend", "fednorm.client", "prox_gradient_addend"),
    Target("nn.forward_loss", "fednorm.orchestrator", "forward_loss"),
    Target("params.delta", "fednorm.client", "delta"),
    Target("params.construct", "fednorm.params:ParamVector", "__post_init__", _built_bytes),
    Target("aggregate.nwda", "fednorm.orchestrator", "nwda"),
    Target("aggregate.apply_strategy", "fednorm.orchestrator", "apply_strategy"),
    Target("orchestrator.evaluate", "fednorm.orchestrator", "evaluate"),
)


def run(marks_path: Path, traced: bool, argv: list[str]) -> int:
    started = clock()
    import fednorm.cli
    import_s = clock() - started

    tracer = Tracer()
    code = 1
    try:
        with installed(tracer, TRACED if traced else UNTRACED):
            code = fednorm.cli.main(argv)
    finally:
        experiments = [s.start for s in tracer.spans if s.name == EXPERIMENT]
        marks = {
            "fednorm_file": fednorm.cli.__file__,
            "import_s": import_s,
            "first_experiment_at": min(experiments) if experiments else None,
            "rounds": [s.duration for s in sorted(tracer.spans, key=lambda s: s.start)
                       if s.name == ROUND],
        }
        if traced:
            marks["layers"] = summarize(tracer.spans)
        marks_path.write_text(json.dumps(marks))
    return code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--marks", required=True, type=Path)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    return run(args.marks, args.trace, argv)


if __name__ == "__main__":
    sys.exit(main())
