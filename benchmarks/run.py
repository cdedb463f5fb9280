"""fednorm benchmark: run a workload as fresh `fednorm run` processes.

    python3 benchmarks/run.py --workload desk_quick --seed 0 --seconds 50 --trace 0
    python3 benchmarks/run.py --workload all          # every workload, one after another
    python3 benchmarks/run.py --write-reference       # regenerate benchmarks/reference/

Processes start one after another (a closed loop of one user) until
--seconds have passed, and at least twice, so reruns can be compared.
Every process of one invocation runs `fednorm run --seed <seed>`, so the
inputs do not depend on how many processes fit into the time, and every
process after the first is a rerun check.
Every process's outputs are checked (see check.py). With --trace 0 the
end-to-end metrics come from untraced processes. With --trace 1 untraced
and traced processes alternate, and the per-layer metrics come from the
traced ones (see launch.py); their difference in run time is the tracing
overhead. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

The benchmark pins nothing: BLAS threads stay at the library's default
unless the caller's environment sets them, and the effective setting is
printed in the environment block.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from check import REFERENCE_DIR, REFERENCE_SEED, OutputError, check_run, digest  # noqa: E402
from spans import clock  # noqa: E402

MIN_PROCESSES = 2
# at least 10 round samples beyond the median, so round_s_tail exists
MIN_ROUND_SAMPLES = 20
# On a machine whose cores change speed every few seconds, p99 of desk_quick's
# 13 ms rounds measured whether a slow spell fell into the run (spread 0.20-0.33
# over seeds); p90 kept 0.06-0.08.
TAIL_MAX_PCT = 90
# one invocation must end within 180 s
RUN_LIMIT_S = 170.0

ALL_STRATEGIES = ("fedavg", "fedprox", "normnorm", "momentum", "fednnnn")


@dataclass(frozen=True)
class Workload:
    name: str
    labels: tuple[str, ...]
    rounds: int
    workers: int
    # output bytes do not depend on the BLAS thread count
    exact: bool
    preset: str | None = None
    config: dict = field(default_factory=dict)

    def argv(self, work: Path, out: Path, seed: int) -> list[str]:
        if self.preset:
            source = ["--preset", self.preset]
        else:
            path = work / f"{self.name}.yaml"
            path.write_text(json.dumps(self.config))  # JSON is valid YAML
            source = ["--config", str(path)]
        return ["run", *source, "--out", str(out), "--seed", str(seed)]


def _mlp_784(dataset: dict, partition: dict, training: dict, strategies: list) -> dict:
    return {
        "dataset": {"kind": "synth", "classes": 10, "features": 784,
                    "center_scale": 0.5, "components_per_class": 2, **dataset},
        "network": {"hidden": [200, 200]},
        "partition": {"label_mode": "noniid", "classes_per_client": 2, **partition},
        "training": {"clients": 100, **training},
        "strategies": strategies,
    }


WORKLOADS = {w.name: w for w in (
    Workload(
        "desk_quick",
        labels=ALL_STRATEGIES, rounds=8, workers=1, exact=True, preset="desk_quick",
    ),
    # Runs with `--workload mnist_synth` or `all` but is not in BENCHMARK.json:
    # its pool threads and BLAS threads oversubscribe both cores of the
    # reference machine, and its round times then spread over ten seeds by
    # more than the largest bound BENCHMARK.json allows (see METRICS.md).
    Workload(
        "mnist_synth",
        labels=("fedprox", "fednnnn"), rounds=3, workers=2, exact=False,
        config=_mlp_784(
            {"train_per_class": 600, "test_per_class": 500},
            {"size_mode": "balanced"},
            {"rounds": 3, "participation": 0.1, "batch_size": 10, "local_epochs": 5,
             "workers": 2},
            [{"kind": "fedprox", "mu": 0.015}, {"kind": "fednnnn", "beta": 0.7, "gamma": 0.8}],
        ),
    ),
    Workload(
        "wide_round",
        labels=("normnorm", "momentum"), rounds=5, workers=1, exact=False,
        config=_mlp_784(
            {"train_per_class": 200, "test_per_class": 100},
            {"size_mode": "unbalanced", "power_exponent": 1.5},
            {"rounds": 5, "participation": 1.0, "batch_size": 50, "local_epochs": 1,
             "workers": 1},
            [{"kind": "normnorm", "beta": 0.9}, {"kind": "momentum", "gamma": 0.8}],
        ),
    ),
)}

# name -> unit; the order is the report's order
END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "round_s_p50": "s",
    "round_s_tail": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

MODULES = ("data", "nn", "params", "client", "aggregate", "orchestrator")

# per-layer metric -> unit; each is the key of the same name in a traced
# process's totals, except those in TOTALS_KEY
PER_LAYER = {
    "cli.import_s": "s",
    "cli.load_data_s": "s",
    "cli.write_csv_s": "s",
    "data.synth_split_s": "s",
    "data.normalize_s": "s",
    "data.partition_s": "s",
    "data.batches_s": "s",
    "data.batches_calls": "count",
    "nn.backward_s": "s",
    "nn.backward_calls": "count",
    "nn.sgd_step_s": "s",
    "nn.prox_gradient_addend_s": "s",
    "nn.forward_loss_s": "s",
    "nn.forward_loss_calls": "count",
    "params.vectors_built": "count",
    "params.bytes_copied": "bytes_computed",
    "params.construct_s": "s",
    "params.delta_s": "s",
    "client.local_train_s": "s",
    "client.local_train_calls": "count",
    "client.local_train_self_s": "s",
    "aggregate.nwda_s": "s",
    "aggregate.apply_strategy_s": "s",
    "orchestrator.train_phase_s": "s",
    "orchestrator.pool_efficiency": "ratio",
    "orchestrator.evaluate_s": "s",
    "orchestrator.round_other_s": "s",
    **{f"self.{m}_s": "s" for m in MODULES},
    "trace.rounds_s": "s",
    "trace.parallel_s": "s",
}
TOTALS_KEY = {
    "params.vectors_built": "params.construct_calls",
    "params.bytes_copied": "params.construct_amount",
}
# computed across the run's traced and untraced processes
RUN_LEVEL = {
    "trace.overhead_s": "s",
    "trace.untraced_rounds_s": "s",
}


# ------------------------------------------------------------------ statistics

def tail_percentile(samples: list[float]) -> tuple[float, int, int]:
    """The highest whole percentile up to TAIL_MAX_PCT (nearest rank) with at
    least 10 samples beyond it: (value, percentile, sample count). Needs at
    least 11 samples."""
    n = len(samples)
    if n < 11:
        raise ValueError(f"need at least 11 samples for a tail percentile, got {n}")
    ordered = sorted(samples)
    for pct in range(TAIL_MAX_PCT, 0, -1):
        rank = math.ceil(pct * n / 100)
        if n - rank >= 10:
            return ordered[rank - 1], pct, n
    raise AssertionError("unreachable: pct 1 always leaves 10 samples")


def fail_rate(failed: int, attempted: int) -> float:
    if attempted < 1:
        raise ValueError("no runs attempted")
    return failed / attempted


# -------------------------------------------------------------------- processes

@dataclass
class Process:
    traced: bool
    run_s: float
    cpu_s: float
    peak_rss_mb: float
    setup_s: float | None
    rounds: list[float]
    totals: dict[str, float]
    digest: dict[str, str]
    error: str | None


def _child_env() -> dict[str, str]:
    paths = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}


def _problem(marks: dict, out: Path, workload: Workload, seed: int) -> str | None:
    """Why a process that exited 0 still failed, or None."""
    source = Path(marks.get("fednorm_file", "")).resolve()
    if ROOT / "src" not in source.parents:
        return f"fednorm was imported from {source}, not from {ROOT / 'src'}"
    if marks.get("first_experiment_at") is None or not marks.get("rounds"):
        return "no run_experiment or run_round call was recorded"
    try:
        check_run(out, workload.name, workload.labels, workload.rounds, seed, workload.exact)
    except (OutputError, OSError, ValueError, KeyError) as exc:
        return f"output check: {exc}"
    return None


def run_process(workload: Workload, seed: int, work: Path, index: int, traced: bool,
                deadline: float) -> Process:
    """Spawn one `fednorm run`, wait for it, measure it and check its outputs."""
    out = work / f"p{index}"
    marks_path = work / f"p{index}.marks.json"
    log_path = work / f"p{index}.stderr"
    cmd = [sys.executable, str(HERE / "launch.py"), "--marks", str(marks_path),
           *(["--trace"] if traced else []), "--", *workload.argv(work, out, seed)]
    with log_path.open("wb") as log:
        spawned = clock()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(),
                                stdout=subprocess.DEVNULL, stderr=log)
        # a hung process is killed so the invocation still ends in time
        killer = threading.Timer(max(deadline - clock(), 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        run_s = clock() - spawned
    proc.returncode = os.waitstatus_to_exitcode(status)

    error = None
    try:
        marks = json.loads(marks_path.read_text())
    except (OSError, ValueError) as exc:
        marks, error = {}, f"no clock marks: {exc}"
    if proc.returncode != 0:
        lines = log_path.read_text(errors="replace").strip().splitlines()
        error = f"exit code {proc.returncode}: {lines[-1] if lines else 'no stderr'}"
    elif error is None:
        error = _problem(marks, out, workload, seed)
    first = marks.get("first_experiment_at")
    result = Process(
        traced=traced,
        run_s=run_s,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        setup_s=None if first is None else first - spawned,
        rounds=list(marks.get("rounds", [])),
        totals={"cli.import_s": marks.get("import_s", 0.0), **marks.get("layers", {})},
        digest=digest(out) if out.is_dir() else {},
        error=error,
    )
    shutil.rmtree(out, ignore_errors=True)
    marks_path.unlink(missing_ok=True)
    log_path.unlink(missing_ok=True)
    return result


def measure(workload: Workload, seed: int, seconds: int, trace: bool,
            work: Path) -> list[Process]:
    """Run processes until `seconds` have passed and the minimum sample
    counts are met; in trace mode untraced and traced processes alternate."""
    start = clock()
    deadline = start + RUN_LIMIT_S
    procs: list[Process] = []
    while True:
        good = [p for p in procs if p.error is None and not p.traced]
        if trace:
            enough = len(procs) % 2 == 0 and any(p.traced for p in procs)
        else:
            enough = (len(good) >= MIN_PROCESSES
                      and sum(len(p.rounds) for p in good) >= MIN_ROUND_SAMPLES)
        # stop before a process (a pair in trace mode) that would overrun
        typical = statistics.median(p.run_s for p in procs) * (2 if trace else 1) if procs else 0.0
        failed = any(p.error for p in procs)
        if (enough or failed) and clock() - start + typical > seconds:
            break
        if procs and clock() + max(p.run_s for p in procs) > deadline:
            break
        index = len(procs)
        procs.append(run_process(workload, seed, work, index,
                                 traced=trace and index % 2 == 1, deadline=deadline))

    # every process of the run must write the same bytes
    first = next((p.digest for p in procs if p.error is None), None)
    for p in procs:
        if p.error is None and p.digest != first:
            p.error = "output digest differs from the first successful process"
    return procs


# ---------------------------------------------------------------------- metrics

def end_to_end(procs: list[Process]) -> tuple[dict[str, float], str]:
    """Median metrics over the successful processes, and a note on the tail."""
    good = [p for p in procs if p.error is None]
    rounds = [r for p in good for r in p.rounds]
    if not good or len(rounds) < 11:
        return {name: 0.0 for name in END_TO_END}, "no successful processes"
    tail, pct, n = tail_percentile(rounds)
    values = {
        "run_s": statistics.median(p.run_s for p in good),
        "setup_s": statistics.median(p.setup_s for p in good),
        "round_s_p50": statistics.median(rounds),
        "round_s_tail": tail,
        "cpu_s": statistics.median(p.cpu_s for p in good),
        "peak_rss_mb": statistics.median(p.peak_rss_mb for p in good),
    }
    return values, f"round_s_tail is p{pct} of {n} round samples from {len(good)} processes"


def per_layer(procs: list[Process], workers: int) -> dict[str, float]:
    """Medians over traced processes, plus the run-level tracing overhead."""
    good = [p for p in procs if p.error is None]
    traced = [p for p in good if p.traced]
    untraced = [p for p in good if not p.traced]
    if not traced or not untraced:
        return {name: 0.0 for name in [*PER_LAYER, *RUN_LEVEL]}
    values = {}
    for p in traced:
        phase = p.totals.get("orchestrator.train_phase_s", 0.0)
        trained = p.totals.get("client.local_train_s", 0.0)
        p.totals["orchestrator.pool_efficiency"] = trained / (workers * phase) if phase else 0.0
    for name in PER_LAYER:
        key = TOTALS_KEY.get(name, name)
        values[name] = statistics.median(p.totals.get(key, 0.0) for p in traced)
    values["trace.overhead_s"] = (statistics.median(p.run_s for p in traced)
                                  - statistics.median(p.run_s for p in untraced))
    values["trace.untraced_rounds_s"] = statistics.median(sum(p.rounds) for p in untraced)
    return values


def _unit(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name in RUN_LEVEL:
        return RUN_LEVEL[name]
    return PER_LAYER[name]


# ------------------------------------------------------------------ environment

def _git_revision() -> str:
    def git(*args: str) -> str | None:
        try:
            done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                                  text=True, timeout=30)
        except (OSError, subprocess.SubprocessError):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    top = git("rev-parse", "--show-toplevel")
    if top is None or Path(top).resolve() != ROOT:
        return "unavailable (not a git checkout)"
    return git("rev-parse", "HEAD") or "unavailable"


def _blas() -> dict:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    except TypeError:  # numpy before 1.26 has no mode argument
        deps = {}
    blas = deps.get("blas", {})
    return {
        "name": blas.get("name", "unknown"),
        "version": blas.get("version", "unknown"),
        "configuration": blas.get("openblas configuration"),
        "threads_effective": _openblas_threads(np),
    }


def _openblas_threads(np) -> int | None:
    """Thread count the bundled OpenBLAS reports, or None if it cannot be asked."""
    import ctypes

    lib_dir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(lib_dir.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment(workloads: list[Workload]) -> dict:
    import numpy as np

    return {
        "git_revision": _git_revision(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_thread_env": {v: os.environ.get(v) for v in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "workers": {w.name: w.workers for w in workloads},
    }


# ---------------------------------------------------------------------- report

def report(workload: Workload, seed: int, trace: bool, procs: list[Process]) -> dict:
    """Print the human-readable report; return this workload's result."""
    failed = sum(1 for p in procs if p.error)
    print(f"workload {workload.name}  seed {seed}  trace {int(trace)}  "
          f"processes {len(procs)}  failed {failed}")
    for p in procs:
        if p.error:
            print(f"  FAILED ({'traced' if p.traced else 'untraced'}): {p.error}")
    if trace:
        metrics = per_layer(procs, workload.workers)
    else:
        metrics, note = end_to_end(procs)
    for name, value in metrics.items():
        print(f"  {name:<30} {value:.6g} {_unit(name)}")
    if not trace:
        print(f"  {'fail_rate':<30} {fail_rate(failed, len(procs)):.6g} ratio "
              f"({failed} of {len(procs)} processes)")
        print(f"  {note}")
    else:
        print("  self time in rounds by module: "
              + ", ".join(f"{m} {metrics[f'self.{m}_s']:.4g} s" for m in MODULES))
        added = metrics["trace.rounds_s"] - metrics["trace.untraced_rounds_s"]
        print(f"  traced rounds {metrics['trace.rounds_s']:.6g} s, untraced "
              f"{metrics['trace.untraced_rounds_s']:.6g} s: tracing added {added:+.4g} s to the "
              f"rounds and {metrics['trace.overhead_s']:+.4g} s to run_s")
    checks = "reference, rerun and invariant" if seed == REFERENCE_SEED else "rerun and invariant"
    print(f"  output check {'ok' if not failed else 'FAILED'} ({checks} checks)")
    return {
        "correct": failed == 0,
        "attempted": len(procs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": _unit(name)}
                    for name, value in metrics.items()},
    }


def write_reference(work: Path) -> None:
    """Rewrite reference/<workload>/ from one run per workload at the reference seed."""
    for w in WORKLOADS.values():
        out = work / w.name
        cmd = [sys.executable, str(HERE / "launch.py"), "--marks", str(work / "marks.json"),
               "--", *w.argv(work, out, REFERENCE_SEED)]
        subprocess.run(cmd, cwd=ROOT, env=_child_env(), check=True, stdout=subprocess.DEVNULL)
        target = REFERENCE_DIR / w.name
        shutil.rmtree(target, ignore_errors=True)
        target.mkdir(parents=True)
        for csv_path in sorted(out.glob("*.csv")):
            shutil.copyfile(csv_path, target / csv_path.name)
        print(f"wrote {target}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED,
                        help=f"workload seed; {REFERENCE_SEED} also compares with reference/")
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "fednorm" / "cli.py").is_file():
        print(f"error: no fednorm source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workloads = list(WORKLOADS.values()) if args.workload == "all" else [WORKLOADS[args.workload]]
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".bench_work"))
    try:
        if args.write_reference:
            write_reference(work)
            return 0
        results = {}
        for w in workloads:
            procs = measure(w, args.seed, args.seconds, bool(args.trace), work)
            results[w.name] = report(w, args.seed, bool(args.trace), procs)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".bench_work").rmdir()
        except OSError:
            pass
    print("environment " + json.dumps(environment(workloads), sort_keys=True))
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": m for w, r in results.items()
                        for name, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
