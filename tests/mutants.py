"""Source mutations the test suite must kill, and the check that it does.

Each row of MUTANTS edits one place of src/fednorm/ to break one behaviour:
(name, file, exact old text, new text, the behaviour). CONTROL changes a
comment only. `python tests/mutants.py`, which takes no options, copies
src/, tests/, demos/, benchmarks/, README.md and pyproject.toml into a
temporary tree per row, applies the edit, runs the tier-1 suite there with
-x, and prints the first failing test, or SURVIVED. The control runs first;
each tree is removed after its run, also on Ctrl-C or SIGTERM. It exits 0
only when the control survives and every mutant dies. The suite inherits
the OpenBLAS kernel from the environment: under OPENBLAS_CORETYPE=Nehalem
the golden tables skip in the main process. pytest does not collect this
file, and tests/test_imports.py checks that every old text still occurs
once.
"""

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "demos", "benchmarks", "README.md", "pyproject.toml")
# tier-1, less the check of this list, which a mutated tree fails by construction
TIER1 = ["-m", "pytest", "-q", "-x", "--continue-on-collection-errors", "-p", "no:cacheprovider",
         "--deselect", "tests/test_imports.py::test_every_mutant_edits_one_place_of_the_source"]
TIMEOUT_S = 900  # a hung suite fails; the whole suite takes under a minute


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    breaks: str


CONTROL = Mutant("C0", "orchestrator.py", "# map yields in client order, so",
                 "# map yields in client order: so", "nothing (a comment)")

# M1-M11 are the round's scalar decisions; the others are named by module
MUTANTS = [Mutant(*row) for row in [
    ("M1", "aggregate.py", "for k, weight in enumerate(self.weights):\n            mean",
     "for k, weight in reversed(list(enumerate(self.weights))):\n            mean",
     "E is summed in client order"),
    ("M2", "client.py", "grad += scratch", "grad -= scratch", "the proximal pull's sign"),
    ("M3", "orchestrator.py", "integrated_so_far + step_norm", "step_norm",
     "the integrated norm is a prefix sum"),
    ("M4", "orchestrator.py", "network, average, test", "network, params, test",
     "the averaged model w + u is evaluated"),
    ("M5", "orchestrator.py", 'if mode == "uniform":', "if True:", "weights by sample count"),
    ("M6", "client.py", "np.arange(1, epochs + 1,", "np.arange(0, epochs,", "epochs count from 1"),
    ("M7", "client.py", "learning_rate, config.weight_decay, scratch)",
     "learning_rate, 0.0, scratch)", "weight decay reaches the SGD step"),
    ("M8", "aggregate.py", 'gamma if strategy.kind in ("momentum", "fednnnn") else 0.0', "gamma",
     "only momentum and fednnnn keep a direction"),
    ("M9", "aggregate.py", "strategy.beta * (e / n)", "(e / n)", "s = beta * E / N"),
    ("M10", "orchestrator.py", "l2_norm(direction,", "l2_norm(report.combined,",
     "the step norm is ||d||"),
    ("M11", "client.py",
     "for seed in seeds:\n"
     "            for inputs, labels in batches(data, rows, config.batch_size, seed, batch):\n"
     "                gradient_into(layers, grads, inputs, labels)\n"
     "                if mu > 0:\n"
     "                    prox_addend_into(scratch, out, start, mu)",
     "for seed in seeds:\n"
     "            anchor = out.copy()\n"
     "            for inputs, labels in batches(data, rows, config.batch_size, seed, batch):\n"
     "                gradient_into(layers, grads, inputs, labels)\n"
     "                if mu > 0:\n"
     "                    prox_addend_into(scratch, out, anchor, mu)",
     "the proximal anchor stays the round's w"),
    ("A1", "aggregate.py", "sqrt(self.whole_sq[k])", "sqrt(self.whole_sq[k]) / 2", "N <= E"),
    ("A2", "aggregate.py", "if n <= strategy.epsilon", "if n < strategy.epsilon",
     "the epsilon guard holds at equality"),
    ("A3", "aggregate.py", "<= weight < math.inf", "<= weight", "an Inf weight is rejected"),
    ("A4", "aggregate.py", "mean_local > 0 else None", "mean_local > 0 else 0.0",
     "the ratio is None when no client moved"),
    ("A5", "aggregate.py", 'kind != "fedprox"', 'kind == "fedavg"', "only fedprox takes mu"),
    ("CL1", "client.py", "weight_decay > 0 or mu > 0 else", "weight_decay > 0 else",
     "the proximal term gets a scratch row"),
    ("CL2", "client.py", "if len(seeds) != config", "if len(seeds) < config",
     "one seed per local epoch"),
    ("CL3", "client.py", "np.subtract(out, start, out=out)", "np.subtract(start, out, out=out)",
     "the delta is trained minus distributed"),
    ("D1", "data.py", "buf) / x.size)", "buf) / (x.size - 1))", "the std is the population's"),
    ("D2", "data.py", "inputs -= mean", "inputs += mean", "normalize subtracts the mean"),
    ("D3", "data.py", "inputs /= 255.0", "inputs /= 256.0", "IDX pixels map to [0, 1]"),
    ("D4", "data.py", "if len(buf) < header + payload:", "if len(buf) < header:",
     "a truncated IDX payload is an IdxTruncatedError"),
    ("D5", "data.py", "if count != lcount:", "if count < lcount:",
     "an IDX count mismatch is an IdxCountError"),
    ("D6", "data.py", "block[(j - first) % k :: k]", "block[j::k]",
     "blob components cycle over a class's rows across both splits"),
    ("D7", "data.py", "range(0, n, batch_size)", "range(0, n - batch_size + 1, batch_size)",
     "the last short batch is trained"),
    ("D8", "data.py", "default_rng(epoch_seed)", "default_rng(0)", "batch order follows its seed"),
    ("D9", "data.py", "    rng = np.random.default_rng(seed)\n    # rank",
     "    rng = np.random.default_rng()\n    # rank", "the partition is seeded"),
    ("D10", "data.py", "labels.max() >= count", "labels.max() > count",
     "labels lie below class_count"),
    ("D11", "data.py", "bool) or not isinstance(n, numbers.Integral) or n < 1",
     "bool) or n < 1", "a float blob count is rejected"),
    ("D12", "data.py", "order = rows[np.random", "order = np.arange(n)[np.random",
     "a batch gathers the client's rows"),
    ("D13", "data.py", "count=payload, offset=header)", "count=payload, offset=16)",
     "an IDX payload starts after its own file's header"),
    ("D14", "data.py", "(np.trunc(labels) == labels)", "(labels == labels)",
     "a label is a whole number"),
    ("D15", "data.py", "not isinstance(count, numbers.Integral) or count < 1", "count < 1",
     "class_count is an int"),
    ("D16", "data.py", 'labels.dtype.kind not in "biuf" or ', "", "a string label is refused"),
    ("E1", "errors.py", "if kind is float and not math.isfinite(value):", "if False:",
     "a config float is finite"),
    ("E2", "errors.py", "if isinstance(value, bool) or not", "if not", "a bool is not a number"),
    ("N1", "nn.py", "* (post[li] > 0.0)", "* (post[li] >= 0.0)", "backprop masks by the ReLU"),
    ("N2", "nn.py", "g /= n\n", "g /= 1\n", "the gradient is the batch mean's"),
    ("N3", "nn.py", "6.0 / w.shape[0]", "6.0 / w.shape[1]", "init is bounded by the fan-in"),
    ("N4", "nn.py", "np.multiply(params, lam,", "np.multiply(params, -lam,",
     "weight decay shrinks the weights"),
    ("N5", "nn.py", "np.subtract(params, anchor, out=out)", "np.subtract(anchor, params, out=out)",
     "the proximal addend is mu (w - anchor)"),
    ("N6", "nn.py", "lse - logits[rows, labels]", "lse - logits[rows, 0]",
     "the loss reads each row's label"),
    ("N7", "nn.py", "if values.shape != (spec.param_count,):", "if values.ndim != 1:",
     "parameters of another network are rejected"),
    ("O1", "orchestrator.py", "k + 1 if (k + 1) / self.clients <= self.participation else k,",
     "k,", "clients_per_round survives float rounding"),
    ("O2", "orchestrator.py", "sorted(int(c) for c in picked)", "[int(c) for c in picked]",
     "sampled clients are folded in id order"),
    ("O3", "orchestrator.py", "derive_seed(schedule.seed, _ROUND,", "derive_seed(0, _ROUND,",
     "the rounds follow the experiment seed"),
    ("O4", "orchestrator.py", "rows = ring[b % 2 * block:][: end - start]",
     "rows = ring[: end - start]", "a block trains in the half the server is not folding"),
    ("O5", "orchestrator.py", "(train, range(start, end), rows)",
     "(train, range(end - 1, start - 1, -1), rows[::-1])",
     "the first failing client in client order is raised"),
    ("O6", "orchestrator.py", 'stage = "server: "', 'stage = ""', "a server failure names itself"),
    ("O7", "orchestrator.py", "max(workers, HANDOFF", "max(1, HANDOFF",
     "a block holds a row per worker"),
    ("O8", "orchestrator.py", "if len(test) == 0:", "if len(test) < 0:",
     "an empty test set is rejected before training"),
    ("O9", "orchestrator.py", "replace=False", "replace=True", "clients are sampled once a round"),
    ("P1", "params.py", "seg.offset != pos", "seg.offset < pos", "segments tile without gaps"),
    ("P2", "params.py", "dual = started or k == 1", "dual = started",
     "one row's norms are summed left to right"),
    ("P3", "params.py", "np.add.reduce(block, axis=0", "np.add.reduce(block[::-1], axis=0",
     "rows are added in row order"),
    ("P4", "params.py", "segments)[0][0])", "segments)[1][0][0])", "l2_norm is the whole's"),
    ("P5", "params.py", "block[0] += acc", "pass", "a fold continues from the earlier blocks"),
    ("P6", "params.py", "axis=None)) or np.isfinite(x).all()", "axis=None))",
     "all_finite is false only for NaN or Inf"),
    ("P7", "params.py", "start + CHUNK], column,", "start + CHUNK], column[::-1],",
     "each row gets its own weight"),
    ("CLI1", "cli.py", 'f"{value:.17g}"', 'f"{value:.16g}"', "CSV floats keep 17 digits"),
    ("CLI2", "cli.py", "normalize(test, stats)", "normalize(test, normalization_stats(test))",
     "the test set is normalized with the training set's stats"),
    ("CLI3", "cli.py", 'DivergenceError(f"{label} {exc}")', 'DivergenceError(f"{exc}")',
     "a divergence names its strategy"),
    ("CLI4", "cli.py", '{**manifest, "status": "failed", "files": files}', "manifest",
     "a failed run's manifest says failed"),
    ("CLI5", "cli.py", "{repeat + 1}", "{repeat}", "a repeated kind gets a distinct label"),
    ("CLI6", "cli.py", "except (ConfigError, DivergenceError,", "except (DivergenceError,",
     "a config error exits 2"),
    ("CLI7", "cli.py", 'ConfigError(f"{prefix}{exc}")', 'ConfigError(f"{exc}")',
     "an error names its config path"),
    ("CLI8", "cli.py", "for key in value:\n", "for key in ():\n",
     "an unknown config key is refused"),
    ("CLI9", "cli.py", "if item is None:", "if False:", "YAML null is refused"),
    ("CLI10", "cli.py", "if f.name not in value and", "if False and",
     "a field with no default, a strategy's kind, is required"),
    ("CLI11", "cli.py", "max(accs)", "accs[-1]", "compare's best_acc is the best round's"),
    ("CLI12", "cli.py", '"tag:yaml.org,2002:float",', '"tag:yaml.org,2002:str",',
     "a config file reads 1e-3 as a float"),
    ("CLI13", "cli.py", "isinstance(cell, float | None)", "isinstance(cell, type(None))",
     "every CSV float is written by _fmt"),
    ("I1", "__init__.py", "openblas_threads(1)\n", "\n", "importing fednorm pins BLAS"),
]]


def first_failure(output: str) -> str:
    """The first FAILED or ERROR line of pytest's summary, else its last line."""
    lines = [line for line in output.splitlines() if line.strip()] or ["no output"]
    failed = [line for line in lines if line.startswith(("FAILED ", "ERROR "))]
    return (failed or lines[-1:])[0].split(" - ", 1)[0]


def run(mutant: Mutant) -> str:
    """The first failing test of tier-1 with the mutant applied, or SURVIVED."""
    with tempfile.TemporaryDirectory(prefix="fednorm-mutant-") as tmp:
        tree = Path(tmp)
        for name in COPIED:
            if (ROOT / name).is_dir():
                shutil.copytree(ROOT / name, tree / name, ignore=shutil.ignore_patterns(
                    "__pycache__", ".pytest_cache", ".hypothesis"))
            else:
                shutil.copy2(ROOT / name, tree / name)
        path = tree / "src" / "fednorm" / mutant.file
        text = path.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            return f"old text occurs {text.count(mutant.old)} times"
        path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(tree / "src"), os.environ.get("PYTHONPATH")]))}
        # a session of its own, so that the suite's children are stopped with it
        proc = subprocess.Popen([sys.executable, *TIER1], cwd=tree, env=env, text=True,
                                stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                start_new_session=True)
        try:
            output = proc.communicate(timeout=TIMEOUT_S)[0]
        except subprocess.TimeoutExpired:
            output = f"timed out after {TIMEOUT_S} s"
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        return "SURVIVED" if proc.returncode == 0 else first_failure(output)


def main() -> int:
    if sys.argv[1:]:
        print("usage: python tests/mutants.py (no options)", file=sys.stderr)
        return 2
    # SIGTERM unwinds like Ctrl-C, so the running tree is still removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    kernel = os.environ.get("OPENBLAS_CORETYPE", "native")
    print(f"{len(MUTANTS)} mutants and a control, OpenBLAS kernel {kernel}", flush=True)
    started, survivors = time.monotonic(), []
    for mutant in [CONTROL, *MUTANTS]:
        begun = time.monotonic()
        verdict = run(mutant)
        print(f"{mutant.name:<5} {mutant.file:<16} {time.monotonic() - begun:6.1f} s  "
              f"{verdict}  [{mutant.breaks}]", flush=True)
        if mutant is CONTROL and verdict != "SURVIVED":
            print("the control failed: the suite fails without a mutant")
            return 1
        if mutant is not CONTROL and verdict == "SURVIVED":
            survivors.append(mutant.name)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed, control survived, "
          f"{time.monotonic() - started:.0f} s" + "".join(f"; {s} survived" for s in survivors))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
