"""Golden outputs: `fednorm run --preset desk_quick --seed 0` must write these
exact bytes. Rerun checks cannot catch a change that moves the numbers the
same way on every run; these hashes do. They are the SHA-256 digests of the
reference CSVs in benchmarks/reference/desk_quick/."""

import hashlib

from fednorm.cli import main

DESK_QUICK_SHA256 = {
    "fedavg_layers.csv": "c5af933b8013c1324a00099107525c96ffac2677382fe4356103d705db18ee8c",
    "fedavg_metrics.csv": "d3fde80c7f5224c465e33aa7e64db05d775ebe3192d3ac64b235993ee469a713",
    "fednnnn_layers.csv": "e9358679f686be0b266701992e18293703975d59c66d9609dbd4f2af7f99433e",
    "fednnnn_metrics.csv": "7ad942595ed585725be5c381f3d63874147d40d7285b4ccfe038989f33f24fc0",
    "fedprox_layers.csv": "93bc34bef423b288c93460ff99b382e1a7971bbd2ba03a2fdbac83a6a4f7c543",
    "fedprox_metrics.csv": "19fe1ae76d0b926c3dca5d788d570285930118a84b3228aadd4675e73be4d683",
    "momentum_layers.csv": "6837ac43e49620c7480c422414087bbf124212d4560b05a171fd570481cf3eae",
    "momentum_metrics.csv": "7a90759f284112ed5bb71e7895799c51bee0f1a558f40414c9a904457b014215",
    "normnorm_layers.csv": "59247940ad9f503eaa27f9edf1e9a3d47adf6eb03a10f4d38f3c4376ab3c389f",
    "normnorm_metrics.csv": "e7ccffd80ca3d0fd693b764caf9caede59c19a190bfae4162e086284455f9259",
}


def test_desk_quick_seed_0_matches_golden_hashes(tmp_path):
    assert main(["run", "--preset", "desk_quick", "--seed", "0",
                 "--out", str(tmp_path)]) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(tmp_path.glob("*.csv"))}
    assert written == DESK_QUICK_SHA256
