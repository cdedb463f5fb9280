"""Golden outputs: `fednorm run --preset desk_quick --seed 0` must write these
exact bytes. Rerun checks cannot catch a change that moves the numbers the
same way on every run; these hashes do. They are the SHA-256 digests of the
reference CSVs in benchmarks/reference/desk_quick/. A second set pins the
same run with weight decay, which no other golden output exercises."""

import hashlib

import yaml

from fednorm.cli import load_preset, main

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

# desk_quick with training.weight_decay: 5.0e-4
DESK_QUICK_WEIGHT_DECAY_SHA256 = {
    "fedavg_layers.csv": "83c6779716bf110e74c5787dfb56b5aa9e60d76d60879e334f3954d6a1949761",
    "fedavg_metrics.csv": "a7dc827e661d5198279402d98f74bf7984ae28119f35e9b9a3d747caa2cbbff2",
    "fednnnn_layers.csv": "01952879a35783343c06299d888d4d1abd8676288f57af517dfff84135e69c5f",
    "fednnnn_metrics.csv": "d51e082a60b57a999d3d7965dc2d075b3e16d6bcef678a28b047503a1a37be42",
    "fedprox_layers.csv": "b50f8a3fd7ea94f450e41dfdaee9da9cee6a5a252fe22c700b00034b5524c488",
    "fedprox_metrics.csv": "fa4086c0012a6c3960baf4056f244b8f3d2b49285c8ad215a2ecd5c2a74bc3f1",
    "momentum_layers.csv": "ae3dcc722540f2cb7e95207599ca04b7baf55ab18c04c0f510329631b66c20c1",
    "momentum_metrics.csv": "39f1449f3f0f9ed9d470e65b08fcf4677c767533ba6292b5c315b4f6885d6baf",
    "normnorm_layers.csv": "de4016d6d3404823ade4d4774a8af73d31daed270385301c1fb0c73b11acb47f",
    "normnorm_metrics.csv": "fe67fe8b4c6f5a27d915fee046d1a968b1fd0f44fd1d840db333489edf2e4424",
}


def csv_digests(out):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.glob("*.csv"))}


def test_desk_quick_seed_0_matches_golden_hashes(tmp_path):
    assert main(["run", "--preset", "desk_quick", "--seed", "0",
                 "--out", str(tmp_path)]) == 0
    assert csv_digests(tmp_path) == DESK_QUICK_SHA256


def test_desk_quick_with_weight_decay_matches_golden_hashes(tmp_path):
    raw = load_preset("desk_quick")
    raw["training"]["weight_decay"] = 5.0e-4
    config = tmp_path / "desk_quick_wd.yaml"
    config.write_text(yaml.safe_dump(raw))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--seed", "0", "--out", str(out)]) == 0
    assert csv_digests(out) == DESK_QUICK_WEIGHT_DECAY_SHA256
