"""Golden outputs: `fednorm run --preset desk_quick --seed 0` must write these
exact bytes. Rerun checks cannot catch a change that moves the numbers the
same way on every run; these hashes do. They are the SHA-256 digests of the
reference CSVs in benchmarks/reference/desk_quick/. A second set pins the
same run with weight decay, which no other golden output exercises, and a
third pins the schedule fields away from their defaults: half the clients per
round, weights by sample count, two workers. A fourth pins a run on a small
seeded IDX pair, the path real MNIST files take; its digests are keyed by
the OpenBLAS kernel, whose matrix products round differently."""

import hashlib
import struct

import numpy as np
import pytest
import yaml

from fednorm.cli import load_preset, main
from fednorm.data import DATA_DIR_ENV
from fednorm.params import openblas_kernel

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

# desk_quick with training.participation: 0.5, weight_mode: by_sample_count,
# workers: 2 (one worker writes the same bytes)
DESK_QUICK_SCHEDULE_SHA256 = {
    "fedavg_layers.csv": "2377dade97a24afba35edb873b9b425eebb90fb86649b6a6ac5f35e958018a72",
    "fedavg_metrics.csv": "c3126ebac73492e44d7a0cd4d212883c9ee10543badead3f551159ee1510e9b5",
    "fednnnn_layers.csv": "0edceb7cab45e403afbed52e11f0f403b3a21f3ec9ca9be80dbbb76663c33704",
    "fednnnn_metrics.csv": "27c1f9e56ff354eb6305ae3203c61d6d92f98ebb3d8926e1f7fe58c5af5ba800",
    "fedprox_layers.csv": "a6987122a9631ca2381bcf4c60a83f94faf1949d88d537e822ed0a79444495f4",
    "fedprox_metrics.csv": "89ef90f11e2a43eaf7b60a4e24e087a2ea12a368e47af0baebc86f846a94f15e",
    "momentum_layers.csv": "75ba014f19820c7b9844da1f346e2f99f8ecf73cd021b6ca69b6074030cb6ac2",
    "momentum_metrics.csv": "e0d7fc7263407327c3257834c57e4f517020d00c338553c13fb5713e0519c5dc",
    "normnorm_layers.csv": "e44b18b1283460a1f4211356b6fbc9edba4027b679f8d04221830071b9fb16c9",
    "normnorm_metrics.csv": "970685bc323cfd66bcdcb17e1ccac8ae32381c0600c3dcf83bf3bdb6284d5a14",
}


def csv_digests(out):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.glob("*.csv"))}


def test_desk_quick_seed_0_matches_golden_hashes(tmp_path):
    assert main(["run", "--preset", "desk_quick", "--seed", "0",
                 "--out", str(tmp_path)]) == 0
    assert csv_digests(tmp_path) == DESK_QUICK_SHA256


def run_desk_quick_with(tmp_path, **training):
    raw = load_preset("desk_quick")
    raw["training"].update(training)
    config = tmp_path / "desk_quick.yaml"
    config.write_text(yaml.safe_dump(raw))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--seed", "0", "--out", str(out)]) == 0
    return csv_digests(out)


def test_desk_quick_with_weight_decay_matches_golden_hashes(tmp_path):
    assert run_desk_quick_with(tmp_path, weight_decay=5.0e-4) == DESK_QUICK_WEIGHT_DECAY_SHA256


def test_desk_quick_schedule_fields_match_golden_hashes(tmp_path):
    digests = run_desk_quick_with(tmp_path, participation=0.5,
                                  weight_mode="by_sample_count", workers=2)
    assert digests == DESK_QUICK_SCHEDULE_SHA256


# write_idx_run's config on each OpenBLAS kernel, written by runs forced onto
# it with OPENBLAS_CORETYPE on one AVX-512 machine
IDX_SHA256 = {
    "SkylakeX": {
        "fedavg_layers.csv":
            "c05046489c680f8aa638274ee07dc0db14137a929c03a9caf97d899d59d032cc",
        "fedavg_metrics.csv":
            "be5dd4fb456f2bdcba7b11ca755e5d0b30e2aad03db3bf58c96d60b0b0dce177",
        "fednnnn_layers.csv":
            "11e64cf40c8e646a2a37851a8be042bec58c014d25e6b2a12ab243959a8fd903",
        "fednnnn_metrics.csv":
            "5016858edbebd258a4a6c04c2cf0aea089ce9bc967311a65fa9046f5213c6094",
        "fedprox_layers.csv":
            "cb9511c86f4a529a339890deb3f61308dbaeceecce4b7c563e9b58df12ee0a9a",
        "fedprox_metrics.csv":
            "d19cf7ac5cc8fd504750d649dc40199c154f7c7416eb06229f2ad8ca899f1c40",
    },
    "Haswell": {
        "fedavg_layers.csv":
            "33cadddb78bcaedfaf2d07b453623ace3c8a386a0369ddedb3963fe1175a6db9",
        "fedavg_metrics.csv":
            "da5158036b701c2bd6648cb220ec166f0b7a7173f1fa7a88dfebb21bbf1af750",
        "fednnnn_layers.csv":
            "c920ec8daf90358ef2a1de5ce2284eb244b14bbfecb7cd464100d8c80f007712",
        "fednnnn_metrics.csv":
            "96735e9294d32a0f2c48e3403d2c68db6f85b03ce9e8fdb43558449d36c31b9e",
        "fedprox_layers.csv":
            "1bc0b8e76151929e4a82f40c34ca7d20ede9166828a5199c10e95786d20df017",
        "fedprox_metrics.csv":
            "e611c1cad93c5fa12360fa54860d14ea2cbc6da34d1803c0630434152392bc19",
    },
    "Sandybridge": {
        "fedavg_layers.csv":
            "029370901114739767b0fb86e6c390af8b3ee5242e7b5b61eeb88420bc4d105e",
        "fedavg_metrics.csv":
            "d74911af0d89c59a5ae7c3507ec9dfb95b537bd45f360ca53b71ec88c4acf9ac",
        "fednnnn_layers.csv":
            "7ddab00f8536ce96a5f8df142b53fb8bae3025418f689c6dfc7ee7e47eb1d171",
        "fednnnn_metrics.csv":
            "fd28a8120186afe0eea79851e95289c8c794d627a6d1ed08d6d140050803dbd0",
        "fedprox_layers.csv":
            "7fad48636d3fa47b7bfa8b836edaf634aa2b618781ba17834416d2ec66779103",
        "fedprox_metrics.csv":
            "5a89bc6b22473b0dc1d7ba9b07d16eb117e4a019ec6c4dab72b9a1e3daf70a6a",
    },
}


def write_idx(path, magic, array):
    """An IDX file of uint8 array: magic, then each dimension as a
    big-endian uint32, then the bytes."""
    path.write_bytes(struct.pack(f">{1 + array.ndim}I", magic, *array.shape)
                     + array.tobytes())


def write_idx_run(tmp_path):
    """A seeded 10-class IDX pair of 10x10 images (300 training, 100 test;
    row `label` of an image is brighter) and a config that reads the first
    240 training images, so load_idx, the train_limit cut and normalize all
    run; returns the config's path."""
    rng = np.random.default_rng(2020)
    for prefix, count in (("train", 300), ("test", 100)):
        labels = rng.integers(0, 10, count).astype(np.uint8)
        images = rng.integers(0, 160, (count, 10, 10)).astype(np.uint8)
        images[np.arange(count), labels] += 95
        write_idx(tmp_path / f"{prefix}-images", 0x803, images)
        write_idx(tmp_path / f"{prefix}-labels", 0x801, labels)
    config = {
        "dataset": {"kind": "idx", "dir": str(tmp_path), "train_limit": 240,
                    "train_images": "train-images", "train_labels": "train-labels",
                    "test_images": "test-images", "test_labels": "test-labels"},
        "network": {"hidden": [16]},
        "partition": {"label_mode": "noniid", "size_mode": "unbalanced",
                      "classes_per_client": 2},
        "training": {"rounds": 3, "clients": 6, "participation": 0.5, "batch_size": 20,
                     "local_epochs": 2, "seed": 0},
        "strategies": [{"kind": "fedavg"}, {"kind": "fedprox", "mu": 0.02},
                       {"kind": "fednnnn", "beta": 0.7, "gamma": 0.8}],
    }
    path = tmp_path / "idx.yaml"
    path.write_text(yaml.safe_dump(config))
    return path


def test_idx_run_matches_golden_hashes(tmp_path, monkeypatch):
    monkeypatch.delenv(DATA_DIR_ENV, raising=False)
    out = tmp_path / "out"
    assert main(["run", "--config", str(write_idx_run(tmp_path)), "--out", str(out)]) == 0
    kernel = openblas_kernel()
    if kernel not in IDX_SHA256:
        pytest.skip(f"no IDX digests recorded for the OpenBLAS kernel {kernel!r}")
    assert csv_digests(out) == IDX_SHA256[kernel]
