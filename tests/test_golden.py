"""Golden outputs: `fednorm run --preset desk_quick --seed 0` must write these
exact bytes. Rerun checks cannot catch a change that moves the numbers the
same way on every run; these hashes do. A second set pins the same run with
weight decay, which no other golden output exercises, and a third pins the
schedule fields away from their defaults: half the clients per round,
weights by sample count, two workers. A fourth pins a run on a small seeded
IDX pair, the path real MNIST files take, and a fifth a 784-200-200-10 run
whose rounds reach the server thread (test_server_thread.py checks that
these bytes do not depend on the BLAS thread count).

Every table is keyed by the OpenBLAS kernel, whose matrix products round
differently: SkylakeX (AVX-512), Haswell (AVX2, which Zen also runs) and
Sandybridge (AVX). The SkylakeX desk_quick digests are those of the
reference CSVs in benchmarks/reference/desk_quick/; the other kernels'
entries were written by runs forced onto them with OPENBLAS_CORETYPE on one
AVX-512 machine, and test_whole_run.py runs this module in a process forced
onto each of them that the CPU can run. A test on a kernel with no entry
skips, naming the kernel.
"""

import hashlib
import struct

import numpy as np
import yaml

from fednorm.cli import load_preset, main
from fednorm.data import DATA_DIR_ENV
from oracles import kernel_digests

DESK_QUICK_SHA256 = {
    "SkylakeX": {
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
    },
    "Haswell": {
        "fedavg_layers.csv": "c22d4c532281dfe1f574a42e923406d02e48143a2d2e7c20f62e5554e8cc2a5e",
        "fedavg_metrics.csv": "6229fba2b77b305abfef57793c75a4e39d29185b63ccfddcbcc9789ea3a48a99",
        "fednnnn_layers.csv": "79e4e762d89c751709e814af2b6b067fd2bf011a705b086d4cb181370758e63a",
        "fednnnn_metrics.csv": "954890be254b9d62fd2b2bc3dc4cb8d496dce9b500bb4c37df2fa81ad64a66d8",
        "fedprox_layers.csv": "909f5b5468a6c5f4f22f62d61b295fe7f6c59d963ccec49a151cbafacebd1678",
        "fedprox_metrics.csv": "8204ca2374f171d7c0dd9fe578c73087dd2819d18b6dfbfea6cffdab788d206e",
        "momentum_layers.csv": "667dd172fefdf5fe00d394e103b42327c4444012502b1a53c4cf6af733f6b000",
        "momentum_metrics.csv": "48e08fabf096a6a469e78edcb9739d4743139e23f70938d165466113080818ad",
        "normnorm_layers.csv": "3baf9bb4f04297ae46a4c7c40af9bec8c5d2e0514ba218b84b1ac8ec0a1753b0",
        "normnorm_metrics.csv": "308bf26bbdae5543172ac3b2a2866a3b75f29dc8cf351e9ea5d3d4223c8f8032",
    },
    "Sandybridge": {
        "fedavg_layers.csv": "414accfc429b6a57f01425d1bdff84f2de878c864e7f3110636fe43a46bb4323",
        "fedavg_metrics.csv": "f93957a778d9ca1fc9e45eb7af49a942cc7137c5ad228aebe3e08c348390330c",
        "fednnnn_layers.csv": "0f5c001717a05b9e5036d112d8a11eb0adee4f8d4d77e09bf25664ece6a0b835",
        "fednnnn_metrics.csv": "a92691054dd21e3ff65c1d4bd3f989e9f3e3a9972ea858d53ad9df1ca45127cc",
        "fedprox_layers.csv": "9aafd76195f57c32c7759277434f46dbdffdb3d4ddffc3a5c70040e8ce2e3e47",
        "fedprox_metrics.csv": "de952a5992babce0c32f3ff33e97f715a2a3fb2029f2211915135607e82a3459",
        "momentum_layers.csv": "15c041a8f0acb454f452b1061e6bd5791ba811f2b19ffd3489059b89a3857619",
        "momentum_metrics.csv": "1057e564094a5a42bdfd89375705f37eb28bd7176a4e9556410ed1e070b2e156",
        "normnorm_layers.csv": "1718718fa755a56bfc1e0aa5d91a13b76d1ffccf7d471207da57a0764757359a",
        "normnorm_metrics.csv": "a2882e9f0e86c3131991349376e043ed98a70a8c80a3fba34d462ea6fdeec255",
    },
}

# desk_quick with training.weight_decay: 5.0e-4
DESK_QUICK_WEIGHT_DECAY_SHA256 = {
    "SkylakeX": {
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
    },
    "Haswell": {
        "fedavg_layers.csv": "f8eafabfb3a0366466631c051772acfa809a9762753e43ce41c43e559844e14e",
        "fedavg_metrics.csv": "f8991c11e400d6769f92f430af35a6672b0e7a1258e5e88d8447e046de206225",
        "fednnnn_layers.csv": "4a9145d4bae927f975f1c6acb447a94c3e537005b9cc7480dcaa08156b04eb29",
        "fednnnn_metrics.csv": "d4345cff9341b6ae67d340e43e81b248c9ae28c1aa514e0ed7c6af193f9e7c11",
        "fedprox_layers.csv": "032434a23b4065c593317d491dcf8c73bc5d32b8849f0147355f486892359446",
        "fedprox_metrics.csv": "438cc1b1f1b3beb45bcc37f615b6afcff1508d56a164b31ab72758d002216c61",
        "momentum_layers.csv": "9bca349cd6975b03bed04119b7d9baed89035563e967a8835b26fde8b775f84f",
        "momentum_metrics.csv": "ed0496c89ad22c557d938fe26eea7add0a80604bdb50f1681a57fc8f25e4b28f",
        "normnorm_layers.csv": "66f9675b17152da24a53e84995a1bd193c1eb77c7381f4a74f0fc81688725135",
        "normnorm_metrics.csv": "459a5cb1518228f781a72b3b032846a0716286326f43afb3fca9bff091fab753",
    },
    "Sandybridge": {
        "fedavg_layers.csv": "3adda8f5a7a5a27fba71049ad007477dbc756d8868d445b1b8bd9ea2d0a9f1cd",
        "fedavg_metrics.csv": "a0c4ef82410d9381c9adbd030005a234f409788479d92ad357b04e11df5435a2",
        "fednnnn_layers.csv": "2449cc61860dfdf64c30e77e30b52e84b8504db33ca6587b7e9d4bc096672b5a",
        "fednnnn_metrics.csv": "66801348588d3dea5ed52ccdec38922840f9c60bfbf95975992f5af548b9457c",
        "fedprox_layers.csv": "65f1747a647e656a1353a649176d2707102014a854777563992e0e29b2d6ae69",
        "fedprox_metrics.csv": "82e92f29b4be6bd4bb634a76afa924f0b7bc0507e20dce8640fdc51e1e788adc",
        "momentum_layers.csv": "0cb33f6d75e1b6001115d386a929735bc5649df82c2c5b45711b94b4b093af33",
        "momentum_metrics.csv": "78b6c79cb8f20cc0c10888adca878e3d5a4a15fccf9d87028d70d10393a9deb9",
        "normnorm_layers.csv": "df5aecc28b638060e3373c472c4fd450e6c47004bdcabf995b27ecef42039066",
        "normnorm_metrics.csv": "0a65b0ee2e8941b70d5f718091923c5da265ed8bf5788025bb545b18f92d128c",
    },
}

# desk_quick with training.participation: 0.5, weight_mode: by_sample_count,
# workers: 2 (one worker writes the same bytes)
DESK_QUICK_SCHEDULE_SHA256 = {
    "SkylakeX": {
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
    },
    "Haswell": {
        "fedavg_layers.csv": "c205ffef45dd40b6bb056351042d11a1a08ff7eca56b2d9fc4ebbee4bb8084a7",
        "fedavg_metrics.csv": "794f72264e3baa9b12f4c6698c4ef4d9ed6fac22e201d3374e83f8b707062841",
        "fednnnn_layers.csv": "5d1cdde97d0050d5e8ca6b9235134ebf2f526b28677dacb518c79ac667c58fa5",
        "fednnnn_metrics.csv": "370407c2706a00a87217cceb709176c12dc9dca200b5e4640413fa21a83f611f",
        "fedprox_layers.csv": "b80a5bcbde80470218aee9cbd28aeacf1215b8c1fa12d199d1e6519f1c83e5a1",
        "fedprox_metrics.csv": "6d774a74be6df853ce32cbffbbc7cadff649dede586a7c5d575050d2743acf4c",
        "momentum_layers.csv": "c4f243eeb55ca69a90cd6b51556a18ade9b64a6058c91adc915cc2712ec5b418",
        "momentum_metrics.csv": "c7d4880679ca3907f5d55512dd9bebd1d2674bea31204cf1e7b5dd5250171090",
        "normnorm_layers.csv": "38d9ea5cf8090f0ce628b0940308b6fe6dcd31ada6a86c4d02500accb1faa570",
        "normnorm_metrics.csv": "1086350230649b878757119afc9affa5106d0b89d665c366e0c379a7e7f3f7a7",
    },
    "Sandybridge": {
        "fedavg_layers.csv": "b78b46bea3c12182c4e3915e002d50517cb8653cfac70b3638388aaa3f743c66",
        "fedavg_metrics.csv": "bceb10151b6f5bf32df6be58dd0065862c5a78b46594cad00d34d8f541732dd0",
        "fednnnn_layers.csv": "ad7366de4b1fd2757d57b0de18474470a9eb50cd662dfb9eb94ebf6f88b6309b",
        "fednnnn_metrics.csv": "66e8ff6302d7c46c4fcaa2080c4bd7c285f18382e4666388a6c309f2d0ae6031",
        "fedprox_layers.csv": "10bdcca986685ccd6632781a95dfe285986a4d3873cb66043982e4149ca94279",
        "fedprox_metrics.csv": "35b4a9b4df185ce3614b3c8b202145a6cb5df4015c16310b32942ad7bfd05ea5",
        "momentum_layers.csv": "80e5246cace85b8923fdd45f55b7030c7e06d2623fb15e6b9b174e4ec31e2650",
        "momentum_metrics.csv": "eb2a26636fe3ecda19c3b14545bb38d7adda8773a1d696826984d1aef137d662",
        "normnorm_layers.csv": "c856bb2829b88fea277a733b34432eaa5f6c416643aabf16fdbfcefba6cd825a",
        "normnorm_metrics.csv": "f7a983cc5b81e2c5900de820201ebeb7aead257e678d21d7f9eca9cc5d82d12f",
    },
}

# the benchmark's wide_round cut down to 50 clients, 2 rounds and 40/20 rows per
# class: its 1.6 MB rows fill three blocks a round, so the server thread folds
# two of them and the third reuses the first half of the ring
WIDE_TRIMMED = {
    "dataset": {"kind": "synth", "classes": 10, "features": 784, "center_scale": 0.5,
                "components_per_class": 2, "train_per_class": 40, "test_per_class": 20},
    "network": {"hidden": [200, 200]},
    "partition": {"label_mode": "noniid", "classes_per_client": 2,
                  "size_mode": "unbalanced", "power_exponent": 1.5},
    "training": {"clients": 50, "rounds": 2, "participation": 1.0, "batch_size": 50,
                 "local_epochs": 1, "workers": 1},
    "strategies": [{"kind": "normnorm", "beta": 0.9}, {"kind": "momentum", "gamma": 0.8}],
}

# SkylakeX's were written before the server thread existed, with
# OPENBLAS_NUM_THREADS=1
WIDE_TRIMMED_SHA256 = {
    "SkylakeX": {
        "momentum_layers.csv": "433dc36afc914cef6c51f4f8ed62a129772ed897dda199ed3a0ba230125a82d0",
        "momentum_metrics.csv": "cae41dba7823bdf731caae67518cbda8314380a1d387137da61606efc28e496b",
        "normnorm_layers.csv": "a3fd3a975743383f1d2318ccd6a0336763bc726d4f268aa73a712fa33871a27d",
        "normnorm_metrics.csv": "aa924179c53f277c7732c94a0b31eda71d29aaf0ebd634ced2a31cf36aaa059a",
    },
    "Haswell": {
        "momentum_layers.csv": "73f4dae2e981bcfe800de9b246836a1c077aa7e0aebcb3dbf2b877d10eb3a1e2",
        "momentum_metrics.csv": "d85e5c5a3fbdfec8af6a2ee176d4064084e2553b699b4c71d38800ecb22fbcf9",
        "normnorm_layers.csv": "d9da5cf49c85a71d19f39b652618f12e16d2abfd1886d45e1abebf3dae0d9c4f",
        "normnorm_metrics.csv": "ccebe5c8990a622c103df8699178922d3a588ebfc8f447146c715977d8f77026",
    },
    "Sandybridge": {
        "momentum_layers.csv": "e72d4553a7ec08a86d5bf2d19f1f60d567972d6f3ede7bb6c574480c5fe4bd44",
        "momentum_metrics.csv": "d59fbd0006f7f35285009f26da833322fd3fb3b38358303800bcec9794764c50",
        "normnorm_layers.csv": "6ba73b3d909b98b5819ac2219f8291d94882915b87cf0271a34f0392c6f147e6",
        "normnorm_metrics.csv": "51fc7e4a4538d58a5a41ac6557fb2cf1811553b9681bbd7a3d860f6742895105",
    },
}


def csv_digests(out):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.glob("*.csv"))}


# each test looks its digests up before its run, so a kernel with no entry
# skips without running
def test_desk_quick_seed_0_matches_golden_hashes(tmp_path):
    expected = kernel_digests(DESK_QUICK_SHA256)
    assert main(["run", "--preset", "desk_quick", "--seed", "0",
                 "--out", str(tmp_path)]) == 0
    assert csv_digests(tmp_path) == expected


def run_desk_quick_with(tmp_path, **training):
    raw = load_preset("desk_quick")
    raw["training"].update(training)
    config = tmp_path / "desk_quick.yaml"
    config.write_text(yaml.safe_dump(raw))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--seed", "0", "--out", str(out)]) == 0
    return csv_digests(out)


def test_desk_quick_with_weight_decay_matches_golden_hashes(tmp_path):
    expected = kernel_digests(DESK_QUICK_WEIGHT_DECAY_SHA256)
    assert run_desk_quick_with(tmp_path, weight_decay=5.0e-4) == expected


def test_desk_quick_schedule_fields_match_golden_hashes(tmp_path):
    expected = kernel_digests(DESK_QUICK_SCHEDULE_SHA256)
    assert run_desk_quick_with(tmp_path, participation=0.5,
                               weight_mode="by_sample_count", workers=2) == expected


# write_idx_run's config
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
    expected = kernel_digests(IDX_SHA256)
    monkeypatch.delenv(DATA_DIR_ENV, raising=False)
    out = tmp_path / "out"
    assert main(["run", "--config", str(write_idx_run(tmp_path)), "--out", str(out)]) == 0
    assert csv_digests(out) == expected


def test_wide_trimmed_seed_0_matches_golden_hashes(tmp_path):
    expected = kernel_digests(WIDE_TRIMMED_SHA256)
    config = tmp_path / "wide.yaml"
    config.write_text(yaml.safe_dump(WIDE_TRIMMED))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--seed", "0", "--out", str(out)]) == 0
    assert csv_digests(out) == expected
