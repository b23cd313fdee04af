"""The benchmark's three training workloads and the inputs they are built from.

Every input is made from the workload seed: the rings points come from the
shipped `configs/rings.json` with its master seed replaced, and the two IDX
workloads read images this module writes with `data.write_idx`. Nothing is
downloaded.

Why each workload is here is written in BENCHMARK.json and, at more
length, in layer_map.json.
"""

import json
from pathlib import Path

import numpy as np

from sparsetrails.config import resolve
from sparsetrails.data import Dataset, write_idx

IMAGE_SIDE = 14
IMAGE_CLASSES = 10
IDX_TRAIN = 1600
IDX_TEST = 400


def make_images(seed: int, n: int, split: str) -> Dataset:
    """1x14x14 images in 10 classes: a per-class pattern plus pixel noise.

    The class patterns depend on the seed only, so the train and test
    splits of one seed share them; the split name picks the noise.
    """
    patterns = np.random.default_rng([seed, 0]).random(
        (IMAGE_CLASSES, IMAGE_SIDE, IMAGE_SIDE)) < 0.3
    rng = np.random.default_rng([seed, 1 if split == "train" else 2])
    labels = np.arange(n, dtype=np.int64) % IMAGE_CLASSES
    rng.shuffle(labels)
    images = 0.7 * patterns[labels] + rng.normal(0.15, 0.2, (n, IMAGE_SIDE, IMAGE_SIDE))
    images = np.clip(images, 0.0, 1.0).astype(np.float32)
    return Dataset(inputs=images[:, None], labels=labels, num_classes=IMAGE_CLASSES)


def write_images(seed: int, directory: Path) -> dict:
    """Write the seed's train and test IDX files; returns the dataset config."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {key: str(directory / name) for key, name in (
        ("images", "train-images.idx"), ("labels", "train-labels.idx"),
        ("test_images", "test-images.idx"), ("test_labels", "test-labels.idx"))}
    write_idx(make_images(seed, IDX_TRAIN, "train"), paths["images"], paths["labels"])
    write_idx(make_images(seed, IDX_TEST, "test"), paths["test_images"],
              paths["test_labels"])
    return {"kind": "idx", **paths}


def _linear(n_in: int, n_out: int) -> dict:
    return {"kind": "linear", "in": n_in, "out": n_out}


_RELU = {"kind": "relu"}


def raw_config(workload: str, seed: int, root: Path, data_dir: Path) -> dict:
    """The unresolved config of a workload; IDX workloads write their images."""
    if workload == "rings-rigl":
        cfg = json.loads((root / "configs" / "rings.json").read_text())
    elif workload == "cnn-idx-set":
        cfg = {
            "dataset": write_images(seed, data_dir),
            "network": {"kind": "cnn", "input_shape": [1, IMAGE_SIDE, IMAGE_SIDE],
                        "channels": 8, "blocks": 3, "classes": IMAGE_CLASSES},
            "split_index": 1, "heads": 3, "sparsity": 0.8, "allocation": "erk",
            "topology": {"strategy": "set", "prune_method": "soft_magnitude",
                         "delta_t": 10, "initial_drop_fraction": 0.3},
            "train": {"optimizer": "adam", "lr": 0.01, "weight_decay": 0.0,
                      "schedule": "cosine_warmup", "batch_size": 32,
                      "total_steps": 50},
            "eval_interval": 25,
        }
    elif workload == "wide-mlp-rigl":
        width = 512
        features = IMAGE_SIDE * IMAGE_SIDE
        cfg = {
            "dataset": write_images(seed, data_dir),
            "network": {"kind": "layers", "input_shape": [1, IMAGE_SIDE, IMAGE_SIDE],
                        "stem": [_linear(features, width), _RELU],
                        "blocks": [[_linear(width, width), _RELU] for _ in range(4)],
                        "classifier": [_linear(width, IMAGE_CLASSES)]},
            "split_index": 2, "heads": 4, "sparsity": 0.9, "allocation": "er",
            "topology": {"strategy": "rigl", "prune_method": "magnitude",
                         "delta_t": 25, "initial_drop_fraction": 0.3},
            "train": {"optimizer": "sgd_momentum", "lr": 0.05, "batch_size": 32,
                      "total_steps": 50},
            "eval_interval": 25,
        }
    else:
        raise ValueError(f"unknown workload {workload!r}")
    cfg["seed"] = seed
    return cfg


def workload_config(workload: str, seed: int, root: Path, run_dir: Path) -> dict:
    """Resolved config with its artifacts under run_dir/out."""
    raw = raw_config(workload, seed, root, run_dir / "data")
    return resolve(raw, out_dir=str(run_dir / "out"))
