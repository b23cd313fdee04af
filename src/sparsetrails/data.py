"""Dataset ingestion: IDX image files, synthetic 2-D tasks, batching.

IDX files follow the big-endian layout used by the MNIST distribution:
magic 0x00000803 for 3-D ubyte image files, 0x00000801 for 1-D ubyte
label files, each dimension a 4-byte big-endian integer, payload one
unsigned byte per element. Pixels are scaled to [0, 1] on load.
"""

import struct
from dataclasses import dataclass

import numpy as np

from .rng import Stream, permutations

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801
SYNTHETIC_KINDS = ("two_clusters", "rings", "xor_grid")


@dataclass
class Dataset:
    inputs: np.ndarray        # (N, features) or (N, C, H, W) float32
    labels: np.ndarray        # (N,) int64
    num_classes: int

    def __post_init__(self):
        if len(self.inputs) != len(self.labels):
            raise ValueError(
                f"{len(self.inputs)} inputs vs {len(self.labels)} labels")
        if len(self.labels) and self.labels.max() >= self.num_classes:
            raise ValueError("label exceeds class count")
        if not np.all(np.isfinite(self.inputs)):
            raise ValueError("dataset inputs must be finite")

    def __len__(self) -> int:
        return len(self.labels)


def _read_exact(f, n: int, offset: int, what: str) -> bytes:
    data = f.read(n)
    if len(data) != n:
        raise ValueError(f"truncated IDX file at byte offset {offset}: expected {what}")
    return data


def _read_idx(path: str, magic: int, ndim: int) -> np.ndarray:
    with open(path, "rb") as f:
        raw = _read_exact(f, 4, 0, "magic number")
        got = struct.unpack(">I", raw)[0]
        if got != magic:
            raise ValueError(
                f"{path}: bad IDX magic at byte offset 0: "
                f"got 0x{got:08x}, expected 0x{magic:08x}")
        dims = []
        for i in range(ndim):
            dims.append(struct.unpack(">I", _read_exact(f, 4, 4 + 4 * i,
                                                        f"dimension {i}"))[0])
        count = int(np.prod(dims))
        payload = _read_exact(f, count, 4 + 4 * ndim, f"{count} payload bytes")
    return np.frombuffer(payload, dtype=np.uint8).reshape(dims)


def load_idx(images_path: str, labels_path: str, limit: int | None = None) -> Dataset:
    """Load an IDX image/label file pair; pixels scaled to [0, 1]."""
    images = _read_idx(images_path, IMAGE_MAGIC, ndim=3)
    labels = _read_idx(labels_path, LABEL_MAGIC, ndim=1)
    if images.shape[0] != labels.shape[0]:
        raise ValueError(
            f"IDX count mismatch: {images.shape[0]} images vs {labels.shape[0]} labels")
    if limit is not None:
        images, labels = images[:limit], labels[:limit]
    n, h, w = images.shape
    inputs = (images.astype(np.float32) / 255.0).reshape(n, 1, h, w)
    return Dataset(inputs=inputs, labels=labels.astype(np.int64),
                   num_classes=int(labels.max()) + 1 if n else 0)


def write_idx(dataset: Dataset, images_path: str, labels_path: str) -> None:
    """Write back as IDX ubyte files (inverse of load_idx's [0,1] scaling)."""
    arr = dataset.inputs
    if arr.ndim != 4 or arr.shape[1] != 1:
        raise ValueError("IDX export expects (N, 1, H, W) inputs")
    n, _, h, w = arr.shape
    pixels = np.rint(arr * 255.0).astype(np.uint8).reshape(n, h, w)
    with open(images_path, "wb") as f:
        f.write(struct.pack(">IIII", IMAGE_MAGIC, n, h, w))
        f.write(pixels.tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">II", LABEL_MAGIC, n))
        f.write(dataset.labels.astype(np.uint8).tobytes())


# ---------------------------------------------------------------------------
# synthetic tasks
# ---------------------------------------------------------------------------

def _class_counts(n: int, classes: int) -> list[int]:
    base, extra = divmod(n, classes)
    return [base + (1 if i < extra else 0) for i in range(classes)]


def gen_synthetic(kind: str, n: int, noise: float, seed: int) -> Dataset:
    """Deterministic 2-D binary classification tasks with balanced classes."""
    if kind not in SYNTHETIC_KINDS:
        raise ValueError(f"unknown synthetic kind {kind!r}")
    if n < 2:
        raise ValueError(f"need at least 2 samples, got {n}")
    if noise < 0:
        raise ValueError(f"noise must be nonnegative, got {noise}")
    stream = Stream(seed).child("synthetic", kind)
    counts = _class_counts(n, 2)
    xs, ys = [], []

    if kind == "two_clusters":
        centers = np.array([[-1.5, -1.5], [1.5, 1.5]])
        for cls, count in enumerate(counts):
            for _ in range(count):
                xs.append(centers[cls] + noise * np.array([stream.normal(),
                                                           stream.normal()]))
                ys.append(cls)
    elif kind == "rings":
        radii = (1.0, 2.0)
        for cls, count in enumerate(counts):
            for _ in range(count):
                theta = 2.0 * np.pi * stream.random()
                r = radii[cls] + noise * stream.normal()
                xs.append([r * np.cos(theta), r * np.sin(theta)])
                ys.append(cls)
    else:  # xor_grid: class 0 in the (+,+)/(-,-) quadrants, class 1 otherwise
        quadrants = {0: [(1, 1), (-1, -1)], 1: [(1, -1), (-1, 1)]}
        for cls, count in enumerate(counts):
            for i in range(count):
                sx, sy = quadrants[cls][i % 2]
                point = np.array([sx * (0.1 + 0.9 * stream.random()),
                                  sy * (0.1 + 0.9 * stream.random())])
                point += noise * np.array([stream.normal(), stream.normal()])
                xs.append(point)
                ys.append(cls)

    inputs = np.asarray(xs, dtype=np.float32)
    labels = np.asarray(ys, dtype=np.int64)
    perm = stream.permutation(n)  # interleave the classes
    return Dataset(inputs=inputs[perm], labels=labels[perm], num_classes=2)


def split(dataset: Dataset, test_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Deterministic train/test split by a seeded index permutation."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test fraction must be in (0, 1), got {test_fraction}")
    perm = Stream(seed).child("split").permutation(len(dataset))
    n_test = max(1, int(round(test_fraction * len(dataset))))
    test_idx, train_idx = perm[:n_test], perm[n_test:]

    def take(idx: np.ndarray) -> Dataset:
        idx = np.sort(idx)
        return Dataset(inputs=dataset.inputs[idx], labels=dataset.labels[idx],
                       num_classes=dataset.num_classes)

    return take(train_idx), take(test_idx)


def normalize(train: Dataset, test: Dataset) -> tuple[Dataset, Dataset]:
    """Per-feature standardization of both splits by the train split's
    float64 mean and standard deviation."""
    flat = train.inputs.reshape(len(train), -1).astype(np.float64)
    mean = flat.mean(axis=0)
    std = flat.std(axis=0)
    std = np.where(std < 1e-12, 1.0, std)

    def standardized(dataset: Dataset) -> Dataset:
        flat = dataset.inputs.reshape(len(dataset), -1).astype(np.float64)
        out = ((flat - mean) / std).astype(np.float32).reshape(dataset.inputs.shape)
        return Dataset(inputs=out, labels=dataset.labels, num_classes=dataset.num_classes)

    return standardized(train), standardized(test)


def batches(dataset: Dataset, batch_size: int, seed: int, epochs: range,
            drop_last: bool = False) -> list[list[np.ndarray]]:
    """Index slices for each epoch in `epochs`, one list per epoch: epoch e's
    permutation is derived from (seed, e), and all of them are drawn in one
    `rng.permutations` call."""
    n = len(dataset)
    if drop_last and batch_size > n:
        raise ValueError(f"batch size {batch_size} exceeds dataset size {n} with drop_last")
    shuffles = Stream(seed).child("epoch")   # its child(e) is Stream(seed).child("epoch", e)
    orders = permutations([shuffles.child(epoch) for epoch in epochs], n)
    end = n - n % batch_size if drop_last else n
    return [[order[i:i + batch_size] for i in range(0, end, batch_size)] for order in orders]
