"""Versioned binary checkpoints with bit-exact resume.

Layout (all integers little-endian):

    magic     8 bytes  b"STRLCKPT"
    version   u16      currently 1
    confhash  32 bytes sha256 of the canonical resolved config JSON
    step      u64
    optkind   u8       0 = sgd_momentum, 1 = adam
    adam_t    u64
    flops     u64      cumulative training FLOPs
    PRM section: u32 count, then per parameter
        u16 name length, name utf-8, u8 ndim, u32 per dim, float32 data
    MSK section: u32 count, same naming, mask bits packed 8-per-byte
    OPT section: u32 count, names "param@slot", float32 arrays
    RNG section: u32 count, stream name, 4 x u64 xoshiro state words
    trailer   b"END!"

A checkpoint restores parameters, masks, optimizer state and the live
topology streams, so a resumed run replays the uninterrupted run exactly.
Files are written whole or not at all (`write_atomic`).
"""

import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .model import TrailsModel
from .train import FlopsLedger, Optimizer, recount_forward_sparse

MAGIC = b"STRLCKPT"
VERSION = 1
_OPT_KINDS = {"sgd_momentum": 0, "adam": 1}
_OPT_NAMES = {v: k for k, v in _OPT_KINDS.items()}


class CheckpointError(ValueError):
    pass


@dataclass
class Checkpoint:
    version: int
    config_hash: str
    step: int
    optimizer_kind: str
    adam_t: int
    cumulative_flops: int
    params: dict[str, np.ndarray] = field(default_factory=dict)
    masks: dict[str, np.ndarray] = field(default_factory=dict)
    opt_state: dict[str, np.ndarray] = field(default_factory=dict)
    rng_states: dict[str, tuple[int, int, int, int]] = field(default_factory=dict)


def _write_name(out: list[bytes], name: str) -> None:
    raw = name.encode("utf-8")
    out.append(struct.pack("<H", len(raw)))
    out.append(raw)


def _write_array_header(out: list[bytes], arr: np.ndarray) -> None:
    out.append(struct.pack("<B", arr.ndim))
    out.append(struct.pack(f"<{arr.ndim}I", *arr.shape))


def capture(model: TrailsModel, optimizer: Optimizer, ledger: FlopsLedger,
            step: int, config_hash: str) -> Checkpoint:
    ckpt = Checkpoint(version=VERSION, config_hash=config_hash, step=step,
                      optimizer_kind=optimizer.kind, adam_t=optimizer.adam_t,
                      cumulative_flops=ledger.cumulative_train)
    for ref in model.named_parameters():
        ckpt.params[ref.name] = ref.array
        if ref.mask is not None:
            ckpt.masks[ref.name] = ref.mask
    for name, slots in optimizer.state.items():
        for slot, arr in slots.items():
            ckpt.opt_state[f"{name}@{slot}"] = arr
    comp_names = model.component_names()
    for (comp_idx, layer_idx), stream in model.topo_streams.items():
        ckpt.rng_states[f"{comp_names[comp_idx]}/{layer_idx}"] = stream.get_state()
    return ckpt


def write_atomic(path, data: bytes) -> None:
    """Write data to a temp file beside path, then rename it over path.

    A write that fails part-way leaves the previous file at path as it was
    and removes the temp file; readers never see a truncated file.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def save_checkpoint(ckpt: Checkpoint, path: str) -> str:
    out: list[bytes] = [MAGIC, struct.pack("<H", ckpt.version),
                        bytes.fromhex(ckpt.config_hash),
                        struct.pack("<Q", ckpt.step),
                        struct.pack("<B", _OPT_KINDS[ckpt.optimizer_kind]),
                        struct.pack("<Q", ckpt.adam_t),
                        struct.pack("<Q", ckpt.cumulative_flops)]

    out.append(b"PRM" + struct.pack("<I", len(ckpt.params)))
    for name, arr in ckpt.params.items():
        _write_name(out, name)
        _write_array_header(out, arr)
        out.append(np.ascontiguousarray(arr, dtype="<f4").tobytes())

    out.append(b"MSK" + struct.pack("<I", len(ckpt.masks)))
    for name, mask in ckpt.masks.items():
        _write_name(out, name)
        _write_array_header(out, mask)
        out.append(np.packbits(mask.reshape(-1).astype(np.uint8)).tobytes())

    out.append(b"OPT" + struct.pack("<I", len(ckpt.opt_state)))
    for name, arr in ckpt.opt_state.items():
        _write_name(out, name)
        _write_array_header(out, arr)
        out.append(np.ascontiguousarray(arr, dtype="<f4").tobytes())

    out.append(b"RNG" + struct.pack("<I", len(ckpt.rng_states)))
    for name, state in ckpt.rng_states.items():
        _write_name(out, name)
        out.append(struct.pack("<4Q", *state))

    out.append(b"END!")
    write_atomic(path, b"".join(out))
    return path


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0
        self.section = "header"

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise CheckpointError(
                f"checkpoint truncated in section '{self.section}' "
                f"(needed {n} bytes at offset {self.pos})")
        chunk = self.data[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def name(self) -> str:
        (n,) = self.unpack("<H")
        return self.take(n).decode("utf-8")

    def shape(self) -> tuple[int, ...]:
        (ndim,) = self.unpack("<B")
        return self.unpack(f"<{ndim}I") if ndim else ()

    def expect_tag(self, tag: bytes, section: str) -> None:
        self.section = section
        got = self.take(3)
        if got != tag:
            raise CheckpointError(
                f"corrupt checkpoint: expected section tag {tag!r} at offset "
                f"{self.pos - 3}, found {got!r}")


def load_checkpoint(path: str) -> Checkpoint:
    with open(path, "rb") as f:
        data = f.read()
    r = _Reader(data)
    if r.take(8) != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    (version,) = r.unpack("<H")
    if version != VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {version} (expected {VERSION})")
    confhash = r.take(32).hex()
    (step,) = r.unpack("<Q")
    (optkind,) = r.unpack("<B")
    if optkind not in _OPT_NAMES:
        raise CheckpointError(f"corrupt checkpoint: unknown optimizer kind {optkind}")
    (adam_t,) = r.unpack("<Q")
    (flops,) = r.unpack("<Q")
    ckpt = Checkpoint(version=version, config_hash=confhash, step=step,
                      optimizer_kind=_OPT_NAMES[optkind], adam_t=adam_t,
                      cumulative_flops=flops)

    r.expect_tag(b"PRM", "params")
    (count,) = r.unpack("<I")
    for _ in range(count):
        name = r.name()
        shape = r.shape()
        size = int(np.prod(shape)) if shape else 1
        raw = r.take(4 * size)
        ckpt.params[name] = np.frombuffer(raw, dtype="<f4").reshape(shape).copy()

    r.expect_tag(b"MSK", "masks")
    (count,) = r.unpack("<I")
    for _ in range(count):
        name = r.name()
        shape = r.shape()
        size = int(np.prod(shape)) if shape else 1
        raw = r.take((size + 7) // 8)
        bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8))[:size]
        ckpt.masks[name] = bits.reshape(shape).astype(np.uint8)

    r.expect_tag(b"OPT", "optimizer state")
    (count,) = r.unpack("<I")
    for _ in range(count):
        name = r.name()
        shape = r.shape()
        size = int(np.prod(shape)) if shape else 1
        raw = r.take(4 * size)
        ckpt.opt_state[name] = np.frombuffer(raw, dtype="<f4").reshape(shape).copy()

    r.expect_tag(b"RNG", "rng streams")
    (count,) = r.unpack("<I")
    for _ in range(count):
        name = r.name()
        ckpt.rng_states[name] = tuple(r.unpack("<4Q"))

    r.section = "trailer"
    if r.take(4) != b"END!":
        raise CheckpointError("corrupt checkpoint: missing trailer")
    return ckpt


def _entry(entries: dict[str, np.ndarray], key: str, shape: tuple[int, ...],
           what: str) -> np.ndarray:
    """entries[key], which must exist with exactly the given shape."""
    if key not in entries:
        raise CheckpointError(f"checkpoint missing {what} {key}")
    if entries[key].shape != shape:
        raise CheckpointError(
            f"checkpoint {what} {key} has shape {entries[key].shape}, expected {shape}")
    return entries[key]


def restore(ckpt: Checkpoint, model: TrailsModel, optimizer: Optimizer,
            ledger: FlopsLedger) -> int:
    """Load a checkpoint into live objects; returns the step to resume from."""
    refs = {ref.name: ref for ref in model.named_parameters()}
    if set(refs) != set(ckpt.params):
        missing = set(refs) ^ set(ckpt.params)
        raise CheckpointError(
            f"checkpoint parameters do not match the model (mismatch: {sorted(missing)[:4]})")
    for name, ref in refs.items():
        values = ckpt.params[name]
        if ref.array.shape != values.shape:
            raise CheckpointError(f"shape mismatch for {name}")
        if ref.mask is not None:
            mask = _entry(ckpt.masks, name, ref.mask.shape, "mask")
            if np.logical_and(values, np.logical_not(mask)).any():
                raise CheckpointError(
                    f"checkpoint weight {name} is nonzero where its mask is 0")
            ref.mask[...] = mask
        ref.array[...] = values
    if ckpt.optimizer_kind != optimizer.kind:
        raise CheckpointError(
            f"checkpoint optimizer {ckpt.optimizer_kind!r} != configured "
            f"{optimizer.kind!r}")
    optimizer.adam_t = ckpt.adam_t
    for name, slots in optimizer.state.items():
        for slot, arr in slots.items():
            arr[...] = _entry(ckpt.opt_state, f"{name}@{slot}", arr.shape, "optimizer slot")
    comp_names = model.component_names()
    for (comp_idx, layer_idx), stream in model.topo_streams.items():
        key = f"{comp_names[comp_idx]}/{layer_idx}"
        if key not in ckpt.rng_states:
            raise CheckpointError(f"checkpoint missing rng stream {key}")
        stream.set_state(ckpt.rng_states[key])
    ledger.cumulative_train = ckpt.cumulative_flops
    recount_forward_sparse(model, ledger)
    return ckpt.step
