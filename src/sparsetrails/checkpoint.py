"""Versioned binary checkpoints with bit-exact resume.

Layout (all integers little-endian):

    magic     8 bytes  b"STRLCKPT"
    version   u16      currently 2
    confhash  32 bytes sha256 of the canonical resolved config JSON
    step      u64
    optkind   u8       0 = sgd_momentum, 1 = adam
    adam_t    u64
    flops     u64      cumulative training FLOPs
    PRM section: u32 count, then one record per parameter of each
        component (`TrailsModel.component_parameters`: each a range of
        the model's parameter store, a head's records its slices of the
        stacked head parameters)
        u16 name length, name utf-8, u8 ndim, u32 per dim,
        u8 masked flag, then (masked only) mask bits packed 8-per-byte,
        float32 values at the active positions (every position if unmasked),
        then the same positions of each optimizer slot, in Optimizer.SLOTS order
    RNG section: u32 count, stream name, 4 x u64 xoshiro state words
    trailer   b"END!"
    crc       u32      zlib.crc32 of every earlier byte

Masked entries are not stored: weights are exactly +0.0 there, loading
rebuilds them so, and optimizer slots hold active entries only. A
checkpoint restores parameters, masks, optimizer state and the live
topology streams, so a resumed run replays the uninterrupted run exactly.
Files are written whole or not at all (`write_atomic`).
"""

import math
import os
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from .model import TrailsModel
from .train import FlopsLedger, Optimizer, active_indices, count_flops

MAGIC = b"STRLCKPT"
VERSION = 2
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
    opt_state: dict[str, np.ndarray] = field(default_factory=dict)  # 1-D, active entries
    rng_states: dict[str, tuple[int, int, int, int]] = field(default_factory=dict)
    active: dict[str, np.ndarray] = field(default_factory=dict)  # a mask's sorted flat 1s


def _slot_key(name: str, slot: str) -> str:
    """The Checkpoint.opt_state key of a parameter's optimizer slot."""
    return f"{name}@{slot}"


def _cuts(model: TrailsModel, optimizer: Optimizer) -> list[int]:
    """Where each component record's store range starts and ends among the
    optimizer's active positions: its entries in every slot."""
    bounds = [end for ref in model.component_parameters()
              for end in (ref.offset, ref.offset + ref.array.size)]
    return optimizer.active.searchsorted(bounds).tolist()


def capture(model: TrailsModel, optimizer: Optimizer, ledger: FlopsLedger,
            step: int, config_hash: str) -> Checkpoint:
    ckpt = Checkpoint(version=VERSION, config_hash=config_hash, step=step,
                      optimizer_kind=optimizer.kind, adam_t=optimizer.adam_t,
                      cumulative_flops=ledger.cumulative_train)
    cuts, slots = _cuts(model, optimizer), optimizer.slots.items()
    for ref, lo, hi in zip(model.component_parameters(), cuts[::2], cuts[1::2]):
        ckpt.params[ref.name] = ref.array
        if ref.mask is not None:
            ckpt.masks[ref.name] = ref.mask
            ckpt.active[ref.name] = optimizer.active[lo:hi] - ref.offset
        for slot, arr in slots:
            ckpt.opt_state[_slot_key(ref.name, slot)] = arr[lo:hi]
    ckpt.rng_states = {key: stream.get_state()
                       for key, stream in model.topo_streams.items()}
    return ckpt


def write_atomic(path, *chunks: bytes) -> None:
    """Write the chunks to a temp file beside path, then rename it over path.

    A write that fails part-way leaves the previous file at path as it was
    and removes the temp file; readers never see a truncated file.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            for chunk in chunks:
                f.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _named(name: str, fmt: str, *fields) -> bytes:
    """u16 name length, the utf-8 name, then fields packed by fmt."""
    raw = name.encode("utf-8")
    return struct.pack(f"<H{len(raw)}s{fmt}", len(raw), raw, *fields)


def save_checkpoint(ckpt: Checkpoint, path: str) -> str:
    out: list[bytes] = [MAGIC, struct.pack("<H", ckpt.version),
                        bytes.fromhex(ckpt.config_hash),
                        struct.pack("<QBQQ", ckpt.step, _OPT_KINDS[ckpt.optimizer_kind],
                                    ckpt.adam_t, ckpt.cumulative_flops),
                        b"PRM", struct.pack("<I", len(ckpt.params))]
    # few numpy calls per record: on small models they are most of the save time
    slots = Optimizer.SLOTS[ckpt.optimizer_kind]
    for name, values in ckpt.params.items():
        mask = ckpt.masks.get(name)
        out.append(_named(name, f"B{values.ndim}IB", values.ndim, *values.shape,
                          mask is not None))
        if mask is not None:
            out.append(np.packbits(mask).tobytes())
            values = values.take(ckpt.active[name])
        for arr in [values] + [ckpt.opt_state[_slot_key(name, slot)] for slot in slots]:
            if arr.size != values.size:
                raise CheckpointError(f"optimizer slots of {name} do not match its entries")
            out.append(arr.astype("<f4", copy=False).tobytes())

    out += [b"RNG", struct.pack("<I", len(ckpt.rng_states))]
    for name, state in ckpt.rng_states.items():
        out.append(_named(name, "4Q", *state))
    out.append(b"END!")
    data = b"".join(out)
    # the CRC goes out as its own chunk: appending it to `data` would copy the
    # whole file once more, and on a large model grow and trim the heap per save
    write_atomic(path, data, struct.pack("<I", zlib.crc32(data)))
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
    try:
        return _parse(_Reader(data), path)
    except CheckpointError:
        raise
    except ValueError as exc:  # a name that is not UTF-8, a shape numpy cannot hold
        raise CheckpointError(f"{path}: corrupt checkpoint ({exc})") from exc


def _parse(r: _Reader, path: str) -> Checkpoint:
    if r.take(8) != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    (version,) = r.unpack("<H")
    if version != VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {version} (expected {VERSION})")
    confhash = r.take(32).hex()
    step, optkind, adam_t, flops = r.unpack("<QBQQ")
    if optkind not in _OPT_NAMES:
        raise CheckpointError(f"corrupt checkpoint: unknown optimizer kind {optkind}")
    ckpt = Checkpoint(version=version, config_hash=confhash, step=step,
                      optimizer_kind=_OPT_NAMES[optkind], adam_t=adam_t,
                      cumulative_flops=flops)

    r.expect_tag(b"PRM", "parameters")
    (count,) = r.unpack("<I")
    for _ in range(count):
        name = r.name()
        (ndim,) = r.unpack("<B")
        *shape, masked = r.unpack(f"<{ndim}IB")
        size = math.prod(shape)
        active = slice(None)
        if masked:
            bits = np.unpackbits(np.frombuffer(r.take((size + 7) // 8), np.uint8),
                                 count=size)
            ckpt.masks[name] = bits.reshape(shape)
            active = ckpt.active[name] = active_indices(bits)
        slots = Optimizer.SLOTS[ckpt.optimizer_kind]
        n = active.size if masked else size
        # the record's bytes are read before any array is sized from its shape
        width = 1 + len(slots)
        rows = np.frombuffer(r.take(4 * n * width), "<f4").reshape(width, n)
        dense = np.zeros(size, np.float32)
        dense[active] = rows[0]
        ckpt.params[name] = dense.reshape(shape)
        for slot, row in zip(slots, rows[1:]):
            ckpt.opt_state[_slot_key(name, slot)] = row.copy()

    r.expect_tag(b"RNG", "rng streams")
    (count,) = r.unpack("<I")
    for _ in range(count):
        name = r.name()
        ckpt.rng_states[name] = r.unpack("<4Q")

    r.section = "trailer"
    if r.take(4) != b"END!":
        raise CheckpointError("corrupt checkpoint: missing trailer")
    (crc,) = r.unpack("<I")
    if r.pos != len(r.data) or crc != zlib.crc32(memoryview(r.data)[:-4]):
        raise CheckpointError(f"{path}: corrupt checkpoint (CRC-32 mismatch or trailing bytes)")
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
    """Load a checkpoint into live objects; returns the step to resume from.
    Each component's records fill its range of the model's parameter store
    and of the optimizer's state."""
    records = model.component_parameters()
    keys = {ref.name for ref in records}
    if keys != set(ckpt.params):
        missing = keys ^ set(ckpt.params)
        raise CheckpointError(
            f"checkpoint parameters do not match the model (mismatch: {sorted(missing)[:4]})")
    if ckpt.optimizer_kind != optimizer.kind:
        raise CheckpointError(
            f"checkpoint optimizer {ckpt.optimizer_kind!r} != configured "
            f"{optimizer.kind!r}")
    slot_names = Optimizer.SLOTS[optimizer.kind]
    parts = []
    for ref in records:
        key = ref.name
        values = _entry(ckpt.params, key, ref.array.shape, "parameter")
        entries = ref.array.size
        if ref.mask is not None:
            saved = _entry(ckpt.masks, key, ref.mask.shape, "mask")
            if np.logical_and(values, np.logical_not(saved)).any():
                raise CheckpointError(f"checkpoint weight {key} is nonzero where its mask is 0")
            ref.mask[...] = saved
            entries = len(_entry(ckpt.active, key, (np.count_nonzero(saved),),
                                 "active indices"))
        ref.array[...] = values
        parts.append([_entry(ckpt.opt_state, _slot_key(key, slot), (entries,),
                             "optimizer slot") for slot in slot_names])
    optimizer.active = active_indices(model.store.mask)
    cuts = _cuts(model, optimizer)
    for i, slot in enumerate(slot_names):
        arr = optimizer.slots[slot] = np.empty(optimizer.active.size, model.store.values.dtype)
        for lo, hi, entries in zip(cuts[::2], cuts[1::2], parts):
            arr[lo:hi] = entries[i]
    optimizer.adam_t = ckpt.adam_t
    for key, stream in model.topo_streams.items():
        if key not in ckpt.rng_states:
            raise CheckpointError(f"checkpoint missing rng stream {key}")
        stream.set_state(ckpt.rng_states[key])
    ledger.cumulative_train = ckpt.cumulative_flops
    ledger.forward_sparse = count_flops(model).forward_sparse
    return ckpt.step
