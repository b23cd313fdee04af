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

Masked entries are not stored, in the file or in a `Checkpoint`: a masked
weight's values, like its optimizer slots, are its active entries, 1-D in
`active` order. A capture copies them and keeps views of the rest; a
restore writes +0.0 over a masked weight's range, then its active entries,
so masked weights are +0.0 without a scan of the store. A checkpoint
restores parameters, masks, optimizer state and the live topology streams,
so a resumed run replays the uninterrupted run exactly.
Files are written whole or not at all (`write_atomic`).
"""

import math
import os
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from .model import TrailsModel
from .nn import active_indices
from .train import FlopsLedger, Optimizer, count_flops

MAGIC = b"STRLCKPT"
VERSION = 2
_OPT_KINDS = {"sgd_momentum": 0, "adam": 1}
_OPT_NAMES = {v: k for k, v in _OPT_KINDS.items()}


# the write buffer of `write_atomic`: small records reach the file in pieces
# of this size, not one by one, as every write is a system call
_WRITE_SIZE = 1 << 16


class CheckpointError(ValueError):
    pass


@dataclass
class Checkpoint:
    """A run's state. `params` holds a masked weight as its active entries,
    1-D in `active` order, as `opt_state` holds every slot."""
    version: int
    config_hash: str
    step: int
    optimizer_kind: str
    adam_t: int
    cumulative_flops: int
    params: dict[str, np.ndarray] = field(default_factory=dict)  # masked: 1-D, active entries
    masks: dict[str, np.ndarray] = field(default_factory=dict)
    opt_state: dict[str, np.ndarray] = field(default_factory=dict)  # 1-D, active entries
    rng_states: dict[str, tuple[int, int, int, int]] = field(default_factory=dict)
    active: dict[str, np.ndarray] = field(default_factory=dict)  # a mask's sorted flat 1s


def _slot_key(name: str, slot: str) -> str:
    """The Checkpoint.opt_state key of a parameter's optimizer slot."""
    return f"{name}@{slot}"


def capture(model: TrailsModel, optimizer: Optimizer, ledger: FlopsLedger,
            step: int, config_hash: str) -> Checkpoint:
    """The run's state at `step`. A masked weight's `params` entry is a copy of
    its active entries, 1-D in `active` order (one `take` gathers them all).
    The rest of `params`, `masks` and `opt_state` are views of the live store
    and optimizer slots, not copies: a capture is valid until the next step,
    so save it at once or `copy.deepcopy` it to keep it."""
    ckpt = Checkpoint(version=VERSION, config_hash=config_hash, step=step,
                      optimizer_kind=optimizer.kind, adam_t=optimizer.adam_t,
                      cumulative_flops=ledger.cumulative_train)
    records, slots = model.component_parameters(), optimizer.slots.items()
    # where each record's store range starts and ends among the optimizer's
    # active positions: its entries in every slot
    cuts = optimizer.active.searchsorted(
        [end for ref in records for end in (ref.offset, ref.offset + ref.array.size)]).tolist()
    active_values = model.store.values.take(optimizer.active)
    for ref, lo, hi in zip(records, cuts[::2], cuts[1::2]):
        if ref.mask is None:
            ckpt.params[ref.name] = ref.array
        else:
            ckpt.params[ref.name] = active_values[lo:hi]
            ckpt.masks[ref.name] = ref.mask
            ckpt.active[ref.name] = optimizer.active[lo:hi] - ref.offset
        for slot, arr in slots:
            ckpt.opt_state[_slot_key(ref.name, slot)] = arr[lo:hi]
    ckpt.rng_states = {key: stream.get_state()
                       for key, stream in model.topo_streams.items()}
    return ckpt


def write_atomic(path, chunks) -> None:
    """Write the chunks (an iterable of bytes) one after another to a temp
    file beside path, then rename it over path.

    A write that fails part-way, or chunks that raise, leave the previous
    file at path as it was and remove the temp file; readers never see a
    truncated file.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb", buffering=_WRITE_SIZE) as f:
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


def _sections(ckpt: Checkpoint):
    """The file before its CRC: the header, each parameter record, then the
    RNG section and trailer, one bytes object each."""
    yield b"".join([MAGIC, struct.pack("<H", ckpt.version), bytes.fromhex(ckpt.config_hash),
                    struct.pack("<QBQQ", ckpt.step, _OPT_KINDS[ckpt.optimizer_kind],
                                ckpt.adam_t, ckpt.cumulative_flops),
                    b"PRM", struct.pack("<I", len(ckpt.params))])
    # few numpy calls per record: on small models they are most of the save time
    slots = Optimizer.SLOTS[ckpt.optimizer_kind]
    for name, values in ckpt.params.items():
        mask = ckpt.masks.get(name)
        shape = values.shape if mask is None else mask.shape
        record = [_named(name, f"B{len(shape)}IB", len(shape), *shape, mask is not None)]
        if mask is not None:
            record.append(np.packbits(mask))
        for arr in [values] + [ckpt.opt_state[_slot_key(name, slot)] for slot in slots]:
            if arr.size != values.size:
                raise CheckpointError(f"optimizer slots of {name} do not match its entries")
            record.append(np.ascontiguousarray(arr, "<f4"))
        record = b"".join(record)  # the parts are freed before the record goes out
        yield record
    yield b"".join([b"RNG", struct.pack("<I", len(ckpt.rng_states))]
                   + [_named(name, "4Q", *state) for name, state in ckpt.rng_states.items()]
                   + [b"END!"])


def save_checkpoint(ckpt: Checkpoint, path: str) -> str:
    """Write `ckpt` to path section by section through `write_atomic`'s
    buffer, with a running CRC: the file is never all in memory."""
    def pieces():
        crc = 0
        for chunk in _sections(ckpt):
            crc = zlib.crc32(chunk, crc)
            yield chunk
        yield struct.pack("<I", crc)

    write_atomic(path, pieces())
    return path


class _Reader:
    def __init__(self, data: bytes):
        self.data = memoryview(data)  # its slices reach np.frombuffer uncopied
        self.pos = 0
        self.section = "header"

    def take(self, n: int) -> memoryview:
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
        return str(self.take(n), "utf-8")

    def expect_tag(self, tag: bytes, section: str) -> None:
        self.section = section
        got = bytes(self.take(3))
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
        n = size = math.prod(shape)
        if masked:
            bits = np.unpackbits(np.frombuffer(r.take((size + 7) // 8), np.uint8),
                                 count=size)
            ckpt.masks[name] = bits.reshape(shape)
            ckpt.active[name] = active_indices(bits)
            n = ckpt.active[name].size
        slots = Optimizer.SLOTS[ckpt.optimizer_kind]
        # the record's bytes are read before any array is sized from its shape
        width = 1 + len(slots)
        rows = np.frombuffer(r.take(4 * n * width), "<f4").reshape(width, n)
        ckpt.params[name] = rows[0] if masked else rows[0].reshape(shape)
        for slot, row in zip(slots, rows[1:]):
            ckpt.opt_state[_slot_key(name, slot)] = row

    r.expect_tag(b"RNG", "rng streams")
    (count,) = r.unpack("<I")
    for _ in range(count):
        name = r.name()
        ckpt.rng_states[name] = r.unpack("<4Q")

    r.section = "trailer"
    if r.take(4) != b"END!":
        raise CheckpointError("corrupt checkpoint: missing trailer")
    (crc,) = r.unpack("<I")
    if r.pos != len(r.data) or crc != zlib.crc32(r.data[:-4]):
        raise CheckpointError(f"{path}: corrupt checkpoint (CRC-32 mismatch or trailing bytes)")
    return ckpt


def _entry(entries: dict[str, np.ndarray], key: str, shape: tuple[int, ...] | None,
           what: str) -> np.ndarray:
    """entries[key], which must exist with exactly the given shape (any
    shape if None)."""
    if key not in entries:
        raise CheckpointError(f"checkpoint missing {what} {key}")
    if shape is not None and entries[key].shape != shape:
        raise CheckpointError(
            f"checkpoint {what} {key} has shape {entries[key].shape}, expected {shape}")
    return entries[key]


def restore(ckpt: Checkpoint, model: TrailsModel, optimizer: Optimizer,
            ledger: FlopsLedger) -> int:
    """Load a checkpoint into live objects; returns the step to resume from.
    Each component's records fill its range of the model's parameter store.
    A masked record's active list is checked against its own mask, its range
    is written +0.0, then its active entries are scattered there, so masked
    weights are +0.0 without a scan of the store. The lists, in store order,
    become the optimizer's active positions, and the ledger's sparse forward
    FLOPs are counted from them, not from the masks again."""
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
    order = sorted(records, key=lambda ref: ref.offset)
    listed = []  # each record's active positions in the store, in store order
    for ref in order:
        if ref.mask is None:
            ref.array[...] = _entry(ckpt.params, ref.name, ref.array.shape, "parameter")
            listed.append(np.arange(ref.offset, ref.offset + ref.array.size))
            continue
        ref.mask[...] = _entry(ckpt.masks, ref.name, ref.mask.shape, "mask")
        at = _entry(ckpt.active, ref.name, (int(np.count_nonzero(ref.mask)),),
                    "active indices")
        # count_nonzero positions, strictly increasing, in range, 1 in the mask
        if at.size and not (0 <= at[0] and at[-1] < ref.mask.size
                            and (np.diff(at) > 0).all() and ref.mask.reshape(-1)[at].all()):
            raise CheckpointError(f"checkpoint active indices {ref.name} disagree with its mask")
        listed.append(at + ref.offset)
        ref.array[...] = 0.0
        model.store.values[listed[-1]] = _entry(ckpt.params, ref.name, at.shape, "parameter")
    optimizer.active = np.concatenate(listed)
    for slot in Optimizer.SLOTS[optimizer.kind]:
        optimizer.slots[slot] = np.concatenate(
            [_entry(ckpt.opt_state, _slot_key(ref.name, slot), at.shape, "optimizer slot")
             for ref, at in zip(order, listed)], dtype=model.store.values.dtype)
    optimizer.adam_t = ckpt.adam_t
    for key, stream in model.topo_streams.items():
        if key not in ckpt.rng_states:
            raise CheckpointError(f"checkpoint missing rng stream {key}")
        stream.set_state(ckpt.rng_states[key])
    ledger.cumulative_train = ckpt.cumulative_flops
    ledger.forward_sparse = count_flops(model, optimizer.active).forward_sparse
    return ckpt.step
