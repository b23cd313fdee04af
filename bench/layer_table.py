"""Per-layer cost table: measured time beside the ledger's analytic FLOPs.

Each layer of the backbone and of one head is timed on its own, as a
single-layer stack through the public `nn.stack_forward` and
`nn.stack_backward`, on the activations a real batch produces at that
layer. Head layers count once per head. The FLOPs follow the ledger's
convention (`train.FlopsLedger`): a train step is costed as three forward
passes, i.e. a backward/forward time ratio of 2.0; the table shows how far
the measured ratio is from that.
"""

import statistics
import time

import numpy as np

from sparsetrails import nn
from sparsetrails.model import activation_shape

KINDS = ("linear", "conv2d", "relu")
MIN_SECONDS = 0.02
MIN_REPEATS = 3


def forward_flops(layer: nn.Layer, in_shape: tuple, dense: bool) -> int:
    """Per-sample forward FLOPs of one layer, in the ledger's convention."""
    spec = layer.spec
    out_shape = activation_shape(spec, in_shape)
    if spec.kind == "relu":
        return int(np.prod(out_shape))
    active = spec.weight_size if dense else layer.weight.active_count()
    positions = 1 if spec.kind == "linear" else int(np.prod(out_shape[1:]))
    bias = (spec.out_dim if spec.kind == "linear" else int(np.prod(out_shape))) \
        if spec.has_bias else 0
    return 2 * active * positions + bias


def median_time(fn) -> float:
    """Median wall time of fn over at least MIN_REPEATS calls and MIN_SECONDS."""
    times = []
    started = time.perf_counter()
    while len(times) < MIN_REPEATS or time.perf_counter() - started < MIN_SECONDS:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def layer_rows(model, inputs: np.ndarray, dense_grads: bool) -> list[dict]:
    """One row per layer of the backbone and the first head."""
    batch = len(inputs)
    features, _ = nn.stack_forward(model.backbone, inputs)
    parts = (("backbone", model.backbone, inputs, 1),
             ("head", model.heads[0], features, model.num_heads))
    rows = []
    for part, layers, x, copies in parts:
        _, tape = nn.stack_forward(layers, x, record=True)
        for index, (layer, layer_in) in enumerate(zip(layers, tape)):
            single = [layer]
            out, single_tape = nn.stack_forward(single, layer_in, record=True)
            # backward cost does not depend on the upstream gradient's values
            d_out = np.ones_like(out)
            fwd = median_time(lambda: nn.stack_forward(single, layer_in, record=True))
            bwd = median_time(lambda: nn.stack_backward(single, single_tape, d_out))
            bwd_dense = median_time(
                lambda: nn.stack_backward(single, single_tape, d_out, dense=True)
            ) if dense_grads and layer.weight is not None else None
            in_shape = tuple(layer_in.shape[1:])
            flops = batch * forward_flops(layer, in_shape, dense=False)
            rows.append({
                "part": part, "layer": index, "kind": layer.spec.kind,
                "copies": copies, "batch": batch,
                "fwd_s": fwd, "bwd_s": bwd, "bwd_dense_s": bwd_dense,
                "fwd_flops": flops,
                "fwd_flops_dense": batch * forward_flops(layer, in_shape, dense=True),
                "fwd_gflops": flops / fwd / 1e9,
                "bwd_fwd_ratio": bwd / fwd,
            })
    return rows


def ledger_forward(rows: list[dict]) -> tuple[int, int]:
    """Per-sample sparse and dense forward FLOPs of the model, from the rows."""
    sparse = sum(r["copies"] * r["fwd_flops"] for r in rows) // rows[0]["batch"]
    dense = sum(r["copies"] * r["fwd_flops_dense"] for r in rows) // rows[0]["batch"]
    return sparse, dense


def kind_metrics(rows: list[dict]) -> dict:
    """Per layer kind, summed over the model: backward seconds, forward
    GFLOP/s and the backward/forward ratio; zero for an absent kind."""
    m = {}
    for kind in KINDS:
        mine = [r for r in rows if r["kind"] == kind]
        fwd = sum(r["copies"] * r["fwd_s"] for r in mine)
        bwd = sum(r["copies"] * r["bwd_s"] for r in mine)
        flops = sum(r["copies"] * r["fwd_flops"] for r in mine)
        m[f"nn.{kind}.bwd_s"] = (bwd, "s")
        m[f"nn.{kind}.fwd_gflops"] = (flops / fwd / 1e9 if fwd else 0.0, "GFLOP/s")
        m[f"nn.{kind}.bwd_fwd_ratio"] = (bwd / fwd if fwd else 0.0, "ratio")
    return m
