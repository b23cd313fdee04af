"""Reference implementations the tests compare the package against.

- Finite-difference gradients of a layer stack and of a whole model, run
  on a float64 copy through the package's own dtype-following forward pass,
  at every weight position, masked ones included.
- Direct-loop conv2d forward and backward, one output position at a time
  over an explicitly zero-padded float64 input.
- A stacked conv2d forward with one GEMM per head, and its backward with
  dx from one whole-batch (C*kh*kw, N) column-gradient product per head
  folded back by col2im: the bytes the stacked GEMM of heads that share
  an input and the tap-by-tap dx must keep.
- The scalar xoshiro256** loops behind `Stream`'s bulk helpers: one
  `random`, `open_unit` or `randbelow` call per value, exactly as the
  bulk helpers must reproduce them; one epoch's batches from its own
  scalar permutation, which `data.batches` must reproduce for every epoch
  it draws at once; and the partial Fisher-Yates shuffle walked one swap
  at a time over a dict of moved positions, which `rng._shuffled_prefix`
  must reproduce from the swap targets alone.
- The synthetic tasks point by point, one scalar `random` or `normal`
  call per value, which `data.gen_synthetic` must reproduce from one bulk
  draw; and a substream's seed with every string id folded from its bytes
  on each call, which `Stream.child`'s once-per-process fold must keep.
- A layer's weight init from one dense draw per position, every draw made
  into a value and the values written where the mask is set: the bytes
  `nn.init_layer` must give from the kept draws alone.
- A dense masked optimizer: every slot has its parameter's shape and each
  step updates every entry, the arithmetic the compact `Optimizer` must
  reproduce bit for bit at the active entries; and the compact
  `Optimizer`'s slots read back densely per parameter (`dense_state`).
- A one-shot global magnitude prune by one lexsort over every weight.
- One member of an independent ensemble trained alone, by its own loop:
  its own batch order and its own unscaled loss.
- The per-head training pass: forward, loss and backward of one head at a
  time on its own views, the backbone gradient summing the heads' input
  gradients in head order, which the stacked pass must reproduce bit for bit.
- Cross-entropy and softmax by numpy's row reductions over the class axis,
  which `nn.loss_forward` and `nn.softmax` must reproduce bit for bit; and
  the loss and its gradient by numpy's helpers (`broadcast_to`,
  `take_along_axis`, `mean`, a scaled copy), whose bits the lean
  `nn.loss_forward` and `nn.loss_backward` must keep.
- The evaluation metrics and the soft vote through numpy's helpers
  (`np.mean`, `ndarray.max`/`min`/`sum`, `np.all`, `np.clip`, `np.argmax`)
  and ECE by one boolean mask per bin, whose bits the lean `metrics` and
  `model.soft_vote` must keep.
- The FLOPs ledger by a walk over every layer's activation shape, the
  backbone once and then every head on its output, with each layer's own
  active count: the numbers `train.count_flops` and the one-shot prune's
  bound must give from the model's cost table.
"""

import copy
import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from sparsetrails.data import Dataset
from sparsetrails.model import (HeadOutputs, ParamRef, TrailsModel, activation_shape,
                               composite_loss, forward_heads)
from sparsetrails import nn
from sparsetrails.nn import (Layer, LayerGrads, MaskedTensor, _conv_padding, _over_classes,
                             conv_output_hw, loss_backward, loss_forward, softmax,
                             stack_backward, stack_forward)
from sparsetrails.rng import Stream
from sparsetrails.sparsity import round_half_up
from sparsetrails.train import Optimizer, TrainConfig, TrainingDiverged, lr_at

# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------


def stack_astype(layers: list[Layer], dtype) -> list[Layer]:
    out = []
    for layer in layers:
        clone = Layer(spec=copy.deepcopy(layer.spec))
        if layer.weight is not None:
            clone.weight = MaskedTensor(values=layer.weight.values.astype(dtype),
                                        mask=layer.weight.mask.copy())
        if layer.bias is not None:
            clone.bias = layer.bias.astype(dtype)
        out.append(clone)
    return out


def model_astype(model: TrailsModel, dtype) -> TrailsModel:
    clone = copy.copy(model)
    clone.store = model.store.astype(dtype)
    clone.topo_streams = {}
    return clone


def finite_difference_gradient(loss_fn, params: list[np.ndarray],
                               eps: float = 1e-3) -> list[np.ndarray]:
    """Central differences of loss_fn over every entry of each array.

    Perturbs the live arrays in place (restoring them afterwards), so
    loss_fn must read those same arrays. Layers compute with a weight's
    `values`, so a masked entry moved off zero changes the loss: its
    estimate is the gradient RigL grows from.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    out = []
    for arr in params:
        grad = np.zeros(arr.shape, dtype=np.float64)
        flat = arr.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = loss_fn()
            flat[i] = orig - eps
            down = loss_fn()
            flat[i] = orig
            grad.reshape(-1)[i] = (up - down) / (2.0 * eps)
        out.append(grad)
    return out


def _stack_gradients(layers: list[Layer], loss_fn, eps: float) -> list[LayerGrads]:
    out = []
    for layer in layers:
        grads = LayerGrads()
        if layer.weight is not None:
            grads.weight, = finite_difference_gradient(loss_fn, [layer.weight.values], eps)
        if layer.bias is not None:
            grads.bias, = finite_difference_gradient(loss_fn, [layer.bias], eps)
        out.append(grads)
    return out


def stack_finite_difference(layers: list[Layer], x: np.ndarray, targets: np.ndarray,
                            eps: float = 1e-3) -> list[LayerGrads]:
    """Finite-difference gradient of the stack's mean-CE loss (float64 copy)."""
    shadow = stack_astype(layers, np.float64)
    x64 = np.asarray(x, dtype=np.float64)

    def loss_fn() -> float:
        logits, _ = stack_forward(shadow, x64)
        loss, _ = loss_forward(logits, targets)
        return loss

    return _stack_gradients(shadow, loss_fn, eps)


def model_finite_difference(model: TrailsModel, batch: np.ndarray, targets: np.ndarray,
                            eps: float = 1e-3) -> dict[str, list[LayerGrads]]:
    """Finite-difference oracle for the composite loss (float64 shadow model)."""
    shadow = model_astype(model, np.float64)
    x64 = np.asarray(batch, dtype=np.float64)

    def loss_fn() -> float:
        loss, _, _ = composite_loss(forward_heads(shadow, x64), targets)
        return loss

    names = ["backbone"] + [f"head{m}" for m in range(shadow.num_heads)]
    return {name: _stack_gradients(layers, loss_fn, eps)
            for name, layers in zip(names, shadow.components())}


# ---------------------------------------------------------------------------
# conv2d by direct loops
# ---------------------------------------------------------------------------


def _conv_pad(x: np.ndarray, kh: int, kw: int, padding: str) -> tuple[np.ndarray, int, int]:
    """x zero-padded for stride-1 conv; "same" puts the odd extra row/column
    at the bottom/right. Returns the padded float64 copy and (top, left)."""
    if padding == "valid":
        return np.asarray(x, dtype=np.float64), 0, 0
    top, left = (kh - 1) // 2, (kw - 1) // 2
    b, c, h, w = x.shape
    padded = np.zeros((b, c, h + kh - 1, w + kw - 1))
    padded[:, :, top:top + h, left:left + w] = x
    return padded, top, left


def conv2d_forward(x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None,
                   padding: str) -> np.ndarray:
    """y[b, o, r, s] = bias[o] + sum over c, i, j of
    xpad[b, c, r+i, s+j] * weight[o, c, i, j]."""
    o_ch, _, kh, kw = weight.shape
    xp, _, _ = _conv_pad(x, kh, kw, padding)
    b_n, _, hp, wp = xp.shape
    y = np.zeros((b_n, o_ch, hp - kh + 1, wp - kw + 1))
    for b in range(b_n):
        for o in range(o_ch):
            for r in range(y.shape[2]):
                for s in range(y.shape[3]):
                    y[b, o, r, s] = np.sum(xp[b, :, r:r + kh, s:s + kw] * weight[o])
            if bias is not None:
                y[b, o] += bias[o]
    return y


def conv2d_backward(x: np.ndarray, weight: np.ndarray, d_out: np.ndarray,
                    padding: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(dW, db, dx) of sum(d_out * conv2d_forward(x, weight, bias, padding))."""
    _, _, kh, kw = weight.shape
    xp, top, left = _conv_pad(x, kh, kw, padding)
    dw = np.zeros(weight.shape)
    dxp = np.zeros(xp.shape)
    b_n, o_ch, oh, ow = d_out.shape
    for b in range(b_n):
        for o in range(o_ch):
            for r in range(oh):
                for s in range(ow):
                    g = float(d_out[b, o, r, s])
                    dw[o] += g * xp[b, :, r:r + kh, s:s + kw]
                    dxp[b, :, r:r + kh, s:s + kw] += g * weight[o]
    db = np.asarray(d_out, dtype=np.float64).sum(axis=(0, 2, 3))
    h, w = x.shape[2:]
    return dw, db, dxp[:, :, top:top + h, left:left + w]


# ---------------------------------------------------------------------------
# stacked conv2d, one head at a time and by whole-kernel columns
# ---------------------------------------------------------------------------


def per_head_conv_forward(layer: Layer, x: np.ndarray) -> np.ndarray:
    """A stacked conv2d forward on x (M or 1, B, C, H, W) with one GEMM per
    head over each block's shared columns, a zero second kernel row at one
    output channel: the bytes `nn._conv_forward`'s one GEMM over the stacked
    kernels of heads that share an input must keep."""
    spec, w, bias = layer.spec, layer.weight.values, layer.bias
    heads, o = w.shape[:2]
    b, _, h, wd = x.shape[1:]
    oh, ow = conv_output_hw(spec, h, wd)
    top, bottom, left, right = _conv_padding(spec)
    hp, wp = h + top + bottom, wd + left + right
    unit = nn.GEMM_COLUMN_UNIT
    fit = nn.COLUMN_BUDGET // (w[0, 0].size * x.itemsize) // unit * unit
    block = max(1, min(b, fit // (hp * wp)))
    kernels = w.reshape(heads, o, -1)
    if o == 1:
        kernels = np.concatenate([kernels, np.zeros_like(kernels)], axis=1)
    out = np.empty((heads, b, o, oh, ow), dtype=x.dtype)
    y = np.empty((kernels.shape[1], block * hp * wp + unit), dtype=x.dtype)
    for s in range(0, b, block):
        e = min(s + block, b)
        for m in range(heads):
            if m < len(x):
                cols, (_, _, _, _, n) = nn._conv_columns(spec, x[m, s:e], unit)
            np.matmul(kernels[m], cols, out=y[:, :n])
            grid = y[:o, :(e - s) * hp * wp].reshape(o, e - s, hp, wp)[:, :, :oh, :ow] \
                .transpose(1, 0, 2, 3)
            out[m, s:e] = grid if bias is None else grid + bias[m, :, None, None]
    return out


def col2im_conv_backward(layer: Layer, x: np.ndarray,
                         d_out: np.ndarray) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """(dW, db, dx) of a stacked conv2d on x (M or 1, B, C, H, W), dx by one
    whole-batch product per head of the transposed kernel and the output
    gradient, a (C*kh*kw, N) array of column gradients that col2im folds
    back by one shifted add per kernel offset; heads that share an input
    sum their dx in head order. The float32 bytes `nn._conv_backward`,
    which builds dx one kernel offset at a time, must keep."""
    spec, w = layer.spec, layer.weight.values
    heads, o, c, kh, kw = w.shape
    b, _, h, wd = x.shape[1:]
    top, _, left, _ = _conv_padding(spec)
    dw = np.empty(w.shape, d_out.dtype)
    db = None if layer.bias is None else np.empty(layer.bias.shape, d_out.dtype)
    dx = np.empty((heads, b, c, h, wd), dtype=d_out.dtype)
    for m in range(heads):
        if m < len(x):
            cols, (hp, wp, oh, ow, n) = nn._conv_columns(spec, x[m])
        d_grid = np.zeros((o, b, hp, wp), dtype=d_out.dtype)
        d_grid[:, :, :oh, :ow] = d_out[m].transpose(1, 0, 2, 3)
        d2 = d_grid.reshape(o, -1)[:, :n]
        dw[m] = (cols @ d2.T).T.reshape(w.shape[1:])
        if db is not None:
            db[m] = np.add.reduce(d_out[m].reshape(b, o, -1), axis=(0, 2))
        dcols = (w[m].reshape(o, -1).T @ d2).reshape(c, kh * kw, n)
        d_flat = np.zeros((c, b * hp * wp), dtype=d_out.dtype)
        for i in range(kh):
            for j in range(kw):
                d_flat[:, i * wp + j:i * wp + j + n] += dcols[:, i * kw + j]
        dx[m] = d_flat.reshape(c, b, hp, wp)[:, :, top:top + h, left:left + wd] \
            .transpose(1, 0, 2, 3)
    if len(x) == 1:
        total = dx[0]
        for part in dx[1:]:
            total = total + part
        dx = total[None]
    return dw, db, dx


# ---------------------------------------------------------------------------
# scalar random draws
# ---------------------------------------------------------------------------


def child_seed(seed: int, ids) -> int:
    """`Stream(seed).child(*ids).seed`, folding every string id from its
    UTF-8 bytes on each call."""
    mask = (1 << 64) - 1

    def splitmix(z: int) -> int:
        z = (z + 0x9E3779B97F4A7C15) & mask
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        return z ^ (z >> 31)

    for token in ids:
        if isinstance(token, str):
            value = 0
            for byte in token.encode("utf-8"):
                value = splitmix(value ^ byte)
        else:
            value = token & mask
        seed = splitmix(seed ^ value)
    return seed


def uniforms(stream: Stream, n: int) -> np.ndarray:
    return np.array([stream.random() for _ in range(n)], dtype=np.float64)


def gumbels(stream: Stream, n: int) -> np.ndarray:
    out = np.empty(n, dtype=np.float64)
    for i in range(n):
        out[i] = -math.log(-math.log(stream.open_unit()))
    return out


def permutation(stream: Stream, n: int) -> np.ndarray:
    """Fisher-Yates permutation of range(n)."""
    perm = np.arange(n, dtype=np.int64)
    for i in range(n - 1, 0, -1):
        j = stream.randbelow(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def gen_synthetic(kind: str, n: int, noise: float, seed: int) -> Dataset:
    """The synthetic tasks point by point, each value from its own scalar
    `random` or `normal` call, then the scalar closing permutation: the
    bytes `data.gen_synthetic` must give from its one bulk draw."""
    stream = Stream(seed).child("synthetic", kind)
    base, extra = divmod(n, 2)
    counts = [base + (1 if i < extra else 0) for i in range(2)]
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
    else:
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
    perm = permutation(stream, n)
    return Dataset(inputs=inputs[perm], labels=labels[perm], num_classes=2)


def epoch_batches(dataset: Dataset, batch_size: int, seed: int, epoch: int,
                  drop_last: bool = False) -> list[np.ndarray]:
    """One epoch's index slices from its own scalar permutation, derived
    from (seed, epoch): what `data.batches` gives for each epoch of a range."""
    n = len(dataset)
    if drop_last and batch_size > n:
        raise ValueError(f"batch size {batch_size} exceeds dataset size {n} with drop_last")
    perm = permutation(Stream(seed).child("epoch", epoch), n)
    out = [perm[i:i + batch_size] for i in range(0, n, batch_size)]
    if drop_last and out and len(out[-1]) < batch_size:
        out.pop()
    return out


def choice_without_replacement(stream: Stream, n: int, k: int) -> np.ndarray:
    """k distinct integers from range(n), via partial Fisher-Yates."""
    if not 0 <= k <= n:
        raise ValueError(f"cannot draw {k} distinct values from range({n})")
    pool = np.arange(n, dtype=np.int64)
    for i in range(k):
        j = i + stream.randbelow(n - i)
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:k].copy()


def shuffled_prefix(swaps: np.ndarray) -> np.ndarray:
    """pool[:k] after `pool[i], pool[swaps[i]] = pool[swaps[i]], pool[i]` for
    i < k from pool = range(n), keeping only the positions that moved."""
    moved: dict[int, int] = {}
    picks = []
    for i, j in enumerate(swaps.tolist()):
        picks.append(moved.get(j, j))
        moved[j] = moved.get(i, i)
    return np.array(picks, dtype=np.int64)


def init_layer(layer: Layer, stream: Stream) -> None:
    """Kaiming-uniform fan-in init of a layer's zeroed store views: its
    weights are drawn dense and written where its mask is set, then its
    bias is drawn. A relu layer draws nothing."""
    spec = layer.spec
    if spec.kind == "relu":
        return
    values, mask = layer.weight.values, layer.weight.mask
    draws = stream.uniforms(values.size).reshape(values.shape)
    draws *= 2.0                     # (u * 2 - 1) * bound, in place in float64
    draws -= 1.0
    draws *= math.sqrt(6.0 / spec.fan_in)
    np.copyto(values, draws, casting="same_kind", where=mask.view(bool))
    if spec.has_bias:
        layer.bias[...] = (stream.uniforms(layer.bias.size) * 2.0 - 1.0) \
            * (1.0 / math.sqrt(spec.fan_in))


# ---------------------------------------------------------------------------
# dense optimizer
# ---------------------------------------------------------------------------


class DenseOptimizer:
    """SGD-with-momentum or Adam with dense slots per parameter, a drop-in
    for `Optimizer` in `fit`: each step reads every parameter's own `grad`.
    The gradient is masked before the update, so masked weight positions and
    their slot entries stay +0.0; `reset_positions` zeroes the slots at the
    listed store positions."""

    SLOTS = Optimizer.SLOTS

    def __init__(self, config, params):
        self.config = config
        self.params = {p.name: p for p in params}
        self.kind = config.optimizer
        self.adam_t = 0
        self.state = {p.name: {slot: np.zeros_like(p.array) for slot in self.SLOTS[self.kind]}
                      for p in params}

    def step(self, lr, step=0):
        for name, ref in self.params.items():
            if not np.isfinite(ref.grad).all():
                raise TrainingDiverged(f"non-finite gradient in {name}", step=step)
        if self.kind == "adam":
            self.adam_t += 1
        c = self.config
        for name, ref in self.params.items():
            grad, state = ref.grad, self.state[name]
            if ref.mask is not None:
                grad = grad * ref.mask
            if self.kind == "sgd_momentum":
                if c.weight_decay:
                    grad = grad + c.weight_decay * ref.array
                v = state["momentum"]
                v *= c.momentum
                v += grad
                ref.array -= lr * v
            else:
                m, v = state["m"], state["v"]
                m *= c.beta1
                m += (1.0 - c.beta1) * grad
                v *= c.beta2
                v += (1.0 - c.beta2) * grad * grad
                m_hat = m / (1.0 - c.beta1 ** self.adam_t)
                v_hat = v / (1.0 - c.beta2 ** self.adam_t)
                ref.array -= lr * m_hat / (np.sqrt(v_hat) + c.adam_eps)

    def reset_positions(self, positions):
        positions = np.asarray(positions, np.int64)
        for name, ref in self.params.items():
            mine = positions[(positions >= ref.offset)
                             & (positions < ref.offset + ref.array.size)] - ref.offset
            for slot in self.state[name].values():
                slot.reshape(-1)[mine] = 0.0


def dense_state(optimizer: Optimizer) -> dict[str, dict[str, np.ndarray]]:
    """Dense copies of a compact `Optimizer`'s slots per store parameter,
    +0.0 at masked positions; raises if the store's mask no longer matches
    the optimizer's active positions."""
    store = optimizer.store
    if not np.array_equal(optimizer.active, np.flatnonzero(store.mask)):
        raise RuntimeError("optimizer indices disagree with its mask")
    dense = {}
    for slot, arr in optimizer.slots.items():
        dense[slot] = np.zeros(store.values.size, arr.dtype)
        dense[slot][optimizer.active] = arr
    return {ref.name: {slot: arr[ref.offset:ref.offset + ref.array.size]
                       .reshape(ref.array.shape) for slot, arr in dense.items()}
            for ref in store.refs}


# ---------------------------------------------------------------------------
# one-shot global prune
# ---------------------------------------------------------------------------


def one_shot_global_prune(records: list[ParamRef], sparsity: float) -> dict[str, list[int]]:
    """Keep the round((1 - S) * total) largest |theta| over all weight
    records, ties to ascending (record, flat index) by one lexsort; mutates
    masks and values and returns each record's dropped flat indices."""
    sizes = [ref.array.size for ref in records]
    budget = round_half_up((1.0 - sparsity) * sum(sizes))
    abs_all = np.concatenate([np.abs(ref.array.reshape(-1)).astype(np.float64)
                              for ref in records])
    layer_ord = np.concatenate([np.full(n, i, dtype=np.int64) for i, n in enumerate(sizes)])
    flat_idx = np.concatenate([np.arange(n, dtype=np.int64) for n in sizes])
    keep = np.lexsort((flat_idx, layer_ord, -abs_all))[:budget]
    pruned = {}
    for i, ref in enumerate(records):
        new_mask = np.zeros(ref.array.size, dtype=np.uint8)
        new_mask[flat_idx[keep[layer_ord[keep] == i]]] = 1
        old_active = np.flatnonzero(ref.mask.reshape(-1) != 0)
        dropped = old_active[new_mask[old_active] == 0]
        ref.mask[...] = new_mask.reshape(ref.mask.shape)
        ref.array.reshape(-1)[dropped] = 0.0
        pruned[ref.name] = dropped.tolist()
    return pruned


# ---------------------------------------------------------------------------
# one independent member trained alone
# ---------------------------------------------------------------------------


def train_member_alone(layers: list[Layer], member: int, train_set: Dataset,
                       config: TrainConfig) -> None:
    """Train one member's layers in place for config.total_steps steps, as
    if it were the only network: batches in the order of data stream
    `member`, the plain mean cross-entropy (no 1/M scale), a masked dense
    optimizer step, no topology updates."""
    seed = Stream(config.seed).child("data", member).seed
    params, grads = [], []
    for li, layer in enumerate(layers):
        grads.append(LayerGrads())
        if layer.weight is not None:
            grads[li].weight = np.empty_like(layer.weight.values)
            params.append(ParamRef(f"{li}/weight", layer.weight.values, layer.weight.mask,
                                   grads[li].weight))
        if layer.bias is not None:
            grads[li].bias = np.empty_like(layer.bias)
            params.append(ParamRef(f"{li}/bias", layer.bias, None, grads[li].bias))
    optimizer = DenseOptimizer(config, params)
    step, epoch = 0, 0
    while step < config.total_steps:
        for sel in epoch_batches(train_set, config.batch_size, seed, epoch,
                                 config.drop_last)[:config.total_steps - step]:
            step += 1
            x, y = train_set.inputs[sel], train_set.labels[sel]
            logits, tape = stack_forward(layers, x, record=True)
            _, probs = loss_forward(logits, y)
            stack_backward(layers, tape, loss_backward(probs, y), out=grads)
            optimizer.step(lr_at(step, config))
        epoch += 1


# ---------------------------------------------------------------------------
# per-head training pass
# ---------------------------------------------------------------------------


def per_head_pass(model: TrailsModel, batch, targets):
    """One head at a time: forward, loss and backward on `model.heads[m]`;
    per-member batches and targets come as lists. Returns the outputs with
    (M, B, C) logits, the per-head losses and probabilities, the composite
    loss, the gradients keyed `component/layer/kind` and the summed input
    gradient of the heads, which the backbone's backward reads."""
    per_member = isinstance(batch, list)
    h, bb_tape = stack_forward(model.backbone, batch, record=True)
    inputs = h if per_member else [h] * model.num_heads
    targets = targets if isinstance(targets, list) else [targets] * model.num_heads
    scale = 1.0 if model.independent else 1.0 / model.num_heads
    logits, losses, probs, grads, d_h = [], [], [], {}, None
    for m, (head, x, t) in enumerate(zip(model.heads, inputs, targets)):
        y, tape = stack_forward(head, x, record=True)
        loss, p = loss_forward(y, t)
        head_grads, dx = stack_backward(head, tape, loss_backward(p, t, scale=scale))
        if model.backbone:
            d_h = dx if d_h is None else d_h + dx
        logits.append(y)
        losses.append(float(loss))
        probs.append(p)
        grads.update(_named_grads(f"head{m}", head_grads))
    grads.update(_named_grads("backbone", stack_backward(model.backbone, bb_tape, d_h)[0]))
    return (HeadOutputs(logits=np.stack(logits)), np.array(losses), np.stack(probs),
            float(np.mean(losses)), grads, d_h)


def _named_grads(component: str, grads: list[LayerGrads]) -> dict[str, np.ndarray]:
    return {f"{component}/{li}/{kind}": arr for li, g in enumerate(grads)
            for kind, arr in (("weight", g.weight), ("bias", g.bias)) if arr is not None}


# ---------------------------------------------------------------------------
# cross-entropy by axis reductions
# ---------------------------------------------------------------------------


def axis_loss_forward(logits: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`nn.loss_forward` with its max and both exp-sums as reductions over
    the class axis: (per-index mean cross-entropy, softmax probabilities)."""
    targets = np.broadcast_to(targets, logits.shape[:-1])
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    probs = e / e.sum(axis=-1, keepdims=True)
    shifted = shifted.astype(np.float64)
    log_z = np.log(np.exp(shifted).sum(axis=-1))
    log_p = np.take_along_axis(shifted, targets[..., None], axis=-1)[..., 0] - log_z
    return -log_p.mean(axis=-1), probs


def helper_loss_forward(logits: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`nn.loss_forward` through numpy's Python-level helpers: targets
    broadcast and range-checked by `min`/`max`, the target log-probabilities
    gathered by `take_along_axis`, the batch mean by `mean`."""
    targets = np.broadcast_to(targets, logits.shape[:-1])
    if targets.size and (targets.min() < 0 or targets.max() >= logits.shape[-1]):
        raise ValueError(
            f"target out of range [0, {logits.shape[-1]}): min={targets.min()}, "
            f"max={targets.max()}")
    shifted = logits - _over_classes(np.maximum, logits)
    e = np.exp(shifted)
    probs = e / _over_classes(np.add, e)
    shifted = shifted.astype(np.float64)
    log_z = np.log(_over_classes(np.add, np.exp(shifted)))[..., 0]
    log_p = np.take_along_axis(shifted, targets[..., None], axis=-1)[..., 0] - log_z
    return -log_p.mean(axis=-1), probs


def helper_loss_backward(probs: np.ndarray, targets: np.ndarray,
                         scale: float = 1.0) -> np.ndarray:
    """`nn.loss_backward` with the scaling as a product into a new array."""
    d = probs - (np.asarray(targets)[..., None] == np.arange(probs.shape[-1]))
    return d * np.asarray(scale / probs.shape[-2], dtype=probs.dtype)


# ---------------------------------------------------------------------------
# evaluation metrics through numpy's helpers
# ---------------------------------------------------------------------------


def helper_accuracy(predictions: np.ndarray, labels: np.ndarray) -> float:
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape or predictions.size == 0:
        raise ValueError(
            f"need equal nonempty prediction/label arrays, got "
            f"{predictions.shape} vs {labels.shape}")
    return float(np.mean(predictions == labels))


def helper_nll(probs: np.ndarray, labels: np.ndarray) -> float:
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels)
    row_sums = probs.sum(axis=1)
    if not np.all(np.abs(row_sums - 1.0) <= 1e-6):
        raise ValueError("probability rows must sum to 1 within 1e-6")
    if labels.min() < 0 or labels.max() >= probs.shape[1]:
        raise ValueError(f"label out of range [0, {probs.shape[1]})")
    picked = probs[np.arange(len(labels)), labels]
    return float(np.mean(-np.log(np.maximum(picked, 1e-12))))


def helper_ece(probs: np.ndarray, labels: np.ndarray, bins: int = 15) -> float:
    """ECE with one boolean mask, and one `mean` of each gathered side, per bin."""
    if bins < 1:
        raise ValueError(f"need at least one bin, got {bins}")
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels)
    conf = probs.max(axis=1)
    pred = probs.argmax(axis=1)
    correct = (pred == labels).astype(np.float64)
    idx = np.clip(np.ceil(conf * bins).astype(np.int64), 1, bins)
    n = len(labels)
    total = 0.0
    for b in range(1, bins + 1):
        members = idx == b
        count = int(members.sum())
        if count == 0:
            continue
        gap = abs(correct[members].mean() - conf[members].mean())
        total += (count / n) * gap
    return total


def helper_prediction_disagreement(head_predictions: np.ndarray) -> float:
    head_predictions = np.asarray(head_predictions)
    m = head_predictions.shape[0]
    if m < 2:
        raise ValueError(f"prediction disagreement needs at least 2 heads, got {m}")
    rates = [np.mean(head_predictions[i] != head_predictions[j])
             for i, j in combinations(range(m), 2)]
    return float(np.mean(rates))


def helper_soft_vote(outputs: HeadOutputs, vote: str = "probs") -> tuple[np.ndarray, np.ndarray]:
    if vote == "probs":
        ens = softmax(outputs.logits).mean(axis=0)
    elif vote == "logits":
        ens = softmax(outputs.logits.mean(axis=0))
    else:
        raise ValueError(f"vote must be 'probs' or 'logits', got {vote!r}")
    return ens, np.argmax(ens, axis=1)


def helper_head_predictions(outputs: HeadOutputs) -> np.ndarray:
    return np.argmax(outputs.logits, axis=-1)


# ---------------------------------------------------------------------------
# FLOPs by a shape walk
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LayerCost:
    """Per-sample forward cost of one layer in the ledger's convention.

    `fixed` counts bias adds and elementwise work, which masks do not
    change. Each weight costs 2 * `multiplier` FLOPs, the multiplier being
    the output positions per channel (1 for linear, 0 for weightless
    layers); `active` of the layer's `size` weights are unmasked.
    """

    multiplier: int
    fixed: int
    active: int
    size: int


def layer_costs(model: TrailsModel) -> list[LayerCost]:
    """One walk over the backbone, then every head on the backbone's output."""
    costs = []

    def walk(layers: list[Layer], shape: tuple[int, ...]) -> tuple[int, ...]:
        for layer in layers:
            spec = layer.spec
            shape = activation_shape(spec, shape)
            elements = int(np.prod(shape))
            if layer.weight is None:
                costs.append(LayerCost(multiplier=0, fixed=elements, active=0, size=0))
            else:
                costs.append(LayerCost(multiplier=int(np.prod(shape[1:])),
                                       fixed=elements if spec.has_bias else 0,
                                       active=layer.weight.active_count(),
                                       size=spec.weight_size))
        return shape

    features = walk(model.backbone, tuple(model.spec.input_shape))
    for head in model.heads:
        walk(head, features)
    return costs


def forward_flops(model: TrailsModel) -> tuple[int, int]:
    """Per-sample forward FLOPs of the ensemble, (sparse, dense)."""
    costs = layer_costs(model)
    fixed = sum(c.fixed for c in costs)
    return (fixed + sum(2 * c.multiplier * c.active for c in costs),
            fixed + sum(2 * c.multiplier * c.size for c in costs))


def post_prune_forward_bound(model: TrailsModel, sparsity: float) -> int:
    """Dense bias and elementwise costs, and the weights a global prune to
    `sparsity` keeps, each at the worst position multiplier."""
    costs = layer_costs(model)
    keep = round_half_up((1.0 - sparsity) * sum(c.size for c in costs))
    return sum(c.fixed for c in costs) + 2 * keep * max(c.multiplier for c in costs)
