"""Forward/backward engine over dense float32 arrays with mask-aware weights.

Supported layers: linear, conv2d (stride 1, "valid"/"same" zero padding)
and relu. A weight tensor always travels with a binary mask of the same
shape (`MaskedTensor`); positions with mask 0 hold the exact value 0.0 and
stay that way through every forward, backward and optimizer step. Biases
are dense and never masked.

A `ParamStore` holds every parameter of a model in three flat buffers
(values, masks, gradients) and makes every view of them: its layers, each
head's plain layers and the `ParamRef`s. A stacked layer holds M heads'
weights, masks and biases in arrays with a leading head axis. It runs on
inputs with a leading axis of M per-head inputs, or of 1 for one input
that every head reads, and returns (M, B, ...); heads that read one input
add their input gradients in head order.

The math is dtype-following: arrays produced by a layer keep the dtype of
its inputs, which lets the finite-difference oracle run the same code in
float64 while training runs in float32.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .rng import Stream


@dataclass
class LayerSpec:
    """Shape-level description of one layer; carries no parameter values."""

    kind: str
    in_dim: int = 0
    out_dim: int = 0
    in_channels: int = 0
    out_channels: int = 0
    kernel_h: int = 0
    kernel_w: int = 0
    padding: str = "valid"
    has_bias: bool = True

    @classmethod
    def linear(cls, in_dim: int, out_dim: int, has_bias: bool = True) -> "LayerSpec":
        if in_dim <= 0 or out_dim <= 0:
            raise ValueError(f"linear dims must be positive, got {in_dim}x{out_dim}")
        return cls(kind="linear", in_dim=in_dim, out_dim=out_dim, has_bias=has_bias)

    @classmethod
    def conv2d(cls, in_channels: int, out_channels: int, kernel_h: int,
               kernel_w: int, padding: str = "valid", has_bias: bool = True) -> "LayerSpec":
        if min(in_channels, out_channels, kernel_h, kernel_w) <= 0:
            raise ValueError("conv2d dims must be positive")
        if padding not in ("valid", "same"):
            raise ValueError(f"padding must be 'valid' or 'same', got {padding!r}")
        return cls(kind="conv2d", in_channels=in_channels, out_channels=out_channels,
                   kernel_h=kernel_h, kernel_w=kernel_w, padding=padding, has_bias=has_bias)

    @classmethod
    def relu(cls) -> "LayerSpec":
        return cls(kind="relu", has_bias=False)

    @property
    def weight_shape(self) -> tuple[int, ...] | None:
        if self.kind == "linear":
            return (self.out_dim, self.in_dim)
        if self.kind == "conv2d":
            return (self.out_channels, self.in_channels, self.kernel_h, self.kernel_w)
        return None

    @property
    def weight_size(self) -> int:
        shape = self.weight_shape
        return 0 if shape is None else int(np.prod(shape))

    @property
    def fan_in(self) -> int:
        if self.kind == "linear":
            return self.in_dim
        if self.kind == "conv2d":
            return self.in_channels * self.kernel_h * self.kernel_w
        return 0


@dataclass
class MaskedTensor:
    """A weight's two views in its `ParamStore`: `values` and a 0/1 uint8 `mask`.

    `values` is +0.0 wherever `mask` is 0: the store starts both at zero,
    and the init, the optimizer and the topology updates keep it so. Layers
    compute with `values` directly, and a checkpoint that stores only the
    active entries rebuilds the rest bit for bit (`values * mask` would
    leave -0.0 at masked negative values).
    """

    values: np.ndarray
    mask: np.ndarray

    def active_count(self) -> int:
        return int(self.mask.sum())


@dataclass
class Layer:
    spec: LayerSpec
    weight: MaskedTensor | None = None
    bias: np.ndarray | None = None


@dataclass
class LayerGrads:
    weight: np.ndarray | None = None  # every position, masked ones included
    bias: np.ndarray | None = None


@dataclass
class ParamRef:
    """A named parameter: views of its values, its mask (weights only) and
    its gradient, which start at `offset` in `store`'s flat buffers."""

    name: str
    array: np.ndarray
    mask: np.ndarray | None
    grad: np.ndarray | None = None
    offset: int = 0
    store: "ParamStore | None" = field(default=None, repr=False, compare=False)


class ParamStore:
    """Every parameter of a model in three flat buffers: `values`, a uint8
    `mask` (1 at biases) and `grad`. Groups of layers follow each other,
    each layer's weight then bias; a group stacked over M heads holds each
    parameter as one (M, ...) range. The store makes every view of the
    buffers: the layers `layers[group]`, their gradients `grads[group]`,
    the parameters `refs` (`group/layer/kind`), and per component (a plain
    group, or one head of a stacked group) its plain layers
    `components[name]` and its parameters in `records`
    (`component/layer/kind`, each a range starting at its `offset`). A
    write to any view is a write to the buffers, and back."""

    def __init__(self, groups: dict[str, tuple[list[LayerSpec], list[str] | None]],
                 dtype=np.float32):
        """groups: name -> (layer specs, the names of the components a group
        stacks, or None for plain layers that are one component)."""
        self.groups = groups
        layout = []
        for group, (specs, names) in groups.items():
            lead = () if names is None else (len(names),)
            for li, spec in enumerate(specs):
                if spec.weight_shape is not None:
                    layout.append((group, li, "weight", lead + spec.weight_shape))
                if spec.has_bias:  # one bias entry per output feature or channel
                    layout.append((group, li, "bias", lead + spec.weight_shape[:1]))
        size = sum(math.prod(shape) for *_, shape in layout)
        self.values = np.zeros(size, dtype)
        self.mask = np.ones(size, np.uint8)
        self.grad = np.zeros(size, dtype)
        self.layers = {group: [Layer(spec) for spec in specs]
                       for group, (specs, _) in groups.items()}
        self.grads = {group: [LayerGrads() for _ in specs]
                      for group, (specs, _) in groups.items()}
        self.refs: list[ParamRef] = []
        offset = 0
        for group, li, kind, shape in layout:
            end = offset + math.prod(shape)
            values, grad = (buf[offset:end].reshape(shape) for buf in (self.values, self.grad))
            layer, mask = self.layers[group][li], None
            if kind == "weight":
                mask = self.mask[offset:end].reshape(shape)
                mask[...] = 0
                layer.weight = MaskedTensor(values, mask)
            else:
                layer.bias = values
            setattr(self.grads[group][li], kind, grad)
            self.refs.append(ParamRef(f"{group}/{li}/{kind}", values, mask, grad, offset, self))
            offset = end
        self.components: dict[str, list[Layer]] = {}
        self.records: list[ParamRef] = []
        for group, (_, names) in groups.items():
            refs = [ref for ref in self.refs if ref.name.split("/")[0] == group]
            if names is None:
                self.components[group] = self.layers[group]
                self.records += refs
                continue
            for m, name in enumerate(names):
                self.components[name] = [
                    Layer(layer.spec, None if layer.weight is None else
                          MaskedTensor(layer.weight.values[m], layer.weight.mask[m]),
                          None if layer.bias is None else layer.bias[m])
                    for layer in self.layers[group]]
                self.records += [
                    ParamRef(name + ref.name.removeprefix(group), ref.array[m],
                             None if ref.mask is None else ref.mask[m], ref.grad[m],
                             ref.offset + m * ref.array[m].size, self)
                    for ref in refs]

    def astype(self, dtype) -> "ParamStore":
        """A store of the same layout holding these values, cast, and masks."""
        clone = ParamStore(self.groups, dtype)
        clone.values[...] = self.values
        clone.mask[...] = self.mask
        return clone

    def __deepcopy__(self, memo) -> "ParamStore":
        """New buffers and every view made anew over them; the layer specs,
        which nothing changes, are shared."""
        clone = self.astype(self.values.dtype)
        clone.grad[...] = self.grad
        return clone


def active_indices(mask: np.ndarray) -> np.ndarray:
    """Sorted flat indices where a 0/1 uint8 mask is 1. Read as bool in
    place, which is faster than on uint8 or on a `mask != 0` copy."""
    return mask.view(bool).ravel().nonzero()[0]


def init_layer(layer: Layer, stream: Stream) -> None:
    """Kaiming-uniform fan-in init of a layer's zeroed store views: its
    weights take one draw per position, dense, but only the draws where
    its mask is set are made into values and written; then its bias is
    drawn. A relu layer draws nothing."""
    spec = layer.spec
    if spec.kind == "relu":
        return
    values, mask = layer.weight.values, layer.weight.mask
    kept = active_indices(mask)
    draws = stream.uniforms(values.size, at=kept)
    draws *= 2.0                     # (u * 2 - 1) * bound, in place in float64
    draws -= 1.0
    draws *= math.sqrt(6.0 / spec.fan_in)
    values.reshape(-1)[kept] = draws
    if spec.has_bias:
        layer.bias[...] = (stream.uniforms(layer.bias.size) * 2.0 - 1.0) \
            * (1.0 / math.sqrt(spec.fan_in))


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------

# Bytes of im2col columns the conv forward builds at a time. One block of
# images' columns and GEMM output then stay in a core's L2 cache; a whole
# test set's do not, and cost about half again as much per image.
COLUMN_BUDGET = 1 << 20
# Each forward GEMM runs on a multiple of this many columns, zero-padded, so
# no output falls to the BLAS kernel's remainder path, which can sum a dot
# product in another order than its main path (OpenBLAS's small-matrix
# kernels do). How the images are blocked then changes no output bit.
GEMM_COLUMN_UNIT = 64


def _conv_padding(spec: LayerSpec) -> tuple[int, int, int, int]:
    if spec.padding == "valid":
        return 0, 0, 0, 0
    ph, pw = spec.kernel_h - 1, spec.kernel_w - 1
    return ph // 2, ph - ph // 2, pw // 2, pw - pw // 2


def conv_output_hw(spec: LayerSpec, h: int, w: int) -> tuple[int, int]:
    top, bottom, left, right = _conv_padding(spec)
    oh = h + top + bottom - spec.kernel_h + 1
    ow = w + left + right - spec.kernel_w + 1
    if oh <= 0 or ow <= 0:
        raise ValueError(
            f"conv2d kernel {spec.kernel_h}x{spec.kernel_w} too large for input {h}x{w}")
    return oh, ow


def _conv_columns(spec: LayerSpec, x: np.ndarray,
                  unit: int = 1) -> tuple[np.ndarray, tuple[int, ...]]:
    """Columns `(C*kh*kw, N)` of x over a channel-major zero-padded grid.

    x is laid out as `(C, B, Hp, Wp)` and flattened to `(C, B*Hp*Wp)`, so
    the input feeding grid position q at kernel offset (i, j) is
    `flat[:, q + i*Wp + j]` and each offset's row block is one contiguous
    slice. Positions q whose window wraps past a row or image edge are
    junk; outputs keep only the `[:oh, :ow]` corner of each image's grid.
    N is rounded up to a multiple of `unit` with zero columns.
    Returns the columns and `(Hp, Wp, oh, ow, N)`.
    """
    b, c, h, w = x.shape
    oh, ow = conv_output_hw(spec, h, w)
    top, bottom, left, right = _conv_padding(spec)
    kh, kw = spec.kernel_h, spec.kernel_w
    hp, wp = h + top + bottom, w + left + right
    grid = np.zeros((c, b, hp, wp), dtype=x.dtype)
    grid[:, :, top:top + h, left:left + w] = x.transpose(1, 0, 2, 3)
    flat = grid.reshape(c, -1)
    n = flat.shape[1] - (kh - 1) * wp - (kw - 1)
    width = -(-n // unit) * unit
    cols = np.empty((c, kh, kw, width), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, i, j, :n] = flat[:, i * wp + j:i * wp + j + n]
    cols[..., n:] = 0
    return cols.reshape(c * kh * kw, width), (hp, wp, oh, ow, width)


def _flat_features(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """A linear layer's input with its features flattened behind the batch
    axes: (B,) before a plain weight (out, in), (M|1, B) before a stacked one."""
    lead = w.ndim - 1
    return x.reshape(*x.shape[:lead], -1) if x.ndim > lead + 1 else x


def _one_head(layer: Layer) -> Layer:
    """A plain layer as a stacked layer of one head."""
    return Layer(layer.spec, MaskedTensor(layer.weight.values[None], layer.weight.mask[None]),
                 None if layer.bias is None else layer.bias[None])


def _one_row_guarded(a: np.ndarray) -> np.ndarray:
    """a (..., 1, K) with a zero second row, else a as it is: numpy runs a
    one-row product as gemv, whose sum order can change with its width."""
    return np.concatenate([a, np.zeros_like(a)], axis=-2) if a.shape[-2] == 1 else a


def _conv_forward(layer: Layer, x: np.ndarray) -> np.ndarray:
    """Stacked conv2d on x (M or 1, B, C, H, W), one block of images at a
    time: a block holds as many images as `COLUMN_BUDGET` bytes of columns
    fit, so its columns and GEMM output stay in cache. Columns are built
    once per block and input, and the heads that read one input run as one
    GEMM of their stacked (M*O, C*kh*kw) kernels over them."""
    spec, w, bias = layer.spec, layer.weight.values, layer.bias
    heads, o = w.shape[:2]
    b, _, h, wd = x.shape[1:]
    oh, ow = conv_output_hw(spec, h, wd)
    top, bottom, left, right = _conv_padding(spec)
    hp, wp = h + top + bottom, wd + left + right
    fit = COLUMN_BUDGET // (w[0, 0].size * x.itemsize) // GEMM_COLUMN_UNIT * GEMM_COLUMN_UNIT
    block = max(1, min(b, fit // (hp * wp)))  # padded columns of `block` images fit too
    group = heads // len(x)  # the heads that read each input
    kernels = _one_row_guarded(w.reshape(len(x), group * o, -1))
    out = np.empty((heads, b, o, oh, ow), dtype=x.dtype)
    y = np.empty((kernels.shape[1], block * hp * wp + GEMM_COLUMN_UNIT), dtype=x.dtype)
    for s in range(0, b, block):
        e = min(s + block, b)
        for g in range(len(x)):
            cols = None  # frees the previous input's columns before the next build
            cols, (_, _, _, _, n) = _conv_columns(spec, x[g, s:e], GEMM_COLUMN_UNIT)
            np.matmul(kernels[g], cols, out=y[:, :n])
            grid = y[:group * o, :(e - s) * hp * wp].reshape(group, o, e - s, hp, wp)[
                ..., :oh, :ow].transpose(0, 2, 1, 3, 4)
            readers = slice(g * group, (g + 1) * group)
            if bias is None:
                out[readers, s:e] = grid
            else:
                np.add(grid, bias[readers, None, :, None, None], out=out[readers, s:e])
    return out


def layer_forward(layer: Layer, x: np.ndarray) -> np.ndarray:
    spec = layer.spec
    if spec.kind == "relu":
        return np.maximum(x, 0)
    w = layer.weight.values

    if spec.kind == "linear":
        x2 = _flat_features(x, w)
        if x2.ndim != w.ndim or x2.shape[-1] != spec.in_dim:
            raise ValueError(
                f"linear layer expects {spec.in_dim} input features, "
                f"got input shape {x.shape}")
        y = x2 @ w.swapaxes(-1, -2)
        if layer.bias is not None:
            y += layer.bias[..., None, :]
        return y

    if spec.kind == "conv2d":
        if x.ndim != w.ndim or x.shape[-3] != spec.in_channels:
            raise ValueError(
                f"conv2d layer expects ({'B' if w.ndim == 4 else 'M|1, B'}, "
                f"{spec.in_channels}, H, W), got input shape {x.shape}")
        if w.ndim == 5:
            return _conv_forward(layer, x)
        return _conv_forward(_one_head(layer), x[None])[0]

    raise ValueError(f"unknown layer kind {spec.kind!r}")


def stack_forward(layers: list[Layer], x: np.ndarray,
                  record: bool = False) -> tuple[np.ndarray, list[np.ndarray] | None]:
    """Run a layer sequence; with record=True also return per-layer inputs."""
    tape = [] if record else None
    for layer in layers:
        if record:
            tape.append(x)
        x = layer_forward(layer, x)
    return x, tape


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------

def _over_classes(ufunc: np.ufunc, a: np.ndarray) -> np.ndarray:
    """`ufunc.reduce(a, axis=-1, keepdims=True)`, bit for bit. Below 8 classes
    it runs as one call per class column, in the order numpy's reduction
    uses there, instead of a tiny inner loop per row; from 8 on numpy sums
    in unrolled blocks, so the reduction itself is kept."""
    if a.shape[-1] >= 8:
        return ufunc.reduce(a, axis=-1, keepdims=True)
    out = a[..., :1]
    for j in range(1, a.shape[-1]):
        out = ufunc(out, a[..., j:j + 1])
    return out


def softmax(logits: np.ndarray) -> np.ndarray:
    e = np.exp(logits - _over_classes(np.maximum, logits))
    return e / _over_classes(np.add, e)


def loss_forward(logits: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean cross-entropy over the batch of logits (..., B, C), per leading
    index; returns (losses, softmax probs). `targets` broadcasts to (..., B).
    Target log-probabilities are picked by one flat index and the mean is
    numpy's own: a sum over the batch axis, then one division by B."""
    if logits.ndim < 2:
        raise ValueError(f"logits must be (..., batch, classes), got shape {logits.shape}")
    classes = logits.shape[-1]
    targets = np.asarray(targets)
    if targets.size:
        low, high = np.minimum.reduce(targets, axis=None), np.maximum.reduce(targets, axis=None)
        if low < 0 or high >= classes:
            raise ValueError(f"target out of range [0, {classes}): min={low}, max={high}")
    shifted = logits - _over_classes(np.maximum, logits)
    e = np.exp(shifted)
    probs = e / _over_classes(np.add, e)
    # loss reduction in float64 so the scalar is accurate even when a float32
    # probability rounds to 1 (a second exp: summing `e` would change bits)
    shifted = shifted.astype(np.float64)
    log_z = np.log(_over_classes(np.add, np.exp(shifted)))[..., 0]
    picks = np.arange(0, shifted.size, classes).reshape(log_z.shape) + targets
    if picks.shape != log_z.shape:
        raise ValueError(f"targets of shape {targets.shape} do not broadcast to "
                         f"{log_z.shape}")
    log_p = shifted.reshape(-1)[picks] - log_z
    return -(np.add.reduce(log_p, axis=-1) / logits.shape[-2]), probs


def loss_backward(probs: np.ndarray, targets: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """Gradient of scale * mean-CE with respect to the logits (..., B, C)."""
    d = probs - (np.asarray(targets)[..., None] == np.arange(probs.shape[-1]))
    d *= np.asarray(scale / probs.shape[-2], dtype=probs.dtype)
    return d


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------

def _fold(dx: np.ndarray, x: np.ndarray) -> np.ndarray:
    """dx in x's shape; heads that read one shared x add their gradients in head order."""
    if len(dx) != len(x):
        total = dx[0]
        for part in dx[1:]:
            total = total + part
        dx = total[None]
    return dx.reshape(x.shape)


def _conv_backward(layer: Layer, x: np.ndarray, d_out: np.ndarray,
                   grads: LayerGrads, input_grad: bool = True) -> np.ndarray | None:
    """Stacked conv2d gradients for x (M or 1, B, C, H, W), d_out (M, B, O, oh, ow):
    dW and db go into `grads`, dx is returned, or None without `input_grad`.
    Each head's dW is one product over the whole batch, as splitting it
    would move its sum order. dx is built one kernel offset (i, j) at a
    time, a (C, O) @ (O, N) product added into the padded grid's gradient
    at that offset's shift, in the bits of one (C*kh*kw, O) @ (O, N)
    product folded back by col2im; one input channel gets a zero second
    row, as in `_conv_forward`, unless the kernel is 1x1. Heads that read
    one input add their dx in head order."""
    spec, w = layer.spec, layer.weight.values
    heads, o, c, kh, kw = w.shape
    b, _, h, wd = x.shape[1:]
    oh, ow = conv_output_hw(spec, h, wd)
    top, bottom, left, right = _conv_padding(spec)
    hp, wp = h + top + bottom, wd + left + right
    n = b * hp * wp - (kh - 1) * wp - (kw - 1)
    # zeros at the junk grid positions keep them out of dW and dx
    d_grid = np.zeros((heads, o, b, hp, wp), dtype=d_out.dtype)
    d_grid[..., :oh, :ow] = d_out.transpose(0, 2, 1, 3, 4)
    d2 = d_grid.reshape(heads, o, -1)[..., :n]
    dw, db = grads.weight, grads.bias
    for m in range(heads):
        if m < len(x):
            cols = None
            cols, _ = _conv_columns(spec, x[m])
        # (cols @ d2.T).T runs ~1.8x faster than d2 @ cols.T with few output channels
        dw[m] = (cols @ d2[m].T).T.reshape(w.shape[1:])
        if db is not None:
            db[m] = np.add.reduce(d_out[m].reshape(b, o, -1), axis=(0, 2))
    del cols
    if not input_grad:
        return None
    # taps[m, i, j] is offset (i, j)'s (C, O) kernel slice, the transpose of a
    # contiguous (O, C) block, as the whole kernel's (C*kh*kw, O) would be
    taps = np.ascontiguousarray(w.transpose(0, 3, 4, 1, 2)).swapaxes(-1, -2)
    if c == 1 < kh * kw:  # one row per tap, where the whole kernel's product has several
        taps = _one_row_guarded(taps)
    tap = np.empty((taps.shape[-2], n), dtype=d_out.dtype)
    d_flat = np.empty((c, b * hp * wp), dtype=d_out.dtype)
    dx = np.empty((len(x), b, c, h, wd), dtype=d_out.dtype)
    for m in range(heads):
        d_flat[...] = 0
        for i in range(kh):
            for j in range(kw):
                np.matmul(taps[m, i, j], d2[m], out=tap)
                d_flat[:, i * wp + j:i * wp + j + n] += tap[:c]
        head = d_flat.reshape(c, b, hp, wp)[:, :, top:top + h, left:left + wd] \
            .transpose(1, 0, 2, 3)
        if m < len(x):
            dx[m] = head
        else:
            dx[0] += head
    return dx


def _layer_backward(layer: Layer, x: np.ndarray, d_out: np.ndarray, out: LayerGrads | None,
                    input_grad: bool = True) -> tuple[LayerGrads, np.ndarray | None]:
    """A layer's gradients, written into `out` if given, and its input
    gradient, or None without `input_grad`."""
    spec = layer.spec
    if spec.kind == "relu":
        return LayerGrads(), _fold(d_out * (x > 0), x) if input_grad else None
    w = layer.weight.values
    grads = out if out is not None else LayerGrads(
        np.empty(w.shape, d_out.dtype),
        None if layer.bias is None else np.empty(layer.bias.shape, d_out.dtype))

    if spec.kind == "linear":
        np.matmul(d_out.swapaxes(-1, -2), _flat_features(x, w), out=grads.weight)
        if grads.bias is not None:
            np.add.reduce(d_out, axis=-2, out=grads.bias)
        return grads, _fold(d_out @ w, x) if input_grad else None

    if spec.kind == "conv2d":
        if w.ndim == 5:
            return grads, _conv_backward(layer, x, d_out, grads, input_grad)
        one = LayerGrads(*(g if g is None else g[None] for g in (grads.weight, grads.bias)))
        dx = _conv_backward(_one_head(layer), x[None], d_out[None], one, input_grad)
        return grads, None if dx is None else dx[0]

    raise ValueError(f"unknown layer kind {spec.kind!r}")


def stack_backward(layers: list[Layer], tape: list[np.ndarray] | None,
                   d_out: np.ndarray | None, dense: bool = False,
                   out: list[LayerGrads] | None = None,
                   input_grad: bool = True) -> tuple[list[LayerGrads], np.ndarray | None]:
    """Backprop through a recorded stack_forward pass.

    Returns per-layer gradients plus the gradient with respect to the stack
    input; with `input_grad=False` the first layer does not compute it and
    None is returned in its place (an empty stack returns `d_out` as it is).
    Each weight gradient covers every position, masked ones included:
    the optimizer reads the active entries and RigL growth the rest. With
    `out` (per layer, such as `ParamStore.grads[group]`) the gradients are
    written there and returned as those views. `dense` is accepted for older
    callers and ignored.
    """
    if tape is None:
        raise ValueError("backward requires a recorded forward pass (record=True)")
    if len(tape) != len(layers):
        raise ValueError(f"tape length {len(tape)} != layer count {len(layers)}")
    grads = [None] * len(layers)
    for i in range(len(layers) - 1, -1, -1):
        grads[i], d_out = _layer_backward(layers[i], tape[i], d_out,
                                          None if out is None else out[i], input_grad or i > 0)
    return grads, d_out
