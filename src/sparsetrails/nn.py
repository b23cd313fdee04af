"""Forward/backward engine over dense float32 arrays with mask-aware weights.

Supported layers: linear, conv2d (stride 1, "valid"/"same" zero padding)
and relu. A weight tensor always travels with a binary mask of the same
shape (`MaskedTensor`); positions with mask 0 hold the exact value 0.0 and
stay that way through every forward, backward and optimizer step. Biases
are dense and never masked.

The math is dtype-following: arrays produced by a layer keep the dtype of
its inputs, which lets the finite-difference oracle run the same code in
float64 while training runs in float32.
"""

import math
from dataclasses import dataclass

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
    """A weight array paired with a same-shape binary mask.

    `values` is +0.0 wherever `mask` is 0: the constructor enforces it and
    the optimizer and topology updates keep it, so layers compute with
    `values` directly, and a checkpoint that stores only the active
    entries rebuilds the rest bit for bit (`values * mask` would leave
    -0.0 at masked negative values).
    """

    values: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        if self.values.shape != self.mask.shape:
            raise ValueError(
                f"mask shape {self.mask.shape} != values shape {self.values.shape}")
        if not np.isin(self.mask, (0, 1)).all():
            raise ValueError("mask entries must be 0 or 1")
        self.mask = self.mask.astype(np.uint8)
        self.values = np.where(self.mask, self.values, 0)

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


def init_layer(spec: LayerSpec, stream: Stream, mask: np.ndarray | None = None) -> Layer:
    """Kaiming-uniform fan-in init (drawn dense), then the mask zeroes inactive slots."""
    if spec.kind == "relu":
        return Layer(spec=spec)
    shape = spec.weight_shape
    bound = math.sqrt(6.0 / spec.fan_in)
    flat = stream.uniforms(int(np.prod(shape)))
    values = ((flat * 2.0 - 1.0) * bound).astype(np.float32).reshape(shape)
    if mask is None:
        mask = np.ones(shape, dtype=np.uint8)
    weight = MaskedTensor(values=values, mask=mask.reshape(shape))
    bias = None
    if spec.has_bias:
        out = spec.out_dim if spec.kind == "linear" else spec.out_channels
        b_bound = 1.0 / math.sqrt(spec.fan_in)
        bias = ((stream.uniforms(out) * 2.0 - 1.0) * b_bound).astype(np.float32)
    return Layer(spec=spec, weight=weight, bias=bias)


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------

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


def _conv_columns(spec: LayerSpec, x: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
    """Columns `(C*kh*kw, N)` of x over a channel-major zero-padded grid.

    x is laid out as `(C, B, Hp, Wp)` and flattened to `(C, B*Hp*Wp)`, so
    the input feeding grid position q at kernel offset (i, j) is
    `flat[:, q + i*Wp + j]` and each offset's row block is one contiguous
    slice. Positions q whose window wraps past a row or image edge are
    junk; outputs keep only the `[:oh, :ow]` corner of each image's grid.
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
    cols = np.empty((c, kh, kw, n), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, i, j] = flat[:, i * wp + j:i * wp + j + n]
    return cols.reshape(c * kh * kw, n), (hp, wp, oh, ow, n)


def layer_forward(layer: Layer, x: np.ndarray) -> np.ndarray:
    spec = layer.spec
    if spec.kind == "relu":
        return np.maximum(x, 0)

    if spec.kind == "linear":
        x2 = x.reshape(x.shape[0], -1) if x.ndim > 2 else x
        if x2.ndim != 2 or x2.shape[1] != spec.in_dim:
            raise ValueError(
                f"linear layer expects {spec.in_dim} input features, "
                f"got input shape {x.shape}")
        y = x2 @ layer.weight.values.T
        if layer.bias is not None:
            y = y + layer.bias
        return y

    if spec.kind == "conv2d":
        if x.ndim != 4 or x.shape[1] != spec.in_channels:
            raise ValueError(
                f"conv2d layer expects (B, {spec.in_channels}, H, W), "
                f"got input shape {x.shape}")
        cols, (hp, wp, oh, ow, n) = _conv_columns(spec, x)
        b, o = x.shape[0], spec.out_channels
        y = np.empty((o, b * hp * wp), dtype=x.dtype)
        np.matmul(layer.weight.values.reshape(o, -1), cols, out=y[:, :n])
        del cols  # freed before the next large buffer: fewer heap page faults per step
        y = y.reshape(o, b, hp, wp)[:, :, :oh, :ow].transpose(1, 0, 2, 3)
        out = np.empty((b, o, oh, ow), dtype=x.dtype)
        if layer.bias is None:
            out[...] = y
        else:
            np.add(y, layer.bias[:, None, None], out=out)
        return out

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

def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def loss_forward(logits: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over the batch; returns (loss, per-row softmax probs)."""
    if logits.ndim != 2:
        raise ValueError(f"logits must be 2-D (batch, classes), got shape {logits.shape}")
    targets = np.asarray(targets)
    if targets.shape != (logits.shape[0],):
        raise ValueError(
            f"targets shape {targets.shape} does not match batch size {logits.shape[0]}")
    if targets.size and (targets.min() < 0 or targets.max() >= logits.shape[1]):
        raise ValueError(
            f"target out of range [0, {logits.shape[1]}): min={targets.min()}, "
            f"max={targets.max()}")
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    probs = e / e.sum(axis=1, keepdims=True)
    # loss reduction in float64 so the scalar is accurate even when a float32
    # probability rounds to 1 (a second exp: summing `e` would change bits)
    shifted = shifted.astype(np.float64)
    log_z = np.log(np.exp(shifted).sum(axis=1))
    log_p = shifted[np.arange(len(targets)), targets] - log_z
    return float(-log_p.mean()), probs


def loss_backward(probs: np.ndarray, targets: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """Gradient of scale * mean-CE with respect to the logits."""
    d = probs.astype(probs.dtype, copy=True)
    d[np.arange(len(targets)), targets] -= 1
    return d * np.asarray(scale / len(targets), dtype=probs.dtype)


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------

def _layer_backward(layer: Layer, x: np.ndarray,
                    d_out: np.ndarray) -> tuple[LayerGrads, np.ndarray]:
    spec = layer.spec
    if spec.kind == "relu":
        return LayerGrads(), d_out * (x > 0)

    if spec.kind == "linear":
        orig_shape = x.shape
        x2 = x.reshape(x.shape[0], -1) if x.ndim > 2 else x
        dw = d_out.T @ x2
        db = d_out.sum(axis=0) if layer.bias is not None else None
        dx = d_out @ layer.weight.values
        return LayerGrads(weight=dw, bias=db), dx.reshape(orig_shape)

    if spec.kind == "conv2d":
        b, c, h, w = x.shape
        o, kh, kw = spec.out_channels, spec.kernel_h, spec.kernel_w
        top, _, left, _ = _conv_padding(spec)
        cols, (hp, wp, oh, ow, n) = _conv_columns(spec, x)
        # zeros at the junk grid positions keep them out of dW and dx
        d_grid = np.zeros((o, b, hp, wp), dtype=d_out.dtype)
        d_grid[:, :, :oh, :ow] = d_out.transpose(1, 0, 2, 3)
        d2 = d_grid.reshape(o, -1)[:, :n]
        # (cols @ d2.T).T runs ~1.8x faster than d2 @ cols.T with few output channels
        dw = (cols @ d2.T).T.reshape(layer.weight.values.shape)
        del cols
        db = d_out.reshape(b, o, -1).sum(axis=(0, 2)) if layer.bias is not None else None
        dcols = (layer.weight.values.reshape(o, -1).T @ d2).reshape(c, kh * kw, n)
        d_flat = np.zeros((c, b * hp * wp), dtype=d_out.dtype)
        for i in range(kh):
            for j in range(kw):
                d_flat[:, i * wp + j:i * wp + j + n] += dcols[:, i * kw + j]
        dx = d_flat.reshape(c, b, hp, wp)[:, :, top:top + h, left:left + w]
        return LayerGrads(weight=dw, bias=db), np.ascontiguousarray(dx.transpose(1, 0, 2, 3))

    raise ValueError(f"unknown layer kind {spec.kind!r}")


def stack_backward(layers: list[Layer], tape: list[np.ndarray] | None,
                   d_out: np.ndarray,
                   dense: bool = False) -> tuple[list[LayerGrads], np.ndarray]:
    """Backprop through a recorded stack_forward pass.

    Returns per-layer gradients plus the gradient with respect to the stack
    input. Each weight gradient covers every position, masked ones included:
    the optimizer reads the active entries and RigL growth the rest. `dense`
    is accepted for older callers and ignored.
    """
    if tape is None:
        raise ValueError("backward requires a recorded forward pass (record=True)")
    if len(tape) != len(layers):
        raise ValueError(f"tape length {len(tape)} != layer count {len(layers)}")
    grads = [None] * len(layers)
    for i in range(len(layers) - 1, -1, -1):
        grads[i], d_out = _layer_backward(layers[i], tape[i], d_out)
    return grads, d_out
