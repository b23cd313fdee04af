import ctypes

import numpy as np
import pytest

from sparsetrails.nn import Layer, LayerSpec, MaskedTensor, ParamStore, init_layer
from sparsetrails.rng import Stream
from sparsetrails.sparsity import allocate, init_masks
from sparsetrails.train import Optimizer

from oracles import dense_state

# the tests read the compact optimizer's slots as dense arrays per parameter
Optimizer.state = property(dense_state)


def relative_errors(a: np.ndarray, b: np.ndarray, floor: float = 1e-2) -> np.ndarray:
    """Elementwise |a - b| / max(|a|, |b|, floor); the floor turns the
    comparison into an absolute tolerance for near-zero gradients."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)


def max_relative_error(a: np.ndarray, b: np.ndarray, floor: float = 1e-2) -> float:
    errors = relative_errors(a, b, floor)
    return float(errors.max()) if errors.size else 0.0


def masked(values: np.ndarray, mask) -> MaskedTensor:
    """A weight as a parameter store keeps it: a uint8 mask, and values
    that are +0.0 wherever the mask is 0."""
    mask = np.array(mask, dtype=np.uint8)
    return MaskedTensor(values=np.where(mask, values, 0), mask=mask)


def make_linear(values, mask=None, bias=None) -> Layer:
    values = np.asarray(values, dtype=np.float32)
    out_dim, in_dim = values.shape
    spec = LayerSpec.linear(in_dim, out_dim, has_bias=bias is not None)
    if mask is None:
        mask = np.ones_like(values)
    layer = Layer(spec=spec, weight=masked(values, mask))
    if bias is not None:
        layer.bias = np.asarray(bias, dtype=np.float32)
    return layer


def standalone_layer(spec: LayerSpec, stream: Stream, mask=None) -> Layer:
    """One layer initialised the model's way: the zeroed views of a one-layer
    parameter store, its mask set (all ones, or `mask`), then `init_layer`."""
    layer = ParamStore({"layer": ([spec], None)}).layers["layer"][0]
    if layer.weight is not None:
        layer.weight.mask[...] = 1 if mask is None else mask
    init_layer(layer, stream)
    return layer


def random_stack(stream: Stream, kind: str = "mlp", sparsity: float = 0.0):
    """Small random layer stack + matching input, for gradient checks."""
    if kind == "mlp":
        dims = [2 + stream.randbelow(4) for _ in range(4)]
        specs = []
        for a, b in zip(dims, dims[1:]):
            specs.append(LayerSpec.linear(a, b, has_bias=stream.random() < 0.7))
            specs.append(LayerSpec.relu())
        specs.append(LayerSpec.linear(dims[-1], 3))
        in_shape = (dims[0],)
    else:
        c = 1 + stream.randbelow(2)
        h = w = 5 + stream.randbelow(3)
        mid = 2 + stream.randbelow(2)
        k = 2 + stream.randbelow(2)
        pad = "same" if stream.random() < 0.5 else "valid"
        specs = [LayerSpec.conv2d(c, mid, k, k, padding=pad), LayerSpec.relu()]
        from sparsetrails.model import activation_shape
        shape = activation_shape(specs[0], (c, h, w))
        specs.append(LayerSpec.linear(int(np.prod(shape)), 3))
        in_shape = (c, h, w)

    plan = allocate(specs, sparsity, "uniform") if sparsity > 0 else None
    masks = {}
    if plan is not None:
        masks = {i: np.zeros(specs[i].weight_shape, np.uint8) for i in plan.layer_indices}
        init_masks(plan, list(masks.values()), [stream.child("m", i)
                                                for i in plan.layer_indices])
    layers = [standalone_layer(s, stream.child("w", i), masks.get(i))
              for i, s in enumerate(specs)]
    batch = 1 + stream.randbelow(3)
    x = np.asarray([[stream.normal() for _ in range(int(np.prod(in_shape)))]
                    for _ in range(batch)], dtype=np.float32).reshape(batch, *in_shape)
    targets = np.asarray([stream.randbelow(3) for _ in range(batch)], dtype=np.int64)
    return layers, x, targets


def relu_kink_margin(layers, x) -> float:
    """Smallest |pre-activation| feeding a relu; finite differences are only
    a valid oracle when perturbations cannot cross the kink at zero."""
    from sparsetrails.nn import stack_forward
    _, tape = stack_forward(layers, x, record=True)
    margins = [np.abs(tape[i]).min() for i, l in enumerate(layers)
               if l.spec.kind == "relu" and tape[i].size]
    return float(min(margins)) if margins else np.inf


def gradcheck_stack(seed_stream, kind, sparsity, min_margin=1e-3):
    """Random stack + input resampled until clear of relu kinks."""
    for attempt in range(50):
        layers, x, targets = random_stack(seed_stream.child(attempt), kind, sparsity)
        if relu_kink_margin(layers, x) > min_margin:
            return layers, x, targets
    raise AssertionError("could not sample a kink-free model")


@pytest.fixture
def stream():
    return Stream(2024)


def openblas_threads():
    """Getter and setter of the thread count of numpy's bundled OpenBLAS, or
    (None, None) when that library is not loaded."""
    with open("/proc/self/maps") as f:
        libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        if hasattr(lib, "scipy_openblas_get_num_threads64_"):
            get, put = lib.scipy_openblas_get_num_threads64_, \
                lib.scipy_openblas_set_num_threads64_
            get.restype, put.argtypes, put.restype = ctypes.c_int, [ctypes.c_int], None
            return get, put
    return None, None


BLAS_THREADS = openblas_threads()


@pytest.fixture(autouse=True)
def blas_threads_restored():
    """`cli.main` pins BLAS to one thread; later tests run with the count they had."""
    get, put = BLAS_THREADS
    before = get() if get else None
    yield
    if put:
        put(before)
