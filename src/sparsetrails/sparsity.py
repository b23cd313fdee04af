"""Global-to-layerwise sparsity allocation and deterministic mask initialization.

Three allocation modes over the maskable layers (weight matrices and conv
kernels; biases are always dense):

* uniform: every layer gets density 1 - S.
* er:      density proportional to (fan_in + fan_out) / (fan_in * fan_out),
           using channel counts for conv layers.
* erk:     like er, but conv layers use
           (c_in + c_out + kh + kw) / (c_in * c_out * kh * kw).

The proportionality constant is solved so the global active count matches
(1 - S) of the total exactly. Layers whose solved density would exceed 1
are pinned dense and the constant is re-solved over the rest. Real-valued
budgets are rounded with largest-remainder so the global total is an
exact integer.
"""

from dataclasses import dataclass

import numpy as np

from .nn import LayerSpec
from .rng import Stream


def round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def density_factor(spec: LayerSpec, mode: str) -> float:
    """Relative density factor for one layer under er/erk allocation."""
    if spec.kind == "linear":
        n, k = spec.in_dim, spec.out_dim
        return (n + k) / (n * k)
    if spec.kind == "conv2d":
        c_in, c_out = spec.in_channels, spec.out_channels
        if mode == "erk":
            kh, kw = spec.kernel_h, spec.kernel_w
            return (c_in + c_out + kh + kw) / (c_in * c_out * kh * kw)
        return (c_in + c_out) / (c_in * c_out)
    raise ValueError(f"layer kind {spec.kind!r} has no maskable weights")


@dataclass
class SparsityPlan:
    global_sparsity: float
    mode: str
    layer_indices: list[int]     # positions of maskable layers in the layer list
    layer_sizes: list[int]
    densities: list[float]
    budgets: list[int]


def _solve_densities(factors: list[float], sizes: list[int], target: float) -> list[float]:
    n = len(factors)
    pinned = [False] * n
    eps = 0.0
    for _ in range(n + 1):
        free = [i for i in range(n) if not pinned[i]]
        remaining = target - sum(sizes[i] for i in range(n) if pinned[i])
        if remaining < -1e-9:
            raise ValueError(
                "sparsity allocation infeasible: dense-pinned layers exceed the budget")
        if not free:
            if remaining > 1e-9:
                raise ValueError(
                    "sparsity allocation infeasible: all layers pinned dense, budget unmet")
            break
        denom = sum(factors[i] * sizes[i] for i in free)
        eps = remaining / denom
        violators = [i for i in free if eps * factors[i] >= 1.0]
        if not violators:
            break
        for i in violators:
            pinned[i] = True
    return [1.0 if pinned[i] else eps * factors[i] for i in range(n)]


def _largest_remainder(reals: list[float], sizes: list[int], total: int) -> list[int]:
    floors = [min(int(np.floor(r)), s) for r, s in zip(reals, sizes)]
    leftover = total - sum(floors)
    if leftover < 0:
        raise ValueError("integer budget rounding underflow")
    fracs = sorted(range(len(reals)),
                   key=lambda i: (-(reals[i] - np.floor(reals[i])), i))
    budgets = list(floors)
    for i in fracs:
        if leftover == 0:
            break
        if budgets[i] < sizes[i]:
            budgets[i] += 1
            leftover -= 1
    if leftover != 0:
        raise ValueError("integer budget rounding could not reach the global total")
    return budgets


def allocate(specs: list[LayerSpec], sparsity: float, mode: str) -> SparsityPlan:
    """Distribute a global sparsity ratio into per-layer densities and budgets."""
    if not 0.0 <= sparsity < 1.0:
        raise ValueError(f"sparsity must be in [0, 1), got {sparsity}")
    if mode not in ("uniform", "er", "erk"):
        raise ValueError(f"unknown allocation mode {mode!r}")
    indices = [i for i, s in enumerate(specs) if s.weight_size > 0]
    if not indices:
        raise ValueError("no maskable layers to allocate over")
    sizes = [specs[i].weight_size for i in indices]
    total = sum(sizes)
    target_real = (1.0 - sparsity) * total

    if mode == "uniform":
        densities = [1.0 - sparsity] * len(indices)
    else:
        factors = [density_factor(specs[i], mode) for i in indices]
        densities = _solve_densities(factors, sizes, target_real)

    reals = [d * s for d, s in zip(densities, sizes)]
    budgets = _largest_remainder(reals, sizes, round_half_up(target_real))
    return SparsityPlan(global_sparsity=sparsity, mode=mode, layer_indices=indices,
                        layer_sizes=sizes, densities=densities, budgets=budgets)


def init_masks(plan: SparsityPlan, masks: list[np.ndarray], streams: list[Stream]) -> None:
    """Set each maskable layer's budget of positions to 1 in its zeroed mask,
    chosen uniformly without replacement from the layer's own stream; `masks`
    and `streams` follow `plan.layer_indices`."""
    if len(streams) != len(plan.layer_indices):
        raise ValueError("one stream per maskable layer required")
    for mask, budget, stream in zip(masks, plan.budgets, streams, strict=True):
        if not 0 <= budget <= mask.size:
            raise ValueError(f"budget {budget} out of range for layer of size {mask.size}")
        mask.reshape(-1)[stream.choice_without_replacement(mask.size, budget)] = 1
