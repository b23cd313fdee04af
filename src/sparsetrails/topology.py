"""Mask evolution during training: prune/grow selection and update schedules.

Strategies:

* static:         masks never change after initialization.
* prune_oneshot:  train dense, apply one global magnitude prune at a
                  configured point, then fine-tune with frozen masks.
* set:            prune low-magnitude weights, regrow uniformly at random.
* rigl:           prune low-magnitude weights, regrow where the dense
                  gradient magnitude is largest.

Every dynamic update prunes and regrows the same number of positions per
layer, so per-layer density is conserved exactly. The drop fraction
follows a cosine decay from its initial value to zero over the training
horizon. Pruning can be deterministic (bottom-k magnitude) or stochastic
(soft magnitude: Boltzmann weights over mean-normalized magnitudes at a
temperature, sampled without replacement via Gumbel-top-k).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .nn import MaskedTensor
from .rng import Stream
from .sparsity import round_half_up

STRATEGIES = ("static", "prune_oneshot", "set", "rigl")
PRUNE_METHODS = ("magnitude", "soft_magnitude")


@dataclass
class TopologySchedule:
    strategy: str = "rigl"
    prune_method: str = "magnitude"
    soft_temperature: float = 3.0
    normalize_by_mean: bool = True
    delta_t: int = 100
    initial_drop_fraction: float = 0.5
    horizon: int = 0
    stop_fraction: float = 0.0
    prune_at_fraction: float = 0.5  # prune_oneshot: fraction of training spent dense

    def validate(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.prune_method not in PRUNE_METHODS:
            raise ValueError(f"unknown prune method {self.prune_method!r}")
        if self.delta_t < 1:
            raise ValueError(f"delta_t must be >= 1, got {self.delta_t}")
        if not 0.0 < self.initial_drop_fraction <= 1.0:
            raise ValueError(
                f"initial_drop_fraction must be in (0, 1], got {self.initial_drop_fraction}")
        if self.prune_method == "soft_magnitude" and self.soft_temperature <= 0:
            raise ValueError("soft_temperature must be positive")
        if not 0.0 <= self.stop_fraction < 1.0:
            raise ValueError(f"stop_fraction must be in [0, 1), got {self.stop_fraction}")
        if not 0.0 < self.prune_at_fraction < 1.0:
            raise ValueError(
                f"prune_at_fraction must be in (0, 1), got {self.prune_at_fraction}")

    def is_update_step(self, t: int) -> bool:
        if self.strategy not in ("set", "rigl"):
            return False
        if t < 1 or t % self.delta_t != 0:
            return False
        return t <= round_half_up((1.0 - self.stop_fraction) * self.horizon)


@dataclass
class LayerUpdate:
    layer: int
    pruned: list[int]
    grown: list[int]
    active_before: int
    active_after: int


@dataclass
class UpdateRecord:
    step: int
    component: str
    layers: list[LayerUpdate] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "step": self.step,
            "component": self.component,
            "layers": [
                {"layer": u.layer, "pruned": u.pruned, "grown": u.grown,
                 "active_before": u.active_before, "active_after": u.active_after}
                for u in self.layers
            ],
        }


def drop_fraction(t: int, horizon: int, p0: float) -> float:
    """Cosine-annealed drop fraction: p0 at t=0, zero at t=horizon."""
    if not 0 <= t <= horizon:
        raise ValueError(f"step {t} outside training horizon [0, {horizon}]")
    return p0 * (1.0 + math.cos(math.pi * t / horizon)) / 2.0


def select_prune(weights: MaskedTensor, k: int, method: str = "magnitude", *,
                 temperature: float = 3.0, normalize_by_mean: bool = True,
                 stream: Stream | None = None) -> np.ndarray:
    """Flat indices of k active positions to prune, sorted ascending.

    magnitude: the k smallest |theta| among active positions, ties broken
    by ascending flat index. soft_magnitude: sample k active positions
    without replacement with weight proportional to exp(-|theta| / (tau * mu)),
    mu being the mean active |theta| (Gumbel-top-k over the log-weights).
    """
    active = np.flatnonzero(weights.mask.reshape(-1))
    if k > active.size:
        raise ValueError(f"cannot prune {k} of {active.size} active weights")
    if k == 0:
        return np.empty(0, dtype=np.int64)
    magnitudes = np.abs(weights.values.reshape(-1)[active]).astype(np.float64)

    if method == "magnitude":
        order = np.argsort(magnitudes, kind="stable")
    elif method == "soft_magnitude":
        if stream is None:
            raise ValueError("soft_magnitude pruning requires a random stream")
        mu = float(magnitudes.mean())
        if normalize_by_mean and mu > 0.0:
            log_w = -magnitudes / (temperature * mu)
        elif not normalize_by_mean:
            log_w = -magnitudes / temperature
        else:
            log_w = np.zeros_like(magnitudes)  # mu == 0 degenerates to uniform
        keys = log_w + stream.gumbels(magnitudes.size)
        order = np.argsort(-keys, kind="stable")
    else:
        raise ValueError(f"unknown prune method {method!r}")
    return np.sort(active[order[:k]])


def select_grow(mask: np.ndarray, k: int, method: str,
                dense_grad: np.ndarray | None = None,
                stream: Stream | None = None) -> np.ndarray:
    """Flat indices of k inactive positions to activate, sorted ascending."""
    inactive = np.flatnonzero(mask.reshape(-1) == 0)
    if k > inactive.size:
        raise ValueError(f"cannot grow {k} of {inactive.size} inactive positions")
    if k == 0:
        return np.empty(0, dtype=np.int64)
    if method == "random":
        if stream is None:
            raise ValueError("random growth requires a random stream")
        picks = stream.choice_without_replacement(inactive.size, k)
        return np.sort(inactive[picks])
    if method == "gradient":
        if dense_grad is None:
            raise ValueError("gradient growth requires dense gradients")
        g = np.abs(dense_grad.reshape(-1)[inactive]).astype(np.float64)
        order = np.argsort(-g, kind="stable")  # ties resolve to ascending flat index
        return np.sort(inactive[order[:k]])
    raise ValueError(f"unknown grow method {method!r}")


def topology_update(masked_layers: list[tuple[int, MaskedTensor]],
                    schedule: TopologySchedule, t: int, *,
                    component: str = "",
                    streams: dict[int, Stream] | None = None,
                    dense_grads: dict[int, np.ndarray] | None = None,
                    on_change=None) -> UpdateRecord:
    """One prune/regrow pass over a component's maskable layers.

    Per layer, k = round(p(t) * active) positions are pruned and the same
    number regrown (weights initialized to 0). `on_change(layer, indices)`
    is invoked with the union of pruned and grown flat indices so the
    caller can reset optimizer state there. Mutates masks and values in
    place; returns the record of what changed.
    """
    if schedule.strategy not in ("set", "rigl"):
        raise ValueError(f"topology updates not defined for strategy {schedule.strategy!r}")
    if t % schedule.delta_t != 0:
        raise ValueError(f"step {t} is off the update schedule (delta_t={schedule.delta_t})")
    p_t = drop_fraction(t, schedule.horizon, schedule.initial_drop_fraction)
    grow_method = "random" if schedule.strategy == "set" else "gradient"
    record = UpdateRecord(step=t, component=component)

    for layer_idx, mt in masked_layers:
        before = mt.active_count()
        k = round_half_up(p_t * before)
        stream = streams.get(layer_idx) if streams else None
        pruned = select_prune(mt, k, schedule.prune_method,
                              temperature=schedule.soft_temperature,
                              normalize_by_mean=schedule.normalize_by_mean,
                              stream=stream)
        flat_mask = mt.mask.reshape(-1)
        flat_vals = mt.values.reshape(-1)
        flat_mask[pruned] = 0
        flat_vals[pruned] = 0.0
        grad = dense_grads.get(layer_idx) if dense_grads else None
        grown = select_grow(mt.mask, k, grow_method, dense_grad=grad, stream=stream)
        flat_mask[grown] = 1
        flat_vals[grown] = 0.0
        if on_change is not None and k:
            on_change(layer_idx, np.concatenate([pruned, grown]))
        record.layers.append(LayerUpdate(layer=layer_idx,
                                         pruned=pruned.tolist(), grown=grown.tolist(),
                                         active_before=before,
                                         active_after=mt.active_count()))
    return record


def one_shot_global_prune(masked_layers: list[tuple[str, MaskedTensor]],
                          sparsity: float) -> dict[str, list[int]]:
    """Single global magnitude threshold across all maskable weights.

    Keeps exactly round((1 - S) * total) positions, the largest |theta|
    first; ties at the threshold resolve to ascending (layer, flat index).
    Mutates masks/values in place and returns the pruned flat indices per
    layer key.
    """
    if not 0.0 <= sparsity < 1.0:
        raise ValueError(f"sparsity must be in [0, 1), got {sparsity}")
    sizes = [mt.values.size for _, mt in masked_layers]
    total = sum(sizes)
    budget = round_half_up((1.0 - sparsity) * total)

    abs_all = np.concatenate([np.abs(mt.values.reshape(-1)).astype(np.float64)
                              for _, mt in masked_layers])
    layer_ord = np.concatenate([np.full(n, i, dtype=np.int64)
                                for i, n in enumerate(sizes)])
    flat_idx = np.concatenate([np.arange(n, dtype=np.int64) for n in sizes])
    order = np.lexsort((flat_idx, layer_ord, -abs_all))
    keep = order[:budget]

    keep_per_layer = [np.sort(flat_idx[keep[layer_ord[keep] == i]])
                      for i in range(len(sizes))]
    pruned = {}
    for i, (key, mt) in enumerate(masked_layers):
        new_mask = np.zeros(mt.values.size, dtype=np.uint8)
        new_mask[keep_per_layer[i]] = 1
        old_active = np.flatnonzero(mt.mask.reshape(-1))
        dropped = old_active[new_mask[old_active] == 0]
        mt.mask[...] = new_mask.reshape(mt.mask.shape)
        mt.values.reshape(-1)[dropped] = 0.0
        pruned[key] = dropped.tolist()
    return pruned
