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

from .nn import MaskedTensor, ParamRef, active_indices
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
    stop_fraction: float = 0.0
    prune_at_fraction: float = 0.5  # prune_oneshot: fraction of training spent dense

    def validate(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.prune_method not in PRUNE_METHODS:
            raise ValueError(f"unknown prune method {self.prune_method!r}")
        for name, ok, span in (
                ("delta_t", self.delta_t >= 1, ">= 1"),
                ("initial_drop_fraction", 0.0 < self.initial_drop_fraction <= 1.0,
                 "in (0, 1]"),
                ("soft_temperature", self.prune_method != "soft_magnitude"
                 or self.soft_temperature > 0, "positive"),
                ("stop_fraction", 0.0 <= self.stop_fraction < 1.0, "in [0, 1)"),
                ("prune_at_fraction", 0.0 < self.prune_at_fraction < 1.0, "in (0, 1)")):
            if not ok:
                raise ValueError(f"{name} must be {span}, got {getattr(self, name)}")

    def is_update_step(self, t: int, total_steps: int) -> bool:
        if self.strategy not in ("set", "rigl"):
            return False
        if t < 1 or t % self.delta_t != 0:
            return False
        return t <= round_half_up((1.0 - self.stop_fraction) * total_steps)


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


def _top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Ascending positions of the k >= 1 largest (non-NaN) scores, ties to the
    lowest position, as in `np.argsort(-scores, kind="stable")[:k]`; a
    partition finds the k-th largest, so nothing is fully sorted."""
    kth = np.partition(scores, scores.size - k)[scores.size - k]
    keep = scores > kth
    ties = (scores == kth).nonzero()[0]
    keep[ties[:k - np.count_nonzero(keep)]] = True
    return keep.nonzero()[0]


def select_prune(weights: MaskedTensor, k: int, method: str = "magnitude", *,
                 temperature: float = 3.0, normalize_by_mean: bool = True,
                 stream: Stream | None = None) -> np.ndarray:
    """Flat indices of k active positions to prune, sorted ascending.

    magnitude: the k smallest |theta| among active positions, ties broken
    by ascending flat index. soft_magnitude: sample k active positions
    without replacement with weight proportional to exp(-|theta| / (tau * mu)),
    mu being the mean active |theta| (Gumbel-top-k over the log-weights).
    """
    active = active_indices(weights.mask)
    if k > active.size:
        raise ValueError(f"cannot prune {k} of {active.size} active weights")
    if k == 0:
        return np.empty(0, dtype=np.int64)
    magnitudes = np.abs(weights.values.take(active)).astype(np.float64)

    if method == "magnitude":
        keys = -magnitudes
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
    else:
        raise ValueError(f"unknown prune method {method!r}")
    return active[_top_k(keys, k)]


def select_grow(mask: np.ndarray, k: int, method: str,
                dense_grad: np.ndarray | None = None,
                stream: Stream | None = None) -> np.ndarray:
    """Flat indices of k inactive positions of a 0/1 uint8 mask to activate,
    sorted ascending."""
    inactive = active_indices(mask ^ 1)
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
        # ties resolve to ascending flat index
        return inactive[_top_k(np.abs(dense_grad.take(inactive)), k)]
    raise ValueError(f"unknown grow method {method!r}")


def topology_update(records: list[ParamRef], schedule: TopologySchedule, t: int,
                    total_steps: int, *,
                    streams: dict[str, Stream] | None = None) -> UpdateRecord:
    """One prune/regrow pass over one component's weight records, named
    `component/layer/weight`, each layer's stream under its `component/layer`.

    Per layer, k = round(p(t) * active) positions are pruned and the same
    number regrown (weights initialized to 0); p(t) decays to zero at
    t = total_steps. RigL regrows where the record's `grad` (masked
    positions included) is largest. Mutates masks and values in place and
    returns the record of what changed; the caller resets optimizer state
    at each layer's pruned and grown positions.
    """
    if schedule.strategy not in ("set", "rigl"):
        raise ValueError(f"topology updates not defined for strategy {schedule.strategy!r}")
    if t % schedule.delta_t != 0:
        raise ValueError(f"step {t} is off the update schedule (delta_t={schedule.delta_t})")
    p_t = drop_fraction(t, total_steps, schedule.initial_drop_fraction)
    grow_method = "random" if schedule.strategy == "set" else "gradient"
    record = UpdateRecord(step=t, component=records[0].name.split("/")[0])

    for ref in records:
        key = ref.name.removesuffix("/weight")
        mt = MaskedTensor(ref.array, ref.mask)
        before = mt.active_count()
        k = round_half_up(p_t * before)
        stream = streams.get(key) if streams else None
        pruned = select_prune(mt, k, schedule.prune_method,
                              temperature=schedule.soft_temperature,
                              normalize_by_mean=schedule.normalize_by_mean,
                              stream=stream)
        flat_mask = mt.mask.reshape(-1)
        flat_vals = mt.values.reshape(-1)
        flat_mask[pruned] = 0
        flat_vals[pruned] = 0.0
        grown = select_grow(mt.mask, k, grow_method, dense_grad=ref.grad, stream=stream)
        flat_mask[grown] = 1
        flat_vals[grown] = 0.0
        record.layers.append(LayerUpdate(layer=int(key.split("/")[1]),
                                         pruned=pruned.tolist(), grown=grown.tolist(),
                                         active_before=before,
                                         active_after=mt.active_count()))
    return record


def one_shot_global_prune(records: list[ParamRef], sparsity: float) -> dict[str, list[int]]:
    """Single global magnitude threshold across the masked weight records.

    Keeps exactly round((1 - S) * total) positions, the largest |theta|
    first; ties at the threshold resolve to ascending (record, flat index).
    Mutates masks/values in place and returns the pruned flat indices per
    record name.
    """
    if not 0.0 <= sparsity < 1.0:
        raise ValueError(f"sparsity must be in [0, 1), got {sparsity}")
    sizes = [ref.array.size for ref in records]
    budget = round_half_up((1.0 - sparsity) * sum(sizes))

    # concatenated in (record, flat index) order, so _top_k's lowest-position
    # ties are the earliest (record, index) ones
    magnitudes = np.abs(np.concatenate([ref.array.reshape(-1) for ref in records]))
    keep = np.zeros(magnitudes.size, dtype=np.uint8)
    if budget:  # _top_k needs k >= 1
        keep[_top_k(magnitudes, budget)] = 1
    pruned = {}
    for ref, new_mask in zip(records, np.split(keep, np.cumsum(sizes)[:-1])):
        old_active = active_indices(ref.mask)
        dropped = old_active[new_mask[old_active] == 0]
        ref.mask[...] = new_mask.reshape(ref.mask.shape)
        ref.array.reshape(-1)[dropped] = 0.0
        pruned[ref.name] = dropped.tolist()
    return pruned
