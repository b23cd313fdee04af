"""Training loop, masked optimizers, LR schedules, and FLOPs accounting.

Sparse variants may extend their step budget by at most 1/(1 - S) over
the dense reference, and never beyond the dense FLOPs budget: a training
step costs three forward passes (one forward, backward roughly twice as
expensive), so cumulative cost is 3 * f_sparse * batch per step and must
stay within 3 * f_dense * base_steps * batch.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import model as model_mod
from . import nn
from .data import BatchPlan, Dataset, batches
from .metrics import (MetricsReport, accuracy, ece, nll, perplexity,
                      prediction_disagreement)
from .model import (TrailsModel, composite_loss, forward_heads, head_predictions,
                    model_backward, soft_vote)
from .rng import Stream
from .sparsity import round_half_up
from .topology import TopologySchedule, UpdateRecord, one_shot_global_prune, \
    drop_fraction, topology_update


class TrainingDiverged(RuntimeError):
    def __init__(self, message: str, step: int, last_checkpoint: str | None = None):
        super().__init__(message)
        self.step = step
        self.last_checkpoint = last_checkpoint


@dataclass
class TrainConfig:
    total_steps: int
    optimizer: str = "sgd_momentum"       # sgd_momentum | adam
    momentum: float = 0.9
    weight_decay: float = 5e-4
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    lr: float = 0.1
    schedule: str = "step_decay"          # step_decay | cosine_warmup
    milestones: tuple[float, ...] = (0.25, 0.5, 0.75)
    decay_factor: float = 0.1
    warmup_fraction: float = 0.1
    min_lr_fraction: float = 0.1
    batch_size: int = 128
    base_steps: int | None = None         # dense-budget reference; defaults to total_steps
    drop_last: bool = False
    eval_interval: int = 100
    seed: int = 0
    topology: TopologySchedule = field(default_factory=TopologySchedule)

    def validate(self) -> None:
        if self.total_steps < 1:
            raise ValueError(f"total_steps must be >= 1, got {self.total_steps}")
        if self.optimizer not in ("sgd_momentum", "adam"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.lr <= 0:
            raise ValueError(f"learning rate must be positive, got {self.lr}")
        # outside these ranges Adam's bias correction or update can divide by zero
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        if not self.adam_eps > 0:
            raise ValueError(f"adam_eps must be positive, got {self.adam_eps}")
        if self.schedule not in ("step_decay", "cosine_warmup"):
            raise ValueError(f"unknown schedule {self.schedule!r}")
        if list(self.milestones) != sorted(self.milestones) or any(
                not 0.0 < m < 1.0 for m in self.milestones):
            raise ValueError("milestones must be sorted fractions in (0, 1)")
        if not 0.0 < self.warmup_fraction < 1.0:
            raise ValueError(
                f"warmup_fraction must be in (0, 1), got {self.warmup_fraction}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.eval_interval < 1:
            raise ValueError(f"eval_interval must be >= 1, got {self.eval_interval}")
        if self.base_steps is not None and self.base_steps < 1:
            raise ValueError(f"base_steps must be >= 1, got {self.base_steps}")
        self.topology.validate()

    @property
    def dense_base_steps(self) -> int:
        return self.base_steps if self.base_steps is not None else self.total_steps


def lr_at(t: int, config: TrainConfig) -> float:
    """Learning rate at step t in [0, total_steps]."""
    horizon = config.total_steps
    if not 0 <= t <= horizon:
        raise ValueError(f"step {t} outside [0, {horizon}]")
    if config.schedule == "step_decay":
        passed = sum(1 for m in config.milestones if t >= m * horizon)
        return config.lr * config.decay_factor ** passed
    warmup = max(1, round_half_up(config.warmup_fraction * horizon))
    if t < warmup:
        return config.lr * t / warmup
    lo = config.min_lr_fraction
    span = max(1, horizon - warmup)
    cos = (1.0 + math.cos(math.pi * (t - warmup) / span)) / 2.0
    return config.lr * (lo + (1.0 - lo) * cos)


def extension_cap(sparsity: float, base_steps: int) -> int:
    """Longest allowed sparse run: floor(base_steps / (1 - S))."""
    if not 0.0 <= sparsity < 1.0:
        raise ValueError(f"sparsity must be in [0, 1), got {sparsity}")
    return int(math.floor(base_steps / (1.0 - sparsity)))


# ---------------------------------------------------------------------------
# FLOPs accounting
# ---------------------------------------------------------------------------

@dataclass
class FlopsLedger:
    """Analytic forward-pass FLOPs; a train step costs 3x the forward pass.

    Convention: a linear layer costs 2 * active_weights + (out_dim bias
    adds); conv2d costs 2 * active_kernel_weights * output_positions plus
    one bias add per output element; elementwise layers cost their element
    count. Mask bookkeeping and topology updates are not charged.
    """

    forward_sparse: int
    forward_dense: int
    cumulative_train: int = 0

    @property
    def inference_per_sample(self) -> int:
        return self.forward_sparse

    def train_step_flops(self, batch: int) -> int:
        return 3 * self.forward_sparse * batch

    def charge_step(self, batch: int) -> None:
        self.cumulative_train += self.train_step_flops(batch)

    def dense_budget(self, base_steps: int, batch: int) -> int:
        return 3 * self.forward_dense * base_steps * batch


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

    def walk(layers: list[nn.Layer], shape: tuple[int, ...]) -> tuple[int, ...]:
        for layer in layers:
            spec = layer.spec
            shape = model_mod.activation_shape(spec, shape)
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


def count_flops(model: TrailsModel) -> FlopsLedger:
    """Per-sample forward FLOPs of the ensemble: backbone once plus every head."""
    costs = layer_costs(model)
    fixed = sum(c.fixed for c in costs)
    return FlopsLedger(
        forward_sparse=fixed + sum(2 * c.multiplier * c.active for c in costs),
        forward_dense=fixed + sum(2 * c.multiplier * c.size for c in costs))


def recount_forward_sparse(model: TrailsModel, ledger: FlopsLedger) -> None:
    ledger.forward_sparse = count_flops(model).forward_sparse


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

class Optimizer:
    """Masked SGD-with-momentum or Adam over a model's named parameters.

    After every update, masked weight positions and their state entries
    are exactly zero. Weight decay is folded into the gradient for SGD
    and omitted for Adam.
    """

    SLOTS = {"sgd_momentum": ("momentum",), "adam": ("m", "v")}

    def __init__(self, config: TrainConfig, params: list[model_mod.ParamRef]):
        self.config = config
        self.params = {p.name: p for p in params}
        self.kind = config.optimizer
        self.adam_t = 0
        self.state: dict[str, dict[str, np.ndarray]] = {
            p.name: {slot: np.zeros_like(p.array) for slot in self.SLOTS[self.kind]}
            for p in params
        }

    def step(self, grads: dict[str, np.ndarray], lr: float, step: int = 0) -> None:
        # check every gradient first, so a diverged step changes nothing
        for name, grad in grads.items():
            if not np.isfinite(grad).all():
                kind = "NaN" if np.isnan(grad).any() else "inf"
                raise TrainingDiverged(f"{kind} gradient in {name}", step=step)
        if self.kind == "adam":
            self.adam_t += 1
        for name, grad in grads.items():
            ref = self.params[name]
            state = self.state[name]
            if self.kind == "sgd_momentum":
                g = grad
                if self.config.weight_decay:
                    g = g + self.config.weight_decay * ref.array
                v = state["momentum"]
                v *= self.config.momentum
                v += g
                ref.array -= (lr * v).astype(ref.array.dtype)
            else:
                m, v = state["m"], state["v"]
                m *= self.config.beta1
                m += (1.0 - self.config.beta1) * grad
                v *= self.config.beta2
                v += (1.0 - self.config.beta2) * grad * grad
                m_hat = m / (1.0 - self.config.beta1 ** self.adam_t)
                v_hat = v / (1.0 - self.config.beta2 ** self.adam_t)
                ref.array -= (lr * m_hat / (np.sqrt(v_hat) + self.config.adam_eps)
                              ).astype(ref.array.dtype)
            if ref.mask is not None:
                ref.array *= ref.mask
                for slot in state.values():
                    slot *= ref.mask

    def reset_positions(self, name: str, flat_indices: np.ndarray) -> None:
        """Zero the optimizer state at pruned/regrown weight positions."""
        for slot in self.state[name].values():
            slot.reshape(-1)[flat_indices] = 0.0


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

@dataclass
class StepRecord:
    step: int
    loss: float
    lr: float
    drop_fraction: float


@dataclass
class TrainHistory:
    steps: list[StepRecord] = field(default_factory=list)
    evals: list[MetricsReport] = field(default_factory=list)
    updates: list[UpdateRecord] = field(default_factory=list)
    events: list[dict] = field(default_factory=list)
    ledger: FlopsLedger | None = None


def evaluate(model: TrailsModel, dataset: Dataset, step: int,
             ledger: FlopsLedger | None = None,
             batch_size: int = 512) -> tuple[MetricsReport, np.ndarray, np.ndarray]:
    """Soft-voted test metrics; returns (report, per-head preds, ensemble preds)."""
    probs_parts, head_parts = [], []
    for start in range(0, len(dataset), batch_size):
        chunk = dataset.inputs[start:start + batch_size]
        outputs = forward_heads(model, chunk)
        ens_probs, _ = soft_vote(outputs, model.vote)
        probs_parts.append(ens_probs)
        head_parts.append(head_predictions(outputs))
    ens_probs = np.concatenate(probs_parts)
    heads = np.concatenate(head_parts, axis=1)
    ens_preds = np.argmax(ens_probs, axis=1)
    labels = dataset.labels
    mean_nll = nll(ens_probs, labels)
    report = MetricsReport(
        step=step,
        accuracy=accuracy(ens_preds, labels),
        nll=mean_nll,
        ece=ece(ens_probs, labels),
        perplexity=perplexity(mean_nll),
        pd=prediction_disagreement(heads) if model.num_heads >= 2 else None,
        flops_cumulative=ledger.cumulative_train if ledger else 0,
        flops_forward_sparse=ledger.forward_sparse if ledger else 0,
        flops_forward_dense=ledger.forward_dense if ledger else 0,
    )
    return report, heads, ens_preds


def _grad_arrays(component: str, gs: nn.GradientSet) -> dict[str, np.ndarray]:
    out = {}
    for li, lg in enumerate(gs.layers):
        if lg.weight is not None:
            out[f"{component}/{li}/weight"] = lg.weight
        if lg.bias is not None:
            out[f"{component}/{li}/bias"] = lg.bias
    return out


def _dense_grad_map(gs: nn.GradientSet) -> dict[int, np.ndarray]:
    return {li: lg.weight_dense for li, lg in enumerate(gs.layers)
            if lg.weight_dense is not None}


def validate_flops_budget(model: TrailsModel, config: TrainConfig,
                          ledger: FlopsLedger,
                          oneshot_target: float | None = None) -> None:
    """Reject runs whose exact projected cost exceeds the dense training budget.

    Density conservation makes f_sparse constant for static/set/rigl, so
    the check is closed-form. prune_oneshot is validated with an upper
    bound here (the exact post-prune cost is re-checked at the prune step).
    """
    base = config.dense_base_steps
    cap_sparsity = model.sparsity
    prune_step = None
    if config.topology.strategy == "prune_oneshot":
        cap_sparsity = oneshot_target if oneshot_target is not None else model.sparsity
        prune_step = round_half_up(config.topology.prune_at_fraction * config.total_steps)
    cap = extension_cap(cap_sparsity, base)
    if config.total_steps > cap:
        raise ValueError(
            f"total_steps {config.total_steps} exceeds the 1/(1-S) extension cap "
            f"{cap} for sparsity {cap_sparsity}")
    if prune_step is None:
        projected = config.total_steps * ledger.train_step_flops(config.batch_size)
    else:
        post_bound = _post_prune_forward_bound(model, cap_sparsity)
        projected = 3 * config.batch_size * (
            ledger.forward_dense * prune_step
            + post_bound * (config.total_steps - prune_step))
    budget = ledger.dense_budget(base, config.batch_size)
    if projected > budget:
        raise ValueError(
            f"projected training FLOPs {projected} exceed the dense budget {budget} "
            f"({base} base steps)")


def _post_prune_forward_bound(model: TrailsModel, sparsity: float) -> int:
    """Upper bound on forward FLOPs after a global prune to `sparsity`.

    Bias and elementwise costs stay dense; the surviving weights are
    charged at the worst per-weight position multiplier, which is exact
    for pure-linear networks.
    """
    costs = layer_costs(model)
    keep = round_half_up((1.0 - sparsity) * sum(c.size for c in costs))
    return sum(c.fixed for c in costs) + 2 * keep * max(c.multiplier for c in costs)


def fit(model: TrailsModel, train_set: Dataset, test_set: Dataset,
        config: TrainConfig, sparsity_target: float | None = None, *,
        start_step: int = 0, optimizer: Optimizer | None = None,
        ledger: FlopsLedger | None = None, on_eval=None,
        on_checkpoint=None, last_checkpoint: str | None = None) -> TrainHistory:
    """Run the training loop from start_step+1 through total_steps.

    Forward -> composite loss -> backward -> masked optimizer step; every
    delta_t steps each component (backbone, then every head) gets a
    topology update at the cosine-decayed drop fraction. prune_oneshot
    trains dense, applies one global magnitude prune at the configured
    point (to `sparsity_target`), and fine-tunes with frozen masks.
    on_eval(report, updates, events) fires per evaluation;
    on_checkpoint(step, model, optimizer, ledger) per checkpoint interval.
    """
    config.validate()
    if len(train_set) == 0:
        raise ValueError("training dataset is empty")
    schedule = replace(config.topology, horizon=config.total_steps)
    if ledger is None:
        ledger = count_flops(model)
    if schedule.strategy == "prune_oneshot" and sparsity_target is None:
        raise ValueError("prune_oneshot requires a sparsity target")
    validate_flops_budget(model, config, ledger, oneshot_target=sparsity_target)
    if optimizer is None:
        optimizer = Optimizer(config, model.named_parameters())

    history = TrainHistory(ledger=ledger)
    members = list(range(model.num_heads)) if model.independent else [None]
    plans = {m: BatchPlan(batch_size=config.batch_size,
                          shuffle_seed=Stream(config.seed).child("data", m or 0).seed,
                          drop_last=config.drop_last)
             for m in members}
    n = len(train_set)
    steps_per_epoch = n // config.batch_size if config.drop_last \
        else -(-n // config.batch_size)
    if steps_per_epoch == 0:
        raise ValueError(
            f"batch size {config.batch_size} exceeds dataset size {n} with drop_last")
    epoch_cache: dict = {}
    prune_step = round_half_up(schedule.prune_at_fraction * config.total_steps) \
        if schedule.strategy == "prune_oneshot" else None
    pending_updates: list[UpdateRecord] = []
    pending_events: list[dict] = []

    def batch_for(member, t):
        epoch, idx = divmod(t - 1, steps_per_epoch)
        cached = epoch_cache.get(member)
        if cached is None or cached[0] != epoch:
            epoch_cache[member] = (epoch, batches(train_set, plans[member], epoch))
        sel = epoch_cache[member][1][idx]
        return train_set.inputs[sel], train_set.labels[sel]

    for t in range(start_step + 1, config.total_steps + 1):
        lr = lr_at(t, config)
        p_t = drop_fraction(min(t, config.total_steps), config.total_steps,
                            schedule.initial_drop_fraction)
        want_dense = schedule.strategy == "rigl" and schedule.is_update_step(t)
        batch_sizes = 0

        try:
            if model.independent:
                # each member sees its own batch order and its own unscaled loss
                losses = []
                all_grads: dict[str, nn.GradientSet] = {}
                for m in members:
                    x, y = batch_for(m, t)
                    batch_sizes = len(x)
                    logits, tape = nn.stack_forward(model.heads[m], x, record=True)
                    loss_m, probs = nn.loss_forward(logits, y)
                    losses.append(loss_m)
                    all_grads[f"head{m}"], _ = nn.stack_backward(
                        model.heads[m], tape, nn.loss_backward(probs, y), dense=want_dense)
                loss = float(np.mean(losses))
            else:
                x, y = batch_for(None, t)
                batch_sizes = len(x)
                outputs = forward_heads(model, x, record=True)
                loss, per_head = composite_loss(outputs, y)
                all_grads = model_backward(model, outputs, y, [p for _, p in per_head],
                                           dense=want_dense)
            grads = {}
            for comp_name, gs in all_grads.items():
                grads.update(_grad_arrays(comp_name, gs))
            optimizer.step(grads, lr, step=t)
            dense_by_comp = {name: _dense_grad_map(gs) for name, gs in all_grads.items()}
            if not math.isfinite(loss):
                raise TrainingDiverged(f"loss diverged to {loss} at step {t}", step=t)
        except TrainingDiverged as exc:
            exc.last_checkpoint = last_checkpoint
            raise
        ledger.charge_step(batch_sizes)
        history.steps.append(StepRecord(step=t, loss=loss, lr=lr, drop_fraction=p_t))

        if schedule.is_update_step(t):
            comp_names = model.component_names()
            for comp_idx, comp_name in enumerate(comp_names):
                masked = model.masked_layers(comp_idx)
                if not masked:
                    continue
                streams = {li: model.topo_streams[(comp_idx, li)] for li, _ in masked}

                def reset(layer_idx, flat, _comp=comp_name):
                    optimizer.reset_positions(f"{_comp}/{layer_idx}/weight", flat)

                record = topology_update(
                    masked, schedule, t, component=comp_name, streams=streams,
                    dense_grads=dense_by_comp.get(comp_name, {}), on_change=reset)
                history.updates.append(record)
                pending_updates.append(record)

        if prune_step is not None and t == prune_step:
            named = []
            for comp_idx, comp_name in enumerate(model.component_names()):
                for li, mt in model.masked_layers(comp_idx):
                    named.append((f"{comp_name}/{li}/weight", mt))
            pruned = one_shot_global_prune(named, sparsity_target)
            for name, dropped in pruned.items():
                optimizer.reset_positions(name, np.asarray(dropped, dtype=np.int64))
            model.sparsity = sparsity_target
            recount_forward_sparse(model, ledger)
            remaining = (config.total_steps - t) * ledger.train_step_flops(
                config.batch_size)
            budget = ledger.dense_budget(config.dense_base_steps, config.batch_size)
            if ledger.cumulative_train + remaining > budget:
                raise ValueError(
                    f"post-prune training cost {ledger.cumulative_train + remaining} "
                    f"exceeds the dense budget {budget}")
            event = {"event": "one_shot_prune", "step": t,
                     "sparsity": sparsity_target,
                     "pruned_counts": {k: len(v) for k, v in pruned.items()}}
            history.events.append(event)
            pending_events.append(event)

        if t % config.eval_interval == 0 or t == config.total_steps:
            report, _, _ = evaluate(model, test_set, t, ledger,
                                    batch_size=config.batch_size)
            report.train_loss = loss
            report.lr = lr
            report.drop_fraction = p_t
            history.evals.append(report)
            if on_eval is not None:
                on_eval(report, pending_updates, pending_events)
            pending_updates, pending_events = [], []

        if on_checkpoint is not None:
            saved = on_checkpoint(t, model, optimizer, ledger)
            if saved:
                last_checkpoint = saved

    return history
