"""Training loop, masked optimizers, LR schedules, and FLOPs accounting.

Sparse variants may extend their step budget by at most 1/(1 - S) over
the dense reference, and never beyond the dense FLOPs budget: a training
step costs three forward passes (one forward, backward roughly twice as
expensive), so cumulative cost is 3 * f_sparse * batch per step and must
stay within 3 * f_dense * base_steps * batch.
"""

import itertools
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from .nn import ParamRef, active_indices
from .data import Dataset, batches
from .metrics import (MetricsReport, accuracy, ece, nll, perplexity,
                      prediction_disagreement)
from .model import (TrailsModel, composite_loss, forward_heads, head_predictions,
                    model_backward, soft_vote)
from .rng import Stream
from .sparsity import round_half_up
from .topology import TopologySchedule, UpdateRecord, one_shot_global_prune, \
    drop_fraction, topology_update


# order entries that `fit` holds ahead, over all members (64 KB): it draws a
# group of epochs at a time, each member's orders for the group in one call
_ORDERS_AHEAD = 1 << 13
# Bytes of the store a step checks, gathers and updates at a time (2^17
# float32 entries). A block of the gradient or the weights then stays in a
# core's L2 cache from its check to its gather, and from its gather to its
# scatter; a pass over a whole wide store comes back from L3.
STEP_BUDGET = 1 << 19


class TrainingDiverged(RuntimeError):
    """A non-finite gradient, loss or prediction at `step`. The CLI sets
    `last_checkpoint` to the newest file the run can resume from."""

    def __init__(self, message: str, step: int):
        super().__init__(message)
        self.step = step
        self.last_checkpoint: str | None = None


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
        if self.optimizer not in ("sgd_momentum", "adam"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.lr <= 0:
            raise ValueError(f"learning rate must be positive, got {self.lr}")
        if self.schedule not in ("step_decay", "cosine_warmup"):
            raise ValueError(f"unknown schedule {self.schedule!r}")
        if list(self.milestones) != sorted(self.milestones) or any(
                not 0.0 < m < 1.0 for m in self.milestones):
            raise ValueError("milestones must be sorted fractions in (0, 1)")
        # outside these ranges momentum or the LR schedule misbehaves, and
        # Adam's bias correction or update can divide by zero
        for name, ok, span in (
                ("total_steps", self.total_steps >= 1, ">= 1"),
                ("momentum", 0.0 <= self.momentum < 1.0, "in [0, 1)"),
                ("weight_decay", self.weight_decay >= 0, ">= 0"),
                ("beta1", 0.0 <= self.beta1 < 1.0, "in [0, 1)"),
                ("beta2", 0.0 <= self.beta2 < 1.0, "in [0, 1)"),
                ("adam_eps", self.adam_eps > 0, "positive"),
                ("decay_factor", 0.0 < self.decay_factor <= 1.0, "in (0, 1]"),
                ("warmup_fraction", 0.0 < self.warmup_fraction < 1.0, "in (0, 1)"),
                ("min_lr_fraction", 0.0 <= self.min_lr_fraction <= 1.0, "in [0, 1]"),
                ("batch_size", self.batch_size >= 1, ">= 1"),
                ("eval_interval", self.eval_interval >= 1, ">= 1"),
                ("base_steps", self.base_steps is None or self.base_steps >= 1, ">= 1")):
            if not ok:
                raise ValueError(f"{name} must be {span}, got {getattr(self, name)}")
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
    """Longest allowed sparse run: floor(base_steps / (1 - S)), exact on the
    decimal S is written as (0.95 and 10 give 200), not on its binary float."""
    if not 0.0 <= sparsity < 1.0:
        raise ValueError(f"sparsity must be in [0, 1), got {sparsity}")
    return math.floor(base_steps / (1 - Fraction(str(float(sparsity)))))


# ---------------------------------------------------------------------------
# FLOPs accounting
# ---------------------------------------------------------------------------

@dataclass
class FlopsLedger:
    """Analytic forward-pass FLOPs; a train step costs 3x the forward pass.

    Convention: a linear layer costs 2 * active_weights + (out_dim bias
    adds); conv2d costs 2 * active_kernel_weights * output_positions plus
    one bias add per output element; elementwise layers cost their element
    count. Mask bookkeeping and topology updates are not charged. Per-layer
    costs come from the model's cost table, made once by `build_trails`.
    """

    forward_sparse: int
    forward_dense: int
    cumulative_train: int = 0

    def train_step_flops(self, batch: int) -> int:
        return 3 * self.forward_sparse * batch

    def charge_step(self, batch: int) -> None:
        self.cumulative_train += self.train_step_flops(batch)

    def dense_budget(self, base_steps: int, batch: int) -> int:
        return 3 * self.forward_dense * base_steps * batch


def count_flops(model: TrailsModel, active: np.ndarray | None = None) -> FlopsLedger:
    """Per-sample forward FLOPs of the ensemble, backbone once plus every
    head, from the model's cost table: each weight array's active count (all
    M heads' at once for a stacked one) at its position multiplier. The
    counts are where each array's range starts and ends among the store's
    sorted active positions: `active` if given (an optimizer's), else found
    from the store's mask."""
    weights = [ref for ref in model.store.refs if ref.mask is not None]
    if active is None:
        active = active_indices(model.store.mask)
    cuts = active.searchsorted(
        [end for ref in weights for end in (ref.offset, ref.offset + ref.mask.size)]).tolist()
    counts = [hi - lo for lo, hi in zip(cuts[::2], cuts[1::2])]
    sparse = dense = model.fixed_flops
    for ref, count in zip(weights, counts):
        per_weight = 2 * model.flops_multipliers[ref.name]
        sparse += per_weight * count
        dense += per_weight * ref.mask.size
    return FlopsLedger(forward_sparse=sparse, forward_dense=dense)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

class Optimizer:
    """Masked SGD-with-momentum or Adam over a model's parameter store.

    Takes every parameter of one `nn.ParamStore` (`model.named_parameters()`).
    State is kept at the store's sorted active positions (`active`: where the
    mask is 1, biases included) only, one compact array per slot. A step
    goes over the store in blocks of `STEP_BUDGET` bytes, in two passes.
    The first checks each block of the gradient buffer for non-finite
    entries and gathers the block's active gradient while the block is in
    cache. The second, once every block has passed, gathers each block's
    weights, updates them with the block's slice of every slot and
    scatters them back, so masked positions stay +0.0. Every entry gets
    the same operations in the same order whatever the block size.
    Whoever changes a mask calls `reset_positions`. Weight decay is
    SGD-only, folded into the gradient.
    """

    SLOTS = {"sgd_momentum": ("momentum",), "adam": ("m", "v")}

    def __init__(self, config: TrainConfig, params: list[ParamRef]):
        self.store = params[0].store if params else None
        if self.store is None or [p.name for p in params] != [r.name for r in self.store.refs]:
            raise ValueError("an optimizer takes every parameter of one store, in order")
        self.config = config
        self.kind = config.optimizer
        self.adam_t = 0
        self.active = active_indices(self.store.mask)
        self.slots = {slot: np.zeros(self.active.size, self.store.values.dtype)
                      for slot in self.SLOTS[self.kind]}
        # where the store's blocks start, and the edges between them: the
        # store never changes size
        self._block = STEP_BUDGET // self.store.grad.itemsize
        self._starts = range(0, self.store.grad.size, self._block)
        self._edges = np.asarray(self._starts[1:], np.int64)

    def step(self, lr: float, step: int = 0) -> None:
        """One update from the gradient in the store's `grad` buffer."""
        store, grad, active, block = self.store, self.store.grad, self.active, self._block
        # where each block's positions end in `active`
        ends = [*active.searchsorted(self._edges).tolist(), active.size] \
            if self._edges.size else [active.size]
        # check the whole gradient before any update, so a diverged step changes
        # nothing and no non-finite entry at a masked position reaches RigL
        # growth's selection; min and max are NaN or infinite if any entry is,
        # and allocate nothing (`math.isfinite` reads a numpy scalar without
        # a ufunc call). The gather drops the masked positions. `active` is in
        # range, so "wrap" gathers what "raise" does, without its index checks.
        gathered, lo = [], 0
        for start, hi in zip(self._starts, ends):
            part = grad[start:start + block]
            if not (math.isfinite(np.minimum.reduce(part))
                    and math.isfinite(np.maximum.reduce(part))):
                bad = start + int(np.flatnonzero(~np.isfinite(part))[0])
                name = next(ref.name for ref in reversed(store.refs) if ref.offset <= bad)
                kind = "NaN" if np.isnan(grad[bad]) else "inf"
                raise TrainingDiverged(f"{kind} gradient in {name}", step=step)
            at = active[lo:hi]
            gathered.append((lo, hi, at, grad.take(at, mode="wrap")))
            lo = hi
        c, values, sgd = self.config, store.values, self.kind == "sgd_momentum"
        if not sgd:
            self.adam_t += 1
            bias1, bias2 = 1.0 - c.beta1 ** self.adam_t, 1.0 - c.beta2 ** self.adam_t
        for lo, hi, at, g in gathered:
            w = values.take(at, mode="wrap")
            if sgd:
                if c.weight_decay:
                    g += c.weight_decay * w
                v = self.slots["momentum"][lo:hi]
                v *= c.momentum
                v += g
                w -= lr * v
            else:
                m, v = self.slots["m"][lo:hi], self.slots["v"][lo:hi]
                m *= c.beta1
                m += (1.0 - c.beta1) * g
                v *= c.beta2
                v += (1.0 - c.beta2) * g * g
                w -= lr * (m / bias1) / (np.sqrt(v / bias2) + c.adam_eps)
            values[at] = w

    def reset_positions(self, positions) -> None:
        """Re-derive the active positions from the store's live mask. Kept
        positions keep their state unless listed (as store positions); listed
        and new ones start at +0.0."""
        # 2 at the positions active before and now and not listed
        seen = self.store.mask.copy()
        seen[self.active] += 1
        seen[np.asarray(positions, np.int64)] = 0
        from_old = seen[self.active] == 2
        self.active = None  # the old positions, freed before the new ones are found
        self.active = active_indices(self.store.mask)
        into_new = seen[self.active] == 2
        del seen
        for slot, arr in self.slots.items():
            self.slots[slot] = np.zeros(self.active.size, arr.dtype)
            self.slots[slot][into_new] = arr[from_old]


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
    # the last evaluation's per-head and ensemble predictions
    head_preds: np.ndarray | None = None
    ensemble_preds: np.ndarray | None = None


def evaluate(model: TrailsModel, dataset: Dataset, step: int,
             ledger: FlopsLedger | None = None,
             batch_size: int = 512) -> tuple[MetricsReport, np.ndarray, np.ndarray]:
    """Soft-voted test metrics; returns (report, per-head preds, ensemble
    preds). Non-finite ensemble probabilities raise TrainingDiverged.

    The batch size can change the logits only through the linear layers'
    BLAS GEMM, whose sum over a row may take another order at another row
    count (the conv forward is blocked so its bits stay put): a cnn-idx-set
    NLL read 1.12325920076 at batch 400 against 1.12325920545 in chunks of
    32. So `fit` and `sparsetrails eval` both evaluate at the training
    batch size, which keeps their numbers equal."""
    probs_parts, pred_parts, head_parts = [], [], []
    for start in range(0, len(dataset), batch_size):
        chunk = dataset.inputs[start:start + batch_size]
        outputs = forward_heads(model, chunk)
        ens_probs, ens_preds = soft_vote(outputs, model.vote)
        probs_parts.append(ens_probs)
        pred_parts.append(ens_preds)
        head_parts.append(head_predictions(outputs))
    ens_probs = np.concatenate(probs_parts)
    if not np.isfinite(np.add.reduce(ens_probs, axis=None)):
        raise TrainingDiverged(f"non-finite predictions at step {step}", step=step)
    heads = np.concatenate(head_parts, axis=1)
    ens_preds = np.concatenate(pred_parts)
    labels = dataset.labels
    probs64 = ens_probs.astype(np.float64)  # nll and ece read it without a copy
    mean_nll = nll(probs64, labels)
    report = MetricsReport(
        step=step,
        accuracy=accuracy(ens_preds, labels),
        nll=mean_nll,
        ece=ece(probs64, labels),
        perplexity=perplexity(mean_nll),
        pd=prediction_disagreement(heads) if model.num_heads >= 2 else None,
        flops_cumulative=ledger.cumulative_train if ledger else 0,
        flops_forward_sparse=ledger.forward_sparse if ledger else 0,
        flops_forward_dense=ledger.forward_dense if ledger else 0,
    )
    return report, heads, ens_preds


def _post_prune_forward_bound(model: TrailsModel, sparsity: float) -> int:
    """Upper bound on forward FLOPs after a global prune to `sparsity`.

    Bias and elementwise costs stay dense; the surviving weights are
    charged at the worst per-weight position multiplier, which is exact
    for pure-linear networks.
    """
    weights = sum(ref.mask.size for ref in model.store.refs if ref.mask is not None)
    keep = round_half_up((1.0 - sparsity) * weights)
    return model.fixed_flops + 2 * keep * max(model.flops_multipliers.values(), default=0)


def check_data(model: TrailsModel, **splits: Dataset) -> None:
    """Raise ValueError unless each named split has samples, of a shape the
    network's shape walk accepts, whose labels are classes of its logits."""
    for name, dataset in splits.items():
        if not len(dataset):
            raise ValueError(f"{name} split is empty")
        shape = dataset.inputs.shape[1:]
        try:
            classes = replace(model.spec, input_shape=shape).validate()[-1][0]
        except ValueError as exc:
            raise ValueError(f"{name} samples of shape {shape} do not fit the "
                             f"network: {exc}") from exc
        low, high = int(dataset.labels.min()), int(dataset.labels.max())
        if low < 0 or high >= classes:
            raise ValueError(f"{name} labels out of range [0, {classes}) of the "
                             f"network's logits: min={low}, max={high}")


def validate_run(model: TrailsModel, train_set: Dataset, test_set: Dataset,
                 config: TrainConfig, ledger: FlopsLedger,
                 sparsity_target: float | None = None, start_step: int = 0) -> int:
    """Raise ValueError unless `fit` can run these arguments, changing
    nothing; returns the steps per epoch. Both splits must pass
    `check_data`. The projected cost must fit the dense budget:
    exactly for static/set/rigl (density is conserved), by an upper bound
    for prune_oneshot (re-checked exactly at the prune step)."""
    config.validate()
    if not 0 <= start_step <= config.total_steps:
        raise ValueError(
            f"start step {start_step} outside [0, total_steps={config.total_steps}]")
    check_data(model, train=train_set, test=test_set)
    base = config.dense_base_steps
    cap_sparsity = model.sparsity
    prune_step = None
    if config.topology.strategy == "prune_oneshot":
        if sparsity_target is None:
            raise ValueError("prune_oneshot requires a sparsity target")
        cap_sparsity = sparsity_target
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
    n = len(train_set)
    steps_per_epoch = n // config.batch_size if config.drop_last \
        else -(-n // config.batch_size)
    if steps_per_epoch == 0:
        raise ValueError(
            f"batch size {config.batch_size} exceeds dataset size {n} with drop_last")
    return steps_per_epoch


# the loop's isfinite checks report divergence; numpy's overflow warnings would
# only repeat it (or, under -W error, raise out of the step instead)
@np.errstate(over="ignore", invalid="ignore")
def fit(model: TrailsModel, train_set: Dataset, test_set: Dataset,
        config: TrainConfig, sparsity_target: float | None = None, *,
        start_step: int = 0, optimizer: Optimizer | None = None,
        ledger: FlopsLedger | None = None, on_eval=None,
        on_checkpoint=None) -> TrainHistory:
    """Run the training loop from start_step+1 through total_steps.

    Forward -> composite loss -> backward -> masked optimizer step, the
    same sequence for every model: an independent ensemble draws one batch
    per member, each from its own data stream, and passes them together.
    Every delta_t steps each component (backbone, then every head) gets a
    topology update at the cosine-decayed drop fraction. prune_oneshot
    trains dense, applies one global magnitude prune at the configured
    point (to `sparsity_target`), and fine-tunes with frozen masks. After
    either mask change the optimizer state is zeroed at every position
    the change reports (pruned and grown alike).
    on_eval(report, updates, events) fires per evaluation with the update
    records and events since the previous one;
    on_checkpoint(step, model, optimizer, ledger) fires after every step
    and its return value is ignored. `validate_run`'s checks run first; a
    non-finite gradient or loss raises TrainingDiverged.
    """
    if ledger is None:
        ledger = count_flops(model)
    steps_per_epoch = validate_run(model, train_set, test_set, config, ledger,
                                   sparsity_target, start_step)
    schedule = config.topology
    if optimizer is None:
        optimizer = Optimizer(config, model.named_parameters())

    history = TrainHistory(ledger=ledger)
    # one shuffle seed per independent member, else one for the whole model
    seeds = [Stream(config.seed).child("data", m).seed
             for m in range(model.num_heads if model.independent else 1)]
    ahead = max(1, _ORDERS_AHEAD // (len(seeds) * len(train_set)))
    end_epoch = -(-config.total_steps // steps_per_epoch)   # past the last epoch touched
    prune_step = round_half_up(schedule.prune_at_fraction * config.total_steps) \
        if schedule.strategy == "prune_oneshot" else None
    evaluated_updates = evaluated_events = 0  # history entries on_eval has seen
    masked = [ref for ref in model.component_parameters() if ref.mask is not None]
    by_component = [list(refs) for _, refs in
                    itertools.groupby(masked, key=lambda ref: ref.name.split("/")[0])]

    def reset_state(changes):
        """Zero optimizer state where masks changed, in one call; `changes`
        pairs records with flat positions in them."""
        optimizer.reset_positions(np.concatenate(
            [ref.offset + np.asarray(flat, np.int64) for ref, flat in changes]))

    for t in range(start_step + 1, config.total_steps + 1):
        lr = lr_at(t, config)
        p_t = drop_fraction(t, config.total_steps, schedule.initial_drop_fraction)
        update = schedule.is_update_step(t, config.total_steps)

        epoch, idx = divmod(t - 1, steps_per_epoch)
        if t == start_step + 1 or epoch == group.stop:  # the next epochs' orders
            group = range(epoch, min(epoch + ahead, end_epoch))
            orders = [batches(train_set, config.batch_size, seed, group, config.drop_last)
                      for seed in seeds]
        picked = [order[epoch - group.start][idx] for order in orders]
        drawn = [(train_set.inputs[sel], train_set.labels[sel]) for sel in picked]
        # an independent ensemble passes its members' inputs and labels as lists
        x, y = map(list, zip(*drawn)) if model.independent else drawn[0]
        outputs = forward_heads(model, x, record=True)
        loss, _, probs = composite_loss(outputs, y)
        # checked before the update: a loss can be inf while every gradient is finite
        if not math.isfinite(loss):
            raise TrainingDiverged(f"loss diverged to {loss} at step {t}", step=t)
        model_backward(model, outputs, y, probs)
        del outputs  # the tapes, freed before the optimizer's temporaries
        optimizer.step(lr, step=t)
        ledger.charge_step(len(drawn[0][1]))
        history.steps.append(StepRecord(step=t, loss=loss, lr=lr, drop_fraction=p_t))

        if update:
            changes = []
            for refs in by_component:
                record = topology_update(refs, schedule, t, config.total_steps,
                                         streams=model.topo_streams)
                changes += [(ref, u.pruned + u.grown) for ref, u in zip(refs, record.layers)]
                history.updates.append(record)
            reset_state(changes)

        if prune_step is not None and t == prune_step:
            pruned = one_shot_global_prune(masked, sparsity_target)
            reset_state([(ref, pruned[ref.name]) for ref in masked])
            model.sparsity = sparsity_target
            ledger.forward_sparse = count_flops(model).forward_sparse
            remaining = (config.total_steps - t) * ledger.train_step_flops(
                config.batch_size)
            budget = ledger.dense_budget(config.dense_base_steps, config.batch_size)
            if ledger.cumulative_train + remaining > budget:
                raise ValueError(
                    f"post-prune training cost {ledger.cumulative_train + remaining} "
                    f"exceeds the dense budget {budget}")
            history.events.append({"event": "one_shot_prune", "step": t,
                                   "sparsity": sparsity_target,
                                   "pruned_counts": {k: len(v) for k, v in pruned.items()}})

        if t % config.eval_interval == 0 or t == config.total_steps:
            report, history.head_preds, history.ensemble_preds = evaluate(
                model, test_set, t, ledger, batch_size=config.batch_size)
            report.train_loss, report.lr, report.drop_fraction = loss, lr, p_t
            history.evals.append(report)
            if on_eval is not None:
                on_eval(report, history.updates[evaluated_updates:],
                        history.events[evaluated_events:])
            evaluated_updates, evaluated_events = len(history.updates), len(history.events)

        if on_checkpoint is not None:
            on_checkpoint(t, model, optimizer, ledger)

    return history
