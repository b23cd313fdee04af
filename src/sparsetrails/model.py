"""Multi-head sparse models: a shared backbone feeding M independent heads.

A block-sequential base network (stem, blocks, classifier) is split at a
block index: stem plus the first `split_index` blocks form the shared
backbone, the remaining blocks plus the classifier are replicated into M
heads with independently initialized weights and masks. The backbone runs
once per batch; the heads, stored stacked, run as one pass on its output.
Inference soft-votes the heads (mean of per-head softmax probabilities by
default, mean of logits optionally).

`build_independent_ensemble` covers the classic full-ensemble baseline:
an empty backbone and M whole-network heads, each reading its own batch
and keeping its own unscaled loss.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import nn
from .nn import Layer, LayerSpec, ParamRef, ParamStore
from .rng import Stream
from .sparsity import SparsityPlan, allocate, init_masks


@dataclass
class NetworkSpec:
    """Block-sequential architecture: stem, L blocks, classifier."""

    input_shape: tuple[int, ...]
    stem: list[LayerSpec]
    blocks: list[list[LayerSpec]]
    classifier: list[LayerSpec]

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def flat_layers(self) -> list[LayerSpec]:
        flat = list(self.stem)
        for block in self.blocks:
            flat.extend(block)
        flat.extend(self.classifier)
        return flat

    def validate(self) -> list[tuple[int, ...]]:
        """Propagate shapes through all layers; returns each flat layer's
        per-sample output shape, the last one the class logits."""
        if not self.blocks:
            raise ValueError("network needs at least one block")
        if not self.classifier:
            raise ValueError("network needs a classifier")
        shapes = [tuple(self.input_shape)]
        for i, spec in enumerate(self.flat_layers()):
            shapes.append(activation_shape(spec, shapes[-1], where=f"layer {i}"))
        if len(shapes[-1]) != 1:
            raise ValueError(f"classifier must produce class logits, got shape {shapes[-1]}")
        return shapes[1:]


def activation_shape(spec: LayerSpec, in_shape: tuple[int, ...], where: str = "layer"):
    """Per-sample output shape of a layer given its per-sample input shape."""
    if spec.kind == "relu":
        return in_shape
    if spec.kind == "linear":
        features = int(np.prod(in_shape))
        if features != spec.in_dim:
            raise ValueError(
                f"{where}: linear expects {spec.in_dim} features, gets {in_shape}")
        return (spec.out_dim,)
    if spec.kind == "conv2d":
        if len(in_shape) != 3 or in_shape[0] != spec.in_channels:
            raise ValueError(
                f"{where}: conv2d expects ({spec.in_channels}, H, W), gets {in_shape}")
        oh, ow = nn.conv_output_hw(spec, in_shape[1], in_shape[2])
        return (spec.out_channels, oh, ow)
    raise ValueError(f"unknown layer kind {spec.kind!r}")


def mlp_spec(input_dim: int, hidden_dim: int, num_blocks: int,
             num_classes: int) -> NetworkSpec:
    """Plain MLP base: linear+relu stem, num_blocks linear+relu blocks."""
    return NetworkSpec(
        input_shape=(input_dim,),
        stem=[LayerSpec.linear(input_dim, hidden_dim), LayerSpec.relu()],
        blocks=[[LayerSpec.linear(hidden_dim, hidden_dim), LayerSpec.relu()]
                for _ in range(num_blocks)],
        classifier=[LayerSpec.linear(hidden_dim, num_classes)],
    )


def small_cnn_spec(input_shape: tuple[int, int, int], channels: int,
                   num_blocks: int, num_classes: int) -> NetworkSpec:
    """Small conv base: conv stem, conv+relu blocks ("same" padding), linear head."""
    c, h, w = input_shape
    features = channels * h * w
    return NetworkSpec(
        input_shape=input_shape,
        stem=[LayerSpec.conv2d(c, channels, 3, 3, padding="same"), LayerSpec.relu()],
        blocks=[[LayerSpec.conv2d(channels, channels, 3, 3, padding="same"),
                 LayerSpec.relu()] for _ in range(num_blocks)],
        classifier=[LayerSpec.linear(features, num_classes)],
    )


@dataclass
class HeadOutputs:
    logits: np.ndarray  # (M, B, classes)
    backbone_tape: list[np.ndarray] | None = None
    head_tape: list[np.ndarray] | None = None


class TrailsModel:
    """A backbone and M heads, every parameter in one `nn.ParamStore`
    (`store`): the backbone's layers, then the heads' layers stacked
    (`head_stack`: one `nn.Layer` per head layer, arrays (M, ...)). The
    store makes every view the model reads, `heads[m]`'s plain layers over
    head m's slices and the per-component records included, so a deep copy
    of the model is a model on its own store. The forward cost table holds
    names and integers only: `fixed_flops` (bias adds and elementwise work,
    which masks do not change) and, per store weight array,
    `flops_multipliers[name]` (its output positions per channel; each
    active weight costs 2x that)."""

    def __init__(self, spec: NetworkSpec, split_index: int, num_heads: int,
                 sparsity: float, seed: int, store: ParamStore,
                 plans: list[SparsityPlan | None], costs: tuple[int, dict[str, int]],
                 vote: str = "probs"):
        self.spec = spec
        self.split_index = split_index
        self.num_heads = num_heads
        self.sparsity = sparsity
        self.store = store
        self.plans = plans
        self.fixed_flops, self.flops_multipliers = costs
        self.vote = vote
        # an independent ensemble's members each read their own batch and
        # keep an unscaled loss (set by build_independent_ensemble)
        self.independent = False
        # live streams for stochastic pruning / random regrowth, one per masked
        # weight record, keyed "component/layer" as checkpoints store them
        self.topo_streams: dict[str, Stream] = {}
        master = Stream(seed)
        for index, (comp, layers) in enumerate(store.components.items()):
            for li, layer in enumerate(layers):
                if layer.weight is not None:
                    self.topo_streams[f"{comp}/{li}"] = master.child("topo", index, li)

    # -- structure ----------------------------------------------------------

    @property
    def backbone(self) -> list[Layer]:
        return self.store.layers["backbone"]

    @property
    def head_stack(self) -> list[Layer]:
        return self.store.layers["heads"]

    @property
    def heads(self) -> list[list[Layer]]:
        return self.components()[1:]

    def components(self) -> list[list[Layer]]:
        return list(self.store.components.values())

    def named_parameters(self) -> list[ParamRef]:
        """The store's parameters: the backbone's, then the heads' stacked
        ones (M, ...)."""
        return self.store.refs

    def component_parameters(self) -> list[ParamRef]:
        """Every component's own parameters, backbone then head 0, 1, ...,
        named `component/layer/kind`; a head's are its slices of the stacked
        ones, each a range of the store starting at its `offset`. Topology
        updates, pruning, optimizer resets and checkpoints all read these."""
        return self.store.records


def _build_component(layers: list[Layer], sparsity: float, allocation: str,
                     master: Stream, comp_idx: int) -> SparsityPlan | None:
    """Initialise a component's zeroed layers in place: its masks, then its
    weights and biases."""
    specs = [layer.spec for layer in layers]
    plan = None
    if any(spec.weight_size for spec in specs):
        plan = allocate(specs, sparsity, allocation)
        init_masks(plan, [layers[i].weight.mask for i in plan.layer_indices],
                   [master.child("mask", comp_idx, i) for i in plan.layer_indices])
    for i, layer in enumerate(layers):
        nn.init_layer(layer, master.child("init", comp_idx, i))
    return plan


def _cost_table(store: ParamStore, shapes: list[tuple[int, ...]]) -> tuple[int, dict]:
    """`TrailsModel`'s cost table in `train.FlopsLedger`'s convention, from
    the per-sample output shape of each of the store's layers in order; a
    stacked group's fixed costs count once per head."""
    fixed, multipliers = 0, {}
    shapes = iter(shapes)
    for group, (specs, names) in store.groups.items():
        for li, spec in enumerate(specs):
            shape = next(shapes)
            if spec.weight_shape is not None:
                # the output positions each weight is applied at (1 for linear)
                multipliers[f"{group}/{li}/weight"] = math.prod(shape[1:])
            if spec.weight_shape is None or spec.has_bias:
                fixed += (1 if names is None else len(names)) * math.prod(shape)
    return fixed, multipliers


def build_trails(spec: NetworkSpec, split_index: int, num_heads: int,
                 sparsity: float, allocation: str = "er", seed: int = 0,
                 vote: str = "probs") -> TrailsModel:
    """Split the base network and instantiate M independently seeded heads.

    The stem always belongs to the backbone and the classifier to the
    heads, so split_index=0 still shares the stem and split_index=L yields
    M distinct classifiers. Backbone and every head are each allocated to
    the global sparsity independently, each into its own views of the
    parameter store (a head into its slice of the stacked head layers).
    The shape walk that validates the network also makes the cost table.
    """
    shapes = spec.validate()
    if not 0 <= split_index <= spec.num_blocks:
        raise ValueError(
            f"split index {split_index} outside [0, {spec.num_blocks}]")
    if num_heads < 1:
        raise ValueError(f"need at least one head, got {num_heads}")
    if vote not in ("probs", "logits"):
        raise ValueError(f"vote must be 'probs' or 'logits', got {vote!r}")

    backbone_specs = spec.stem + [s for block in spec.blocks[:split_index] for s in block]
    head_specs = [s for block in spec.blocks[split_index:] for s in block] + spec.classifier

    store = ParamStore({"backbone": (backbone_specs, None),
                        "heads": (head_specs, [f"head{m}" for m in range(num_heads)])})
    master = Stream(seed)
    plans = [_build_component(layers, sparsity, allocation, master, comp_idx)
             for comp_idx, layers in enumerate(store.components.values())]
    return TrailsModel(spec=spec, split_index=split_index, num_heads=num_heads,
                       sparsity=sparsity, seed=seed, store=store, plans=plans,
                       costs=_cost_table(store, shapes), vote=vote)


def build_independent_ensemble(spec: NetworkSpec, num_members: int, sparsity: float,
                               allocation: str = "er", seed: int = 0,
                               vote: str = "probs") -> TrailsModel:
    """Full-ensemble baseline: M complete networks, nothing shared. The stem
    is folded into the first block, so the backbone is empty and member i
    draws from component i+1's streams at the network's flat layer indices."""
    blocks = [spec.stem + spec.blocks[0]] + spec.blocks[1:] if spec.blocks else []
    model = build_trails(NetworkSpec(input_shape=spec.input_shape, stem=[], blocks=blocks,
                                     classifier=spec.classifier),
                         0, num_members, sparsity, allocation, seed, vote)
    model.independent = True
    return model


# ---------------------------------------------------------------------------
# forward / loss / backward
# ---------------------------------------------------------------------------

def forward_heads(model: TrailsModel, batch: np.ndarray | list[np.ndarray],
                  record: bool = False) -> HeadOutputs:
    """Backbone once, then all heads in one pass over the stacked head layers,
    reading the backbone output as one shared input. An independent
    ensemble also takes a list of one batch per member, stacked (M, B, ...)."""
    per_member = isinstance(batch, list)
    if per_member and not model.independent:
        raise ValueError("one batch per head needs an independent ensemble")
    h, bb_tape = nn.stack_forward(model.backbone, np.stack(batch) if per_member else batch,
                                  record=record)
    logits, head_tape = nn.stack_forward(model.head_stack, h if per_member else h[None],
                                         record=record)
    return HeadOutputs(logits=logits, backbone_tape=bb_tape, head_tape=head_tape)


def composite_loss(outputs: HeadOutputs, targets: np.ndarray | list[np.ndarray]
                   ) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean of the per-head cross-entropy losses; also returns the per-head
    losses (M,) and softmax probabilities (M, B, classes). `targets` is one
    array, or a list of one per head for per-member batches."""
    losses, probs = nn.loss_forward(outputs.logits, _targets(targets))
    return float(np.add.reduce(losses) / losses.size), losses, probs


def _targets(targets: np.ndarray | list[np.ndarray]) -> np.ndarray:
    return np.stack(targets) if isinstance(targets, list) else targets


def model_backward(model: TrailsModel, outputs: HeadOutputs,
                   targets: np.ndarray | list[np.ndarray], probs: np.ndarray) -> None:
    """Gradients of the composite loss, written into `model.store.grad`.

    `probs` are the per-head softmax probabilities `composite_loss`
    returned for these outputs and targets. Head losses are scaled by 1/M,
    and the backbone gradient adds up the heads' input gradients in head
    order; independent members keep their own unscaled losses. The
    gradient with respect to the data is not computed: the backbone's first
    layer skips it, or with an empty backbone the heads' first layer.
    Requires forward_heads(record=True).
    """
    if outputs.head_tape is None:
        raise ValueError("backward requires forward_heads(record=True)")
    scale = 1.0 if model.independent else 1.0 / model.num_heads
    d_logits = nn.loss_backward(probs, _targets(targets), scale=scale)
    grads, shared = model.store.grads, bool(model.backbone)
    _, d_h = nn.stack_backward(model.head_stack, outputs.head_tape, d_logits,
                               out=grads["heads"], input_grad=shared)
    nn.stack_backward(model.backbone, outputs.backbone_tape, d_h[0] if shared else None,
                      out=grads["backbone"], input_grad=False)


def soft_vote(outputs: HeadOutputs, vote: str = "probs") -> tuple[np.ndarray, np.ndarray]:
    """Ensemble probabilities and predicted classes (argmax, lowest index wins)."""
    if vote == "probs":
        ens = nn.softmax(outputs.logits).mean(axis=0)
    elif vote == "logits":
        ens = nn.softmax(outputs.logits.mean(axis=0))
    else:
        raise ValueError(f"vote must be 'probs' or 'logits', got {vote!r}")
    return ens, np.argmax(ens, axis=1)


def head_predictions(outputs: HeadOutputs) -> np.ndarray:
    """Per-head argmax classes, shape (M, batch)."""
    return np.argmax(outputs.logits, axis=-1)
