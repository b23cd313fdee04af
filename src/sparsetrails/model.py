"""Multi-head sparse models: a shared backbone feeding M independent heads.

A block-sequential base network (stem, blocks, classifier) is split at a
block index: stem plus the first `split_index` blocks form the shared
backbone, the remaining blocks plus the classifier are replicated into M
heads with independently initialized weights and masks. The backbone runs
once per batch; heads run on its cached output. Inference soft-votes the
heads (mean of per-head softmax probabilities by default, mean of logits
optionally).

`build_independent_ensemble` covers the classic full-ensemble baseline:
no shared layers at all, each member owning its own stem, trained with
independent losses.
"""

import copy
from dataclasses import dataclass, field

import numpy as np

from . import nn
from .nn import GradientSet, Layer, LayerSpec, MaskedTensor
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

    def validate(self) -> int:
        """Propagate shapes through all layers; returns the class count."""
        if not self.blocks:
            raise ValueError("network needs at least one block")
        if not self.classifier:
            raise ValueError("network needs a classifier")
        shape = tuple(self.input_shape)
        for i, spec in enumerate(self.flat_layers()):
            shape = activation_shape(spec, shape, where=f"layer {i}")
        if len(shape) != 1:
            raise ValueError(f"classifier must produce class logits, got shape {shape}")
        return shape[0]


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
class ParamRef:
    """Named handle onto a live parameter array (and its mask, for weights)."""

    name: str
    array: np.ndarray
    mask: np.ndarray | None


@dataclass
class HeadOutputs:
    logits: list[np.ndarray]
    backbone_output: np.ndarray
    backbone_tape: list[np.ndarray] | None = None
    head_tapes: list[list[np.ndarray] | None] = field(default_factory=list)

    @property
    def num_heads(self) -> int:
        return len(self.logits)


class TrailsModel:
    def __init__(self, spec: NetworkSpec, split_index: int, num_heads: int,
                 sparsity: float, allocation: str, seed: int,
                 backbone: list[Layer], heads: list[list[Layer]],
                 plans: list[SparsityPlan | None], vote: str = "probs",
                 independent: bool = False):
        self.spec = spec
        self.split_index = split_index
        self.num_heads = num_heads
        self.sparsity = sparsity
        self.allocation = allocation
        self.seed = seed
        self.backbone = backbone
        self.heads = heads
        self.plans = plans
        self.vote = vote
        self.independent = independent
        self.backbone_forward_count = 0
        # live streams for stochastic pruning / random regrowth, one per
        # (component, layer); checkpointable
        self.topo_streams: dict[tuple[int, int], Stream] = {}
        master = Stream(seed)
        for comp_idx, layers in enumerate(self.components()):
            for layer_idx, layer in enumerate(layers):
                if layer.weight is not None:
                    self.topo_streams[(comp_idx, layer_idx)] = master.child(
                        "topo", comp_idx, layer_idx)

    # -- structure ----------------------------------------------------------

    def components(self) -> list[list[Layer]]:
        return [self.backbone] + self.heads

    def component_names(self) -> list[str]:
        return ["backbone"] + [f"head{i}" for i in range(self.num_heads)]

    def named_parameters(self) -> list[ParamRef]:
        refs = []
        for comp_name, layers in zip(self.component_names(), self.components()):
            for li, layer in enumerate(layers):
                if layer.weight is not None:
                    refs.append(ParamRef(name=f"{comp_name}/{li}/weight",
                                         array=layer.weight.values,
                                         mask=layer.weight.mask))
                if layer.bias is not None:
                    refs.append(ParamRef(name=f"{comp_name}/{li}/bias",
                                         array=layer.bias, mask=None))
        return refs

    def masked_layers(self, comp_idx: int) -> list[tuple[int, MaskedTensor]]:
        layers = self.components()[comp_idx]
        return [(li, layer.weight) for li, layer in enumerate(layers)
                if layer.weight is not None]

    def astype_copy(self, dtype) -> "TrailsModel":
        clone = copy.copy(self)
        clone.backbone = nn.stack_astype(self.backbone, dtype)
        clone.heads = [nn.stack_astype(h, dtype) for h in self.heads]
        clone.topo_streams = {}
        return clone


def _build_component(specs: list[LayerSpec], sparsity: float, allocation: str,
                     master: Stream, comp_idx: int) -> tuple[list[Layer], SparsityPlan | None]:
    maskable = [i for i, s in enumerate(specs) if s.weight_size > 0]
    plan = None
    masks: dict[int, np.ndarray] = {}
    if maskable:
        plan = allocate(specs, sparsity, allocation)
        streams = [master.child("mask", comp_idx, i) for i in plan.layer_indices]
        masks = init_masks(plan, specs, streams)
    layers = []
    for i, spec in enumerate(specs):
        layers.append(nn.init_layer(spec, master.child("init", comp_idx, i),
                                    mask=masks.get(i)))
    return layers, plan


def build_trails(spec: NetworkSpec, split_index: int, num_heads: int,
                 sparsity: float, allocation: str = "er", seed: int = 0,
                 vote: str = "probs") -> TrailsModel:
    """Split the base network and instantiate M independently seeded heads.

    The stem always belongs to the backbone and the classifier to the
    heads, so split_index=0 still shares the stem and split_index=L yields
    M distinct classifiers. Backbone and every head are each allocated to
    the global sparsity independently.
    """
    spec.validate()
    if not 0 <= split_index <= spec.num_blocks:
        raise ValueError(
            f"split index {split_index} outside [0, {spec.num_blocks}]")
    if num_heads < 1:
        raise ValueError(f"need at least one head, got {num_heads}")
    if vote not in ("probs", "logits"):
        raise ValueError(f"vote must be 'probs' or 'logits', got {vote!r}")

    backbone_specs = list(spec.stem)
    for block in spec.blocks[:split_index]:
        backbone_specs.extend(block)
    head_specs = []
    for block in spec.blocks[split_index:]:
        head_specs.extend(block)
    head_specs.extend(spec.classifier)

    master = Stream(seed)
    backbone, bb_plan = _build_component(backbone_specs, sparsity, allocation, master, 0)
    heads, plans = [], [bb_plan]
    for i in range(num_heads):
        head, plan = _build_component(head_specs, sparsity, allocation, master, i + 1)
        heads.append(head)
        plans.append(plan)
    return TrailsModel(spec=spec, split_index=split_index, num_heads=num_heads,
                       sparsity=sparsity, allocation=allocation, seed=seed,
                       backbone=backbone, heads=heads, plans=plans, vote=vote)


def build_independent_ensemble(spec: NetworkSpec, num_members: int, sparsity: float,
                               allocation: str = "er", seed: int = 0,
                               vote: str = "probs") -> TrailsModel:
    """Full-ensemble baseline: M complete networks, nothing shared."""
    spec.validate()
    if num_members < 1:
        raise ValueError(f"need at least one member, got {num_members}")
    member_specs = spec.flat_layers()
    master = Stream(seed)
    heads, plans = [], [None]
    for i in range(num_members):
        member, plan = _build_component(member_specs, sparsity, allocation, master, i + 1)
        heads.append(member)
        plans.append(plan)
    return TrailsModel(spec=spec, split_index=0, num_heads=num_members,
                       sparsity=sparsity, allocation=allocation, seed=seed,
                       backbone=[], heads=heads, plans=plans, vote=vote,
                       independent=True)


# ---------------------------------------------------------------------------
# forward / loss / backward
# ---------------------------------------------------------------------------

def forward_heads(model: TrailsModel, batch: np.ndarray,
                  record: bool = False) -> HeadOutputs:
    """Backbone once, then every head on the cached backbone output."""
    h_s, bb_tape = nn.stack_forward(model.backbone, batch, record=record)
    model.backbone_forward_count += 1
    out = HeadOutputs(logits=[], backbone_output=h_s, backbone_tape=bb_tape)
    for head in model.heads:
        y, tape = nn.stack_forward(head, h_s, record=record)
        out.logits.append(y)
        out.head_tapes.append(tape)
    return out


def composite_loss(outputs: HeadOutputs,
                   targets: np.ndarray) -> tuple[float, list[tuple[float, np.ndarray]]]:
    """Mean of per-head cross-entropy losses; also returns (loss_i, probs_i)."""
    per_head = [nn.loss_forward(y, targets) for y in outputs.logits]
    loss = float(np.mean([l for l, _ in per_head]))
    return loss, per_head


def model_backward(model: TrailsModel, outputs: HeadOutputs, targets: np.ndarray,
                   probs: list[np.ndarray], dense: bool = False) -> dict[str, GradientSet]:
    """Gradients of the composite loss for every component.

    `probs` are the per-head softmax probabilities `composite_loss`
    returned for these outputs. The backbone gradient aggregates all
    heads' contributions scaled by 1/M. Requires forward_heads(record=True);
    dense=True additionally materializes gradients at masked-out weight
    positions.
    """
    if outputs.backbone_tape is None and model.backbone:
        raise ValueError("backward requires forward_heads(record=True)")
    m = model.num_heads
    grads: dict[str, GradientSet] = {}
    d_hs = None
    for i, head in enumerate(model.heads):
        if outputs.head_tapes[i] is None:
            raise ValueError("backward requires forward_heads(record=True)")
        d_logits = nn.loss_backward(probs[i], targets, scale=1.0 / m)
        gs, dx = nn.stack_backward(head, outputs.head_tapes[i], d_logits, dense=dense)
        grads[f"head{i}"] = gs
        d_hs = dx if d_hs is None else d_hs + dx
    if model.backbone:
        gs, _ = nn.stack_backward(model.backbone, outputs.backbone_tape, d_hs,
                                  dense=dense)
        grads["backbone"] = gs
    else:
        grads["backbone"] = GradientSet(layers=[], dense=dense)
    return grads


def soft_vote(outputs: HeadOutputs, vote: str = "probs") -> tuple[np.ndarray, np.ndarray]:
    """Ensemble probabilities and predicted classes (argmax, lowest index wins)."""
    if vote == "probs":
        ens = np.mean([nn.softmax(y) for y in outputs.logits], axis=0)
    elif vote == "logits":
        ens = nn.softmax(np.mean(outputs.logits, axis=0))
    else:
        raise ValueError(f"vote must be 'probs' or 'logits', got {vote!r}")
    return ens, np.argmax(ens, axis=1)


def head_predictions(outputs: HeadOutputs) -> np.ndarray:
    """Per-head argmax classes, shape (M, batch)."""
    return np.stack([np.argmax(y, axis=1) for y in outputs.logits])


def model_finite_difference(model: TrailsModel, batch: np.ndarray, targets: np.ndarray,
                            eps: float = 1e-3) -> dict[str, GradientSet]:
    """Finite-difference oracle for the composite loss (float64 shadow model)."""
    shadow = model.astype_copy(np.float64)
    x64 = np.asarray(batch, dtype=np.float64)

    def loss_fn() -> float:
        outputs = forward_heads(shadow, x64)
        loss, _ = composite_loss(outputs, targets)
        return loss

    result: dict[str, GradientSet] = {}
    for comp_name, layers in zip(shadow.component_names(), shadow.components()):
        gs = GradientSet(layers=[], dense=False)
        for layer in layers:
            params, slots = [], []
            if layer.weight is not None:
                params.append((layer.weight.values, layer.weight.mask))
                slots.append("weight")
            if layer.bias is not None:
                params.append((layer.bias, None))
                slots.append("bias")
            lg = nn.LayerGrads()
            for slot, grad in zip(slots, nn.finite_difference_gradient(loss_fn, params, eps)):
                setattr(lg, slot, grad)
            gs.layers.append(lg)
        result[comp_name] = gs
    return result
