"""Experiment configuration: JSON schema, validation, and object builders.

Configs are plain JSON; every field is validated up front with a
field-path error message and unknown keys are rejected, so a run never
starts from a silently-misread file. The fully-resolved config (defaults
filled in) is what gets snapshotted next to the run artifacts and hashed
into checkpoints.
"""

import copy
import hashlib
import json
from typing import Any

from .data import (Dataset, SYNTHETIC_KINDS, apply_normalization, gen_synthetic,
                   load_idx, normalize, split)
from .model import (NetworkSpec, TrailsModel, build_independent_ensemble,
                    build_trails, mlp_spec, small_cnn_spec)
from .nn import LayerSpec
from .rng import Stream
from .topology import TopologySchedule
from .train import TrainConfig


class ConfigError(ValueError):
    def __init__(self, field_path: str, message: str):
        super().__init__(f"{field_path}: {message}")
        self.field = field_path


DEFAULTS: dict[str, Any] = {
    "seed": 0,
    "out_dir": "runs/out",
    "dataset": {
        "kind": "rings",
        "n": 2000,
        "noise": 0.1,
        "images": None,
        "labels": None,
        "test_images": None,
        "test_labels": None,
        "limit": None,
        "normalize": False,
        "test_fraction": 0.2,
        "seed": None,
    },
    "network": {
        "kind": "mlp",
        "input_dim": 2,
        "hidden_dim": 32,
        "blocks": 6,
        "classes": 2,
        "input_shape": None,
        "channels": 8,
        "stem": None,        # layers kind: explicit LayerSpec dicts
        "classifier": None,
    },
    "split_index": 3,
    "heads": 3,
    "sparsity": 0.5,
    "allocation": "er",
    "independent_members": False,
    "vote": "probs",
    "topology": {
        "strategy": "rigl",
        "prune_method": "magnitude",
        "soft_temperature": 3.0,
        "normalize_by_mean": True,
        "delta_t": 100,
        "initial_drop_fraction": 0.5,
        "stop_fraction": 0.0,
        "prune_at_fraction": 0.5,
    },
    "train": {
        "optimizer": "sgd_momentum",
        "momentum": 0.9,
        "weight_decay": 5e-4,
        "beta1": 0.9,
        "beta2": 0.999,
        "adam_eps": 1e-8,
        "lr": 0.1,
        "schedule": "step_decay",
        "milestones": [0.25, 0.5, 0.75],
        "decay_factor": 0.1,
        "warmup_fraction": 0.1,
        "min_lr_fraction": 0.1,
        "batch_size": 128,
        "total_steps": 1000,
        "base_steps": None,
        "drop_last": False,
    },
    "eval_interval": 100,
    "checkpoint_every": None,
}


def _merge_defaults(raw: dict, defaults: dict, path: str = "") -> dict:
    out = copy.deepcopy(defaults)
    for key, value in raw.items():
        here = f"{path}.{key}" if path else key
        if key not in defaults:
            raise ConfigError(here, "unknown field")
        if isinstance(defaults[key], dict) and defaults[key]:
            if not isinstance(value, dict):
                raise ConfigError(here, f"expected an object, got {type(value).__name__}")
            out[key] = _merge_defaults(value, defaults[key], here)
        else:
            out[key] = value
    return out


def _require(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise ConfigError(path, message)


# The JSON type of each field whose default is null.
_NULL_FIELD_TYPES = {
    "dataset.images": "string", "dataset.labels": "string",
    "dataset.test_images": "string", "dataset.test_labels": "string",
    "dataset.limit": "integer", "dataset.seed": "integer",
    "network.input_shape": "array", "network.stem": "array",
    "network.classifier": "array", "train.base_steps": "integer",
    "checkpoint_every": "integer",
}


def _json_type(value) -> str:
    for kind, name in ((bool, "boolean"), (int, "integer"), (float, "number"),
                       (str, "string"), (list, "array"), (dict, "object")):
        if isinstance(value, kind):
            return name
    return "null"


def _check_types(cfg: dict, defaults: dict, path: str = "") -> None:
    """Every field has its default's JSON type. A number field also takes an
    integer, a field whose default is null takes null or the type in
    _NULL_FIELD_TYPES, and network.blocks is a list of layer lists for kind
    "layers"."""
    for key, default in defaults.items():
        here = f"{path}.{key}" if path else key
        if isinstance(default, dict) and default:
            _check_types(cfg[key], default, here)
            continue
        want = _NULL_FIELD_TYPES[here] if default is None else _json_type(default)
        allowed = {want, "null"} if default is None else {want}
        if want == "number":
            allowed.add("integer")
        if here == "network.blocks" and cfg["kind"] == "layers":
            allowed = {"array"}
        got = _json_type(cfg[key])
        _require(got in allowed, here, f"must be {' or '.join(sorted(allowed))}, got {got}")


def validate_resolved(cfg: dict) -> None:
    _check_types(cfg, DEFAULTS)

    ds = cfg["dataset"]
    _require(ds["kind"] in SYNTHETIC_KINDS + ("idx",), "dataset.kind",
             f"must be one of {SYNTHETIC_KINDS + ('idx',)}")
    if ds["kind"] == "idx":
        _require(ds["images"] is not None, "dataset.images", "required for idx datasets")
        _require(ds["labels"] is not None, "dataset.labels", "required for idx datasets")
    else:
        _require(ds["n"] >= 2, "dataset.n", "must be >= 2")
        _require(ds["noise"] >= 0, "dataset.noise", "must be nonnegative")
    for given, needed in (("test_images", "test_labels"), ("test_labels", "test_images")):
        _require(ds[given] is None or ds[needed] is not None, f"dataset.{needed}",
                 f"required with dataset.{given}")
    _require(ds["limit"] is None or ds["limit"] >= 1, "dataset.limit",
             "must be a positive integer or null")
    _require(0.0 < ds["test_fraction"] < 1.0, "dataset.test_fraction", "must be in (0, 1)")

    net = cfg["network"]
    _require(net["kind"] in ("mlp", "cnn", "layers"), "network.kind",
             "must be mlp, cnn, or layers")
    if net["kind"] == "mlp":
        for key in ("input_dim", "hidden_dim", "blocks", "classes"):
            _require(net[key] >= 1, f"network.{key}", "must be a positive integer")
    elif net["kind"] == "cnn":
        _require(net["input_shape"] is not None and len(net["input_shape"]) == 3,
                 "network.input_shape", "must be [channels, height, width]")
        for key in ("channels", "blocks", "classes"):
            _require(net[key] >= 1, f"network.{key}", "must be a positive integer")

    _require(cfg["split_index"] >= 0, "split_index", "must be a nonnegative integer")
    _require(cfg["heads"] >= 1, "heads", "must be a positive integer")
    _require(0.0 <= cfg["sparsity"] < 1.0, "sparsity", "must be in [0, 1)")
    _require(cfg["allocation"] in ("uniform", "er", "erk"), "allocation",
             "must be uniform, er, or erk")
    _require(cfg["vote"] in ("probs", "logits"), "vote", "must be probs or logits")
    _require(cfg["eval_interval"] >= 1, "eval_interval", "must be a positive integer")
    _require(cfg["checkpoint_every"] is None or cfg["checkpoint_every"] >= 1,
             "checkpoint_every", "must be a positive integer or null")

    try:
        make_topology(cfg).validate()
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError("topology", str(exc)) from exc
    try:
        make_train_config(cfg).validate()
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError("train", str(exc)) from exc
    spec = network_spec(cfg)  # raises on inconsistent layer shapes
    _require(cfg["split_index"] <= spec.num_blocks, "split_index",
             f"must be <= the network's block count ({spec.num_blocks})")


def resolve(raw: dict, seed: int | None = None, out_dir: str | None = None) -> dict:
    """Merge defaults, apply CLI overrides, and validate; returns the snapshot dict."""
    cfg = _merge_defaults(raw, DEFAULTS)
    if seed is not None:
        cfg["seed"] = seed
    if out_dir is not None:
        cfg["out_dir"] = out_dir
    validate_resolved(cfg)
    return cfg


def load_config(path: str, seed: int | None = None, out_dir: str | None = None) -> dict:
    with open(path) as f:
        try:
            raw = json.load(f)
        except json.JSONDecodeError as exc:
            raise ConfigError("<file>", f"invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("<file>", "top level must be a JSON object")
    return resolve(raw, seed=seed, out_dir=out_dir)


def config_hash(resolved: dict) -> str:
    """Hash of every run-determining field (out_dir is presentation-only)."""
    hashed = {k: v for k, v in resolved.items() if k != "out_dir"}
    canonical = json.dumps(hashed, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def _layer_from_dict(d: dict, path: str) -> LayerSpec:
    kind = d.get("kind")
    try:
        if kind == "linear":
            return LayerSpec.linear(d["in"], d["out"], has_bias=d.get("bias", True))
        if kind == "conv2d":
            return LayerSpec.conv2d(d["in_channels"], d["out_channels"],
                                    d["kernel_h"], d["kernel_w"],
                                    padding=d.get("padding", "valid"),
                                    has_bias=d.get("bias", True))
        if kind == "relu":
            return LayerSpec.relu()
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(path, f"bad layer: {exc}") from exc
    raise ConfigError(path, f"unknown layer kind {kind!r}")


def network_spec(cfg: dict) -> NetworkSpec:
    net = cfg["network"]
    if net["kind"] == "mlp":
        spec = mlp_spec(net["input_dim"], net["hidden_dim"], net["blocks"],
                        net["classes"])
    elif net["kind"] == "cnn":
        spec = small_cnn_spec(tuple(net["input_shape"]), net["channels"],
                              net["blocks"], net["classes"])
    else:
        try:
            spec = NetworkSpec(
                input_shape=tuple(net["input_shape"]),
                stem=[_layer_from_dict(l, f"network.stem[{i}]")
                      for i, l in enumerate(net["stem"] or [])],
                blocks=[[_layer_from_dict(l, f"network.blocks[{i}][{j}]")
                         for j, l in enumerate(block)]
                        for i, block in enumerate(net["blocks"])],
                classifier=[_layer_from_dict(l, f"network.classifier[{i}]")
                            for i, l in enumerate(net["classifier"] or [])],
            )
        except (KeyError, TypeError) as exc:
            raise ConfigError("network", f"bad explicit layer list: {exc}") from exc
    try:
        spec.validate()
    except ValueError as exc:
        raise ConfigError("network", str(exc)) from exc
    return spec


def make_topology(cfg: dict) -> TopologySchedule:
    t = cfg["topology"]
    return TopologySchedule(
        strategy=t["strategy"], prune_method=t["prune_method"],
        soft_temperature=t["soft_temperature"],
        normalize_by_mean=t["normalize_by_mean"], delta_t=t["delta_t"],
        initial_drop_fraction=t["initial_drop_fraction"],
        stop_fraction=t["stop_fraction"], prune_at_fraction=t["prune_at_fraction"],
        horizon=cfg["train"]["total_steps"],
    )


def make_train_config(cfg: dict) -> TrainConfig:
    t = cfg["train"]
    return TrainConfig(
        total_steps=t["total_steps"], optimizer=t["optimizer"],
        momentum=t["momentum"], weight_decay=t["weight_decay"], beta1=t["beta1"],
        beta2=t["beta2"], adam_eps=t["adam_eps"], lr=t["lr"],
        schedule=t["schedule"], milestones=tuple(t["milestones"]),
        decay_factor=t["decay_factor"], warmup_fraction=t["warmup_fraction"],
        min_lr_fraction=t["min_lr_fraction"], batch_size=t["batch_size"],
        base_steps=t["base_steps"], drop_last=t["drop_last"],
        eval_interval=cfg["eval_interval"], seed=cfg["seed"],
        topology=make_topology(cfg),
    )


def make_model(cfg: dict) -> TrailsModel:
    spec = network_spec(cfg)
    # one-shot pruning starts from a dense model and reaches the target later
    build_sparsity = 0.0 if cfg["topology"]["strategy"] == "prune_oneshot" \
        else cfg["sparsity"]
    if cfg["independent_members"]:
        return build_independent_ensemble(spec, cfg["heads"], build_sparsity,
                                          allocation=cfg["allocation"],
                                          seed=cfg["seed"], vote=cfg["vote"])
    return build_trails(spec, cfg["split_index"], cfg["heads"], build_sparsity,
                        allocation=cfg["allocation"], seed=cfg["seed"],
                        vote=cfg["vote"])


def make_dataset(cfg: dict) -> tuple[Dataset, Dataset]:
    ds = cfg["dataset"]
    data_seed = ds["seed"] if ds["seed"] is not None \
        else Stream(cfg["seed"]).child("dataset").seed
    if ds["kind"] == "idx":
        train = load_idx(ds["images"], ds["labels"], limit=ds["limit"])
        if ds["test_images"] is not None:
            test = load_idx(ds["test_images"], ds["test_labels"], limit=ds["limit"])
        else:
            train, test = split(train, ds["test_fraction"], seed=data_seed)
    else:
        full = gen_synthetic(ds["kind"], ds["n"], ds["noise"], seed=data_seed)
        train, test = split(full, ds["test_fraction"], seed=data_seed)
    if ds["normalize"]:
        train = normalize(train)
        test = apply_normalization(test, train)
    return train, test
