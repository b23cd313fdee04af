"""Desk-scale dynamic sparse training for shared-backbone multi-head ensembles."""

from .nn import LayerSpec, MaskedTensor
from .model import (NetworkSpec, TrailsModel, build_independent_ensemble,
                    build_trails, composite_loss, forward_heads, mlp_spec,
                    small_cnn_spec, soft_vote)
from .sparsity import SparsityPlan, allocate, init_masks
from .topology import TopologySchedule, UpdateRecord, drop_fraction, \
    one_shot_global_prune, select_grow, select_prune, topology_update
from .train import (FlopsLedger, Optimizer, TrainConfig, TrainingDiverged,
                    count_flops, evaluate, extension_cap, fit, lr_at)
from .metrics import (DisagreementRecord, MetricsReport, accuracy,
                      disagreement_breakdown, ece, nll, perplexity,
                      prediction_disagreement)
from .data import Dataset, batches, gen_synthetic, load_idx, split

__all__ = [
    "LayerSpec", "MaskedTensor", "NetworkSpec", "TrailsModel",
    "build_trails", "build_independent_ensemble", "forward_heads",
    "composite_loss", "soft_vote", "mlp_spec", "small_cnn_spec",
    "SparsityPlan", "allocate", "init_masks",
    "TopologySchedule", "UpdateRecord", "drop_fraction", "select_prune",
    "select_grow", "topology_update", "one_shot_global_prune",
    "TrainConfig", "TrainingDiverged", "Optimizer", "FlopsLedger",
    "count_flops", "evaluate", "extension_cap", "fit", "lr_at",
    "MetricsReport", "DisagreementRecord", "accuracy", "nll", "ece",
    "perplexity", "prediction_disagreement", "disagreement_breakdown",
    "Dataset", "batches", "gen_synthetic", "load_idx", "split",
]
