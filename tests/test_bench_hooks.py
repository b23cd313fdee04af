"""The benchmark's tracing hooks see every layer call of a training step
and every random draw of a model build.

`bench/spans.py` times layers by replacing `nn.layer_forward` with a
`(layer, x)` wrapper, and counts `nn.stack_forward`/`nn.stack_backward`
calls as backbone or heads dispatches. `bench/test_smoke.py` runs only the
rings and cnn workloads, so this runs a 4-head wide-style model and an
independent ensemble through the same wrappers, and builds one under the
set-up wrappers behind `rng.draws`, `sparsity.init_masks_s` and `nn.init_s`.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from sparsetrails import nn, train
from sparsetrails.data import Dataset
from sparsetrails.model import NetworkSpec, build_independent_ensemble, build_trails
from sparsetrails.nn import LayerSpec
from sparsetrails.topology import TopologySchedule
from sparsetrails.train import TrainConfig, fit

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from spans import Patches, Tracer  # noqa: E402


def wide_spec(width: int = 32) -> NetworkSpec:
    return NetworkSpec(
        input_shape=(1, 4, 4),
        stem=[LayerSpec.linear(16, width), LayerSpec.relu()],
        blocks=[[LayerSpec.linear(width, width), LayerSpec.relu()] for _ in range(4)],
        classifier=[LayerSpec.linear(width, 10)])


@pytest.mark.parametrize("independent", [False, True])
def test_every_layer_call_passes_the_benchmark_wrappers(independent):
    model = build_independent_ensemble(wide_spec(), 4, 0.9, seed=0) if independent \
        else build_trails(wide_spec(), 2, 4, 0.9, seed=0)
    rng = np.random.default_rng(0)
    data = Dataset(inputs=rng.random((40, 1, 4, 4), dtype=np.float32),
                   labels=np.arange(40) % 10, num_classes=10)
    config = TrainConfig(total_steps=2, batch_size=8, eval_interval=2,
                         topology=TopologySchedule(strategy="rigl", delta_t=1))
    tracer = Tracer()
    with Patches() as patches:
        patches.wrap(nn, "layer_forward", tracer._layer_forward)
        for name in ("stack_forward", "stack_backward"):
            patches.wrap(nn, name, tracer._stack_pass(f"nn.{name}"))
        patches.wrap(train, "forward_heads", tracer._forward_heads)
        patches.wrap(train, "evaluate", tracer.spanned("train.eval", "eval"))
        index = tracer.open("train.fit")
        fit(model, data, data, config)
        tracer.close(index)

    def per_step(span):
        return tracer.within(span, "train.fit", "train.eval") / config.total_steps

    assert [per_step(f"{name}.{part}") for name in ("nn.stack_forward", "nn.stack_backward")
            for part in ("backbone", "heads")] == [1, 1, 1, 1]
    layer_calls = sum(per_step(f"nn.{kind}.fwd") for kind in ("linear", "conv2d", "relu"))
    assert layer_calls == len(model.backbone) + len(model.head_stack)


def test_every_setup_draw_passes_the_benchmark_wrappers():
    tracer = Tracer()
    with Patches() as patches:
        tracer.install(patches)
        model = build_trails(wide_spec(), 2, 4, 0.9, seed=0)

    def spans(name, parent=None):
        return [i for i, n in enumerate(tracer.names) if n == name and (
            parent is None or tracer.parents[i] >= 0
            and tracer.names[tracer.parents[i]] == parent)]

    head_specs = [layer.spec for layer in model.head_stack]
    components = [[layer.spec for layer in model.backbone], *[head_specs] * model.num_heads]
    assert len(spans("sparsity.init_masks")) == len(components) == len(model.plans)
    # one rng.draw per mask, drawing the layer's budget
    budgets = [b for plan in model.plans for b in plan.budgets]
    mask_draws = spans("rng.draw", "sparsity.init_masks")
    assert [tracer.values[i] for i in mask_draws] == budgets
    assert budgets == [int(np.count_nonzero(ref.mask))
                       for ref in model.component_parameters() if ref.mask is not None]
    assert len(spans("nn.init")) == sum(len(specs) for specs in components)
    # rng.draws counts the masks' picks and every weight and bias drawn dense
    dense = sum(s.weight_size + (s.out_dim if s.has_bias else 0)
                for specs in components for s in specs)
    assert tracer.rng_split()[2] == sum(budgets) + dense
