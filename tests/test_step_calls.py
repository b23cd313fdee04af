"""A training step and an evaluation run no Python-level numpy helper.

On small models a step is dispatch-bound: numpy's Python wrappers
(`ndarray.sum/mean/min/max` through `_methods.py`, `np.broadcast_to`,
`np.take_along_axis`, the `fromnumeric` functions) cost more than the
arithmetic behind them. This runs one rings-shaped step (a shared backbone
and three heads of 16-wide linear layers, SGD with momentum) under
`cProfile` and asserts that no function from those modules ran. It counts
calls instead of timing them, so a wrapper that creeps back into the
forward pass, the loss, the backward pass or the optimizer fails on any host.
An evaluation of the same model (soft vote, head predictions and every
metric) is held to the same rule.
"""

import cProfile
import pstats

import numpy as np

from sparsetrails.data import Dataset
from sparsetrails.model import (build_trails, composite_loss, forward_heads, mlp_spec,
                                model_backward)
from sparsetrails.train import Optimizer, TrainConfig, evaluate

HELPER_MODULES = ("numpy/_core/_methods.py", "numpy/_core/fromnumeric.py",
                  "numpy/lib/_shape_base_impl.py", "numpy/lib/_stride_tricks_impl.py")


def rings_model():
    """A shared backbone and three heads of 16-wide linear layers."""
    return build_trails(mlp_spec(2, 16, 6, 2), 3, 3, 0.5, seed=0)


def functions_run(fn) -> list[tuple[str, str]]:
    """(path, name) of every function a second call of `fn` runs; the first
    call may import or cache."""
    fn()
    profile = cProfile.Profile()
    profile.runcall(fn)
    return [(path, name) for path, _, name in pstats.Stats(profile).stats]


def helpers(ran: list[tuple[str, str]]) -> list[str]:
    return [f"{path}:{name}" for path, name in ran
            if path.replace("\\", "/").endswith(HELPER_MODULES)]


def test_a_training_step_calls_no_numpy_helper():
    model = rings_model()
    optimizer = Optimizer(TrainConfig(total_steps=2, weight_decay=5e-4),
                          model.named_parameters())
    rng = np.random.default_rng(0)
    x = rng.standard_normal((128, 2), np.float32)
    y = rng.integers(0, 2, 128)

    def step():
        outputs = forward_heads(model, x, record=True)
        _, _, probs = composite_loss(outputs, y)
        model_backward(model, outputs, y, probs)
        optimizer.step(0.1)

    ran = functions_run(step)
    assert any(name == "loss_forward" for _, name in ran)  # the profile saw the step
    assert helpers(ran) == []


def test_an_evaluation_calls_no_numpy_helper():
    model = rings_model()
    rng = np.random.default_rng(0)
    test_set = Dataset(rng.standard_normal((400, 2), np.float32), rng.integers(0, 2, 400), 2)
    ran = functions_run(lambda: evaluate(model, test_set, 0, batch_size=400))
    names = {name for _, name in ran}
    assert {"soft_vote", "head_predictions", "accuracy", "nll", "ece",
            "prediction_disagreement"} <= names  # the profile saw every metric
    assert helpers(ran) == []
