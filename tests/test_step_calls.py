"""A training step runs no Python-level numpy helper.

On small models a step is dispatch-bound: numpy's Python wrappers
(`ndarray.sum/mean/min/max` through `_methods.py`, `np.broadcast_to`,
`np.take_along_axis`, the `fromnumeric` functions) cost more than the
arithmetic behind them. This runs one rings-shaped step (a shared backbone
and three heads of 16-wide linear layers, SGD with momentum) under
`cProfile` and asserts that no function from those modules ran. It counts
calls instead of timing them, so a wrapper that creeps back into the
forward pass, the loss, the backward pass or the optimizer fails on any host.
"""

import cProfile
import pstats

import numpy as np

from sparsetrails.model import (build_trails, composite_loss, forward_heads, mlp_spec,
                                model_backward)
from sparsetrails.train import Optimizer, TrainConfig

HELPER_MODULES = ("numpy/_core/_methods.py", "numpy/_core/fromnumeric.py",
                  "numpy/lib/_shape_base_impl.py", "numpy/lib/_stride_tricks_impl.py")


def test_a_training_step_calls_no_numpy_helper():
    model = build_trails(mlp_spec(2, 16, 6, 2), 3, 3, 0.5, seed=0)
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

    step()  # first calls may import or cache
    profile = cProfile.Profile()
    profile.runcall(step)
    ran = [(path, name) for path, _, name in pstats.Stats(profile).stats]
    assert any(name == "loss_forward" for _, name in ran)  # the profile saw the step
    assert [f"{path}:{name}" for path, name in ran
            if path.replace("\\", "/").endswith(HELPER_MODULES)] == []
