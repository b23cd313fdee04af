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
metric) is held to the same rule, and so are a cnn-shaped step (a conv
backbone and three conv heads, Adam) and its evaluation. Each step runs
twice: its optimizer over the whole store in one block, and over many
small ones.
"""

import cProfile
import pstats

import numpy as np
import pytest

import sparsetrails.train as train_module
from sparsetrails.data import Dataset
from sparsetrails.model import (build_trails, composite_loss, forward_heads, mlp_spec,
                                model_backward, small_cnn_spec)
from sparsetrails.train import Optimizer, TrainConfig, evaluate

HELPER_MODULES = ("numpy/_core/_methods.py", "numpy/_core/fromnumeric.py",
                  "numpy/lib/_shape_base_impl.py", "numpy/lib/_stride_tricks_impl.py")


def rings_model():
    """A shared backbone and three heads of 16-wide linear layers."""
    return build_trails(mlp_spec(2, 16, 6, 2), 3, 3, 0.5, seed=0)


def cnn_model():
    """cnn-idx-set's network: a conv stem and block in the backbone, two conv
    blocks and the linear classifier in each of three heads."""
    return build_trails(small_cnn_spec((1, 14, 14), 8, 3, 10), 1, 3, 0.8, "erk", seed=0)


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


def steps():
    """(model, optimizer config, a batch's inputs and labels) of each shape."""
    rng = np.random.default_rng(0)
    yield (rings_model(), TrainConfig(total_steps=2, weight_decay=5e-4),
           rng.standard_normal((128, 2), np.float32), rng.integers(0, 2, 128))
    yield (cnn_model(), TrainConfig(total_steps=2, optimizer="adam", lr=0.01, weight_decay=0.0),
           rng.standard_normal((32, 1, 14, 14), np.float32), rng.integers(0, 10, 32))


@pytest.mark.parametrize("blocks", [False, True], ids=["one-block", "many-blocks"])
@pytest.mark.parametrize("model,config,x,y", steps(), ids=["rings", "cnn"])
def test_a_training_step_calls_no_numpy_helper(model, config, x, y, blocks, monkeypatch):
    if blocks:  # the optimizer's loop over store blocks, 256 entries a block
        monkeypatch.setattr(train_module, "STEP_BUDGET", 1024)
    optimizer = Optimizer(config, model.named_parameters())
    assert optimizer._edges.size == ((model.store.values.size - 1) // 256 if blocks else 0)

    def step():
        outputs = forward_heads(model, x, record=True)
        _, _, probs = composite_loss(outputs, y)
        model_backward(model, outputs, y, probs)
        optimizer.step(0.1)

    ran = functions_run(step)
    assert any(name == "loss_forward" for _, name in ran)  # the profile saw the step
    assert helpers(ran) == []


@pytest.mark.parametrize("model,shape,classes", [(rings_model(), (2,), 2),
                                                  (cnn_model(), (1, 14, 14), 10)],
                         ids=["rings", "cnn"])
def test_an_evaluation_calls_no_numpy_helper(model, shape, classes):
    rng = np.random.default_rng(0)
    test_set = Dataset(rng.standard_normal((400, *shape), np.float32),
                       rng.integers(0, classes, 400), classes)
    ran = functions_run(lambda: evaluate(model, test_set, 0, batch_size=400))
    names = {name for _, name in ran}
    assert {"soft_vote", "head_predictions", "accuracy", "nll", "ece",
            "prediction_disagreement"} <= names  # the profile saw every metric
    assert helpers(ran) == []
