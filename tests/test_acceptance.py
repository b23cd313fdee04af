"""End-to-end acceptance battery.

Each test prints one PASS/FAIL line (run with -s to see them inline).
The heavyweight experiments are module-scoped fixtures shared across
criteria; everything is seeded and fully deterministic.
"""

import json
import math
import time
from contextlib import contextmanager
from itertools import combinations

import numpy as np
import pytest

from sparsetrails import nn
from sparsetrails.cli import main as cli_main
from sparsetrails.data import gen_synthetic, split
from sparsetrails.metrics import ece, nll, prediction_disagreement
from sparsetrails.model import (NetworkSpec, build_independent_ensemble,
                                build_trails, mlp_spec)
from sparsetrails.nn import (LayerSpec, MaskedTensor, loss_forward,
                             stack_backward, stack_forward)
from sparsetrails.rng import Stream
from sparsetrails.sparsity import allocate, round_half_up
from sparsetrails.topology import TopologySchedule, select_grow, select_prune
from sparsetrails.train import (Optimizer, TrainConfig, count_flops, fit)

from conftest import gradcheck_stack, max_relative_error
from oracles import stack_finite_difference


@contextmanager
def criterion(number: int, text: str):
    try:
        yield
    except Exception:
        print(f"[criterion {number:2d}] {text}: FAIL")
        raise
    print(f"[criterion {number:2d}] {text}: PASS")


def masked_everywhere(model):
    for comp_idx in range(len(model.components())):
        for _, mt in model.masked_layers(comp_idx):
            yield mt


# ---------------------------------------------------------------------------
# shared runs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def toy_dst_run():
    """2,000-step RigL run on a small 3-head model at 80% sparsity."""
    start = time.time()
    data = gen_synthetic("rings", 256, noise=0.25, seed=11)
    train, test = split(data, 0.2, seed=11)
    model = build_trails(mlp_spec(2, 16, 3, 2), 1, 3, 0.8, seed=11)
    config = TrainConfig(total_steps=2000, batch_size=32, eval_interval=500,
                         lr=0.05, momentum=0.9, weight_decay=1e-4, seed=11,
                         topology=TopologySchedule(strategy="rigl", delta_t=50,
                                                   initial_drop_fraction=0.5))
    optimizer = Optimizer(config, model.named_parameters())
    ledger = count_flops(model)
    history = fit(model, train, test, config, optimizer=optimizer, ledger=ledger)
    return {"model": model, "optimizer": optimizer, "history": history,
            "config": config, "ledger": ledger, "elapsed": time.time() - start}


@pytest.fixture(scope="module")
def rings_battery():
    """Five-seed comparison on the rings task: dense single net, sparse
    multi-head model plus its single-head ablation, and the independent
    dense full ensemble."""
    start = time.time()
    spec = mlp_spec(2, 16, 6, 2)

    def recipe(strategy, seed):
        topo = TopologySchedule(strategy=strategy, delta_t=50,
                                initial_drop_fraction=0.5)
        return TrainConfig(total_steps=600, batch_size=128, eval_interval=600,
                           lr=0.1, momentum=0.9, weight_decay=5e-4, seed=seed,
                           topology=topo)

    rows = {k: [] for k in ("dense", "nt3", "nt1", "pd_nt3", "pd_ens3")}
    ledgers = []
    for seed in range(5):
        data = gen_synthetic("rings", 2000, noise=0.3, seed=1000 + seed)
        train, test = split(data, 0.2, seed=1000 + seed)

        dense = build_trails(spec, 3, 1, 0.0, seed=seed)
        hist = fit(dense, train, test, recipe("static", seed))
        rows["dense"].append(hist.evals[-1].accuracy)
        ledgers.append((hist.ledger, recipe("static", seed)))

        multi = build_trails(spec, 3, 3, 0.5, seed=seed)
        hist = fit(multi, train, test, recipe("rigl", seed))
        rows["nt3"].append(hist.evals[-1].accuracy)
        rows["pd_nt3"].append(hist.evals[-1].pd)
        ledgers.append((hist.ledger, recipe("rigl", seed)))

        single = build_trails(spec, 3, 1, 0.5, seed=seed)
        hist = fit(single, train, test, recipe("rigl", seed))
        rows["nt1"].append(hist.evals[-1].accuracy)
        ledgers.append((hist.ledger, recipe("rigl", seed)))

        ensemble = build_independent_ensemble(spec, 3, 0.0, seed=seed)
        hist = fit(ensemble, train, test, recipe("static", seed))
        rows["pd_ens3"].append(hist.evals[-1].pd)
        ledgers.append((hist.ledger, recipe("static", seed)))

    return {"rows": rows, "ledgers": ledgers, "elapsed": time.time() - start}


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_1_density_conservation(toy_dst_run):
    with criterion(1, "density conserved across every topology update"):
        updates = toy_dst_run["history"].updates
        assert len(updates) >= 3 * (2000 // 50) * 0.9  # backbone + 3 heads, most steps
        violations = 0
        for record in updates:
            for layer in record.layers:
                if layer.active_before != layer.active_after:
                    violations += 1
                if len(layer.pruned) != len(layer.grown):
                    violations += 1
        assert violations == 0
        assert toy_dst_run["elapsed"] < 60.0


def test_criterion_2_mask_zero_closure(toy_dst_run):
    with criterion(2, "masked-out weights and optimizer state exactly zero"):
        model = toy_dst_run["model"]
        optimizer = toy_dst_run["optimizer"]
        for ref in model.named_parameters():
            if ref.mask is None:
                continue
            assert np.all(ref.array[ref.mask == 0] == 0.0)
            for slot in optimizer.state[ref.name].values():
                assert np.all(slot[ref.mask == 0] == 0.0)


def test_criterion_3_gradient_correctness():
    with criterion(3, "analytic gradients match finite differences on 20 models"):
        start = time.time()
        stream = Stream(31337)
        checked = 0
        trial = 0
        while checked < 20:
            kind = "conv" if checked % 3 == 2 else "mlp"
            sparsity = (0.0, 0.4, 0.6)[checked % 3]
            layers, x, targets = gradcheck_stack(stream.child(trial), kind, sparsity)
            trial += 1
            active = sum(l.weight.active_count() for l in layers if l.weight is not None)
            active += sum(l.bias.size for l in layers if l.bias is not None)
            if active > 500:
                continue
            out, tape = stack_forward(layers, x, record=True)
            _, probs = loss_forward(out, targets)
            analytic, _ = stack_backward(layers, tape, nn.loss_backward(probs, targets))
            fd = stack_finite_difference(layers, x, targets, eps=1e-5)
            for got, want in zip(analytic.layers, fd.layers):
                if got.weight is not None:
                    assert max_relative_error(got.weight, want.weight) < 1e-3
                if got.bias is not None:
                    assert max_relative_error(got.bias, want.bias) < 1e-3
            checked += 1
        assert time.time() - start < 60.0


def test_criterion_4_er_allocation_oracle():
    with criterion(4, "ER allocation matches the hand solution and stays exact"):
        specs = [LayerSpec.linear(4, 4), LayerSpec.linear(8, 8)]
        plan = allocate(specs, 0.5, "er")
        assert abs(plan.densities[0] - 5.0 / 6.0) < 1e-4
        assert abs(plan.densities[1] - 5.0 / 12.0) < 1e-4
        assert plan.total_active() == 40

        stream = Stream(77)
        for _ in range(100):
            n_layers = 1 + stream.randbelow(20)
            specs = [LayerSpec.linear(1 + stream.randbelow(64),
                                      1 + stream.randbelow(64))
                     for _ in range(n_layers)]
            sparsity = stream.random() * 0.99
            plan = allocate(specs, sparsity, "er")
            total = sum(plan.layer_sizes)
            assert plan.total_active() == round_half_up((1.0 - sparsity) * total)
            # monotonicity among square layers
            squares = [(s.in_dim, d) for s, d in
                       zip([specs[i] for i in plan.layer_indices], plan.densities)
                       if s.in_dim == s.out_dim]
            for (na, da), (nb, db) in combinations(squares, 2):
                if na < nb:
                    assert db <= da + 1e-12
                elif nb < na:
                    assert da <= db + 1e-12


def test_criterion_5_selection_oracles():
    with criterion(5, "prune/grow selections equal brute-force sets"):
        stream = Stream(99)
        for _ in range(100):
            n = 2 + stream.randbelow(99)
            values = stream.normals(n).astype(np.float32)
            mask = (stream.uniforms(n) < 0.6).astype(np.uint8)
            if mask.sum() == 0:
                mask[stream.randbelow(n)] = 1
            weights = MaskedTensor(values=values.copy(), mask=mask.copy())

            active = [i for i in range(n) if mask[i] == 1]
            inactive = [i for i in range(n) if mask[i] == 0]
            k_prune = stream.randbelow(len(active) + 1)
            got = select_prune(weights, k_prune)
            want = sorted(sorted(active,
                                 key=lambda i: (abs(weights.values[i]), i))[:k_prune])
            assert got.tolist() == want

            soft = select_prune(weights, k_prune, "soft_magnitude",
                                temperature=1e-6, stream=stream.child("s"))
            assert soft.tolist() == want  # no ties among float magnitudes

            grads = stream.normals(n)
            k_grow = stream.randbelow(len(inactive) + 1)
            got = select_grow(mask, k_grow, "gradient", dense_grad=grads)
            want = sorted(sorted(inactive,
                                 key=lambda i: (-abs(grads[i]), i))[:k_grow])
            assert got.tolist() == want


def test_criterion_6_metric_oracles():
    with criterion(6, "metric hand cases reproduce to 1e-9"):
        got = ece(np.array([[0.9, 0.1], [0.4, 0.6]]), np.array([0, 0]), bins=15)
        assert abs(got - 0.35) < 1e-9

        got = prediction_disagreement(np.array([[1], [1], [2]]))
        assert abs(got - 2.0 / 3.0) < 1e-9

        got = nll(np.array([[0.5, 0.5], [0.25, 0.75]]), np.array([0, 0]))
        assert abs(got - (math.log(2.0) + math.log(4.0)) / 2.0) < 1e-9
        assert abs(got - 1.0397207708399179) < 1e-9

        # random-input brute force for the same metrics
        stream = Stream(123)
        for _ in range(25):
            n, classes, m = 1 + stream.randbelow(80), 2 + stream.randbelow(6), \
                2 + stream.randbelow(4)
            raw = np.array([[stream.open_unit() for _ in range(classes)]
                            for _ in range(n)])
            probs = raw / raw.sum(axis=1, keepdims=True)
            labels = np.array([stream.randbelow(classes) for _ in range(n)])
            heads = np.array([[stream.randbelow(classes) for _ in range(n)]
                              for _ in range(m)])
            nll_loop = sum(-math.log(probs[i, labels[i]]) for i in range(n)) / n
            assert abs(nll(probs, labels) - nll_loop) < 1e-9
            pairs = list(combinations(range(m), 2))
            pd_loop = sum(np.mean(heads[i] != heads[j]) for i, j in pairs) / len(pairs)
            assert abs(prediction_disagreement(heads) - pd_loop) < 1e-9


def test_criterion_7_flops_rule():
    with criterion(7, "train step is exactly 3x forward; hand-counted ratio"):
        net = NetworkSpec(
            input_shape=(4,),
            stem=[LayerSpec.linear(4, 8), LayerSpec.relu()],
            blocks=[[LayerSpec.linear(8, 8), LayerSpec.relu()],
                    [LayerSpec.linear(8, 8), LayerSpec.relu()]],
            classifier=[LayerSpec.linear(8, 2)],
        )
        trails = build_trails(net, 1, 2, 0.5, allocation="uniform", seed=0)
        ledger = count_flops(trails)
        assert ledger.train_step_flops(128) == 3 * ledger.forward_sparse * 128

        # hand count: backbone 40+8+72+8=128, each head 72+8+18=98
        assert ledger.forward_sparse == 128 + 2 * 98

        dense_ens = build_independent_ensemble(net, 2, 0.0, seed=0)
        dense_ledger = count_flops(dense_ens)
        # hand count: one dense member 72+8+136+8+136+8+34=402
        assert dense_ledger.forward_sparse == 2 * 402
        ratio = ledger.forward_sparse / dense_ledger.forward_sparse
        assert abs(ratio - 324.0 / 804.0) < 1e-6


def test_criterion_8_end_to_end_directional(rings_battery):
    rows = rings_battery["rows"]
    means = {k: float(np.mean(v)) for k, v in rows.items()}
    print("\n  rings battery means:", {k: round(v, 4) for k, v in means.items()},
          f"({rings_battery['elapsed']:.0f}s)")
    with criterion(8, "multi-head sparse model holds accuracy; PD below full ensemble"):
        assert means["nt3"] >= means["dense"] - 0.005
        assert means["nt3"] >= means["nt1"]
        assert means["pd_nt3"] < means["pd_ens3"]
        assert rings_battery["elapsed"] < 600.0


def test_criterion_9_extension_rule_safety(rings_battery, toy_dst_run):
    with criterion(9, "train FLOPs never exceed the dense reference budget"):
        checked = list(rings_battery["ledgers"])
        checked.append((toy_dst_run["ledger"], toy_dst_run["config"]))

        # a run extended beyond its dense base steps, still within budget
        data = gen_synthetic("rings", 300, noise=0.3, seed=5)
        train, test = split(data, 0.2, seed=5)
        model = build_trails(mlp_spec(2, 16, 3, 2), 1, 2, 0.8, seed=5)
        config = TrainConfig(total_steps=150, base_steps=100, batch_size=64,
                             eval_interval=150, lr=0.05, seed=5,
                             topology=TopologySchedule(strategy="set", delta_t=50,
                                                       initial_drop_fraction=0.5))
        hist = fit(model, train, test, config)
        checked.append((hist.ledger, config))

        for ledger, config in checked:
            budget = ledger.dense_budget(config.dense_base_steps, config.batch_size)
            assert ledger.cumulative_train <= budget


def test_criterion_10_determinism_and_resume(tmp_path):
    with criterion(10, "bit-identical reruns and bit-exact resume"):
        cfg = {
            "seed": 4,
            "out_dir": str(tmp_path / "a"),
            "dataset": {"kind": "rings", "n": 200, "noise": 0.25},
            "network": {"kind": "mlp", "input_dim": 2, "hidden_dim": 8,
                        "blocks": 2, "classes": 2},
            "split_index": 1,
            "heads": 2,
            "sparsity": 0.5,
            "topology": {"strategy": "set", "delta_t": 10},
            "train": {"total_steps": 40, "batch_size": 32, "lr": 0.05},
            "eval_interval": 10,
            "checkpoint_every": 20,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert cli_main(["train", "--config", str(path), "--quiet"]) == 0
        assert cli_main(["train", "--config", str(path), "--quiet",
                         "--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a" / "summary.csv").read_bytes() == \
            (tmp_path / "b" / "summary.csv").read_bytes()

        assert cli_main(["train", "--config", str(path), "--quiet",
                         "--out", str(tmp_path / "c"),
                         "--resume", str(tmp_path / "a" / "checkpoint_000020.bin")]) == 0
        full = {json.loads(l)["step"]: json.loads(l)["metrics"]
                for l in (tmp_path / "a" / "history.jsonl").read_text().splitlines()}
        resumed = [json.loads(l) for l in
                   (tmp_path / "c" / "history.jsonl").read_text().splitlines()]
        assert len(resumed) == 2  # evals at 30 and 40
        for record in resumed:
            assert record["metrics"] == full[record["step"]]


def test_criterion_11_sparsity_sweep_aggregation(tmp_path):
    with criterion(11, "sparsity sweep completes and aggregates correctly"):
        from sparsetrails.cli import read_summary_final_row, run_sweep
        from sparsetrails.config import resolve
        base = resolve({
            "seed": 1,
            "dataset": {"kind": "rings", "n": 400, "noise": 0.25},
            "network": {"kind": "mlp", "input_dim": 2, "hidden_dim": 32,
                        "blocks": 6, "classes": 2},
            "split_index": 3,
            "heads": 3,
            "sparsity": 0.5,
            "topology": {"strategy": "rigl", "delta_t": 50},
            "train": {"total_steps": 300, "batch_size": 64, "lr": 0.1},
            "eval_interval": 300,
        })
        values = [0.0, 0.5, 0.8, 0.95, 0.99]
        out = tmp_path / "sweep"
        run_sweep(base, "sparsity", values, seeds=[1, 2], out_dir=str(out),
                  quiet=True)

        import csv as csv_mod
        rows = {r["value"]: r
                for r in csv_mod.DictReader((out / "sweep.csv").read_text().splitlines())}
        assert len(rows) == len(values)
        curve = []
        for value in values:
            key = f"{value:.6g}"
            finals = [read_summary_final_row(
                out / f"sparsity={value}" / f"seed={s}" / "summary.csv")["accuracy"]
                for s in (1, 2)]
            assert float(rows[key]["accuracy_mean"]) == pytest.approx(
                float(np.mean(finals)), abs=1e-6)
            assert float(rows[key]["accuracy_std"]) == pytest.approx(
                float(np.std(finals)), abs=1e-6)
            curve.append((value, float(rows[key]["accuracy_mean"])))
        print("\n  sparsity-accuracy curve:",
              " ".join(f"S={v}:{a:.3f}" for v, a in curve))
