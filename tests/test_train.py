import math

import numpy as np
import pytest

from sparsetrails.data import gen_synthetic
from sparsetrails.model import build_trails, mlp_spec
from sparsetrails.topology import TopologySchedule
from sparsetrails.train import (Optimizer, TrainConfig, TrainingDiverged,
                                count_flops, evaluate, extension_cap, fit, lr_at)


def small_config(**kw):
    defaults = dict(total_steps=40, lr=0.1, batch_size=16, eval_interval=20,
                    weight_decay=0.0, seed=0,
                    topology=TopologySchedule(strategy="static"))
    defaults.update(kw)
    return TrainConfig(**defaults)


def toy_model(sparsity=0.0, heads=1, blocks=2, hidden=6, split_index=1, seed=0,
              strategy="static", allocation="er"):
    spec = mlp_spec(2, hidden, blocks, 2)
    return build_trails(spec, split_index, heads, sparsity, allocation=allocation,
                        seed=seed)


class TestOptimizerStep:
    def test_sgd_hand_case(self):
        model = toy_model()
        ref = model.named_parameters()[0]
        ref.array[...] = 1.0
        config = small_config(optimizer="sgd_momentum", momentum=0.0, weight_decay=0.0)
        opt = Optimizer(config, model.named_parameters())
        grads = {ref.name: np.full_like(ref.array, 0.5)}
        opt.step(grads, lr=0.1)
        np.testing.assert_allclose(ref.array, 0.95, rtol=1e-6)

    def test_masked_positions_stay_zero(self):
        model = toy_model(sparsity=0.6)
        config = small_config()
        opt = Optimizer(config, model.named_parameters())
        for _ in range(5):
            grads = {p.name: np.ones_like(p.array) for p in model.named_parameters()}
            opt.step(grads, lr=0.05)
        for p in model.named_parameters():
            if p.mask is not None:
                assert np.all(p.array[p.mask == 0] == 0.0)
                for slot in opt.state[p.name].values():
                    assert np.all(slot[p.mask == 0] == 0.0)

    def test_adam_first_step_is_signed_lr(self):
        model = toy_model()
        ref = model.named_parameters()[0]
        before = ref.array.copy()
        config = small_config(optimizer="adam", adam_eps=1e-12, lr=0.01)
        opt = Optimizer(config, model.named_parameters())
        grad = np.full_like(ref.array, 0.5)
        opt.step({ref.name: grad}, lr=0.01)
        np.testing.assert_allclose(before - ref.array, 0.01, rtol=1e-5)

    def test_nan_gradient_aborts(self):
        model = toy_model()
        ref = model.named_parameters()[0]
        config = small_config()
        opt = Optimizer(config, model.named_parameters())
        bad = np.ones_like(ref.array)
        bad.reshape(-1)[0] = np.nan
        with pytest.raises(TrainingDiverged, match="NaN gradient"):
            opt.step({ref.name: bad}, lr=0.1)

    def test_inf_gradient_aborts_before_touching_any_parameter(self):
        model = toy_model()
        refs = model.named_parameters()
        before = [ref.array.copy() for ref in refs]
        opt = Optimizer(small_config(optimizer="adam"), refs)
        grads = {ref.name: np.ones_like(ref.array) for ref in refs}
        grads[refs[-1].name].reshape(-1)[0] = -np.inf
        with pytest.raises(TrainingDiverged, match="inf gradient"):
            opt.step(grads, lr=0.1)
        for ref, old in zip(refs, before):
            np.testing.assert_array_equal(ref.array, old)
        assert opt.adam_t == 0

    def test_weight_decay_pulls_toward_zero(self):
        model = toy_model()
        ref = model.named_parameters()[0]
        ref.array[...] = 1.0
        config = small_config(momentum=0.0, weight_decay=0.1)
        opt = Optimizer(config, model.named_parameters())
        opt.step({ref.name: np.zeros_like(ref.array)}, lr=0.5)
        np.testing.assert_allclose(ref.array, 0.95, rtol=1e-6)


class TestLrSchedules:
    def test_step_decay_drops_tenfold_after_quarter(self):
        config = small_config(total_steps=100, schedule="step_decay", lr=0.1)
        assert lr_at(30, config) == pytest.approx(0.01)

    def test_step_decay_has_exactly_three_drops(self):
        config = small_config(total_steps=400, schedule="step_decay", lr=0.1)
        values = [lr_at(t, config) for t in range(401)]
        drops = sum(1 for a, b in zip(values, values[1:]) if b < a)
        assert drops == 3
        assert values[-1] == pytest.approx(0.1 * 0.1 ** 3)

    def test_cosine_hits_peak_at_warmup_end(self):
        config = small_config(total_steps=200, schedule="cosine_warmup", lr=0.3,
                              warmup_fraction=0.1)
        assert lr_at(20, config) == pytest.approx(0.3)

    def test_cosine_ends_at_min_fraction(self):
        config = small_config(total_steps=200, schedule="cosine_warmup", lr=0.3)
        assert lr_at(200, config) == pytest.approx(0.03)

    def test_cosine_continuous_at_warmup_boundary(self):
        config = small_config(total_steps=1000, schedule="cosine_warmup", lr=0.3)
        left = lr_at(99, config)
        right = lr_at(101, config)
        at = lr_at(100, config)
        assert abs(at - left) < 0.01 and abs(at - right) < 0.01

    def test_beyond_horizon_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            lr_at(41, small_config(total_steps=40))


class TestExtensionCap:
    def test_extended_budget_at_high_sparsity(self):
        assert extension_cap(0.8, 250) == 1250

    def test_dense_cap_is_base(self):
        assert extension_cap(0.0, 100) == 100

    def test_half_sparsity_doubles(self):
        assert extension_cap(0.5, 100) == 200

    def test_full_sparsity_rejected(self):
        with pytest.raises(ValueError):
            extension_cap(1.0, 100)


class TestCountFlops:
    def test_dense_linear_hand_count(self):
        from sparsetrails.model import NetworkSpec, build_trails as bt
        from sparsetrails.nn import LayerSpec
        net = NetworkSpec(input_shape=(3,), stem=[],
                          blocks=[[LayerSpec.linear(3, 2)]],
                          classifier=[LayerSpec.linear(2, 2, has_bias=False)])
        dense = bt(net, 1, 1, 0.0, seed=0)
        ledger = count_flops(dense)
        # 2*6 + 2 bias adds for the block, 2*4 for the classifier
        assert ledger.forward_dense == 14 + 8
        assert ledger.forward_sparse == ledger.forward_dense

    def test_half_sparse_linear_hand_count(self):
        from sparsetrails.model import NetworkSpec, build_trails as bt
        from sparsetrails.nn import LayerSpec
        net = NetworkSpec(input_shape=(3,), stem=[],
                          blocks=[[LayerSpec.linear(3, 2)]],
                          classifier=[LayerSpec.linear(2, 2, has_bias=False)])
        model = bt(net, 1, 1, 0.5, allocation="uniform", seed=0)
        ledger = count_flops(model)
        # 3 active of 6 in the block (2*3+2), 2 active of 4 in the classifier
        assert ledger.forward_sparse == 8 + 4

    def test_train_step_is_three_forwards(self):
        model = toy_model(sparsity=0.5, heads=3)
        ledger = count_flops(model)
        assert ledger.train_step_flops(128) == 3 * ledger.forward_sparse * 128

    def test_sparsity_monotonically_cuts_flops(self):
        previous = None
        for s in (0.0, 0.3, 0.6, 0.9):
            model = toy_model(sparsity=s, heads=2)
            ledger = count_flops(model)
            if s == 0.0:
                assert ledger.forward_sparse == ledger.forward_dense
            if previous is not None:
                assert ledger.forward_sparse < previous
            previous = ledger.forward_sparse

    def test_relu_counts_elements(self):
        from sparsetrails.model import NetworkSpec, build_trails as bt
        from sparsetrails.nn import LayerSpec
        net = NetworkSpec(input_shape=(4,), stem=[],
                          blocks=[[LayerSpec.relu()]],
                          classifier=[LayerSpec.linear(4, 2, has_bias=False)])
        assert count_flops(bt(net, 1, 1, 0.0, seed=0)).forward_dense == 4 + 16

    def test_layer_costs_hand_count(self):
        from sparsetrails.model import NetworkSpec, build_trails as bt
        from sparsetrails.nn import LayerSpec
        from sparsetrails.train import LayerCost, _post_prune_forward_bound, layer_costs
        net = NetworkSpec(input_shape=(1, 4, 4), stem=[],
                          blocks=[[LayerSpec.conv2d(1, 2, 3, 3), LayerSpec.relu()]],
                          classifier=[LayerSpec.linear(8, 3, has_bias=False)])
        model = bt(net, 0, 2, 0.0, seed=0)
        # conv: 2x2 output positions, 2*2*2 bias adds; relu: 8 elements
        conv = LayerCost(multiplier=4, fixed=8, active=18, size=18)
        relu = LayerCost(multiplier=0, fixed=8, active=0, size=0)
        linear = LayerCost(multiplier=1, fixed=0, active=24, size=24)
        assert layer_costs(model) == [conv, relu, linear, conv, relu, linear]
        assert count_flops(model).forward_dense == 2 * (8 + 2 * 4 * 18 + 8 + 2 * 24)
        # 84 weights in all, keep 42, each charged at the worst multiplier 4
        assert _post_prune_forward_bound(model, 0.5) == 2 * (8 + 8) + 2 * 42 * 4


class TestFit:
    def test_two_clusters_reaches_full_train_accuracy(self):
        data = gen_synthetic("two_clusters", 64, noise=0.3, seed=1)
        model = toy_model(sparsity=0.0, heads=1)
        config = small_config(total_steps=200, eval_interval=200, batch_size=16,
                              lr=0.05)
        history = fit(model, data, data, config)
        assert history.evals[-1].accuracy == 1.0

    def test_delta_t_beyond_horizon_equals_static(self):
        data = gen_synthetic("two_clusters", 32, noise=0.3, seed=2)

        def run(strategy, delta_t):
            model = toy_model(sparsity=0.5, heads=2, seed=4)
            sched = TopologySchedule(strategy=strategy, delta_t=delta_t)
            config = small_config(total_steps=30, eval_interval=30, topology=sched)
            history = fit(model, data, data, config)
            return history, model

        h_static, m_static = run("static", 100)
        h_vacuous, m_vacuous = run("set", 1000)
        assert h_vacuous.updates == []
        assert h_static.evals[-1].accuracy == h_vacuous.evals[-1].accuracy
        for pa, pb in zip(m_static.named_parameters(), m_vacuous.named_parameters()):
            assert pa.array.tobytes() == pb.array.tobytes()

    def test_bit_identical_histories_for_same_seed(self):
        data = gen_synthetic("rings", 64, noise=0.2, seed=3)

        def run():
            model = toy_model(sparsity=0.5, heads=2, seed=9, split_index=1)
            sched = TopologySchedule(strategy="set", delta_t=5,
                                     initial_drop_fraction=0.5)
            config = small_config(total_steps=25, eval_interval=5, topology=sched)
            return fit(model, data, data, config)

        a, b = run(), run()
        assert [s.loss for s in a.steps] == [s.loss for s in b.steps]
        assert [e.accuracy for e in a.evals] == [e.accuracy for e in b.evals]
        assert [r.to_json() for r in a.updates] == [r.to_json() for r in b.updates]

    def test_rigl_updates_conserve_density_and_masked_zeros(self):
        data = gen_synthetic("rings", 48, noise=0.2, seed=5)
        model = toy_model(sparsity=0.6, heads=2, seed=6)
        sched = TopologySchedule(strategy="rigl", delta_t=5, initial_drop_fraction=0.4)
        config = small_config(total_steps=20, eval_interval=20, topology=sched)
        history = fit(model, data, data, config)
        assert history.updates  # updates actually happened
        for record in history.updates:
            for layer in record.layers:
                assert layer.active_before == layer.active_after
                assert len(layer.pruned) == len(layer.grown)
        for p in model.named_parameters():
            if p.mask is not None:
                assert np.all(p.array[p.mask == 0] == 0.0)

    def test_flops_budget_rejects_overlong_runs(self):
        data = gen_synthetic("two_clusters", 32, noise=0.3, seed=7)
        model = toy_model(sparsity=0.5, heads=1)
        config = small_config(total_steps=40, base_steps=10)
        with pytest.raises(ValueError, match="FLOPs|extension cap"):
            fit(model, data, data, config)

    def test_cumulative_flops_counted_per_step(self):
        data = gen_synthetic("two_clusters", 32, noise=0.3, seed=8)
        model = toy_model(sparsity=0.0, heads=1)
        config = small_config(total_steps=4, eval_interval=4, batch_size=16,
                              drop_last=True)
        history = fit(model, data, data, config)
        ledger = history.ledger
        assert ledger.cumulative_train == 4 * 3 * ledger.forward_sparse * 16

    def test_independent_ensemble_trains_members_separately(self):
        from sparsetrails.model import build_independent_ensemble
        data = gen_synthetic("two_clusters", 48, noise=0.3, seed=9)
        spec = mlp_spec(2, 6, 2, 2)
        model = build_independent_ensemble(spec, 2, sparsity=0.0, seed=10)
        config = small_config(total_steps=60, eval_interval=60, lr=0.05)
        history = fit(model, data, data, config)
        assert history.evals[-1].accuracy >= 0.9
        assert history.evals[-1].pd is not None

    def test_independent_ensemble_takes_one_optimizer_step_per_step(self):
        from sparsetrails.model import build_independent_ensemble
        data = gen_synthetic("two_clusters", 48, noise=0.3, seed=9)
        model = build_independent_ensemble(mlp_spec(2, 6, 2, 2), 3, sparsity=0.0, seed=10)
        config = small_config(total_steps=4, eval_interval=4, optimizer="adam", lr=0.01)
        optimizer = Optimizer(config, model.named_parameters())
        fit(model, data, data, config, optimizer=optimizer)
        assert optimizer.adam_t == config.total_steps

    def test_fit_leaves_the_callers_schedule_alone(self):
        data = gen_synthetic("two_clusters", 32, noise=0.3, seed=8)
        sched = TopologySchedule(strategy="set", delta_t=5, initial_drop_fraction=0.3)
        config = small_config(total_steps=10, eval_interval=10, topology=sched)
        history = fit(toy_model(sparsity=0.5, heads=2), data, data, config)
        assert history.updates
        assert sched.horizon == 0 and config.topology is sched

    def test_oneshot_prunes_to_target_and_freezes(self):
        data = gen_synthetic("two_clusters", 48, noise=0.3, seed=11)
        model = toy_model(sparsity=0.0, heads=2)
        sched = TopologySchedule(strategy="prune_oneshot", prune_at_fraction=0.5)
        config = small_config(total_steps=40, base_steps=40, eval_interval=40,
                              topology=sched)
        history = fit(model, data, data, config, sparsity_target=0.5)
        assert history.events and history.events[0]["event"] == "one_shot_prune"
        total = sum(mt.values.size for c in range(len(model.components()))
                    for _, mt in model.masked_layers(c))
        active = sum(mt.active_count() for c in range(len(model.components()))
                     for _, mt in model.masked_layers(c))
        assert active == round(0.5 * total)
        assert history.ledger.forward_sparse < history.ledger.forward_dense

    def test_divergence_raises_with_step(self):
        data = gen_synthetic("two_clusters", 32, noise=0.3, seed=12)
        model = toy_model(sparsity=0.0, heads=1)
        config = small_config(total_steps=30, lr=1e18, schedule="step_decay")
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDiverged):
                fit(model, data, data, config)


class TestEvaluate:
    def test_reports_all_metrics(self):
        data = gen_synthetic("rings", 40, noise=0.2, seed=13)
        model = toy_model(sparsity=0.0, heads=3)
        report, heads, preds = evaluate(model, data, step=0, ledger=count_flops(model))
        assert 0.0 <= report.accuracy <= 1.0
        assert report.perplexity == pytest.approx(math.exp(report.nll))
        assert heads.shape == (3, 40)
        assert preds.shape == (40,)
        assert report.pd is not None

    def test_single_head_pd_is_none(self):
        data = gen_synthetic("rings", 20, noise=0.2, seed=14)
        model = toy_model(sparsity=0.0, heads=1)
        report, _, _ = evaluate(model, data, step=0)
        assert report.pd is None
