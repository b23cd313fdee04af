import copy
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sparsetrails.data as data_module
import sparsetrails.model as model_module
import sparsetrails.train as train_module
from sparsetrails.checkpoint import capture, restore
from sparsetrails.config import network_spec, resolve
from sparsetrails.data import Dataset, gen_synthetic
from sparsetrails.model import (build_independent_ensemble, build_trails, mlp_spec,
                                small_cnn_spec)
from sparsetrails.nn import LayerSpec, ParamStore
from sparsetrails.topology import TopologySchedule
from sparsetrails.train import (Optimizer, TrainConfig, TrainingDiverged,
                                _post_prune_forward_bound, check_data, count_flops,
                                evaluate, extension_cap, fit, lr_at, validate_run)

import oracles
from oracles import DenseOptimizer, LayerCost, layer_costs, train_member_alone


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
        ref.grad[...] = 0.5
        opt.step(lr=0.1)
        np.testing.assert_allclose(ref.array, 0.95, rtol=1e-6)

    def test_masked_positions_stay_zero(self):
        model = toy_model(sparsity=0.6)
        config = small_config()
        opt = Optimizer(config, model.named_parameters())
        for _ in range(5):
            model.store.grad[...] = 1.0
            opt.step(lr=0.05)
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
        ref.grad[...] = 0.5
        opt.step(lr=0.01)
        np.testing.assert_allclose(before - ref.array, 0.01, rtol=1e-5)

    def test_nan_gradient_aborts(self):
        model = toy_model()
        ref = model.named_parameters()[0]
        config = small_config()
        opt = Optimizer(config, model.named_parameters())
        ref.grad[...] = 1.0
        ref.grad.reshape(-1)[0] = np.nan
        with pytest.raises(TrainingDiverged, match=f"NaN gradient in {ref.name}"):
            opt.step(lr=0.1)

    def test_inf_gradient_aborts_before_touching_any_parameter(self):
        model = toy_model()
        refs = model.named_parameters()
        before = [ref.array.copy() for ref in refs]
        opt = Optimizer(small_config(optimizer="adam"), refs)
        model.store.grad[...] = 1.0
        refs[-1].grad.reshape(-1)[0] = -np.inf
        with pytest.raises(TrainingDiverged, match=f"inf gradient in {refs[-1].name}"):
            opt.step(lr=0.1)
        for ref, old in zip(refs, before):
            np.testing.assert_array_equal(ref.array, old)
        assert opt.adam_t == 0

    def test_names_the_kind_of_the_entry_it_names(self):
        # an inf in the first weight and a NaN in a head: the inf comes first
        model = toy_model(heads=2)
        refs = model.named_parameters()
        assert refs[0].name == "backbone/0/weight" and refs[-2].name.startswith("heads/")
        opt = Optimizer(small_config(), refs)
        refs[0].grad.reshape(-1)[3] = np.inf
        refs[-2].grad.reshape(-1)[0] = np.nan
        with pytest.raises(TrainingDiverged, match="^inf gradient in backbone/0/weight$"):
            opt.step(lr=0.1)

    def test_inf_at_a_masked_position_aborts(self):
        # RigL growth reads the masked entries, so the check covers them too
        model = toy_model(sparsity=0.5)
        ref = next(r for r in model.named_parameters() if r.mask is not None)
        before = ref.array.copy()
        opt = Optimizer(small_config(), model.named_parameters())
        ref.grad[ref.mask == 0] = np.inf
        with pytest.raises(TrainingDiverged, match="inf gradient"):
            opt.step(lr=0.1)
        np.testing.assert_array_equal(ref.array, before)

    def test_takes_every_parameter_of_one_store(self):
        refs = toy_model().named_parameters()
        with pytest.raises(ValueError, match="every parameter of one store"):
            Optimizer(small_config(), refs[1:])

    def test_weight_decay_pulls_toward_zero(self):
        model = toy_model()
        ref = model.named_parameters()[0]
        ref.array[...] = 1.0
        config = small_config(momentum=0.0, weight_decay=0.1)
        opt = Optimizer(config, model.named_parameters())
        opt.step(lr=0.5)
        np.testing.assert_allclose(ref.array, 0.95, rtol=1e-6)


def small_blocks(monkeypatch, entries=24):
    """Make an optimizer built after this call step over blocks of `entries`
    float32 entries, so a toy store spans many."""
    monkeypatch.setattr(train_module, "STEP_BUDGET", entries * 4)


def block_spans(optimizer):
    """(first active, past the last) of each of the optimizer's store blocks."""
    cuts = [0, *optimizer.active.searchsorted(optimizer._edges).tolist(),
            optimizer.active.size]
    return list(zip(cuts, cuts[1:]))


class TestCompactState:
    @pytest.mark.parametrize("blocked", [False, True], ids=["one-block", "blocks-of-24"])
    @pytest.mark.parametrize("kind, strategy, prune_method, independent", [
        ("sgd_momentum", "rigl", "magnitude", False),
        ("adam", "set", "soft_magnitude", False),
        ("sgd_momentum", "prune_oneshot", "magnitude", False),
        ("adam", "rigl", "magnitude", True),
    ])
    def test_fit_matches_the_dense_optimizer_bit_for_bit(self, kind, strategy,
                                                         prune_method, independent,
                                                         blocked, monkeypatch):
        if blocked:
            small_blocks(monkeypatch)
        data = gen_synthetic("rings", 64, noise=0.2, seed=5)
        oneshot = strategy == "prune_oneshot"
        sched = TopologySchedule(strategy=strategy, prune_method=prune_method, delta_t=5,
                                 initial_drop_fraction=0.4, prune_at_fraction=0.5)
        config = small_config(total_steps=30, base_steps=30, eval_interval=30,
                              optimizer=kind, lr=0.05 if kind == "sgd_momentum" else 0.01,
                              weight_decay=5e-4, topology=sched)

        def run(make_optimizer):
            if independent:
                model = build_independent_ensemble(mlp_spec(2, 6, 2, 2), 2, sparsity=0.5,
                                                   seed=4)
            else:
                model = toy_model(sparsity=0.0 if oneshot else 0.6, heads=2, seed=4)
            optimizer = make_optimizer(config, model.named_parameters())
            history = fit(model, data, data, config,
                          sparsity_target=0.5 if oneshot else None, optimizer=optimizer)
            assert history.updates or history.events
            return model, optimizer

        model, compact = run(Optimizer)
        oracle_model, dense = run(DenseOptimizer)
        assert len(block_spans(compact)) == (-(-model.store.values.size // 24) if blocked else 1)
        assert compact.adam_t == dense.adam_t
        state = compact.state
        for slot in compact.slots.values():
            assert slot.size == np.count_nonzero(model.store.mask)
        for ref, oracle in zip(model.named_parameters(), oracle_model.named_parameters()):
            assert ref.array.tobytes() == oracle.array.tobytes(), ref.name
            if ref.mask is not None:
                assert ref.mask.tobytes() == oracle.mask.tobytes(), ref.name
            for slot, arr in dense.state[ref.name].items():
                assert state[ref.name][slot].tobytes() == arr.tobytes(), (ref.name, slot)

    @staticmethod
    def blocked_store(monkeypatch):
        """A store in blocks of 20 entries: a/0/weight [0, 96) with no active
        entry in block [20, 40), a/0/bias [96, 108), a/1/weight [108, 144) and
        a/1/bias [144, 147). The edges at 100, 120 and 140 cut records, and
        the last block [140, 147) holds a/1/weight's active 140, 141 and
        masked 142, 143, then the bias."""
        small_blocks(monkeypatch, 20)
        rng = np.random.default_rng(7)
        store = ParamStore({"a": ([LayerSpec.linear(8, 12), LayerSpec.linear(12, 3)], None)})
        weights = [ref for ref in store.refs if ref.mask is not None]
        for ref in weights:
            ref.mask[...] = rng.random(ref.mask.shape) < 0.5
        store.mask[20:40] = 0
        store.mask[140:144] = [1, 1, 0, 0]
        store.values[...] = rng.standard_normal(store.values.size) * store.mask
        return store

    @pytest.mark.parametrize("kind", ["sgd_momentum", "adam"])
    def test_blocks_with_no_active_entry_or_a_cut_record_match_the_dense_optimizer(
            self, kind, monkeypatch):
        store = self.blocked_store(monkeypatch)
        oracle = copy.deepcopy(store)
        config = small_config(optimizer=kind, weight_decay=5e-4)
        compact, dense = Optimizer(config, store.refs), DenseOptimizer(config, oracle.refs)
        spans = block_spans(compact)
        assert len(spans) == 8 and spans[1][0] == spans[1][1]  # block [20, 40) is empty
        rng = np.random.default_rng(8)
        for t in range(1, 6):
            store.grad[...] = oracle.grad[...] = rng.standard_normal(store.grad.size)
            compact.step(lr=0.05, step=t)
            dense.step(lr=0.05, step=t)
        assert store.values.tobytes() == oracle.values.tobytes()
        state = compact.state
        for ref in store.refs:
            for slot, arr in dense.state[ref.name].items():
                assert state[ref.name][slot].tobytes() == arr.tobytes(), (ref.name, slot)

    @pytest.mark.parametrize("kind", ["sgd_momentum", "adam"])
    @pytest.mark.parametrize("bad, name", [(np.nan, "NaN"), (np.inf, "inf")])
    @pytest.mark.parametrize("position", [141, 142], ids=["active", "masked"])
    def test_non_finite_in_the_last_block_aborts_before_any_update(
            self, kind, bad, name, position, monkeypatch):
        store = self.blocked_store(monkeypatch)
        opt = Optimizer(small_config(optimizer=kind, weight_decay=5e-4), store.refs)
        store.grad[...] = np.random.default_rng(9).standard_normal(store.grad.size)
        opt.step(lr=0.05, step=1)  # slots and adam_t away from their start
        values, slots, adam_t = store.values.copy(), copy.deepcopy(opt.slots), opt.adam_t
        store.grad[position] = bad
        store.grad[145] = np.inf if name == "NaN" else np.nan  # later, in a/1/bias
        with pytest.raises(TrainingDiverged, match=f"^{name} gradient in a/1/weight$") as info:
            opt.step(lr=0.05, step=2)
        assert info.value.step == 2
        assert store.values.tobytes() == values.tobytes()
        assert opt.adam_t == adam_t
        for slot, arr in slots.items():
            assert opt.slots[slot].tobytes() == arr.tobytes(), slot

    def test_state_view_rejects_indices_that_disagree_with_the_mask(self):
        model = toy_model(sparsity=0.6)
        opt = Optimizer(small_config(), model.named_parameters())
        ref = next(p for p in model.named_parameters() if p.mask is not None)
        position = int(np.flatnonzero(ref.mask == 0)[0])
        ref.mask.reshape(-1)[position] = 1
        with pytest.raises(RuntimeError, match="disagree with its mask"):
            opt.state
        opt.reset_positions([ref.offset + position])
        assert opt.state[ref.name]["momentum"].reshape(-1)[position] == 0.0

    @pytest.mark.parametrize("kind", ["sgd_momentum", "adam"])
    @pytest.mark.parametrize("fan_in, layers, blocks", [(256, 1, 1), (512, 4, 8)],
                             ids=["one-block", "eight-blocks"])
    def test_step_allocates_one_compact_gradient_and_one_blocks_temporaries(
            self, kind, fan_in, layers, blocks):
        # a pass over the whole store, or over all its active entries at once,
        # allocates more than this: the step's arrays are the compact gradient
        # and, one block at a time, the block's active weights and temporaries
        rng = np.random.default_rng(0)
        store = ParamStore({"w": ([LayerSpec.linear(fan_in, 512, has_bias=False)] * layers,
                                  None)})
        store.mask[...] = rng.random(store.mask.size) < 0.1
        store.values[...] = rng.standard_normal(store.values.size) * store.mask
        store.grad[...] = rng.standard_normal(store.grad.size) * store.mask
        opt = Optimizer(small_config(optimizer=kind, weight_decay=5e-4), store.refs)
        spans = block_spans(opt)
        assert len(spans) == blocks  # 2^17 float32 entries a block
        opt.step(lr=0.1)
        tracemalloc.start()
        try:
            opt.step(lr=0.1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the block's weights and one temporary, or with Adam's expression
        # three: at most four arrays of one block's active entries
        arrays = {"sgd_momentum": 2, "adam": 4}[kind]
        compact = opt.active.size * store.grad.itemsize
        block = max(hi - lo for lo, hi in spans) * store.grad.itemsize
        assert peak < compact + arrays * block + 8192, (peak, compact, block)

    def test_fit_step_allocates_no_weight_sized_gradient(self):
        # two heads of 512x512 at density 0.1, as in the wide workload: backward
        # writes dW into the store, and the optimizer's arrays hold the ~10%
        # active entries, so no step array comes near one head's 1 MiB weight
        data = gen_synthetic("rings", 32, noise=0.2, seed=3)
        model = build_trails(mlp_spec(2, 512, 1, 2), 0, 2, 0.9, allocation="uniform", seed=1)
        config = small_config(total_steps=1, eval_interval=1, weight_decay=5e-4,
                              topology=TopologySchedule(strategy="rigl", delta_t=100))
        optimizer, ledger = Optimizer(config, model.named_parameters()), count_flops(model)
        weight = model.head_stack[0].weight.values[0]
        assert weight.shape == (512, 512)
        tracemalloc.start()
        try:
            fit(model, data, data, config, optimizer=optimizer, ledger=ledger)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < weight.nbytes


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

    def test_exact_on_the_written_decimal(self):
        # 10 / (1 - 0.95) is 199.99999999999983 in binary floating point
        assert extension_cap(0.95, 10) == 200
        assert extension_cap(0.7, 3) == 10
        assert extension_cap(0.84, 1000) == 6250

    @given(st.integers(min_value=0, max_value=99), st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=300, deadline=None)
    def test_whole_percent_sparsities(self, percent, base):
        assert extension_cap(percent / 100, base) == 100 * base // (100 - percent)

    def test_a_run_at_its_cap_is_accepted(self):
        # no biases or elementwise layers: 30% of the weights cost 30% of the
        # dense FLOPs, so 10 steps at S = 0.7 spend exactly 3 dense steps' budget
        from sparsetrails.model import NetworkSpec
        net = NetworkSpec(input_shape=(10,), stem=[],
                          blocks=[[LayerSpec.linear(10, 10, has_bias=False)]],
                          classifier=[LayerSpec.linear(10, 2, has_bias=False)])
        model = build_trails(net, 1, 1, 0.7, allocation="uniform", seed=0)
        data = Dataset(np.zeros((32, 10), np.float32), np.zeros(32, np.int64), 2)
        ledger = count_flops(model)
        assert 10 * ledger.forward_sparse == 3 * ledger.forward_dense
        validate_run(model, data, data, small_config(total_steps=10, base_steps=3), ledger)
        with pytest.raises(ValueError, match="extension cap 10 "):
            validate_run(model, data, data, small_config(total_steps=11, base_steps=3), ledger)


class TestLabelCheck:
    @pytest.mark.parametrize("split", ["train", "test"])
    def test_labels_the_logits_cannot_hold_are_rejected_before_a_step(self, split):
        model = toy_model(heads=2)  # two classes
        inside = gen_synthetic("two_clusters", 20, 0.1, seed=0)
        outside = Dataset(inside.inputs, inside.labels * 2, num_classes=3)
        before = [ref.array.copy() for ref in model.named_parameters()]
        sets = {"train": inside, "test": inside, split: outside}
        with pytest.raises(ValueError, match=rf"{split} labels out of range \[0, 2\) "
                                             r"of the network's logits: min=0, max=2"):
            fit(model, sets["train"], sets["test"], small_config(total_steps=4))
        for ref, old in zip(model.named_parameters(), before):
            assert ref.array.tobytes() == old.tobytes()

    def test_negative_labels_are_rejected(self):
        data = gen_synthetic("two_clusters", 20, 0.1, seed=0)
        negative = Dataset(data.inputs, data.labels - 1, num_classes=2)
        with pytest.raises(ValueError, match="min=-1, max=0"):
            check_data(toy_model(), test=negative)


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

    def test_cost_table_hand_count(self):
        from sparsetrails.model import NetworkSpec, build_trails as bt
        from sparsetrails.nn import LayerSpec
        net = NetworkSpec(input_shape=(1, 4, 4), stem=[],
                          blocks=[[LayerSpec.conv2d(1, 2, 3, 3), LayerSpec.relu()]],
                          classifier=[LayerSpec.linear(8, 3, has_bias=False)])
        model = bt(net, 0, 2, 0.0, seed=0)
        # conv: 2x2 output positions, 2*2*2 bias adds; relu: 8 elements
        conv = LayerCost(multiplier=4, fixed=8, active=18, size=18)
        relu = LayerCost(multiplier=0, fixed=8, active=0, size=0)
        linear = LayerCost(multiplier=1, fixed=0, active=24, size=24)
        assert layer_costs(model) == [conv, relu, linear, conv, relu, linear]
        assert model.flops_multipliers == {"heads/0/weight": 4, "heads/2/weight": 1}
        assert model.fixed_flops == 2 * (8 + 8)
        ledger = count_flops(model)
        assert ledger.forward_dense == 2 * (8 + 2 * 4 * 18 + 8 + 2 * 24)
        assert ledger.forward_sparse == ledger.forward_dense
        # 84 weights in all, keep 42, each charged at the worst multiplier 4
        assert _post_prune_forward_bound(model, 0.5) == 2 * (8 + 8) + 2 * 42 * 4


def cost_table_models():
    """A model of every network kind at every split, and an independent ensemble."""
    mlp = mlp_spec(3, 6, 3, 2)
    cnn = small_cnn_spec((2, 5, 5), 3, 2, 3)
    layers = network_spec(resolve({
        "dataset": {"kind": "rings", "n": 100, "noise": 0.2},
        "network": {"kind": "layers", "input_shape": [1, 6, 6],
                    "stem": [{"kind": "conv2d", "in_channels": 1, "out_channels": 2,
                              "kernel_h": 3, "kernel_w": 3}, {"kind": "relu"}],
                    "blocks": [[{"kind": "conv2d", "in_channels": 2, "out_channels": 3,
                                 "kernel_h": 2, "kernel_w": 2, "bias": False}],
                               [{"kind": "relu"}, {"kind": "linear", "in": 27, "out": 5}]],
                    "classifier": [{"kind": "linear", "in": 5, "out": 2, "bias": False}]},
        "split_index": 0, "heads": 2, "sparsity": 0.5,
        "train": {"total_steps": 20, "batch_size": 16}}))
    models = {}
    for name, spec in (("mlp", mlp), ("cnn", cnn), ("layers", layers)):
        for split in range(spec.num_blocks + 1):
            models[f"{name}-split{split}"] = build_trails(spec, split, 3, 0.6, seed=split)
    models["independent"] = build_independent_ensemble(cnn, 3, 0.6, seed=1)
    return models


def images(shape):
    """The rings points tiled into per-sample arrays of `shape`."""
    rings = gen_synthetic("rings", 48, noise=0.2, seed=1)
    return Dataset(np.resize(rings.inputs, (48, *shape)).astype(np.float32), rings.labels, 2)


def assert_matches_the_walk(model, sparsity=0.7):
    ledger = count_flops(model)
    assert (ledger.forward_sparse, ledger.forward_dense) == oracles.forward_flops(model)
    assert ledger.forward_sparse < ledger.forward_dense
    assert _post_prune_forward_bound(model, sparsity) == \
        oracles.post_prune_forward_bound(model, sparsity)


class TestCostTable:
    @pytest.mark.parametrize("name", list(cost_table_models()))
    def test_count_and_bound_match_the_shape_walk(self, name):
        assert_matches_the_walk(cost_table_models()[name])

    @pytest.mark.parametrize("strategy", ["rigl", "prune_oneshot"])
    def test_after_mask_changes(self, strategy):
        oneshot = strategy == "prune_oneshot"
        # a conv net: its layers' multipliers differ, so moving weights
        # between layers changes the count
        data = images((2, 5, 5))
        model = build_trails(small_cnn_spec((2, 5, 5), 3, 2, 2), 1, 2,
                             0.0 if oneshot else 0.6, seed=0)
        before = count_flops(model).forward_sparse
        config = small_config(total_steps=10, eval_interval=10, lr=0.05,
                              topology=TopologySchedule(strategy=strategy, delta_t=3))
        fit(model, data, data, config, sparsity_target=0.8 if oneshot else None)
        assert_matches_the_walk(model)
        if oneshot:
            assert count_flops(model).forward_sparse < before

    def test_deep_copy_restored_from_a_checkpoint(self):
        data = gen_synthetic("rings", 48, noise=0.2, seed=1)
        trained = build_trails(mlp_spec(2, 8, 2, 2), 1, 3, 0.0, seed=0)
        config = small_config(total_steps=10, eval_interval=10,
                              topology=TopologySchedule(strategy="prune_oneshot"))
        optimizer, ledger = Optimizer(config, trained.named_parameters()), count_flops(trained)
        fit(trained, data, data, config, sparsity_target=0.8, optimizer=optimizer,
            ledger=ledger)
        ckpt = capture(trained, optimizer, ledger, 10, "00" * 32)
        fresh = build_trails(mlp_spec(2, 8, 2, 2), 1, 3, 0.0, seed=5)
        dense = count_flops(fresh)
        clone = copy.deepcopy(fresh)
        clone_ledger = count_flops(clone)
        restore(ckpt, clone, Optimizer(config, clone.named_parameters()), clone_ledger)
        assert clone_ledger.forward_sparse == ledger.forward_sparse < dense.forward_sparse
        assert_matches_the_walk(clone)
        # the original keeps its own masks and count
        assert count_flops(fresh) == dense
        assert oracles.forward_flops(fresh) == (dense.forward_sparse, dense.forward_dense)

    @pytest.mark.parametrize("strategy", ["rigl", "prune_oneshot"])
    def test_count_from_the_active_positions_equals_the_count_from_the_masks(self, strategy):
        # a conv net's layers have different multipliers, and an independent
        # ensemble's bias records sit between its weights
        oneshot = strategy == "prune_oneshot"
        data = images((2, 5, 5))
        config = small_config(total_steps=6, eval_interval=6, lr=0.05,
                              topology=TopologySchedule(strategy=strategy, delta_t=3))
        for model in (build_trails(small_cnn_spec((2, 5, 5), 3, 2, 2), 1, 2,
                                   0.0 if oneshot else 0.6, seed=0),
                      build_independent_ensemble(small_cnn_spec((2, 5, 5), 3, 2, 2), 2,
                                                 sparsity=0.0 if oneshot else 0.6, seed=0)):
            optimizer = Optimizer(config, model.named_parameters())
            assert count_flops(model, optimizer.active) == count_flops(model)
            fit(model, data, data, config, sparsity_target=0.8 if oneshot else None,
                optimizer=optimizer)
            assert count_flops(model, optimizer.active) == count_flops(model)

    def test_count_and_restore_walk_no_shapes(self, monkeypatch):
        data = images((1, 4, 4))
        model = build_trails(small_cnn_spec((1, 4, 4), 2, 1, 2), 1, 2, 0.5, seed=0)
        config = small_config(total_steps=4, eval_interval=4,
                              topology=TopologySchedule(strategy="rigl", delta_t=2))
        optimizer, ledger = Optimizer(config, model.named_parameters()), count_flops(model)
        fit(model, data, data, config, optimizer=optimizer, ledger=ledger)
        ckpt = capture(model, optimizer, ledger, 4, "00" * 32)
        fresh = build_trails(small_cnn_spec((1, 4, 4), 2, 1, 2), 1, 2, 0.5, seed=3)

        def walk(*args, **kwargs):
            raise AssertionError("activation_shape called after the build")
        monkeypatch.setattr(model_module, "activation_shape", walk)
        assert count_flops(model).forward_sparse == ledger.forward_sparse
        fresh_ledger = count_flops(fresh)
        assert restore(ckpt, fresh, Optimizer(config, fresh.named_parameters()),
                       fresh_ledger) == 4
        assert fresh_ledger.forward_sparse == ledger.forward_sparse


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

    @pytest.mark.parametrize("kind", ["sgd_momentum", "adam"])
    def test_each_member_trains_as_if_alone_on_its_own_data(self, kind):
        # 40 samples in batches of 16: a short last batch, and 30 steps span
        # ten epochs, so every member reshuffles from its own stream
        data = gen_synthetic("rings", 40, noise=0.2, seed=12)
        config = small_config(total_steps=30, eval_interval=30, optimizer=kind,
                              lr=0.05 if kind == "sgd_momentum" else 0.01,
                              weight_decay=5e-4)

        def ensemble():
            return build_independent_ensemble(mlp_spec(2, 6, 2, 2), 3, sparsity=0.5,
                                              seed=13)

        model = ensemble()
        fit(model, data, data, config)
        alone = ensemble()
        for member, layers in enumerate(alone.heads):
            train_member_alone(layers, member, data, config)
        for got, want in zip(model.named_parameters(), alone.named_parameters()):
            assert got.array.tobytes() == want.array.tobytes(), got.name

    @staticmethod
    def run_and_resume(independent: bool, monkeypatch):
        """7 steps of 40 samples in batches of 16, 3 steps an epoch, so
        epochs 0-2; then the same run again from its step-4 checkpoint, mid
        epoch 1, so epochs 1-2. Returns each run's `batches` calls as
        (seed, epochs) and each run's final parameter bytes."""
        data = gen_synthetic("rings", 40, noise=0.2, seed=12)
        config = small_config(total_steps=7, eval_interval=7, optimizer="adam", lr=0.01)
        calls = []

        def counted(dataset, batch_size, seed, epochs, drop_last=False):
            calls[-1].append((seed, epochs))
            return data_module.batches(dataset, batch_size, seed, epochs, drop_last)

        monkeypatch.setattr(train_module, "batches", counted)

        def model():
            spec = mlp_spec(2, 6, 2, 2)
            return build_independent_ensemble(spec, 3, sparsity=0.5, seed=13) \
                if independent else build_trails(spec, 1, 3, 0.5, seed=13)

        calls.append([])
        straight, kept = model(), []
        optimizer, ledger = Optimizer(config, straight.named_parameters()), count_flops(straight)
        fit(straight, data, data, config, optimizer=optimizer, ledger=ledger,
            on_checkpoint=lambda step, *state: kept.append(  # capture holds views
                copy.deepcopy(capture(*state, step, "00" * 32))) if step == 4 else None)
        calls.append([])
        resumed = model()
        optimizer, ledger = Optimizer(config, resumed.named_parameters()), count_flops(resumed)
        start = restore(kept[0], resumed, optimizer, ledger)
        fit(resumed, data, data, config, start_step=start, optimizer=optimizer,
            ledger=ledger)
        return calls, [[ref.array.tobytes() for ref in run.named_parameters()]
                       for run in (straight, resumed)]

    @pytest.mark.parametrize("independent", [False, True])
    def test_batches_runs_once_per_member_per_epoch_touched(self, independent,
                                                            monkeypatch):
        calls, (straight, resumed) = self.run_and_resume(independent, monkeypatch)
        members = 3 if independent else 1
        for run, touched in zip(calls, ({0, 1, 2}, {1, 2})):
            drawn = [(seed, epoch) for seed, epochs in run for epoch in epochs]
            assert len(drawn) == len(set(drawn)) == members * len(touched)
            assert {epoch for _, epoch in drawn} == touched
            assert len(run) == members    # one call per member draws all its epochs
        assert straight == resumed

    @pytest.mark.parametrize("independent", [False, True])
    def test_a_small_order_budget_draws_the_epochs_in_groups(self, independent,
                                                             monkeypatch):
        _, want = self.run_and_resume(independent, monkeypatch)
        members = 3 if independent else 1
        monkeypatch.setattr(train_module, "_ORDERS_AHEAD", 2 * 40 * members)  # two epochs
        (straight, resumed), got = self.run_and_resume(independent, monkeypatch)
        assert [epochs for _, epochs in straight] == \
            [range(0, 2)] * members + [range(2, 3)] * members
        assert [epochs for _, epochs in resumed] == [range(1, 3)] * members
        assert got == want

    def test_fit_leaves_the_callers_schedule_alone(self):
        data = gen_synthetic("two_clusters", 32, noise=0.3, seed=8)
        sched = TopologySchedule(strategy="set", delta_t=5, initial_drop_fraction=0.3)
        config = small_config(total_steps=10, eval_interval=10, topology=sched)
        history = fit(toy_model(sparsity=0.5, heads=2), data, data, config)
        assert history.updates
        assert config.topology is sched
        assert sched == TopologySchedule(strategy="set", delta_t=5,
                                         initial_drop_fraction=0.3)

    def test_oneshot_prunes_to_target_and_freezes(self):
        data = gen_synthetic("two_clusters", 48, noise=0.3, seed=11)
        model = toy_model(sparsity=0.0, heads=2)
        sched = TopologySchedule(strategy="prune_oneshot", prune_at_fraction=0.5)
        config = small_config(total_steps=40, base_steps=40, eval_interval=40,
                              topology=sched)
        history = fit(model, data, data, config, sparsity_target=0.5)
        assert history.events and history.events[0]["event"] == "one_shot_prune"
        weights = [ref for ref in model.component_parameters() if ref.mask is not None]
        total = sum(ref.mask.size for ref in weights)
        active = sum(int(ref.mask.sum()) for ref in weights)
        assert active == round(0.5 * total)
        assert history.ledger.forward_sparse < history.ledger.forward_dense

    @pytest.mark.parametrize("strategy", ["rigl", "prune_oneshot"])
    def test_optimizer_state_reset_at_every_mask_change(self, strategy, monkeypatch):
        data = gen_synthetic("rings", 48, noise=0.2, seed=5)
        resets = []
        original = Optimizer.reset_positions

        def recording(opt, positions):
            resets.append(sorted(int(i) for i in positions))
            original(opt, positions)

        monkeypatch.setattr(Optimizer, "reset_positions", recording)
        if strategy == "rigl":
            model = toy_model(sparsity=0.6, heads=2, seed=6)
            sched = TopologySchedule(strategy="rigl", delta_t=5, initial_drop_fraction=0.4)
            config = small_config(total_steps=20, eval_interval=20, topology=sched)
            target = None
        else:
            model = toy_model(sparsity=0.0, heads=2)
            sched = TopologySchedule(strategy="prune_oneshot", prune_at_fraction=0.5)
            config = small_config(total_steps=40, base_steps=40, eval_interval=40,
                                  topology=sched)
            target = 0.5
        before = {ref.name: ref.mask.copy() for ref in model.component_parameters()
                  if ref.mask is not None}
        optimizer = Optimizer(config, model.named_parameters())
        history = fit(model, data, data, config, sparsity_target=target,
                      optimizer=optimizer)

        # one reset per mask change, at store positions: each component
        # layer's flat positions from the start of its range of the store
        start = {ref.name: ref.offset for ref in model.component_parameters()}
        if strategy == "rigl":
            want = [sorted(start[f"{r.component}/{u.layer}/weight"] + i
                           for r in history.updates if r.step == step
                           for u in r.layers for i in u.pruned + u.grown)
                    for step in sorted({r.step for r in history.updates})]
        else:
            # masks are frozen after the prune, so the final ones show what it dropped
            dropped = {ref.name: np.flatnonzero(before[ref.name] > ref.mask).tolist()
                       for ref in model.component_parameters() if ref.mask is not None}
            want = [sorted(start[name] + i for name, flat in dropped.items() for i in flat)]
            assert history.events[0]["pruned_counts"] == {
                name: len(flat) for name, flat in dropped.items()}
        assert want and any(want)
        assert resets == want
        for p in model.named_parameters():
            if p.mask is not None:
                for slot in optimizer.state[p.name].values():
                    assert np.all(slot[p.mask == 0] == 0.0)

    def test_divergence_raises_with_step(self):
        data = gen_synthetic("two_clusters", 32, noise=0.3, seed=12)
        model = toy_model(sparsity=0.0, heads=1)
        config = small_config(total_steps=30, lr=1e18, schedule="step_decay")
        with pytest.raises(TrainingDiverged):
            fit(model, data, data, config)

    def test_an_infinite_loss_with_finite_gradients_changes_nothing(self):
        # a logit of -inf at the target class: the loss is inf, every gradient finite
        data = gen_synthetic("rings", 64, noise=0.2, seed=12)
        model = toy_model(sparsity=0.5, heads=2, hidden=8)
        model.head_stack[-1].bias[:, 0] = -np.inf
        config = small_config(optimizer="adam")
        optimizer = Optimizer(config, model.named_parameters())
        values, slots = model.store.values.tobytes(), \
            {name: slot.tobytes() for name, slot in optimizer.slots.items()}
        with pytest.raises(TrainingDiverged, match="loss diverged to inf at step 1"):
            fit(model, data, data, config, optimizer=optimizer)
        assert model.store.values.tobytes() == values
        assert {name: slot.tobytes() for name, slot in optimizer.slots.items()} == slots
        assert optimizer.adam_t == 0


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
