import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sparsetrails.nn import ParamRef
from sparsetrails.rng import Stream
from sparsetrails.topology import (TopologySchedule, _top_k, drop_fraction,
                                   one_shot_global_prune, select_grow,
                                   select_prune, topology_update)

import oracles
from conftest import masked


def mt(values, mask=None):
    values = np.asarray(values, dtype=np.float32)
    return masked(values, np.ones_like(values) if mask is None else mask)


def record(weights, name="head0/0/weight", grad=None):
    """A weight record over a MaskedTensor's arrays, as `component_parameters` lists it."""
    return ParamRef(name, weights.values, weights.mask, grad)


class TestDropFraction:
    def test_start_is_initial(self):
        assert drop_fraction(0, 100, 0.5) == pytest.approx(0.5)

    def test_end_is_zero(self):
        assert drop_fraction(100, 100, 0.5) == pytest.approx(0.0, abs=1e-15)

    def test_midpoint(self):
        assert drop_fraction(50, 100, 0.5) == pytest.approx(0.25)

    def test_beyond_horizon_rejected(self):
        with pytest.raises(ValueError, match="horizon"):
            drop_fraction(101, 100, 0.5)


class TestSelectPrune:
    def test_magnitude_bottom_k(self):
        weights = mt([0.5, -0.1, 0.3, -0.7])
        assert select_prune(weights, 2).tolist() == [1, 2]

    def test_zero_k_empty(self):
        assert select_prune(mt([1.0, 2.0]), 0).size == 0

    def test_k_above_active_rejected(self):
        with pytest.raises(ValueError, match="prune"):
            select_prune(mt([1.0, 2.0], [1, 0]), 2)

    def test_magnitude_ties_resolve_to_lowest_flat_index(self):
        weights = mt([0.3, 0.5, 0.3, 0.3])
        assert select_prune(weights, 2).tolist() == [0, 2]

    def test_soft_low_temperature_matches_hard(self):
        weights = mt([0.5, -0.1, 0.3, -0.7])
        got = select_prune(weights, 2, "soft_magnitude", temperature=1e-6,
                           stream=Stream(3))
        assert got.tolist() == [1, 2]

    def test_soft_requires_stream(self):
        with pytest.raises(ValueError, match="stream"):
            select_prune(mt([1.0, 2.0]), 1, "soft_magnitude")

    def test_soft_only_picks_active_positions(self):
        weights = mt([0.5, 0.0, 0.3, 0.0, 0.2, 0.9], [1, 0, 1, 0, 1, 1])
        for seed in range(20):
            picks = select_prune(weights, 2, "soft_magnitude", temperature=3.0,
                                 stream=Stream(seed))
            assert set(picks.tolist()) <= {0, 2, 4, 5}

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=60, deadline=None)
    def test_soft_tiny_temperature_equals_magnitude_on_random_layers(self, seed):
        stream = Stream(seed)
        n = 2 + stream.randbelow(99)
        values = stream.normals(n).astype(np.float32)
        mask = (stream.uniforms(n) < 0.7).astype(np.uint8)
        if mask.sum() == 0:
            mask[0] = 1
        weights = mt(values, mask)
        k = stream.randbelow(int(mask.sum()) + 1)
        hard = select_prune(weights, k)
        soft = select_prune(weights, k, "soft_magnitude", temperature=1e-6,
                            stream=stream.child("g"))
        assert hard.tolist() == soft.tolist()


class TestSelectGrow:
    def test_gradient_picks_largest(self):
        mask = np.array([1, 0, 0, 0], dtype=np.uint8)
        grads = np.array([9.9, 0.2, 0.9, 0.4], dtype=np.float32)
        assert select_grow(mask, 1, "gradient", dense_grad=grads).tolist() == [2]

    def test_random_exhaustion_returns_all_inactive(self):
        mask = np.array([1, 0, 0, 1], dtype=np.uint8)
        got = select_grow(mask, 2, "random", stream=Stream(0))
        assert got.tolist() == [1, 2]

    def test_zero_k_empty(self):
        assert select_grow(np.zeros(4, dtype=np.uint8), 0, "random",
                           stream=Stream(0)).size == 0

    def test_k_above_inactive_rejected(self):
        with pytest.raises(ValueError, match="grow"):
            select_grow(np.ones(4, dtype=np.uint8), 1, "random", stream=Stream(0))

    def test_gradient_without_dense_grads_rejected(self):
        with pytest.raises(ValueError, match="dense gradients"):
            select_grow(np.zeros(4, dtype=np.uint8), 1, "gradient")

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=60, deadline=None)
    def test_gradient_matches_bruteforce_topk(self, seed):
        stream = Stream(seed)
        n = 2 + stream.randbelow(99)
        mask = (stream.uniforms(n) < 0.5).astype(np.uint8)
        grads = stream.normals(n)
        inactive = [i for i in range(n) if mask[i] == 0]
        k = stream.randbelow(len(inactive) + 1)
        got = select_grow(mask, k, "gradient", dense_grad=grads)
        want = sorted(sorted(inactive, key=lambda i: (-abs(grads[i]), i))[:k])
        assert got.tolist() == want

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=60, deadline=None)
    def test_magnitude_prune_matches_bruteforce_bottomk(self, seed):
        stream = Stream(seed)
        n = 2 + stream.randbelow(99)
        values = stream.normals(n).astype(np.float32)
        mask = (stream.uniforms(n) < 0.6).astype(np.uint8)
        if mask.sum() == 0:
            mask[0] = 1
        weights = mt(values, mask)
        active = [i for i in range(n) if mask[i] == 1]
        k = stream.randbelow(int(mask.sum()) + 1)
        got = select_prune(weights, k)
        want = sorted(sorted(active, key=lambda i: (abs(weights.values[i]), i))[:k])
        assert got.tolist() == want


class TestTopK:
    # a handful of values, signed zeros and infinities: most scores tie
    TIES = st.sampled_from([-np.inf, -1.5, -0.0, 0.0, 0.25, 0.25, 1.0, np.inf])

    @given(st.data(), st.sampled_from([np.float32, np.float64]))
    @settings(max_examples=200, deadline=None)
    def test_same_set_as_the_stable_argsort(self, data, dtype):
        scores = data.draw(arrays(dtype, st.integers(1, 80), elements=self.TIES))
        k = data.draw(st.integers(1, scores.size))
        want = np.sort(np.argsort(-scores, kind="stable")[:k])
        assert _top_k(scores, k).tolist() == want.tolist()


def make_schedule(**kw):
    defaults = dict(strategy="set", delta_t=10, initial_drop_fraction=0.5)
    defaults.update(kw)
    return TopologySchedule(**defaults)


class TestTopologyUpdate:
    def test_final_step_is_identity(self):
        weights = mt([1.0, 2.0, 3.0, 4.0])
        sched = make_schedule()
        rec = topology_update([record(weights)], sched, 100, 100,
                              streams={"head0/0": Stream(0)})
        assert rec.layers[0].pruned == [] and rec.layers[0].grown == []

    def test_density_conserved_and_counts_match(self):
        stream = Stream(7)
        values = stream.normals(20).astype(np.float32)
        mask = np.zeros(20, dtype=np.uint8)
        mask[stream.choice_without_replacement(20, 10)] = 1
        weights = mt(values, mask)
        sched = make_schedule()
        rec = topology_update([record(weights)], sched, 100, 200,
                              streams={"head0/0": Stream(1)})
        update = rec.layers[0]
        assert len(update.pruned) == len(update.grown) == 3  # round(0.25 * 10 + 0.5) = 3
        assert update.active_before == update.active_after == 10
        assert weights.active_count() == 10

    def test_grown_weights_start_at_zero(self):
        weights = mt([1.0, 2.0, 3.0, 4.0], [1, 1, 0, 0])
        sched = make_schedule(strategy="set", initial_drop_fraction=1.0)
        rec = topology_update([record(weights)], sched, 50, 100,
                              streams={"head0/0": Stream(2)})
        for g in rec.layers[0].grown:
            assert weights.values.reshape(-1)[g] == 0.0
            assert weights.mask.reshape(-1)[g] == 1

    def test_grown_disjoint_from_surviving_active(self):
        stream = Stream(11)
        for trial in range(10):
            values = stream.normals(30).astype(np.float32)
            mask = (stream.uniforms(30) < 0.5).astype(np.uint8)
            if mask.sum() == 0:
                mask[0] = 1
            weights = mt(values, mask)
            before = set(np.flatnonzero(weights.mask))
            sched = make_schedule()
            rec = topology_update([record(weights)], sched, 10, 100,
                                  streams={"head0/0": stream.child(trial)})
            upd = rec.layers[0]
            survivors = before - set(upd.pruned)
            assert not (set(upd.grown) & survivors)

    def test_record_names_pick_the_component_layers_and_streams(self):
        def weights():
            return mt(np.arange(1, 13, dtype=np.float32), np.tile([1, 0], 6))

        rec = topology_update([record(weights(), "head1/0/weight"),
                               record(weights(), "head1/2/weight")], make_schedule(), 20, 40,
                              streams={"head1/0": Stream(5), "head1/2": Stream(6)})
        assert rec.component == "head1" and [u.layer for u in rec.layers] == [0, 2]
        assert rec.layers[0].grown != rec.layers[1].grown
        for got, stream in zip(rec.layers, (Stream(5), Stream(6))):
            alone = topology_update([record(weights())], make_schedule(), 20, 40,
                                    streams={"head0/0": stream}).layers[0]
            assert (alone.pruned, alone.grown) == (got.pruned, got.grown)

    def test_rigl_grows_where_the_records_gradient_is_largest(self):
        weights = mt([4.0, 3.0, 2.0, 1.0, 0.0, 0.0], [1, 1, 1, 1, 0, 0])
        grad = np.array([0.0, 0.0, 0.5, 0.0, 0.1, 0.9], np.float32)
        rec = topology_update([record(weights, grad=grad)], make_schedule(strategy="rigl"),
                              10, 100)
        assert rec.layers[0].pruned == [2, 3] and rec.layers[0].grown == [2, 5]
        assert weights.mask.tolist() == [1, 1, 1, 0, 0, 1]

    def test_off_schedule_rejected(self):
        with pytest.raises(ValueError, match="off the update schedule"):
            topology_update([record(mt([1.0]))], make_schedule(delta_t=10), 15, 100)

    def test_static_strategy_rejected(self):
        with pytest.raises(ValueError, match="strategy"):
            topology_update([record(mt([1.0]))], make_schedule(strategy="static"), 10, 100)

    def test_set_reproducible_across_runs(self):
        def run():
            weights = mt(np.arange(1, 13, dtype=np.float32), np.tile([1, 0], 6))
            sched = make_schedule()
            rec = topology_update([record(weights)], sched, 20, 40,
                                  streams={"head0/0": Stream(77).child("topo", 0, 0)})
            return rec.layers[0].pruned, rec.layers[0].grown, weights.mask.copy()

        first, second = run(), run()
        assert first[0] == second[0] and first[1] == second[1]
        np.testing.assert_array_equal(first[2], second[2])


class TestOneShotGlobalPrune:
    def test_zero_sparsity_keeps_everything(self):
        a, b = mt([1.0, -2.0]), mt([[3.0], [4.0]])
        one_shot_global_prune([record(a, "a"), record(b, "b")], 0.0)
        assert a.active_count() == 2 and b.active_count() == 2

    def test_keeps_global_top_half(self):
        a, b = mt([1.0, 2.0, 3.0]), mt([4.0, 5.0, 6.0])
        one_shot_global_prune([record(a, "a"), record(b, "b")], 0.5)
        np.testing.assert_array_equal(a.mask, [0, 0, 0])
        np.testing.assert_array_equal(b.mask, [1, 1, 1])
        np.testing.assert_array_equal(a.values, 0.0)

    def test_single_survivor_is_global_argmax(self):
        a, b = mt([1.0, -9.0]), mt([2.0, 3.0])
        one_shot_global_prune([record(a, "a"), record(b, "b")], 0.75)
        assert a.mask.tolist() == [0, 1]
        assert b.mask.tolist() == [0, 0]

    def test_sparsity_one_rejected(self):
        with pytest.raises(ValueError, match="sparsity"):
            one_shot_global_prune([record(mt([1.0]), "a")], 1.0)

    def test_ties_resolve_to_earlier_layer_and_index(self):
        a, b = mt([2.0, 2.0]), mt([2.0, 2.0])
        one_shot_global_prune([record(a, "a"), record(b, "b")], 0.5)
        assert a.mask.tolist() == [1, 1]
        assert b.mask.tolist() == [0, 0]

    # few magnitudes, so most weights tie; masked entries add more +0.0 ties
    VALUES = st.sampled_from([-2.0, -0.5, -0.0, 0.0, 0.5, 0.5, 2.0, np.inf])

    @given(st.data(), st.one_of(st.sampled_from([0.0, 0.999]), st.floats(0.0, 0.999)))
    @settings(max_examples=200, deadline=None)
    def test_same_masks_and_dropped_lists_as_the_lexsort(self, data, sparsity):
        layers = []
        for i in range(data.draw(st.integers(1, 4))):
            shape = data.draw(st.sampled_from([(3,), (2, 5), (1, 2, 2, 3), (17,)]))
            values = data.draw(arrays(np.float32, shape, elements=self.VALUES))
            mask = data.draw(arrays(np.uint8, shape, elements=st.integers(0, 1)))
            layers.append(record(masked(values, mask), f"l{i}"))
        want_layers = [ParamRef(ref.name, ref.array.copy(), ref.mask.copy())
                       for ref in layers]
        got = one_shot_global_prune(layers, sparsity)
        assert got == oracles.one_shot_global_prune(want_layers, sparsity)
        for w, want in zip(layers, want_layers):
            np.testing.assert_array_equal(w.mask, want.mask)
            assert w.array.tobytes() == want.array.tobytes()
