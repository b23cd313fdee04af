import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsetrails.nn import LayerSpec
from sparsetrails.rng import Stream
from sparsetrails.sparsity import (SparsityPlan, allocate, density_factor, init_masks,
                                   round_half_up)


class TestAllocate:
    def test_er_two_layer_hand_solution(self):
        # 4x4 and 8x8 linear layers at S=0.5: factors 0.5 and 0.25, so
        # eps * (0.5*16 + 0.25*64) = 40 gives eps = 5/3.
        specs = [LayerSpec.linear(4, 4), LayerSpec.linear(8, 8)]
        plan = allocate(specs, 0.5, "er")
        assert plan.densities[0] == pytest.approx(5.0 / 6.0, abs=1e-4)
        assert plan.densities[1] == pytest.approx(5.0 / 12.0, abs=1e-4)
        assert sum(plan.budgets) == 40

    def test_uniform_sets_every_density(self):
        specs = [LayerSpec.linear(3, 5), LayerSpec.linear(5, 2),
                 LayerSpec.conv2d(2, 4, 3, 3)]
        plan = allocate(specs, 0.8, "uniform")
        assert plan.densities == pytest.approx([0.2, 0.2, 0.2])

    def test_erk_conv_factor(self):
        spec = LayerSpec.conv2d(8, 16, 3, 3)
        assert density_factor(spec, "erk") == pytest.approx(30.0 / 1152.0)
        assert density_factor(spec, "er") == pytest.approx(24.0 / 128.0)

    def test_relu_layers_are_skipped(self):
        specs = [LayerSpec.linear(4, 4), LayerSpec.relu(), LayerSpec.linear(4, 4)]
        plan = allocate(specs, 0.5, "er")
        assert plan.layer_indices == [0, 2]

    def test_sparsity_one_rejected(self):
        with pytest.raises(ValueError, match="sparsity"):
            allocate([LayerSpec.linear(4, 4)], 1.0, "er")

    def test_pinning_keeps_tiny_layers_dense(self):
        specs = [LayerSpec.linear(1, 1), LayerSpec.linear(100, 100)]
        plan = allocate(specs, 0.5, "er")
        assert plan.densities[0] == 1.0
        assert plan.budgets[0] == 1
        assert sum(plan.budgets) == round_half_up(0.5 * 10001)

    @given(st.integers(min_value=1, max_value=50), st.integers(min_value=0, max_value=10**6),
           st.floats(min_value=0.0, max_value=0.99))
    @settings(max_examples=100, deadline=None)
    def test_global_exactness_random_layer_lists(self, n_layers, seed, sparsity):
        stream = Stream(seed)
        specs = []
        for _ in range(n_layers):
            if stream.random() < 0.7:
                specs.append(LayerSpec.linear(1 + stream.randbelow(40),
                                              1 + stream.randbelow(40)))
            else:
                specs.append(LayerSpec.conv2d(1 + stream.randbelow(8),
                                              1 + stream.randbelow(8),
                                              1 + stream.randbelow(4),
                                              1 + stream.randbelow(4)))
        mode = ("uniform", "er", "erk")[stream.randbelow(3)]
        plan = allocate(specs, sparsity, mode)
        total = sum(plan.layer_sizes)
        assert sum(plan.budgets) == round_half_up((1.0 - sparsity) * total)
        assert all(0 <= b <= s for b, s in zip(plan.budgets, plan.layer_sizes))
        assert all(d <= 1.0 + 1e-12 for d in plan.densities)

    @given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=10**6),
           st.floats(min_value=0.05, max_value=0.95))
    @settings(max_examples=100, deadline=None)
    def test_er_monotone_larger_square_layer_gets_lower_density(self, small, seed, sparsity):
        big = small + 1 + Stream(seed).randbelow(40)
        specs = [LayerSpec.linear(small, small), LayerSpec.linear(big, big)]
        plan = allocate(specs, sparsity, "er")
        assert plan.densities[1] <= plan.densities[0] + 1e-12


def drawn_mask(shape: tuple[int, ...], budget: int, stream: Stream) -> np.ndarray:
    """One layer's mask, drawn by `init_masks` into a zeroed array."""
    mask = np.zeros(shape, np.uint8)
    plan = SparsityPlan(global_sparsity=1 - budget / mask.size, mode="uniform",
                        layer_indices=[0], layer_sizes=[mask.size],
                        densities=[budget / mask.size], budgets=[budget])
    init_masks(plan, [mask], [stream])
    return mask


def zeroed_masks(plan: SparsityPlan, specs: list[LayerSpec]) -> list[np.ndarray]:
    return [np.zeros(specs[i].weight_shape, np.uint8) for i in plan.layer_indices]


class TestInitMasks:
    def test_full_budget_gives_all_ones(self):
        mask = drawn_mask((3, 4), 12, Stream(0))
        np.testing.assert_array_equal(mask, 1)

    def test_zero_budget_gives_all_zeros(self):
        mask = drawn_mask((3, 4), 0, Stream(0))
        np.testing.assert_array_equal(mask, 0)

    def test_deterministic_given_seed(self):
        a = drawn_mask((2, 2), 2, Stream(123).child("mask", 0, 0))
        b = drawn_mask((2, 2), 2, Stream(123).child("mask", 0, 0))
        assert a.tobytes() == b.tobytes()

    def test_budget_exceeding_size_rejected(self):
        with pytest.raises(ValueError, match="budget"):
            drawn_mask((2, 2), 5, Stream(0))

    def test_one_stream_per_maskable_layer(self):
        specs = [LayerSpec.linear(3, 3), LayerSpec.linear(3, 3)]
        plan = allocate(specs, 0.5, "uniform")
        with pytest.raises(ValueError, match="one stream per maskable layer"):
            init_masks(plan, zeroed_masks(plan, specs), [Stream(0)])

    def test_per_layer_ratio_matches_density_within_rounding(self):
        specs = [LayerSpec.linear(10, 10), LayerSpec.linear(20, 20)]
        plan = allocate(specs, 0.7, "er")
        streams = [Stream(5).child("mask", i) for i in range(2)]
        masks = zeroed_masks(plan, specs)
        init_masks(plan, masks, streams)
        for pos, mask in enumerate(masks):
            got = 1.0 - np.count_nonzero(mask) / mask.size
            want = 1.0 - plan.densities[pos]
            assert abs(got - want) <= 1.0 / plan.layer_sizes[pos] + 1e-12

    def test_exact_budget_realized(self):
        specs = [LayerSpec.linear(7, 9), LayerSpec.conv2d(2, 3, 3, 3)]
        plan = allocate(specs, 0.62, "erk")
        masks = zeroed_masks(plan, specs)
        init_masks(plan, masks, [Stream(1), Stream(2)])
        for pos, mask in enumerate(masks):
            assert int(mask.sum()) == plan.budgets[pos]
