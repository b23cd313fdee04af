import numpy as np
import pytest

from sparsetrails import nn
from sparsetrails.model import (HeadOutputs, build_independent_ensemble, build_trails,
                                composite_loss, forward_heads, head_predictions,
                                mlp_spec, model_backward, model_finite_difference,
                                small_cnn_spec, soft_vote)
from sparsetrails.nn import stack_forward
from sparsetrails.rng import Stream

from conftest import max_relative_error


def toy_spec(blocks=3, hidden=8, input_dim=2, classes=2):
    return mlp_spec(input_dim, hidden, blocks, classes)


def toy_batch(stream, n, dim):
    return stream.normals(n * dim).astype(np.float32).reshape(n, dim)


class TestBuildTrails:
    def test_dense_single_head_full_split_equals_base_network(self):
        spec = toy_spec()
        model = build_trails(spec, split_index=spec.num_blocks, num_heads=1,
                             sparsity=0.0, seed=3)
        # reassemble the flat network from the model's own layers and compare
        flat = model.backbone + model.heads[0]
        x = toy_batch(Stream(8), 5, 2)
        via_model = forward_heads(model, x).logits[0]
        direct, _ = stack_forward(flat, x)
        np.testing.assert_array_equal(via_model, direct)
        assert all(l.weight is None or l.weight.mask.all() for l in flat)

    def test_split_zero_shares_only_the_stem(self):
        spec = toy_spec(blocks=3)
        model = build_trails(spec, split_index=0, num_heads=3, sparsity=0.5, seed=0)
        assert len(model.backbone) == len(spec.stem)
        # each head owns all L blocks plus the classifier
        per_head = sum(len(b) for b in spec.blocks) + len(spec.classifier)
        assert all(len(h) == per_head for h in model.heads)

    def test_full_split_heads_are_classifier_only(self):
        spec = toy_spec(blocks=2)
        model = build_trails(spec, split_index=2, num_heads=2, sparsity=0.0, seed=0)
        assert all(len(h) == len(spec.classifier) for h in model.heads)

    def test_same_seed_bit_identical(self):
        spec = toy_spec()
        a = build_trails(spec, 1, 3, 0.6, seed=42)
        b = build_trails(spec, 1, 3, 0.6, seed=42)
        for pa, pb in zip(a.named_parameters(), b.named_parameters()):
            assert pa.name == pb.name
            assert pa.array.tobytes() == pb.array.tobytes()
            if pa.mask is not None:
                assert pa.mask.tobytes() == pb.mask.tobytes()

    def test_heads_get_distinct_weights_and_masks(self):
        model = build_trails(toy_spec(), 1, 3, 0.5, seed=1)
        w0 = model.heads[0][0].weight
        w1 = model.heads[1][0].weight
        assert w0.values.tobytes() != w1.values.tobytes()
        assert w0.mask.tobytes() != w1.mask.tobytes()

    def test_split_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="split index"):
            build_trails(toy_spec(blocks=2), 3, 1, 0.0)

    def test_component_budgets_match_plans(self):
        model = build_trails(toy_spec(blocks=4, hidden=10), 2, 2, 0.7, seed=5)
        for comp_idx, plan in enumerate(model.plans):
            if plan is None:
                continue
            for pos, li in enumerate(plan.layer_indices):
                mt = dict(model.masked_layers(comp_idx))[li]
                assert mt.active_count() == plan.budgets[pos]

    def test_conv_base_builds_and_runs(self):
        spec = small_cnn_spec((1, 6, 6), channels=3, num_blocks=2, num_classes=4)
        model = build_trails(spec, 1, 2, 0.5, allocation="erk", seed=2)
        x = Stream(0).normals(2 * 36).astype(np.float32).reshape(2, 1, 6, 6)
        out = forward_heads(model, x)
        assert out.logits[0].shape == (2, 4)


class TestForwardHeads:
    def test_identical_heads_give_identical_logits(self):
        model = build_trails(toy_spec(), 1, 3, 0.5, seed=7)
        for h in model.heads[1:]:
            for src, dst in zip(model.heads[0], h):
                if src.weight is not None:
                    dst.weight.values[...] = src.weight.values
                    dst.weight.mask[...] = src.weight.mask
                if src.bias is not None:
                    dst.bias[...] = src.bias
        out = forward_heads(model, toy_batch(Stream(1), 4, 2))
        for y in out.logits[1:]:
            np.testing.assert_array_equal(out.logits[0], y)

    def test_backbone_runs_once_per_batch(self):
        model = build_trails(toy_spec(), 1, 5, 0.0, seed=0)
        x = toy_batch(Stream(2), 3, 2)
        before = model.backbone_forward_count
        forward_heads(model, x)
        forward_heads(model, x)
        assert model.backbone_forward_count == before + 2

    def test_head_independence_zeroing_one_head(self):
        model = build_trails(toy_spec(), 1, 3, 0.0, seed=9)
        x = toy_batch(Stream(3), 4, 2)
        baseline = forward_heads(model, x)
        for layer in model.heads[1]:
            if layer.weight is not None:
                layer.weight.values[...] = 0.0
            if layer.bias is not None:
                layer.bias[...] = 0.0
        after = forward_heads(model, x)
        np.testing.assert_array_equal(baseline.logits[0], after.logits[0])
        np.testing.assert_array_equal(baseline.logits[2], after.logits[2])
        assert not np.array_equal(baseline.logits[1], after.logits[1])


class TestCompositeLoss:
    def test_identical_heads_equal_single_head_loss(self):
        model = build_trails(toy_spec(), 3, 1, 0.0, seed=4)
        x = toy_batch(Stream(4), 6, 2)
        y = np.array([0, 1, 0, 1, 0, 1])
        out = forward_heads(model, x)
        total, per_head = composite_loss(out, y)
        assert total == pytest.approx(per_head[0][0])

    def test_mean_of_two_head_losses(self):
        logits_a = np.array([[10.0, 0.0]], dtype=np.float32)
        logits_b = np.array([[0.0, 10.0]], dtype=np.float32)
        out = HeadOutputs(logits=[logits_a, logits_b], backbone_output=None)
        total, per_head = composite_loss(out, np.array([0]))
        assert total == pytest.approx((per_head[0][0] + per_head[1][0]) / 2.0)

    def test_arithmetic_mean_hand_case(self):
        out = HeadOutputs(logits=[np.log(np.array([[0.6703, 0.3297]], dtype=np.float32)),
                                  np.log(np.array([[0.4493, 0.5507]], dtype=np.float32))],
                          backbone_output=None)
        total, per_head = composite_loss(out, np.array([0]))
        assert per_head[0][0] == pytest.approx(0.4, abs=1e-3)
        assert per_head[1][0] == pytest.approx(0.8, abs=1e-3)
        assert total == pytest.approx(0.6, abs=1e-3)


class TestSoftVote:
    def test_hand_average(self):
        probs = [np.array([[0.6, 0.4]]), np.array([[0.2, 0.8]]),
                 np.array([[0.55, 0.45]])]
        logits = [np.log(p).astype(np.float32) for p in probs]
        out = HeadOutputs(logits=logits, backbone_output=None)
        ens, preds = soft_vote(out)
        np.testing.assert_allclose(ens, [[0.45, 0.55]], atol=1e-6)
        assert preds.tolist() == [1]

    def test_shared_argmax_is_preserved(self):
        out = HeadOutputs(logits=[np.array([[3.0, 1.0, 0.0]], dtype=np.float32),
                                  np.array([[5.0, 4.0, 0.0]], dtype=np.float32)],
                          backbone_output=None)
        _, preds = soft_vote(out)
        assert preds.tolist() == [0]

    def test_single_head_is_its_own_prediction(self):
        logits = np.array([[0.2, 1.5, -1.0]], dtype=np.float32)
        out = HeadOutputs(logits=[logits], backbone_output=None)
        ens, preds = soft_vote(out)
        np.testing.assert_allclose(ens, nn.softmax(logits), atol=1e-7)
        assert preds.tolist() == [1]

    def test_identical_heads_equal_single_head_softmax_exactly(self):
        logits = np.array([[0.3, -0.7], [1.0, 2.0]], dtype=np.float32)
        out = HeadOutputs(logits=[logits, logits.copy(), logits.copy()],
                          backbone_output=None)
        ens, _ = soft_vote(out)
        np.testing.assert_array_equal(ens, nn.softmax(logits))

    def test_logit_voting_mode(self):
        a = np.array([[2.0, 0.0]], dtype=np.float32)
        b = np.array([[0.0, 1.0]], dtype=np.float32)
        out = HeadOutputs(logits=[a, b], backbone_output=None)
        ens, preds = soft_vote(out, vote="logits")
        np.testing.assert_allclose(ens, nn.softmax(np.array([[1.0, 0.5]])), atol=1e-6)
        assert preds.tolist() == [0]

    def test_argmax_tie_takes_lowest_class(self):
        out = HeadOutputs(logits=[np.zeros((1, 3), dtype=np.float32)],
                          backbone_output=None)
        _, preds = soft_vote(out)
        assert preds.tolist() == [0]


class TestModelBackward:
    def test_backbone_gradient_aggregates_heads(self):
        model = build_trails(toy_spec(blocks=2, hidden=5), 1, 3, 0.4, seed=12)
        x = toy_batch(Stream(6), 3, 2)
        y = np.array([0, 1, 1])
        out = forward_heads(model, x, record=True)
        _, per_head = composite_loss(out, y)
        analytic = model_backward(model, out, y, [p for _, p in per_head])
        fd = model_finite_difference(model, x, y, eps=1e-5)
        for comp in model.component_names():
            for got, want in zip(analytic[comp].layers, fd[comp].layers):
                if got.weight is not None:
                    assert max_relative_error(got.weight, want.weight) < 1e-3
                if got.bias is not None:
                    assert max_relative_error(got.bias, want.bias) < 1e-3

    def test_backward_requires_recording(self):
        model = build_trails(toy_spec(), 1, 2, 0.0, seed=0)
        out = forward_heads(model, toy_batch(Stream(0), 2, 2), record=False)
        y = np.array([0, 1])
        _, per_head = composite_loss(out, y)
        with pytest.raises(ValueError, match="record=True"):
            model_backward(model, out, y, [p for _, p in per_head])


class TestIndependentEnsemble:
    def test_members_own_everything(self):
        spec = toy_spec(blocks=2)
        model = build_independent_ensemble(spec, 3, sparsity=0.0, seed=1)
        assert model.backbone == []
        assert model.independent
        per_member = len(spec.flat_layers())
        assert all(len(h) == per_member for h in model.heads)

    def test_distinct_member_initializations(self):
        model = build_independent_ensemble(toy_spec(), 3, sparsity=0.0, seed=1)
        stems = [h[0].weight.values.tobytes() for h in model.heads]
        assert len(set(stems)) == 3

    def test_head_predictions_shape(self):
        model = build_independent_ensemble(toy_spec(), 3, 0.0, seed=2)
        out = forward_heads(model, toy_batch(Stream(5), 7, 2))
        assert head_predictions(out).shape == (3, 7)
