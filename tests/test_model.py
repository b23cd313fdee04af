import copy

import numpy as np
import pytest

from sparsetrails import nn
from sparsetrails.model import (HeadOutputs, build_independent_ensemble, build_trails,
                                composite_loss, forward_heads, head_predictions,
                                mlp_spec, model_backward, small_cnn_spec, soft_vote)
from sparsetrails.nn import stack_forward
from sparsetrails.rng import Stream
from sparsetrails.train import Optimizer, TrainConfig

from conftest import max_relative_error, standalone_layer
from oracles import model_astype, model_finite_difference, per_head_pass


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
                mt = model.components()[comp_idx][li].weight
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

    def test_backbone_runs_once_per_batch(self, monkeypatch):
        model = build_trails(toy_spec(), 1, 5, 0.0, seed=0)
        x = toy_batch(Stream(2), 3, 2)
        backbone_runs = []
        original = nn.stack_forward

        def counting(layers, *args, **kwargs):
            if layers is model.backbone:
                backbone_runs.append(1)
            return original(layers, *args, **kwargs)

        monkeypatch.setattr(nn, "stack_forward", counting)
        forward_heads(model, x)
        forward_heads(model, x)
        assert len(backbone_runs) == 2

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
        total, losses, _ = composite_loss(out, y)
        assert total == pytest.approx(losses[0])

    def test_mean_of_two_head_losses(self):
        logits_a = np.array([[10.0, 0.0]], dtype=np.float32)
        logits_b = np.array([[0.0, 10.0]], dtype=np.float32)
        out = HeadOutputs(logits=np.stack([logits_a, logits_b]))
        total, losses, _ = composite_loss(out, np.array([0]))
        assert total == pytest.approx((losses[0] + losses[1]) / 2.0)

    def test_arithmetic_mean_hand_case(self):
        out = HeadOutputs(logits=np.log(np.array([[[0.6703, 0.3297]], [[0.4493, 0.5507]]],
                                                 dtype=np.float32)))
        total, losses, _ = composite_loss(out, np.array([0]))
        assert losses[0] == pytest.approx(0.4, abs=1e-3)
        assert losses[1] == pytest.approx(0.8, abs=1e-3)
        assert total == pytest.approx(0.6, abs=1e-3)


class TestSoftVote:
    def test_hand_average(self):
        probs = [np.array([[0.6, 0.4]]), np.array([[0.2, 0.8]]),
                 np.array([[0.55, 0.45]])]
        logits = [np.log(p).astype(np.float32) for p in probs]
        out = HeadOutputs(logits=np.stack(logits))
        ens, preds = soft_vote(out)
        np.testing.assert_allclose(ens, [[0.45, 0.55]], atol=1e-6)
        assert preds.tolist() == [1]

    def test_shared_argmax_is_preserved(self):
        out = HeadOutputs(logits=np.array([[[3.0, 1.0, 0.0]], [[5.0, 4.0, 0.0]]],
                                          dtype=np.float32))
        _, preds = soft_vote(out)
        assert preds.tolist() == [0]

    def test_single_head_is_its_own_prediction(self):
        logits = np.array([[0.2, 1.5, -1.0]], dtype=np.float32)
        out = HeadOutputs(logits=logits[None])
        ens, preds = soft_vote(out)
        np.testing.assert_allclose(ens, nn.softmax(logits), atol=1e-7)
        assert preds.tolist() == [1]

    def test_identical_heads_equal_single_head_softmax_exactly(self):
        logits = np.array([[0.3, -0.7], [1.0, 2.0]], dtype=np.float32)
        out = HeadOutputs(logits=np.stack([logits, logits, logits]))
        ens, _ = soft_vote(out)
        np.testing.assert_array_equal(ens, nn.softmax(logits))

    def test_logit_voting_mode(self):
        a = np.array([[2.0, 0.0]], dtype=np.float32)
        b = np.array([[0.0, 1.0]], dtype=np.float32)
        out = HeadOutputs(logits=np.stack([a, b]))
        ens, preds = soft_vote(out, vote="logits")
        np.testing.assert_allclose(ens, nn.softmax(np.array([[1.0, 0.5]])), atol=1e-6)
        assert preds.tolist() == [0]

    def test_argmax_tie_takes_lowest_class(self):
        out = HeadOutputs(logits=np.zeros((1, 1, 3), dtype=np.float32))
        _, preds = soft_vote(out)
        assert preds.tolist() == [0]


class TestModelBackward:
    def test_backbone_gradient_aggregates_heads(self):
        model = build_trails(toy_spec(blocks=2, hidden=5), 1, 3, 0.4, seed=12)
        x = toy_batch(Stream(6), 3, 2)
        y = np.array([0, 1, 1])
        out = forward_heads(model, x, record=True)
        _, _, probs = composite_loss(out, y)
        model_backward(model, out, y, probs)
        fd = model_finite_difference(model, x, y, eps=1e-5)
        for ref in model.component_parameters():
            comp, li, kind = ref.name.split("/")
            want = getattr(fd[comp][int(li)], kind)
            assert max_relative_error(ref.grad, want) < 1e-3, ref.name

    def test_backward_requires_recording(self):
        model = build_trails(toy_spec(), 1, 2, 0.0, seed=0)
        out = forward_heads(model, toy_batch(Stream(0), 2, 2), record=False)
        y = np.array([0, 1])
        _, _, probs = composite_loss(out, y)
        with pytest.raises(ValueError, match="record=True"):
            model_backward(model, out, y, probs)


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

    def test_streams_keep_the_member_component_ids(self):
        spec = toy_spec(blocks=2)
        model = build_independent_ensemble(spec, 2, sparsity=0.5, seed=3)
        weighted = [i for i, s in enumerate(spec.flat_layers()) if s.weight_size]
        assert list(model.topo_streams) == [f"head{m}/{i}" for m in range(2)
                                            for i in weighted]
        for m in range(2):
            for i in weighted:
                assert model.topo_streams[f"head{m}/{i}"].get_state() == \
                    Stream(3).child("topo", m + 1, i).get_state()
                layer = model.heads[m][i]
                want = standalone_layer(spec.flat_layers()[i], Stream(3).child("init", m + 1, i),
                                        mask=layer.weight.mask)
                assert layer.weight.values.tobytes() == want.weight.values.tobytes()
                assert layer.bias.tobytes() == want.bias.tobytes()

    def test_each_member_reads_its_own_batch(self):
        model = build_independent_ensemble(toy_spec(), 2, 0.5, seed=4)
        xs = [toy_batch(Stream(6), 5, 2), toy_batch(Stream(7), 5, 2)]
        out = forward_heads(model, xs)
        for head, x, logits in zip(model.heads, xs, out.logits):
            assert logits.tobytes() == stack_forward(head, x)[0].tobytes()

    def test_per_member_batches_need_an_independent_ensemble(self):
        model = build_trails(toy_spec(), 1, 2, 0.0, seed=0)
        xs = [toy_batch(Stream(6), 5, 2), toy_batch(Stream(7), 5, 2)]
        with pytest.raises(ValueError, match="independent"):
            forward_heads(model, xs)


class TestStackedHeads:
    @staticmethod
    def case(kind):
        """A model and a batch: a shared MLP, a shared CNN (its first head conv
        reads the backbone output, the second one per-head inputs), or an
        independent CNN ensemble with one batch per member."""
        stream = Stream(21)
        if kind == "mlp":
            model = build_trails(toy_spec(blocks=3, hidden=7, classes=3), 1, 3, 0.5, seed=5)
            return model, toy_batch(stream, 6, 2), np.array([0, 1, 2, 2, 1, 0])
        spec = small_cnn_spec((2, 6, 6), channels=3, num_blocks=3, num_classes=4)
        images = stream.normals(3 * 5 * 72).astype(np.float32).reshape(3, 5, 2, 6, 6)
        if kind == "cnn":
            return (build_trails(spec, 1, 3, 0.5, allocation="erk", seed=5), images[0],
                    np.array([0, 1, 2, 3, 1]))
        return (build_independent_ensemble(spec, 3, 0.5, allocation="erk", seed=5),
                list(images), [np.array([0, 1, 2, 3, 1]), np.array([3, 3, 0, 1, 2]),
                               np.array([2, 0, 1, 1, 3])])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind", ["mlp", "cnn", "independent"])
    def test_matches_the_per_head_loop_bit_for_bit(self, kind, dtype):
        model, x, y = self.case(kind)
        model = model_astype(model, dtype)
        x = [b.astype(dtype) for b in x] if isinstance(x, list) else x.astype(dtype)
        want_out, want_losses, want_probs, want_loss, want_grads, want_d_h = \
            per_head_pass(model, x, y)

        out = forward_heads(model, x, record=True)
        loss, losses, probs = composite_loss(out, y)
        model_backward(model, out, y, probs)
        assert out.logits.tobytes() == want_out.logits.tobytes()
        assert probs.tobytes() == want_probs.tobytes()
        assert losses.tobytes() == want_losses.tobytes() and loss == want_loss
        assert np.array_equal(head_predictions(out), head_predictions(want_out))
        assert soft_vote(out)[0].tobytes() == soft_vote(want_out)[0].tobytes()
        for ref in model.component_parameters():
            assert ref.grad.dtype == dtype, ref.name
            assert ref.grad.tobytes() == want_grads[ref.name].tobytes(), ref.name
        if not model.independent:
            d_logits = nn.loss_backward(probs, y, scale=1.0 / model.num_heads)
            _, d_h = nn.stack_backward(model.head_stack, out.head_tape, d_logits)
            assert d_h.shape == (1,) + want_d_h.shape
            assert d_h.tobytes() == want_d_h.tobytes()

    @pytest.mark.parametrize("kind", ["mlp", "cnn", "independent"])
    def test_no_data_gradient_and_the_same_parameter_gradients(self, kind):
        model, x, y = self.case(kind)
        out = forward_heads(model, x, record=True)
        _, _, probs = composite_loss(out, y)
        model_backward(model, out, y, probs)
        # the default calls compute every input gradient, the data's included
        targets = np.stack(y) if model.independent else y
        scale = 1.0 if model.independent else 1.0 / model.num_heads
        d_logits = nn.loss_backward(probs, targets, scale=scale)
        heads, d_h = nn.stack_backward(model.head_stack, out.head_tape, d_logits)
        backbone, dx = nn.stack_backward(model.backbone, out.backbone_tape,
                                         d_h if model.independent else d_h[0])
        data = np.stack(x) if model.independent else x
        assert dx.shape == data.shape and dx.dtype == data.dtype
        want = {f"{group}/{li}/{part}": getattr(g, part)
                for group, grads in (("backbone", backbone), ("heads", heads))
                for li, g in enumerate(grads) for part in ("weight", "bias")}
        for ref in model.named_parameters():
            assert ref.grad.tobytes() == want[ref.name].tobytes(), ref.name

    def test_head_views_write_through_to_the_store(self):
        model = build_trails(toy_spec(), 1, 3, 0.5, seed=3)
        layer = model.heads[2][0]
        layer.weight.values[0, 0] = 5.0
        layer.bias[1] = 6.0
        assert model.head_stack[0].weight.values[2, 0, 0] == 5.0
        assert model.head_stack[0].bias[2, 1] == 6.0
        # and a write through `named_parameters` reaches a view made before it
        ref = next(r for r in model.named_parameters() if r.name == "heads/0/weight")
        flat = ref.mask.reshape(-1)
        flat[-1] ^= 1
        assert layer.weight.mask.reshape(-1)[-1] == flat[-1]

    def test_deepcopy_views_write_to_the_copy(self):
        model = build_trails(toy_spec(), 1, 3, 0.5, seed=3)
        before = [ref.array.copy() for ref in model.named_parameters()]
        clone = copy.deepcopy(model)
        for layer in clone.heads[1]:
            if layer.weight is not None:
                layer.weight.values[...] = 7.0
                layer.weight.mask[...] = 1
                layer.bias[...] = 7.0
        assert all((layer.weight.values[1] == 7.0).all() and (layer.bias[1] == 7.0).all()
                    for layer in clone.head_stack if layer.weight is not None)
        for ref, old in zip(model.named_parameters(), before):
            assert ref.array.tobytes() == old.tobytes(), ref.name
        assert not all(layer.weight.mask[1].all()
                       for layer in model.head_stack if layer.weight is not None)

    @pytest.mark.parametrize("how", ["deepcopy", "new_store"])
    def test_deepcopy_views_and_optimizer_use_only_the_copys_store(self, how):
        model = build_trails(toy_spec(blocks=2), 1, 3, 0.5, seed=3)
        if how == "deepcopy":
            clone = copy.deepcopy(model)
        else:  # every view moves with the store it is a view of
            clone = copy.copy(model)
            clone.store = model.store.astype(np.float64)
        ours = [clone.store.values, clone.store.mask, clone.store.grad]
        theirs = [model.store.values, model.store.mask, model.store.grad]
        if how == "deepcopy":
            for got, want in zip(ours, theirs):
                assert got.tobytes() == want.tobytes()
        views = [arr for layers in [clone.backbone, clone.head_stack, *clone.heads]
                 for layer in layers if layer.weight is not None
                 for arr in (layer.weight.values, layer.weight.mask, layer.bias)]
        views += [arr for ref in clone.named_parameters() + clone.component_parameters()
                  for arr in (ref.array, ref.mask, ref.grad) if arr is not None]
        views += [arr for grads in clone.store.grads.values() for g in grads
                  for arr in (g.weight, g.bias) if arr is not None]
        for view in views:
            assert any(np.shares_memory(view, buf) for buf in ours)
            assert not any(np.shares_memory(view, buf) for buf in theirs)
        assert all(ref.store is clone.store for ref in clone.named_parameters())

        before = [buf.copy() for buf in theirs]
        clone.store.grad[...] = 1.0
        optimizer = Optimizer(TrainConfig(total_steps=1), clone.named_parameters())
        optimizer.step(lr=0.1)
        assert not np.array_equal(clone.store.values, model.store.values)
        for buf, old in zip(theirs, before):
            assert buf.tobytes() == old.tobytes()
