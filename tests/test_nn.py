import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sparsetrails import nn
from sparsetrails.nn import (Layer, LayerSpec, MaskedTensor, init_layer,
                             layer_forward, loss_forward, stack_backward,
                             stack_finite_difference, stack_forward)
from sparsetrails.rng import Stream

from conftest import gradcheck_stack, make_linear, max_relative_error, random_stack


class TestLayerForward:
    def test_identity_linear(self):
        layer = make_linear([[1, 0], [0, 1]], bias=[0, 0])
        out = layer_forward(layer, np.array([[3.0, -1.0]], dtype=np.float32))
        np.testing.assert_array_equal(out, [[3.0, -1.0]])

    def test_masked_linear_drops_inactive_weight(self):
        # theta=[[1,2],[3,4]] with mask [[1,0],[1,1]] acts as [[1,0],[3,4]]
        layer = make_linear([[1, 2], [3, 4]], mask=[[1, 0], [1, 1]], bias=[0, 0])
        out = layer_forward(layer, np.array([[1.0, 1.0]], dtype=np.float32))
        np.testing.assert_allclose(out, [[1.0, 7.0]])

    def test_relu(self):
        layer = Layer(spec=LayerSpec.relu())
        out = layer_forward(layer, np.array([[-2.0, 0.0, 5.0]], dtype=np.float32))
        np.testing.assert_array_equal(out, [[0.0, 0.0, 5.0]])

    def test_linear_rejects_wrong_width(self):
        layer = make_linear([[1.0, 2.0]])
        with pytest.raises(ValueError, match="2 input features"):
            layer_forward(layer, np.zeros((1, 3), dtype=np.float32))

    def test_linear_flattens_image_input(self):
        layer = make_linear(np.ones((1, 4)))
        out = layer_forward(layer, np.ones((2, 1, 2, 2), dtype=np.float32))
        np.testing.assert_allclose(out, [[4.0], [4.0]])

    def test_conv2d_matches_direct_cross_correlation(self, stream):
        spec = LayerSpec.conv2d(2, 3, 3, 2, padding="valid")
        layer = init_layer(spec, stream)
        x = stream.normals(2 * 2 * 5 * 6).astype(np.float32).reshape(2, 2, 5, 6)
        got = layer_forward(layer, x)
        kernel = layer.weight.values
        expected = np.zeros_like(got)
        for b in range(2):
            for o in range(3):
                for i in range(got.shape[2]):
                    for j in range(got.shape[3]):
                        patch = x[b, :, i:i + 3, j:j + 2]
                        expected[b, o, i, j] = np.sum(patch * kernel[o]) + layer.bias[o]
        np.testing.assert_allclose(got, expected, rtol=1e-5)

    def test_conv2d_same_padding_preserves_spatial_dims(self, stream):
        spec = LayerSpec.conv2d(1, 2, 3, 3, padding="same")
        layer = init_layer(spec, stream)
        out = layer_forward(layer, np.zeros((1, 1, 7, 5), dtype=np.float32))
        assert out.shape == (1, 2, 7, 5)

    def test_conv2d_rejects_wrong_channels(self, stream):
        layer = init_layer(LayerSpec.conv2d(2, 2, 3, 3), stream)
        with pytest.raises(ValueError, match=r"\(B, 2, H, W\)"):
            layer_forward(layer, np.zeros((1, 3, 5, 5), dtype=np.float32))


class TestMaskedTensor:
    def test_mask_zero_forces_value_zero(self):
        mt = MaskedTensor(values=np.array([[1.0, 2.0]], dtype=np.float32),
                          mask=np.array([[1, 0]], dtype=np.uint8))
        assert mt.values[0, 1] == 0.0
        assert mt.active_count() == 1

    def test_rejects_non_binary_mask(self):
        with pytest.raises(ValueError, match="0 or 1"):
            MaskedTensor(values=np.zeros((2,), dtype=np.float32),
                         mask=np.array([2, 0], dtype=np.uint8))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            MaskedTensor(values=np.zeros((2, 2), dtype=np.float32),
                         mask=np.zeros((2,), dtype=np.uint8))


class TestLossForward:
    def test_symmetric_logits_give_ln2(self):
        loss, probs = loss_forward(np.zeros((1, 2), dtype=np.float32), np.array([0]))
        assert loss == pytest.approx(math.log(2.0), rel=1e-6)
        np.testing.assert_allclose(probs, [[0.5, 0.5]])

    def test_large_margin_loss(self):
        loss, _ = loss_forward(np.array([[10.0, 0.0]], dtype=np.float32), np.array([0]))
        assert loss == pytest.approx(math.log1p(math.exp(-10.0)), rel=1e-4)

    def test_batch_of_equal_rows_equals_single_row(self):
        one, _ = loss_forward(np.array([[1.0, -1.0]], dtype=np.float32), np.array([1]))
        two, _ = loss_forward(np.array([[1.0, -1.0], [-1.0, 1.0]], dtype=np.float32),
                              np.array([1, 0]))
        assert two == pytest.approx(one, rel=1e-6)

    def test_rejects_out_of_range_target(self):
        with pytest.raises(ValueError, match="out of range"):
            loss_forward(np.zeros((1, 2), dtype=np.float32), np.array([2]))

    @given(arrays(np.float32, (3, 4), elements=st.floats(-30, 30, width=32)))
    @settings(max_examples=100)
    def test_softmax_rows_sum_to_one_and_loss_nonnegative(self, logits):
        loss, probs = loss_forward(logits, np.array([0, 1, 2]))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)
        assert loss >= 0.0


class TestBackward:
    def test_hand_gradient_single_weight(self):
        # 1-in 2-out linear, weights [[2],[0]], x=3 -> logits [6, 0], target 0.
        # dL/d theta_00 = x * (p0 - 1) with p0 = sigmoid(6).
        layer = make_linear([[2.0], [0.0]])
        x = np.array([[3.0]], dtype=np.float32)
        logits, tape = stack_forward([layer], x, record=True)
        _, probs = loss_forward(logits, np.array([0]))
        d_logits = nn.loss_backward(probs, np.array([0]))
        grads, _ = stack_backward([layer], tape, d_logits)
        p0 = 1.0 / (1.0 + math.exp(-6.0))
        assert grads.layers[0].weight[0, 0] == pytest.approx(3.0 * (p0 - 1.0), rel=1e-4)

    def test_masked_position_zero_in_active_view_finite_in_dense(self):
        layer = make_linear([[1.0, 5.0]], mask=[[1, 0]])
        x = np.array([[1.0, 2.0]], dtype=np.float32)
        logits_full = np.concatenate([layer_forward(layer, x),
                                      np.zeros((1, 1), dtype=np.float32)], axis=1)
        # build a 2-class head manually: second logit fixed at 0
        layer2 = make_linear([[1.0, 5.0], [0.0, 0.0]], mask=[[1, 0], [1, 1]])
        out, tape = stack_forward([layer2], x, record=True)
        _, probs = loss_forward(out, np.array([0]))
        grads, _ = stack_backward([layer2], tape, nn.loss_backward(probs, np.array([0])),
                                  dense=True)
        lg = grads.layers[0]
        assert lg.weight[0, 1] == 0.0
        assert lg.weight_dense[0, 1] != 0.0
        assert np.isfinite(lg.weight_dense).all()

    def test_zero_input_kills_weight_grads_not_bias(self):
        layer = make_linear([[1.0, 1.0], [2.0, -1.0]], bias=[0.5, -0.5])
        x = np.zeros((3, 2), dtype=np.float32)
        out, tape = stack_forward([layer], x, record=True)
        _, probs = loss_forward(out, np.array([0, 1, 0]))
        grads, _ = stack_backward([layer], tape, nn.loss_backward(probs, np.array([0, 1, 0])))
        np.testing.assert_array_equal(grads.layers[0].weight, 0.0)
        assert np.any(grads.layers[0].bias != 0.0)

    def test_backward_without_tape_rejected(self):
        layer = make_linear([[1.0]])
        with pytest.raises(ValueError, match="recorded forward"):
            stack_backward([layer], None, np.zeros((1, 1), dtype=np.float32))


class TestFiniteDifferences:
    def test_constant_output_model_gives_zero_estimates(self):
        first = make_linear([[0.5, -0.5], [1.0, 0.25]], bias=[0.1, 0.2])
        gate = make_linear(np.zeros((2, 2)), mask=np.zeros((2, 2)))  # no bias, all masked
        x = np.array([[1.0, 2.0]], dtype=np.float32)
        fd = stack_finite_difference([first, Layer(spec=LayerSpec.relu()), gate],
                                     x, np.array([0]))
        np.testing.assert_array_equal(fd.layers[0].weight, 0.0)
        np.testing.assert_array_equal(fd.layers[0].bias, 0.0)

    def test_matches_analytic_on_hand_case(self):
        layer = make_linear([[2.0], [0.0]])
        x = np.array([[3.0]], dtype=np.float32)
        fd = stack_finite_difference([layer], x, np.array([0]), eps=1e-3)
        p0 = 1.0 / (1.0 + math.exp(-6.0))
        assert fd.layers[0].weight[0, 0] == pytest.approx(3.0 * (p0 - 1.0), rel=1e-4)

    def test_zero_eps_rejected(self):
        with pytest.raises(ValueError, match="eps"):
            nn.finite_difference_gradient(lambda: 0.0, [], eps=0.0)

    @pytest.mark.parametrize("seed,kind,sparsity", [(11, "mlp", 0.0), (12, "mlp", 0.5),
                                                    (13, "conv", 0.0), (14, "conv", 0.4)])
    def test_analytic_matches_fd_on_random_stacks(self, seed, kind, sparsity):
        stream = Stream(seed)
        for trial in range(3):
            layers, x, targets = gradcheck_stack(stream.child(trial), kind, sparsity)
            out, tape = stack_forward(layers, x, record=True)
            _, probs = loss_forward(out, targets)
            analytic, _ = stack_backward(layers, tape, nn.loss_backward(probs, targets))
            fd = stack_finite_difference(layers, x, targets, eps=1e-5)
            for got, want in zip(analytic.layers, fd.layers):
                if got.weight is not None:
                    assert max_relative_error(got.weight, want.weight) < 1e-3
                if got.bias is not None:
                    assert max_relative_error(got.bias, want.bias) < 1e-3


class TestDeterminism:
    def test_same_seed_bitwise_identical_forward(self):
        for _ in range(2):
            outs = []
            for _ in range(2):
                stream = Stream(99)
                layers, x, targets = random_stack(stream, "mlp", 0.3)
                out, _ = stack_forward(layers, x)
                outs.append(out)
            assert outs[0].tobytes() == outs[1].tobytes()

    def test_mask_zero_invariance_through_forward_backward(self, stream):
        layers, x, targets = random_stack(stream, "mlp", 0.6)
        masks = [l.weight.mask.copy() for l in layers if l.weight is not None]
        for _ in range(3):
            out, tape = stack_forward(layers, x, record=True)
            _, probs = loss_forward(out, targets)
            stack_backward(layers, tape, nn.loss_backward(probs, targets))
        kept = [l.weight for l in layers if l.weight is not None]
        for mt, mask in zip(kept, masks):
            np.testing.assert_array_equal(mt.mask, mask)
            assert np.all(mt.values[mask == 0] == 0.0)
