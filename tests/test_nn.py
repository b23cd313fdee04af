import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sparsetrails import nn
from sparsetrails.nn import (Layer, LayerSpec, ParamStore, layer_forward, loss_forward,
                             stack_backward, stack_forward)
from sparsetrails.rng import Stream

from conftest import (BLAS_THREADS, gradcheck_stack, make_linear, masked, max_relative_error,
                      random_stack, relative_errors, standalone_layer)
from oracles import (axis_loss_forward, col2im_conv_backward, conv2d_backward, conv2d_forward,
                     finite_difference_gradient, helper_loss_backward, helper_loss_forward,
                     init_layer as oracle_init_layer, per_head_conv_forward,
                     stack_finite_difference)


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
        layer = standalone_layer(spec, stream)
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
        layer = standalone_layer(spec, stream)
        out = layer_forward(layer, np.zeros((1, 1, 7, 5), dtype=np.float32))
        assert out.shape == (1, 2, 7, 5)

    def test_conv2d_rejects_wrong_channels(self, stream):
        layer = standalone_layer(LayerSpec.conv2d(2, 2, 3, 3), stream)
        with pytest.raises(ValueError, match=r"\(B, 2, H, W\)"):
            layer_forward(layer, np.zeros((1, 3, 5, 5), dtype=np.float32))


class TestInitLayer:
    """`init_layer` makes values of the draws its mask keeps only; the store
    bytes and each stream's end state are those of the dense init."""

    # a 196x512 backbone layer; per head a conv just past the lane cutoff
    # (8x8x3x3 = 576 draws), a 512x10 classifier, and a 20x10 layer below it
    GROUPS = {"backbone": ([LayerSpec.linear(196, 512), LayerSpec.relu()], None),
              "heads": ([LayerSpec.conv2d(8, 8, 3, 3), LayerSpec.linear(512, 10),
                         LayerSpec.linear(20, 10)], ["head0", "head1"])}

    @pytest.mark.parametrize("density", [0.0, 1.0, 0.1, 0.5])
    def test_store_bytes_equal_the_dense_init(self, density):
        got, want = ParamStore(self.GROUPS), ParamStore(self.GROUPS)
        picks = np.random.default_rng(int(density * 10))
        for a, b in zip(got.refs, want.refs):
            if a.mask is not None:
                a.mask[...] = b.mask[...] = picks.random(a.mask.shape) < density
        for c, (component, layers) in enumerate(got.components.items()):
            for i, (layer, oracle_layer) in enumerate(zip(layers, want.components[component])):
                stream, oracle_stream = (Stream(9).child("init", c, i) for _ in range(2))
                nn.init_layer(layer, stream)
                oracle_init_layer(oracle_layer, oracle_stream)
                assert stream.get_state() == oracle_stream.get_state()
        assert got.values.tobytes() == want.values.tobytes()
        assert got.mask.tobytes() == want.mask.tobytes()
        # only the kept weights and the biases are set
        assert np.count_nonzero(got.values) == np.count_nonzero(got.mask)


class TestConvOracle:
    # (5, 7) is as large as the 5x7 input: one output position under "valid"
    @pytest.mark.parametrize("dtype,rtol", [(np.float32, 1e-5), (np.float64, 1e-12)])
    @pytest.mark.parametrize("batch", [1, 4])
    @pytest.mark.parametrize("in_channels", [1, 3])
    @pytest.mark.parametrize("kernel", [(3, 3), (2, 2), (3, 2), (1, 1), (5, 7)])
    @pytest.mark.parametrize("padding", ["valid", "same"])
    def test_forward_and_backward_match_direct_loops(self, padding, kernel, in_channels,
                                                     batch, dtype, rtol):
        kh, kw = kernel
        rng = np.random.default_rng([kh, kw, in_channels, batch])
        shape = (2, in_channels, kh, kw)
        mask = (rng.random(shape) < 0.7).astype(np.uint8)
        layer = Layer(spec=LayerSpec.conv2d(in_channels, 2, kh, kw, padding=padding),
                      weight=masked(rng.standard_normal(shape).astype(dtype), mask),
                      bias=rng.standard_normal(2).astype(dtype))
        x = rng.standard_normal((batch, in_channels, 5, 7)).astype(dtype)
        out, tape = stack_forward([layer], x, record=True)
        d_out = rng.standard_normal(out.shape).astype(dtype)
        grads, dx = stack_backward([layer], tape, d_out)
        grads = grads[0]

        want_dw, want_db, want_dx = conv2d_backward(x, layer.weight.values, d_out, padding)
        for got, want in [(out, conv2d_forward(x, layer.weight.values, layer.bias, padding)),
                          (grads.weight, want_dw), (grads.bias, want_db), (dx, want_dx)]:
            assert got.dtype == dtype and got.shape == want.shape
            # entries that cancel to near zero are held to rtol of the array's scale
            np.testing.assert_allclose(got, want, rtol=rtol, atol=rtol * np.abs(want).max())


class TestConvBlocking:
    """The conv forward builds columns for one block of images at a time,
    under `nn.COLUMN_BUDGET` bytes; the block size changes no output bit."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("has_bias", [True, False])
    @pytest.mark.parametrize("padding", ["valid", "same"])
    @pytest.mark.parametrize("heads,inputs", [(None, None), (3, 1), (3, 3)],
                             ids=["plain", "shared-input", "per-head-input"])
    # one output channel makes a one-row product, which numpy would run as
    # gemv; 131 images make one default block of ~19k columns, past the
    # width where float32 OpenBLAS gemv changes its sum order
    @pytest.mark.parametrize("c,o,kh,kw,batch", [(3, 5, 3, 2, 11), (1, 1, 3, 3, 131)],
                             ids=["five-outputs", "one-output"])
    def test_blocks_change_no_bit(self, monkeypatch, c, o, kh, kw, batch, heads, inputs,
                                  padding, has_bias, dtype):
        h = w = 12
        rng = np.random.default_rng([c, o, batch, padding == "same", has_bias, heads or 0,
                                     inputs or 0, np.dtype(dtype).itemsize])
        spec = LayerSpec.conv2d(c, o, kh, kw, padding=padding, has_bias=has_bias)
        lead = () if heads is None else (heads,)
        shape = lead + spec.weight_shape
        mask = (rng.random(shape) < 0.7).astype(np.uint8)
        layer = Layer(spec, masked(rng.standard_normal(shape).astype(dtype), mask),
                      rng.standard_normal(lead + (o,)).astype(dtype) if has_bias else None)
        x = rng.standard_normal(((inputs,) if inputs else ()) + (batch, c, h, w)).astype(dtype)
        want = layer_forward(layer, x).tobytes()

        top, bottom, left, right = nn._conv_padding(spec)
        image = c * kh * kw * (h + top + bottom) * (w + left + right) * x.itemsize
        built = []  # (images, bytes) of each columns array the forward builds
        build = nn._conv_columns

        def recorded(spec, x, *args):
            cols, shape = build(spec, x, *args)
            built.append((len(x), cols.nbytes))
            return cols, shape

        monkeypatch.setattr(nn, "_conv_columns", recorded)
        for budget in (batch * image * 2, 3 * image, image // 2):
            monkeypatch.setattr(nn, "COLUMN_BUDGET", budget)
            built.clear()
            assert layer_forward(layer, x).tobytes() == want
            images = [n for n, _ in built]
            assert sum(images) == batch * (inputs or 1)
            if budget > batch * image:  # one block of every image
                assert images == [batch] * (inputs or 1)
            elif budget > image:  # several blocks of a few images, the last one short
                assert 1 < max(images) and min(images) < max(images)
            else:  # each image its own block
                assert images == [1] * len(images)
            for n, nbytes in built:
                assert nbytes <= budget or n == 1, (n, nbytes, budget)


def stacked_conv_cases() -> list[tuple]:
    """(c, o, kh, kw, h, w, batch, heads, inputs, padding, has_bias) of a
    stacked conv layer: TestConvBlocking's shapes, edge shapes, then a
    seeded random sweep."""
    cases = [(c, o, kh, kw, 12, 12, batch, heads, inputs, padding, has_bias)
             for c, o, kh, kw, batch in [(3, 5, 3, 2, 11), (1, 1, 3, 3, 131)]
             for heads, inputs in [(1, 1), (3, 1), (3, 3)]
             for padding in ("valid", "same") for has_bias in (True, False)]
    cases += [
        (8, 8, 3, 3, 14, 14, 32, 3, 1, "same", True),   # cnn-idx-set: blocks of 14, 14, 4
        (1, 4, 3, 3, 9, 10, 20, 3, 1, "same", True),    # one input channel: one-row taps
        (1, 6, 2, 3, 9, 10, 7, 2, 2, "valid", False),
        (4, 1, 2, 3, 9, 10, 40, 3, 3, "valid", True),   # one output channel, per-head inputs
        (1, 1, 1, 1, 6, 7, 5, 1, 1, "same", True),      # a 1x1 kernel on one channel
        (1, 3, 1, 1, 8, 8, 9, 3, 1, "valid", False),
        (4, 16, 5, 5, 14, 14, 9, 2, 1, "same", True),   # blocks of 7 and 2 images
    ]
    rng = np.random.default_rng(2024)
    for _ in range(24):
        c = 1 if rng.random() < 0.25 else int(rng.integers(2, 17))
        o = 1 if rng.random() < 0.25 else int(rng.integers(2, 17))
        kh, kw = (int(k) for k in rng.integers(1, 6, 2))
        heads = int(rng.integers(1, 5))
        cases.append((c, o, kh, kw, int(rng.integers(max(kh, 3), 16)),
                      int(rng.integers(max(kw, 3), 16)), int(rng.integers(1, 80)), heads,
                      heads if rng.random() < 0.5 else 1,
                      "same" if rng.random() < 0.5 else "valid", bool(rng.random() < 0.8)))
    return cases


class TestStackedConv:
    """Heads that read one input run one forward GEMM over their stacked
    kernels, and dx is built one kernel offset at a time. In float32 both
    keep every byte of one GEMM per head (`oracles.per_head_conv_forward`,
    and each head run alone) and of dx by whole-kernel column gradients
    folded back by col2im (`oracles.col2im_conv_backward`); dW and db are
    each head's own. In float64, which only the finite-difference oracle
    runs, dx may differ in its last bits."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("case", stacked_conv_cases(),
                             ids=lambda case: "-".join(map(str, case)))
    def test_keeps_the_bytes_of_one_gemm_per_head_and_of_col2im(self, case, threads, dtype):
        _, put = BLAS_THREADS
        if put:
            put(threads)
        elif threads > 1:
            pytest.skip("numpy's bundled OpenBLAS is not loaded")
        c, o, kh, kw, h, w, batch, heads, inputs, padding, has_bias = case
        rng = np.random.default_rng([c, o, kh, kw, h, w, batch, heads, inputs,
                                     padding == "same", has_bias])
        spec = LayerSpec.conv2d(c, o, kh, kw, padding=padding, has_bias=has_bias)
        shape = (heads,) + spec.weight_shape
        weight = masked(rng.standard_normal(shape).astype(dtype), rng.random(shape) < 0.7)
        layer = Layer(spec, weight,
                      rng.standard_normal((heads, o)).astype(dtype) if has_bias else None)
        x = rng.standard_normal((inputs, batch, c, h, w)).astype(dtype)
        out = layer_forward(layer, x)
        d_out = rng.standard_normal(out.shape).astype(dtype)
        grads, dx = nn._layer_backward(layer, x, d_out, None)

        assert out.tobytes() == per_head_conv_forward(layer, x).tobytes()
        want_dw, want_db, want_dx = col2im_conv_backward(layer, x, d_out)
        assert grads.weight.tobytes() == want_dw.tobytes()
        assert not has_bias or grads.bias.tobytes() == want_db.tobytes()
        assert dx.shape == want_dx.shape == x.shape
        if dtype == np.float32:
            assert dx.tobytes() == want_dx.tobytes()
        else:  # far inside the finite-difference oracle's 1e-3
            np.testing.assert_allclose(dx, want_dx, rtol=1e-12,
                                       atol=1e-12 * np.abs(want_dx).max())
        for m in range(heads):  # each head alone, a plain layer on its own input
            alone = Layer(spec, nn.MaskedTensor(weight.values[m], weight.mask[m]),
                          layer.bias[m] if has_bias else None)
            xm = x[m if inputs > 1 else 0]
            assert layer_forward(alone, xm).tobytes() == out[m].tobytes()
            head_grads, _ = nn._layer_backward(alone, xm, d_out[m], None, input_grad=False)
            assert head_grads.weight.tobytes() == grads.weight[m].tobytes()
            assert not has_bias or head_grads.bias.tobytes() == grads.bias[m].tobytes()


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

    # few distinct values make rows tie; +-1e4 sends exp to 0 and 1
    LOGIT = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 88.0, -100.0, 1e4, -1e4]) \
        | st.floats(-60, 60, width=32)

    @given(st.integers(1, 12), st.sampled_from([np.float32, np.float64]), st.data())
    @settings(max_examples=120, deadline=None)
    def test_matches_the_axis_reductions_bit_for_bit(self, classes, dtype, data):
        heads, batch = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 5))
        logits = np.array(data.draw(st.lists(self.LOGIT, min_size=heads * batch * classes,
                                             max_size=heads * batch * classes)),
                          dtype).reshape(heads, batch, classes)
        targets = np.array(data.draw(st.lists(st.integers(0, classes - 1),
                                              min_size=heads * batch,
                                              max_size=heads * batch))).reshape(heads, batch)
        want_losses, want_probs = axis_loss_forward(logits, targets)
        losses, probs = loss_forward(logits, targets)
        assert losses.dtype == want_losses.dtype and losses.tobytes() == want_losses.tobytes()
        assert probs.dtype == want_probs.dtype and probs.tobytes() == want_probs.tobytes()
        assert nn.softmax(logits).tobytes() == want_probs.tobytes()

    # ties from a small pool; +-1e30 is finite in float32 and sends exp to 0 and 1
    POOL = st.lists(st.sampled_from([0.0, 1.0, -1.0, 1e30, -1e30]) | st.floats(-60, 60),
                    min_size=1, max_size=6)

    @given(st.sampled_from([np.float32, np.float64]), st.sampled_from([2, 3, 7, 8, 10, 13]),
           st.sampled_from([1, 3]), st.sampled_from([1, 5, 128]), st.booleans(), POOL,
           st.integers(0, 2**32 - 1), st.integers(0, 12), st.sampled_from([1.0, 1 / 3]))
    @settings(max_examples=150, deadline=None)
    def test_matches_the_helper_loss_byte_for_byte(self, dtype, classes, heads, batch,
                                                   shared, pool, seed, minus_inf, scale):
        # classes 2..7 take `_over_classes`' per-column path, 8 and up numpy's reduction
        rng = np.random.default_rng(seed)
        logits = rng.choice(np.array(pool, dtype), (heads, batch, classes))
        targets = rng.integers(0, classes, batch if shared else (heads, batch))
        if minus_inf:  # -inf at one non-target class of every row
            beside = (np.broadcast_to(targets, (heads, batch)) + minus_inf % (classes - 1) + 1)
            np.put_along_axis(logits, (beside % classes)[..., None], -np.inf, axis=-1)
        want_losses, want_probs = helper_loss_forward(logits, targets)
        losses, probs = loss_forward(logits, targets)
        assert losses.dtype == want_losses.dtype and losses.tobytes() == want_losses.tobytes()
        assert probs.dtype == want_probs.dtype and probs.tobytes() == want_probs.tobytes()
        want_d = helper_loss_backward(probs, targets, scale)
        d = nn.loss_backward(probs, targets, scale)
        assert d.dtype == want_d.dtype and d.tobytes() == want_d.tobytes()
        # one batch of one head: the loss is a scalar, as the helper's mean gives
        one, _ = loss_forward(logits[0], targets if shared else targets[0])
        want_one, _ = helper_loss_forward(logits[0], targets if shared else targets[0])
        assert type(one) is type(want_one) and one.tobytes() == want_one.tobytes()

    @pytest.mark.parametrize("targets", [[[0, 2], [-1, 1]], [[0, 3], [1, 1]], [-2, 5]])
    def test_out_of_range_target_message_is_the_helpers(self, targets):
        logits = np.zeros((2, 2, 3), np.float32)
        with pytest.raises(ValueError) as want:
            helper_loss_forward(logits, np.array(targets))
        with pytest.raises(ValueError, match="out of range") as got:
            loss_forward(logits, np.array(targets))
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("shape", [(3,), (3, 2), (2, 1, 2)])
    def test_targets_that_do_not_broadcast_are_rejected(self, shape):
        with pytest.raises(ValueError):
            loss_forward(np.zeros((2, 2, 3), np.float32), np.zeros(shape, np.int64))


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
        assert grads[0].weight[0, 0] == pytest.approx(3.0 * (p0 - 1.0), rel=1e-4)

    def test_masked_position_gets_the_raw_gradient(self):
        # 2 classes, weight (0, 1) masked: its gradient is x_1 * (p0 - 1), as if active
        layer = make_linear([[1.0, 5.0], [0.0, 0.0]], mask=[[1, 0], [1, 1]])
        x = np.array([[1.0, 2.0]], dtype=np.float32)
        out, tape = stack_forward([layer], x, record=True)
        _, probs = loss_forward(out, np.array([0]))
        grads, _ = stack_backward([layer], tape, nn.loss_backward(probs, np.array([0])))
        lg = grads[0]
        p0 = 1.0 / (1.0 + math.exp(-1.0))
        assert lg.weight[0, 1] == pytest.approx(2.0 * (p0 - 1.0), rel=1e-5)
        assert lg.weight[0, 1] != 0.0
        assert np.isfinite(lg.weight).all()

    def test_zero_input_kills_weight_grads_not_bias(self):
        layer = make_linear([[1.0, 1.0], [2.0, -1.0]], bias=[0.5, -0.5])
        x = np.zeros((3, 2), dtype=np.float32)
        out, tape = stack_forward([layer], x, record=True)
        _, probs = loss_forward(out, np.array([0, 1, 0]))
        grads, _ = stack_backward([layer], tape, nn.loss_backward(probs, np.array([0, 1, 0])))
        np.testing.assert_array_equal(grads[0].weight, 0.0)
        assert np.any(grads[0].bias != 0.0)

    @pytest.mark.parametrize("dense", [False, True])
    def test_one_weight_gradient_allocated(self, dense):
        # dW of a 512x512 float32 weight is 1 MiB; a second, masked copy would be 2
        rng = np.random.default_rng(5)
        shape = (512, 512)
        layer = Layer(spec=LayerSpec.linear(512, 512),
                      weight=masked(rng.standard_normal(shape, np.float32),
                                    rng.random(shape) < 0.1),
                      bias=np.zeros(512, np.float32))
        x = rng.standard_normal((32, 512), np.float32)
        d_out = rng.standard_normal((32, 512), np.float32)
        tracemalloc.start()
        try:
            stack_backward([layer], [x], d_out, dense=dense)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2**20

    @pytest.mark.parametrize("kind", ["mlp", "conv"])
    def test_skipping_the_input_gradient_keeps_every_layer_gradient(self, stream, kind):
        layers, x, targets = random_stack(stream, kind, 0.5)
        out, tape = stack_forward(layers, x, record=True)
        _, probs = loss_forward(out, targets)
        d_logits = nn.loss_backward(probs, targets)
        full, dx = stack_backward(layers, tape, d_logits)
        lean, none = stack_backward(layers, tape, d_logits, input_grad=False)
        assert dx.shape == x.shape and dx.dtype == x.dtype and none is None
        for a, b in zip(full, lean):
            for part in ("weight", "bias"):
                got, want = getattr(b, part), getattr(a, part)
                assert (got is None) == (want is None)
                assert got is None or got.tobytes() == want.tobytes()

    def test_backward_without_tape_rejected(self):
        layer = make_linear([[1.0]])
        with pytest.raises(ValueError, match="recorded forward"):
            stack_backward([layer], None, np.zeros((1, 1), dtype=np.float32))


def forward_naming_warnings(trial: int, depth: int):
    """`nn.layer_forward` for whole forwards of one `depth`-layer stack (or a
    copy of it): a RuntimeWarning, an error under the pytest filter, becomes
    an AssertionError naming the trial and the layer, the finiteness of the
    layer's input, weights and product, and the BLAS thread count. Every
    forward runs all of the stack's layers in order, so the count of calls
    gives the layer."""
    calls = itertools.count()

    def checked(layer, x):
        index = next(calls) % depth
        try:
            return layer_forward(layer, x)
        except RuntimeWarning as warning:
            with np.errstate(all="ignore"):  # the product again, without the flag
                product = layer_forward(layer, x)
            params = [p for p in (getattr(layer.weight, "values", None), layer.bias)
                      if p is not None]
            get = BLAS_THREADS[0]
            raise AssertionError(
                f"trial {trial}, layer {index} ({layer.spec.kind}, {x.dtype}): "
                f"RuntimeWarning {warning}; input finite {bool(np.isfinite(x).all())}, "
                f"weights finite {all(bool(np.isfinite(p).all()) for p in params)}, "
                f"product finite {bool(np.isfinite(product).all())}; "
                f"BLAS threads {get() if get else 'unknown'}") from warning
    return checked


class TestFiniteDifferences:
    def test_constant_output_model_gives_zero_estimates(self):
        first = make_linear([[0.5, -0.5], [1.0, 0.25]], bias=[0.1, 0.2])
        gate = make_linear(np.zeros((2, 2)), mask=np.zeros((2, 2)))  # no bias, all masked
        x = np.array([[1.0, 2.0]], dtype=np.float32)
        fd = stack_finite_difference([first, Layer(spec=LayerSpec.relu()), gate],
                                     x, np.array([0]))
        np.testing.assert_array_equal(fd[0].weight, 0.0)
        np.testing.assert_array_equal(fd[0].bias, 0.0)

    def test_matches_analytic_on_hand_case(self):
        layer = make_linear([[2.0], [0.0]])
        x = np.array([[3.0]], dtype=np.float32)
        fd = stack_finite_difference([layer], x, np.array([0]), eps=1e-3)
        p0 = 1.0 / (1.0 + math.exp(-6.0))
        assert fd[0].weight[0, 0] == pytest.approx(3.0 * (p0 - 1.0), rel=1e-4)

    def test_zero_eps_rejected(self):
        with pytest.raises(ValueError, match="eps"):
            finite_difference_gradient(lambda: 0.0, [], eps=0.0)

    @pytest.mark.parametrize("seed,kind,sparsity", [(11, "mlp", 0.0), (12, "mlp", 0.5),
                                                    (13, "conv", 0.0), (14, "conv", 0.4)])
    def test_analytic_matches_fd_on_random_stacks(self, seed, kind, sparsity, monkeypatch):
        stream = Stream(seed)
        for trial in range(3):
            layers, x, targets = gradcheck_stack(stream.child(trial), kind, sparsity)
            # a warning in a forward below fails the test with what was not finite
            monkeypatch.setattr(nn, "layer_forward", forward_naming_warnings(trial, len(layers)))
            out, tape = stack_forward(layers, x, record=True)
            _, probs = loss_forward(out, targets)
            analytic, _ = stack_backward(layers, tape, nn.loss_backward(probs, targets))
            fd = stack_finite_difference(layers, x, targets, eps=1e-5)
            for li, (got, want) in enumerate(zip(analytic, fd)):
                for part in ("weight", "bias"):
                    a, b = getattr(got, part), getattr(want, part)
                    if a is None:
                        continue
                    errors = relative_errors(a, b).reshape(-1)
                    worst = int(errors.argmax())
                    assert errors[worst] < 1e-3, (
                        f"trial {trial}, layer {li} {part}: worst flat index {worst}, "
                        f"analytic {float(a.flat[worst])}, "
                        f"finite difference {float(b.flat[worst])}")


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
