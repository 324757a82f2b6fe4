import numpy as np
import pytest

import reprolab.tensor as T
from reprolab.errors import FormatError, LabelError, ShapeError
from reprolab.tensor import (
    Tensor,
    backward,
    conv2d,
    finite_diff_check,
    load_tensor,
    matmul,
    maxpool2d,
    no_grad,
    relu,
    save_tensor,
    softmax_cross_entropy,
)

from oracles import conv2d_loops, cross_entropy_mpmath, matmul_loops, maxpool2d_loops


class TestMatmul:
    def test_identity(self):
        a = Tensor(np.eye(2))
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(matmul(a, b).array, b.array)

    def test_row_selector(self):
        sel = Tensor([[1.0, 0.0], [0.0, 0.0]])
        b = Tensor([[5.0, 6.0], [7.0, 8.0]])
        assert np.array_equal(matmul(sel, b).array, [[5.0, 6.0], [0.0, 0.0]])

    def test_matches_loop_oracle(self, rng):
        a = rng.normal(0, 1, (3, 4))
        b = rng.normal(0, 1, (4, 2))
        got = matmul(Tensor(a), Tensor(b)).array
        assert np.abs(got - matmul_loops(a, b)).max() < 1e-12

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))

    def test_backward_rules(self, rng):
        a = Tensor(rng.normal(0, 1, (3, 4)), requires_grad=True)
        b = Tensor(rng.normal(0, 1, (4, 2)), requires_grad=True)
        backward(matmul(a, b).sum())
        ones = np.ones((3, 2))
        assert np.allclose(a.grad, ones @ b.array.T, atol=1e-14)
        assert np.allclose(b.grad, a.array.T @ ones, atol=1e-14)


class TestConv2d:
    def test_identity_kernel(self, rng):
        x = rng.normal(0, 1, (1, 3, 3))
        out = conv2d(Tensor(x), Tensor(np.ones((1, 1, 1, 1))), 1, 0)
        assert np.array_equal(out.array, x)

    def test_average_kernel(self):
        x = Tensor([[[1.0, 2.0], [3.0, 4.0]]])
        k = Tensor(np.full((1, 1, 2, 2), 0.25))
        assert np.allclose(conv2d(x, k).array, [[[2.5]]])

    def test_matches_loop_oracle(self, rng):
        x = rng.normal(0, 1, (2, 5, 5))
        w = rng.normal(0, 1, (3, 2, 3, 3))
        got = conv2d(Tensor(x), Tensor(w), 1, 1).array
        want = conv2d_loops(x[None], w, 1, 1)[0]
        assert np.abs(got - want).max() < 1e-10

    @pytest.mark.parametrize("shape,stride,padding", [
        ((2, 3, 7, 6), 1, 0), ((1, 2, 8, 8), 2, 1), ((2, 1, 9, 5), 3, 2), ((1, 4, 6, 6), 2, 0),
    ])
    def test_batched_strided_against_oracle(self, rng, shape, stride, padding):
        x = rng.normal(0, 1, shape)
        w = rng.normal(0, 1, (3, shape[1], 3, 3))
        got = conv2d(Tensor(x), Tensor(w), stride, padding).array
        assert np.abs(got - conv2d_loops(x, w, stride, padding)).max() < 1e-10

    def test_kernel_too_large(self):
        with pytest.raises(ShapeError, match="larger than padded input"):
            conv2d(Tensor(np.zeros((1, 2, 2))), Tensor(np.zeros((1, 1, 5, 5))), 1, 0)

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError, match="channels"):
            conv2d(Tensor(np.zeros((2, 4, 4))), Tensor(np.zeros((1, 3, 3, 3))))

    def test_weight_gradient_matches_finite_differences(self, rng):
        x = Tensor(rng.normal(0, 1, (2, 2, 6, 6)))
        labels = [0, 1]
        head = Tensor(rng.normal(0, 0.3, (3 * 3 * 3, 2)))

        def f(w):
            h = maxpool2d(relu(conv2d(x, w, 1, 1)))
            return softmax_cross_entropy(h.reshape((2, -1)) @ head, labels)

        assert finite_diff_check(f, Tensor(rng.normal(0, 0.5, (3, 2, 3, 3)))) < 1e-7


class TestMaxPool:
    def test_single_window(self):
        out = maxpool2d(Tensor([[[1.0, 2.0], [3.0, 4.0]]]))
        assert np.array_equal(out.array, [[[4.0]]])

    def test_tie_gradient_goes_to_first_flat_index(self):
        x = Tensor(np.full((1, 4, 4), 7.0), requires_grad=True)
        backward(maxpool2d(x).sum())
        expected = np.zeros((1, 4, 4))
        expected[0, ::2, ::2] = 1.0
        assert np.array_equal(x.grad, expected)
        assert np.all(maxpool2d(Tensor(np.full((1, 4, 4), 7.0))).array == 7.0)

    def test_matches_loop_oracle(self, rng):
        x = rng.normal(0, 1, (1, 6, 6))
        assert np.array_equal(maxpool2d(Tensor(x)).array, maxpool2d_loops(x))

    def test_odd_extent_rejected(self):
        with pytest.raises(ShapeError, match="not divisible"):
            maxpool2d(Tensor(np.zeros((1, 5, 6))))


class TestCropPaste:
    def test_values(self, rng):
        canvas = rng.normal(0, 1, (1, 2, 6, 7))
        patch = rng.normal(0, 1, (3, 2, 2, 3))
        assert np.array_equal(T.crop(Tensor(canvas), (1, 4), (2, 6)).array,
                              canvas[:, :, 1:4, 2:6])
        out = T.paste(Tensor(canvas), Tensor(patch), 3, 1).array
        expected = np.repeat(canvas, 3, axis=0)
        expected[:, :, 3:5, 1:4] = patch
        assert np.array_equal(out, expected)

    def test_gradients_match_finite_differences(self, rng):
        canvas = Tensor(rng.normal(0, 1, (1, 2, 6, 7)))
        patch = Tensor(rng.normal(0, 1, (3, 2, 2, 3)))
        weights = Tensor(rng.normal(0, 1, (3, 2, 6, 7)))

        def of_canvas(c):
            ringed = T.paste(T.crop(c, (1, 5), (1, 6)), patch, 1, 1)
            return (T.paste(c, ringed, 1, 1) * weights).sum()

        def of_patch(p):
            return (T.paste(canvas, p, 3, 1) * weights).sum()

        assert finite_diff_check(of_canvas, canvas) < 1e-8
        assert finite_diff_check(of_patch, patch) < 1e-8


class TestReLU:
    def test_basic(self):
        assert np.array_equal(relu(Tensor([-1.0, 0.0, 2.0])).array, [0.0, 0.0, 2.0])

    def test_all_negative_zero_gradient(self):
        x = Tensor([-3.0, -1.0, -0.5], requires_grad=True)
        out = relu(x)
        backward(out.sum())
        assert np.array_equal(out.array, np.zeros(3))
        assert np.array_equal(x.grad, np.zeros(3))

    def test_elementwise_oracle(self, rng):
        v = rng.normal(0, 1, 64)
        got = relu(Tensor(v)).array
        assert np.array_equal(got, np.array([max(0.0, float(u)) for u in v]))


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        loss = softmax_cross_entropy(Tensor(np.zeros((1, 10))), [3])
        assert abs(loss.item() - np.log(10.0)) < 1e-12

    def test_extreme_logits_do_not_overflow(self):
        loss = softmax_cross_entropy(Tensor([[1000.0, 0.0]]), [0])
        assert 0.0 <= loss.item() < 1e-12

    def test_matches_high_precision_oracle(self, rng):
        logits = rng.normal(0, 3, (4, 5))
        labels = rng.integers(0, 5, 4)
        got = softmax_cross_entropy(Tensor(logits), labels).item()
        assert abs(got - cross_entropy_mpmath(logits, labels)) < 1e-10

    def test_out_of_range_label(self):
        with pytest.raises(LabelError, match="label 7 at index 1"):
            softmax_cross_entropy(Tensor(np.zeros((2, 3))), [0, 7])

    def test_gradient_is_softmax_minus_onehot_over_n(self, rng):
        logits = Tensor(rng.normal(0, 1, (3, 4)), requires_grad=True)
        labels = np.array([1, 0, 3])
        backward(softmax_cross_entropy(logits, labels))
        exp = np.exp(logits.array - logits.array.max(axis=1, keepdims=True))
        probs = exp / exp.sum(axis=1, keepdims=True)
        probs[np.arange(3), labels] -= 1.0
        assert np.allclose(logits.grad, probs / 3.0, atol=1e-14)


class TestBackward:
    def test_sum_gives_ones(self, rng):
        x = Tensor(rng.normal(0, 1, (3, 4, 2)), requires_grad=True)
        backward(x.sum())
        assert np.array_equal(x.grad, np.ones((3, 4, 2)))

    def test_quadratic_gives_2x(self, rng):
        v = rng.normal(0, 1, 6)
        x = Tensor(v, requires_grad=True)
        backward((x * x).sum())
        assert np.allclose(x.grad, 2 * v, atol=1e-14)

    def test_fanout_gradients_sum(self):
        x = Tensor([2.0], requires_grad=True)
        y = x + x  # d/dx = 2
        backward((y * y).sum())  # d/dx (2x)^2 = 8x
        assert np.allclose(x.grad, [16.0])

    def test_non_scalar_rejected(self):
        x = Tensor(np.zeros((2, 2)), requires_grad=True)
        with pytest.raises(ShapeError, match="scalar"):
            backward(x + x)

    def test_linearity_of_backward(self, rng):
        v = rng.normal(0, 1, 8)

        def grad_of(fn):
            x = Tensor(v, requires_grad=True)
            backward(fn(x))
            return x.grad.copy()

        f = lambda x: (x * x).sum()
        g = lambda x: relu(x).sum()
        a, b = 2.5, -1.25
        combined = grad_of(lambda x: T.add(T.scale(f(x), a), T.scale(g(x), b)))
        assert np.abs(combined - (a * grad_of(f) + b * grad_of(g))).max() < 1e-12

    def test_composite_network_passes_finite_diff(self, rng, small_net):
        x = rng.normal(0, 1, (2, 3, 16, 16))
        labels = rng.integers(0, 10, 2)

        def f(t):
            return softmax_cross_entropy(small_net.forward(t), labels)

        assert finite_diff_check(f, Tensor(x)) < 1e-4

    def test_determinism_bit_identical(self, rng, small_net):
        x = rng.normal(0, 1, (2, 3, 16, 16))
        labels = rng.integers(0, 10, 2)

        def run():
            t = Tensor(x, requires_grad=True)
            loss = softmax_cross_entropy(small_net.forward(t), labels)
            backward(loss)
            return loss.item(), t.grad.copy()

        loss1, grad1 = run()
        loss2, grad2 = run()
        assert loss1 == loss2
        assert np.array_equal(grad1, grad2)


class TestFiniteDiffCheck:
    def test_sum_of_squares(self, rng):
        x = Tensor(rng.normal(0, 1, 10))
        assert finite_diff_check(lambda t: (t * t).sum(), x) < 1e-7

    def test_affine_function_near_exact(self, rng):
        w = Tensor(rng.normal(0, 1, 10))
        x = Tensor(rng.normal(0, 1, 10))
        assert finite_diff_check(lambda t: (t * w).sum(), x) < 1e-10

    def test_no_grad_disables_recording(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with no_grad():
            out = (x * x).sum()
        assert out._backward_rule is None and not out.requires_grad


class TestSerialization:
    def test_binary_round_trip(self, tmp_path, rng):
        t = Tensor(rng.normal(0, 1, (2, 3, 4)))
        save_tensor(t, tmp_path / "t.tnsr")
        loaded = load_tensor(tmp_path / "t.tnsr")
        assert loaded.shape == t.shape
        assert np.array_equal(loaded.array, t.array)

    def test_binary_layout(self, tmp_path):
        save_tensor(Tensor([[1.0, 2.0]]), tmp_path / "t.tnsr")
        blob = (tmp_path / "t.tnsr").read_bytes()
        assert blob[:4] == b"TNSR"
        assert int.from_bytes(blob[4:8], "little") == 2  # rank
        assert int.from_bytes(blob[8:16], "little") == 1
        assert int.from_bytes(blob[16:24], "little") == 2
        assert np.frombuffer(blob[24:], dtype="<f8").tolist() == [1.0, 2.0]

    def test_bad_magic(self, tmp_path):
        (tmp_path / "bad.tnsr").write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(FormatError, match="magic"):
            load_tensor(tmp_path / "bad.tnsr")

    def test_truncated_payload(self, tmp_path, rng):
        save_tensor(Tensor(rng.normal(0, 1, 8)), tmp_path / "t.tnsr")
        blob = (tmp_path / "t.tnsr").read_bytes()
        (tmp_path / "short.tnsr").write_bytes(blob[:-8])
        with pytest.raises(FormatError, match="truncated"):
            load_tensor(tmp_path / "short.tnsr")


def test_tensor_invariants(rng):
    t = Tensor(rng.normal(0, 1, (4, 5)))
    assert int(np.prod(t.shape)) == len(t.data)
    assert t.data.flags.c_contiguous or t.data.base is not None
    x = Tensor(rng.normal(0, 1, (4, 5)), requires_grad=True)
    backward((x * x).sum())
    assert x.grad.size == len(x.data)
