import ctypes
import os
import subprocess
import sys

import numpy as np
import pytest

import reprolab.tensor as T
from reprolab.errors import FormatError, LabelError, ReproLabError, ShapeError
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

from oracles import (
    conv2d_loops,
    conv_layer_unfused,
    cross_entropy_mpmath,
    matmul_loops,
    maxpool2d_loops,
)


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


class TestConvLayer:
    @pytest.mark.parametrize("relu_on", [False, True])
    @pytest.mark.parametrize("trainable", [False, True])
    @pytest.mark.parametrize("shape", [(3, 9, 9), (4, 3, 9, 9)])
    def test_equals_unfused_chain_bit_for_bit(self, rng, relu_on, trainable, shape):
        xa, ka = rng.normal(0, 1, shape), rng.normal(0, 0.5, (5, 3, 3, 3))
        ba = rng.normal(0, 1, 5)
        upstream = rng.normal(0, 1, (*shape[:-3], 5, 9, 9))

        def run(op):
            x = Tensor(xa, requires_grad=True)
            k, b = Tensor(ka, requires_grad=trainable), Tensor(ba, requires_grad=trainable)
            out = op(x, k, b, 1, relu_on)
            loss = T.mul(out, Tensor(upstream)).sum()
            backward(loss)
            return out.array, loss.array, x.grad, k.grad, b.grad

        fused, unfused = run(T.conv_layer), run(conv_layer_unfused)
        assert (fused[3] is None) == (not trainable)
        for got, want in zip(fused, unfused):
            assert (got is None and want is None) or np.array_equal(got, want)
        if relu_on:
            assert (fused[0] == 0.0).any()

    def test_bias_shape_mismatch(self, rng):
        x, k = Tensor(rng.normal(0, 1, (2, 6, 6))), Tensor(rng.normal(0, 1, (4, 2, 3, 3)))
        with pytest.raises(ShapeError, match="bias shape"):
            T.conv_layer(x, k, Tensor(np.zeros(3)), 1)


def _cwnet_conv_calls():
    """(input shape, kernel shape, padding) of each conv2d call that a width-0.25
    CWNet makes at 3x64x64: the tape path at batch 1, 5, 10 and 50, and the
    framed forward's canvas and crops at batch 50."""
    from reprolab.datasets import PadSpec, embed, preprocess, synth_target_dataset
    from reprolab.models import build_cwnet, forward_framed, init_weights

    net = init_weights(build_cwnet((3, 64, 64), width_scale=0.25), 3)
    ds = preprocess(synth_target_dataset(5, per_class=5, size=(28, 28), family="strokes"),
                    PadSpec((3, 64, 64), (28, 28)))
    images = embed(ds.images.array, ds.input_shape)
    calls = []
    conv2d = T.conv2d

    def logged(x, kernels, stride=1, padding=0):
        calls.append((x.shape, kernels.shape, padding))
        return conv2d(x, kernels, stride, padding)

    T.conv2d = logged
    try:
        with no_grad():
            for n in (1, 5, 10, 50):
                net.forward(Tensor(images[:n]))
            forward_framed(net, images, Tensor(np.zeros((3, 64, 64))))
    finally:
        T.conv2d = conv2d
    return sorted(set(calls))


class TestBlasPath:
    """The dgemm path of the offset GEMMs against numpy's matmul and ``+=``."""

    @pytest.fixture(scope="class")
    def conv_calls(self):
        if T._dgemm() is None:
            pytest.skip("numpy's BLAS does not export scipy_cblas_dgemm64_")
        calls = _cwnet_conv_calls()
        assert any(padding == 0 for _, _, padding in calls)  # the framed crops ran
        # Two odd shapes; a span of (63 * 9 - 2) * 29 = 2 * _SEG + 1 columns, whose
        # last segment has one column; and 400 channels: past one OpenBLAS K
        # block on both the SkylakeX (384) and the Haswell (256) kernels.
        return calls + [((4, 3, 17, 15), (6, 3, 3, 3), 1), ((2, 8, 32, 32), (16, 8, 3, 3), 0),
                        ((63, 2, 7, 27), (3, 2, 3, 3), 1), ((1, 400, 6, 6), (400, 400, 3, 3), 1)]

    @staticmethod
    def _conv_run(x_shape, k_shape, padding, stride, layer):
        rng = np.random.default_rng(sum(x_shape) + sum(k_shape))
        x = Tensor(rng.normal(0, 1, x_shape), requires_grad=True)
        k = Tensor(rng.normal(0, 0.3, k_shape), requires_grad=True)
        b = Tensor(rng.normal(0, 0.1, k_shape[0]), requires_grad=True)
        out = (T.conv_layer(x, k, b, padding, relu=True) if layer
               else conv2d(x, k, stride, padding))
        backward(T.mul(out, Tensor(np.cos(np.arange(out.array.size)).reshape(out.shape))).sum())
        return out.array, x.grad, k.grad, b.grad

    @pytest.mark.parametrize("layer", [False, True])
    def test_conv_equals_numpy_fallback_bit_for_bit(self, conv_calls, monkeypatch, layer):
        cases = [(*call, stride) for call in conv_calls for stride in ([1] if layer else [1, 2])]
        blas = [self._conv_run(*case, layer) for case in cases]
        monkeypatch.setattr(T, "_dgemm", lambda: None)
        numpy = [self._conv_run(*case, layer) for case in cases]
        for case, got, want in zip(cases, blas, numpy, strict=True):
            for g, w in zip(got, want):
                assert (g is None and w is None) or np.array_equal(g, w), case

    # The one-offset loop, c = a @ b + beta * c over all of c's columns.
    @pytest.mark.parametrize("beta", [0, 1])
    def test_gemm_into_equals_matmul(self, rng, beta):
        grid = rng.normal(0, 1, (5, 200))
        a, c = rng.normal(0, 1, (7, 5)), rng.normal(0, 1, (7, 300))
        want = c[:, 10:150] * beta + a @ grid[:, 3:143]
        out = c[:, 10:150]
        T._gemm_loop(out, (a,), grid[:, 3:143], out.shape[1], (0,), (0,), (beta,))
        assert np.array_equal(c[:, 10:150], want)

    @pytest.mark.parametrize("k", [T._ACC_MAX_K, 320, 400])
    def test_gemm_into_adds_like_matmul_at_any_k(self, rng, k):
        # Past the accumulating bound it adds the finished product, like ``+=``.
        a, b, c = rng.normal(0, 1, (16, k)), rng.normal(0, 1, (k, 700)), rng.normal(0, 1, (16, 700))
        want = c + a @ b
        T._gemm_loop(c, (a,), b, c.shape[1], (0,), (0,), (1,))
        assert np.array_equal(c, want)

    @pytest.mark.parametrize("bad", ["float32", "inner_stride", "reversed_rows"])
    def test_gemm_into_rejects_what_blas_cannot_walk(self, rng, bad):
        a, b, c = rng.normal(0, 1, (4, 3)), rng.normal(0, 1, (3, 12)), np.zeros((4, 6))
        before = c.copy()
        if bad == "float32":
            a, b = a.astype(np.float32), b[:, :6]
        elif bad == "inner_stride":
            b = b[:, ::2]
        else:
            a, b = a[::-1], b[:, :6]
        with pytest.raises(ShapeError, match="_gemm_loop"):
            T._gemm_loop(c, (a,), b, c.shape[1], (0,), (0,), (1,))
        assert np.array_equal(c, before)

    @pytest.mark.parametrize("past", ["operand_end", "output_end", "negative_offset"])
    def test_column_range_past_an_array_raises_before_any_dgemm(self, rng, monkeypatch, past):
        calls = []
        monkeypatch.setattr(T, "_dgemm", lambda: lambda *args: calls.append(args))
        grid, c = rng.normal(0, 1, (3, 102)), np.zeros((4, 102))
        mats = [rng.normal(0, 1, (4, 3)) for _ in range(2)]
        # In bounds, both loops reach dgemm: each offset is one call per segment.
        T._offset_gemm(c, mats, grid, [0, 2], 100)
        T._offset_gemm_scatter(c, mats, grid, [0, 2], 100)
        assert len(calls) == 4
        calls.clear()
        with pytest.raises(ShapeError, match="run past"):
            if past == "operand_end":
                T._offset_gemm(c, mats, grid, [0, 3], 100)
            elif past == "output_end":
                T._offset_gemm_scatter(c, mats, grid, [0, 3], 100)
            else:
                T._offset_gemm(c, mats, grid, [-1, 2], 100)
        assert calls == []
        assert not c.any()


class TestHeapPages:
    """reprolab.tensor raises glibc's mmap and trim thresholds at import."""

    class _Libc:
        def __init__(self, *results):
            self.results, self.calls = list(results), []

            def mallopt(param, value):
                self.calls.append((param, value))
                return self.results.pop(0)

            self.mallopt = mallopt

    def test_sets_both_thresholds_and_is_idempotent(self):
        libc = self._Libc(1, 1, 1, 1)
        assert T._keep_heap_pages(libc) and T._keep_heap_pages(libc)
        assert libc.calls == [(T._M_MMAP_THRESHOLD, 64 << 20), (T._M_TRIM_THRESHOLD, 64 << 20)] * 2

    def test_trim_threshold_waits_for_the_mmap_threshold(self):
        libc = self._Libc(0)
        assert not T._keep_heap_pages(libc)
        assert libc.calls == [(T._M_MMAP_THRESHOLD, 64 << 20)]

    def test_no_op_without_mallopt(self):
        assert not T._keep_heap_pages(None)
        assert not T._keep_heap_pages(object())

    def test_freed_arrays_come_back_without_page_faults(self):
        # Idempotent, so this probes whether this libc takes the setting.
        if not T._keep_heap_pages(ctypes.CDLL(None)):
            pytest.skip("this libc has no mallopt or refuses a 64 MB threshold")
        # A fresh process: glibc's adaptive thresholds depend on what the process
        # freed before, and this one has freed large arrays already.
        script = """
import resource
import numpy as np
import reprolab.tensor

def step():
    # 20 arrays of 1.5 MB, about the tape of a batch-50 conv layer.
    return [np.ones(3 << 16) for _ in range(20)]

step()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
step()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
        src = os.path.dirname(os.path.dirname(T.__file__))
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        faults = int(subprocess.run([sys.executable, "-c", script], env=env, check=True,
                                    capture_output=True, text=True).stdout)
        # Under glibc's defaults this step faults in all of its 7680 pages again.
        assert faults < 7680 // 10


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

    def test_add_hands_its_gradient_to_one_parent_only(self, rng):
        a, b = (Tensor(rng.normal(0, 1, 4), requires_grad=True) for _ in range(2))
        c = Tensor(rng.normal(0, 1, 4), requires_grad=True)
        backward((T.add(a, b) * c).sum() + T.add(a, c).sum())
        assert not np.shares_memory(a.grad, b.grad)
        assert np.array_equal(b.grad, c.array) and np.array_equal(a.grad, c.array + 1.0)

    def test_second_backward_through_a_replayed_graph_raises(self):
        x = Tensor([3.0], requires_grad=True)
        y = x * x
        z = y + y
        backward(z.sum())
        assert np.array_equal(x.grad, [12.0])
        x.zero_grad()
        with pytest.raises(ReproLabError, match="already replayed"):
            backward(z.sum())

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
    assert int(np.prod(t.shape)) == t.array.size
    assert t.array.flags.c_contiguous and t.array.dtype == np.float64
    x = Tensor(rng.normal(0, 1, (4, 5)), requires_grad=True)
    backward((x * x).sum())
    assert x.grad.shape == x.array.shape
