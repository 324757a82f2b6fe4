"""tensor.backward consumes the tape it replays.

Once an interior node's rule has run, the replay drops the node's gradient,
rule and parent links, conv2d keeps its padded input only when the weight
gradient will read it, and a conv layer (tensor.conv_layer) keeps one array.
None of this changes a value: leaf gradients equal, bit for bit, those of a
replay that keeps everything alive (oracles.backward_retaining).
"""

import tracemalloc
import weakref
from collections import Counter

import numpy as np
import pytest

import reprolab.tensor as T
from reprolab import diagnostics
from reprolab.datasets import PadSpec, embed, preprocess, synth_target_dataset
from reprolab.models import Conv, build_cwnet, forward_framed, init_weights
from reprolab.reprogram import average_masked_gradient, build_class_map, build_frame_mask
from reprolab.tensor import Tensor

from oracles import backward_retaining, tape_nodes

SHAPE = (3, 64, 64)
INNER = (28, 28)


@pytest.fixture(scope="module")
def net_and_set():
    """A width-0.25 CWNet with dropout at 64x64, and 50 images of 28x28."""
    net = init_weights(build_cwnet(SHAPE, width_scale=0.25, dropout_enabled=True), 21)
    ds = preprocess(synth_target_dataset(4, per_class=5, size=INNER, family="strokes",
                                         noise_amplitude=40.0), PadSpec(SHAPE, INNER))
    net.set_input_standardization(ds)
    assert len(ds) == 50
    return net, ds


def _released_and_retained(fn, monkeypatch):
    """fn() with tensor.backward, then with the retaining replay in its place."""
    released = fn()
    with monkeypatch.context() as m:
        m.setattr(T, "backward", backward_retaining)
        retained = fn()
    return released, retained


class TestRelease:
    def test_interior_nodes_are_freed_and_leaves_keep_their_grad(self, rng, small_net):
        x = Tensor(rng.normal(0, 1, (2, 3, 16, 16)), requires_grad=True)
        small_net.set_requires_grad(True)
        try:
            loss = T.softmax_cross_entropy(small_net.forward(x), [1, 2])
            interior = [n for n in tape_nodes(loss) if n._backward_rule is not None]
            rules = [weakref.ref(n._backward_rule) for n in interior]
            T.backward(loss)
            assert x.grad is not None
            assert all(p.grad is not None for p in small_net.params)
        finally:
            for p in small_net.params:
                p.zero_grad()
            small_net.set_requires_grad(False)
        # Standardize 2, four conv layers 4 (the fourth takes its ReLU in past the
        # inactive Dropout), two pools 2, Flatten 1, three Dense 6, two ReLUs 2, loss 1.
        assert len(interior) == 18
        assert all(n.grad is None and n._parents == () for n in interior)
        assert all(rule() is None for rule in rules)

    def test_conv_keeps_its_padded_input_only_for_the_weight_gradient(self, rng):
        n, c, h, w = 50, 8, 34, 34
        x = Tensor(rng.normal(0, 1, (n, c, h, w)), requires_grad=True)
        grid_bytes = c * (n * (h + 2) * (w + 2) + 2) * 8

        def retained(trainable: bool) -> int:
            kernels = Tensor(rng.normal(0, 1, (8, c, 3, 3)), requires_grad=trainable)
            tracemalloc.start()
            try:
                out = T.conv2d(x, kernels, padding=1)
                assert out._backward_rule is not None
                return tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()

        # The margin is a few hundred bytes, so a cache that the first call fills
        # must not land in one measurement only.
        T.conv2d(x, Tensor(rng.normal(0, 1, (8, c, 3, 3)), requires_grad=True), padding=1)
        assert retained(False) <= retained(True) - grid_bytes

    def test_framed_step_keeps_one_array_per_conv_layer_and_path(self, net_and_set):
        net, ds = net_and_set
        offset = Tensor(np.random.default_rng(3).uniform(-0.5, 0.5, SHAPE), requires_grad=True)
        loss = T.softmax_cross_entropy(forward_framed(net, ds.images.array, offset),
                                       build_class_map(10).apply(ds.labels))
        nodes = tape_nodes(loss)
        weights = [layer.weight for layer in net.layers if isinstance(layer, Conv)]
        conv_shapes = [n.shape for n in nodes if any(w in n._parents for w in weights)]
        # Four conv layers, each on the shared frame (batch 1) and on the crops.
        assert sorted(s[0] for s in conv_shapes) == [1] * 4 + [len(ds)] * 4
        arrays = {(n.shape, n.array.__array_interface__["data"][0]) for n in nodes}
        held = Counter(shape for shape, _ in arrays if shape in conv_shapes)
        assert held == Counter(conv_shapes)

    def test_framed_step_backward_peak_stays_near_the_forward_tape(self, net_and_set):
        net, ds = net_and_set
        mask = build_frame_mask(SHAPE, INNER)
        delta = np.random.default_rng(4).uniform(-0.5, 0.5, SHAPE)
        tracemalloc.start()
        try:
            delta_t = Tensor(delta, requires_grad=True)
            logits = forward_framed(net, ds.images.array, T.mul(delta_t, Tensor(mask.array)))
            loss = T.softmax_cross_entropy(logits, build_class_map(10).apply(ds.labels))
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            T.backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert delta_t.grad is not None
        assert peak <= 1.25 * held


class TestSameGradientsAsRetainingReplay:
    def test_framed_step(self, net_and_set, monkeypatch):
        net, ds = net_and_set
        mask = build_frame_mask(SHAPE, INNER)
        delta = np.random.default_rng(5).uniform(-0.5, 0.5, SHAPE)
        got, want = _released_and_retained(
            lambda: average_masked_gradient(net, ds.images.array, ds.labels, delta, mask,
                                            build_class_map(10)), monkeypatch)
        assert np.any(want != 0.0)
        assert np.array_equal(got, want)

    def test_alignment_chunk(self, net_and_set, monkeypatch):
        net, ds = net_and_set
        chunk = diagnostics._CHUNK_ELEMENTS // int(np.prod(SHAPE))
        offset = np.random.default_rng(6).uniform(-0.5, 0.5, SHAPE)
        got, want = _released_and_retained(
            lambda: diagnostics._input_gradients(net, embed(ds.images.array[:chunk], SHAPE),
                                                 ds.labels[:chunk], offset,
                                                 build_class_map(10)), monkeypatch)
        assert got.shape == (chunk, *SHAPE)
        assert np.array_equal(got, want)

    def test_training_step(self, net_and_set, monkeypatch):
        net, ds = net_and_set
        zero = Tensor(np.zeros(SHAPE))

        def step():
            net.set_requires_grad(True)
            try:
                logits = forward_framed(net, ds.images.array[:10], zero,
                                        np.random.default_rng(7))
                T.backward(T.softmax_cross_entropy(logits, ds.labels[:10]))
                return [p.grad for p in net.params]
            finally:
                for p in net.params:
                    p.zero_grad()
                net.set_requires_grad(False)

        got, want = _released_and_retained(step, monkeypatch)
        assert all(g is not None for g in got)
        assert all(np.array_equal(g, r) for g, r in zip(got, want))
