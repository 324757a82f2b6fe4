"""The framed forward against the tape path it replaces in the hot loops.

models.forward_framed computes the batch's shared frame once and only the
grown image window per sample. In real arithmetic it equals
net.forward(images + offset); in float64 the two differ by rounding only.
Where the framed path does not apply, it must return the tape path's result
exactly.
"""

import numpy as np
import pytest

import reprolab.tensor as T
from reprolab.datasets import PadSpec, preprocess, synth_target_dataset
from reprolab.diagnostics import confusion_matrix, reprogramming_accuracy
from reprolab.models import (
    _frame_windows,
    build_cwnet,
    forward_framed,
    init_weights,
)
from reprolab.reprogram import (
    Mask,
    average_masked_gradient,
    build_class_map,
    build_frame_mask,
    reprogramming_loss,
)
from reprolab.tensor import Tensor, finite_diff_check

SHAPE = (3, 64, 64)
INNER = (28, 28)


def _framed_applies(net, images) -> bool:
    return _frame_windows(net, images) is not None


def _tape_logits(net, images, offset):
    with T.no_grad():
        return net.forward(Tensor(images + offset)).array


def _tape_loss(net, images, labels, offset):
    with T.no_grad():
        return T.softmax_cross_entropy(net.forward(Tensor(images + offset)), labels).item()


def _tape_gradient(net, images, labels, delta, mask):
    """average_masked_gradient as it ran before the framed forward."""
    delta_t = Tensor(delta, requires_grad=True)
    x_pert = T.add(Tensor(images), T.mul(delta_t, Tensor(mask.array)))
    T.backward(T.softmax_cross_entropy(net.forward(x_pert), labels))
    return delta_t.grad


@pytest.fixture(scope="module")
def net64():
    net = init_weights(build_cwnet(SHAPE, width_scale=0.25), 21)
    raw = synth_target_dataset(5, per_class=20, size=INNER, family="strokes",
                               noise_amplitude=40.0)
    net.set_input_standardization(preprocess(raw, PadSpec(SHAPE, INNER)))
    return net


def _target(placement=None, n=20):
    raw = synth_target_dataset(11, per_class=n // 10, size=INNER, family="outline",
                               noise_amplitude=20.0, max_shift=1)
    return preprocess(raw, PadSpec(SHAPE, INNER, offset=placement))


def _deltas(rng):
    return {
        "zero": np.zeros(SHAPE),
        "lattice": 0.05 * rng.integers(-20, 21, SHAPE),
        "uniform": rng.uniform(-1.0, 1.0, SHAPE),
    }


class TestFramedMatchesTape:
    # (9, 21) puts the image off centre at odd rows and columns, so the window
    # is widened to pool alignment.
    @pytest.mark.parametrize("placement", [None, (9, 21)])
    @pytest.mark.parametrize("outer", [36, 48, 64])
    def test_logits_loss_and_gradient(self, net64, placement, outer):
        ds = _target(placement)
        images, labels = ds.images.array, ds.labels
        assert _framed_applies(net64, images)
        mask = build_frame_mask(SHAPE, INNER, outer)
        cm = build_class_map(10)
        for name, delta in _deltas(np.random.default_rng(outer)).items():
            offset = delta * mask.array
            with T.no_grad():
                framed = forward_framed(net64, images, Tensor(offset)).array
            tape = _tape_logits(net64, images, offset)
            assert np.abs(framed - tape).max() <= 1e-12 * np.abs(tape).max(), name
            assert np.array_equal(framed.argmax(axis=1), tape.argmax(axis=1)), name

            loss = reprogramming_loss(net64, images, labels, delta, mask, cm)
            assert loss == pytest.approx(_tape_loss(net64, images, labels, offset), rel=1e-12)

            got = average_masked_gradient(net64, images, labels, delta, mask, cm).array
            want = _tape_gradient(net64, images, labels, delta, mask)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), name
            assert np.array_equal(got == 0, want == 0), name

    def test_offset_inside_the_image_window(self, net64):
        # A frame mask is zero over the image; with an all-ones mask the crops
        # must add the offset as well.
        ds = _target((9, 21))
        images, labels = ds.images.array, ds.labels
        mask = Mask(values=Tensor(np.ones(SHAPE)))
        delta = np.random.default_rng(4).uniform(-1.0, 1.0, SHAPE)
        with T.no_grad():
            framed = forward_framed(net64, images, Tensor(delta)).array
        tape = _tape_logits(net64, images, delta)
        assert np.abs(framed - tape).max() <= 1e-12 * np.abs(tape).max()
        got = average_masked_gradient(net64, images, labels, delta, mask, build_class_map(10))
        want = _tape_gradient(net64, images, labels, delta, mask)
        assert np.abs(got.array - want).max() <= 1e-12 * np.abs(want).max()

    def test_evaluation_counts_match_tape_predictions(self, net64):
        ds = _target((9, 21))
        mask = build_frame_mask(SHAPE, INNER, 48)
        cm = build_class_map(10)
        delta = np.random.default_rng(3).uniform(-1.0, 1.0, SHAPE)
        pred = _tape_logits(net64, ds.images.array, delta * mask.array).argmax(axis=1)
        counts = confusion_matrix(net64, ds, delta, mask, cm, batch_size=16)
        expected = np.zeros_like(counts)
        for label, p in zip(ds.labels, pred):
            expected[label, p if p < 10 else 10] += 1
        assert np.array_equal(counts, expected)
        ra = reprogramming_accuracy(net64, ds, delta, mask, cm, batch_size=16)
        assert ra == np.trace(counts) / len(ds)

    def test_gradient_passes_finite_differences(self):
        # A small geometry where the framed path applies; the checked
        # coordinates are a patch of delta that spans the frame, the ring
        # the convs read from the canvas, and the image window.
        shape = (3, 32, 32)
        net = init_weights(build_cwnet(shape, width_scale=0.25), 4)
        ds = preprocess(synth_target_dataset(2, per_class=1, size=(8, 8)),
                        PadSpec(shape, (8, 8)))
        images, labels = ds.images.array[:3], ds.labels[:3]
        assert _framed_applies(net, images)
        mask = Tensor(build_frame_mask(shape, (8, 8), 20).array)
        base = Tensor(np.random.default_rng(1).uniform(-1.0, 1.0, (1, *shape)))

        def loss(patch):
            delta = T.reshape(T.paste(base, patch, 8, 4), shape)
            return T.softmax_cross_entropy(forward_framed(net, images, T.mul(delta, mask)),
                                           labels)

        assert finite_diff_check(loss, Tensor(base.array[:, :, 8:18, 4:14])) < 1e-6


class LinearLogitsModel:
    """Ten logits linear in the input; not a CWNet Network."""

    def __init__(self, w: np.ndarray):
        self.w = w

    def forward(self, x, training=False, rng=None):
        return T.matmul(T.reshape(x, (x.shape[0], -1)), Tensor(self.w))


class TestFallbackEqualsTape:
    """Where the framed path does not apply, results equal the tape path's exactly."""

    def _assert_tape(self, net, images, labels, shape):
        assert not _framed_applies(net, images)
        mask = build_frame_mask(shape, (shape[1] // 2, shape[2] // 2))
        cm = build_class_map(10)
        delta = np.random.default_rng(7).uniform(-1.0, 1.0, shape)
        offset = delta * mask.array
        with T.no_grad():
            framed = forward_framed(net, images, Tensor(offset)).array
        assert np.array_equal(framed, _tape_logits(net, images, offset))
        assert reprogramming_loss(net, images, labels, delta, mask, cm) == \
            _tape_loss(net, images, labels, offset)
        got = average_masked_gradient(net, images, labels, delta, mask, cm).array
        assert np.array_equal(got, _tape_gradient(net, images, labels, delta, mask))

    def test_window_growing_into_the_border(self, small_net):
        ds = preprocess(synth_target_dataset(0, per_class=2, size=(8, 8)),
                        PadSpec((3, 16, 16), (8, 8)))
        self._assert_tape(small_net, ds.images.array, ds.labels, (3, 16, 16))

    def test_model_that_is_not_a_network(self):
        rng = np.random.default_rng(8)
        shape = (3, 16, 16)
        model = LinearLogitsModel(rng.normal(0.0, 0.1, (int(np.prod(shape)), 10)))
        ds = preprocess(synth_target_dataset(0, per_class=2, size=(8, 8)),
                        PadSpec(shape, (8, 8)))
        self._assert_tape(model, ds.images.array, ds.labels, shape)

    def test_inputs_nonzero_everywhere(self, net64):
        rng = np.random.default_rng(9)
        images = rng.uniform(-1.0, 1.0, (6, *SHAPE))
        self._assert_tape(net64, images, rng.integers(0, 10, 6), SHAPE)
