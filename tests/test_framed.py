"""The framed forward against the tape path it replaces in the hot loops.

models.forward_framed computes the batch's shared frame once and only the
grown image window per sample. In real arithmetic it equals
net.forward(images + offset); in float64 the two differ by rounding only.
Training (train_sgd) and prediction (predict_batch) take it with a zero
offset. Where the framed path does not apply, it must return the tape path's
result exactly. The tape path runs on network-size arrays (datasets.embed).
"""

import numpy as np
import pytest

import reprolab.models as models
import reprolab.tensor as T
from reprolab.datasets import LabeledDataset, embed, preprocess, synth_target_dataset
from reprolab.diagnostics import (
    confusion_matrix,
    diagonal_accuracy,
    domain_alignment,
    reprogramming_accuracy,
)
from reprolab.models import (
    Dropout,
    TrainConfig,
    _frame_windows,
    build_cwnet,
    forward_framed,
    init_weights,
    predict_batch,
    train_sgd,
)
from reprolab.reprogram import (
    Mask,
    average_masked_gradient,
    build_class_map,
    build_frame_mask,
    reprogramming_loss,
)
from reprolab.tensor import Tensor

from oracles import conv_layer_unfused, finite_diff_check, train_sgd_tape

SHAPE = (3, 64, 64)
INNER = (28, 28)


def _framed_applies(net, images) -> bool:
    return _frame_windows(net, images) is not None


def _tape_logits(net, images, offset, shape=SHAPE):
    with T.no_grad():
        return net.forward(Tensor(embed(images, shape) + offset)).array


def _tape_loss(net, images, labels, offset):
    with T.no_grad():
        x = Tensor(embed(images, offset.shape) + offset)
        return T.softmax_cross_entropy(net.forward(x), labels).item()


def _tape_gradient(net, images, labels, delta, mask):
    """average_masked_gradient as it ran before the framed forward."""
    delta_t = Tensor(delta, requires_grad=True)
    x_pert = T.add(Tensor(embed(images, mask.array.shape)), T.mul(delta_t, Tensor(mask.array)))
    T.backward(T.softmax_cross_entropy(net.forward(x_pert), labels))
    return delta_t.grad


@pytest.fixture(scope="module")
def net64():
    net = init_weights(build_cwnet(SHAPE, width_scale=0.25), 21)
    raw = synth_target_dataset(5, per_class=20, size=INNER, family="strokes",
                               noise_amplitude=40.0)
    net.set_input_standardization(preprocess(raw, SHAPE))
    return net


def _target(placement=None, n=20):
    """Outline targets, as preprocess stores them (centred), or as network-size
    arrays with the image's top-left corner at ``placement``."""
    raw = synth_target_dataset(11, per_class=n // 10, size=INNER, family="outline",
                               noise_amplitude=20.0, max_shift=1)
    ds = preprocess(raw, SHAPE)
    if placement is None:
        return ds
    # The network reads the image centred in a zero frame, so a roll moves it whole.
    shift = [p - (side - inner) // 2 for p, side, inner in zip(placement, SHAPE[1:], INNER)]
    return LabeledDataset(Tensor(np.roll(embed(ds.images.array, SHAPE), shift, axis=(2, 3))),
                          ds.labels, ds.num_classes)


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

            got = average_masked_gradient(net64, images, labels, delta, mask, cm)
            want = _tape_gradient(net64, images, labels, delta, mask)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), name
            assert np.array_equal(got == 0, want == 0), name

    def test_offset_inside_the_image_window(self, net64):
        # A frame mask is zero over the image; with an all-ones mask the crops
        # must add the offset as well.
        ds = _target((9, 21))
        images, labels = ds.images.array, ds.labels
        mask = Mask(np.ones(SHAPE))
        delta = np.random.default_rng(4).uniform(-1.0, 1.0, SHAPE)
        with T.no_grad():
            framed = forward_framed(net64, images, Tensor(delta)).array
        tape = _tape_logits(net64, images, delta)
        assert np.abs(framed - tape).max() <= 1e-12 * np.abs(tape).max()
        got = average_masked_gradient(net64, images, labels, delta, mask, build_class_map(10))
        want = _tape_gradient(net64, images, labels, delta, mask)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_evaluation_counts_match_tape_predictions(self, net64, monkeypatch):
        # Chunks of 16 leave a last chunk of 4.
        monkeypatch.setattr(models, "_EVAL_BATCH", 16)
        ds = _target((9, 21))
        mask = build_frame_mask(SHAPE, INNER, 48)
        cm = build_class_map(10)
        offset = np.random.default_rng(3).uniform(-1.0, 1.0, SHAPE) * mask.array
        pred = _tape_logits(net64, ds.images.array, offset).argmax(axis=1)
        counts = confusion_matrix(net64, ds, offset, cm)
        expected = np.zeros_like(counts)
        for label, p in zip(ds.labels, pred):
            expected[label, p if p < 10 else 10] += 1
        assert np.array_equal(counts, expected)
        ra = reprogramming_accuracy(net64, ds, offset, cm)
        assert ra == np.trace(counts) / len(ds)

    def test_gradient_passes_finite_differences(self):
        # A small geometry where the framed path applies; the checked
        # coordinates are a patch of delta that spans the frame, the ring
        # the convs read from the canvas, and the image window.
        shape = (3, 32, 32)
        net = init_weights(build_cwnet(shape, width_scale=0.25), 4)
        ds = preprocess(synth_target_dataset(2, per_class=1, size=(8, 8)),
                        shape)
        images, labels = ds.images.array[:3], ds.labels[:3]
        assert _framed_applies(net, images)
        mask = Tensor(build_frame_mask(shape, (8, 8), 20).array)
        base = Tensor(np.random.default_rng(1).uniform(-1.0, 1.0, (1, *shape)))

        def loss(patch):
            delta = T.reshape(T.paste(base, patch, 8, 4), shape)
            return T.softmax_cross_entropy(forward_framed(net, images, T.mul(delta, mask)),
                                           labels)

        assert finite_diff_check(loss, Tensor(base.array[:, :, 8:18, 4:14])) < 1e-6


class TestTrainingMatchesTape:
    """train_sgd shares the frame up to the active Dropout; the tape oracle does not."""

    CFG = TrainConfig(epochs=2, learning_rate=0.05, momentum=0.9, batch_size=10, seed=6)

    @staticmethod
    def _net_and_data(shape, inner):
        ds = preprocess(synth_target_dataset(6, per_class=3, size=inner, family="strokes",
                                             noise_amplitude=40.0), shape)
        net = init_weights(build_cwnet(shape, width_scale=0.25, dropout_enabled=True), 6)
        net.set_input_standardization(ds)
        return net, ds

    def _train_both(self, monkeypatch, shape, inner):
        """Both loops from the same weights, with the dropout draws each made."""
        draws = {"framed": [], "tape": []}
        real = T.dropout

        def recorded(into):
            def dropout(a, rate, rng):
                into.append((a.shape, rng))
                return real(a, rate, rng)
            return dropout

        cfg = self.CFG
        net, ds = self._net_and_data(shape, inner)
        monkeypatch.setattr(T, "dropout", recorded(draws["framed"]))
        _, history = train_sgd(net, ds, cfg)
        tape_net, _ = self._net_and_data(shape, inner)
        monkeypatch.setattr(T, "dropout", recorded(draws["tape"]))
        tape_history = train_sgd_tape(tape_net, embed(ds.images.array, shape), ds.labels,
                                      cfg.epochs, cfg.learning_rate, cfg.momentum,
                                      cfg.batch_size, cfg.seed)
        assert [d[0] for d in draws["framed"]] == [d[0] for d in draws["tape"]]
        assert len(draws["framed"]) == cfg.epochs * (len(ds) // cfg.batch_size)
        assert draws["framed"][-1][1].bit_generator.state == \
            draws["tape"][-1][1].bit_generator.state
        return net, tape_net, history, tape_history, ds

    def test_frame_ends_at_the_active_dropout(self):
        net, ds = self._net_and_data((3, 32, 32), (8, 8))
        images = ds.images.array
        training = _frame_windows(net, images, np.random.default_rng(0))
        assert isinstance(net.layers[len(training) - 1], Dropout)
        assert len(training) < len(_frame_windows(net, images))

    def test_losses_and_parameters(self, monkeypatch):
        net, tape_net, history, tape_history, _ = self._train_both(
            monkeypatch, (3, 32, 32), (8, 8))
        assert history == pytest.approx(tape_history, rel=1e-12)
        for got, want in zip(net.params, tape_net.params):
            assert np.abs(got.array - want.array).max() <= 1e-12 * np.abs(want.array).max()

    def test_window_at_the_border_trains_on_the_tape(self, monkeypatch):
        net, tape_net, history, tape_history, ds = self._train_both(
            monkeypatch, (3, 16, 16), (8, 8))
        assert _frame_windows(net, ds.images.array) is None
        assert history == tape_history
        for got, want in zip(net.params, tape_net.params):
            assert np.array_equal(got.array, want.array)


class TestConvLayerMatchesUnfusedChain:
    """Every conv layer is one tensor.conv_layer node; the chain it fuses
    (oracles.conv_layer_unfused) gives the same bits on both paths."""

    @staticmethod
    def _biased_net():
        net = init_weights(build_cwnet(SHAPE, width_scale=0.25, dropout_enabled=True), 8)
        net.set_input_standardization(_target())
        bias_rng = np.random.default_rng(9)
        for p in net.params:
            if p.array.ndim == 1:
                p.array[...] = bias_rng.normal(0.0, 0.1, p.shape)
        return net

    # With a generator the Dropout is active, so the fourth conv runs without
    # its ReLU; without one every conv layer takes its ReLU in.
    @pytest.mark.parametrize("dropout", [False, True])
    @pytest.mark.parametrize("trainable", [False, True])
    @pytest.mark.parametrize("path", ["tape", "framed"])
    def test_logits_loss_and_gradients(self, monkeypatch, path, trainable, dropout):
        net = self._biased_net()
        ds = _target(n=10)
        offset = 0.05 * np.random.default_rng(10).integers(-20, 21, SHAPE)

        def run():
            rng = np.random.default_rng(11) if dropout else None
            net.set_requires_grad(trainable)
            try:
                if path == "tape":
                    inputs = Tensor(embed(ds.images.array, SHAPE) + offset, requires_grad=True)
                    logits = net.forward(inputs, rng)
                else:
                    assert _framed_applies(net, ds.images.array)
                    inputs = Tensor(offset, requires_grad=True)
                    logits = forward_framed(net, ds.images.array, inputs, rng)
                loss = T.softmax_cross_entropy(logits, ds.labels)
                T.backward(loss)
                return [logits.array, loss.array, inputs.grad] + [p.grad for p in net.params]
            finally:
                for p in net.params:
                    p.zero_grad()
                net.set_requires_grad(False)

        fused = run()
        with monkeypatch.context() as m:
            m.setattr(T, "conv_layer", conv_layer_unfused)
            unfused = run()
        assert all((g is None) == (not trainable) for g in fused[3:])
        for got, want in zip(fused, unfused):
            assert (got is None and want is None) or np.array_equal(got, want)


class TestPredictBatch:
    def test_logits_match_tape(self, net64):
        images = _target((9, 21)).images.array
        assert _framed_applies(net64, images)
        pred, logits = predict_batch(net64, images)
        tape = _tape_logits(net64, images, 0.0)
        assert np.abs(logits - tape).max() <= 1e-12 * np.abs(tape).max()
        assert np.array_equal(pred, tape.argmax(axis=1))

    def test_offset_matches_tape(self, net64):
        # More samples than one evaluation chunk of 200.
        images = _target((9, 21), n=210).images.array
        offset = np.random.default_rng(5).uniform(-1.0, 1.0, SHAPE) * \
            build_frame_mask(SHAPE, INNER, 48).array
        pred, logits = predict_batch(net64, images, offset)
        tape = _tape_logits(net64, images, offset)
        assert np.abs(logits - tape).max() <= 1e-12 * np.abs(tape).max()
        assert np.array_equal(pred, tape.argmax(axis=1))

    def test_zero_program_counts_give_domain_alignment(self, net64):
        # DA and the zero-program confusion matrix take the same chunks of
        # predict_batch, so they agree bit for bit past the first chunk too.
        ds = _target(n=210)
        cm = build_class_map(10)
        counts = confusion_matrix(net64, ds, None, cm)
        assert counts.sum() == 210
        assert diagonal_accuracy(counts) == domain_alignment(net64, ds, cm)


class LinearLogitsModel:
    """Ten logits linear in the input; not a CWNet Network, and forward takes x only."""

    def __init__(self, w: np.ndarray):
        self.w = w

    def forward(self, x):
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
        assert np.array_equal(framed, _tape_logits(net, images, offset, shape))
        assert reprogramming_loss(net, images, labels, delta, mask, cm) == \
            _tape_loss(net, images, labels, offset)
        got = average_masked_gradient(net, images, labels, delta, mask, cm)
        assert np.array_equal(got, _tape_gradient(net, images, labels, delta, mask))
        pred, logits = predict_batch(net, images, np.zeros(shape))
        tape = _tape_logits(net, images, 0.0, shape)
        assert np.array_equal(logits, tape)
        assert np.array_equal(pred, tape.argmax(axis=1))

    def test_window_growing_into_the_border(self, small_net):
        ds = preprocess(synth_target_dataset(0, per_class=2, size=(8, 8)),
                        (3, 16, 16))
        self._assert_tape(small_net, ds.images.array, ds.labels, (3, 16, 16))

    def test_model_that_is_not_a_network(self):
        rng = np.random.default_rng(8)
        shape = (3, 16, 16)
        model = LinearLogitsModel(rng.normal(0.0, 0.1, (int(np.prod(shape)), 10)))
        ds = preprocess(synth_target_dataset(0, per_class=2, size=(8, 8)),
                        shape)
        self._assert_tape(model, ds.images.array, ds.labels, shape)

    def test_inputs_nonzero_everywhere(self, net64):
        rng = np.random.default_rng(9)
        images = rng.uniform(-1.0, 1.0, (6, *SHAPE))
        self._assert_tape(net64, images, rng.integers(0, 10, 6), SHAPE)
