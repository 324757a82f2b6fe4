"""Stored images give the bits of their network-size arrays.

preprocess stores each image at its own size and channel count; every entry
point reads it where the network sees it, centred in a zero frame of the
input size with a single channel repeated. Each case runs once on a
preprocessed dataset and once on the network-size arrays of the same rows,
built here by the placement the frame mask assumes, and asserts equal bits.
A placement one pixel off changes every case.
"""

import numpy as np
import pytest

import reprolab.tensor as T
from reprolab.datasets import LabeledDataset, preprocess, synth_target_dataset
from reprolab.diagnostics import alignment_stats, confusion_matrix
from reprolab.models import (
    TrainConfig,
    _frame_windows,
    build_cwnet,
    forward_framed,
    init_weights,
    predict_batch,
    train_sgd,
)
from reprolab.reprogram import average_masked_gradient, build_class_map, build_frame_mask
from reprolab.tensor import Tensor

from oracles import linear_network


def _network_size(images, shape):
    """Each image centred in zeros of ``shape``, its one channel repeated."""
    n, _, h, w = images.shape
    c, height, width = shape
    out = np.zeros((n, c, height, width))
    row, col = (height - h) // 2, (width - w) // 2
    out[:, :, row : row + h, col : col + w] = images
    return out


# (input shape, image size, model kind): the 64x64 CWNet runs the framed path;
# the 16x16 CWNet's window grows into the border, so every forward takes the
# tape; the linear network's frame ends at its first layer, Flatten.
FIXTURES = {
    "cwnet64": ((3, 64, 64), (28, 28), "cwnet"),
    "cwnet16": ((3, 16, 16), (8, 8), "cwnet"),
    "linear16": ((3, 16, 16), (8, 8), "linear"),
}
CASES = [("cwnet64", 36), ("cwnet64", 48), ("cwnet64", 64), ("cwnet16", None),
         ("linear16", None)]


def _model(name, fit_on=None):
    shape, _, kind = FIXTURES[name]
    if kind == "linear":
        return linear_network(
            np.random.default_rng(8).normal(0.0, 0.1, (int(np.prod(shape)), 10)), shape)
    net = init_weights(build_cwnet(shape, width_scale=0.25, dropout_enabled=True), 21)
    if fit_on is not None:
        net.set_input_standardization(fit_on)
    return net


def _stored(name, n=20):
    shape, inner, _ = FIXTURES[name]
    raw = synth_target_dataset(11, per_class=n // 10, size=inner, family="outline",
                               noise_amplitude=20.0, max_shift=1)
    return preprocess(raw, shape)


def _full(ds):
    return LabeledDataset(Tensor(_network_size(ds.images.array, ds.input_shape)), ds.labels,
                          ds.num_classes)


@pytest.fixture(scope="module", params=CASES, ids=lambda c: f"{c[0]}-mask{c[1]}")
def case(request):
    name, outer = request.param
    shape, inner, _ = FIXTURES[name]
    ds = _stored(name)
    net = _model(name, fit_on=ds)
    mask = build_frame_mask(shape, inner, outer)
    delta = np.random.default_rng(3).uniform(-1.0, 1.0, shape)
    assert ds.images.shape[1:] == (1, *inner)
    assert (_frame_windows(net, ds.images.array) is not None) == (name != "cwnet16")
    return net, ds, _full(ds), mask, delta


def _same(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_forward_framed_logits_and_offset_gradient(case):
    net, ds, full, mask, delta = case

    def run(images):
        offset = Tensor(delta * mask.array, requires_grad=True)
        logits = forward_framed(net, images, offset)
        T.backward(T.softmax_cross_entropy(logits, ds.labels))
        return logits.array, offset.grad

    _same(run(ds.images.array), run(full.images.array))


def test_predict_batch(case):
    net, ds, full, mask, delta = case
    for offset in (None, delta * mask.array):
        _same(predict_batch(net, ds.images.array, offset),
              predict_batch(net, full.images.array, offset))


def test_average_masked_gradient(case):
    net, ds, full, mask, delta = case
    cm = build_class_map(10)
    assert np.array_equal(
        average_masked_gradient(net, ds.images.array, ds.labels, delta, mask, cm),
        average_masked_gradient(net, full.images.array, full.labels, delta, mask, cm))


def test_alignment_stats(case):
    net, ds, full, mask, delta = case
    cm = build_class_map(10)
    # The zero program shares one gradient between masks; a program has one mask.
    zero = np.zeros(mask.array.shape)
    masks = [mask, build_frame_mask(ds.input_shape, ds.images.shape[2:])]
    for offset, with_masks in ((zero, masks), (delta * mask.array, [mask])):
        assert alignment_stats(net, ds, offset, with_masks, cm) == \
            alignment_stats(net, full, offset, with_masks, cm)


def test_confusion_matrix(case):
    net, ds, full, mask, delta = case
    cm = build_class_map(10, [3, 1, 4, 0, 5, 9, 2, 6, 8, 7])
    for offset in (None, delta * mask.array):
        assert np.array_equal(confusion_matrix(net, ds, offset, cm),
                              confusion_matrix(net, full, offset, cm))


@pytest.mark.parametrize("name", ["cwnet64", "cwnet16"])
def test_set_input_standardization(name):
    # Mean and std do not depend on where the image sits, only on the
    # summation order, so this checks the fit's bits and not its placement.
    ds = _stored(name)
    stored_net, full_net = _model(name, fit_on=ds), _model(name, fit_on=_full(ds))
    assert np.array_equal(stored_net.standardize.mean, full_net.standardize.mean)
    assert np.array_equal(stored_net.standardize.std, full_net.standardize.std)


@pytest.mark.parametrize("name", ["cwnet64", "cwnet16"])
def test_train_sgd_with_dropout(name):
    ds = _stored(name, n=30)
    full = _full(ds)
    cfg = TrainConfig(epochs=2, learning_rate=0.05, momentum=0.9, batch_size=10, seed=6)
    stored_net, full_net = _model(name, fit_on=full), _model(name, fit_on=full)
    assert stored_net.layers[9].enabled
    _, history = train_sgd(stored_net, ds, cfg)
    _, full_history = train_sgd(full_net, full, cfg)
    assert history == full_history
    _same([p.array for p in stored_net.params], [p.array for p in full_net.params])
