import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reprolab.datasets import (
    LabeledDataset,
    embed,
    load_idx,
    make_batches,
    preprocess,
    split_dataset,
    synth_target_dataset,
    window_origin,
    write_idx,
)
from reprolab.errors import ConfigurationError, ConsistencyError, FormatError, ShapeError
from reprolab.tensor import Tensor


def _write_idx_pair(tmp_path, images: np.ndarray, labels: np.ndarray,
                    image_magic=0x803, label_magic=0x801, label_count=None):
    n, rows, cols = images.shape
    ipath, lpath = tmp_path / "img.idx", tmp_path / "lab.idx"
    with open(ipath, "wb") as fh:
        fh.write(struct.pack(">IIII", image_magic, n, rows, cols))
        fh.write(images.astype(np.uint8).tobytes())
    with open(lpath, "wb") as fh:
        fh.write(struct.pack(">II", label_magic, n if label_count is None else label_count))
        fh.write(labels.astype(np.uint8).tobytes())
    return ipath, lpath


class TestLoadIdx:
    def test_header_arithmetic(self, tmp_path, rng):
        images = rng.integers(0, 256, (10, 5, 4)).astype(np.uint8)
        labels = rng.integers(0, 10, 10).astype(np.uint8)
        ds = load_idx(*_write_idx_pair(tmp_path, images, labels))
        assert ds.images.shape == (10, 1, 5, 4)
        assert np.array_equal(ds.images.array[:, 0], images.astype(np.float64))
        assert np.array_equal(ds.labels, labels)

    def test_wrong_image_magic(self, tmp_path, rng):
        paths = _write_idx_pair(tmp_path, np.zeros((2, 3, 3), np.uint8),
                                np.zeros(2, np.uint8), image_magic=0x802)
        with pytest.raises(FormatError, match="magic"):
            load_idx(*paths)

    def test_wrong_label_magic(self, tmp_path):
        paths = _write_idx_pair(tmp_path, np.zeros((2, 3, 3), np.uint8),
                                np.zeros(2, np.uint8), label_magic=0x803)
        with pytest.raises(FormatError, match="magic"):
            load_idx(*paths)

    def test_count_mismatch(self, tmp_path):
        paths = _write_idx_pair(tmp_path, np.zeros((4, 3, 3), np.uint8),
                                np.zeros(4, np.uint8), label_count=5)
        with pytest.raises(ConsistencyError, match="4 images.*5 labels"):
            load_idx(*paths)

    def test_truncated_payload(self, tmp_path):
        ipath, lpath = _write_idx_pair(tmp_path, np.zeros((4, 3, 3), np.uint8),
                                       np.zeros(4, np.uint8))
        ipath.write_bytes(ipath.read_bytes()[:-5])
        with pytest.raises(FormatError, match="truncated"):
            load_idx(ipath, lpath)

    def test_round_trip_through_writer(self, tmp_path):
        ds = synth_target_dataset(3, per_class=4, size=(10, 10), family="strokes")
        write_idx(ds, tmp_path / "img.idx", tmp_path / "lab.idx")
        again = load_idx(tmp_path / "img.idx", tmp_path / "lab.idx")
        assert np.array_equal(again.images.array, np.rint(ds.images.array))
        assert np.array_equal(again.labels, ds.labels)


@pytest.mark.skipif("not __import__('os').environ.get('REPROLAB_MNIST_DIR')",
                    reason="real MNIST files not available")
def test_reference_mnist_first_label_is_five():
    import os
    from pathlib import Path

    root = Path(os.environ["REPROLAB_MNIST_DIR"])
    ds = load_idx(root / "train-images-idx3-ubyte", root / "train-labels-idx1-ubyte")
    assert ds.labels[0] == 5


class TestPreprocess:
    def test_linear_map_endpoints(self):
        raw = LabeledDataset(Tensor([[[[0.0, 255.0], [127.5, 64.0]]]]), [0], 1)
        out = preprocess(raw, (1, 2, 2))
        block = out.images.array[0, 0]
        assert block[0, 0] == -1.0 and block[0, 1] == 1.0 and block[1, 0] == 0.0

    def test_frame_zero_count_at_imagenet_scale(self):
        raw = LabeledDataset(Tensor(np.full((1, 1, 28, 28), 255.0)), [0], 1)
        out = preprocess(raw, (3, 224, 224))
        arr = embed(out.images.array, out.input_shape)[0]
        zeros_per_channel = (arr[0] == 0).sum()
        assert zeros_per_channel == 224 ** 2 - 28 ** 2 == 49392
        assert zeros_per_channel > 49000
        assert np.array_equal(arr[0], arr[1]) and np.array_equal(arr[0], arr[2])

    def test_centering(self, rng):
        raw = LabeledDataset(Tensor(rng.integers(1, 255, (1, 1, 2, 2)).astype(float)), [0], 1)
        out = preprocess(raw, (1, 4, 4))
        arr = embed(out.images.array, out.input_shape)[0, 0]
        assert (arr[1:3, 1:3] != 0).all()
        arr[1:3, 1:3] = 0
        assert (arr == 0).all()

    def test_range_and_frame_invariants(self, rng):
        raw = synth_target_dataset(1, per_class=3, size=(6, 6))
        out = preprocess(raw, (3, 12, 12))
        arr = embed(out.images.array, out.input_shape)
        assert arr.min() >= -1.0 and arr.max() <= 1.0
        frame = np.ones((12, 12), dtype=bool)
        frame[3:9, 3:9] = False
        assert (arr[:, :, frame] == 0).all()

    def test_injective_on_inner_region(self):
        raw = LabeledDataset(Tensor(np.arange(256, dtype=float).reshape(1, 1, 16, 16)), [0], 1)
        out = preprocess(raw, (1, 16, 16))
        assert len(np.unique(out.images.array)) == 256

    def test_stores_the_image_for_its_input(self):
        raw = synth_target_dataset(1, per_class=1, size=(6, 6))
        out = preprocess(raw, (3, 12, 12))
        assert out.images.shape == (10, 1, 6, 6)
        assert out.input_shape == (3, 12, 12) == out.subset([0, 1]).input_shape
        full = embed(out.images.array, out.input_shape)
        assert np.array_equal(full[:, :, 3:9, 3:9], np.repeat(out.images.array, 3, axis=1))
        assert embed(full, (3, 12, 12)) is full

    @pytest.mark.parametrize("window", [(2, 6, 6), (1, 13, 6), (1, 6, 13)])
    def test_window_that_does_not_fit_rejected(self, window):
        with pytest.raises(ShapeError, match="does not fit"):
            window_origin(window, (3, 12, 12))

    # 200 images of one 28x28 float64 channel: 6,272 B each, whatever the input.
    @pytest.mark.parametrize("side", [64, 128])
    def test_memory_follows_the_image_not_the_input(self, side):
        raw = synth_target_dataset(3, per_class=20, size=(28, 28))
        window_bytes = len(raw) * 6272
        tracemalloc.start()
        try:
            out = preprocess(raw, (3, side, side))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.images.array.nbytes == window_bytes
        assert peak < 2 * window_bytes + (64 << 10)

    def test_inner_mismatch_rejected(self):
        for window, input_shape in [((1, 20, 20), (1, 16, 16)), ((2, 16, 16), (3, 16, 16))]:
            raw = LabeledDataset(Tensor(np.zeros((1, *window))), [0], 1)
            with pytest.raises(ShapeError):
                preprocess(raw, input_shape)

    def test_raw_range_checked(self):
        raw = LabeledDataset(Tensor(np.full((1, 1, 2, 2), -3.0)), [0], 1)
        with pytest.raises(ConfigurationError, match=r"\[0, 255\]"):
            preprocess(raw, (1, 2, 2))


class TestSynthTarget:
    def test_determinism(self):
        a = synth_target_dataset(11, per_class=5, size=(12, 12))
        b = synth_target_dataset(11, per_class=5, size=(12, 12))
        assert np.array_equal(a.images.array, b.images.array)
        assert np.array_equal(a.labels, b.labels)

    def test_seed_changes_data(self):
        a = synth_target_dataset(11, per_class=5, size=(12, 12))
        b = synth_target_dataset(12, per_class=5, size=(12, 12))
        assert not np.array_equal(a.images.array, b.images.array)

    def test_zero_noise_identical_up_to_translation(self):
        ds = synth_target_dataset(3, per_class=4, size=(14, 14), noise_amplitude=0.0,
                                  max_shift=1)
        cls0 = ds.images.array[ds.labels == 0, 0]
        base = cls0[0]
        for img in cls0[1:]:
            match = any(
                np.array_equal(np.roll(base, (dy, dx), axis=(0, 1)), img)
                for dy in (-2, -1, 0, 1, 2) for dx in (-2, -1, 0, 1, 2)
            )
            assert match

    def test_classes_distinct(self):
        ds = synth_target_dataset(5, per_class=2, size=(16, 16), noise_amplitude=0.0,
                                  max_shift=0)
        imgs = ds.images.array[::2, 0]
        for i in range(10):
            for j in range(i + 1, 10):
                assert not np.array_equal(imgs[i], imgs[j])

    def test_families_differ(self):
        a = synth_target_dataset(5, per_class=1, size=(16, 16), family="geom",
                                 noise_amplitude=0.0, max_shift=0)
        b = synth_target_dataset(5, per_class=1, size=(16, 16), family="strokes",
                                 noise_amplitude=0.0, max_shift=0)
        assert not np.array_equal(a.images.array, b.images.array)

    def test_pixel_range(self):
        ds = synth_target_dataset(5, per_class=3, size=(10, 10), noise_amplitude=80.0)
        assert ds.images.array.min() >= 0.0 and ds.images.array.max() <= 255.0

    @pytest.mark.parametrize("num_classes", [0, 10])
    def test_unknown_family_rejected_before_drawing(self, num_classes):
        with pytest.raises(ConfigurationError, match="unknown glyph family 'nope'"):
            synth_target_dataset(0, num_classes=num_classes, family="nope")


class TestMakeBatches:
    def test_exact_cover(self):
        ds = synth_target_dataset(1, per_class=2, size=(6, 6))  # n = 20
        batches = make_batches(ds, 10, seed=3, epoch=0)
        assert len(batches) == 2
        assert sorted(np.concatenate(batches).tolist()) == list(range(20))

    def test_remainder_dropped(self):
        ds = synth_target_dataset(1, per_class=2, size=(6, 6))
        batches = make_batches(ds, 3, seed=3, epoch=0)
        assert len(batches) == 6
        flat = np.concatenate(batches)
        assert len(flat) == 18 and len(np.unique(flat)) == 18

    def test_epochs_differ_but_reproduce(self):
        ds = synth_target_dataset(1, per_class=3, size=(6, 6))
        e0 = make_batches(ds, 5, seed=9, epoch=0)
        e1 = make_batches(ds, 5, seed=9, epoch=1)
        assert not all(np.array_equal(a, b) for a, b in zip(e0, e1))
        again = make_batches(ds, 5, seed=9, epoch=1)
        assert all(np.array_equal(a, b) for a, b in zip(e1, again))

    def test_batch_too_large(self):
        ds = synth_target_dataset(1, per_class=1, size=(6, 6))
        with pytest.raises(ConfigurationError, match="exceeds"):
            make_batches(ds, 11, seed=0, epoch=0)

    @given(st.integers(1, 40), st.integers(0, 2**31 - 1), st.integers(0, 100))
    @settings(max_examples=25, deadline=None)
    def test_property_no_duplicates(self, batch_size, seed, epoch):
        ds = synth_target_dataset(1, per_class=4, size=(6, 6))
        if batch_size > len(ds):
            return
        flat = np.concatenate(make_batches(ds, batch_size, seed, epoch))
        assert len(np.unique(flat)) == len(flat)


class TestSplitAndDump:
    def test_split_disjoint(self):
        ds = synth_target_dataset(2, per_class=6, size=(6, 6))
        a, b, c = split_dataset(ds, [20, 20, 10], seed=4)
        assert len(a) == 20 and len(b) == 20 and len(c) == 10

    def test_split_overdraw(self):
        ds = synth_target_dataset(2, per_class=2, size=(6, 6))
        with pytest.raises(ConfigurationError):
            split_dataset(ds, [15, 15], seed=4)
