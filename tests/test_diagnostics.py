import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from reprolab import diagnostics
from reprolab.datasets import LabeledDataset, embed, preprocess, synth_target_dataset
from reprolab.diagnostics import (
    CSV_HEADER,
    MetricsRecord,
    _input_gradients,
    alignment_stats,
    append_metrics,
    confusion_matrix,
    diagonal_accuracy,
    domain_alignment,
    gradient_alignment,
    predicted_loss_drop,
    read_metrics_csv,
    reprogramming_accuracy,
)
from reprolab.errors import ConfigurationError
from reprolab.models import build_cwnet, init_weights
from reprolab.reprogram import build_class_map, build_frame_mask
from reprolab.tensor import Tensor

from oracles import grid_min_inner_product, linear_network


def _setup(n=40, hw=16, inner=8, seed=0):
    raw = synth_target_dataset(seed, per_class=max(1, n // 10), size=(inner, inner))
    ds = preprocess(raw, (3, hw, hw))
    mask = build_frame_mask((3, hw, hw), (inner, inner))
    cm = build_class_map(10, "first-ten")
    return ds, mask, cm


class TestDomainAlignment:
    def test_constant_predictor_on_balanced_classes(self):
        net = build_cwnet((3, 16, 16), width_scale=0.25)  # zero weights: always class 0
        ds, mask, cm = _setup(n=40)
        assert domain_alignment(net, ds, cm) == pytest.approx(0.1)

    def test_perfect_mapped_predictor(self):
        # Two-class linear model reading the inner-region sum through weights.
        hw, inner = 8, 4
        images = np.zeros((10, 1, hw, hw))
        labels = np.arange(10) % 2
        images[labels == 0, :, 2:6, 2:6] = 0.5
        images[labels == 1, :, 2:6, 2:6] = -0.5
        ds = LabeledDataset(Tensor(images), labels, 2)
        w = np.zeros((hw * hw, 2))
        inner_sel = np.zeros((hw, hw))
        inner_sel[2:6, 2:6] = 1.0
        w[:, 0] = inner_sel.ravel()
        w[:, 1] = -inner_sel.ravel()
        net = linear_network(w, (1, hw, hw))
        cm = build_class_map(2, [0, 1])
        assert domain_alignment(net, ds, cm) == 1.0

    def test_equals_reprogramming_accuracy_at_zero(self, small_net):
        ds, mask, cm = _setup(n=30)
        da = domain_alignment(small_net, ds, cm)
        ra0 = reprogramming_accuracy(small_net, ds, np.zeros((3, 16, 16)), cm)
        assert da == ra0


class TestReprogrammingAccuracy:
    def test_all_zero_mask_equals_da(self, rng, small_net):
        ds, _, cm = _setup(n=30, seed=3)
        degenerate = build_frame_mask((3, 16, 16), (16, 16))
        delta = rng.uniform(-1, 1, (3, 16, 16))
        assert reprogramming_accuracy(small_net, ds, delta * degenerate.array, cm) == \
            domain_alignment(small_net, ds, cm)

    def test_hand_constructed_flip_reaches_one(self):
        # Classes sit at inner sums +3a and +a; both start as class 0. A frame
        # program contributing -2a separates them across the decision boundary.
        hw, inner = 8, 4
        n = 12
        images = np.zeros((n, 1, hw, hw))
        labels = np.arange(n) % 2
        a = 1.0 / 16.0
        images[labels == 0, :, 2:6, 2:6] = 3 * a
        images[labels == 1, :, 2:6, 2:6] = a
        ds = LabeledDataset(Tensor(images), labels, 2)
        sel = np.ones((1, hw, hw)).ravel()
        w = np.stack([sel, -sel], axis=1)
        net = linear_network(w, (1, hw, hw))
        from reprolab.reprogram import Mask

        mask_arr = np.ones((1, hw, hw))
        mask_arr[:, 2:6, 2:6] = 0.0
        mask = Mask(mask_arr)
        cm = build_class_map(2, [0, 1])
        da = domain_alignment(net, ds, cm)
        assert da == 0.5  # everything predicted class 0 at delta = 0
        total_inner0 = 16 * 3 * a  # sum for class-0 images
        total_inner1 = 16 * a
        target_shift = -(total_inner0 + total_inner1) / 2.0
        delta = np.full((1, hw, hw), target_shift / mask.size())
        ra = reprogramming_accuracy(net, ds, delta * mask.array, cm)
        assert ra == 1.0


class TestGradientAlignment:
    def test_paper_orthogonal_example_exact_one(self):
        assert gradient_alignment([np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0])]) == 1.0

    def test_perfect_cancellation_zero(self):
        assert gradient_alignment([np.array([1.0, 0.0]), np.array([-1.0, 0.0])]) == 0.0

    def test_identical_gradients_one(self):
        assert gradient_alignment([np.array([1.0, 2.0]), np.array([1.0, 2.0])]) == 1.0

    def test_nonnegative_gradients_exactly_one(self, rng):
        grads = [rng.uniform(0, 5, 12) for _ in range(7)]
        assert gradient_alignment(grads) == pytest.approx(1.0, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            gradient_alignment([])

    @given(st.lists(arrays(np.float64, 6, elements=st.floats(-100, 100)), min_size=1,
                    max_size=8))
    @settings(max_examples=200, deadline=None)
    # Subnormal sums divided by the count round the numerator up: r read 1.5.
    @example([np.zeros(6), np.full(6, 5e-324), np.full(6, 5e-324)])
    def test_r_in_unit_interval(self, grads):
        r = gradient_alignment(grads)
        assert 0.0 <= r <= 1.0

    def test_per_sample_gradients_match_individual_backward(self, rng, small_net):
        ds, mask, cm = _setup(n=6, seed=2)
        delta = rng.uniform(-0.5, 0.5, (3, 16, 16))
        offset = delta * mask.array
        images = embed(ds.images.array, ds.input_shape)
        batch = _input_gradients(small_net, images, ds.labels, offset, cm)
        for i in range(len(ds)):
            single = _input_gradients(
                small_net, images[i : i + 1], ds.labels[i : i + 1], offset, cm
            )
            assert np.allclose(batch[i], single[0], atol=1e-11)


class TestZeroProgramAlignment:
    def test_each_mask_equals_alignment_stats(self, trained_toy):
        net, ds = trained_toy["net"], trained_toy["test"]
        cm = build_class_map(10, "first-ten")
        masks = [build_frame_mask((3, 32, 32), (16, 16), outer) for outer in (None, 18, 22, 26)]
        zero = np.zeros((3, 32, 32))
        # 300 samples in chunks of 21 leave a partial last chunk
        shared = alignment_stats(net, ds, zero, masks, cm)
        assert shared == [alignment_stats(net, ds, zero, [m], cm)[0] for m in masks]
        assert len(set(shared)) == len(masks)


class TestAlignmentChunks:
    def test_chunk_size_does_not_change_r_or_g(self, rng, small_net, monkeypatch):
        ds, mask, cm = _setup(n=100, seed=3)
        elements = int(np.prod(ds.input_shape))
        assert len(ds) % (diagnostics._CHUNK_ELEMENTS // elements) != 0  # partial last chunk
        masks = [build_frame_mask((3, 16, 16), (8, 8), outer) for outer in (None, 10, 12)]
        offset = rng.uniform(-0.5, 0.5, (3, 16, 16)) * mask.array

        def stats():
            return [*alignment_stats(small_net, ds, offset, [mask], cm),
                    *alignment_stats(small_net, ds, np.zeros((3, 16, 16)), masks, cm)]

        default = stats()
        for chunk_elements in (1, len(ds) * elements):
            monkeypatch.setattr(diagnostics, "_CHUNK_ELEMENTS", chunk_elements)
            for (r, g), (r_ref, g_ref) in zip(stats(), default):
                assert r == pytest.approx(r_ref, rel=1e-12, abs=0.0)
                assert g == pytest.approx(g_ref, rel=1e-12, abs=0.0)
        assert all(g > 0.0 for _, g in default)

    def test_peak_memory_does_not_grow_with_the_set(self):
        shape, inner = (3, 64, 64), (28, 28)
        net = init_weights(build_cwnet(shape, width_scale=0.25), 4, "trained-init")
        ds = preprocess(synth_target_dataset(4, per_class=5, size=inner), shape)
        mask = build_frame_mask(shape, inner)
        cm = build_class_map(10, "first-ten")
        offset = np.random.default_rng(4).uniform(-0.5, 0.5, shape) * mask.array

        def peak(subset):
            tracemalloc.start()
            try:
                alignment_stats(net, subset, offset, [mask], cm)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert len(ds) == 50
        assert peak(ds) <= 1.25 * peak(ds.subset(np.arange(10)))


class TestPredictedLossDrop:
    def test_linf_case_is_negative_l1(self):
        assert predicted_loss_drop(np.array([0.5, -0.5]), np.inf, 1.0) == -1.0

    def test_l2_case(self):
        assert predicted_loss_drop(np.array([3.0, 4.0]), 2, 0.1) == pytest.approx(-0.5)

    def test_l1_case_is_negative_max(self):
        assert predicted_loss_drop(np.array([3.0, -4.0]), 1, 2.0) == pytest.approx(-8.0)

    @pytest.mark.parametrize("p", [1, 2, np.inf])
    def test_matches_grid_search(self, rng, p):
        g = rng.normal(0, 1, 3)
        eps = 0.7
        predicted = predicted_loss_drop(g, p, eps)
        brute = grid_min_inner_product(g, p, eps, points=41)
        assert abs(predicted - brute) <= 0.02 * abs(predicted)

    def test_unsupported_p(self):
        with pytest.raises(ConfigurationError, match="unsupported"):
            predicted_loss_drop(np.ones(3), 3, 1.0)

    @given(st.floats(0.01, 10), st.floats(-4, 4))
    @settings(max_examples=50, deadline=None)
    def test_homogeneity(self, eps, scale):
        g = np.array([1.0, -2.0, 0.5])
        base = predicted_loss_drop(g, 2, 1.0)
        assert predicted_loss_drop(g, 2, eps) == pytest.approx(eps * base, rel=1e-12)
        assert predicted_loss_drop(scale * g, 2, 1.0) == pytest.approx(
            abs(scale) * base, rel=1e-9, abs=1e-12)


class TestConfusionMatrix:
    def test_perfect_predictor_diagonal(self):
        hw = 8
        images = np.zeros((20, 1, hw, hw))
        labels = np.arange(20) % 2
        images[labels == 0, :, 2:6, 2:6] = 0.5
        images[labels == 1, :, 2:6, 2:6] = -0.5
        ds = LabeledDataset(Tensor(images), labels, 2)
        sel = np.zeros((hw, hw))
        sel[2:6, 2:6] = 1.0
        net = linear_network(np.stack([sel.ravel(), -sel.ravel()], axis=1), (1, hw, hw))
        counts = confusion_matrix(net, ds, None, build_class_map(2, [0, 1]))
        assert counts.shape == (2, 3)
        assert counts[0, 0] == 10 and counts[1, 1] == 10
        assert counts.sum() == 20 and counts[:, 2].sum() == 0

    def test_constant_predictor_single_column(self, small_net):
        ds, _, cm = _setup(n=30, seed=8)
        zero_net = build_cwnet((3, 16, 16), width_scale=0.25)
        counts = confusion_matrix(zero_net, ds, None, cm)
        nonzero_columns = (counts.sum(axis=0) > 0).sum()
        assert nonzero_columns == 1
        assert counts[:, 0].sum() == len(ds)

    def test_row_sums_are_class_counts(self, small_net):
        ds, _, cm = _setup(n=40, seed=9)
        counts = confusion_matrix(small_net, ds, None, cm)
        class_counts = np.bincount(ds.labels, minlength=10)
        assert np.array_equal(counts.sum(axis=1), class_counts)

    def test_other_column_collects_unmapped(self, small_net):
        ds, _, _ = _setup(n=30, seed=10)
        ds = LabeledDataset(ds.images, ds.labels % 3, 3, input_shape=ds.input_shape)
        cm = build_class_map(3, [0, 1, 2])  # predictions 3..9 fall into "other"
        counts = confusion_matrix(small_net, ds, None, cm)
        assert counts.shape == (3, 4)
        assert counts.sum() == len(ds)


class TestDiagonalAccuracy:
    def test_equals_domain_alignment_and_reprogramming_accuracy(self, rng, trained_toy):
        net, ds = trained_toy["net"], trained_toy["test"]  # 300 samples: two chunks
        mask = build_frame_mask((3, 32, 32), (16, 16))
        cm = build_class_map(10, [3, 1, 4, 0, 5, 9, 2, 6, 8, 7])
        offset = rng.uniform(-1, 1, (3, 32, 32)) * mask.array
        before = confusion_matrix(net, ds, None, cm)
        after = confusion_matrix(net, ds, offset, cm)
        assert diagonal_accuracy(before) == domain_alignment(net, ds, cm)
        assert diagonal_accuracy(after) == reprogramming_accuracy(net, ds, offset, cm)
        assert diagonal_accuracy(before) != diagonal_accuracy(after)


class TestMetricsRecord:
    def _record(self):
        return MetricsRecord(source="s", target="t", model="m", trained=True,
                             mask_size=99, da=0.1, ra=0.8, r0=0.2, rn=0.5,
                             g_l1=12.5, seed=3, config_hash="abc123")

    def test_csv_round_trip(self, tmp_path):
        rec = self._record()
        append_metrics(rec, tmp_path / "m.csv", tmp_path / "m.jsonl")
        append_metrics(rec, tmp_path / "m.csv")
        rows = read_metrics_csv(tmp_path / "m.csv")
        assert len(rows) == 2
        assert rows[0] == rec
        header = (tmp_path / "m.csv").read_text().splitlines()[0]
        assert header == ",".join(CSV_HEADER)

    def test_bounds_validated(self):
        with pytest.raises(ConfigurationError):
            MetricsRecord(source="s", target="t", model="m", trained=False, mask_size=1,
                          da=0.5, ra=1.2, r0=0.1, rn=0.1, g_l1=1.0, seed=0, config_hash="x")
