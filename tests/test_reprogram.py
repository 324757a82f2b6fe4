import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import reprolab.tensor as T
from reprolab.datasets import LabeledDataset, embed, preprocess, synth_target_dataset
from reprolab.errors import ConfigurationError, InjectivityError, NumericError, ShapeError
from reprolab.models import build_cwnet, init_weights
from reprolab.reprogram import (
    ClassMap,
    Mask,
    Program,
    ReprogramConfig,
    average_masked_gradient,
    box_project,
    build_class_map,
    build_frame_mask,
    load_program,
    merge_zero_program,
    optimize_program,
    reprogramming_loss,
    save_program,
    zero_program_loss,
)

from oracles import linear_network


def mean_logit_loss(logits, labels):
    """A loss exactly linear in the input through oracles.linear_network's one logit."""
    return T.tensor_mean(logits)


def _padded_target(n=40, hw=16, inner=8, seed=0):
    raw = synth_target_dataset(seed, per_class=max(1, n // 10), size=(inner, inner))
    ds = preprocess(raw, (3, hw, hw))
    return ds


class TestFrameMask:
    def test_imagenet_scale_size(self):
        mask = build_frame_mask((3, 224, 224), (28, 28))
        assert mask.size() == 3 * (224 ** 2 - 28 ** 2) == 148176
        per_channel = mask.array[0].sum()
        assert per_channel == 49392 > 49000

    def test_small_counting(self):
        assert build_frame_mask((1, 4, 4), (2, 2)).size() == 12

    def test_degenerate_full_inner(self):
        mask = build_frame_mask((3, 8, 8), (8, 8))
        assert mask.size() == 0
        assert (mask.array == 0).all()

    def test_inner_larger_rejected(self):
        with pytest.raises(ShapeError, match="larger"):
            build_frame_mask((3, 8, 8), (9, 9))

    def test_zero_region_is_centered_inner(self):
        mask = build_frame_mask((1, 6, 6), (2, 2))
        zeros = np.argwhere(mask.array[0] == 0)
        assert sorted(map(tuple, zeros)) == [(2, 2), (2, 3), (3, 2), (3, 3)]

    def test_outer_annulus(self):
        mask = build_frame_mask((2, 16, 16), (4, 4), outer_size=8)
        assert mask.size() == 2 * (8 * 8 - 4 * 4)
        assert mask.array[:, 0, 0].sum() == 0  # outside the annulus
        with pytest.raises(ShapeError):
            build_frame_mask((2, 16, 16), (4, 4), outer_size=2)
        with pytest.raises(ShapeError):
            build_frame_mask((2, 16, 16), (4, 4), outer_size=17)

    def test_mask_rejects_non_binary(self):
        with pytest.raises(ConfigurationError, match="0 or 1"):
            Mask(np.full((1, 2, 2), 0.5))


class TestClassMap:
    def test_first_ten_identity(self):
        cm = build_class_map(10, "first-ten")
        assert np.array_equal(cm.map, np.arange(10))

    def test_explicit_stored_verbatim(self):
        cm = build_class_map(3, [3, 1, 2])
        assert np.array_equal(cm.map, [3, 1, 2])

    def test_duplicate_rejected(self):
        with pytest.raises(InjectivityError, match=r"class map \[1, 1, 2\] reuses"):
            build_class_map(3, [1, 1, 2])

    def test_range_checked_against_source(self):
        with pytest.raises(ConfigurationError, match="outside"):
            build_class_map(3, [0, 1, 11], num_source_classes=10)

    @pytest.mark.parametrize("num_source_classes", [None, 10])
    def test_negative_class_rejected(self, num_source_classes):
        # Index -1 would pick the last source logit, which class 2 maps to as well.
        with pytest.raises(ConfigurationError, match=r"\[-1, 1, 9\] references classes outside"):
            build_class_map(3, [-1, 1, 9], num_source_classes=num_source_classes)

    def test_apply_and_inverse(self):
        cm = ClassMap(np.array([4, 0, 2]))
        assert np.array_equal(cm.apply([0, 1, 2, 0]), [4, 0, 2, 4])


class TestBoxProject:
    def test_clamps(self):
        out = box_project(np.array([1.5, -2.0, 0.3]))
        assert np.array_equal(out, [1.0, -1.0, 0.3])

    def test_in_range_unchanged(self, rng):
        v = rng.uniform(-1, 1, 32)
        assert np.array_equal(box_project(v), v)

    @given(arrays(np.float64, 12, elements=st.floats(-50, 50)))
    @settings(max_examples=50, deadline=None)
    def test_idempotent(self, v):
        once = box_project(v)
        assert np.array_equal(box_project(once), once)
        assert once.min() >= -1.0 and once.max() <= 1.0


class TestReprogrammingLoss:
    def test_uniform_logits_net(self, rng):
        net = build_cwnet((3, 16, 16), width_scale=0.25)  # zero weights: uniform softmax
        ds = _padded_target()
        mask = build_frame_mask((3, 16, 16), (8, 8))
        cm = build_class_map(10, "first-ten")
        for delta in (np.zeros((3, 16, 16)), rng.uniform(-1, 1, (3, 16, 16))):
            loss = reprogramming_loss(net, ds.images.array, ds.labels, delta, mask, cm)
            assert abs(loss - np.log(10.0)) < 1e-12

    def test_zero_delta_equals_plain_loss(self, small_net):
        ds = _padded_target()
        mask = build_frame_mask((3, 16, 16), (8, 8))
        cm = build_class_map(10, "first-ten")
        got = reprogramming_loss(small_net, ds.images.array, ds.labels, np.zeros((3, 16, 16)),
                                 mask, cm)
        with T.no_grad():
            x = embed(ds.images.array, ds.input_shape)
            plain = T.softmax_cross_entropy(small_net.forward(x), ds.labels).item()
        assert got == pytest.approx(plain, abs=1e-12)

    def test_matches_per_sample_loop_oracle(self, rng, small_net):
        ds = _padded_target(n=20)
        mask = build_frame_mask((3, 16, 16), (8, 8))
        cm = build_class_map(10, list(rng.permutation(10)))
        delta = box_project(rng.normal(0, 0.5, (3, 16, 16)))
        got = reprogramming_loss(small_net, ds.images.array, ds.labels, delta, mask, cm)
        per_sample = []
        with T.no_grad():
            for i in range(len(ds)):
                x = embed(ds.images.array[i : i + 1], ds.input_shape) + delta * mask.array
                per_sample.append(
                    T.softmax_cross_entropy(small_net.forward(x), cm.apply(ds.labels[i : i + 1])).item()
                )
        assert got == pytest.approx(np.mean(per_sample), abs=1e-12)


class TestAverageMaskedGradient:
    def test_all_zero_mask_gives_zero(self, small_net):
        ds = _padded_target(n=10)
        mask = build_frame_mask((3, 16, 16), (16, 16))
        cm = build_class_map(10, "first-ten")
        g = average_masked_gradient(small_net, ds.images.array, ds.labels,
                                    np.zeros((3, 16, 16)), mask, cm)
        assert np.array_equal(g, np.zeros((3, 16, 16)))

    def test_linear_model_gradient_is_masked_weights(self, rng):
        w = rng.normal(0, 1, (3, 16, 16))
        model = linear_network(w, w.shape)
        ds = _padded_target(n=10)
        mask = build_frame_mask((3, 16, 16), (8, 8))
        cm = build_class_map(10, "first-ten")
        g = average_masked_gradient(model, ds.images.array, ds.labels,
                                    np.zeros((3, 16, 16)), mask, cm, loss_fn=mean_logit_loss)
        assert np.allclose(g, w * mask.array, atol=1e-12)

    def test_matches_finite_differences_of_loss(self, rng, small_net):
        ds = _padded_target(n=6)
        mask = build_frame_mask((3, 16, 16), (8, 8))
        cm = build_class_map(10, "first-ten")
        delta0 = box_project(rng.normal(0, 0.2, (3, 16, 16)))
        g = average_masked_gradient(small_net, ds.images.array, ds.labels, delta0, mask, cm)

        h = 1e-5
        worst = 0.0
        coords = [tuple(c) for c in rng.integers(0, 16, size=(25, 2))]
        for (i, j) in coords:
            for ch in (0, 2):
                dplus, dminus = delta0.copy(), delta0.copy()
                dplus[ch, i, j] += h
                dminus[ch, i, j] -= h
                hi = reprogramming_loss(small_net, ds.images.array, ds.labels, dplus, mask, cm)
                lo = reprogramming_loss(small_net, ds.images.array, ds.labels, dminus, mask, cm)
                central = (hi - lo) / (2 * h)
                worst = max(worst, abs(g[ch, i, j] - central) / max(1.0, abs(central)))
        assert worst < 1e-4

    def test_empty_batch_rejected(self, small_net):
        mask = build_frame_mask((3, 16, 16), (8, 8))
        cm = build_class_map(10, "first-ten")
        with pytest.raises(ConfigurationError, match="nonempty"):
            average_masked_gradient(small_net, np.zeros((0, 3, 16, 16)), np.zeros(0),
                                    np.zeros((3, 16, 16)), mask, cm)


def _linear_setup(rng, hw=8, inner=4, n=12):
    w = rng.normal(0, 0.8, (1, hw, hw))
    model = linear_network(w, w.shape)
    raw = synth_target_dataset(3, per_class=max(1, n // 10), size=(inner, inner))
    ds = preprocess(raw, (1, hw, hw))
    mask = build_frame_mask((1, hw, hw), (inner, inner))
    cm = build_class_map(10, "first-ten")
    return w, model, ds, mask, cm


def _full_program(net, opt_set, eval_set, mask, cm, cfg, loss_fn=None):
    """The run's program: the zero program merged with the best epoch."""
    return merge_zero_program(zero_program_loss(net, eval_set, cm, loss_fn),
                              optimize_program(net, opt_set, eval_set, mask, cm, cfg, loss_fn))


class TestOptimizeProgram:
    def test_zero_epochs_returns_zero_delta_and_initial_loss(self, small_net):
        ds = _padded_target(n=20)
        mask = build_frame_mask((3, 16, 16), (8, 8))
        cm = build_class_map(10, "first-ten")
        cfg = ReprogramConfig(eta=0.005, epochs=0, batch_size=10, seed=3)
        prog = _full_program(small_net, ds, ds, mask, cm, cfg)
        assert np.array_equal(prog.delta, np.zeros((3, 16, 16)))
        initial = reprogramming_loss(small_net, ds.images.array, ds.labels,
                                     np.zeros((3, 16, 16)), mask, cm)
        assert prog.best_loss == pytest.approx(initial, abs=1e-12)
        assert prog.history == [prog.best_loss]

    def test_first_step_is_clamped_sign_step(self, small_net):
        ds = _padded_target(n=20, seed=4)
        mask = build_frame_mask((3, 16, 16), (8, 8))
        cm = build_class_map(10, "first-ten")
        cfg = ReprogramConfig(eta=0.005, epochs=1, batch_size=10, seed=11)
        seen = []
        optimize_program(small_net, ds, ds, mask, cm, cfg,
                         step_callback=lambda e, b, d: seen.append((e, b, d)))
        from reprolab.datasets import make_batches

        batch0 = make_batches(ds, 10, cfg.seed, 0)[0]
        g0 = average_masked_gradient(small_net, ds.images.array[batch0], ds.labels[batch0],
                                     np.zeros((3, 16, 16)), mask, cm)
        expected = box_project(-cfg.eta * np.sign(g0))
        assert np.array_equal(seen[0][2], expected)

    def test_box_and_mask_respected_every_iteration(self, small_net):
        ds = _padded_target(n=20, seed=5)
        mask = build_frame_mask((3, 16, 16), (8, 8))
        cm = build_class_map(10, "first-ten")
        cfg = ReprogramConfig(eta=0.4, epochs=3, batch_size=10, seed=2)

        def check(epoch, batch, delta):
            assert delta.min() >= -1.0 and delta.max() <= 1.0
            assert (delta[mask.array == 0] == 0).all()

        prog = optimize_program(small_net, ds, ds, mask, cm, cfg, step_callback=check)
        assert (prog.delta[mask.array == 0] == 0).all()

    def test_best_loss_is_min_of_history(self, small_net):
        ds = _padded_target(n=30, seed=6)
        mask = build_frame_mask((3, 16, 16), (8, 8))
        cm = build_class_map(10, "first-ten")
        cfg = ReprogramConfig(eta=0.05, epochs=5, batch_size=10, seed=8)
        prog = _full_program(small_net, ds, ds, mask, cm, cfg)
        assert prog.best_loss == min(prog.history)
        assert len(prog.history) == cfg.epochs + 1

    def test_determinism(self, small_net):
        ds = _padded_target(n=20, seed=7)
        mask = build_frame_mask((3, 16, 16), (8, 8))
        cm = build_class_map(10, "first-ten")
        cfg = ReprogramConfig(eta=0.01, epochs=2, batch_size=10, seed=13)
        p1 = optimize_program(small_net, ds, ds, mask, cm, cfg)
        p2 = optimize_program(small_net, ds, ds, mask, cm, cfg)
        assert np.array_equal(p1.delta, p2.delta)
        assert p1.history == p2.history

    def test_linear_model_saturates_to_negative_sign(self, rng):
        w, model, ds, mask, cm = _linear_setup(rng)
        eta = 1.0 / 128.0
        cfg = ReprogramConfig(eta=eta, epochs=130, batch_size=len(ds),
                              opt_set_size=len(ds), eval_set_size=len(ds), seed=1)
        prog = _full_program(model, ds, ds, mask, cm, cfg, loss_fn=mean_logit_loss)
        expected = -np.sign(w * mask.array) * mask.array
        assert np.array_equal(prog.delta * mask.array, expected)
        # achieved decrement equals -||g||_1 exactly (linear loss)
        g = w * mask.array
        drop = prog.best_loss - prog.history[0]
        assert abs(drop - (-np.abs(g).sum())) < 1e-9

    def test_eval_set_selects_best(self, small_net):
        # sanity: held-out evaluation is the default and uses the second dataset
        opt = _padded_target(n=20, seed=8)
        evl = _padded_target(n=20, seed=9)
        mask = build_frame_mask((3, 16, 16), (8, 8))
        cm = build_class_map(10, "first-ten")
        cfg = ReprogramConfig(eta=0.02, epochs=2, batch_size=10, seed=3)
        prog = _full_program(small_net, opt, evl, mask, cm, cfg)
        assert prog.history[0] == pytest.approx(
            reprogramming_loss(small_net, evl.images.array, evl.labels,
                               np.zeros((3, 16, 16)), mask, cm), abs=1e-12)


class TestMergeZeroProgram:
    """optimize_program keeps the best epoch only, with history[0] = inf;
    merge_zero_program(L, it) must pick what an epoch-by-epoch selection that
    starts from the zero program at loss L picks: the first minimum of
    [L, epoch losses], so ties go to the zero program."""

    @pytest.fixture
    def optimize(self, small_net):
        opt_set, eval_set = _padded_target(n=20, seed=8), _padded_target(n=30, seed=9)
        mask = build_frame_mask((3, 16, 16), (8, 8), 12)
        cm = build_class_map(10, "first-ten")

        def optimize(epochs, step_callback=None):
            cfg = ReprogramConfig(eta=0.05, epochs=epochs, batch_size=10, seed=4)
            return optimize_program(small_net, opt_set, eval_set, mask, cm, cfg,
                                    step_callback=step_callback)

        return optimize

    @pytest.mark.parametrize("case", ["epochs_win", "zero_wins", "tie", "no_epochs"])
    def test_merge_equals_direct_optimization(self, optimize, case):
        epochs = 0 if case == "no_epochs" else 3
        epoch_ends = {}
        best_epoch = optimize(epochs, lambda e, b, d: epoch_ends.__setitem__(e, d))
        best = best_epoch.best_loss
        assert best_epoch.history[0] == np.inf and (best == np.inf) == (epochs == 0)
        initial = {"epochs_win": best + 0.5, "zero_wins": best - 0.5, "tie": best,
                   "no_epochs": 2.0}[case]
        merged = merge_zero_program(initial, best_epoch)
        history = [initial, *best_epoch.history[1:]]
        first = history.index(min(history))
        direct = np.zeros((3, 16, 16)) if first == 0 else epoch_ends[first - 1]
        assert merged.history == history and len(history) == epochs + 1
        assert merged.best_loss == history[first]
        assert merged.delta.tobytes() == direct.tobytes()
        assert (first == 0) == (case != "epochs_win")

    def test_best_epoch_is_first_minimum(self, optimize):
        epoch_ends = {}
        prog = optimize(4, lambda e, b, d: epoch_ends.__setitem__(e, d))
        losses = prog.history[1:]
        first = losses.index(min(losses))
        assert prog.history[0] == np.inf and len(losses) == 4
        assert prog.best_loss == losses[first]
        assert np.array_equal(prog.delta, epoch_ends[first])

    def test_non_finite_zero_loss_rejected(self, optimize):
        with pytest.raises(NumericError):
            merge_zero_program(float("nan"), optimize(1))


class TestProgramCheckpoint:
    def test_round_trip(self, tmp_path, rng):
        prog = Program(delta=rng.uniform(-1, 1, (3, 8, 8)), best_loss=1.25,
                       history=[2.0, 1.5, 1.25])
        mask = build_frame_mask((3, 8, 8), (4, 4))
        cm = build_class_map(10, "first-ten")
        cfg = ReprogramConfig(epochs=2)
        save_program(prog, tmp_path / "prog", mask=mask, class_map=cm, cfg=cfg)
        again, sidecar = load_program(tmp_path / "prog")
        assert np.array_equal(again.delta, prog.delta)
        assert again.best_loss == prog.best_loss
        assert again.history == prog.history
        assert sidecar["mask"]["inner_size"] == [4, 4]
        assert sidecar["class_map"] == list(range(10))
