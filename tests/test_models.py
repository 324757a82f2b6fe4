import json

import numpy as np
import pytest

from reprolab.datasets import LabeledDataset, embed, preprocess, synth_target_dataset
from reprolab.errors import ConfigurationError, FormatError, NumericError, ShapeError
from reprolab.models import (
    Dense,
    Network,
    TrainConfig,
    accuracy,
    build_cwnet,
    init_weights,
    load_model,
    predict_batch,
    save_model,
    train_sgd,
)
from reprolab.tensor import Tensor, no_grad, softmax_cross_entropy


class TestBuildCWNet:
    def test_paper_scale_layer_counts(self):
        net = build_cwnet((3, 224, 224), num_classes=10, width_scale=1.0)
        convs = [l for l in net.layers if type(l).__name__ == "Conv"]
        denses = [l for l in net.layers if isinstance(l, Dense)]
        assert [c.weight.shape[0] for c in convs] == [32, 32, 64, 64]
        assert all(c.weight.shape[2:] == (3, 3) for c in convs)
        assert [d.weight.shape[1] for d in denses] == [200, 200, 10]

    def test_quarter_scale(self):
        net = build_cwnet((3, 32, 32), width_scale=0.25)
        convs = [l for l in net.layers if type(l).__name__ == "Conv"]
        denses = [l for l in net.layers if isinstance(l, Dense)]
        assert [c.weight.shape[0] for c in convs] == [8, 8, 16, 16]
        assert [d.weight.shape[1] for d in denses] == [50, 50, 10]

    def test_forward_shapes_and_finiteness(self, rng):
        net = init_weights(build_cwnet((3, 16, 16), width_scale=0.25), 1)
        logits = net.forward(Tensor(rng.normal(0, 1, (4, 3, 16, 16)))).array
        assert logits.shape == (4, 10)
        assert np.isfinite(logits).all()

    def test_indivisible_extent_rejected(self):
        with pytest.raises(ShapeError, match="divisible by 4"):
            build_cwnet((3, 30, 30))

    def test_table_order_dropout_between_conv4_and_relu(self):
        net = build_cwnet((3, 16, 16), dropout_enabled=True)
        kinds = [layer.describe()["kind"] for layer in net.layers]
        i = kinds.index("dropout")
        assert kinds[i - 1] == "conv" and kinds[i + 1] == "relu"
        assert kinds.count("conv") == 4 and kinds.count("maxpool") == 2


class TestInitWeights:
    def test_same_seed_identical(self):
        a = init_weights(build_cwnet((3, 16, 16), width_scale=0.5), 9)
        b = init_weights(build_cwnet((3, 16, 16), width_scale=0.5), 9)
        for pa, pb in zip(a.params, b.params):
            assert np.array_equal(pa.array, pb.array)

    def test_different_seeds_differ_in_every_layer(self):
        a = init_weights(build_cwnet((3, 16, 16), width_scale=0.5), 0)
        b = init_weights(build_cwnet((3, 16, 16), width_scale=0.5), 1)
        for pa, pb in zip(a.params, b.params):
            if pa.array.size and pa.array.ndim > 1:  # weights, not zero biases
                assert not np.array_equal(pa.array, pb.array)

    def test_uniform_std_near_bound_over_sqrt3(self):
        net = init_weights(build_cwnet((3, 64, 64), width_scale=1.0), 3)
        dense = [l for l in net.layers if isinstance(l, Dense)][0]
        fan_in = dense.weight.shape[0]
        assert fan_in >= 100
        expected = (1.0 / fan_in) ** 0.5 / np.sqrt(3.0)
        got = dense.weight.array.std()
        assert abs(got - expected) / expected < 0.2

    def test_biases_zero(self):
        net = init_weights(build_cwnet((3, 16, 16)), 2)
        for layer in net.layers:
            if hasattr(layer, "bias"):
                assert np.array_equal(layer.bias.array, np.zeros_like(layer.bias.array))

    def test_bad_mode(self):
        with pytest.raises(ConfigurationError):
            init_weights(build_cwnet((3, 16, 16)), 0, mode="finetuned")


def _tiny_dataset(n=40, hw=16, seed=0):
    raw = synth_target_dataset(seed, per_class=n // 10, size=(hw // 2, hw // 2),
                               family="strokes")
    return preprocess(raw, (3, hw, hw))


class TestTrainSGD:
    def test_zero_learning_rate_is_identity(self):
        net = init_weights(build_cwnet((3, 16, 16), width_scale=0.25), 4)
        before = [p.array.copy() for p in net.params]
        ds = _tiny_dataset()
        train_sgd(net, ds, TrainConfig(epochs=1, learning_rate=0.0, batch_size=10, seed=1))
        for prev, p in zip(before, net.params):
            assert np.array_equal(prev, p.array)

    def test_single_dense_step_matches_hand_gradient(self, rng):
        # One SGD step on a bare linear-softmax layer: dW = x^T (softmax - onehot)/n.
        x = rng.normal(0, 1, (1, 6))
        label = np.array([2])
        w0 = rng.normal(0, 0.3, (6, 4))
        layer = Dense(6, 4)
        layer.weight.array[...] = w0
        layer.weight.requires_grad = True
        layer.bias.requires_grad = True
        loss = softmax_cross_entropy(layer.forward(Tensor(x)), label)
        loss.backward()
        logits = x @ w0
        probs = np.exp(logits - logits.max())
        probs /= probs.sum()
        probs[0, 2] -= 1.0
        hand_dw = x.T @ probs
        assert np.allclose(layer.weight.grad, hand_dw, atol=1e-12)
        assert np.allclose(layer.bias.grad, probs[0], atol=1e-12)

    def test_loss_decreases_and_determinism(self):
        ds = _tiny_dataset(n=60)
        cfg = TrainConfig(epochs=3, batch_size=10, learning_rate=0.01, seed=5)

        def run():
            net = init_weights(build_cwnet((3, 16, 16), width_scale=0.25), 4)
            net.set_input_standardization(ds)
            _, history = train_sgd(net, ds, cfg)
            return net, history

        net1, hist1 = run()
        net2, hist2 = run()
        assert hist1 == hist2
        for p1, p2 in zip(net1.params, net2.params):
            assert np.array_equal(p1.array, p2.array)

    def test_shape_mismatch(self):
        net = init_weights(build_cwnet((3, 32, 32), width_scale=0.25), 4)
        with pytest.raises(ShapeError):
            train_sgd(net, _tiny_dataset(hw=16), TrainConfig(epochs=1))

    def test_divergence_reports_position(self):
        net = init_weights(build_cwnet((3, 16, 16), width_scale=0.25), 4)
        net.params[0].array[...] = np.inf
        with pytest.raises(NumericError, match="epoch 0, batch 0"):
            train_sgd(net, _tiny_dataset(), TrainConfig(epochs=1))


class TestPredictAccuracy:
    def test_tie_goes_to_lowest_class(self):
        net = build_cwnet((3, 16, 16), width_scale=0.25)  # zero weights: all logits equal
        labels, logits = predict_batch(net, np.zeros((3, 3, 16, 16)))
        assert np.array_equal(labels, [0, 0, 0])
        assert np.allclose(logits, 0.0)

    def test_batch_consistency_with_per_sample(self, rng, small_net):
        images = rng.normal(0, 1, (7, 3, 16, 16))
        batch_labels, _ = predict_batch(small_net, images)
        single = [predict_batch(small_net, images[i : i + 1])[0][0] for i in range(7)]
        assert np.array_equal(batch_labels, single)

    def test_accuracy_via_mapping_identity(self, small_net):
        ds = _tiny_dataset(n=30)
        assert accuracy(small_net, ds) == accuracy(small_net, ds, mapping=np.arange(10))

    def test_accuracy_constant_predictor_single_class(self, small_net):
        ds = _tiny_dataset(n=40)
        only_zeros = LabeledDataset(ds.images, np.zeros(len(ds), dtype=np.int64), 10,
                                    input_shape=ds.input_shape)
        preds, _ = predict_batch(small_net, ds.images.array)
        expected = (preds == 0).mean()
        assert accuracy(small_net, only_zeros) == expected

    def test_accuracy_order_invariant(self, rng, small_net):
        ds = _tiny_dataset(n=40)
        perm = rng.permutation(len(ds))
        assert accuracy(small_net, ds) == accuracy(small_net, ds.subset(perm))

    def test_random_net_near_chance(self, rng):
        net = init_weights(build_cwnet((3, 16, 16), width_scale=0.25), 77,
                           mode="untrained-random")
        raw = synth_target_dataset(9, per_class=100, size=(8, 8))
        ds = preprocess(raw, (3, 16, 16))
        acc = accuracy(net, ds)
        assert 0.0 <= acc <= 0.45  # near 1/10 but constant-class collapse is common


class TestCheckpoint:
    def test_round_trip(self, tmp_path, small_net):
        ds = _tiny_dataset(n=20)
        small_net.set_input_standardization(ds)
        save_model(small_net, tmp_path / "ckpt")
        again = load_model(tmp_path / "ckpt")
        assert again.input_shape == small_net.input_shape
        for pa, pb in zip(again.params, small_net.params):
            assert np.array_equal(pa.array, pb.array)
        assert np.array_equal(again.standardize.mean, small_net.standardize.mean)
        x = embed(ds.images.array[:4], ds.input_shape)
        with no_grad():
            assert np.array_equal(again.forward(x).array, small_net.forward(x).array)

    def test_manifest_lists_architecture(self, tmp_path, small_net):
        save_model(small_net, tmp_path / "ckpt")
        manifest = json.loads((tmp_path / "ckpt" / "manifest.json").read_text())
        kinds = [layer["kind"] for layer in manifest["layers"]]
        assert kinds[0] == "standardize"
        assert kinds[-1] == "softmax_head"

    @pytest.mark.parametrize("kind", ["dropout", "standardize"])
    def test_manifest_without_layer_kind(self, tmp_path, small_net, kind):
        save_model(small_net, tmp_path / "ckpt")
        path = tmp_path / "ckpt" / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["layers"] = [l for l in manifest["layers"] if l["kind"] != kind]
        path.write_text(json.dumps(manifest))
        with pytest.raises(FormatError, match=f"no {kind} layer"):
            load_model(tmp_path / "ckpt")
