import numpy as np
import pytest

from reprolab.datasets import preprocess, synth_target_dataset
from reprolab.models import TrainConfig, build_cwnet, init_weights, train_sgd


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def small_net():
    """Untrained CWNet-small at 16x16 input (fast enough for gradient checks)."""
    net = build_cwnet((3, 16, 16), num_classes=10, width_scale=0.25)
    return init_weights(net, 5, "trained-init")


@pytest.fixture(scope="session")
def trained_toy():
    """CWNet-small trained on tiny synthetic data at 32x32; shared by slow tests."""
    raw_train = synth_target_dataset(7, per_class=300, size=(16, 16), family="strokes",
                                     noise_amplitude=40.0, max_shift=3)
    raw_test = synth_target_dataset(8, per_class=30, size=(16, 16), family="strokes",
                                    noise_amplitude=40.0, max_shift=3)
    train_ds, test_ds = preprocess(raw_train, (3, 32, 32)), preprocess(raw_test, (3, 32, 32))
    net = build_cwnet((3, 32, 32), width_scale=0.25, dropout_enabled=True, dropout_rate=0.5)
    init_weights(net, 7, "trained-init")
    net.set_input_standardization(train_ds)
    net, history = train_sgd(net, train_ds, TrainConfig(epochs=10, batch_size=10, seed=7))
    return {"net": net, "train": train_ds, "test": test_ds, "history": history}
