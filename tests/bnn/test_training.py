"""Tests for the STE trainer."""

import hashlib

import numpy as np
import pytest

from repro.bnn import BNNTrainer, synthetic_mnist, train_bnn
from repro.bnn.training import _Adam, _sign_into
from repro.errors import ConfigurationError


def toy_problem(n=400, seed=0):
    """Linearly separable 2-class problem in sign domain."""
    rng = np.random.default_rng(seed)
    x = np.where(rng.standard_normal((n, 16)) > 0, 1, -1)
    labels = (x[:, :8].sum(axis=1) > x[:, 8:].sum(axis=1)).astype(np.int64)
    return x, labels


class TestTrainerBasics:
    def test_needs_two_sizes(self):
        with pytest.raises(ConfigurationError):
            BNNTrainer([10])

    def test_input_shape_checked(self):
        trainer = BNNTrainer([8, 2])
        with pytest.raises(ConfigurationError):
            trainer.train(np.ones((4, 9)), np.zeros(4, dtype=int), epochs=1)

    def test_labels_range_checked(self):
        trainer = BNNTrainer([8, 2])
        with pytest.raises(ConfigurationError):
            trainer.train(np.ones((4, 8)), np.array([0, 1, 2, 0]), epochs=1)

    def test_label_count_checked(self):
        trainer = BNNTrainer([8, 2])
        with pytest.raises(ConfigurationError):
            trainer.train(np.ones((4, 8)), np.zeros(3, dtype=int), epochs=1)

    @pytest.mark.parametrize("batch_size", [0, -4])
    def test_batch_size_must_be_positive(self, batch_size):
        x, y = toy_problem(n=16)
        trainer = BNNTrainer([16, 2])
        with pytest.raises(ConfigurationError):
            trainer.train(x, y, epochs=1, batch_size=batch_size)

    def test_epochs_must_be_non_negative(self):
        x, y = toy_problem(n=16)
        trainer = BNNTrainer([16, 2])
        with pytest.raises(ConfigurationError):
            trainer.train(x, y, epochs=-1)

    def test_zero_epochs_is_an_empty_history(self):
        x, y = toy_problem(n=16)
        trainer = BNNTrainer([16, 2])
        before = [shadow.copy() for shadow in trainer.shadow]
        history = trainer.train(x, y, epochs=0)
        assert history.loss == [] and history.train_accuracy == []
        for shadow, original in zip(trainer.shadow, before):
            np.testing.assert_array_equal(shadow, original)

    def test_empty_inputs_rejected(self):
        trainer = BNNTrainer([8, 2])
        with pytest.raises(ConfigurationError):
            trainer.train(np.ones((0, 8)), np.zeros(0, dtype=int), epochs=1)

    def test_shadow_weights_stay_clipped(self):
        x, y = toy_problem()
        trainer = BNNTrainer([16, 8, 2], learning_rate=0.1)
        trainer.train(x, y, epochs=3)
        for shadow in trainer.shadow:
            assert np.all(np.abs(shadow) <= 1.0)

    def test_history_lengths(self):
        x, y = toy_problem()
        trainer = BNNTrainer([16, 2])
        history = trainer.train(x, y, epochs=5)
        assert len(history.loss) == 5
        assert len(history.train_accuracy) == 5

    def test_deterministic_given_seeds(self):
        x, y = toy_problem()
        m1 = train_bnn(x, y, [16, 8, 2], epochs=3, seed=42)
        m2 = train_bnn(x, y, [16, 8, 2], epochs=3, seed=42)
        for l1, l2 in zip(m1.layers, m2.layers):
            np.testing.assert_array_equal(l1.weights, l2.weights)
            np.testing.assert_array_equal(l1.bias, l2.bias)


class TestLearning:
    def test_learns_separable_problem(self):
        x, y = toy_problem()
        model = train_bnn(x, y, [16, 32, 2], epochs=30, seed=0)
        assert model.accuracy(x, y) > 0.9

    def test_loss_decreases(self):
        x, y = toy_problem()
        trainer = BNNTrainer([16, 16, 2], learning_rate=0.01)
        history = trainer.train(x, y, epochs=10)
        assert history.loss[-1] < history.loss[0]

    def test_exported_model_is_pure_integer(self):
        x, y = toy_problem()
        model = train_bnn(x, y, [16, 8, 2], epochs=2)
        for layer in model.layers:
            assert layer.weights.dtype == np.int8
            assert set(np.unique(layer.weights)) <= {-1, 1}
            assert layer.bias.dtype == np.int32

    def test_deep_network_trains_on_synthetic_mnist(self):
        # small/fast smoke version of the paper's 4x100 topology
        ds = synthetic_mnist(n_samples=1200, seed=0)
        train, test = ds.split(0.8)
        model = train_bnn(train.binarized(), train.labels,
                          [256, 64, 64, 64, 10], epochs=10, seed=0)
        accuracy = model.accuracy(test.binarized(), test.labels)
        assert accuracy > 0.6  # far above the 10 % random floor


def _sha256(arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def _bits(array: np.ndarray) -> np.ndarray:
    """float64 bit patterns, so -0.0 != 0.0 and NaNs compare by payload."""
    return np.ascontiguousarray(array, dtype=np.float64).view(np.int64)


class TestGoldenPins:
    """Exact outputs of the trainer on a small Fig 18-style config.

    Pinned from the out-of-place trainer (fresh ``np.where`` signs and
    textbook Adam); the buffer-reusing trainer must reproduce every bit.
    """

    @pytest.fixture(scope="class")
    def trained(self):
        ds = synthetic_mnist(n_samples=1200, seed=0)
        train, _ = ds.split(0.8)
        trainer = BNNTrainer([256, 64, 64, 64, 10], learning_rate=0.01,
                             seed=0)
        history = trainer.train(train.binarized(), train.labels, epochs=3,
                                batch_size=64)
        return trainer, history

    def test_exported_model(self, trained):
        trainer, _ = trained
        model = trainer.export_model()
        arrays = [a for layer in model.layers for a in (layer.weights,
                                                        layer.bias)]
        assert _sha256(arrays) == (
            "d3f8a43f2e30ea4304829073dd3c90b4"
            "eb603554eeb74f28e2f705086869fb95")

    def test_shadow_weights_and_biases(self, trained):
        trainer, _ = trained
        assert _sha256(trainer.shadow + trainer.bias) == (
            "2c7b45c854c4036241aa76464f793a27"
            "26b7f399b536b12fe75d080aadd75677")

    def test_history(self, trained):
        _, history = trained
        assert [v.hex() for v in history.loss] == [
            "0x1.40d69ccfdde0bp+1", "0x1.06a2b9657eaf8p+1",
            "0x1.d1fd6c0790ac0p+0"]
        assert [v.hex() for v in history.train_accuracy] == [
            "0x1.2000000000000p-3", "0x1.f777777777777p-3",
            "0x1.6888888888889p-2"]


def _textbook_adam_step(params, grads, m, v, t, lr,
                        beta1=0.9, beta2=0.999, eps=1e-8):
    """Out-of-place Adam, one fresh array per term (the oracle)."""
    correction1 = 1 - beta1 ** t
    correction2 = 1 - beta2 ** t
    for index, (param, grad) in enumerate(zip(params, grads)):
        m[index] = beta1 * m[index] + (1 - beta1) * grad
        v[index] = beta2 * v[index] + (1 - beta2) * grad ** 2
        m_hat = m[index] / correction1
        v_hat = v[index] / correction2
        param -= lr * m_hat / (np.sqrt(v_hat) + eps)


class TestAdamInPlace:
    def test_matches_textbook_update_bit_for_bit(self):
        rng = np.random.default_rng(3)
        shapes = [(7, 5), (7,), (3, 7)]
        params = [rng.uniform(-1, 1, size=shape) for shape in shapes]
        oracle_params = [p.copy() for p in params]
        oracle_m = [np.zeros_like(p) for p in params]
        oracle_v = [np.zeros_like(p) for p in params]
        optimizer = _Adam(params, lr=0.01)
        for step in range(1, 7):
            grads = [rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 2)
                     for shape in shapes]
            grads[0][0, :2] = [0.0, -0.0]  # signed zero gradients
            optimizer.step(params, grads)
            _textbook_adam_step(oracle_params, grads, oracle_m, oracle_v,
                                step, lr=0.01)
            for got, want in zip(params, oracle_params):
                np.testing.assert_array_equal(_bits(got), _bits(want))
            for got, want in zip(optimizer.m + optimizer.v,
                                 oracle_m + oracle_v):
                np.testing.assert_array_equal(_bits(got), _bits(want))


class TestSignBuffer:
    def test_matches_where_including_signed_zero_and_nan(self):
        values = np.array([[0.0, -0.0, 1e-300, -1e-300],
                           [np.nan, np.inf, -np.inf, -0.5]])
        mask = np.empty(values.shape, dtype=bool)
        out = np.full(values.shape, 7.0)
        result = _sign_into(values, mask, out)
        assert result is out
        np.testing.assert_array_equal(
            _bits(out), _bits(np.where(values >= 0, 1.0, -1.0)))
        assert out[0, 0] == 1.0 and out[0, 1] == 1.0  # -0.0 >= 0
        assert out[1, 0] == -1.0  # NaN >= 0 is False
