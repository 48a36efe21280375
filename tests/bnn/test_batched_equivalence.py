"""Differential equivalence: the exact GEMM BNN kernel vs. the scalar path.

The ``--engine fast`` contract is *bit-identical logits*, not approximate
agreement: for every topology and batch, :func:`repro.bnn.batched.
batched_scores` must equal the int32 matmul scores of the scalar path
exactly, and the probe/timing accounting must not depend on the engine.
Inputs that put pre-activations exactly on the sign threshold, biases
beyond float32's exact range and the int32 fallback for models too wide
for the GEMM are pinned too.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.bnn.batched as batched
from repro.bnn import BNNAccelerator, BNNLayer, BNNModel
from repro.bnn.batched import (
    batched_hidden_forward,
    batched_predict,
    batched_scores,
    encode_batch,
    gemm_model,
    predict_with_engine,
)
from repro.engine import engine_names, get_engine
from repro.errors import ConfigurationError
from repro.sim import use_session

#: fan-ins on and off multiples of 64 (the old packed word size), plus
#: degenerate and single-layer shapes
TOPOLOGIES = [
    [100, 100, 100, 10],   # the chip's canonical network
    [784, 100, 100, 10],   # MNIST-sized input
    [64, 64, 4],           # exact word multiples
    [65, 64, 3],           # one bit past a word boundary
    [33, 7, 5],            # nothing aligns
    [1, 1, 1],             # degenerate
    [130, 2],              # single layer, multi-word
]


def _random_inputs(rng, batch, n):
    x = np.sign(rng.standard_normal((batch, n))).astype(np.int8)
    x[x == 0] = 1
    return x


def _scalar_scores(model, x):
    return np.stack([model.scores(row) for row in x])


def _on_threshold_model(topology, fill, seed=0):
    """A model whose every pre-activation is exactly 0 on the constant
    input ``fill``: each layer sees all-equal signs, and its bias
    cancels the weight row sums."""
    rng = np.random.default_rng(seed)
    layers = []
    for index, (fan_in, fan_out) in enumerate(zip(topology, topology[1:])):
        weights = np.where(rng.standard_normal((fan_out, fan_in)) >= 0,
                           1, -1).astype(np.int8)
        # layer 0 sees ``fill``; every later layer sees +1s, because
        # sign(0) is +1
        sign = fill if index == 0 else 1
        bias = -sign * weights.sum(axis=1, dtype=np.int32)
        layers.append(BNNLayer(weights=weights, bias=bias))
    return BNNModel(layers)


class TestEncodeBatch:
    def test_unit_rows(self):
        model = BNNModel.random([5, 2], np.random.default_rng(0))
        x = np.array([[1, -1, 1, 1, -1], [-1, -1, -1, -1, 1]],
                     dtype=np.int8)
        encoded = encode_batch(model, x)
        assert encoded.dtype == np.float32
        assert encoded.tolist() == [[1, 0, 1, 1, 0], [0, 0, 0, 0, 1]]

    def test_single_row_promoted(self):
        model = BNNModel.random([3, 2], np.random.default_rng(0))
        assert encode_batch(model, np.array([1, -1, 1])).shape == (1, 3)


class TestBitIdenticalScores:
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_scores_bit_identical(self, topology):
        rng = np.random.default_rng(42)
        model = BNNModel.random(topology, rng)
        x = _random_inputs(rng, 23, topology[0])
        batched = batched_scores(model, x)
        assert batched.dtype == np.int32
        assert np.array_equal(batched, _scalar_scores(model, x))

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_one_row_batches_bit_identical(self, topology):
        rng = np.random.default_rng(8)
        model = BNNModel.random(topology, rng)
        for _ in range(3):
            x = _random_inputs(rng, 1, topology[0])
            np.testing.assert_array_equal(batched_scores(model, x),
                                          _scalar_scores(model, x))
            np.testing.assert_array_equal(batched_predict(model, x),
                                          model.predict_batch(x))

    def test_predictions_match_predict_batch(self):
        rng = np.random.default_rng(7)
        model = BNNModel.random([100, 100, 100, 10], rng)
        x = _random_inputs(rng, 50, 100)
        assert np.array_equal(batched_predict(model, x),
                              model.predict_batch(x))

    def test_single_row_input_promoted(self):
        rng = np.random.default_rng(3)
        model = BNNModel.random([40, 10], rng)
        row = _random_inputs(rng, 1, 40)[0]
        assert np.array_equal(batched_scores(model, row)[0],
                              model.scores(row))

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_random_topologies_bit_identical(self, data):
        sizes = data.draw(st.lists(st.integers(1, 130), min_size=2,
                                   max_size=5))
        batch = data.draw(st.integers(1, 8))
        seed = data.draw(st.integers(0, 2**16))
        rng = np.random.default_rng(seed)
        model = BNNModel.random(sizes, rng)
        for layer in model.layers:  # biases that can land on the threshold
            layer.bias = rng.integers(-layer.fan_in - 1, layer.fan_in + 2,
                                      size=layer.fan_out, dtype=np.int32)
        x = _random_inputs(rng, batch, sizes[0])
        assert np.array_equal(batched_scores(model, x),
                              _scalar_scores(model, x))
        assert np.array_equal(batched_hidden_forward(model, x),
                              model.hidden_forward_batch(x))


class TestThresholdAndBiasEdges:
    @pytest.mark.parametrize("fill", [1, -1], ids=["all_ones",
                                                  "all_minus_ones"])
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_on_threshold_inputs_bit_identical(self, topology, fill):
        model = _on_threshold_model(topology, fill)
        x = np.full((4, topology[0]), fill, dtype=np.int8)
        # every hidden pre-activation is exactly 0, so sign() gives +1
        assert (model.hidden_forward_batch(x) == 1).all()
        np.testing.assert_array_equal(batched_scores(model, x),
                                      _scalar_scores(model, x))
        np.testing.assert_array_equal(batched_hidden_forward(model, x),
                                      model.hidden_forward_batch(x))

    @pytest.mark.parametrize("fill", [1, -1], ids=["all_ones",
                                                  "all_minus_ones"])
    def test_constant_inputs_on_random_models(self, fill):
        model = BNNModel.random([100, 100, 100, 10],
                                np.random.default_rng(9))
        x = np.full((3, 100), fill, dtype=np.int8)
        np.testing.assert_array_equal(batched_scores(model, x),
                                      _scalar_scores(model, x))
        np.testing.assert_array_equal(batched_hidden_forward(model, x),
                                      model.hidden_forward_batch(x))

    @pytest.mark.parametrize("bias", [65, -65, 64, -64, (1 << 24) + 1,
                                      -(1 << 24) - 3, (1 << 30) + 7])
    def test_biases_beyond_float32_range_stay_exact(self, bias):
        rng = np.random.default_rng(4)
        model = BNNModel.random([64, 32, 10], rng)
        for layer in model.layers:
            layer.bias = np.full(layer.fan_out, bias, dtype=np.int32)
            layer.bias[::2] = -bias + 1
        x = _random_inputs(rng, 9, 64)
        np.testing.assert_array_equal(batched_scores(model, x),
                                      _scalar_scores(model, x))
        np.testing.assert_array_equal(batched_hidden_forward(model, x),
                                      model.hidden_forward_batch(x))


class TestHiddenForward:
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    @pytest.mark.parametrize("batch", [1, 11])
    def test_hidden_forward_bit_identical(self, topology, batch):
        rng = np.random.default_rng(2)
        model = BNNModel.random(topology, rng)
        x = _random_inputs(rng, batch, topology[0])
        got = batched_hidden_forward(model, x)
        assert got.dtype == np.int8
        np.testing.assert_array_equal(got, model.hidden_forward_batch(x))


class TestInt32Fallback:
    """Models with a layer at or above GEMM_MAX_FAN_IN skip the GEMM."""

    @pytest.fixture
    def narrow_bound(self, monkeypatch):
        monkeypatch.setattr(batched, "GEMM_MAX_FAN_IN", 64)

        def no_gemm(model):
            raise AssertionError("the GEMM ran on a model past the bound")

        monkeypatch.setattr(batched, "gemm_model", no_gemm)

    @pytest.mark.parametrize("topology", [[64, 30, 5], [20, 65, 4],
                                          [100, 100, 100, 10]])
    def test_fallback_bit_identical(self, narrow_bound, topology):
        rng = np.random.default_rng(6)
        model = BNNModel.random(topology, rng)
        x = _random_inputs(rng, 13, topology[0])
        engine = get_engine("fast")
        scores = engine.scores(model, x)
        assert scores.dtype == np.int32
        np.testing.assert_array_equal(scores, _scalar_scores(model, x))
        np.testing.assert_array_equal(engine.predict(model, x),
                                      model.predict_batch(x))
        np.testing.assert_array_equal(engine.hidden_forward(model, x),
                                      model.hidden_forward_batch(x))

    def test_fallback_still_validates_inputs(self, narrow_bound):
        model = BNNModel.random([64, 4], np.random.default_rng(0))
        bad = np.ones((2, 64), dtype=np.int8)
        bad[1, 3] = 0
        with pytest.raises(ConfigurationError):
            batched_scores(model, bad)

    def test_models_below_the_bound_use_the_gemm(self, monkeypatch):
        monkeypatch.setattr(batched, "GEMM_MAX_FAN_IN", 65)
        calls = []
        real = batched.gemm_model
        monkeypatch.setattr(batched, "gemm_model",
                            lambda model: calls.append(model) or real(model))
        model = BNNModel.random([64, 64, 4], np.random.default_rng(0))
        batched_scores(model, _random_inputs(np.random.default_rng(1), 2, 64))
        assert calls == [model]


class TestLoweringCache:
    def test_lowering_is_cached_per_model(self):
        model = BNNModel.random([30, 10], np.random.default_rng(0))
        assert gemm_model(model) is gemm_model(model)

    def test_distinct_models_get_distinct_lowerings(self):
        m1 = BNNModel.random([30, 10], np.random.default_rng(0))
        m2 = BNNModel.random([30, 10], np.random.default_rng(0))
        assert gemm_model(m1) is not gemm_model(m2)


class TestInputValidation:
    def test_wrong_input_size_rejected(self):
        model = BNNModel.random([30, 10], np.random.default_rng(0))
        with pytest.raises(ConfigurationError):
            batched_scores(model, np.ones((4, 29), dtype=np.int8))

    def test_non_sign_values_rejected(self):
        model = BNNModel.random([30, 10], np.random.default_rng(0))
        bad = np.ones((2, 30), dtype=np.int8)
        bad[0, 0] = 0
        with pytest.raises(ConfigurationError):
            batched_scores(model, bad)


class TestEngineSelection:
    def test_engines_agree(self):
        rng = np.random.default_rng(11)
        model = BNNModel.random([100, 100, 10], rng)
        x = _random_inputs(rng, 16, 100)
        assert np.array_equal(
            predict_with_engine(model, x, engine="fast"),
            predict_with_engine(model, x, engine="accurate"))

    def test_default_engine_follows_session(self):
        rng = np.random.default_rng(11)
        model = BNNModel.random([50, 10], rng)
        x = _random_inputs(rng, 4, 50)
        with use_session(cache_enabled=False, engine="fast"):
            fast = predict_with_engine(model, x)
        with use_session(cache_enabled=False, engine="accurate"):
            accurate = predict_with_engine(model, x)
        assert np.array_equal(fast, accurate)

    def test_all_registered_engines_bit_identical(self):
        """Every registered engine produces the oracle's scores,
        predictions and hidden activations bit for bit."""
        rng = np.random.default_rng(5)
        model = BNNModel.random([100, 100, 100, 10], rng)
        x = _random_inputs(rng, 29, 100)
        oracle = get_engine("accurate")
        for name in engine_names():
            engine = get_engine(name)
            np.testing.assert_array_equal(
                engine.scores(model, x), oracle.scores(model, x),
                err_msg=name)
            np.testing.assert_array_equal(
                engine.predict(model, x), oracle.predict(model, x),
                err_msg=name)
            np.testing.assert_array_equal(
                engine.hidden_forward(model, x),
                oracle.hidden_forward(model, x), err_msg=name)

    def test_unknown_engine_rejected(self):
        model = BNNModel.random([50, 10], np.random.default_rng(0))
        x = _random_inputs(np.random.default_rng(1), 2, 50)
        with pytest.raises(ConfigurationError):
            predict_with_engine(model, x, engine="warp")


class TestAcceleratorAccounting:
    """Probe events and cycle/MAC accounting must be engine-independent."""

    def _run(self, engine):
        rng = np.random.default_rng(5)
        model = BNNModel.random([100, 100, 10], rng)
        x = _random_inputs(rng, 12, 100)
        with use_session(cache_enabled=False) as session:
            events = []
            session.stats.subscribe(
                "*", lambda name, payload: events.append((name, payload)))
            predictions, timing = BNNAccelerator().infer_batch(
                model, x, engine=engine)
            counters = session.stats.counters("bnn.")
        return predictions, timing, events, counters

    def test_identical_predictions_timing_probes_counters(self):
        fast = self._run("fast")
        accurate = self._run("accurate")
        assert np.array_equal(fast[0], accurate[0])
        assert fast[1] == accurate[1]
        assert fast[2] == accurate[2]
        assert fast[3] == accurate[3]
        names = [name for name, _ in fast[2]]
        assert "bnn.batch" in names

    def test_every_registered_engine_accounting_identical(self):
        """Timing, predictions and ``bnn.*`` counters are identical under
        every registered engine selected through the session, including
        any added later."""
        rng = np.random.default_rng(12)
        model = BNNModel.random([60, 40, 10], rng)
        x = _random_inputs(rng, 12, 60)

        def run(engine):
            with use_session(cache_enabled=False, engine=engine) as session:
                predictions, timing = BNNAccelerator().infer_batch(model, x)
                counters = session.stats.counters("bnn.")
            return list(predictions), timing.total_cycles, counters

        oracle = run("accurate")
        for name in engine_names():
            assert run(name) == oracle, name
