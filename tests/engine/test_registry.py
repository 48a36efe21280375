"""The engine table: two BNN kernels behind names, and their resolution."""

import numpy as np
import pytest

from repro.bnn import BNNModel, binarize_sign
from repro.engine import (
    engine_names,
    ensure_known,
    get_engine,
    resolve_engine,
)
from repro.errors import ConfigurationError
from repro.sim import use_session


class TestTable:
    def test_builtin_engines(self):
        assert engine_names() == ("accurate", "fast")

    @pytest.mark.parametrize("name", ["numpy", "parallel"])
    def test_retired_engines_are_unknown(self, name):
        with pytest.raises(ConfigurationError,
                           match="registered engines: accurate, fast$"):
            get_engine(name)

    def test_get_engine_returns_singleton(self):
        assert get_engine("fast") is get_engine("fast")

    def test_unknown_name_lists_engines_sorted(self):
        with pytest.raises(ConfigurationError) as excinfo:
            get_engine("warp")
        message = str(excinfo.value)
        assert "warp" in message
        listed = message.split("registered engines:")[1]
        assert [part.strip() for part in listed.split(",")] == \
            list(engine_names())

    def test_ensure_known_round_trips(self):
        assert ensure_known("accurate") == "accurate"
        with pytest.raises(ConfigurationError):
            ensure_known("nope")

    def test_every_engine_names_and_describes_itself(self):
        for name in engine_names():
            engine = get_engine(name)
            assert engine.name == name
            assert engine.description


class TestResolution:
    def test_name_resolves(self):
        assert resolve_engine("fast").name == "fast"

    def test_engine_object_passes_through(self):
        engine = get_engine("fast")
        assert resolve_engine(engine) is engine

    def test_none_follows_session_config(self):
        with use_session(cache_enabled=False, engine="fast"):
            assert resolve_engine().name == "fast"
        with use_session(cache_enabled=False, engine="accurate"):
            assert resolve_engine(None).name == "accurate"


class TestKernels:
    def test_engines_compute_identical_bnn_results(self):
        rng = np.random.default_rng(3)
        model = BNNModel.random([33, 17, 4], rng)
        x = binarize_sign(rng.standard_normal((9, 33)))
        accurate, fast = get_engine("accurate"), get_engine("fast")
        for method in ("scores", "predict", "hidden_forward"):
            np.testing.assert_array_equal(
                getattr(accurate, method)(model, x),
                getattr(fast, method)(model, x))

    def test_predict_is_argmax_of_scores(self):
        rng = np.random.default_rng(4)
        model = BNNModel.random([16, 8, 3], rng)
        x = binarize_sign(rng.standard_normal((5, 16)))
        for name in engine_names():
            engine = get_engine(name)
            np.testing.assert_array_equal(
                engine.predict(model, x),
                np.argmax(engine.scores(model, x), axis=1))
