"""The BNN kernel choice: which implementation computes BNN inference.

Two kernels, bit-identical on scores, predictions and hidden
activations (``tests/bnn/test_batched_equivalence.py``):

* ``accurate`` — the scalar int32 matmul of :class:`~repro.bnn.model.BNNModel`,
  one row at a time; the reference.
* ``fast`` — the exact whole-batch float32 GEMM of :mod:`repro.bnn.batched`.

Select one with ``SimConfig.engine``, ``--engine`` or ``REPRO_ENGINE``;
resolve it with :func:`resolve_engine`.  The choice changes how fast BNN
inference runs on the host, never a simulated number.  CPU programs do
not depend on it: they always run on the :mod:`repro.cpu` runtime.
"""

from __future__ import annotations

from typing import Dict, Tuple, Union

import numpy as np

from repro.bnn.batched import (
    batched_hidden_forward,
    batched_predict,
    batched_scores,
)
from repro.errors import ConfigurationError


class AccurateEngine:
    """Row-by-row scalar int32-matmul BNN inference."""

    name = "accurate"
    description = "scalar int32-matmul BNN inference, one row at a time"

    def scores(self, model, x_signs) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x_signs))
        return np.stack([model.scores(row) for row in x])

    def predict(self, model, x_signs) -> np.ndarray:
        return model.predict_batch(np.asarray(x_signs))

    def hidden_forward(self, model, x_signs) -> np.ndarray:
        return model.hidden_forward_batch(np.asarray(x_signs))


class FastEngine:
    """Whole-batch exact GEMM BNN inference."""

    name = "fast"
    description = "exact whole-batch float32 GEMM BNN inference"

    def scores(self, model, x_signs) -> np.ndarray:
        return batched_scores(model, x_signs)

    def predict(self, model, x_signs) -> np.ndarray:
        return batched_predict(model, x_signs)

    def hidden_forward(self, model, x_signs) -> np.ndarray:
        return batched_hidden_forward(model, x_signs)


Engine = Union[AccurateEngine, FastEngine]

_ENGINES: Dict[str, Engine] = {engine.name: engine
                               for engine in (AccurateEngine(), FastEngine())}


def engine_names() -> Tuple[str, ...]:
    """The engine names, sorted."""
    return tuple(sorted(_ENGINES))


def get_engine(name: str) -> Engine:
    """The engine called ``name``; a
    :class:`~repro.errors.ConfigurationError` lists the known ones."""
    try:
        return _ENGINES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown engine {name!r}; registered engines: "
            f"{', '.join(engine_names())}") from None


def resolve_engine(engine: Union[Engine, str, None] = None) -> Engine:
    """An engine object passes through; a name is looked up; ``None``
    follows the current session's ``SimConfig.engine``."""
    if engine is None:
        from repro.sim.session import get_session

        engine = get_session().config.engine
    return get_engine(engine) if isinstance(engine, str) else engine


def ensure_known(name: str) -> str:
    """Validate ``name``; returns it unchanged."""
    get_engine(name)
    return name


__all__ = ["AccurateEngine", "FastEngine", "engine_names", "ensure_known",
           "get_engine", "resolve_engine"]
