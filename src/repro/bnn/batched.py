"""Exact whole-batch BNN inference (the ``fast`` engine's kernel).

The scalar path (:meth:`BNNModel.scores`) evaluates one image at a time
with int32 matmuls.  Binary accelerators compute the same dot products
as XNOR + popcount (XNOR Neural Engine, XNORBIN); on a host, the fastest
way to do that arithmetic is one float32 GEMM per layer over the whole
batch.  With ±1 weights ``W`` and sign inputs written as ``x = 2a − 1``
for unit bits ``a ∈ {0,1}``,

    W·x + b = 2·(a @ Wᵀ) − rowsum(W) + b

so a hidden layer's sign threshold becomes ``a @ Wᵀ ≥ (rowsum(W) − b)/2``
and the classifier's scores are ``2·(a @ Wᵀ) − rowsum(W) + b``.

The arithmetic is exact, not approximate.  Every partial sum of
``a @ Wᵀ`` is an integer of magnitude ≤ fan_in, and float32 represents
integers exactly up to 2**24, so the GEMM is exact while
``fan_in < GEMM_MAX_FAN_IN`` (2**23, a safety factor of 2).  Thresholds
are half-integers, exact in float32 below 2**23 and, beyond that, on the
far side of every reachable accumulator value.  The classifier's scores
are finished in int32 from the exact accumulator, so
:func:`batched_scores` is **bit-identical** to the scalar path — the
differential suite in ``tests/bnn/test_batched_equivalence.py`` pins
this for every topology shape.  A model with a layer at or above the
bound is scored by the scalar int32 path instead.

Callers normally go through :meth:`BNNAccelerator.infer_batch(...,
engine=...) <repro.bnn.accelerator.BNNAccelerator.infer_batch>` or
:func:`predict_with_engine`, which resolve through :mod:`repro.engine`
and default to the session's ``SimConfig.engine`` (``repro run
--engine fast``, ``REPRO_ENGINE``).  See ``docs/KERNELS.md``.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.bnn import quantize as q
from repro.bnn.model import BNNModel
from repro.errors import ConfigurationError

#: largest fan-in (exclusive) for which the float32 GEMM is exact: every
#: partial sum is an integer of magnitude < 2**24 (float32's exact
#: integer range), with headroom for the half-integer thresholds
GEMM_MAX_FAN_IN = 1 << 23


@dataclass(frozen=True)
class GemmLayer:
    """One layer lowered for the float32 GEMM kernel."""

    weights_t: np.ndarray  # (fan_in, fan_out) float32, ±1, C-contiguous
    weight_sums: np.ndarray  # (fan_out,) int32 — row sums of W
    bias: np.ndarray  # (fan_out,) int32
    thresholds: np.ndarray  # (fan_out,) float32 — (sums − bias) / 2


class GemmModel:
    """A :class:`BNNModel` lowered to float32 GEMM operands."""

    def __init__(self, model: BNNModel):
        self.layers: List[GemmLayer] = []
        for layer in model.layers:
            sums = layer.weights.sum(axis=1, dtype=np.int32)
            bias = layer.bias.astype(np.int32)
            self.layers.append(GemmLayer(
                weights_t=np.ascontiguousarray(
                    layer.weights.T, dtype=np.float32),
                weight_sums=sums,
                bias=bias,
                # halved in float64 (exact), then rounded once; rounding
                # is monotone, so integer accumulators compare the same
                thresholds=((sums.astype(np.float64) - bias) / 2.0
                            ).astype(np.float32),
            ))

    def _bits(self, x01: np.ndarray, layers: List[GemmLayer]) -> np.ndarray:
        for layer in layers:
            x01 = (x01 @ layer.weights_t >= layer.thresholds).astype(
                np.float32)
        return x01

    def scores(self, x01: np.ndarray) -> np.ndarray:
        """Integer class scores ``(batch, n_classes)`` for unit-bit rows."""
        last = self.layers[-1]
        # exact integers in float32, so the int32 conversion is lossless
        acc = (self._bits(x01, self.layers[:-1]) @ last.weights_t).astype(
            np.int32)
        return 2 * acc - last.weight_sums + last.bias

    def hidden(self, x01: np.ndarray) -> np.ndarray:
        """Sign activations after every layer for unit-bit rows."""
        return q.bits_to_sign(self._bits(x01, self.layers))


#: lowered-model cache: lowering is O(weights) and models are immutable
#: in practice, so one lowered copy per live model instance is kept
#: (weakly — dropping the model drops its lowering)
_GEMM_CACHE: "weakref.WeakKeyDictionary[BNNModel, GemmModel]" = \
    weakref.WeakKeyDictionary()


def gemm_model(model: BNNModel) -> GemmModel:
    """The (cached) :class:`GemmModel` lowering of ``model``."""
    lowered = _GEMM_CACHE.get(model)
    if lowered is None:
        lowered = GemmModel(model)
        _GEMM_CACHE[model] = lowered
    return lowered


def gemm_exact(model: BNNModel) -> bool:
    """True when every layer's fan-in is below :data:`GEMM_MAX_FAN_IN`."""
    return max(layer.fan_in for layer in model.layers) < GEMM_MAX_FAN_IN


def _as_sign_batch(model: BNNModel, x_signs: np.ndarray) -> np.ndarray:
    x = q.check_sign_domain(np.atleast_2d(np.asarray(x_signs)))
    if x.ndim != 2:
        raise ConfigurationError("batched input must be (batch, input_size)")
    if x.shape[1] != model.input_size:
        raise ConfigurationError(
            f"input size {x.shape[1]} != model input {model.input_size}")
    return x


def encode_batch(model: BNNModel, x_signs: np.ndarray) -> np.ndarray:
    """Validate a sign batch against ``model``; its float32 {0,1} rows.

    The one input-conversion step of the GEMM kernel: sign domain and
    shape are checked, then ``+1 -> 1`` and ``-1 -> 0``.
    """
    return (_as_sign_batch(model, x_signs) > 0).astype(np.float32)


def batched_scores(model: BNNModel, x_signs: np.ndarray) -> np.ndarray:
    """Integer class scores ``(batch, n_classes)``, bit-identical to the
    scalar path (``np.stack([model.scores(x) for x in x_signs])``)."""
    if not gemm_exact(model):
        return np.stack([model.scores(row)
                         for row in _as_sign_batch(model, x_signs)])
    return gemm_model(model).scores(encode_batch(model, x_signs))


def batched_predict(model: BNNModel, x_signs: np.ndarray) -> np.ndarray:
    """Vectorized argmax classification through the GEMM kernel."""
    return np.argmax(batched_scores(model, x_signs), axis=1)


def batched_hidden_forward(model: BNNModel, x_signs: np.ndarray) -> np.ndarray:
    """Sign activations after *every* layer through the GEMM kernel.

    Bit-identical to :meth:`BNNModel.hidden_forward_batch` — the integer
    accumulators are exact, so thresholding lands on the same signs.
    Used when this model is the front half of a two-core chain.
    """
    if not gemm_exact(model):
        return model.hidden_forward_batch(_as_sign_batch(model, x_signs))
    return gemm_model(model).hidden(encode_batch(model, x_signs))


def predict_with_engine(model: BNNModel, x_signs: np.ndarray,
                        engine: Optional[str] = None) -> np.ndarray:
    """Classify a batch with the selected engine.

    ``engine=None`` resolves to the session's ``SimConfig.engine``; any
    engine name (or engine object) works.  Every engine
    returns identical predictions (the equivalence suites pin the logits
    bit-for-bit), so this only changes host-side speed.
    """
    from repro.engine import resolve_engine

    return resolve_engine(engine).predict(model, np.asarray(x_signs))
