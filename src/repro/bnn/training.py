"""Straight-through-estimator training for the binarized network.

Implements the standard BNN training recipe (Hubara et al., the paper's
ref [39]) in pure numpy:

* real-valued *shadow* weights, binarized with sign() on the forward pass,
* sign() activations with the straight-through estimator; because there is
  no batch norm, pre-activations are O(sqrt(fan_in)), so the STE pass-through
  window is scaled per layer (``|pre| <= sqrt(fan_in)``) instead of the
  textbook ``|pre| <= 1``,
* softmax cross-entropy on the scaled output scores,
* Adam on the shadow weights, which are clipped to [-1, 1].

Training exports a pure integer :class:`~repro.bnn.model.BNNModel` that the
accelerator and software kernels execute.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np

from repro.bnn.model import BNNLayer, BNNModel
from repro.errors import ConfigurationError, TrainingError


@dataclass
class TrainingHistory:
    """Per-epoch loss/accuracy curves."""

    loss: List[float] = field(default_factory=list)
    train_accuracy: List[float] = field(default_factory=list)


def _sign_into(values: np.ndarray, mask: np.ndarray,
               out: np.ndarray) -> np.ndarray:
    """``np.where(values >= 0, 1.0, -1.0)`` written into reused buffers.

    ``mask`` (bool) and ``out`` (float64) have the shape of ``values``.
    The values are identical to the ``np.where`` form, ``-0.0`` (to +1)
    and NaN (to -1) included.
    """
    np.greater_equal(values, 0, out=mask)
    np.multiply(mask, 2.0, out=out)
    out -= 1.0
    return out


class _Adam:
    """Minimal Adam optimizer that updates its parameter arrays in place.

    Each step evaluates the textbook update ``m = b1*m + (1-b1)*g``,
    ``v = b2*v + (1-b2)*g**2``, ``p -= lr*(m/c1) / (sqrt(v/c2) + eps)``
    with the same float64 operations in the same order; only the
    temporaries are replaced by two scratch buffers per parameter, so the
    results are bit-identical to the out-of-place form.
    """

    def __init__(self, params: List[np.ndarray], lr: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self._scratch = [(np.empty_like(p), np.empty_like(p)) for p in params]
        self.t = 0

    def step(self, params: List[np.ndarray], grads: List[np.ndarray]) -> None:
        self.t += 1
        correction1 = 1 - self.beta1 ** self.t
        correction2 = 1 - self.beta2 ** self.t
        for param, grad, m, v, (update, denom) in zip(
                params, grads, self.m, self.v, self._scratch):
            m *= self.beta1
            m += np.multiply(grad, 1 - self.beta1, out=update)
            v *= self.beta2
            np.square(grad, out=denom)
            v += np.multiply(denom, 1 - self.beta2, out=denom)
            np.divide(m, correction1, out=update)
            update *= self.lr
            np.divide(v, correction2, out=denom)
            np.sqrt(denom, out=denom)
            denom += self.eps
            update /= denom
            param -= update


class BNNTrainer:
    """Trains a multi-layer BNN with the straight-through estimator."""

    def __init__(
        self,
        layer_sizes: Sequence[int],
        learning_rate: float = 0.01,
        seed: int = 0,
    ):
        if len(layer_sizes) < 2:
            raise ConfigurationError("need at least input and output sizes")
        self.layer_sizes = list(layer_sizes)
        rng = np.random.default_rng(seed)
        self.shadow = [
            rng.uniform(-1, 1, size=(fan_out, fan_in))
            for fan_in, fan_out in zip(layer_sizes, layer_sizes[1:])
        ]
        self.bias = [np.zeros(fan_out) for fan_out in layer_sizes[1:]]
        self._optimizer = _Adam(self.shadow + self.bias, lr=learning_rate)
        #: per-layer STE pass-through half-width (pre-activation scale)
        self._ste_clip = [np.sqrt(fan_in) for fan_in in layer_sizes[:-1]]

    # ------------------------------------------------------------------
    def _forward(self, x: np.ndarray, w_bins: List[np.ndarray]):
        """Forward pass with binarized weights; returns (layer inputs,
        pre-activations)."""
        activations = [x]
        pres = []
        current = x
        last = len(w_bins) - 1
        for index, (w_bin, bias) in enumerate(zip(w_bins, self.bias)):
            pre = current @ w_bin.T
            pre += bias
            pres.append(pre)
            if index < last:
                current = _sign_into(pre, np.empty(pre.shape, dtype=bool),
                                     np.empty_like(pre))
                activations.append(current)
        return activations, pres

    def train(
        self,
        x_signs: np.ndarray,
        labels: np.ndarray,
        epochs: int = 20,
        batch_size: int = 64,
        seed: int = 1,
        verbose: bool = False,
    ) -> TrainingHistory:
        """Run Adam over ``(x_signs, labels)``; inputs are in {-1,+1}."""
        x = np.asarray(x_signs, dtype=np.float64)
        y = np.asarray(labels)
        if x.ndim != 2 or x.shape[1] != self.layer_sizes[0]:
            raise ConfigurationError(
                f"input shape {x.shape} does not match input size "
                f"{self.layer_sizes[0]}"
            )
        if len(x) == 0:
            raise ConfigurationError("no training samples")
        if y.shape != (len(x),):
            raise ConfigurationError(
                f"labels of shape {y.shape} for {len(x)} samples")
        if batch_size < 1:
            raise ConfigurationError(f"batch_size {batch_size} must be >= 1")
        if epochs < 0:
            raise ConfigurationError(f"epochs {epochs} must be >= 0")
        n_classes = self.layer_sizes[-1]
        if y.min() < 0 or y.max() >= n_classes:
            raise ConfigurationError("labels out of range for the output layer")

        rng = np.random.default_rng(seed)
        history = TrainingHistory()
        scale = 1.0 / np.sqrt(self.layer_sizes[-2])
        params = self.shadow + self.bias
        # each shadow matrix is binarized once per mini-batch into these
        # buffers, which the forward and backward passes share
        masks = [np.empty(shadow.shape, dtype=bool) for shadow in self.shadow]
        w_bins = [np.empty_like(shadow) for shadow in self.shadow]
        grads_w = [np.empty_like(shadow) for shadow in self.shadow]
        grads_b = [np.empty_like(bias) for bias in self.bias]
        grads = grads_w + grads_b

        for _ in range(epochs):
            order = rng.permutation(len(x))
            epoch_loss = 0.0
            correct = 0
            for start in range(0, len(x), batch_size):
                batch = order[start:start + batch_size]
                xb, yb = x[batch], y[batch]
                for shadow, mask, w_bin in zip(self.shadow, masks, w_bins):
                    _sign_into(shadow, mask, w_bin)
                activations, pres = self._forward(xb, w_bins)
                scores = pres[-1] * scale
                scores -= scores.max(axis=1, keepdims=True)
                exp = np.exp(scores)
                probs = exp / exp.sum(axis=1, keepdims=True)
                batch_n = len(batch)
                epoch_loss -= float(
                    np.log(probs[np.arange(batch_n), yb] + 1e-12).sum()
                )
                correct += int((np.argmax(scores, axis=1) == yb).sum())

                grad = probs
                grad[np.arange(batch_n), yb] -= 1.0
                grad *= scale / batch_n

                for index in reversed(range(len(self.shadow))):
                    np.matmul(grad.T, activations[index], out=grads_w[index])
                    grad.sum(axis=0, out=grads_b[index])
                    if index > 0:
                        grad = grad @ w_bins[index]
                        grad *= (np.abs(pres[index - 1])
                                 <= self._ste_clip[index])
                self._optimizer.step(params, grads)
                for shadow in self.shadow:
                    np.clip(shadow, -1.0, 1.0, out=shadow)

            epoch_loss /= len(x)
            if not np.isfinite(epoch_loss):
                raise TrainingError("loss diverged to non-finite values")
            history.loss.append(epoch_loss)
            history.train_accuracy.append(correct / len(x))
            if verbose:
                print(f"epoch loss={epoch_loss:.4f} "
                      f"acc={history.train_accuracy[-1]:.3f}")
        return history

    def export_model(self) -> BNNModel:
        """Freeze the trained weights into an integer :class:`BNNModel`."""
        layers = []
        for shadow, bias in zip(self.shadow, self.bias):
            layers.append(BNNLayer(
                weights=np.where(shadow >= 0, 1, -1).astype(np.int8),
                bias=np.round(bias).astype(np.int32),
            ))
        return BNNModel(layers)


def train_bnn(
    x_signs: np.ndarray,
    labels: np.ndarray,
    layer_sizes: Sequence[int],
    epochs: int = 20,
    learning_rate: float = 0.01,
    batch_size: int = 64,
    seed: int = 0,
) -> BNNModel:
    """One-call helper: train and export a BNN."""
    trainer = BNNTrainer(layer_sizes, learning_rate=learning_rate, seed=seed)
    trainer.train(x_signs, labels, epochs=epochs, batch_size=batch_size,
                  seed=seed + 1)
    return trainer.export_model()
