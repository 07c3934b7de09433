"""The paper's DNN video-quality model (Sec 2.3, Fig 1a), from scratch.

Architecture, exactly as published: five fully connected layers with
``in_features = out_features = 9``, each followed by a Sigmoid activation,
then a final linear layer ``9 -> 1`` producing the estimated SSIM.  Trained
with Adam on MSE loss, 500 epochs, batch size 128.

Implemented directly on numpy (no autograd): we hand-code the forward and
backward passes, including the gradient **with respect to the inputs**, which
the transmission-strategy optimizer (Sec 2.4) needs to climb the quality
surface.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, List, Optional, Tuple, Union

import numpy as np

from ..errors import QualityModelError
from ..types import validate_seed

#: Input dimensionality fixed by the paper's feature design.
INPUT_FEATURES = 9

#: Number of hidden (FC + Sigmoid) layers.
HIDDEN_LAYERS = 5


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # Clipping keeps exp() finite without changing results materially.
    return 1.0 / (1.0 + np.exp(-x.clip(-60.0, 60.0)))


@dataclass
class _AdamState:
    """Per-parameter Adam moment estimates."""

    m: List[np.ndarray]
    v: List[np.ndarray]
    step: int = 0


class DNNQualityModel:
    """Five sigmoid-activated 9x9 FC layers plus a linear head (Fig 1a).

    Args:
        learning_rate: Adam step size.
        epochs: Training epochs (paper: 500).
        batch_size: Mini-batch size (paper: 128).
        seed: Weight-initialisation and shuffling seed.
    """

    def __init__(
        self,
        learning_rate: float = 3e-3,
        epochs: int = 500,
        batch_size: int = 128,
        seed: int = 0,
    ) -> None:
        self.learning_rate = float(learning_rate)
        self.epochs = int(epochs)
        self.batch_size = int(batch_size)
        self.seed = seed
        self._params: Optional[List[np.ndarray]] = None
        self.training_loss: List[float] = []

    # --------------------------------------------------------------- plumbing

    @property
    def is_fitted(self) -> bool:
        """Whether weights exist (via :meth:`fit` or :meth:`load`)."""
        return self._params is not None

    def _init_params(self, rng: np.random.Generator) -> List[np.ndarray]:
        """Xavier-initialised [W1, b1, ..., W6, b6]."""
        params: List[np.ndarray] = []
        dims = [INPUT_FEATURES] * (HIDDEN_LAYERS + 1) + [1]
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            params.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
            params.append(np.zeros(fan_out))
        return params

    # ---------------------------------------------------------------- forward

    def _forward(self, x: np.ndarray) -> Tuple[np.ndarray, List[np.ndarray]]:
        """Return predictions ``(n,)`` and the activation cache for backprop."""
        if self._params is None:
            raise QualityModelError("model is not fitted")
        activations = [x]
        h = x
        for layer in range(HIDDEN_LAYERS):
            w, b = self._params[2 * layer], self._params[2 * layer + 1]
            h = _sigmoid(h @ w + b)
            activations.append(h)
        w, b = self._params[-2], self._params[-1]
        out = (h @ w + b).ravel()
        return out, activations

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Estimated SSIM for ``(n, 9)`` features (or a single ``(9,)`` row)."""
        x = self._check_features(features)
        out, _ = self._forward(x)
        return out

    def predict_with_input_grad(
        self, features: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Predictions and ``d prediction / d input`` of shape ``(n, 9)``.

        Used by the Sec 2.4 optimizer: the gradient with respect to the first
        four features (per-layer reception) tells the scheduler how much
        marginal quality another unit of data buys at each layer.
        """
        x = self._check_features(features)
        out, activations = self._forward(x)
        # The linear head's gradient is the same (1, 9) row for every
        # sample; the first product broadcasts it to (n, 9).
        grad = self._params[-2].T
        for layer in range(HIDDEN_LAYERS - 1, -1, -1):
            act = activations[layer + 1]
            grad = (grad * act * (1.0 - act)) @ self._params[2 * layer].T
        return out, grad

    # --------------------------------------------------------------- training

    def fit(self, features: np.ndarray, targets: np.ndarray) -> "DNNQualityModel":
        """Train with Adam on MSE loss."""
        x = self._check_features(features)
        y = np.asarray(targets, dtype=float).ravel()
        if x.shape[0] != y.shape[0]:
            raise QualityModelError(
                f"{x.shape[0]} feature rows vs {y.shape[0]} targets"
            )
        rng = validate_seed(self.seed)
        self._params = self._init_params(rng)
        adam = _AdamState(
            m=[np.zeros_like(p) for p in self._params],
            v=[np.zeros_like(p) for p in self._params],
        )
        self.training_loss = []
        n = x.shape[0]
        for _ in range(self.epochs):
            order = rng.permutation(n)
            epoch_loss = 0.0
            for start in range(0, n, self.batch_size):
                idx = order[start : start + self.batch_size]
                loss = self._step(x[idx], y[idx], adam)
                epoch_loss += loss * len(idx)
            self.training_loss.append(epoch_loss / n)
        return self

    def _step(self, x: np.ndarray, y: np.ndarray, adam: _AdamState) -> float:
        """One Adam step on a mini-batch; returns the batch MSE."""
        assert self._params is not None
        out, activations = self._forward(x)
        residual = out - y
        loss = float(np.mean(residual**2))

        grads: List[np.ndarray] = [np.empty(0)] * len(self._params)
        # Output layer.
        delta = (2.0 * residual / len(y))[:, None]  # (n, 1)
        grads[-2] = activations[-1].T @ delta
        grads[-1] = delta.sum(axis=0)
        upstream = delta @ self._params[-2].T  # (n, 9)
        # Hidden layers, last to first.
        for layer in range(HIDDEN_LAYERS - 1, -1, -1):
            act = activations[layer + 1]
            delta_h = upstream * act * (1.0 - act)
            grads[2 * layer] = activations[layer].T @ delta_h
            grads[2 * layer + 1] = delta_h.sum(axis=0)
            upstream = delta_h @ self._params[2 * layer].T

        adam.step += 1
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        for i, grad in enumerate(grads):
            adam.m[i] = beta1 * adam.m[i] + (1 - beta1) * grad
            adam.v[i] = beta2 * adam.v[i] + (1 - beta2) * grad * grad
            m_hat = adam.m[i] / (1 - beta1**adam.step)
            v_hat = adam.v[i] / (1 - beta2**adam.step)
            self._params[i] -= self.learning_rate * m_hat / (np.sqrt(v_hat) + eps)
        return loss

    def mse(self, features: np.ndarray, targets: np.ndarray) -> float:
        """Mean squared prediction error on a held-out set."""
        predictions = self.predict(features)
        return float(np.mean((predictions - np.asarray(targets, dtype=float)) ** 2))

    # ------------------------------------------------------------ persistence

    def save(self, path: Union[str, Path, BinaryIO]) -> None:
        """Serialise weights and hyper-parameters to an ``.npz`` file."""
        if self._params is None:
            raise QualityModelError("cannot save an unfitted model")
        meta = json.dumps(
            {
                "learning_rate": self.learning_rate,
                "epochs": self.epochs,
                "batch_size": self.batch_size,
            }
        )
        arrays = {f"param_{i}": p for i, p in enumerate(self._params)}
        np.savez(path, meta=np.frombuffer(meta.encode(), dtype=np.uint8), **arrays)

    @classmethod
    def load(cls, path: Union[str, Path, BinaryIO]) -> "DNNQualityModel":
        """Load a model previously written by :meth:`save`."""
        with np.load(path) as data:
            meta = json.loads(bytes(data["meta"]).decode())
            count = sum(1 for key in data.files if key.startswith("param_"))
            params = [data[f"param_{i}"] for i in range(count)]
        model = cls(
            learning_rate=meta["learning_rate"],
            epochs=meta["epochs"],
            batch_size=meta["batch_size"],
        )
        model._params = params
        return model

    # ------------------------------------------------------------- validation

    @staticmethod
    def _check_features(features: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(features, dtype=float))
        if x.shape[1] != INPUT_FEATURES:
            raise QualityModelError(
                f"expected {INPUT_FEATURES} features, got {x.shape[1]}"
            )
        return x
