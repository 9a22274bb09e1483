"""Linear classifiers trained by stochastic methods.

Two trainers on the primal objective: an L2-regularized logistic
regression fit by seeded mini-batch gradient descent, and a Pegasos-style
SVM fit by single-example sub-gradient steps with the 1/(lambda*t)
schedule. Both support optional per-class loss multipliers.

sgd_epoch is the one constant-rate mini-batch pass: logistic training
runs it once per epoch, and the distributed worker and the local bench
run it once per round, for the logistic and the hinge loss alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataio import DenseDataset
from .errors import ConfigError, DataFormatError

MODEL_KINDS = ("logistic", "svm")


@dataclass(frozen=True)
class SgdConfig:
    """Shared trainer knobs.

    epochs_or_iters means total single-example steps T for Pegasos and
    full passes over the data for logistic regression. learning_rate is
    used by logistic only; Pegasos derives its own schedule. project
    toggles the Pegasos ball projection (radius 1/sqrt(lambda)).
    """

    lambda_: float
    epochs_or_iters: int
    batch_size: int = 32
    learning_rate: float = 0.1
    seed: int = 0
    class_weights: tuple[float, float] | None = None
    project: bool = True

    def __post_init__(self):
        if not (self.lambda_ > 0):
            raise ConfigError("lambda must be > 0")
        if self.epochs_or_iters < 1:
            raise ConfigError("epochs_or_iters must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if not (self.learning_rate > 0):
            raise ConfigError("learning_rate must be > 0")
        if self.class_weights is not None:
            w0, w1 = self.class_weights
            if not (w0 > 0 and w1 > 0):
                raise ConfigError("class_weights must both be > 0")


@dataclass(frozen=True)
class LinearModel:
    weights: np.ndarray
    bias: float
    kind: str

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=np.float64)
        if weights.ndim != 1:
            raise ConfigError("weights must be a 1-d vector")
        if not np.isfinite(weights).all() or not np.isfinite(self.bias):
            raise ConfigError("model parameters must be finite")
        if self.kind not in MODEL_KINDS:
            raise ConfigError(f"kind must be one of {MODEL_KINDS}")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "bias", float(self.bias))

    @property
    def num_features(self) -> int:
        return self.weights.shape[0]


def _require_binary(ds: DenseDataset) -> tuple[np.ndarray, np.ndarray]:
    if not ds.is_binary():
        raise DataFormatError("trainer requires binary 0/1 labels")
    return ds.labels.astype(np.int64), ds.features


def _example_weights(y01: np.ndarray, class_weights) -> np.ndarray:
    if class_weights is None:
        return np.ones(y01.size, dtype=np.float64)
    w0, w1 = class_weights
    return np.where(y01 == 1, float(w1), float(w0))


def sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _batch_gradient(kind, Xb, yb, cb, w, b, lambda_):
    """Regularized mini-batch gradient (grad_w, grad_b) at (w, b).

    logistic: weighted cross-entropy on 0/1 labels yb with per-example
    weights cb (None means 1). svm: hinge sub-gradient on +-1 labels yb.
    """
    if kind == "logistic":
        residual = sigmoid(Xb @ w + b) - yb
        if cb is not None:
            residual = cb * residual
        return Xb.T @ residual / yb.size + lambda_ * w, float(np.mean(residual))
    signed = yb * (yb * (Xb @ w + b) < 1.0)
    return lambda_ * w - Xb.T @ signed / yb.size, -float(np.mean(signed))


def sgd_epoch(kind: str, w: np.ndarray, b: float, features, y01, lambda_: float,
              lr: float, batch_size: int, rng, example_weights=None) -> float:
    """One constant-rate mini-batch pass over rng.permutation(n).

    kind "logistic" takes the cross-entropy step on 0/1 labels, weighted
    by example_weights when given; "svm" takes the unweighted hinge
    sub-gradient step on the same labels mapped to +-1. The trailing
    partial batch is included. Updates the float64 vector w in place and
    returns the new bias.
    """
    if kind not in MODEL_KINDS:
        raise ConfigError(f"kind must be one of {MODEL_KINDS}")
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(y01, dtype=np.float64)
    if kind == "svm":
        y = 2.0 * y - 1.0
    perm = rng.permutation(X.shape[0])
    for start in range(0, X.shape[0], batch_size):
        idx = perm[start:start + batch_size]
        cb = None if example_weights is None else example_weights[idx]
        grad_w, grad_b = _batch_gradient(kind, X[idx], y[idx], cb, w, b, lambda_)
        w -= lr * grad_w
        b -= lr * grad_b
    return b


def train_logistic(ds: DenseDataset, cfg: SgdConfig) -> LinearModel:
    y01, X = _require_binary(ds)
    c = None if cfg.class_weights is None else _example_weights(y01, cfg.class_weights)
    w = np.zeros(X.shape[1], dtype=np.float64)
    b = 0.0
    rng = np.random.default_rng(cfg.seed)
    for _ in range(cfg.epochs_or_iters):
        b = sgd_epoch("logistic", w, b, X, y01, cfg.lambda_, cfg.learning_rate,
                      cfg.batch_size, rng, c)
    return LinearModel(weights=w, bias=b, kind="logistic")


def train_pegasos(ds: DenseDataset, cfg: SgdConfig, step_hook=None) -> LinearModel:
    """Single-example projected sub-gradient SVM.

    The returned model averages the iterates of the last ceil(T/2) steps
    (suffix averaging): the 1/(lambda*t) schedule keeps late steps large,
    so the raw final iterate oscillates around the optimum while the
    suffix average lands within a couple percent of the batch objective.

    step_hook(t, w) runs after each completed step for instrumentation
    (norm-bound assertions in tests); it must not mutate w.
    """
    y01, X = _require_binary(ds)
    c = _example_weights(y01, cfg.class_weights)
    y = np.where(y01 == 1, 1.0, -1.0)
    n, f = X.shape
    T = cfg.epochs_or_iters
    lam = cfg.lambda_
    radius = 1.0 / np.sqrt(lam)
    rng = np.random.default_rng(cfg.seed)
    picks = rng.integers(0, n, size=T)
    w = np.zeros(f, dtype=np.float64)
    b = 0.0
    suffix_start = T // 2 + 1
    w_sum = np.zeros(f, dtype=np.float64)
    b_sum = 0.0
    for t in range(1, T + 1):
        i = picks[t - 1]
        eta = 1.0 / (lam * t)
        margin = y[i] * (X[i] @ w + b)
        w *= 1.0 - eta * lam
        if margin < 1.0:
            w += eta * c[i] * y[i] * X[i]
            b += eta * c[i] * y[i]
        if cfg.project:
            norm = float(np.linalg.norm(w))
            if norm > radius:
                w *= radius / norm
        if t >= suffix_start:
            w_sum += w
            b_sum += b
        if step_hook is not None:
            step_hook(t, w)
    count = T - suffix_start + 1
    return LinearModel(weights=w_sum / count, bias=b_sum / count, kind="svm")


def decision_scores(model: LinearModel, ds: DenseDataset) -> np.ndarray:
    if ds.num_features != model.num_features:
        raise DataFormatError(
            f"model expects {model.num_features} features, dataset has {ds.num_features}"
        )
    z = ds.features @ model.weights + model.bias
    if model.kind == "logistic":
        return sigmoid(z)
    return z


class LinearPredictor:
    """Adapter exposing the trainer-interface predict/score pair."""

    def __init__(self, model: LinearModel):
        self.model = model

    def _raw(self, features) -> np.ndarray:
        X = np.asarray(features, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.model.num_features:
            raise DataFormatError(
                f"model expects {self.model.num_features} features")
        return X @ self.model.weights + self.model.bias

    def predict(self, features) -> np.ndarray:
        return (self._raw(features) >= 0.0).astype(np.int64)

    def score(self, features) -> np.ndarray:
        z = self._raw(features)
        return sigmoid(z) if self.model.kind == "logistic" else z


def make_trainer(kind: str, cfg: SgdConfig):
    """Bind a training config to the evaluation-friendly trainer interface."""
    if kind not in MODEL_KINDS:
        raise ConfigError(f"kind must be one of {MODEL_KINDS}")

    def trainer(train_ds: DenseDataset) -> LinearPredictor:
        if kind == "logistic":
            return LinearPredictor(train_logistic(train_ds, cfg))
        return LinearPredictor(train_pegasos(train_ds, cfg))

    return trainer
