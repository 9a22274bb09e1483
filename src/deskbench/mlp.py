"""From-scratch multilayer perceptron: FC -> BN -> ReLU -> Dropout blocks,
final affine, softmax cross-entropy, Adam with coupled L2 on affine weights.

All math is float64 numpy. Dropout probability is the DROP probability;
survivors are scaled by 1/(1-p) at train time so eval needs no rescaling.
BN normalizes with biased batch variance and tracks running stats with an
exponential moving average (running = (1-m)*running + m*stat, where the
running-variance stat is the unbiased batch variance).

There are two code paths. forward is the eval forward: running statistics,
no dropout, and the model is left as it was. The training forward is private
to loss_and_gradients: batch statistics, one EMA step, dropout masks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataio import DenseDataset
from .errors import ConfigError, DataFormatError


@dataclass(frozen=True)
class MlpArchitecture:
    input_size: int = 2000
    hidden_size: int = 128
    num_hidden_blocks: int = 2
    output_size: int = 2
    dropout_p: float = 0.8

    def __post_init__(self):
        for name in ("input_size", "hidden_size", "num_hidden_blocks", "output_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if not (0.0 <= self.dropout_p < 1.0):
            raise ConfigError("dropout_p must be in [0, 1)")


@dataclass(frozen=True)
class MlpTrainConfig:
    learning_rate: float = 1e-5
    weight_decay: float = 1e-4
    epochs: int = 100
    batch_size: int = 128
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    bn_momentum: float = 0.1
    bn_eps: float = 1e-5
    seed: int = 0
    class_weights: tuple[float, float] | None = None

    def __post_init__(self):
        if not (self.learning_rate > 0):
            raise ConfigError("learning_rate must be > 0")
        if self.weight_decay < 0:
            raise ConfigError("weight_decay must be >= 0")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.batch_size < 2:
            raise ConfigError("batch_size must be >= 2 (batch-statistics BN)")
        for name in ("adam_beta1", "adam_beta2"):
            if not (0.0 < getattr(self, name) < 1.0):
                raise ConfigError(f"{name} must be in (0, 1)")
        if not (self.adam_eps > 0 and self.bn_eps > 0):
            raise ConfigError("adam_eps and bn_eps must be > 0")
        if not (0.0 < self.bn_momentum <= 1.0):
            raise ConfigError("bn_momentum must be in (0, 1]")
        if self.class_weights is not None:
            w0, w1 = self.class_weights
            if not (w0 > 0 and w1 > 0):
                raise ConfigError("class_weights must both be > 0")


@dataclass(eq=False)
class MlpModel:
    """Mutable parameters; blocks are dicts of w, b, gamma, beta, run_mean, run_var."""

    arch: MlpArchitecture
    blocks: list
    out_w: np.ndarray
    out_b: np.ndarray
    bn_eps: float = 1e-5
    bn_momentum: float = 0.1


def _glorot(rng, fan_in, fan_out):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def init_model(arch: MlpArchitecture, rng, bn_eps=1e-5, bn_momentum=0.1) -> MlpModel:
    """Seeded uniform +-sqrt(6/(fan_in+fan_out)) affine weights, zero biases,
    BN scale 1 shift 0, running stats (0, 1)."""
    blocks = []
    fan_in = arch.input_size
    for _ in range(arch.num_hidden_blocks):
        blocks.append({
            "w": _glorot(rng, fan_in, arch.hidden_size),
            "b": np.zeros(arch.hidden_size),
            "gamma": np.ones(arch.hidden_size),
            "beta": np.zeros(arch.hidden_size),
            "run_mean": np.zeros(arch.hidden_size),
            "run_var": np.ones(arch.hidden_size),
        })
        fan_in = arch.hidden_size
    out_w = _glorot(rng, fan_in, arch.output_size)
    out_b = np.zeros(arch.output_size)
    return MlpModel(arch, blocks, out_w, out_b, float(bn_eps), float(bn_momentum))


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    ez = np.exp(shifted)
    return ez / ez.sum(axis=1, keepdims=True)


def _check_batch(model: MlpModel, batch) -> np.ndarray:
    X = np.asarray(batch, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.arch.input_size:
        raise DataFormatError(f"batch must be 2-d with {model.arch.input_size} columns")
    if X.shape[0] < 1:
        raise DataFormatError("batch must contain at least one row")
    return X


def _normalize(z, mu, var, block, eps):
    """BN with the given statistics, then the block's scale and shift.
    Returns (inv_std, x_hat, bn_out)."""
    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat = (z - mu) * inv_std
    return inv_std, x_hat, block["gamma"] * x_hat + block["beta"]


def forward(model: MlpModel, batch) -> np.ndarray:
    """Eval logits for a batch: BN with the running statistics, no dropout.
    Never changes the model."""
    h = _check_batch(model, batch)
    for block in model.blocks:
        z = h @ block["w"] + block["b"]
        _, _, bn_out = _normalize(z, block["run_mean"], block["run_var"], block, model.bn_eps)
        h = np.maximum(bn_out, 0.0)
    return h @ model.out_w + model.out_b


def _train_forward(model: MlpModel, X, rng):
    """Training forward: BN with the batch statistics, one EMA step of the
    running statistics, dropout masks drawn from rng.
    Returns (logits, last hidden activations, per-block caches)."""
    B = X.shape[0]
    p = model.arch.dropout_p
    m = model.bn_momentum
    caches = []
    h = X
    for block in model.blocks:
        z = h @ block["w"] + block["b"]
        mu, var = z.mean(axis=0), z.var(axis=0)  # biased var normalizes
        block["run_mean"] = (1 - m) * block["run_mean"] + m * mu
        block["run_var"] = (1 - m) * block["run_var"] + m * (var * B / (B - 1))
        inv_std, x_hat, bn_out = _normalize(z, mu, var, block, model.bn_eps)
        out = np.maximum(bn_out, 0.0)
        mask = None
        if p > 0:
            mask = (rng.random(out.shape) >= p) / (1.0 - p)
            out = out * mask
        caches.append((h, inv_std, x_hat, bn_out, mask))
        h = out
    return h @ model.out_w + model.out_b, h, caches


def _weighted_ce(logits, labels, class_weights):
    probs = softmax(logits)
    B = logits.shape[0]
    picked = probs[np.arange(B), labels]
    ce = -np.log(np.maximum(picked, 1e-300))
    if class_weights is None:
        c = np.ones(B)
    else:
        c = np.asarray(class_weights, dtype=np.float64)[labels]
    loss = float(np.mean(c * ce))
    onehot = np.zeros_like(probs)
    onehot[np.arange(B), labels] = 1.0
    dlogits = (c[:, None] * (probs - onehot)) / B
    return loss, dlogits


def _check_labels(labels, output_size):
    y = np.asarray(labels)
    out = y.astype(np.int64)
    if not np.array_equal(out, y):
        raise DataFormatError("labels must be integer class ids")
    if out.min() < 0 or out.max() >= output_size:
        raise DataFormatError(f"labels must lie in [0, {output_size})")
    return out


def loss_and_gradients(model: MlpModel, batch, labels, class_weights=None, rng=None):
    """One training step's weighted softmax CE and its backpropagated gradients.

    The forward uses batch-statistics BN and dropout masks, and the BN
    running statistics take one EMA step. Returns (loss, grads) with grads
    mirroring the parameter structure:
    {"blocks": [{w,b,gamma,beta}...], "out_w", "out_b"}.
    """
    y = _check_labels(labels, model.arch.output_size)
    X = _check_batch(model, batch)
    B = X.shape[0]
    if B < 2:
        raise DataFormatError("training-step BN needs a batch of >= 2 rows")
    if model.arch.dropout_p > 0 and rng is None:
        raise ConfigError("training step with dropout needs an rng")
    logits, hidden, caches = _train_forward(model, X, rng)
    loss, dlogits = _weighted_ce(logits, y, class_weights)
    grads = {"out_w": hidden.T @ dlogits, "out_b": dlogits.sum(axis=0), "blocks": []}
    dh = dlogits @ model.out_w.T
    for block, (x, inv_std, x_hat, bn_out, mask) in zip(reversed(model.blocks),
                                                         reversed(caches)):
        if mask is not None:
            dh = dh * mask
        d_bn = dh * (bn_out > 0)
        dx_hat = d_bn * block["gamma"]
        dz = inv_std / B * (B * dx_hat - dx_hat.sum(axis=0)
                            - x_hat * (dx_hat * x_hat).sum(axis=0))
        grads["blocks"].append({"w": x.T @ dz, "b": dz.sum(axis=0),
                                "gamma": (d_bn * x_hat).sum(axis=0), "beta": d_bn.sum(axis=0)})
        if block is not model.blocks[0]:  # no gradient for the input batch
            dh = dz @ block["w"].T
    grads["blocks"].reverse()
    return loss, grads


def _flatten(out_w, out_b, blocks) -> list:
    """The trainable arrays, or their gradients, in one fixed order."""
    return [out_w, out_b] + [block[name] for block in blocks
                             for name in ("w", "b", "gamma", "beta")]


def _adam_step(param, grad, state, cfg, t):
    state["m"] = cfg.adam_beta1 * state["m"] + (1 - cfg.adam_beta1) * grad
    state["v"] = cfg.adam_beta2 * state["v"] + (1 - cfg.adam_beta2) * grad**2
    m_hat = state["m"] / (1 - cfg.adam_beta1**t)
    v_hat = state["v"] / (1 - cfg.adam_beta2**t)
    param -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.adam_eps)


def train(ds: DenseDataset, arch: MlpArchitecture, cfg: MlpTrainConfig):
    """Adam training with a seeded 90/10 train/val split (validation only
    feeds the learning curve). Returns (model, curve) where curve has
    exactly cfg.epochs (train_loss, val_loss) points.

    Weight decay is the coupled L2 term added to the gradients of affine
    weight matrices only (not biases, not BN scale/shift). A trailing
    batch of one row is skipped (batch-statistics BN is undefined there).
    """
    y = _check_labels(ds.labels, arch.output_size)
    if ds.num_features != arch.input_size:
        raise DataFormatError(
            f"architecture expects {arch.input_size} features, dataset has {ds.num_features}"
        )
    rng = np.random.default_rng(cfg.seed)
    model = init_model(arch, rng, cfg.bn_eps, cfg.bn_momentum)
    n = ds.num_rows
    perm = rng.permutation(n)
    val_count = max(1, n // 10)
    val_idx, train_idx = perm[:val_count], perm[val_count:]
    if cfg.batch_size > train_idx.size:
        raise ConfigError("batch_size exceeds the number of training rows")
    X_train, y_train = ds.features[train_idx], y[train_idx]
    X_val, y_val = ds.features[val_idx], y[val_idx]

    params = _flatten(model.out_w, model.out_b, model.blocks)
    # coupled L2 on the affine weight matrices, the only 2-d parameters
    decay = [cfg.weight_decay if param.ndim == 2 else 0.0 for param in params]
    adam = [{"m": np.zeros_like(param), "v": np.zeros_like(param)} for param in params]

    curve = []
    t = 0
    for _ in range(cfg.epochs):
        order = rng.permutation(train_idx.size)
        epoch_loss = 0.0
        epoch_rows = 0
        for start in range(0, order.size, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            if idx.size < 2:
                continue
            loss, grads = loss_and_gradients(
                model, X_train[idx], y_train[idx], cfg.class_weights, rng
            )
            t += 1
            for param, grad, wd, state in zip(params, _flatten(**grads), decay, adam):
                if wd > 0:
                    grad = grad + wd * param
                _adam_step(param, grad, state, cfg, t)
            epoch_loss += loss * idx.size
            epoch_rows += idx.size
        val_loss, _ = _weighted_ce(forward(model, X_val), y_val, cfg.class_weights)
        curve.append((epoch_loss / epoch_rows, val_loss))
    return model, curve


class MlpPredictor:
    """Adapter exposing the trainer-interface predict/score pair."""

    def __init__(self, model: MlpModel):
        self.model = model

    def predict(self, features) -> np.ndarray:
        logits = forward(self.model, features)
        return np.argmax(logits, axis=1)

    def score(self, features) -> np.ndarray:
        logits = forward(self.model, features)
        return softmax(logits)[:, 1]


def make_trainer(arch: MlpArchitecture, cfg: MlpTrainConfig):
    def trainer(train_ds: DenseDataset) -> MlpPredictor:
        model, _ = train(train_ds, arch, cfg)
        return MlpPredictor(model)

    return trainer


def save_learning_curve(path, curve) -> None:
    lines = ["epoch,train_loss,val_loss"]
    for epoch, (train_loss, val_loss) in enumerate(curve, start=1):
        lines.append(f"{epoch},{train_loss!r},{val_loss!r}")
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("\n".join(lines) + "\n")
