"""From-scratch multilayer perceptron: FC -> BN -> ReLU -> Dropout blocks,
final affine, softmax cross-entropy, Adam with coupled L2 on affine weights.

All math is float64 numpy. Dropout probability is the DROP probability;
survivors are scaled by 1/(1-p) at train time so eval needs no rescaling.
BN normalizes with biased batch variance and tracks running stats with an
exponential moving average (running = (1-m)*running + m*stat, where the
running-variance stat is the unbiased batch variance).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataio import DenseDataset
from .errors import ConfigError, DataFormatError

MODES = ("train", "eval")


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
            raise ConfigError("batch_size must be >= 2 (train-mode BN)")
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


class MlpModel:
    """Mutable parameter container. mode gates BN/dropout behavior."""

    def __init__(self, arch: MlpArchitecture, blocks, out_w, out_b,
                 bn_eps=1e-5, bn_momentum=0.1, mode="train"):
        self.arch = arch
        self.blocks = blocks  # dicts: w, b, gamma, beta, run_mean, run_var
        self.out_w = out_w
        self.out_b = out_b
        self.bn_eps = float(bn_eps)
        self.bn_momentum = float(bn_momentum)
        self.mode = mode


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
    return MlpModel(arch, blocks, out_w, out_b, bn_eps, bn_momentum)


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    ez = np.exp(shifted)
    return ez / ez.sum(axis=1, keepdims=True)


def _forward_cache(model: MlpModel, batch, mode, rng, freeze_bn, update_running=False):
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}")
    X = np.asarray(batch, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.arch.input_size:
        raise DataFormatError(
            f"batch must be 2-d with {model.arch.input_size} columns"
        )
    B = X.shape[0]
    if B < 1:
        raise DataFormatError("batch must contain at least one row")
    if mode == "train" and B < 2 and not freeze_bn:
        raise DataFormatError("train-mode BN needs a batch of >= 2 rows")
    p = model.arch.dropout_p
    if mode == "train" and p > 0 and rng is None:
        raise ConfigError("train-mode forward with dropout needs an rng")
    caches = []
    h = X
    for block in model.blocks:
        z = h @ block["w"] + block["b"]
        if mode == "train" and not freeze_bn:
            mu = z.mean(axis=0)
            var = z.var(axis=0)  # biased, used for normalization
            if update_running:
                m = model.bn_momentum
                block["run_mean"] = (1 - m) * block["run_mean"] + m * mu
                unbiased = var * B / (B - 1)
                block["run_var"] = (1 - m) * block["run_var"] + m * unbiased
        else:
            mu = block["run_mean"]
            var = block["run_var"]
        inv_std = 1.0 / np.sqrt(var + model.bn_eps)
        x_hat = (z - mu) * inv_std
        bn_out = block["gamma"] * x_hat + block["beta"]
        relu = np.maximum(bn_out, 0.0)
        if mode == "train" and p > 0:
            mask = (rng.random(relu.shape) >= p) / (1.0 - p)
            out = relu * mask
        else:
            mask = None
            out = relu
        caches.append({
            "x": h, "inv_std": inv_std, "x_hat": x_hat,
            "bn_out": bn_out, "mask": mask, "batch_stats": mode == "train" and not freeze_bn,
        })
        h = out
    logits = h @ model.out_w + model.out_b
    return logits, h, caches


def forward(model: MlpModel, batch, mode=None, rng=None, freeze_bn=False) -> np.ndarray:
    """Logits for a batch. mode defaults to model.mode; freeze_bn makes
    train mode use running statistics (dropout still active).

    Never changes the model: train mode normalizes with the batch statistics
    but leaves the running statistics as they are. Only the training step,
    loss_and_gradients, updates them."""
    mode = model.mode if mode is None else mode
    logits, _, _ = _forward_cache(model, batch, mode, rng, freeze_bn)
    return logits


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
    """Weighted softmax CE and reverse-mode gradients for every parameter.

    Requires train mode: gradients flow through dropout masks and
    batch-statistics BN, and the BN running statistics take one EMA step.
    Returns (loss, grads) with grads mirroring the parameter structure:
    {"blocks": [{w,b,gamma,beta}...], "out_w", "out_b"}.
    """
    if model.mode != "train":
        raise ConfigError("loss_and_gradients requires train mode")
    y = _check_labels(labels, model.arch.output_size)
    logits, hidden, caches = _forward_cache(model, batch, "train", rng, False,
                                            update_running=True)
    loss, dlogits = _weighted_ce(logits, y, class_weights)
    grads = {"out_w": hidden.T @ dlogits, "out_b": dlogits.sum(axis=0), "blocks": []}
    dh = dlogits @ model.out_w.T
    B = dlogits.shape[0]
    for block, cache in zip(reversed(model.blocks), reversed(caches)):
        if cache["mask"] is not None:
            dh = dh * cache["mask"]
        d_bn = dh * (cache["bn_out"] > 0)
        dgamma = (d_bn * cache["x_hat"]).sum(axis=0)
        dbeta = d_bn.sum(axis=0)
        dx_hat = d_bn * block["gamma"]
        if cache["batch_stats"]:
            dz = cache["inv_std"] / B * (
                B * dx_hat
                - dx_hat.sum(axis=0)
                - cache["x_hat"] * (dx_hat * cache["x_hat"]).sum(axis=0)
            )
        else:
            dz = dx_hat * cache["inv_std"]
        grads["blocks"].append({
            "w": cache["x"].T @ dz,
            "b": dz.sum(axis=0),
            "gamma": dgamma,
            "beta": dbeta,
        })
        dh = dz @ block["w"].T
    grads["blocks"].reverse()
    return loss, grads


def _adam_step(param, grad, state, cfg, t):
    state["m"] = cfg.adam_beta1 * state["m"] + (1 - cfg.adam_beta1) * grad
    state["v"] = cfg.adam_beta2 * state["v"] + (1 - cfg.adam_beta2) * grad**2
    m_hat = state["m"] / (1 - cfg.adam_beta1**t)
    v_hat = state["v"] / (1 - cfg.adam_beta2**t)
    param -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.adam_eps)


def train(ds: DenseDataset, arch: MlpArchitecture, cfg: MlpTrainConfig):
    """Adam training with a seeded 90/10 train/val split (validation only
    feeds the learning curve). Returns (model in eval mode, curve) where
    curve has exactly cfg.epochs (train_loss, val_loss) points.

    Weight decay is the coupled L2 term added to the gradients of affine
    weight matrices only (not biases, not BN scale/shift). A trailing
    batch of one row is skipped (train-mode BN is undefined there).
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

    adam = {"out_w": None, "out_b": None, "blocks": []}
    adam["out_w"] = {"m": np.zeros_like(model.out_w), "v": np.zeros_like(model.out_w)}
    adam["out_b"] = {"m": np.zeros_like(model.out_b), "v": np.zeros_like(model.out_b)}
    for block in model.blocks:
        adam["blocks"].append({
            name: {"m": np.zeros_like(block[name]), "v": np.zeros_like(block[name])}
            for name in ("w", "b", "gamma", "beta")
        })

    curve = []
    t = 0
    for _ in range(cfg.epochs):
        model.mode = "train"
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
            if cfg.weight_decay > 0:
                grads["out_w"] += cfg.weight_decay * model.out_w
                for block, g in zip(model.blocks, grads["blocks"]):
                    g["w"] += cfg.weight_decay * block["w"]
            t += 1
            _adam_step(model.out_w, grads["out_w"], adam["out_w"], cfg, t)
            _adam_step(model.out_b, grads["out_b"], adam["out_b"], cfg, t)
            for block, g, state in zip(model.blocks, grads["blocks"], adam["blocks"]):
                for name in ("w", "b", "gamma", "beta"):
                    _adam_step(block[name], g[name], state[name], cfg, t)
            epoch_loss += loss * idx.size
            epoch_rows += idx.size
        model.mode = "eval"
        val_logits = forward(model, X_val, mode="eval")
        val_loss, _ = _weighted_ce(val_logits, y_val, cfg.class_weights)
        curve.append((epoch_loss / epoch_rows, val_loss))
    model.mode = "eval"
    return model, curve


class MlpPredictor:
    """Adapter exposing the trainer-interface predict/score pair."""

    def __init__(self, model: MlpModel):
        self.model = model

    def predict(self, features) -> np.ndarray:
        logits = forward(self.model, features, mode="eval")
        return np.argmax(logits, axis=1)

    def score(self, features) -> np.ndarray:
        logits = forward(self.model, features, mode="eval")
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
