"""From-scratch multilayer perceptron: FC -> BN -> ReLU -> Dropout blocks,
final affine, softmax cross-entropy, Adam with coupled L2 on affine weights.

All math is float64 numpy. Dropout probability is the DROP probability;
survivors are scaled by 1/(1-p) at train time so eval needs no rescaling.
BN normalizes with biased batch variance and tracks running stats with an
exponential moving average (running = (1-m)*running + m*stat, where the
running-variance stat is the unbiased batch variance).

There are two code paths. forward is the eval forward: running statistics,
no dropout, and the model is left as it was. The training forward is private
to loss_and_gradients: batch statistics, one EMA step, dropout masks. It
works in place on its own buffers, never on the caller's batch. train keeps
the trainable arrays as views of one flat vector, so one Adam update is a
few elementwise passes over it. Every operation keeps its order: training
is bit-identical to the per-array oracle trainer in the tests.
"""

from __future__ import annotations

import math
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
        # the chained comparisons also reject NaN and infinity
        if not 0 < self.learning_rate < math.inf:
            raise ConfigError("learning_rate must be finite and > 0")
        if not 0 <= self.weight_decay < math.inf:
            raise ConfigError("weight_decay must be finite and >= 0")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.batch_size < 2:
            raise ConfigError("batch_size must be >= 2 (batch-statistics BN)")
        for name in ("adam_beta1", "adam_beta2"):
            if not (0.0 < getattr(self, name) < 1.0):
                raise ConfigError(f"{name} must be in (0, 1)")
        for name in ("adam_eps", "bn_eps"):
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be finite and > 0")
        if not (0.0 < self.bn_momentum <= 1.0):
            raise ConfigError("bn_momentum must be in (0, 1]")
        if self.class_weights is not None:
            w0, w1 = self.class_weights
            if not (0 < w0 < math.inf and 0 < w1 < math.inf):
                raise ConfigError("class_weights must both be finite and > 0")


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


def _normalize(d, var, block, eps):
    """BN of the centred activations d (overwritten with x_hat) with variance
    var, then the block's scale and shift. Returns (inv_std, x_hat, bn_out)."""
    inv_std = 1.0 / np.sqrt(var + eps)
    d *= inv_std
    bn_out = block["gamma"] * d
    bn_out += block["beta"]
    return inv_std, d, bn_out


def forward(model: MlpModel, batch) -> np.ndarray:
    """Eval logits for a batch: BN with the running statistics, no dropout.
    Never changes the model."""
    h = _check_batch(model, batch)
    for block in model.blocks:
        d = h @ block["w"] + block["b"] - block["run_mean"]
        _, _, bn_out = _normalize(d, block["run_var"], block, model.bn_eps)
        h = np.maximum(bn_out, 0.0, out=bn_out)
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
        d = h @ block["w"]
        d += block["b"]
        mu = np.add.reduce(d, axis=0) / B  # z.mean(axis=0)
        d -= mu
        var = np.add.reduce(d * d, axis=0) / B  # z.var(axis=0), biased: it normalizes
        block["run_mean"] = (1 - m) * block["run_mean"] + m * mu
        block["run_var"] = (1 - m) * block["run_var"] + m * (var * B / (B - 1))
        inv_std, x_hat, bn_out = _normalize(d, var, block, model.bn_eps)
        out = np.maximum(bn_out, 0.0)
        mask = None
        if p > 0:
            mask = (rng.random(out.shape) >= p) / (1.0 - p)
            out *= mask
        caches.append((h, inv_std, x_hat, bn_out, mask))
        h = out
    return h @ model.out_w + model.out_b, h, caches


def _weighted_ce(logits, labels, class_weights):
    """Mean class-weighted CE and its logit gradient (c * (probs - onehot)) / B."""
    probs = softmax(logits)
    B, rows = logits.shape[0], np.arange(logits.shape[0])
    nll = -np.log(np.maximum(probs[rows, labels], 1e-300))
    probs[rows, labels] -= 1.0
    if class_weights is not None:  # unit weights would multiply by 1.0, exactly
        c = np.asarray(class_weights, np.float64)[labels]
        nll *= c
        probs *= c[:, None]
    probs /= B
    return float(np.mean(nll)), probs


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
    {"blocks": [{w,b,gamma,beta}...], "out_w", "out_b"}. The gradients are
    fresh arrays; the batch is never written to.
    """
    y = _check_labels(labels, model.arch.output_size)
    X = _check_batch(model, batch)
    if X.shape[0] < 2:
        raise DataFormatError("training-step BN needs a batch of >= 2 rows")
    if model.arch.dropout_p > 0 and rng is None:
        raise ConfigError("training step with dropout needs an rng")
    return _loss_and_gradients(model, X, y, class_weights, rng)


def _loss_and_gradients(model: MlpModel, X, y, class_weights, rng):
    """loss_and_gradients on a batch and int64 labels already checked."""
    B = X.shape[0]
    logits, hidden, caches = _train_forward(model, X, rng)
    loss, dlogits = _weighted_ce(logits, y, class_weights)
    grads = {"out_w": hidden.T @ dlogits, "out_b": dlogits.sum(axis=0), "blocks": []}
    dh = dlogits @ model.out_w.T
    for block, (x, inv_std, x_hat, bn_out, mask) in zip(reversed(model.blocks),
                                                         reversed(caches)):
        # dh, x_hat and dz are this step's own buffers: updated in place
        if mask is not None:
            dh *= mask
        d_bn = np.multiply(dh, bn_out > 0, out=dh)
        dgamma, dbeta = (d_bn * x_hat).sum(axis=0), d_bn.sum(axis=0)
        # dz = inv_std / B * (B * dx_hat - sum(dx_hat) - x_hat * sum(dx_hat * x_hat))
        dz = np.multiply(d_bn, block["gamma"], out=d_bn)  # dx_hat
        sum_dx = dz.sum(axis=0)
        x_hat *= (dz * x_hat).sum(axis=0)
        dz *= B
        dz -= sum_dx
        dz -= x_hat
        dz *= inv_std / B
        grads["blocks"].append({"w": x.T @ dz, "b": dz.sum(axis=0),
                                "gamma": dgamma, "beta": dbeta})
        if block is not model.blocks[0]:  # no gradient for the input batch
            dh = dz @ block["w"].T
    grads["blocks"].reverse()
    return loss, grads


def _flatten(out_w, out_b, blocks) -> list:
    """The trainable arrays, or their gradients, in one fixed order."""
    return [out_w, out_b] + [block[name] for block in blocks
                             for name in ("w", "b", "gamma", "beta")]


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
    X_val, y_val = ds.features[val_idx], y[val_idx]

    # One Adam update over one flat parameter vector, whose views the model's
    # arrays become; the gradient, m, v and a temporary are of its length.
    params = _flatten(model.out_w, model.out_b, model.blocks)
    param = np.concatenate(params, axis=None)
    params = [view.reshape(p.shape) for view, p in
              zip(np.split(param, np.cumsum([p.size for p in params[:-1]])), params)]
    model.out_w, model.out_b, *rest = params
    for block, i in zip(model.blocks, range(0, len(rest), 4)):
        block.update(zip(("w", "b", "gamma", "beta"), rest[i:i + 4]))
    # coupled L2 on the affine weight matrices, the only 2-d parameters
    decayed = [i for i, p in enumerate(params) if p.ndim == 2 and cfg.weight_decay > 0]
    grad, m, v, tmp = (np.zeros_like(param) for _ in range(4))

    curve = []
    t = 0
    for _ in range(cfg.epochs):
        order = rng.permutation(train_idx.size)
        epoch_loss = 0.0
        epoch_rows = 0
        for start in range(0, order.size, cfg.batch_size):
            idx = train_idx[order[start:start + cfg.batch_size]]
            if idx.size < 2:
                continue
            loss, grads = _loss_and_gradients(
                model, ds.features.take(idx, axis=0), y[idx], cfg.class_weights, rng
            )
            t += 1
            grads = _flatten(**grads)
            for i in decayed:
                grads[i] += cfg.weight_decay * params[i]
            np.concatenate(grads, axis=None, out=grad)
            # m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*g**2;
            # param -= lr * (m / (1-b1**t)) / (sqrt(v / (1-b2**t)) + eps)
            m *= cfg.adam_beta1
            m += np.multiply(grad, 1 - cfg.adam_beta1, out=tmp)
            v *= cfg.adam_beta2
            v += np.multiply(np.square(grad, out=tmp), 1 - cfg.adam_beta2, out=tmp)
            # the denominator takes grad's buffer, which is spent
            denom = np.sqrt(np.divide(v, 1 - cfg.adam_beta2**t, out=grad), out=grad)
            denom += cfg.adam_eps
            np.multiply(np.divide(m, 1 - cfg.adam_beta1**t, out=tmp), cfg.learning_rate, out=tmp)
            param -= np.divide(tmp, denom, out=tmp)
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
