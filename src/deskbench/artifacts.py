"""Model artifact serialization.

Every trained model serializes, through model_artifact, to a JSON
document: a common header (kind tag, feature count, the training config
and its seed, so a run can be reproduced or a model shipped over the
wire) plus the parameters of its kind. Weight vectors are base64 of
little-endian 8-byte floats; MLP hidden blocks carry the BLOCK_FIELDS;
gradient-boosted trees are nested preorder dicts.
"""

import base64
import dataclasses
import json
import sys

import numpy as np

from .errors import ConfigError, DataFormatError
from .gbt import GbtModel
from .linmodels import LinearModel
from .mlp import MlpArchitecture, MlpModel

ARTIFACT_KINDS = ("logistic", "svm", "mlp", "gbt")


def f64_to_b64(values) -> str:
    """Encode an array as base64 of little-endian float64 bytes (C order)."""
    arr = np.ascontiguousarray(np.asarray(values, dtype=np.float64))
    return base64.b64encode(arr.astype("<f8").tobytes()).decode("ascii")


def b64_to_f64(text: str, shape) -> np.ndarray:
    """Decode base64 little-endian float64 bytes into an array of shape."""
    try:
        raw = base64.b64decode(text.encode("ascii"), validate=True)
    except Exception as exc:
        raise DataFormatError(f"bad base64 weight payload: {exc}") from exc
    if len(raw) % 8 != 0:
        raise DataFormatError(f"weight payload length {len(raw)} is not a multiple of 8")
    arr = np.frombuffer(raw, dtype="<f8").astype(np.float64)
    if arr.size != int(np.prod(shape)):
        raise DataFormatError(f"weight payload has {arr.size} values, expected shape {shape}")
    return arr.reshape(shape)


# MLP hidden-block fields and their shapes, by "fan_in" and "hidden" size
BLOCK_FIELDS = {"w": ("fan_in", "hidden"), "b": ("hidden",), "gamma": ("hidden",),
                "beta": ("hidden",), "run_mean": ("hidden",), "run_var": ("hidden",)}


def model_artifact(model, config=None) -> dict:
    """Serialize any trained model to its artifact dict, by type.

    config is the training config dataclass or None; the artifact stores
    it as a dict, and its seed field, when it has one, as the seed.
    """
    if isinstance(model, LinearModel):
        kind, num_features = model.kind, model.num_features
        body = {"weights_b64": f64_to_b64(model.weights), "bias": float(model.bias)}
    elif isinstance(model, MlpModel):
        kind, num_features = "mlp", model.arch.input_size
        blocks = [{name: f64_to_b64(block[name]) for name in BLOCK_FIELDS}
                  for block in model.blocks]
        layers = {
            "blocks": blocks,
            "out_w": f64_to_b64(model.out_w),
            "out_b": f64_to_b64(model.out_b),
            "bn_eps": model.bn_eps,
            "bn_momentum": model.bn_momentum,
        }
        body = {"arch": dataclasses.asdict(model.arch), "layers": layers}
    elif isinstance(model, GbtModel):
        kind, num_features = "gbt", model.num_features
        body = {"base_score": float(model.base_score), "trees": model.trees}
    else:
        raise DataFormatError(f"cannot serialize model of type {type(model).__name__}")
    cfg = None if config is None else dataclasses.asdict(config)
    seed = cfg.get("seed") if cfg else None
    return {"kind": kind, "num_features": int(num_features), **body,
            "config": cfg, "seed": None if seed is None else int(seed)}


def _finite(value, name) -> float:
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max):  # NaN fails too
        raise DataFormatError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _field(doc, name, kind):
    value = doc.get(name) if isinstance(doc, dict) else None
    if isinstance(value, bool) or not isinstance(value, kind):  # a bool is no int
        raise DataFormatError(f"artifact field {name!r} must be a {kind.__name__}")
    return value


def _weights(doc, name, shape) -> np.ndarray:
    """The float64 array of shape that doc's base64 field name holds; every
    value must be finite."""
    values = b64_to_f64(_field(doc, name, str), shape)
    if not np.isfinite(values).all():
        raise DataFormatError(f"artifact field {name!r} holds a non-finite value")
    return values


def _check_tree(node, num_features):
    if not isinstance(node, dict):
        raise DataFormatError("tree node must be a dict")
    if "w" in node:
        return {"w": _finite(node["w"], "leaf weight")}
    for key in ("f", "t", "l", "r"):
        if key not in node:
            raise DataFormatError(f"split node missing {key!r}")
    feature = node["f"]
    if isinstance(feature, bool) or not isinstance(feature, int):
        raise DataFormatError(f"tree feature must be an integer, got {feature!r}")
    if not 0 <= feature < num_features:
        raise DataFormatError(f"tree references feature {feature} of {num_features}")
    return {"f": feature, "t": _finite(node["t"], "threshold"),
            "l": _check_tree(node["l"], num_features),
            "r": _check_tree(node["r"], num_features)}


def artifact_to_model(artifact: dict):
    """Rebuild the trained model object from an artifact dict."""
    kind = artifact.get("kind")
    if kind in ("logistic", "svm"):
        weights = _weights(artifact, "weights_b64", (_field(artifact, "num_features", int),))
        return LinearModel(weights, _finite(artifact.get("bias"), "bias"), kind)
    if kind == "mlp":
        arch = _field(artifact, "arch", dict)
        try:
            arch = MlpArchitecture(**arch)
        except (TypeError, ConfigError) as exc:  # an unknown key or a bad size
            raise DataFormatError(f"artifact field 'arch': {exc}") from exc
        layers = _field(artifact, "layers", dict)
        blocks = []
        fan_in = arch.input_size
        for encoded in _field(layers, "blocks", list):
            dims = {"fan_in": fan_in, "hidden": arch.hidden_size}
            blocks.append({name: _weights(encoded, name, tuple(dims[d] for d in shape))
                           for name, shape in BLOCK_FIELDS.items()})
            fan_in = arch.hidden_size
        if len(blocks) != arch.num_hidden_blocks:
            raise DataFormatError("block count does not match architecture")
        out_w = _weights(layers, "out_w", (fan_in, arch.output_size))
        out_b = _weights(layers, "out_b", (arch.output_size,))
        return MlpModel(arch, blocks, out_w, out_b,
                        bn_eps=_finite(layers.get("bn_eps", 1e-5), "bn_eps"),
                        bn_momentum=_finite(layers.get("bn_momentum", 0.1), "bn_momentum"))
    if kind == "gbt":
        num_features = _field(artifact, "num_features", int)
        trees = [_check_tree(tree, num_features) for tree in _field(artifact, "trees", list)]
        return GbtModel(_finite(artifact.get("base_score"), "base_score"), trees, num_features)
    raise DataFormatError(f"unknown artifact kind: {kind!r}")


def save_artifact(path, artifact: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(artifact, handle, sort_keys=True)
        handle.write("\n")


def load_artifact(path) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            artifact = json.load(handle)
        except ValueError as exc:  # also bad UTF-8 and over-long integer literals
            raise DataFormatError(f"artifact is not valid JSON: {exc}") from exc
    if not isinstance(artifact, dict) or artifact.get("kind") not in ARTIFACT_KINDS:
        raise DataFormatError("artifact missing a recognized kind tag")
    return artifact
