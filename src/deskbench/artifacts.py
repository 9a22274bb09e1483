"""Model artifact serialization.

Every trained model serializes to a JSON document carrying a kind tag,
the parameters, the training config, and the seed, so a run can be
reproduced or a model shipped over the wire. Weight vectors are base64
of little-endian 8-byte floats; gradient-boosted trees are nested
preorder dicts.
"""

import base64
import dataclasses
import json

import numpy as np

from .errors import DataFormatError
from .gbt import GbtModel
from .linmodels import LinearModel
from .mlp import MlpArchitecture, MlpModel

ARTIFACT_KINDS = ("logistic", "svm", "mlp", "gbt")


def f64_to_b64(values) -> str:
    """Encode an array as base64 of little-endian float64 bytes (C order)."""
    arr = np.ascontiguousarray(np.asarray(values, dtype=np.float64))
    return base64.b64encode(arr.astype("<f8").tobytes()).decode("ascii")


def b64_to_f64(text: str, shape=None) -> np.ndarray:
    """Decode base64 little-endian float64 bytes, optionally reshaping."""
    try:
        raw = base64.b64decode(text.encode("ascii"), validate=True)
    except Exception as exc:
        raise DataFormatError(f"bad base64 weight payload: {exc}") from exc
    if len(raw) % 8 != 0:
        raise DataFormatError(f"weight payload length {len(raw)} is not a multiple of 8")
    arr = np.frombuffer(raw, dtype="<f8").astype(np.float64)
    if shape is not None:
        if arr.size != int(np.prod(shape)):
            raise DataFormatError(f"weight payload has {arr.size} values, expected shape {shape}")
        arr = arr.reshape(shape)
    return arr


def _config_dict(config):
    if config is None:
        return None
    if dataclasses.is_dataclass(config) and not isinstance(config, type):
        return dataclasses.asdict(config)
    return dict(config)


def _seed_of(config, seed):
    if seed is not None:
        return int(seed)
    cfg = _config_dict(config)
    if cfg and "seed" in cfg:
        return int(cfg["seed"])
    return None


def linear_artifact(model: LinearModel, config=None, seed=None) -> dict:
    return {
        "kind": model.kind,
        "num_features": int(model.num_features),
        "weights_b64": f64_to_b64(model.weights),
        "bias": float(model.bias),
        "config": _config_dict(config),
        "seed": _seed_of(config, seed),
    }


def mlp_artifact(model: MlpModel, config=None, seed=None) -> dict:
    blocks = []
    for block in model.blocks:
        blocks.append({name: f64_to_b64(block[name])
                       for name in ("w", "b", "gamma", "beta", "run_mean", "run_var")})
    layers = {
        "blocks": blocks,
        "out_w": f64_to_b64(model.out_w),
        "out_b": f64_to_b64(model.out_b),
        "bn_eps": model.bn_eps,
        "bn_momentum": model.bn_momentum,
    }
    return {
        "kind": "mlp",
        "num_features": int(model.arch.input_size),
        "arch": dataclasses.asdict(model.arch),
        "layers": layers,
        "config": _config_dict(config),
        "seed": _seed_of(config, seed),
    }


def gbt_artifact(model: GbtModel, config=None, seed=None) -> dict:
    return {
        "kind": "gbt",
        "num_features": int(model.num_features),
        "base_score": float(model.base_score),
        "trees": model.trees,
        "config": _config_dict(config),
        "seed": _seed_of(config, seed),
    }


def model_artifact(model, config=None, seed=None) -> dict:
    """Serialize any trained model to its artifact dict, by type."""
    if isinstance(model, LinearModel):
        return linear_artifact(model, config, seed)
    if isinstance(model, MlpModel):
        return mlp_artifact(model, config, seed)
    if isinstance(model, GbtModel):
        return gbt_artifact(model, config, seed)
    raise DataFormatError(f"cannot serialize model of type {type(model).__name__}")


def _check_tree(node, num_features):
    if not isinstance(node, dict):
        raise DataFormatError("tree node must be a dict")
    if "w" in node:
        return {"w": float(node["w"])}
    for key in ("f", "t", "l", "r"):
        if key not in node:
            raise DataFormatError(f"split node missing {key!r}")
    feature = int(node["f"])
    if not 0 <= feature < num_features:
        raise DataFormatError(f"tree references feature {feature} of {num_features}")
    return {"f": feature, "t": float(node["t"]),
            "l": _check_tree(node["l"], num_features),
            "r": _check_tree(node["r"], num_features)}


def artifact_to_model(artifact: dict):
    """Rebuild the trained model object from an artifact dict."""
    kind = artifact.get("kind")
    if kind in ("logistic", "svm"):
        num_features = int(artifact["num_features"])
        weights = b64_to_f64(artifact["weights_b64"], (num_features,))
        return LinearModel(weights, float(artifact["bias"]), kind)
    if kind == "mlp":
        arch = MlpArchitecture(**artifact["arch"])
        layers = artifact["layers"]
        blocks = []
        fan_in = arch.input_size
        for encoded in layers["blocks"]:
            blocks.append({
                "w": b64_to_f64(encoded["w"], (fan_in, arch.hidden_size)),
                "b": b64_to_f64(encoded["b"], (arch.hidden_size,)),
                "gamma": b64_to_f64(encoded["gamma"], (arch.hidden_size,)),
                "beta": b64_to_f64(encoded["beta"], (arch.hidden_size,)),
                "run_mean": b64_to_f64(encoded["run_mean"], (arch.hidden_size,)),
                "run_var": b64_to_f64(encoded["run_var"], (arch.hidden_size,)),
            })
            fan_in = arch.hidden_size
        if len(blocks) != arch.num_hidden_blocks:
            raise DataFormatError("block count does not match architecture")
        out_w = b64_to_f64(layers["out_w"], (fan_in, arch.output_size))
        out_b = b64_to_f64(layers["out_b"], (arch.output_size,))
        return MlpModel(arch, blocks, out_w, out_b,
                        bn_eps=float(layers.get("bn_eps", 1e-5)),
                        bn_momentum=float(layers.get("bn_momentum", 0.1)),
                        mode="eval")
    if kind == "gbt":
        num_features = int(artifact["num_features"])
        trees = [_check_tree(tree, num_features) for tree in artifact["trees"]]
        return GbtModel(float(artifact["base_score"]), trees, num_features)
    raise DataFormatError(f"unknown artifact kind: {kind!r}")


def save_artifact(path, artifact: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(artifact, handle, sort_keys=True)
        handle.write("\n")


def load_artifact(path) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            artifact = json.load(handle)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"artifact is not valid JSON: {exc}") from exc
    if not isinstance(artifact, dict) or artifact.get("kind") not in ARTIFACT_KINDS:
        raise DataFormatError("artifact missing a recognized kind tag")
    return artifact
