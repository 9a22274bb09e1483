"""Helpers shared across test modules."""

import json
from pathlib import Path

from deskbench import dataio
from deskbench.errors import DataFormatError


def load_parts(manifest_path) -> tuple[dataio.DatasetManifest, list[dataio.DenseDataset]]:
    """Read a dataset written by ``dataio.save_parts``: the manifest and its parts."""
    manifest_path = Path(manifest_path)
    manifest = dataio.DatasetManifest(**json.loads(manifest_path.read_text(encoding="utf-8")))
    label_map = "zero_one" if manifest.label_kind == "binary" else "raw"
    parts = [
        dataio.load_dense(manifest_path.parent / rel, manifest.num_features, label_map)
        for rel in manifest.parts
    ]
    total = sum(p.num_rows for p in parts)
    if total != manifest.num_rows:
        raise DataFormatError(
            f"manifest declares {manifest.num_rows} rows, parts hold {total}"
        )
    return manifest, parts
