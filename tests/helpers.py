"""Helpers shared across test modules."""

import json
import os
from pathlib import Path

from hypothesis import strategies as st

from deskbench import dataio
from deskbench.errors import DataFormatError


def load_parts(manifest_path) -> tuple[dataio.DatasetManifest, list[dataio.DenseDataset]]:
    """Read a dataset written by ``dataio.save_parts``: the manifest and its parts."""
    manifest_path = Path(manifest_path)
    manifest = dataio.DatasetManifest(**json.loads(manifest_path.read_text(encoding="utf-8")))
    label_map = "zero_one" if manifest.label_kind == "binary" else "raw"
    parts = [dataio.load_dense(manifest_path.parent / rel, label_map) for rel in manifest.parts]
    for rel, part in zip(manifest.parts, parts):
        if part.num_features != manifest.num_features:
            raise DataFormatError(f"{rel} has {part.num_features} features, "
                                  f"manifest declares {manifest.num_features}")
    total = sum(p.num_rows for p in parts)
    if total != manifest.num_rows:
        raise DataFormatError(
            f"manifest declares {manifest.num_rows} rows, parts hold {total}"
        )
    return manifest, parts


def in_parent(pid=os.getpid()):
    """True in the test process, False in a child it forked."""
    return os.getpid() == pid


LONG_WORDS = ("k" * 4000, "é" * 2000, "日" * 1334 + "z")  # 4000+ UTF-8 bytes each
WORDS = ("movie", "film", "the", "and", "café", "señor", "日本語", "жизнь", "x1", "ok")
STOPWORDS = ("the", "and", "café", "ok", LONG_WORDS[0])


def documents():
    """Texts for the text flows: empty ones, ones of WORDS (non-ASCII words and
    words in STOPWORDS) and ones of arbitrary characters."""
    word = st.one_of(st.sampled_from(WORDS), st.text(alphabet="abcéß日ж _-!1", max_size=8))
    return st.one_of(st.just(""), st.lists(word, max_size=12).map(" ".join), st.text(max_size=20))
