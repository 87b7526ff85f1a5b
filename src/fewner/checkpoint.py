"""Model checkpoints: encoder weights, label set and head descriptor.

Serialized as a versioned JSON document. Floats are written with Python's
shortest round-trip repr, so save/load is bit-exact and re-serializing an
unchanged model is byte-identical.

Prototype heads carry no arrays: they are reconstructed from a support
set at inference time, so the descriptor stores only the head kind and
the tag ordering.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import LabelSet
from .encoder import EncoderParams
from .errors import DataError
from .heads import LinearHead

FORMAT_VERSION = 1

LINEAR = "linear"
PROTOTYPE = "prototype"


@dataclass
class Model:
    """A trained (or freshly initialized) model: encoder + head descriptor."""

    encoder: EncoderParams
    labels: LabelSet
    head_kind: str
    head: LinearHead | None

    def __post_init__(self):
        if self.head_kind not in (LINEAR, PROTOTYPE):
            raise ValueError(f"unknown head kind {self.head_kind!r}")
        if self.head_kind == LINEAR:
            if self.head is None:
                raise ValueError("linear model needs head arrays")
            if self.head.weights.shape != (
                len(self.labels.tag_vocabulary),
                self.encoder.hidden_dim,
            ):
                raise ValueError(
                    f"head shape {self.head.weights.shape} inconsistent with "
                    f"{len(self.labels.tag_vocabulary)} tags and H={self.encoder.hidden_dim}"
                )
        elif self.head is not None:
            raise ValueError("prototype model must not carry head arrays")

    def copy(self) -> "Model":
        return Model(
            self.encoder.copy(),
            self.labels,
            self.head_kind,
            self.head.copy() if self.head else None,
        )


def to_document(model: Model) -> dict:
    doc = {
        "format_version": FORMAT_VERSION,
        "embed_dim": model.encoder.embed_dim,
        "hidden_dim": model.encoder.hidden_dim,
        "vocab": list(model.encoder.vocab),
        "embedding_table": model.encoder.embedding_table.tolist(),
        "context_weights": model.encoder.context_weights.tolist(),
        "context_bias": model.encoder.context_bias.tolist(),
        "labels": {
            "entity_types": list(model.labels.entity_types),
            "schema": model.labels.schema,
        },
        "head": {
            "kind": model.head_kind,
            "tags": list(model.labels.tag_vocabulary),
        },
    }
    if model.head_kind == LINEAR:
        doc["head"]["weights"] = model.head.weights.tolist()
        doc["head"]["bias"] = model.head.bias.tolist()
    return doc


def from_document(doc: dict) -> Model:
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise DataError(f"unsupported checkpoint format version {version!r}")
    vocab = tuple(doc["vocab"])
    encoder = EncoderParams(
        vocab=vocab,
        embed_dim=doc["embed_dim"],
        hidden_dim=doc["hidden_dim"],
        embedding_table=np.array(doc["embedding_table"], dtype=float),
        context_weights=np.array(doc["context_weights"], dtype=float),
        context_bias=np.array(doc["context_bias"], dtype=float),
    )
    labels = LabelSet(tuple(doc["labels"]["entity_types"]), doc["labels"]["schema"])
    head_doc = doc["head"]
    if tuple(head_doc["tags"]) != labels.tag_vocabulary:
        raise DataError("checkpoint tag ordering disagrees with its label set")
    if head_doc["kind"] == LINEAR:
        head = LinearHead(
            np.array(head_doc["weights"], dtype=float),
            np.array(head_doc["bias"], dtype=float),
        )
    else:
        head = None
    return Model(encoder, labels, head_doc["kind"], head)


def write_atomic(path: str | Path, text: str) -> None:
    """Write text to a temporary file beside path, then rename it over path,
    so a failed write never leaves a truncated file at path."""
    tmp = Path(f"{path}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save(model: Model, path: str | Path) -> None:
    write_atomic(path, dumps(model))


def load(path: str | Path) -> Model:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: not a checkpoint file ({exc})") from exc
    return from_document(doc)


def dumps(model: Model) -> str:
    return json.dumps(to_document(model))
