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
from .encoder import PAD, UNK, EncoderParams
from .errors import DataError, NumericError
from .heads import LinearHead

FORMAT_VERSION = 1

LINEAR = "linear"
PROTOTYPE = "prototype"


@dataclass
class Model:
    """A trained (or freshly initialized) model: encoder, label set and, for
    a linear model, its head arrays; a prototype model has none."""

    encoder: EncoderParams
    labels: LabelSet
    head: LinearHead | None = None

    def __post_init__(self):
        shape = (len(self.labels.tag_vocabulary), self.encoder.hidden_dim)
        if self.head is not None and self.head.weights.shape != shape:
            raise ValueError(
                f"head shape {self.head.weights.shape} inconsistent with "
                f"{shape[0]} tags and H={shape[1]}"
            )

    @property
    def head_kind(self) -> str:
        return PROTOTYPE if self.head is None else LINEAR


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
    if model.head is not None:
        doc["head"]["weights"] = model.head.weights.tolist()
        doc["head"]["bias"] = model.head.bias.tolist()
    return doc


def _field(doc: dict, path: str, kind: type):
    """The value at a dotted path of the document; it must have the JSON
    type `kind` (a boolean is not an integer)."""
    value = doc
    for key in path.split("."):
        value = value.get(key) if isinstance(value, dict) else None
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise DataError(f"checkpoint field {path!r} is missing or not of type {kind.__name__}")
    return value


def _dimension(doc: dict, path: str) -> int:
    value = _field(doc, path, int)
    if value < 1:
        raise DataError(f"checkpoint field {path!r} must be positive, got {value}")
    return value


def _strings(doc: dict, path: str) -> tuple[str, ...]:
    values = _field(doc, path, list)
    if not all(isinstance(v, str) for v in values):
        raise DataError(f"checkpoint field {path!r} must list strings")
    return tuple(values)


def _array(doc: dict, path: str, shape: tuple[int, ...]) -> np.ndarray:
    """The nested number lists at path as a float array of the given shape;
    non-finite values raise NumericError."""
    try:
        arr = np.array(_field(doc, path, list))
    except ValueError:  # ragged nesting
        arr = None
    if arr is None or arr.dtype.kind not in "iuf":
        raise DataError(f"checkpoint field {path!r} is not an array of numbers")
    if arr.shape != shape:
        raise DataError(f"checkpoint field {path!r} has shape {arr.shape}, expected {shape}")
    arr = arr.astype(float)
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"checkpoint field {path!r} holds non-finite values")
    return arr


def from_document(doc: dict) -> Model:
    """Rebuild a model from a checkpoint document, validating all of it:
    missing or mis-typed fields, a vocabulary that repeats a word and
    arrays of the wrong shape raise DataError, non-finite parameters
    NumericError."""
    version = _field(doc, "format_version", int)
    if version != FORMAT_VERSION:
        raise DataError(f"unsupported checkpoint format version {version!r}")
    e, h = _dimension(doc, "embed_dim"), _dimension(doc, "hidden_dim")
    vocab = _strings(doc, "vocab")
    if PAD not in vocab or UNK not in vocab:
        raise DataError(f"checkpoint vocabulary lacks {PAD} or {UNK}")
    if len(set(vocab)) != len(vocab):  # a repeated word's earlier row would be dead
        twice = next(w for i, w in enumerate(vocab) if w in vocab[:i])
        raise DataError(f"checkpoint vocabulary lists {twice!r} more than once")
    labels = LabelSet(_strings(doc, "labels.entity_types"), _field(doc, "labels.schema", str))
    kind = _field(doc, "head.kind", str)
    if kind not in (LINEAR, PROTOTYPE):
        raise DataError(f"unknown checkpoint head kind {kind!r}")
    if _strings(doc, "head.tags") != labels.tag_vocabulary:
        raise DataError("checkpoint tag ordering disagrees with its label set")
    encoder = EncoderParams(
        vocab=vocab,
        embed_dim=e,
        hidden_dim=h,
        embedding_table=_array(doc, "embedding_table", (len(vocab), e)),
        context_weights=_array(doc, "context_weights", (h, 3 * e)),
        context_bias=_array(doc, "context_bias", (h,)),
    )
    head = None
    if kind == LINEAR:
        n_tags = len(labels.tag_vocabulary)
        head = LinearHead(
            _array(doc, "head.weights", (n_tags, h)), _array(doc, "head.bias", (n_tags,))
        )
    return Model(encoder, labels, head)


def write_atomic(path: str | Path, text: str) -> None:
    """Write text to a new temporary file beside path, then rename it over
    path, so a failed write never leaves a truncated file at path. The
    temporary file is created exclusively under a random name, so no other
    file is written or removed, and with the mode a plain write would give.
    Its name's length does not depend on path's, so a name near the
    file-name limit still has room for it."""
    tmp = Path(path).parent / f".{os.urandom(8).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_text(path: str | Path, digest=None) -> str:
    """The file's UTF-8 text with its line ends as they are and one leading
    byte order mark dropped; a failed read or non-UTF-8 bytes raise a
    DataError naming path. digest (a hashlib object), if given, is updated
    with the bytes read."""
    try:
        data = Path(path).read_bytes()
        if digest is not None:
            digest.update(data)
        return data.decode("utf-8").removeprefix("\ufeff")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"cannot read {path}: not UTF-8 text ({exc})") from exc


def save(model: Model, path: str | Path) -> None:
    write_atomic(path, dumps(model))


def load(path: str | Path) -> Model:
    """Read and validate a checkpoint file (see from_document); every error
    message names the file."""
    try:
        doc = json.loads(read_text(path))
    except (ValueError, RecursionError) as exc:  # not JSON or nested too deeply
        raise DataError(f"{path}: not a checkpoint file ({exc})") from exc
    try:
        return from_document(doc)
    except (DataError, NumericError) as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def dumps(model: Model) -> str:
    return json.dumps(to_document(model))
