import copy
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fewner import checkpoint
from fewner.corpus import LabelSet
from fewner.encoder import PAD, UNK, EncoderParams, init_encoder
from fewner.errors import DataError, NumericError
from fewner.heads import LinearHead, init_linear_head


def _linear_model(seed=0):
    labels = LabelSet(("LOC", "PER"), "BIO")
    encoder = init_encoder(["alpha", "beta", "gamma"], 3, 4, seed=seed)
    head = init_linear_head(len(labels.tag_vocabulary), 4, seed=seed + 1)
    return checkpoint.Model(encoder, labels, head)


def _proto_model(seed=0):
    labels = LabelSet(("LOC",), "BIO")
    encoder = init_encoder(["alpha"], 2, 3, seed=seed)
    return checkpoint.Model(encoder, labels)


class TestRoundTrip:
    def test_linear_bit_exact(self, tmp_path):
        model = _linear_model()
        path = tmp_path / "model.json"
        checkpoint.save(model, path)
        loaded = checkpoint.load(path)
        assert np.array_equal(loaded.encoder.embedding_table, model.encoder.embedding_table)
        assert np.array_equal(loaded.encoder.context_weights, model.encoder.context_weights)
        assert np.array_equal(loaded.head.weights, model.head.weights)
        assert np.array_equal(loaded.head.bias, model.head.bias)
        assert loaded.labels == model.labels
        assert loaded.encoder.vocab == model.encoder.vocab

    def test_reserialization_byte_identical(self, tmp_path):
        model = _linear_model()
        first = checkpoint.dumps(model)
        second = checkpoint.dumps(checkpoint.from_document(checkpoint.to_document(model)))
        assert first == second

    def test_prototype_head_has_no_arrays(self):
        doc = checkpoint.to_document(_proto_model())
        assert doc["head"]["kind"] == "prototype"
        assert "weights" not in doc["head"]
        loaded = checkpoint.from_document(doc)
        assert loaded.head is None

    def test_unknown_version_rejected(self):
        doc = checkpoint.to_document(_linear_model())
        doc["format_version"] = 99
        with pytest.raises(DataError):
            checkpoint.from_document(doc)

    def test_failed_replace_leaves_existing_checkpoint_intact(self, tmp_path, monkeypatch):
        path = tmp_path / "model.json"
        checkpoint.save(_linear_model(seed=0), path)
        before = path.read_bytes()

        def failing_replace(src, dst):
            raise OSError("simulated failure")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError):
            checkpoint.save(_linear_model(seed=1), path)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("replace_fails", [False, True])
    def test_existing_tmp_file_untouched(self, tmp_path, monkeypatch, replace_fails):
        path = tmp_path / "model.json"
        theirs = tmp_path / "model.json.tmp"
        theirs.write_bytes(b"someone else's file\n")
        if replace_fails:

            def failing_replace(src, dst):
                raise OSError("simulated failure")

            monkeypatch.setattr(os, "replace", failing_replace)
            with pytest.raises(OSError):
                checkpoint.save(_linear_model(), path)
            assert sorted(tmp_path.iterdir()) == [theirs]
        else:
            checkpoint.save(_linear_model(), path)
            assert sorted(tmp_path.iterdir()) == [path, theirs]
        assert theirs.read_bytes() == b"someone else's file\n"

    def test_written_file_has_plain_write_mode(self, tmp_path):
        plain = tmp_path / "plain.json"
        plain.write_text("{}", encoding="utf-8")
        path = tmp_path / "model.json"
        checkpoint.save(_linear_model(), path)
        assert path.stat().st_mode == plain.stat().st_mode

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("not json at all {", encoding="utf-8")
        with pytest.raises(DataError):
            checkpoint.load(path)


class TestModelValidation:
    def test_head_kind_follows_head(self):
        assert _linear_model().head_kind == checkpoint.LINEAR
        assert _proto_model().head_kind == checkpoint.PROTOTYPE

    def test_head_shape_checked(self):
        m = _linear_model()
        bad = init_linear_head(2, m.encoder.hidden_dim, seed=3)
        with pytest.raises(ValueError):
            checkpoint.Model(m.encoder, m.labels, bad)


_DELETE = object()


def _get(doc: dict, path: str):
    for key in path.split("."):
        doc = doc[key]
    return doc


def _set(doc: dict, path: str, value) -> dict:
    """A deep copy of doc with the dotted path set to value (removed for
    _DELETE)."""
    doc = copy.deepcopy(doc)
    parent, _, last = path.rpartition(".")
    node = _get(doc, parent) if parent else doc
    if value is _DELETE:
        del node[last]
    else:
        node[last] = value
    return doc


_FIELDS = [
    "format_version",
    "embed_dim",
    "hidden_dim",
    "vocab",
    "embedding_table",
    "context_weights",
    "context_bias",
    "labels",
    "labels.entity_types",
    "labels.schema",
    "head",
    "head.kind",
    "head.tags",
    "head.weights",
    "head.bias",
]
_ARRAYS = ["embedding_table", "context_weights", "context_bias", "head.weights", "head.bias"]


class TestDocumentValidation:
    """Every malformed document ends as DataError, every non-finite
    parameter as NumericError, never as another exception."""

    @pytest.fixture
    def doc(self):
        return checkpoint.to_document(_linear_model())

    @pytest.mark.parametrize("path", _FIELDS)
    def test_missing_field(self, doc, path):
        with pytest.raises(DataError):
            checkpoint.from_document(_set(doc, path, _DELETE))

    @pytest.mark.parametrize("path", _FIELDS)
    @pytest.mark.parametrize("value", [None, True, "x", 2.5, {}, [["x"]]])
    def test_mistyped_field(self, doc, path, value):
        with pytest.raises(DataError):
            checkpoint.from_document(_set(doc, path, value))

    @pytest.mark.parametrize("path", _ARRAYS)
    def test_wrong_shape(self, doc, path):
        value = _get(doc, path)
        with pytest.raises(DataError, match="shape"):
            checkpoint.from_document(_set(doc, path, value[:-1]))
        with pytest.raises(DataError):
            checkpoint.from_document(_set(doc, path, [value, value]))

    @pytest.mark.parametrize("path", _ARRAYS)
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_parameter(self, doc, path, bad):
        array = np.array(_get(doc, path), dtype=float)
        array.flat[array.size // 2] = bad
        with pytest.raises(NumericError, match=path):
            checkpoint.from_document(_set(doc, path, array.tolist()))

    def test_ragged_array(self, doc):
        ragged = [row[:-1] if i == 1 else row for i, row in enumerate(doc["embedding_table"])]
        with pytest.raises(DataError, match="embedding_table"):
            checkpoint.from_document(_set(doc, "embedding_table", ragged))

    @pytest.mark.parametrize("reserved", [PAD, UNK])
    def test_vocab_needs_reserved_entries(self, doc, reserved):
        vocab = [w if w != reserved else "other" for w in doc["vocab"]]
        with pytest.raises(DataError, match="vocabulary"):
            checkpoint.from_document(_set(doc, "vocab", vocab))

    @pytest.mark.parametrize("word", [PAD, UNK, "beta"])
    def test_vocab_repeating_a_word(self, doc, word):
        vocab = doc["vocab"] + [word]
        table = doc["embedding_table"] + [doc["embedding_table"][0]]
        bad = _set(_set(doc, "vocab", vocab), "embedding_table", table)
        message = rf"^checkpoint vocabulary lists '{word}' more than once$"
        with pytest.raises(DataError, match=message):
            checkpoint.from_document(bad)

    def test_not_an_object(self):
        with pytest.raises(DataError):
            checkpoint.from_document([1, 2])

    def test_load_names_the_file(self, tmp_path, doc):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(_set(doc, "vocab", _DELETE)), encoding="utf-8")
        with pytest.raises(DataError, match="broken.json"):
            checkpoint.load(path)
        path.write_text(json.dumps(_set(doc, "context_bias", [float("nan")] * 4)))
        with pytest.raises(NumericError, match="broken.json"):
            checkpoint.load(path)
        with pytest.raises(DataError, match="missing.json"):
            checkpoint.load(tmp_path / "missing.json")
        path.write_bytes(b"\xff\xfe{")
        with pytest.raises(DataError, match="broken.json"):
            checkpoint.load(path)


_words = st.text(st.characters(codec="utf-8", exclude_categories=["Cs"]), min_size=1, max_size=6)
_finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _models(draw):
    words = draw(st.lists(_words.filter(lambda w: w not in (PAD, UNK)), unique=True, max_size=5))
    vocab = (PAD, UNK, *words)
    e, h = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    types = draw(st.lists(_words.filter(lambda w: w != "O"), unique=True, max_size=3))
    labels = LabelSet(tuple(types), draw(st.sampled_from(["BIO", "IO"])))
    encoder = EncoderParams(
        vocab,
        e,
        h,
        draw(arrays(float, (len(vocab), e), elements=_finite)),
        draw(arrays(float, (h, 3 * e), elements=_finite)),
        draw(arrays(float, (h,), elements=_finite)),
    )
    if draw(st.booleans()):
        n = len(labels.tag_vocabulary)
        head = LinearHead(
            draw(arrays(float, (n, h), elements=_finite)),
            draw(arrays(float, (n,), elements=_finite)),
        )
        return checkpoint.Model(encoder, labels, head)
    return checkpoint.Model(encoder, labels)


class TestRoundTripProperties:
    @settings(max_examples=100, deadline=None)
    @given(_models())
    def test_dumps_from_document_dumps_is_byte_identical(self, model):
        text = checkpoint.dumps(model)
        assert checkpoint.dumps(checkpoint.from_document(json.loads(text))) == text
