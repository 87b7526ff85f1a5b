import os

import numpy as np
import pytest

from fewner import checkpoint
from fewner.corpus import LabelSet
from fewner.encoder import init_encoder
from fewner.errors import DataError
from fewner.heads import init_linear_head


def _linear_model(seed=0):
    labels = LabelSet(("LOC", "PER"), "BIO")
    encoder = init_encoder(["alpha", "beta", "gamma"], 3, 4, seed=seed)
    head = init_linear_head(len(labels.tag_vocabulary), 4, seed=seed + 1)
    return checkpoint.Model(encoder, labels, checkpoint.LINEAR, head)


def _proto_model(seed=0):
    labels = LabelSet(("LOC",), "BIO")
    encoder = init_encoder(["alpha"], 2, 3, seed=seed)
    return checkpoint.Model(encoder, labels, checkpoint.PROTOTYPE, None)


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

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("not json at all {", encoding="utf-8")
        with pytest.raises(DataError):
            checkpoint.load(path)


class TestModelValidation:
    def test_linear_needs_head(self):
        m = _linear_model()
        with pytest.raises(ValueError):
            checkpoint.Model(m.encoder, m.labels, checkpoint.LINEAR, None)

    def test_prototype_rejects_head_arrays(self):
        m = _linear_model()
        with pytest.raises(ValueError):
            checkpoint.Model(m.encoder, m.labels, checkpoint.PROTOTYPE, m.head)

    def test_head_shape_checked(self):
        m = _linear_model()
        bad = init_linear_head(2, m.encoder.hidden_dim, seed=3)
        with pytest.raises(ValueError):
            checkpoint.Model(m.encoder, m.labels, checkpoint.LINEAR, bad)

    def test_copy_is_deep_for_arrays(self):
        m = _linear_model()
        c = m.copy()
        c.encoder.embedding_table[0, 0] += 1.0
        assert m.encoder.embedding_table[0, 0] != c.encoder.embedding_table[0, 0]
