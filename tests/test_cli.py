import collections
import contextlib
import functools
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fewner

from fewner.cli import main
from fewner.corpus import parse_conll, sample_fewshot, write_conll
from fewner.synthetic import make_corpus

# the manifest's stage strings per scheme, part of the CLI's output format
MANIFEST_STAGES = {
    "lc": ["train_linear"],
    "proto": ["train_prototype"],
    "lc+nsp": ["pretrain:train_linear", "finetune:train_linear"],
    "proto+nsp": ["pretrain:train_prototype", "finetune:train_prototype"],
    "lc+st": ["teacher:train_linear", "soft_labels", "student:train_linear"],
    "lc+nsp+st": [
        "pretrain:train_linear",
        "teacher:train_linear",
        "soft_labels",
        "student:train_linear",
    ],
}

FIXTURE = "EU B-ORG\nrejects O\nBonn B-LOC\n\nMoscow B-LOC\n\n"


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "fixture.conll").write_text(FIXTURE, encoding="utf-8")
    corpus = make_corpus(60, seed=31)
    (tmp_path / "train.conll").write_text(write_conll(corpus), encoding="utf-8")
    test = make_corpus(20, seed=32)
    (tmp_path / "test.conll").write_text(write_conll(test), encoding="utf-8")
    config = {
        "seed": 5,
        "epochs": 2,
        "learning_rate": 0.05,
        "batch_size": 8,
        "embed_dim": 6,
        "hidden_dim": 10,
    }
    (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
    return tmp_path


class TestStats:
    def test_empty_file(self, tmp_path, capsys):
        path = tmp_path / "empty.conll"
        path.write_text("", encoding="utf-8")
        assert main(["stats", str(path)]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats == {
            "sentences": 0,
            "tokens": 0,
            "entity_types": 0,
            "chunks_per_type": {},
        }

    def test_fixture_counts(self, workdir, capsys):
        assert main(["stats", str(workdir / "fixture.conll")]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["sentences"] == 2
        assert stats["tokens"] == 4
        assert stats["chunks_per_type"] == {"LOC": 2, "ORG": 1}

    def test_missing_file(self, tmp_path, capsys):
        missing = tmp_path / "nope.conll"
        assert main(["stats", str(missing)]) == 2
        assert str(missing) in capsys.readouterr().err

    def test_parse_error(self, tmp_path):
        path = tmp_path / "bad.conll"
        path.write_text("justonetoken\n", encoding="utf-8")
        assert main(["stats", str(path)]) == 2

    def test_reserved_type_names_its_line(self, tmp_path, capsys):
        path = tmp_path / "reserved.conll"
        path.write_text("a O\n\nb B-O\n", encoding="utf-8")
        assert main(["stats", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == 'fewner: line 3: tag \'B-O\' has the reserved entity type "O"\n'


class TestSample:
    def test_round_trip(self, workdir):
        out = workdir / "sampled.conll"
        assert (
            main(
                [
                    "sample",
                    str(workdir / "train.conll"),
                    "--shots",
                    "5",
                    "--seed",
                    "3",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        expected = sample_fewshot(
            parse_conll((workdir / "train.conll").read_text()), 5, 3
        )
        assert parse_conll(out.read_text()) == expected
        assert len(expected) <= 5 * len(expected.labels.entity_types)

    def test_byte_identical_given_seed(self, workdir):
        out_a = workdir / "a.conll"
        out_b = workdir / "b.conll"
        base = ["sample", str(workdir / "train.conll"), "--shots", "3", "--seed", "9"]
        assert main(base + ["--out", str(out_a)]) == 0
        assert main(base + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_insufficient_shots(self, workdir, capsys):
        code = main(
            [
                "sample",
                str(workdir / "fixture.conll"),
                "--shots",
                "5",
                "--seed",
                "1",
                "--out",
                str(workdir / "x.conll"),
            ]
        )
        assert code == 2


class TestTrainEval:
    def _train(self, workdir, scheme="lc", extra=()):
        out = workdir / f"{scheme.replace('+', '_')}.ckpt.json"
        code = main(
            [
                "train",
                scheme,
                "--config",
                str(workdir / "config.json"),
                "--train",
                str(workdir / "train.conll"),
                "--out",
                str(out),
                *extra,
            ]
        )
        return code, out

    def test_lc_checkpoint_loadable_and_evaluable(self, workdir, capsys):
        code, ckpt = self._train(workdir)
        assert code == 0
        assert main(["eval", str(ckpt), str(workdir / "test.conll")]) == 0
        report = json.loads(capsys.readouterr().out)
        assert 0.0 <= report["f1"] <= 1.0
        assert set(report["counts"]) == {"gold", "predicted", "correct"}

    def test_manifest_written(self, workdir):
        code, ckpt = self._train(workdir)
        manifest = json.loads((ckpt.parent / f"{ckpt.name}.manifest.json").read_text())
        assert manifest["scheme"] == "lc"
        assert manifest["stages"] == ["train_linear"]
        assert manifest["config"]["seed"] == 5
        assert "sha256" in manifest["inputs"]["train"]
        assert manifest["checkpoint"] == str(ckpt)
        assert manifest["duration_seconds"] >= 0

    def test_deterministic_checkpoints(self, workdir):
        _, first = self._train(workdir)
        data_a = first.read_bytes()
        manifest_a = json.loads((first.parent / f"{first.name}.manifest.json").read_text())
        _, second = self._train(workdir)
        assert second.read_bytes() == data_a
        manifest_b = json.loads((first.parent / f"{first.name}.manifest.json").read_text())
        manifest_a.pop("duration_seconds")
        manifest_b.pop("duration_seconds")
        assert manifest_a == manifest_b

    @pytest.mark.parametrize("scheme", ["lc+st", "lc+nsp+st"])
    @pytest.mark.parametrize("text", ["", "\n \n\t\n"], ids=["empty", "blank_lines"])
    def test_st_with_empty_unlabeled_is_data_error(
        self, workdir, capsys, monkeypatch, scheme, text
    ):
        # an empty pool would make the run plain supervised training, which a
        # self-training scheme never falls back to
        flags = self._scheme_flags(workdir)
        unlabeled = workdir / "unlabeled.txt"
        unlabeled.write_text(text, encoding="utf-8")
        out = workdir / "old.json"
        out.write_text("old checkpoint", encoding="utf-8")
        before = sorted(workdir.iterdir())
        trained = lambda *args, **kwargs: pytest.fail("trained without unlabeled sentences")
        monkeypatch.setattr(fewner.cli, "run_scheme", trained)
        train = ["--config", str(workdir / "config.json"), "--train", str(workdir / "train.conll")]
        argv = ["train", scheme, *train, *flags["source"], *flags["unlabeled"], "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"fewner: {unlabeled}: no unlabeled sentences\n"
        assert out.read_text(encoding="utf-8") == "old checkpoint"
        assert sorted(workdir.iterdir()) == before

    def _scheme_flags(self, workdir):
        source = make_corpus(40, seed=33, fine=True)
        (workdir / "source.conll").write_text(write_conll(source), encoding="utf-8")
        unlabeled = make_corpus(30, seed=34).sentences
        (workdir / "unlabeled.txt").write_text(
            "\n".join(" ".join(s.tokens) for s in unlabeled), encoding="utf-8"
        )
        return {
            "source": ["--source", str(workdir / "source.conll")],
            "unlabeled": ["--unlabeled", str(workdir / "unlabeled.txt")],
        }

    @pytest.mark.parametrize("scheme", list(MANIFEST_STAGES))
    def test_pipeline_and_manifest_stages(self, workdir, scheme):
        # episodes small enough for the 40-sentence source corpus
        config = json.loads((workdir / "config.json").read_text())
        config.update(M=2, K=2, K_prime=2)
        (workdir / "config.json").write_text(json.dumps(config), encoding="utf-8")
        flags = self._scheme_flags(workdir)
        # every scheme gets every input; the manifest names only those it reads
        source_config = ["--source-config", str(workdir / "config.json")]
        extra = [*flags["source"], *flags["unlabeled"], *source_config]
        code, ckpt = self._train(workdir, scheme, extra=extra)
        assert code == 0
        manifest = json.loads((ckpt.parent / f"{ckpt.name}.manifest.json").read_text())
        assert manifest["stages"] == MANIFEST_STAGES[scheme]
        pretrain = "nsp" in scheme
        expected = {"config", "train"}
        expected |= {"source", "source_config"} if pretrain else set()
        expected |= {"unlabeled"} if scheme.endswith("st") else set()
        assert set(manifest["inputs"]) == expected
        assert (manifest["source_config"] is not None) == pretrain

    @pytest.mark.parametrize(
        "scheme, stages",
        [
            ("lc+st", ["teacher:train_linear"]),
            ("lc+nsp+st", ["pretrain:train_linear", "teacher:train_linear"]),
        ],
    )
    def test_manifest_lists_the_stages_that_ran(self, workdir, scheme, stages):
        # with lambda_u 0 the soft labels carry no weight: the run stops at the teacher
        config = json.loads((workdir / "config.json").read_text())
        config.update(M=2, K=2, K_prime=2, lambda_u=0.0)
        (workdir / "config.json").write_text(json.dumps(config), encoding="utf-8")
        flags = self._scheme_flags(workdir)
        code, ckpt = self._train(workdir, scheme, extra=[*flags["source"], *flags["unlabeled"]])
        assert code == 0
        manifest = json.loads((ckpt.parent / f"{ckpt.name}.manifest.json").read_text())
        assert manifest["stages"] == stages
        if scheme == "lc+st":  # the teacher is the checkpoint: plain lc training
            assert ckpt.read_bytes() == self._train(workdir)[1].read_bytes()

    @pytest.mark.parametrize("scheme, flag", [("lc+nsp", "source"), ("lc+st", "unlabeled")])
    def test_empty_scheme_input_is_usage_error(self, workdir, capsys, scheme, flag):
        code, ckpt = self._train(workdir, scheme, extra=[f"--{flag}", ""])
        assert code == 1
        assert capsys.readouterr().err == f"fewner: scheme {scheme} requires --{flag}\n"
        assert not ckpt.exists()

    def test_unused_inputs_are_not_read(self, workdir):
        missing = str(workdir / "missing")
        extra = ["--source", missing, "--unlabeled", missing, "--source-config", missing]
        code, ckpt = self._train(workdir, "lc", extra=extra)
        assert code == 0
        assert ckpt.exists()

    @pytest.mark.parametrize("scheme", ["lc", "lc+nsp", "lc+st"])
    def test_each_input_is_read_once(self, workdir, monkeypatch, scheme):
        flags = self._scheme_flags(workdir)
        (workdir / "pretrain.json").write_bytes((workdir / "config.json").read_bytes())
        extra, names = {
            "lc": ([], []),
            "lc+nsp": (
                [*flags["source"], "--source-config", str(workdir / "pretrain.json")],
                ["source.conll", "pretrain.json"],
            ),
            "lc+st": (flags["unlabeled"], ["unlabeled.txt"]),
        }[scheme]
        reads = collections.Counter()
        for method in ("read_bytes", "read_text"):

            def spy(path, *args, _read=getattr(Path, method), **kwargs):
                reads[str(path)] += 1
                return _read(path, *args, **kwargs)

            monkeypatch.setattr(Path, method, spy)
        code, _ = self._train(workdir, scheme, extra=extra)
        monkeypatch.undo()
        assert code == 0
        assert reads == {str(workdir / name): 1 for name in ["config.json", "train.conll", *names]}

    @pytest.mark.parametrize(
        "line_end, prefix",
        [("\n", ""), ("\r\n", ""), ("\r", ""), ("\n", "\ufeff")],
        ids=["lf", "crlf", "cr", "bom"],
    )
    def test_manifest_hashes_the_file_bytes(self, workdir, line_end, prefix):
        train = workdir / "train.conll"
        text = prefix + train.read_text(encoding="utf-8").replace("\n", line_end)
        train.write_bytes(text.encode("utf-8"))
        code, ckpt = self._train(workdir)
        assert code == 0
        manifest = json.loads((ckpt.parent / f"{ckpt.name}.manifest.json").read_text())
        for name, path in [("config", workdir / "config.json"), ("train", train)]:
            assert manifest["inputs"][name] == {
                "path": str(path),
                "sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
            }

    @pytest.mark.parametrize(
        "scheme, missing",
        [
            ("lc+nsp", "source"),
            ("proto+nsp", "source"),
            ("lc+st", "unlabeled"),
            ("lc+nsp+st", "source"),
            ("lc+nsp+st", "unlabeled"),
        ],
    )
    def test_missing_scheme_input_is_usage_error(self, workdir, capsys, scheme, missing):
        flags = self._scheme_flags(workdir)
        del flags[missing]
        code, ckpt = self._train(workdir, scheme, extra=[a for f in flags.values() for a in f])
        assert code == 1
        assert capsys.readouterr().err == f"fewner: scheme {scheme} requires --{missing}\n"
        assert not ckpt.exists()

    @pytest.mark.parametrize(
        "scheme, frozen",
        [("proto", "config"), ("proto+nsp", "config"), ("proto+nsp", "source-config")],
    )
    def test_frozen_prototype_stage_is_data_error(self, workdir, capsys, scheme, frozen):
        config = json.loads((workdir / "config.json").read_text())
        (workdir / "frozen.json").write_text(json.dumps({**config, "freeze_encoder": True}))
        # a repeated --config overrides the one _train passes
        source = self._scheme_flags(workdir)["source"]
        extra = [*source, f"--{frozen}", str(workdir / "frozen.json")]
        code, ckpt = self._train(workdir, scheme, extra=extra)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("fewner: ") and err.count("\n") == 1 and "freeze_encoder" in err
        assert not ckpt.exists()

    def test_seed_override(self, workdir):
        _, base = self._train(workdir)
        out = workdir / "override.ckpt.json"
        main(
            [
                "train",
                "lc",
                "--config",
                str(workdir / "config.json"),
                "--train",
                str(workdir / "train.conll"),
                "--out",
                str(out),
                "--seed",
                "99",
            ]
        )
        assert out.read_bytes() != base.read_bytes()

    def test_extreme_learning_rate_exits_cleanly(self, tmp_path, capsys):
        # the loss is computed in log space, so a softmax that underflows to 0
        # at the gold tag gives a large finite loss, not an uncaught error
        (tmp_path / "train.conll").write_text(
            write_conll(make_corpus(30, seed=0)), encoding="utf-8"
        )
        config = {"seed": 0, "learning_rate": 1e6, "epochs": 2, "batch_size": 4}
        (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
        code = main(
            [
                "train",
                "lc",
                "--config",
                str(tmp_path / "config.json"),
                "--train",
                str(tmp_path / "train.conll"),
                "--out",
                str(tmp_path / "model.json"),
            ]
        )
        assert code in (0, 3)
        assert "Traceback" not in capsys.readouterr().err


class TestProtoinfer:
    def test_k5_single_prototype_inference(self, workdir, capsys):
        out = workdir / "proto.ckpt.json"
        code = main(
            [
                "train",
                "proto",
                "--config",
                str(workdir / "config.json"),
                "--train",
                str(workdir / "train.conll"),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        before = out.read_bytes()
        code = main(
            [
                "protoinfer",
                str(out),
                "--support",
                str(workdir / "train.conll"),
                "--test",
                str(workdir / "test.conll"),
                "--shots",
                "5",
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert 0.0 <= report["f1"] <= 1.0
        assert out.read_bytes() == before  # training-free: checkpoint untouched

    def test_eval_rejects_prototype_checkpoint(self, workdir, capsys):
        out = workdir / "proto.ckpt.json"
        main(
            [
                "train",
                "proto",
                "--config",
                str(workdir / "config.json"),
                "--train",
                str(workdir / "train.conll"),
                "--out",
                str(out),
            ]
        )
        assert main(["eval", str(out), str(workdir / "test.conll")]) == 2
        assert "protoinfer" in capsys.readouterr().err


class TestBadInputs:
    """Invalid configs and shot counts end as one-line data errors."""

    def _assert_data_error(self, code, capsys):
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("fewner: ") and err.count("\n") == 1
        return err

    @pytest.mark.parametrize(
        "config, field",
        [
            ({"seed": 0, "batch_size": 0}, "batch_size"),
            ({"seed": "x"}, "seed"),
            # json.dumps writes these as NaN and Infinity, which json.loads reads back
            ({"seed": 0, "learning_rate": math.nan, "epochs": 1}, "learning_rate"),
            ({"seed": 0, "learning_rate": math.inf, "epochs": 1}, "learning_rate"),
            ({"seed": 0, "lambda_u": math.nan}, "lambda_u"),
            ({"seed": 0, "epochs": -1}, "epochs"),
            ({"seed": 0, "warmup_fraction": 1.5}, "warmup_fraction"),
            # JSON integers too big for a float; train lc never reads lambda_u
            ({"seed": 0, "learning_rate": 10**400}, "learning_rate"),
            ({"seed": 0, "lambda_u": 10**400}, "lambda_u"),
            # context weights of more bytes than numpy can index, refused unallocated
            ({"seed": 0, "embed_dim": 10**20}, "embed_dim"),
            ({"seed": 0, "hidden_dim": 10**20}, "hidden_dim"),
        ],
    )
    def test_invalid_config(self, workdir, capsys, config, field):
        (workdir / "bad.json").write_text(json.dumps(config), encoding="utf-8")
        code = main(
            [
                "train",
                "lc",
                "--config",
                str(workdir / "bad.json"),
                "--train",
                str(workdir / "train.conll"),
                "--out",
                str(workdir / "x.json"),
            ]
        )
        err = self._assert_data_error(code, capsys)
        assert "bad.json" in err and field in err
        assert not (workdir / "x.json").exists()
        assert not (workdir / "x.json.manifest.json").exists()

    @pytest.mark.parametrize("line_end, code", [("\r\n", 0), ("\r", 2)], ids=["crlf", "cr"])
    def test_toml_config_line_ends(self, workdir, capsys, line_end, code):
        # bare CR is not a TOML newline, and the config is parsed as the file holds it
        pytest.importorskip("tomllib")
        config = workdir / "config.toml"
        fields = json.loads((workdir / "config.json").read_text(encoding="utf-8"))
        config.write_bytes("".join(f"{k} = {v}{line_end}" for k, v in fields.items()).encode())
        argv = ["train", "lc", "--config", str(config), "--train", str(workdir / "train.conll")]
        assert main([*argv, "--out", str(workdir / "x.json")]) == code
        if code:
            err = self._assert_data_error(code, capsys)
            assert err.startswith(f"fewner: {config}: invalid config (")
            assert not (workdir / "x.json").exists()

    @pytest.mark.parametrize(
        "scheme, flag, text, message",
        [
            ("proto", "--train", "", "cannot train on an empty corpus"),
            ("proto", "--train", "a O\nb O\n\nc O\n", "corpus has no entity types"),
            ("proto+nsp", "--source", "a O\nb O\n\nc O\n", "corpus has no entity types"),
        ],
    )
    def test_untrainable_corpus(self, workdir, capsys, scheme, flag, text, message):
        (workdir / "bad.conll").write_text(text, encoding="utf-8")
        p = lambda name: str(workdir / name)
        files = {"--train": p("train.conll"), "--source": p("train.conll"), flag: p("bad.conll")}
        argv = ["train", scheme, "--config", p("config.json"), "--out", p("x.json")]
        assert main([*argv, *(a for pair in files.items() for a in pair)]) == 2
        assert capsys.readouterr().err == f"fewner: {message}\n"
        assert not (workdir / "x.json").exists()
        assert not (workdir / "x.json.manifest.json").exists()

    def test_sample_zero_shots(self, workdir, capsys):
        code = main(
            [
                "sample",
                str(workdir / "train.conll"),
                "--shots",
                "0",
                "--seed",
                "1",
                "--out",
                str(workdir / "x.conll"),
            ]
        )
        assert "--shots" in self._assert_data_error(code, capsys)
        assert not (workdir / "x.conll").exists()

    def test_protoinfer_zero_shots(self, workdir, capsys):
        ckpt = workdir / "lc.json"
        args = ["--config", str(workdir / "config.json"), "--train", str(workdir / "train.conll")]
        assert main(["train", "lc", *args, "--out", str(ckpt)]) == 0
        capsys.readouterr()
        code = main(
            [
                "protoinfer",
                str(ckpt),
                "--support",
                str(workdir / "train.conll"),
                "--test",
                str(workdir / "test.conll"),
                "--shots",
                "0",
            ]
        )
        assert "--shots" in self._assert_data_error(code, capsys)


class TestNegativeSeeds:
    """A seed must be >= 0 wherever it comes from; a negative one is a data
    error reported in one line, not a traceback."""

    def _assert_data_error(self, code, capsys, needle):
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("fewner: ") and err.count("\n") == 1
        assert needle in err

    def test_config_seed(self, workdir, capsys):
        (workdir / "neg.json").write_text(json.dumps({"seed": -1}), encoding="utf-8")
        args = ["--train", str(workdir / "train.conll"), "--out", str(workdir / "x.json")]
        code = main(["train", "lc", "--config", str(workdir / "neg.json"), *args])
        self._assert_data_error(code, capsys, "neg.json")
        assert not (workdir / "x.json").exists()

    def test_train_seed_flag(self, workdir, capsys):
        args = ["--train", str(workdir / "train.conll"), "--out", str(workdir / "x.json")]
        code = main(["train", "lc", "--config", str(workdir / "config.json"), *args, "--seed", "-1"])
        self._assert_data_error(code, capsys, "--seed")
        assert not (workdir / "x.json").exists()

    def test_protoinfer_seed_flag(self, workdir, capsys):
        ckpt = workdir / "lc.json"
        args = ["--config", str(workdir / "config.json"), "--train", str(workdir / "train.conll")]
        assert main(["train", "lc", *args, "--out", str(ckpt)]) == 0
        capsys.readouterr()
        support = ["--support", str(workdir / "train.conll"), "--test", str(workdir / "test.conll")]
        code = main(["protoinfer", str(ckpt), *support, "--shots", "5", "--seed", "-1"])
        self._assert_data_error(code, capsys, "--seed")

    def test_sample_seed_flag(self, workdir, capsys):
        out = workdir / "x.conll"
        argv = ["sample", str(workdir / "train.conll"), "--shots", "1", "--out", str(out)]
        self._assert_data_error(main([*argv, "--seed", "-1"]), capsys, "--seed")
        assert not out.exists()


class TestBadCheckpoints:
    """Checkpoints are validated on load: malformed ones exit 2, non-finite
    parameters exit 3, each with one line naming the file."""

    @pytest.fixture
    def doc(self, workdir):
        args = ["--config", str(workdir / "config.json"), "--train", str(workdir / "train.conll")]
        assert main(["train", "lc", *args, "--out", str(workdir / "lc.json")]) == 0
        return json.loads((workdir / "lc.json").read_text(encoding="utf-8"))

    def _run(self, workdir, capsys, doc, command):
        path = workdir / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        if command == "eval":
            code = main(["eval", str(path), str(workdir / "test.conll")])
        else:
            support = ["--support", str(workdir / "train.conll")]
            test = ["--test", str(workdir / "test.conll")]
            code = main(["protoinfer", str(path), *support, *test, "--shots", "5"])
        err = capsys.readouterr().err
        assert err.startswith("fewner: ") and err.count("\n") == 1
        assert str(path) in err
        return code

    @pytest.mark.parametrize("command", ["eval", "protoinfer"])
    def test_missing_key(self, workdir, capsys, doc, command):
        del doc["vocab"]
        assert self._run(workdir, capsys, doc, command) == 2

    @pytest.mark.parametrize("command", ["eval", "protoinfer"])
    def test_non_finite_parameter(self, workdir, capsys, doc, command):
        doc["context_bias"][0] = float("nan")
        assert self._run(workdir, capsys, doc, command) == 3

    def test_wrong_head_shape(self, workdir, capsys, doc):
        doc["head"]["weights"] = doc["head"]["weights"][1:]
        assert self._run(workdir, capsys, doc, "eval") == 2

    def test_repeated_vocab_word(self, workdir, capsys, doc):
        # a second row for a word would leave one of its rows unused
        word = doc["vocab"][5]
        doc["vocab"].append(word)
        doc["embedding_table"].append(doc["embedding_table"][5])
        path = workdir / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert main(["eval", str(path), str(workdir / "test.conll")]) == 2
        assert capsys.readouterr().err == (
            f"fewner: {path}: checkpoint vocabulary lists {word!r} more than once\n"
        )

    @pytest.mark.parametrize(
        "field, message",
        [
            ("embed_dim", "checkpoint field 'embed_dim' must be positive, got 0"),
            ("tags", "checkpoint tag ordering disagrees with its label set"),
        ],
    )
    def test_invalid_field(self, workdir, capsys, doc, field, message):
        if field == "embed_dim":
            doc["embed_dim"] = 0
        else:
            doc["head"]["tags"].reverse()
        path = workdir / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert main(["eval", str(path), str(workdir / "test.conll")]) == 2
        assert capsys.readouterr().err == f"fewner: {path}: {message}\n"

    def test_missing_file(self, workdir, capsys):
        missing = workdir / "nope.json"
        assert main(["eval", str(missing), str(workdir / "test.conll")]) == 2
        assert str(missing) in capsys.readouterr().err


class TestDeepNesting:
    """A checkpoint or config nested deeper than the JSON and TOML parsers
    recurse (a 4 KB file) ends as a one-line data error naming the file."""

    DEPTH = 2000
    CONFIGS = {
        "deep.json": '{"seed": ' + "[" * DEPTH + "]" * DEPTH + "}",
        "deep.toml": "seed = " + "[" * DEPTH + "]" * DEPTH,
        "deep_table.toml": "seed = " + "{a = " * DEPTH + "1" + "}" * DEPTH,
    }

    def _run(self, capsys, argv, path):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"fewner: {path}: ") and err.count("\n") == 1
        return err

    @pytest.mark.parametrize("command", ["eval", "protoinfer"])
    def test_checkpoint(self, workdir, capsys, command):
        path = workdir / "deep.json"
        path.write_text('{"vocab": ' + "[" * self.DEPTH + "]" * self.DEPTH + "}")
        test = str(workdir / "test.conll")
        argv = {
            "eval": ["eval", str(path), test],
            "protoinfer": ["protoinfer", str(path), "--support", test, "--test", test],
        }[command]
        if command == "protoinfer":
            argv += ["--shots", "1"]
        assert "not a checkpoint file" in self._run(capsys, argv, path)

    @pytest.mark.parametrize("name", list(CONFIGS))
    @pytest.mark.parametrize("flag", ["--config", "--source-config"])
    def test_train_config(self, workdir, capsys, name, flag):
        path = workdir / name
        path.write_text(self.CONFIGS[name], encoding="utf-8")
        out = workdir / "x.json"
        config = str(workdir / "config.json")
        configs = {"--config": config, "--source-config": config, flag: str(path)}
        argv = ["train", "lc+nsp", "--train", str(workdir / "train.conll")]
        argv += ["--source", str(workdir / "train.conll"), "--out", str(out)]
        argv += [item for pair in configs.items() for item in pair]
        assert "invalid config" in self._run(capsys, argv, path)
        assert not out.exists() and not Path(f"{out}.manifest.json").exists()


class TestFileErrors:
    """A missing, directory or non-UTF-8 input file and an unwritable output
    path end as one-line data errors naming the file, not as tracebacks."""

    @pytest.mark.parametrize(
        "command",
        [
            "stats",
            "sample",
            "train",
            "train_unlabeled",
            "train_config",
            "train_source_config",
            "eval",
            "eval_checkpoint",
            "protoinfer",
            "protoinfer_checkpoint",
        ],
    )
    def test_non_utf8_input(self, workdir, capsys, command):
        p = lambda name: str(workdir / name)
        bad = p("latin1.txt")
        (workdir / "latin1.txt").write_bytes(b"caf\xe9 B-LOC\n")
        train = ["--config", p("config.json"), "--train", p("train.conll")]
        if command in ("eval", "protoinfer"):
            assert main(["train", "lc", *train, "--out", p("lc.json")]) == 0
        test = p("test.conll")
        argv = {
            "stats": ["stats", bad],
            "sample": ["sample", bad, "--shots", "1", "--seed", "0", "--out", p("x.conll")],
            "train": ["train", "lc", "--config", p("config.json"), "--train", bad],
            "train_unlabeled": ["train", "lc+st", *train, "--unlabeled", bad],
            "train_config": ["train", "lc", "--config", bad, "--train", p("train.conll")],
            "train_source_config": ["train", "lc+nsp", *train, "--source", p("train.conll")]
            + ["--source-config", bad],
            "eval": ["eval", p("lc.json"), bad],
            "eval_checkpoint": ["eval", bad, test],
            "protoinfer": ["protoinfer", p("lc.json"), "--test", test, "--support", bad],
            "protoinfer_checkpoint": ["protoinfer", bad, "--test", test, "--support", test],
        }[command]
        if command.startswith("train"):
            argv += ["--out", p("x.json")]
        if command.startswith("protoinfer"):
            argv += ["--shots", "1"]
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"fewner: cannot read {bad}: not UTF-8") and err.count("\n") == 1
        assert not (workdir / "x.json").exists() and not (workdir / "x.conll").exists()

    @pytest.mark.parametrize(
        "scheme, flag, target, reason",
        [
            ("lc", "--train", "missing.conll", "No such file or directory"),
            ("lc", "--train", "a_directory", "Is a directory"),
            ("lc+nsp", "--source", "missing.conll", "No such file or directory"),
            ("lc+st", "--unlabeled", "missing.txt", "No such file or directory"),
        ],
    )
    def test_unreadable_train_input(self, workdir, capsys, scheme, flag, target, reason):
        (workdir / "a_directory").mkdir()
        p = lambda name: str(workdir / name)
        files = {"--train": p("train.conll"), flag: p(target)}
        argv = ["train", scheme, "--config", p("config.json"), "--out", p("x.json")]
        assert main([*argv, *(a for pair in files.items() for a in pair)]) == 2
        assert capsys.readouterr().err == f"fewner: cannot read {p(target)}: {reason}\n"
        assert not (workdir / "x.json").exists()
        assert not (workdir / "x.json.manifest.json").exists()

    @pytest.mark.parametrize(
        "scheme, bad, data, missing",
        [
            ("lc+nsp", "--train", b"caf\xe9 B-LOC\n", "--source"),
            ("lc+st", "--train", b"justonetoken\n", "--unlabeled"),
            ("lc+nsp+st", "--source", b"justonetoken\n", "--unlabeled"),
        ],
        ids=["non_utf8_train", "malformed_train", "malformed_source"],
    )
    def test_inputs_are_checked_in_manifest_order(
        self, workdir, capsys, scheme, bad, data, missing
    ):
        # config, train, source, unlabeled: each is read and parsed before the next is read
        (workdir / "bad.conll").write_bytes(data)
        p = lambda name: str(workdir / name)
        files = {"--train": p("train.conll"), "--source": p("train.conll")}
        files.update({bad: p("bad.conll"), missing: p("missing")})
        argv = ["train", scheme, "--config", p("config.json"), "--out", p("x.json")]
        assert main([*argv, *(a for pair in files.items() for a in pair)]) == 2
        err = capsys.readouterr().err
        expected = {
            b"caf\xe9 B-LOC\n": f"fewner: cannot read {p('bad.conll')}: not UTF-8",
            b"justonetoken\n": "fewner: line 1: expected token and tag columns",
        }[data]
        assert err.startswith(expected) and err.count("\n") == 1
        assert not (workdir / "x.json").exists()

    @pytest.mark.parametrize("command", ["train", "sample"])
    @pytest.mark.parametrize(
        "target, reason",
        [("missing/out", "No such file or directory"), ("a_directory", "Is a directory")],
    )
    def test_unwritable_output(self, workdir, capsys, command, target, reason):
        (workdir / "a_directory").mkdir()
        p = lambda name: str(workdir / name)
        out = p(target)
        argv = {
            "train": ["train", "lc", "--config", p("config.json"), "--train", p("train.conll")],
            "sample": ["sample", p("train.conll"), "--shots", "1", "--seed", "0"],
        }[command] + ["--out", out]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"fewner: cannot write {out}: {reason}\n"
        assert not list(Path(out).parent.glob(".*.tmp"))  # no temporary file
        assert not (workdir / "missing").exists()
        assert list((workdir / "a_directory").iterdir()) == []

    @pytest.mark.parametrize(
        "target, blocked, reason",
        [
            ("missing/m.json", "missing/m.json", "No such file or directory"),
            ("a_directory", "a_directory", "Is a directory"),
            ("m.json", "m.json.manifest.json", "Is a directory"),
            pytest.param("m" * 256, "m" * 256, "File name too long", id="name_too_long"),
        ],
    )
    def test_unwritable_train_output_found_before_training(
        self, workdir, capsys, monkeypatch, target, blocked, reason
    ):
        (workdir / "a_directory").mkdir()
        (workdir / "m.json.manifest.json").mkdir()
        before = sorted(workdir.rglob("*"))
        trained = lambda *args, **kwargs: pytest.fail("trained before checking --out")
        monkeypatch.setattr(fewner.cli, "run_scheme", trained)
        p = lambda name: str(workdir / name)
        argv = ["train", "lc", "--config", p("config.json"), "--train", p("train.conll")]
        assert main([*argv, "--out", p(target)]) == 2
        assert capsys.readouterr().err == f"fewner: cannot write {p(blocked)}: {reason}\n"
        assert sorted(workdir.rglob("*")) == before

    @pytest.mark.parametrize("length", [230, 236, 241])
    def test_long_output_name(self, workdir, length):
        # the manifest's name is 14 bytes longer, 255 at most; the temporary
        # files' names do not grow with them
        out = workdir / ("m" * length)
        before = {path.name for path in workdir.iterdir()}
        p = lambda name: str(workdir / name)
        argv = ["train", "lc", "--config", p("config.json"), "--train", p("train.conll")]
        assert main([*argv, "--out", str(out)]) == 0
        fewner.load(out)
        assert {path.name for path in workdir.iterdir()} - before == {
            out.name,
            f"{out.name}.manifest.json",
        }

    @pytest.mark.parametrize("command", ["train", "sample"])
    def test_empty_output_is_usage_error(self, workdir, capsys, monkeypatch, command):
        read = lambda *args, **kwargs: pytest.fail("read an input before checking --out")
        # every read of an input goes through the one reader, which reads the bytes
        monkeypatch.setattr(fewner.checkpoint, "read_text", read)
        monkeypatch.setattr(Path, "read_bytes", read)
        before = sorted(workdir.rglob("*"))
        p = lambda name: str(workdir / name)
        argv = {
            "train": ["train", "lc", "--config", p("config.json"), "--train", p("train.conll")],
            "sample": ["sample", p("train.conll"), "--shots", "1", "--seed", "0"],
        }[command]
        assert main([*argv, "--out", ""]) == 1
        assert capsys.readouterr().err == "fewner: --out must name a file\n"
        assert sorted(workdir.rglob("*")) == before

    def test_output_check_leaves_existing_checkpoint(self, workdir, monkeypatch):
        out = workdir / "old.json"
        out.write_text("old checkpoint", encoding="utf-8")
        mtime = out.stat().st_mtime_ns
        before = sorted(workdir.iterdir())

        def refuse(*args, **kwargs):
            raise fewner.DataError("refused")

        monkeypatch.setattr(fewner.cli, "run_scheme", refuse)
        p = lambda name: str(workdir / name)
        argv = ["train", "lc", "--config", p("config.json"), "--train", p("train.conll")]
        assert main([*argv, "--out", str(out)]) == 2
        assert out.read_text(encoding="utf-8") == "old checkpoint"
        assert out.stat().st_mtime_ns == mtime
        assert sorted(workdir.iterdir()) == before


class TestByteOrderMark:
    """The one reader drops a leading UTF-8 byte order mark, so every input
    reads as its copy without one."""

    BOM = b"\xef\xbb\xbf"

    def test_conll_with_docstart(self, tmp_path, capsys):
        text = b"-DOCSTART- -X- -X- O\n\nEU B-ORG\nrejects O\n"
        stats = []
        for name, data in (("plain.conll", text), ("bom.conll", self.BOM + text)):
            (tmp_path / name).write_bytes(data)
            assert main(["stats", str(tmp_path / name)]) == 0
            stats.append(json.loads(capsys.readouterr().out))
        assert stats[0] == stats[1]
        assert (stats[1]["sentences"], stats[1]["tokens"]) == (1, 2)

    @pytest.mark.parametrize("name", ["config.json", "train.conll", "unlabeled.txt", "model.json"])
    def test_input_reads_as_its_copy_without_bom(self, workdir, capsys, name):
        unlabeled = make_corpus(10, seed=34).sentences
        text = "".join(" ".join(s.tokens) + "\n" for s in unlabeled)
        (workdir / "unlabeled.txt").write_text(text, encoding="utf-8")
        if name != "model.json":
            (workdir / f"bom_{name}").write_bytes(self.BOM + (workdir / name).read_bytes())

        def outputs(bom: str | None) -> tuple[bytes, str]:
            """The lc+st checkpoint and its eval report, the file named bom
            read from its copy with a BOM."""
            p = lambda f: str(workdir / (f"bom_{f}" if f == bom else f))
            argv = ["train", "lc+st", "--config", p("config.json"), "--train", p("train.conll")]
            argv += ["--unlabeled", p("unlabeled.txt"), "--out", str(workdir / "model.json")]
            assert main(argv) == 0
            model = (workdir / "model.json").read_bytes()
            (workdir / "bom_model.json").write_bytes(self.BOM + model)
            capsys.readouterr()
            assert main(["eval", p("model.json"), p("test.conll")]) == 0
            return model, capsys.readouterr().out

        assert outputs(name) == outputs(None)


def _python_m_fewner(argv: list[str]) -> subprocess.CompletedProcess:
    """Run `python -m fewner argv` in a fresh interpreter, which shows every
    warning that pytest would capture."""
    src = str(Path(fewner.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, "-m", "fewner", *argv], capture_output=True, text=True, env=env, timeout=60
    )


def test_python_m_fewner(workdir):
    result = _python_m_fewner(["stats", str(workdir / "fixture.conll")])
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["sentences"] == 2


@pytest.mark.parametrize(
    "learning_rate, code, stderr",
    [
        pytest.param(
            1e308, 3, "fewner: non-finite gradient in parameter block 'head.weights'\n", id="1e308"
        ),
        # every gradient stays finite, but the encoder's pre-activations overflow
        pytest.param(1e300, 3, "fewner: non-finite encoder pre-activation\n", id="1e300"),
    ],
)
def test_overflow_prints_no_numpy_warnings(tmp_path, learning_rate, code, stderr):
    (tmp_path / "train.conll").write_text(write_conll(make_corpus(30, seed=0)), encoding="utf-8")
    config = {"seed": 0, "epochs": 2, "learning_rate": learning_rate}
    (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
    p = lambda name: str(tmp_path / name)
    result = _python_m_fewner(
        ["train", "lc", "--config", p("config.json"), "--train", p("train.conll")]
        + ["--out", p("model.json")]
    )
    assert (result.returncode, result.stderr) == (code, stderr)
    assert not (tmp_path / "model.json").exists()


@pytest.fixture(scope="module")
def diverged(tmp_path_factory):
    """An lc checkpoint trained at learning rate 2e153, and test files. Every
    training window's pre-activations stay finite, so training succeeds,
    but those of the test files' windows overflow."""
    d = tmp_path_factory.mktemp("diverged")
    (d / "train.conll").write_text(write_conll(make_corpus(30, seed=0)), encoding="utf-8")
    for seed in (1, 2, 3):
        test = write_conll(make_corpus(200, seed=seed))
        (d / f"test{seed}.conll").write_text(test, encoding="utf-8")
    config = {"seed": 0, "epochs": 2, "learning_rate": 2e153}
    (d / "config.json").write_text(json.dumps(config), encoding="utf-8")
    train = ["--config", str(d / "config.json"), "--train", str(d / "train.conll")]
    assert main(["train", "lc", *train, "--out", str(d / "model.json")]) == 0
    return d


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("command", ["eval", "protoinfer"])
def test_overflowing_inference_is_numeric_error(diverged, capsys, command, seed):
    model, test = str(diverged / "model.json"), str(diverged / f"test{seed}.conll")
    argv = {
        "eval": ["eval", model, test],
        "protoinfer": ["protoinfer", model, "--support", str(diverged / "train.conll")]
        + ["--test", test, "--shots", "5"],
    }[command]
    capsys.readouterr()
    assert main(argv) == 3
    assert capsys.readouterr() == ("", "fewner: non-finite encoder pre-activation\n")


def test_overflowing_head_is_numeric_error(tmp_path, capsys):
    # a frozen encoder at learning rate 1e308: one epoch leaves every head
    # weight finite, but the head's logit bound past 1e300
    p = lambda name: str(tmp_path / name)
    (tmp_path / "train.conll").write_text(write_conll(make_corpus(30, seed=0)), encoding="utf-8")
    (tmp_path / "test.conll").write_text(write_conll(make_corpus(200, seed=1)), encoding="utf-8")
    unlabeled = "".join(" ".join(s.tokens) + "\n" for s in make_corpus(20, seed=2).sentences)
    (tmp_path / "unlabeled.txt").write_text(unlabeled, encoding="utf-8")
    config = {"seed": 0, "epochs": 1, "learning_rate": 1e308, "freeze_encoder": True}
    (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
    train = ["--config", p("config.json"), "--train", p("train.conll")]
    diverged = ("", "fewner: linear-head logit bound reached 1e+300\n")
    capsys.readouterr()
    assert main(["train", "lc", *train, "--out", p("lc.json")]) == 3
    assert capsys.readouterr() == diverged
    # the teacher stops before it makes soft labels
    st_run = ["train", "lc+st", *train, "--unlabeled", p("unlabeled.txt"), "--out", p("st.json")]
    assert main(st_run) == 3
    assert capsys.readouterr() == diverged
    assert not (tmp_path / "lc.json").exists() and not (tmp_path / "st.json").exists()
    # a checkpoint with finite logits too far apart for the log softmax
    (tmp_path / "config.json").write_text(json.dumps({**config, "learning_rate": 0.01}))
    assert main(["train", "lc", *train, "--out", p("lc.json")]) == 0
    model = fewner.load(p("lc.json"))
    model.head.bias[:] = 1.7e308 * (-1.0) ** np.arange(len(model.head.bias))
    fewner.save(model, p("lc.json"))
    capsys.readouterr()
    assert main(["eval", p("lc.json"), p("test.conll")]) == 3
    assert capsys.readouterr() == ("", "fewner: non-finite linear-head log-probability\n")


@functools.cache
def _contract_files() -> dict[str, str]:
    pool = "".join(" ".join(s.tokens) + "\n" for s in make_corpus(20, seed=2).sentences)
    return {
        "train.conll": write_conll(make_corpus(30, seed=0)),
        "test.conll": write_conll(make_corpus(50, seed=1)),
        "pool.txt": pool,
    }


def _run_main(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _assert_contract(code: int, err: str) -> None:
    """Exit 0 with nothing on stderr, or exit 3 with one `fewner:` line."""
    if code == 0:
        assert err == ""
    else:
        assert code == 3, err
        assert err.startswith("fewner: ") and err.count("\n") == 1 and err.endswith("\n"), err


# the outcome of (scheme, epochs, learning rate) points pinned by @example:
# train's exit code, then the inference command's, or train's stderr
CONTRACT_POINTS = {
    ("lc", 1, 1e200): (0, 3),
    ("lc", 2, 1e308): (3, "fewner: non-finite gradient in parameter block 'head.weights'\n"),
}


@settings(max_examples=10, derandomize=True, deadline=None)
@given(
    st.sampled_from(["lc", "proto", "lc+st"]),
    st.integers(1, 2),
    # log-uniform over whole powers of ten; a float exponent mostly draws 1.0
    st.integers(-8, 308).map(lambda exponent: 10.0**exponent),
)
@example("lc", 1, 1e200)
@example("lc", 2, 1e308)
def test_numeric_contract_through_main(scheme, epochs, learning_rate):
    """At any learning rate, train and then eval (lc, lc+st) or protoinfer
    (proto) exit 0 with empty stderr or 3 with one line, and a failed train
    leaves no checkpoint or manifest."""
    config = {"seed": 0, "epochs": epochs, "learning_rate": learning_rate}
    config.update(embed_dim=8, hidden_dim=16, K=1, K_prime=2)
    with tempfile.TemporaryDirectory() as tmp:
        p = lambda name: str(Path(tmp, name))
        for name, text in _contract_files().items():
            Path(tmp, name).write_text(text, encoding="utf-8")
        Path(tmp, "config.json").write_text(json.dumps(config), encoding="utf-8")
        argv = ["train", scheme, "--config", p("config.json"), "--train", p("train.conll")]
        argv += ["--unlabeled", p("pool.txt")] if scheme == "lc+st" else []
        code, err = _run_main([*argv, "--out", p("model.json")])
        _assert_contract(code, err)
        pinned = CONTRACT_POINTS.get((scheme, epochs, learning_rate))
        if code != 0:
            assert not Path(tmp, "model.json").exists()
            assert not Path(tmp, "model.json.manifest.json").exists()
            assert pinned in (None, (code, err))
            return
        infer = {
            "eval": ["eval", p("model.json"), p("test.conll")],
            "protoinfer": ["protoinfer", p("model.json"), "--support", p("train.conll")]
            + ["--test", p("test.conll"), "--shots", "1"],
        }["protoinfer" if scheme == "proto" else "eval"]
        infer_code, infer_err = _run_main(infer)
        _assert_contract(infer_code, infer_err)
        assert pinned in (None, (code, infer_code))


def test_overflowing_weight_sum_exits_3(tmp_path, capsys):
    """lambda_u 1e308 is finite, but the student's weight sum overflows:
    train lc+st exits 3 before the student's first step and writes nothing."""
    for name, text in _contract_files().items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    config = {"seed": 0, "epochs": 1, "learning_rate": 0.01, "lambda_u": 1e308}
    (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
    before = sorted(tmp_path.iterdir())
    p = lambda name: str(tmp_path / name)
    argv = ["train", "lc+st", "--config", p("config.json"), "--train", p("train.conll")]
    assert main([*argv, "--unlabeled", p("pool.txt"), "--out", p("model.json")]) == 3
    assert capsys.readouterr().err == "fewner: non-finite token weight sum\n"
    assert sorted(tmp_path.iterdir()) == before


class TestUsage:
    def test_unknown_scheme(self, workdir):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "train",
                    "magic",
                    "--config",
                    str(workdir / "config.json"),
                    "--train",
                    str(workdir / "train.conll"),
                    "--out",
                    str(workdir / "x.json"),
                ]
            )
        assert exc.value.code == 1

    def test_no_command(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1


# The robustness gate: valid input files with one mutation each, run through
# every subcommand in process. The config is tiny, so that a duplicated digit
# span (epochs 11, hidden_dim 33, ...) still makes a short run.
GATE_CORPUS = """Paris B-LOC
is O

Acme B-ORG
hires O

Rome B-LOC
and O
Acme B-ORG

Bonn B-LOC
waits O

Globex B-ORG
sells O
"""
GATE_CONFIG = {
    "seed": 1,
    "epochs": 1,
    "batch_size": 2,
    "embed_dim": 2,
    "hidden_dim": 3,
    "M": 2,
    "K": 1,
    "K_prime": 1,
    "learning_rate": 0.1,
}
GATE_FILES = {
    "corpus.conll": GATE_CORPUS.encode(),
    "config.json": json.dumps(GATE_CONFIG).encode(),
    "unlabeled.txt": b"Paris hires Acme\nRome waits\n",
}
# NaN, an overflowing float, a negative number, NUL, a BOM, CR, bytes that
# are not UTF-8 (a stray and a truncated lead byte) and a line break
GATE_INSERTS = (b"NaN", b"1e999", b"-1", b"\x00", b"\xef\xbb\xbf", b"\r", b"\xff", b"\xc3", b"\n")
_TRAIN = ["--config", "config.json", "--train", "corpus.conll", "--out", "out"]
# each command's argv and the files it reads
GATE_COMMANDS = {
    "stats": (["stats", "corpus.conll"], ("corpus.conll",)),
    "sample": (
        ["sample", "corpus.conll", "--shots", "1", "--seed", "0", "--out", "out"],
        ("corpus.conll",),
    ),
    "train lc": (["train", "lc", *_TRAIN], ("config.json", "corpus.conll")),
    "train proto": (["train", "proto", *_TRAIN], ("config.json", "corpus.conll")),
    "train lc+st": (
        ["train", "lc+st", *_TRAIN, "--unlabeled", "unlabeled.txt"],
        ("config.json", "corpus.conll", "unlabeled.txt"),
    ),
    "eval": (["eval", "model.json", "corpus.conll"], ("model.json", "corpus.conll")),
    "protoinfer": (
        ["protoinfer", "model.json", "--support", "corpus.conll", "--test", "corpus.conll"]
        + ["--shots", "1"],
        ("model.json", "corpus.conll"),
    ),
}


def _in_dir(argv: list[str], tmp: str) -> list[str]:
    """argv with the gate's file names as paths in the directory tmp."""
    names = {*GATE_FILES, "model.json", "out"}
    return [str(Path(tmp, arg)) if arg in names else arg for arg in argv]


@functools.cache
def _gate_checkpoint() -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in GATE_FILES.items():
            Path(tmp, name).write_bytes(data)
        argv = ["train", "lc", "--config", "config.json", "--train", "corpus.conll"]
        assert main(_in_dir([*argv, "--out", "model.json"], tmp)) == 0
        return Path(tmp, "model.json").read_bytes()


@st.composite
def _mutated(draw, data: bytes) -> bytes:
    """data with one span deleted or duplicated, or one hostile token inserted."""
    i = draw(st.integers(0, len(data)))
    j = draw(st.integers(i, min(i + 12, len(data))))
    kind = draw(st.sampled_from(["delete", "duplicate", "insert"]))
    if kind == "delete":
        return data[:i] + data[j:]
    if kind == "duplicate":
        return data[:j] + data[i:j] + data[j:]
    return data[:i] + draw(st.sampled_from(GATE_INSERTS)) + data[i:]


class TestRobustnessGate:
    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(st.sampled_from(sorted(GATE_COMMANDS)), st.booleans(), st.data())
    def test_mutated_inputs_fail_cleanly(self, command, out_exists, data):
        argv, reads = GATE_COMMANDS[command]
        files = {**GATE_FILES, "model.json": _gate_checkpoint()}
        target = data.draw(st.sampled_from(reads))
        files[target] = data.draw(_mutated(files[target]))
        with tempfile.TemporaryDirectory() as tmp:
            for name, content in files.items():
                Path(tmp, name).write_bytes(content)
            if out_exists:
                Path(tmp, "out").write_bytes(b"an earlier checkpoint")
            before = {p.name: p.read_bytes() for p in Path(tmp).iterdir()}
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(_in_dir(argv, tmp))
            assert code in (0, 1, 2, 3)
            if code in (2, 3):
                lines = err.getvalue().splitlines()
                assert len(lines) == 1 and lines[0].startswith("fewner: "), err.getvalue()
            if code != 0:  # no file left, made or changed
                assert {p.name: p.read_bytes() for p in Path(tmp).iterdir()} == before
