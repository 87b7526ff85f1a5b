import json

import pytest

from fewner.cli import main
from fewner.corpus import parse_conll, sample_fewshot, write_conll
from fewner.synthetic import make_corpus, strip_tags, transfer_benchmark

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

    def test_st_with_empty_unlabeled_equals_lc(self, workdir, capsys):
        (workdir / "unlabeled.txt").write_text("", encoding="utf-8")
        _, lc = self._train(workdir, "lc")
        code, st = self._train(
            workdir, "lc+st", extra=["--unlabeled", str(workdir / "unlabeled.txt")]
        )
        assert code == 0
        main(["eval", str(lc), str(workdir / "test.conll")])
        lc_report = capsys.readouterr().out
        main(["eval", str(st), str(workdir / "test.conll")])
        st_report = capsys.readouterr().out
        assert lc_report == st_report

    def test_nsp_st_pipeline_and_manifest_stages(self, workdir):
        source = make_corpus(40, seed=33, fine=True)
        (workdir / "source.conll").write_text(write_conll(source), encoding="utf-8")
        unlabeled = strip_tags(make_corpus(30, seed=34))
        (workdir / "unlabeled.txt").write_text(
            "\n".join(" ".join(t) for t in unlabeled), encoding="utf-8"
        )
        code, ckpt = self._train(
            workdir,
            "lc+nsp+st",
            extra=[
                "--source",
                str(workdir / "source.conll"),
                "--unlabeled",
                str(workdir / "unlabeled.txt"),
            ],
        )
        assert code == 0
        manifest = json.loads((ckpt.parent / f"{ckpt.name}.manifest.json").read_text())
        assert manifest["stages"] == [
            "pretrain:train_linear",
            "teacher:train_linear",
            "soft_labels",
            "student:train_linear",
        ]
        assert "source" in manifest["inputs"]

    def test_missing_scheme_input_is_usage_error(self, workdir):
        code, _ = self._train(workdir, "lc+nsp")
        assert code == 1

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
