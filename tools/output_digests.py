"""SHA-256 digests of fewner's user-visible outputs, for byte-identity checks.

Prints one ``name sha256`` line per output:

* the checkpoint text (``checkpoint.dumps``) of every scheme through
  ``run_scheme``, with and without a source config, with BIO and IO
  corpora, on seeds 0-2, and of the linear schemes without a pretrain
  stage (``FROZEN_SCHEMES``) with ``freeze_encoder`` set, where only the
  head trains;
* the checkpoint text where a self-training scheme stops at its teacher:
  ``lc+st`` and ``lc+nsp+st`` through ``run_scheme`` with ``lambda_u`` 0 and
  with no unlabeled sentences, and ``self_train`` warm-started from a
  source-trained encoder, on seeds 0-2;
* the stdout of ``fewner stats``, ``eval`` (BIO and IO scoring) and
  ``protoinfer``, and the checkpoint bytes that ``fewner train`` writes for
  ``lc``, ``proto`` and ``lc+st`` (with an ``--unlabeled`` file), on files
  laid out like the cli_infer benchmark workload's, and for ``lc`` on a
  CRLF copy of the config and the train file and on a train file that
  starts with a UTF-8 byte order mark, with its stdout and stderr; and the
  stdout of ``fewner stats`` on a CoNLL file that starts with a byte order
  mark and a ``-DOCSTART-`` line;
* the run manifest of each ``fewner train``, and of ``train lc+st`` with
  ``lambda_u`` 0, whose run stops at its teacher, without its
  ``duration_seconds`` and with the work directory written as ``<dir>``;
* the tag strings ``predict_corpus`` returns for a test corpus, from a
  linear model (by its head and by support prototypes) and a prototype
  model, trained on BIO and on IO corpora, on seeds 0-2; and, set up as
  the episodic_proto benchmark workload is, from a ``proto+nsp`` model
  through the support prototypes of a 20-shot sample with ``shots=10``
  (2 centroids per tag) on ``transfer_benchmark(seed, n_test=1000).test``,
  which spans 15 encoder blocks, on seeds 0-2; and from an ``lc`` model whose
  head ties (``tie_head``: two zero rows and two equal rows) on a test
  corpus of 5 encoder blocks, on seeds 0-2, and the ``fewner eval`` stdout of
  the ``lc`` checkpoint with its head tied the same way, so the label an
  exact tie goes to is pinned; and from the same ``lc`` models' support
  prototypes (a 5-shot sample, ``shots=5``) on the same test corpora, with
  each ``I-X`` label given a copy of ``B-X``'s centroids (``tie_protos``), so
  the two tie exactly wherever either is nearest, on seeds 0-2; and from an
  ``lc`` model (by its head and by
  support prototypes) whose encoder drives prediction's projection-table
  gate: NaN in an embedding row the test reads (the error text), NaN in a
  row it does not read, and context weights scaled past the gate, on seeds
  0-2; and from the same ``lc`` models by their head with context weights
  scaled to a gate sum of 1e100 (``f32_clip``): far under 1e300, but past
  the projection tables' slack gate, so every block is encoded exactly with
  no certificate asked, on seeds 0-2;
* the exit code, stdout and stderr of ``fewner stats`` on small CoNLL files
  (``PARSE_INPUTS``): malformed ones, whose one error line names the bad
  line, and valid ones with unusual layout (``-DOCSTART-`` lines, CR and
  CRLF line ends, tabs, leading and trailing blank runs);
* the per-epoch losses that ``on_epoch`` reports for ``train_linear``, with
  the encoder trained and frozen, and for ``train_prototype``, on seeds 0-2;
* the per-epoch losses and the checkpoint text of ``train_prototype`` on
  ``SKIP_CORPUS``, where some but not all episodes have no in-scope query
  token and take no step (4 of 9 on each of seeds 0-2);
* the ``to_dict()`` JSON of ``entity_f1`` reports under BIO and IO scoring,
  for predictions that include types outside the gold label set and for an
  empty test corpus, and of ``repeated_eval`` on a small ``Experiment``
  (``lc`` on a few-shot sample and ``proto``, whose runs score support
  prototypes);
* the episodes ``sample_episode`` draws for seeds 0-9 from
  ``transfer_benchmark(0).source`` (M, K, K') = (5, 2, 3) and from
  ``make_corpus(60, 4)`` (2, 2, 3), and the DataError texts that carry a
  sampler's count: ``proto`` on ``make_corpus(30, 0)`` with the default
  (K, K') = (5, 15), and a ``sample_fewshot`` request for more shots than
  a type has.

A run that raises DataError or NumericError is digested as its error text,
so refusals are compared too. Only the standard library and numpy are used.

``--src`` defaults to this checkout's ``src/``. To compare it with a
commit, pass ``--against REV``: REV's ``src/`` is extracted with
``git archive`` from the local repository into a temporary directory, both
trees are digested in subprocesses, and the names of the outputs whose
digests differ are printed, followed by the line count of
``fewner/*.py`` in each tree. The exit status is 0 when every output
matches and 1 otherwise:

    python tools/output_digests.py --against HEAD~1
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

SEEDS = (0, 1, 2)
SCHEMES = ("lc", "proto", "lc+nsp", "proto+nsp", "lc+st", "lc+nsp+st")
FROZEN_SCHEMES = ("lc", "lc+st")

# one-token LOC sentences and one with an "O" token: with M = K = K' = 1 an
# episode steps only when its query shares a tag with its support
SKIP_CORPUS = "a B-LOC\n\nb I-LOC\n\nc B-LOC\n\nd I-LOC\n\ne B-LOC\nf O\n"

# name -> (CoNLL text, schema) for the parse digests
PARSE_INPUTS = {
    "one_column": ("EU B-ORG\njusttoken\n", "bio"),
    "one_column_first": ("x\n\na O\n", "bio"),
    "bad_prefix_bio": ("EU S-ORG\n", "bio"),
    "bad_prefix_io": ("a O\n\nEU B-ORG\n", "io"),
    "no_type": ("a O\nb B-\n", "bio"),
    "no_prefix": ("a O\nb ORG\n", "bio"),
    "reserved_type": ("a O\n\nb B-O\n", "bio"),
    "empty_sentence": ("a O\n\n\n\nb O\n", "bio"),
    "empty_sentence_after_docstart": ("a O\n-DOCSTART- -X- O\n\n\nb O\n", "bio"),
    "empty_sentence_before_bad_line": ("a O\n\n\nb\n", "bio"),
    "bad_tag_before_one_column": ("a O\nb X-Y\nc\n", "bio"),
    "one_column_before_bad_tag": ("a O\nc\nb X-Y\n", "bio"),
    "docstart_mid_sentence": ("a B-LOC\n-DOCSTART- -X- O\nb I-LOC\n\nc O\n", "bio"),
    "docstart_only": ("-DOCSTART- -X- O\n\n\n", "bio"),
    "crlf": ("a B-LOC\r\nb O\r\n\r\nc B-PER\r\n", "bio"),
    "cr": ("a B-LOC\rb O\r\rc B-PER\r", "bio"),
    "crlf_empty_sentence": ("a O\r\n\r\n\r\nb O\r\n", "bio"),
    "tabs": ("a\tB-LOC\n\tb\tX\tI-LOC\n\nc\t\tB-PER\n", "bio"),
    "blank_runs": ("\n \n\t\na O\n\nb I-X\n\n\n\n", "io"),
}


def _sha(text: str | bytes) -> str:
    data = text.encode("utf-8") if isinstance(text, str) else text
    return hashlib.sha256(data).hexdigest()


def _guarded(fewner, fn) -> str:
    """fn()'s text, or the error text of a DataError or NumericError."""
    try:
        return fn()
    except (fewner.DataError, fewner.NumericError) as exc:
        return f"{type(exc).__name__}: {exc}"


def scheme_digests(fewner):
    """Checkpoints of every scheme on a small transfer benchmark."""
    from fewner.checkpoint import dumps
    from fewner.synthetic import transfer_benchmark

    for seed in SEEDS:
        bench = transfer_benchmark(seed, n_source=80, n_train=40, n_test=10, n_unlabeled=30)
        for schema in ("BIO", "IO"):
            labeled = fewner.convert_schema(bench.train, schema)
            source = fewner.convert_schema(bench.source, schema)
            config = fewner.TrainConfig.five_shot(seed=seed, epochs=2)
            source_configs = {
                "default": None,
                "source_config": fewner.TrainConfig(
                    seed=seed, learning_rate=0.05, batch_size=8, epochs=1, K=2, K_prime=3
                ),
            }
            runs = [
                (scheme, variant, config.with_(scheme=scheme), source_config)
                for scheme in SCHEMES
                for variant, source_config in source_configs.items()
            ]
            runs += [
                (scheme, "frozen", config.with_(scheme=scheme, freeze_encoder=True), None)
                for scheme in FROZEN_SCHEMES
            ]
            for scheme, variant, run_config, source_config in runs:
                run = lambda: dumps(
                    fewner.run_scheme(
                        labeled,
                        run_config,
                        source=source,
                        unlabeled=bench.unlabeled,
                        source_config=source_config,
                    )
                )
                name = f"run_scheme/{scheme}/{schema}/{variant}/seed{seed}"
                yield name, _guarded(fewner, run)


def stop_rule_digests(fewner):
    """Checkpoints of the self-training runs that stop at the teacher, and
    of self_train with an init."""
    from fewner.checkpoint import dumps
    from fewner.synthetic import transfer_benchmark

    for seed in SEEDS:
        bench = transfer_benchmark(seed, n_source=80, n_train=40, n_test=10, n_unlabeled=30)
        config = fewner.TrainConfig.five_shot(seed=seed, epochs=2)
        for scheme in ("lc+st", "lc+nsp+st"):
            runs = {
                "lambda0": (config.with_(scheme=scheme, lambda_u=0.0), bench.unlabeled),
                "no_unlabeled": (config.with_(scheme=scheme), []),
            }
            for variant, (run_config, unlabeled) in runs.items():
                run = lambda: dumps(
                    fewner.run_scheme(
                        bench.train, run_config, source=bench.source, unlabeled=unlabeled
                    )
                )
                yield f"stop/{scheme}/{variant}/seed{seed}", _guarded(fewner, run)

        def warm_started() -> str:
            pretrained = fewner.train_linear(bench.source, config)
            model = fewner.self_train(bench.train, bench.unlabeled, config, init=pretrained.encoder)
            return dumps(model)

        yield f"self_train/init/seed{seed}", _guarded(fewner, warm_started)


def prediction_digests(fewner):
    """Predicted tag strings, one line per test sentence."""
    from fewner.evaluation import predict_corpus
    from fewner.synthetic import make_corpus

    for seed in SEEDS:
        train = make_corpus(40, seed * 7919 + 2)
        test = make_corpus(100, seed * 7919 + 3)
        # enough training that every tag of the vocabulary is predicted
        config = fewner.TrainConfig.five_shot(seed=seed, epochs=3, learning_rate=0.05)
        for schema in ("BIO", "IO"):
            labeled = fewner.convert_schema(train, schema)
            support = fewner.sample_fewshot(labeled, 5, seed)
            for scheme in ("lc", "proto"):
                model = fewner.run_scheme(labeled, config.with_(scheme=scheme))
                protos = fewner.support_prototypes(model.encoder, support, shots=5, seed=seed)
                heads = {"head": None, "protos": protos}
                if scheme == "proto":  # a prototype model has no head to predict with
                    del heads["head"]
                for head, head_protos in heads.items():
                    tags = lambda: "\n".join(
                        " ".join(t) for t in predict_corpus(model, test.sentences, head_protos)
                    )
                    yield f"predict/{scheme}_{head}/{schema}/seed{seed}", _guarded(fewner, tags)


def tie_head(head) -> None:
    """Tie a linear head in place: rows 1 and 2 become zero (with zero
    bias) and the last row a copy of row 0."""
    head.weights[[1, 2]] = 0.0
    head.bias[[1, 2]] = 0.0
    head.weights[-1], head.bias[-1] = head.weights[0], head.bias[0]


def tie_protos(protos):
    """protos with each I-X label's centroids replaced by a copy of B-X's,
    where the set has both."""
    from fewner.heads import PrototypeSet

    cents = dict(protos.entries)
    tied = lambda t, c: cents.get(f"B-{t[2:]}", c).copy() if t.startswith("I-") else c
    return PrototypeSet([(t, tied(t, c)) for t, c in cents.items()])


def linear_tie_digests(fewner):
    """Predicted tag strings of lc models whose heads tie, and of their
    support prototypes with tie_protos' ties, on 5 blocks."""
    from fewner.evaluation import predict_corpus
    from fewner.synthetic import make_corpus

    for seed in SEEDS:
        train = make_corpus(40, seed * 7919 + 2)
        test = make_corpus(300, seed * 7919 + 3)
        config = fewner.TrainConfig.five_shot(seed=seed, epochs=3, learning_rate=0.05)

        def tags() -> str:
            model = fewner.run_scheme(train, config)
            tie_head(model.head)
            return "\n".join(" ".join(t) for t in predict_corpus(model, test.sentences))

        def proto_tags() -> str:
            model = fewner.run_scheme(train, config)
            support = fewner.sample_fewshot(train, 5, seed)
            protos = fewner.support_prototypes(model.encoder, support, shots=5, seed=seed)
            predicted = predict_corpus(model, test.sentences, tie_protos(protos))
            return "\n".join(" ".join(t) for t in predicted)

        yield f"predict/linear_ties/seed{seed}", _guarded(fewner, tags)
        yield f"predict/proto_ties/seed{seed}", _guarded(fewner, proto_tags)


def gate_digests(fewner):
    """Predicted tag strings (or the error text) of lc models, by their head
    and by support prototypes, where the encoder drives prediction's
    projection-table gate: NaN in an embedding row the test reads, NaN in a
    row it does not read, and context weights scaled so that
    max|E| max_j ||W_j||_1 over the rows it reads is 2e300; and by the head
    alone with that sum at 1e100 (f32_clip), also past the slack gate, so
    that every block is encoded exactly with no certificate asked."""
    from fewner.checkpoint import Model
    from fewner.evaluation import predict_corpus
    from fewner.synthetic import make_corpus

    for seed in SEEDS:
        train = make_corpus(40, seed * 7919 + 2)
        test = make_corpus(100, seed * 7919 + 3)
        config = fewner.TrainConfig.five_shot(seed=seed, epochs=3, learning_rate=0.05)
        model = fewner.run_scheme(train, config)
        support = fewner.sample_fewshot(train, 5, seed)
        protos = fewner.support_prototypes(model.encoder, support, shots=5, seed=seed)
        index = {w: i for i, w in enumerate(model.encoder.vocab)}
        words = {t for s in test.sentences for t in s.tokens}
        read = sorted({0, *(index.get(w, 1) for w in words)})  # <PAD>, <UNK> are rows 0, 1
        unread = [i for i in range(len(index)) if i not in read]

        def nan_read(encoder):
            encoder.embedding_table[read[-1]] = float("nan")

        def nan_unread(encoder):
            encoder.embedding_table[unread[0]] = float("nan")

        def scaled(encoder, gate_sum):
            emb = abs(encoder.embedding_table[read]).max()
            encoder.context_weights *= gate_sum / (emb * abs(encoder.context_weights).sum(1).max())

        def tags(change, head_protos) -> str:
            changed = Model(model.encoder.copy(), model.labels, model.head)
            change(changed.encoder)
            predicted = lambda: predict_corpus(changed, test.sentences, head_protos)
            return _guarded(fewner, lambda: "\n".join(" ".join(t) for t in predicted()))

        past_gate = lambda encoder: scaled(encoder, 2e300)
        for name, change in (("nan_read", nan_read), ("nan_unread", nan_unread),
                             ("past_gate", past_gate)):
            for head, head_protos in (("head", None), ("protos", protos)):
                yield f"predict/gate_{name}/{head}/seed{seed}", tags(change, head_protos)
        yield f"predict/f32_clip/seed{seed}", tags(lambda encoder: scaled(encoder, 1e100), None)


def episodic_prediction_digests(fewner):
    """Predicted tag strings of the episodic_proto workload's inference."""
    from fewner.evaluation import predict_corpus
    from fewner.synthetic import transfer_benchmark

    for seed in SEEDS:
        bench = transfer_benchmark(seed, n_test=1000)
        labeled = fewner.sample_fewshot(bench.train, 5, seed)
        support = fewner.sample_fewshot(bench.train, 20, seed)
        config = fewner.TrainConfig.five_shot(
            seed=seed, learning_rate=0.01, scheme="proto+nsp", K=1, K_prime=2
        )
        source_config = fewner.TrainConfig.five_shot(seed=seed, learning_rate=0.05)

        def tags() -> str:
            model = fewner.run_scheme(
                labeled, config, source=bench.source, source_config=source_config
            )
            protos = fewner.support_prototypes(model.encoder, support, shots=10, seed=seed)
            predicted = predict_corpus(model, bench.test.sentences, protos)
            return "\n".join(" ".join(t) for t in predicted)

        yield f"predict/episodic_proto/seed{seed}", _guarded(fewner, tags)


def loss_digests(fewner):
    """The epoch and loss of each on_epoch call, one line per epoch, and the
    checkpoints of the runs on SKIP_CORPUS."""
    from fewner.checkpoint import dumps
    from fewner.synthetic import make_corpus

    for seed in SEEDS:
        corpus = make_corpus(40, seed * 7919 + 7)
        config = fewner.TrainConfig.five_shot(seed=seed, epochs=3, learning_rate=0.05)
        runs = {
            "linear": (fewner.train_linear, config),
            "linear_frozen": (fewner.train_linear, config.with_(freeze_encoder=True)),
            "prototype": (fewner.train_prototype, config),
        }
        for name, (train, run_config) in runs.items():

            def losses() -> str:
                lines = []
                train(corpus, run_config, on_epoch=lambda e, loss: lines.append(f"{e} {loss!r}"))
                return "\n".join(lines)

            yield f"losses/{name}/seed{seed}", _guarded(fewner, losses)

    skips = fewner.parse_conll(SKIP_CORPUS)
    for seed in SEEDS:
        config = fewner.TrainConfig.five_shot(
            seed=seed, epochs=3, learning_rate=0.05, M=1, K=1, K_prime=1
        )
        lines = []
        on_epoch = lambda e, loss: lines.append(f"{e} {loss!r}")
        run = lambda: dumps(fewner.train_prototype(skips, config, on_epoch=on_epoch))
        checkpoint = _guarded(fewner, run)
        yield f"losses/prototype_skips/seed{seed}", "\n".join(lines)
        yield f"checkpoint/prototype_skips/seed{seed}", checkpoint


def sampling_digests(fewner):
    """Episode draws and the sampler errors that carry a count."""
    from fewner.checkpoint import dumps
    from fewner.synthetic import make_corpus, transfer_benchmark
    from fewner.training import sample_episode

    corpora = {
        "transfer_source": (transfer_benchmark(0).source, (5, 2, 3)),
        "corpus60": (make_corpus(60, 4), (2, 2, 3)),
    }
    for name, (corpus, (m, k, k_query)) in corpora.items():
        for seed in range(10):
            draw = lambda: repr(sample_episode(corpus, m, k, k_query, seed))
            yield f"sample/episode/{name}/seed{seed}", _guarded(fewner, draw)
    small = make_corpus(30, 0)
    run = lambda: dumps(fewner.run_scheme(small, fewner.TrainConfig(seed=0, scheme="proto")))
    yield "sample/error/proto_default_episodes", _guarded(fewner, run)
    shots = lambda: fewner.write_conll(fewner.sample_fewshot(small, 20, 0))
    yield "sample/error/fewshot_too_many_shots", _guarded(fewner, shots)


def cli_digests(fewner, workdir: Path):
    """The CLI on cli_infer-style files: stats, sample, train, eval, protoinfer."""
    from fewner import cli
    from fewner.synthetic import make_corpus, transfer_benchmark

    def run(argv: list[str]) -> str:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        # error lines name files; the temporary directory differs between runs
        return f"exit {code}\n{out.getvalue()}{err.getvalue()}".replace(str(workdir), "<dir>")

    def manifest(out: str) -> str:
        """out's run manifest without the run's wall time."""
        fields = json.loads(Path(f"{out}.manifest.json").read_text(encoding="utf-8"))
        del fields["duration_seconds"]
        return json.dumps(fields, indent=2).replace(str(workdir), "<dir>")

    bom_docstart = workdir / "bom_docstart.conll"
    bom_docstart.write_bytes("\ufeff-DOCSTART- -X- -X- O\n\nEU B-ORG\nrejects O\n".encode("utf-8"))
    yield "cli/stats_bom_docstart", run(["stats", str(bom_docstart)])
    for seed in SEEDS:
        d = workdir / f"seed{seed}"
        d.mkdir()
        bench = transfer_benchmark(seed)
        config = {"seed": seed, "learning_rate": 0.01, "batch_size": 4, "K": 2, "K_prime": 3}
        files = {
            "train.conll": fewner.write_conll(bench.train),
            "test.conll": fewner.write_conll(make_corpus(300, seed * 7919 + 5)),
            "config.json": json.dumps(config),
            "config_lambda0.json": json.dumps({**config, "lambda_u": 0.0}),
            "unlabeled.txt": "".join(" ".join(tokens) + "\n" for tokens in bench.unlabeled),
        }
        # the manifest hashes a file's bytes, whatever its line ends or BOM
        files["config_crlf.json"] = json.dumps(config, indent=2).replace("\n", "\r\n")
        files["train_crlf.conll"] = files["train.conll"].replace("\n", "\r\n")
        files["train_bom.conll"] = "\ufeff" + files["train.conll"]
        for name, text in files.items():
            (d / name).write_bytes(text.encode("utf-8"))
        p = lambda name: str(d / name)
        tag = f"seed{seed}"
        yield f"cli/stats/{tag}", run(["stats", p("test.conll")])
        yield f"cli/stats_io/{tag}", run(["stats", p("train.conll"), "--schema", "io"])
        sample = ["sample", p("train.conll"), "--shots", "20", "--seed", str(seed)]
        yield f"cli/sample20/{tag}", run([*sample, "--out", p("support.conll")])
        yield f"cli/sample20_file/{tag}", (d / "support.conll").read_text(encoding="utf-8")
        train = ["--config", p("config.json"), "--train", p("train.conll")]
        extra = {"lc": [], "proto": [], "lc+st": ["--unlabeled", p("unlabeled.txt")]}
        for scheme, inputs in extra.items():
            out = p(f"{scheme}.json")
            argv = ["train", scheme, *train, *inputs, "--out", out]
            yield f"cli/train_{scheme}/{tag}", run(argv)
            yield f"cli/train_{scheme}_checkpoint/{tag}", Path(out).read_bytes()
            yield f"cli/train_{scheme}_manifest/{tag}", manifest(out)
        out = p("lc+st_lambda0.json")
        argv = ["train", "lc+st", "--config", p("config_lambda0.json"), "--train", p("train.conll")]
        run([*argv, "--unlabeled", p("unlabeled.txt"), "--out", out])
        yield f"cli/train_lc+st_lambda0_manifest/{tag}", manifest(out)
        for variant, config_file in (("crlf", "config_crlf.json"), ("bom", "config.json")):
            out = p(f"lc_{variant}.json")
            argv = ["train", "lc", "--config", p(config_file)]
            argv += ["--train", p(f"train_{variant}.conll")]
            yield f"cli/train_lc_{variant}/{tag}", run([*argv, "--out", out])
            yield f"cli/train_lc_{variant}_checkpoint/{tag}", Path(out).read_bytes()
            yield f"cli/train_lc_{variant}_manifest/{tag}", manifest(out)
        yield f"cli/eval/{tag}", run(["eval", p("lc.json"), p("test.conll")])
        yield f"cli/eval_io/{tag}", run(["eval", p("lc.json"), p("test.conll"), "--schema", "io"])
        tied = fewner.load(p("lc.json"))
        tie_head(tied.head)
        fewner.save(tied, p("lc_ties.json"))
        yield f"cli/eval_linear_ties/{tag}", run(["eval", p("lc_ties.json"), p("test.conll")])
        for scheme in ("lc", "proto"):
            argv = ["protoinfer", p(f"{scheme}.json"), "--support", p("support.conll")]
            argv += ["--test", p("test.conll"), "--shots", "20", "--seed", str(seed)]
            yield f"cli/protoinfer_{scheme}/{tag}", run(argv)


def parse_digests(fewner, workdir: Path):
    """fewner stats on each of PARSE_INPUTS: its report or its error line."""
    from fewner import cli

    for name, (text, schema) in PARSE_INPUTS.items():
        path = workdir / f"{name}.conll"
        path.write_bytes(text.encode("utf-8"))  # bytes keep CR and CRLF line ends as given
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["stats", str(path), "--schema", schema])
        yield f"parse/{name}", f"exit {code}\n{out.getvalue()}{err.getvalue()}".replace(
            str(workdir), "<dir>"
        )


def report_digests(fewner):
    """The to_dict() JSON of entity_f1 and repeated_eval reports."""
    import random

    from fewner.synthetic import make_corpus

    def dump(report) -> str:
        return json.dumps(report.to_dict(), indent=2)

    # wrong tags a prediction may hold, "MISC" being outside every gold label set
    wrong = ("O", "B-LOC", "I-LOC", "B-ORG", "I-PER", "B-MISC", "I-MISC")
    for seed in SEEDS:
        gold = make_corpus(60, seed * 7919 + 6)
        rng = random.Random(seed)
        predicted = [
            [rng.choice(wrong) if rng.random() < 0.2 else t for t in s.tags]
            for s in gold.sentences
        ]
        for schema in ("BIO", "IO"):
            run = lambda: dump(fewner.entity_f1(gold, predicted, schema))
            yield f"report/entity_f1/{schema}/seed{seed}", _guarded(fewner, run)
    empty = fewner.TaggedCorpus((), fewner.LabelSet(("LOC", "ORG"), "BIO"))
    for schema in ("BIO", "IO"):
        run = lambda: dump(fewner.entity_f1(empty, [], schema))
        yield f"report/entity_f1_empty/{schema}", _guarded(fewner, run)

    config = fewner.TrainConfig.five_shot(seed=0, epochs=2)
    experiments = {
        "lc_shots5": fewner.Experiment(
            make_corpus(60, 11), make_corpus(30, 12), config.with_(scheme="lc"), shots=5
        ),
        "proto": fewner.Experiment(
            make_corpus(60, 13), make_corpus(30, 14), config.with_(scheme="proto")
        ),
    }
    for name, experiment in experiments.items():
        run = lambda: dump(fewner.repeated_eval(experiment, 2, base_seed=3))
        yield f"report/repeated_eval/{name}", _guarded(fewner, run)


def package_lines(src: str | Path) -> int:
    """The number of lines in the fewner/*.py files under src."""
    return sum(len(f.read_bytes().splitlines()) for f in Path(src, "fewner").glob("*.py"))


def extract(rev: str, dest: str | Path, *paths: str) -> None:
    """Write rev's files under paths (all of them if none) from the local
    repository to dest with git archive; exit with git's message if it fails."""
    git = subprocess.run(["git", "-C", str(REPO), "archive", rev, *paths], capture_output=True)
    if git.returncode:
        raise SystemExit(git.stderr.decode(errors="replace").strip())
    with tarfile.open(fileobj=io.BytesIO(git.stdout)) as tar:
        tar.extractall(dest, filter="data")


def digest_trees(script: str | Path, *srcs: str | Path) -> list[dict[str, str]]:
    """Each src's digests by output name, from `script --src src` run in one
    subprocess per tree; exit if a run fails."""
    runs = [
        subprocess.Popen(
            [sys.executable, str(script), "--src", str(src)], stdout=subprocess.PIPE, text=True
        )
        for src in srcs
    ]
    outputs = [run.communicate()[0] for run in runs]
    if any(run.returncode for run in runs):
        raise SystemExit("a digest run failed")
    return [dict(line.split() for line in out.splitlines()) for out in outputs]


def digest_result(old: dict[str, str], new: dict[str, str]) -> dict:
    """How many of the outputs named in old or new have the same digest in
    both, out of how many, and the sorted names of those that differ."""
    names = old.keys() | new.keys()
    differ = sorted(name for name in names if old.get(name) != new.get(name))
    return {"identical": len(names) - len(differ), "total": len(names), "differ": differ}


def against(src: str, rev: str) -> int:
    """Print the outputs whose digests differ between rev's src/ and src,
    then both trees' package line counts; 1 if any differ, else 0."""
    with tempfile.TemporaryDirectory() as tmp:
        extract(rev, tmp, "src")
        result = digest_result(*digest_trees(__file__, Path(tmp, "src"), src))
        lines = package_lines(Path(tmp, "src")), package_lines(src)
    for name in result["differ"]:
        print(name)
    print(f"{result['identical']} of {result['total']} outputs identical to {rev}")
    print(f"fewner/*.py lines: {lines[0]} at {rev}, {lines[1]} in {src}")
    return 1 if result["differ"] else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--src", default=str(REPO / "src"), help="directory holding the fewner package"
    )
    parser.add_argument("--against", metavar="REV", help="compare --src with REV's src/")
    args = parser.parse_args(argv)
    if args.against:
        return against(args.src, args.against)
    sys.path.insert(0, str(Path(args.src).resolve()))
    import fewner

    python_digests = (
        scheme_digests,
        stop_rule_digests,
        prediction_digests,
        linear_tie_digests,
        gate_digests,
        episodic_prediction_digests,
        loss_digests,
        report_digests,
        sampling_digests,
    )
    for digests in python_digests:
        for name, output in digests(fewner):
            print(name, _sha(output))
    with tempfile.TemporaryDirectory() as tmp:
        for digests in (cli_digests, parse_digests):
            for name, output in digests(fewner, Path(tmp)):
                print(name, _sha(output))
    return 0


if __name__ == "__main__":
    sys.exit(main())
