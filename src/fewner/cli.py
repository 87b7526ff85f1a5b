"""Command-line interface: every training scheme and evaluation mode as a
subcommand, reproducible from a config file and a seed.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric error.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import hashlib
import json
import os
import sys
import tempfile
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import checkpoint
from .corpus import parse_conll, sample_fewshot, stats_json, write_conll
from .errors import DataError, NumericError
from .evaluation import evaluate_model, support_prototypes
from .training import SCHEMES, load_config, run_scheme, scheme_inputs, scheme_stages

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(EXIT_USAGE)


@contextlib.contextmanager
def _writing(path: str):
    """A failed write of path as a DataError naming path, not its temporary file."""
    try:
        yield
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc.strerror}") from exc


def _check_writable(path: str) -> None:
    """Raise now the DataError that a later atomic write of path would raise
    for a missing directory or a directory in the way; nothing is left
    behind and a file already at path is not touched."""
    with _writing(path):
        if Path(path).is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        tempfile.TemporaryFile(dir=Path(path).parent).close()


def _read_corpus(path: str, schema: str):
    return parse_conll(checkpoint.read_text(path), schema)


def _unlabeled(text: str, path: str) -> list[tuple[str, ...]]:
    """The text's non-blank lines as token tuples; a file without one is a
    DataError, so a self-training scheme never falls back to plain training."""
    sentences = [tokens for line in text.splitlines() if (tokens := tuple(line.split()))]
    if not sentences:
        raise DataError(f"{path}: no unlabeled sentences")
    return sentences


def _shots(args) -> int:
    if args.shots < 1:
        raise DataError(f"--shots must be positive, got {args.shots}")
    return args.shots


def _seed(args) -> int | None:
    if args.seed is not None and args.seed < 0:
        raise DataError(f"--seed must be >= 0, got {args.seed}")
    return args.seed


def _require_out(args) -> None:
    """Checked before any input is read: an empty --out is a usage error,
    like an empty input path, not the current directory."""
    if not args.out:
        raise UsageError("--out must name a file")


def cmd_stats(args) -> int:
    corpus = _read_corpus(args.conll, args.schema)
    print(stats_json(corpus))
    return EXIT_OK


def cmd_sample(args) -> int:
    _require_out(args)
    shots, seed = _shots(args), _seed(args)
    corpus = _read_corpus(args.conll, args.schema)
    sub = sample_fewshot(corpus, shots, seed)
    with _writing(args.out):
        checkpoint.write_atomic(args.out, write_conll(sub))
    return EXIT_OK


def cmd_train(args) -> int:
    # only the inputs the scheme's stages read are checked, read and hashed;
    # an empty path counts as a missing one
    needed = scheme_inputs(args.scheme)
    for name in needed:
        if not getattr(args, name):
            raise UsageError(f"scheme {args.scheme} requires --{name}")
    _require_out(args)

    seed = _seed(args)
    for path in (args.out, f"{args.out}.manifest.json"):
        _check_writable(path)  # a long run must not end in a write bound to fail
    inputs = {}  # each input is read once, in manifest order, and hashed from that read

    def read(name: str) -> str:
        text = checkpoint.read_text(path := getattr(args, name), digest := hashlib.sha256())
        inputs[name] = {"path": path, "sha256": digest.hexdigest()}
        return text

    config = load_config(read("config"), args.config).with_(scheme=args.scheme)
    if seed is not None:
        config = config.with_(seed=seed)
    train_corpus = parse_conll(read("train"), args.schema)
    source_corpus = parse_conll(read("source"), args.schema) if "source" in needed else None
    unlabeled = _unlabeled(read("unlabeled"), args.unlabeled) if "unlabeled" in needed else None
    # the source config only configures the pretrain stage, which reads the source
    pretrain = "source" in needed and args.source_config
    source_config = load_config(read("source_config"), args.source_config) if pretrain else None

    started = time.monotonic()
    model = run_scheme(
        train_corpus,
        config,
        source=source_corpus,
        unlabeled=unlabeled,
        source_config=source_config,
    )
    with _writing(args.out):
        checkpoint.save(model, args.out)

    manifest = {
        "scheme": args.scheme,
        "stages": scheme_stages(args.scheme, config.lambda_u, len(unlabeled or ())),
        "config": asdict(config),
        "source_config": asdict(source_config) if source_config else None,
        "seeds": {"run": config.seed},
        "inputs": inputs,
        "checkpoint": args.out,
        "metrics": None,
        "duration_seconds": time.monotonic() - started,
    }
    manifest_path = f"{args.out}.manifest.json"
    with _writing(manifest_path):
        checkpoint.write_atomic(manifest_path, json.dumps(manifest, indent=2))
    return EXIT_OK


def cmd_eval(args) -> int:
    model = checkpoint.load(args.checkpoint)
    if model.head is None:
        raise DataError(
            "checkpoint has a prototype head, which is rebuilt from support data; "
            "use the protoinfer subcommand"
        )
    test = _read_corpus(args.test, args.gold_schema)
    report = evaluate_model(model, test, schema=args.schema)
    print(json.dumps(report.to_dict(), indent=2))
    return EXIT_OK


def cmd_protoinfer(args) -> int:
    shots, seed = _shots(args), _seed(args)
    model = checkpoint.load(args.checkpoint)
    support = _read_corpus(args.support, args.gold_schema)
    test = _read_corpus(args.test, args.gold_schema)
    protos = support_prototypes(model.encoder, support, shots=shots, seed=seed)
    report = evaluate_model(
        model,
        test,
        schema=args.schema,
        protos=protos,
        native_schema=support.labels.schema,
    )
    print(json.dumps(report.to_dict(), indent=2))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fewner", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="corpus statistics as JSON")
    p.add_argument("conll", help="CoNLL file (token columns, tag last)")
    p.add_argument("--schema", default="bio", choices=["bio", "io"])
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser("sample", help="few-shot subsample of a corpus")
    p.add_argument("conll")
    p.add_argument("--shots", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--schema", default="bio", choices=["bio", "io"])
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("train", help="train a scheme, write checkpoint + manifest")
    p.add_argument("scheme", choices=list(SCHEMES))
    p.add_argument("--config", required=True, help="JSON config; seed mandatory")
    p.add_argument("--train", required=True, help="labeled target CoNLL file")
    p.add_argument("--source", help="source CoNLL file (nsp schemes)")
    p.add_argument(
        "--unlabeled",
        help="unlabeled text for st schemes, one whitespace-tokenized sentence per line",
    )
    p.add_argument("--source-config", help="separate config for the pre-training stage")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--schema", default="bio", choices=["bio", "io"])
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="entity-level F1 of a checkpoint on a test file")
    p.add_argument("checkpoint")
    p.add_argument("test")
    p.add_argument("--schema", default="bio", choices=["bio", "io"], help="scoring schema")
    p.add_argument("--gold-schema", default="bio", choices=["bio", "io"])
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser(
        "protoinfer", help="training-free prototype inference from a support file"
    )
    p.add_argument("checkpoint")
    p.add_argument("--support", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--shots", type=int, required=True, help="examples per type (K)")
    p.add_argument("--seed", type=int, default=0, help="centroid clustering seed")
    p.add_argument("--schema", default="bio", choices=["bio", "io"], help="scoring schema")
    p.add_argument("--gold-schema", default="bio", choices=["bio", "io"])
    p.set_defaults(fn=cmd_protoinfer)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # numpy's floating-point warnings stay off stderr: a run that overflows
        # but keeps finite gradients succeeds quietly, and one that does not
        # ends in its NumericError's one line
        with np.errstate(all="ignore"):
            return args.fn(args)
    except UsageError as exc:
        print(f"fewner: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"fewner: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"fewner: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
