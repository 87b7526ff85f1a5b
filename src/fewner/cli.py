"""Command-line interface: every training scheme and evaluation mode as a
subcommand, reproducible from a config file and a seed.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import asdict
from pathlib import Path

from . import checkpoint
from .corpus import parse_conll, sample_fewshot, stats_json, write_conll
from .errors import DataError, NumericError
from .evaluation import evaluate_model, support_prototypes
from .training import SCHEMES, load_config, run_scheme

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

# nominal pipeline stages per scheme, recorded in the run manifest
STAGES = {
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


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(EXIT_USAGE)


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror}") from exc


def _read_corpus(path: str, schema: str):
    return parse_conll(_read_text(path), schema)


def _read_unlabeled(path: str) -> list[tuple[str, ...]]:
    sentences = []
    for line in _read_text(path).splitlines():
        tokens = tuple(line.split())
        if tokens:
            sentences.append(tokens)
    return sentences


def _digest(path: str) -> str:
    try:
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror}") from exc


def cmd_stats(args) -> int:
    corpus = _read_corpus(args.conll, args.schema)
    print(stats_json(corpus))
    return EXIT_OK


def cmd_sample(args) -> int:
    corpus = _read_corpus(args.conll, args.schema)
    sub = sample_fewshot(corpus, args.shots, args.seed)
    checkpoint.write_atomic(args.out, write_conll(sub))
    return EXIT_OK


def cmd_train(args) -> int:
    if "nsp" in args.scheme and not args.source:
        raise UsageError(f"scheme {args.scheme} requires --source")
    if args.scheme.endswith("st") and args.unlabeled is None:
        raise UsageError(f"scheme {args.scheme} requires --unlabeled")

    config = load_config(args.config)
    if args.seed is not None:
        config = config.with_(seed=args.seed)
    config = config.with_(scheme=args.scheme)

    inputs = {"config": args.config, "train": args.train}
    if args.source:
        inputs["source"] = args.source
    if args.unlabeled is not None:
        inputs["unlabeled"] = args.unlabeled
    digests = {name: _digest(path) for name, path in inputs.items()}

    train_corpus = _read_corpus(args.train, args.schema)
    source_corpus = _read_corpus(args.source, args.schema) if args.source else None
    unlabeled = _read_unlabeled(args.unlabeled) if args.unlabeled is not None else None
    source_config = load_config(args.source_config) if args.source_config else None
    if source_config is not None:
        digests["source_config"] = _digest(args.source_config)
        inputs["source_config"] = args.source_config

    started = time.monotonic()
    model = run_scheme(
        train_corpus,
        config,
        source=source_corpus,
        unlabeled=unlabeled,
        source_config=source_config,
    )
    checkpoint.save(model, args.out)

    manifest = {
        "scheme": args.scheme,
        "stages": STAGES[args.scheme],
        "config": asdict(config),
        "source_config": asdict(source_config) if source_config else None,
        "seeds": {"run": config.seed},
        "inputs": {name: {"path": path, "sha256": digests[name]} for name, path in inputs.items()},
        "checkpoint": args.out,
        "metrics": None,
        "duration_seconds": time.monotonic() - started,
    }
    checkpoint.write_atomic(f"{args.out}.manifest.json", json.dumps(manifest, indent=2))
    return EXIT_OK


def cmd_eval(args) -> int:
    model = checkpoint.load(args.checkpoint)
    if model.head_kind != checkpoint.LINEAR:
        raise DataError(
            "checkpoint has a prototype head, which is rebuilt from support data; "
            "use the protoinfer subcommand"
        )
    test = _read_corpus(args.test, args.gold_schema)
    report = evaluate_model(model, test, schema=args.schema)
    print(json.dumps(report.to_dict(), indent=2))
    return EXIT_OK


def cmd_protoinfer(args) -> int:
    model = checkpoint.load(args.checkpoint)
    support = _read_corpus(args.support, args.gold_schema)
    test = _read_corpus(args.test, args.gold_schema)
    protos = support_prototypes(model.encoder, support, shots=args.shots, seed=args.seed)
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
