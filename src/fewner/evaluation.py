"""Tag prediction and entity-level scoring.

Scoring is the conlleval convention: word predictions are turned into
chunks, a predicted chunk is correct only if its type and both boundaries
match a gold chunk, and precision/recall/F1 are micro-averaged over all
chunks (0/0 counts as 0). Chunks are integer (start, end, type) keys over
the corpus's flat token column (corpus.chunk_columns); predictions reach
the scorer as label ids, and tag strings are built only by predict_corpus
and read only by entity_f1. repeated_eval reruns a whole experiment with
shifted seeds and reports mean and sample standard deviation of F1.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from itertools import chain, pairwise

import numpy as np

from .checkpoint import Model
from .corpus import (
    TaggedCorpus,
    WordIds,
    _check_schema,
    chunk_columns,
    sample_fewshot,
    string_columns,
    tag_codes,
    word_ids,
)
from .encoder import EncoderParams, encode_blocks, projected_blocks
from .errors import DataError
from .heads import PrototypeSet, build_multi_prototypes, linear_argmax_head, proto_argmax_head
from .training import TrainConfig, run_scheme


@dataclass(frozen=True)
class TypeScore:
    precision: float
    recall: float
    f1: float
    support: int


@dataclass(frozen=True)
class EvalReport:
    precision: float
    recall: float
    f1: float
    per_type: dict[str, TypeScore]
    counts: tuple[int, int, int]  # gold, predicted, correct

    def to_dict(self) -> dict:
        return {**asdict(self), "counts": dict(zip(("gold", "predicted", "correct"), self.counts))}


@dataclass(frozen=True)
class AggregateReport:
    mean_f1: float
    std_f1: float
    runs: tuple[EvalReport, ...]

    def formatted(self) -> str:
        return f"{self.mean_f1:.3f} ± {self.std_f1:.3f}"

    def to_dict(self) -> dict:
        own = {f.name: getattr(self, f.name) for f in fields(self)}
        return {**own, "runs": [r.to_dict() for r in self.runs]}


def _prf(correct: int, predicted: int, gold: int) -> tuple[float, float, float]:
    precision = correct / predicted if predicted else 0.0
    recall = correct / gold if gold else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def _score(gold, predicted, offsets, type_index: dict[str, int], label_types) -> EvalReport:
    """Micro and per-type P/R/F1 of two chunk_columns inputs over the same
    tokens. Type ids index type_index's names; per_type lists the sorted
    union of label_types and every type with a gold or predicted chunk."""
    g_start, g_end, g_type = chunk_columns(*gold, offsets)
    p_start, p_end, p_type = chunk_columns(*predicted, offsets)
    # chunks do not overlap, so a start names at most one chunk per side;
    # a predicted chunk is correct when its start, end and type all match
    _, gi, pi = np.intersect1d(g_start, p_start, assume_unique=True, return_indices=True)
    hit = gi[(g_end[gi] == p_end[pi]) & (g_type[gi] == p_type[pi])]
    n = len(type_index)
    gold_n, pred_n, correct_n = (
        np.bincount(t, minlength=n).tolist() for t in (g_type, p_type, g_type[hit])
    )
    seen = {t for t, k in type_index.items() if gold_n[k] or pred_n[k]}
    per_type = {}
    for t in sorted(seen | set(label_types)):
        k = type_index[t]
        p, r, f = _prf(correct_n[k], pred_n[k], gold_n[k])
        per_type[t] = TypeScore(p, r, f, gold_n[k])
    totals = (sum(gold_n), sum(pred_n), sum(correct_n))
    p, r, f = _prf(totals[2], totals[1], totals[0])
    return EvalReport(p, r, f, per_type, totals)


def entity_f1(gold: TaggedCorpus, predicted: list[list[str]], schema: str) -> EvalReport:
    """Micro-averaged chunk P/R/F1 of predicted tag sequences against gold."""
    schema = _check_schema(schema)
    if len(predicted) != len(gold):
        raise DataError(f"{len(predicted)} predictions for {len(gold)} sentences")
    for i, (n, tags) in enumerate(zip(np.diff(gold.offsets).tolist(), predicted)):
        if len(tags) != n:
            raise DataError(f"sentence {i}: {len(tags)} predicted tags for {n} tokens")
    type_index = {t: k for k, t in enumerate(gold.labels.entity_types)}
    types, begins = string_columns(list(chain.from_iterable(predicted)), type_index)
    pred = (types, begins if schema == "BIO" else None)
    return _score(gold.columns(schema), pred, gold.offsets, type_index, gold.labels.entity_types)


def _ranking(labels, label_order) -> list[int]:
    """Indices of labels, best rank first: labels in label_order by their
    position there, then labels outside it in their given order."""
    rank = {t: i for i, t in enumerate(label_order)}
    return sorted(range(len(labels)), key=lambda i: rank.get(labels[i], len(rank) + i))


def _predict_ids(
    model: Model, words: WordIds, protos: PrototypeSet | None = None
) -> tuple[tuple[str, ...], np.ndarray]:
    """Labels and, for every token of the word-id column, the index of its
    predicted label among them (see predict_corpus), from one
    encoder.projected_blocks pass. Its certifier and exact scorer, built
    once for the pass, are heads.proto_argmax_head's over the ranked
    prototype labels when protos are given, else heads.linear_argmax_head's,
    whose labels are the tag vocabulary in order."""
    if protos is not None:
        ranked = _ranking(protos.labels, model.labels.tag_vocabulary)
        labels = tuple(protos.labels[i] for i in ranked)
        certify, exact = proto_argmax_head(protos, ranked)
    elif model.head is not None:
        labels = model.labels.tag_vocabulary
        certify, exact = linear_argmax_head(model.head)
    else:
        raise DataError("prototype checkpoints carry no head arrays; supply a support set")
    return labels, projected_blocks(model.encoder, words, certify, exact)


def predict_corpus(
    model: Model, sentences, protos: PrototypeSet | None = None
) -> list[list[str]]:
    """Tags for each sentence: argmax of the linear head, or the nearest
    prototype (highest averaged probability for multi-centroid sets) when
    a PrototypeSet is supplied. Exact ties go to the label earliest in the
    tag vocabulary; prototype labels outside it rank after every label in
    it, in their given order.

    Sentences are encoded and scored in one encoder.projected_blocks pass
    whose head is the ranked argmax: one encode from the column's per-word
    projection tables, one head call and one argmax per block of whole
    sentences. Linear logits and prototype distances come from one matrix
    product per block; a block with a winner the head cannot certify against
    the exact encoder's representations is re-encoded exactly and rescored
    as a whole, so the tags equal the exact scores' argmax.
    """
    words = word_ids(s.tokens for s in sentences)
    names, ids = _predict_ids(model, words, protos)
    tags = [names[i] for i in ids.tolist()]
    return [tags[a:b] for a, b in pairwise(words.offsets.tolist())]


def support_prototypes(
    encoder: EncoderParams,
    support: TaggedCorpus,
    shots: int | None = None,
    seed: int = 0,
) -> PrototypeSet:
    """Prototypes over the support corpus's tag vocabulary (entries in
    vocabulary order, one per tag with at least one token). `shots`
    switches to ceil(shots/5) centroids per tag; None keeps one. The
    support tokens' representations come from one encoder.encode_blocks
    pass with the identity as its head.
    """
    encoded = encode_blocks(encoder, support.word_ids, lambda r: r)
    ordered = {}
    for k, tag in enumerate(support.labels.tag_vocabulary):
        rows = encoded[support.tag_ids == k]
        if len(rows):
            ordered[tag] = rows
    if not ordered:
        raise DataError("support corpus has no tokens to build prototypes from")
    return build_multi_prototypes(ordered, shots if shots is not None else 5, seed)


def evaluate_model(
    model: Model,
    test: TaggedCorpus,
    schema: str | None = None,
    protos: PrototypeSet | None = None,
    native_schema: str | None = None,
) -> EvalReport:
    """Predict on every test sentence and score under the given schema
    (default: the test corpus's own), converting gold and predictions
    from their native schemas first. native_schema names the schema the
    predictions are emitted in (defaults to the model's own; prototype
    inference passes the support corpus's schema).
    """
    missing = set(test.labels.entity_types) - set(model.labels.entity_types)
    if missing and protos is None:
        raise DataError(
            f"model does not know entity types {sorted(missing)} present in the test set"
        )
    schema = _check_schema(schema or test.labels.schema)
    native = _check_schema(native_schema or model.labels.schema)
    names, ids = _predict_ids(model, test.word_ids, protos)
    type_index = {t: k for k, t in enumerate(test.labels.entity_types)}
    types, begins = tag_codes(names, type_index)
    # converted predictions chunk as same-type runs; IO gold tags carry no B-
    # flags, so chunking them under BIO gives the same runs
    pred = (types[ids], begins[ids] if native == schema == "BIO" else None)
    gold = test.columns(schema)
    return _score(gold, pred, test.offsets, type_index, test.labels.entity_types)


@dataclass
class Experiment:
    """Everything repeated_eval needs to rerun one Table-style cell."""

    train: TaggedCorpus
    test: TaggedCorpus
    config: TrainConfig
    shots: int | None = None
    source: TaggedCorpus | None = None
    unlabeled: list[tuple[str, ...]] | None = None
    source_config: TrainConfig | None = None
    eval_schema: str = "BIO"


def run_experiment(experiment: Experiment, seed: int) -> EvalReport:
    """One pipeline pass: few-shot sample (if configured), train, evaluate."""
    labeled = experiment.train
    if experiment.shots is not None:
        labeled = sample_fewshot(labeled, experiment.shots, seed)
    config = experiment.config.with_(seed=seed)
    model = run_scheme(
        labeled,
        config,
        source=experiment.source,
        unlabeled=experiment.unlabeled,
        source_config=experiment.source_config,
    )
    protos = None
    if model.head is None:
        protos = support_prototypes(
            model.encoder, labeled, shots=experiment.shots, seed=seed
        )
    return evaluate_model(model, experiment.test, experiment.eval_schema, protos=protos)


def repeated_eval(experiment: Experiment, n_repeats: int, base_seed: int) -> AggregateReport:
    """Run the full pipeline n times with seeds base_seed + i, re-sampling
    the few-shot corpus each time; report mean and sample std of F1.
    """
    if n_repeats < 1:
        raise ValueError("n_repeats must be >= 1")
    runs = tuple(run_experiment(experiment, base_seed + i) for i in range(n_repeats))
    scores = [r.f1 for r in runs]
    mean = sum(scores) / len(scores)
    if len(scores) > 1:
        std = math.sqrt(sum((s - mean) ** 2 for s in scores) / (len(scores) - 1))
    else:
        std = 0.0
    return AggregateReport(mean, std, runs)
