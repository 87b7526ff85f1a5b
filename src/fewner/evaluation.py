"""Tag prediction and entity-level scoring.

Scoring is the conlleval convention: word predictions are turned into
chunks, a predicted chunk is correct only if its type and both boundaries
match a gold chunk, and precision/recall/F1 are micro-averaged over all
chunks (0/0 counts as 0). repeated_eval reruns a whole experiment with
shifted seeds and reports mean and sample standard deviation of F1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .checkpoint import LINEAR, PROTOTYPE, Model
from .corpus import (
    TaggedCorpus,
    TokenSequence,
    convert_schema,
    convert_tags,
    extract_chunks,
    sample_fewshot,
)
from .encoder import EncoderParams, encode
from .errors import DataError
from .heads import PrototypeSet, build_multi_prototypes, linear_forward, multi_proto_scores
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
        gold, predicted, correct = self.counts
        return {
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "per_type": {
                t: {
                    "precision": s.precision,
                    "recall": s.recall,
                    "f1": s.f1,
                    "support": s.support,
                }
                for t, s in self.per_type.items()
            },
            "counts": {"gold": gold, "predicted": predicted, "correct": correct},
        }


@dataclass(frozen=True)
class AggregateReport:
    mean_f1: float
    std_f1: float
    runs: tuple[EvalReport, ...]

    def formatted(self) -> str:
        return f"{self.mean_f1:.3f} ± {self.std_f1:.3f}"

    def to_dict(self) -> dict:
        return {
            "mean_f1": self.mean_f1,
            "std_f1": self.std_f1,
            "runs": [r.to_dict() for r in self.runs],
        }


def _prf(correct: int, predicted: int, gold: int) -> tuple[float, float, float]:
    precision = correct / predicted if predicted else 0.0
    recall = correct / gold if gold else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def entity_f1(gold: TaggedCorpus, predicted: list[list[str]], schema: str) -> EvalReport:
    """Micro-averaged chunk P/R/F1 of predicted tag sequences against gold."""
    if len(predicted) != len(gold.sentences):
        raise DataError(
            f"{len(predicted)} predictions for {len(gold.sentences)} sentences"
        )
    gold_n: dict[str, int] = {}
    pred_n: dict[str, int] = {}
    correct_n: dict[str, int] = {}
    for i, (sent, tags) in enumerate(zip(gold.sentences, predicted)):
        if len(tags) != len(sent):
            raise DataError(
                f"sentence {i}: {len(tags)} predicted tags for {len(sent)} tokens"
            )
        gold_chunks = set(extract_chunks(sent.tags, schema))
        pred_chunks = set(extract_chunks(tags, schema))
        for c in gold_chunks:
            gold_n[c.entity_type] = gold_n.get(c.entity_type, 0) + 1
        for c in pred_chunks:
            pred_n[c.entity_type] = pred_n.get(c.entity_type, 0) + 1
        for c in gold_chunks & pred_chunks:
            correct_n[c.entity_type] = correct_n.get(c.entity_type, 0) + 1
    types = sorted(set(gold_n) | set(pred_n) | set(gold.labels.entity_types))
    per_type = {}
    for t in types:
        p, r, f = _prf(correct_n.get(t, 0), pred_n.get(t, 0), gold_n.get(t, 0))
        per_type[t] = TypeScore(p, r, f, gold_n.get(t, 0))
    totals = (sum(gold_n.values()), sum(pred_n.values()), sum(correct_n.values()))
    p, r, f = _prf(totals[2], totals[1], totals[0])
    return EvalReport(p, r, f, per_type, totals)


def _ranked_argmax(scores: np.ndarray, labels, label_order) -> list[str]:
    """Per row of scores (one column per label), the highest-scoring label;
    exact ties go to the label earliest in label_order, and labels outside
    it rank after every label in it, in their given order."""
    rank = {t: i for i, t in enumerate(label_order)}
    ranked = sorted(range(len(labels)), key=lambda i: rank.get(labels[i], len(rank) + i))
    best = np.argmax(scores[:, ranked], axis=1)
    return [labels[ranked[b]] for b in best]


def predict_tags(
    model: Model, sentence: TokenSequence, protos: PrototypeSet | None = None
) -> list[str]:
    """Tags for one sentence: argmax of the linear head, or the nearest
    prototype (highest averaged probability for multi-centroid sets) when
    a PrototypeSet is supplied. Ties break toward the lowest tag-vocabulary
    index. The whole sentence is scored as one matrix.
    """
    reprs = encode(model.encoder, sentence)
    order = model.labels.tag_vocabulary
    if protos is not None:
        return _ranked_argmax(multi_proto_scores(protos, reprs), protos.labels, order)
    if model.head_kind != LINEAR:
        raise DataError(
            "prototype checkpoints carry no head arrays; supply a support set"
        )
    return _ranked_argmax(linear_forward(model.head, reprs), order, order)


def support_prototypes(
    encoder: EncoderParams,
    support: TaggedCorpus,
    shots: int | None = None,
    seed: int = 0,
) -> PrototypeSet:
    """Prototypes over the support corpus's tag vocabulary (entries in
    vocabulary order, one per tag with at least one token). `shots`
    switches to ceil(shots/5) centroids per tag; None keeps one.
    """
    reprs: dict[str, list[np.ndarray]] = {}
    for sent in support.sentences:
        encoded = encode(encoder, sent)
        for j, tag in enumerate(sent.tags):
            reprs.setdefault(tag, []).append(encoded[j])
    ordered = {t: reprs[t] for t in support.labels.tag_vocabulary if t in reprs}
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
    if protos is None and model.head_kind == PROTOTYPE:
        raise DataError(
            "prototype checkpoints need a support corpus to rebuild prototypes; "
            "use prototype inference"
        )
    schema = (schema or test.labels.schema).upper()
    preds = [predict_tags(model, s, protos=protos) for s in test.sentences]
    native = native_schema or model.labels.schema
    if native != schema:
        preds = [convert_tags(p, native, schema) for p in preds]
    gold = convert_schema(test, schema)
    return entity_f1(gold, preds, schema)


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
    if model.head_kind == PROTOTYPE:
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
