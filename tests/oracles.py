"""Independent re-implementations used as test oracles.

These deliberately use different mechanics than the library (span scanning
and per-tag event-based chunking of strings instead of numpy transitions
over tag-id columns, per-scalar central differences instead of
analytic gradients, per-token loops instead of whole-episode matrices,
whole-corpus scans instead of the per-corpus type index, one sentence at a
time instead of blocks of sentences) so that agreement is evidence, not
tautology.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from fewner.checkpoint import Model
from fewner.corpus import DOCSTART, LabelSet, TaggedCorpus, TokenSequence, split_tag, word_ids
from fewner.encoder import (
    PAD,
    TANH32_ERROR,
    TANH_ERROR,
    UNK,
    EncoderGrads,
    encode,
    encode_backward,
    encode_windows,
    init_encoder,
    window_indices,
)
from fewner.errors import DataError
from fewner.evaluation import EvalReport, TypeScore
from fewner.heads import (
    build_multi_prototypes,
    build_prototypes,
    cross_entropy,
    init_linear_head,
    linear_forward,
    linear_loss_grads,
    proto_backward,
    proto_forward,
    proto_loss_grads,
)
from fewner.training import (
    SEED_EPISODES,
    SEED_HEAD,
    SEED_SHUFFLE,
    Episode,
    build_vocabulary,
    generate_soft_labels,
    lr_at,
    sample_episode,
    self_train,
    train_linear,
    train_prototype,
)


class Span(NamedTuple):
    """A maximal entity span: [start, end) token indices of one type."""

    entity_type: str
    start: int
    end: int


def tag_type(tag: str) -> str | None:
    """Entity type after the first hyphen; None for "O", for tags without a
    hyphen and for an empty type ("B-")."""
    if tag == "O":
        return None
    return (tag.split("-", 1)[1] or None) if "-" in tag else None


def oracle_chunks(tags, schema: str) -> list[Span]:
    """Span-scanning chunker: walk forward, consuming one maximal span at a time."""
    out = []
    i, n = 0, len(tags)
    while i < n:
        t = tag_type(tags[i])
        if t is None:
            i += 1
            continue
        j = i + 1
        while j < n and tag_type(tags[j]) == t:
            if schema == "BIO" and tags[j].startswith("B-"):
                break
            j += 1
        out.append(Span(t, i, j))
        i = j
    return out


def oracle_convert(tags, source: str, target: str) -> list[str]:
    """Tags rewritten from the source to the target schema, one tag at a
    time from the schema rules: under IO every entity token is I-X; under
    BIO an entity token is B-X unless the token before has its type, then
    I-X. A tag without a type becomes "O"; equal schemas change nothing."""
    if source == target:
        return list(tags)
    out, before = [], None
    for tag in tags:
        t = tag_type(tag)
        if t is None:
            out.append("O")
        elif target == "BIO" and t != before:
            out.append(f"B-{t}")
        else:
            out.append(f"I-{t}")
        before = t
    return out


def oracle_f1(gold_tagseqs, pred_tagseqs, schema: str):
    """Scoring by intersecting the sets of oracle chunks, over a whole corpus."""
    gold_total = pred_total = correct = 0
    for gold, pred in zip(gold_tagseqs, pred_tagseqs):
        g = set(oracle_chunks(gold, schema))
        p = set(oracle_chunks(pred, schema))
        gold_total += len(g)
        pred_total += len(p)
        correct += len(g & p)
    precision = correct / pred_total if pred_total else 0.0
    recall = correct / gold_total if gold_total else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1, (gold_total, pred_total, correct)


def oracle_type_counts(gold_tagseqs, pred_tagseqs, schema: str) -> dict[str, tuple[int, int, int]]:
    """Per entity type: (gold, predicted, correct) chunk counts from oracle_chunks."""
    counts: dict[str, list[int]] = {}
    for gold, pred in zip(gold_tagseqs, pred_tagseqs):
        g = set(oracle_chunks(gold, schema))
        p = set(oracle_chunks(pred, schema))
        for k, chunks in enumerate((g, p, g & p)):
            for etype, _, _ in chunks:
                counts.setdefault(etype, [0, 0, 0])[k] += 1
    return {t: tuple(c) for t, c in counts.items()}


def _reference_chunks(tags, schema: str) -> list[Span]:
    """Event-based chunking of one tag sequence, one tag at a time."""
    chunks: list[Span] = []
    start = -1
    cur_type = None

    def close(end: int):
        nonlocal start, cur_type
        if cur_type is not None:
            chunks.append(Span(cur_type, start, end))
        start, cur_type = -1, None

    for i, tag in enumerate(tags):
        prefix, etype = split_tag(tag)
        if etype is None:
            close(i)
            continue
        starts_new = etype != cur_type if schema == "IO" else prefix == "B" or etype != cur_type
        if starts_new:
            close(i)
            start, cur_type = i, etype
    close(len(tags))
    return chunks


def _reference_prf(correct: int, predicted: int, gold: int) -> tuple[float, float, float]:
    precision = correct / predicted if predicted else 0.0
    recall = correct / gold if gold else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def reference_entity_f1(gold: TaggedCorpus, predicted, schema: str) -> EvalReport:
    """Entity F1 as first written: per-sentence sets of Span tuples from
    tag strings, intersected sentence by sentence, counted in dicts."""
    schema = schema.upper()
    if len(predicted) != len(gold.sentences):
        raise DataError(f"{len(predicted)} predictions for {len(gold.sentences)} sentences")
    gold_n: dict[str, int] = {}
    pred_n: dict[str, int] = {}
    correct_n: dict[str, int] = {}
    for i, (sent, tags) in enumerate(zip(gold.sentences, predicted)):
        if len(tags) != len(sent):
            raise DataError(f"sentence {i}: {len(tags)} predicted tags for {len(sent)} tokens")
        gold_chunks = set(_reference_chunks(sent.tags, schema))
        pred_chunks = set(_reference_chunks(tags, schema))
        for c in gold_chunks:
            gold_n[c.entity_type] = gold_n.get(c.entity_type, 0) + 1
        for c in pred_chunks:
            pred_n[c.entity_type] = pred_n.get(c.entity_type, 0) + 1
        for c in gold_chunks & pred_chunks:
            correct_n[c.entity_type] = correct_n.get(c.entity_type, 0) + 1
    types = sorted(set(gold_n) | set(pred_n) | set(gold.labels.entity_types))
    per_type = {}
    for t in types:
        p, r, f = _reference_prf(correct_n.get(t, 0), pred_n.get(t, 0), gold_n.get(t, 0))
        per_type[t] = TypeScore(p, r, f, gold_n.get(t, 0))
    totals = (sum(gold_n.values()), sum(pred_n.values()), sum(correct_n.values()))
    p, r, f = _reference_prf(totals[2], totals[1], totals[0])
    return EvalReport(p, r, f, per_type, totals)


def finite_difference(fun, arrays: dict[str, np.ndarray], step: float = 1e-5) -> dict[str, np.ndarray]:
    """Central differences of scalar `fun()` w.r.t. every scalar in `arrays`.

    Perturbs the arrays in place and restores them, so `fun` may close over
    the same objects.
    """
    grads = {}
    for name, arr in arrays.items():
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + step
            hi = fun()
            flat[k] = orig - step
            lo = fun()
            flat[k] = orig
            gflat[k] = (hi - lo) / (2 * step)
        grads[name] = g
    return grads


def assert_grad_close(analytic: np.ndarray, numeric: np.ndarray, rtol=1e-4, atol=1e-7):
    analytic = np.asarray(analytic, dtype=float)
    numeric = np.asarray(numeric, dtype=float)
    diff = np.abs(analytic - numeric)
    bound = atol + rtol * np.maximum(np.abs(analytic), np.abs(numeric))
    bad = diff > bound
    if bad.any():
        idx = np.unravel_index(np.argmax(diff - bound), diff.shape)
        raise AssertionError(
            f"gradient mismatch at {idx}: analytic={analytic[idx]!r} "
            f"numeric={numeric[idx]!r} diff={diff[idx]:.3g}"
        )


def random_tagseq(rng, length: int, types, schema: str) -> list[str]:
    """Arbitrary tag sequence, including orphan I tags under BIO."""
    prefixes = ["B", "I"] if schema == "BIO" else ["I"]
    tags = []
    for _ in range(length):
        if rng.random() < 0.45:
            tags.append("O")
        else:
            tags.append(f"{rng.choice(prefixes)}-{rng.choice(types)}")
    return tags


@dataclass
class ReferenceAdamState:
    """Per-block Adam accumulators and the learning-rate plan (lr_at reads
    the plan), for reference_adam_step."""

    base_lr: float
    warmup_fraction: float
    total_steps: int
    first_moment: dict
    second_moment: dict
    step: int = 0

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8


def reference_init_optimizer(params, base_lr, warmup_fraction, total_steps):
    """Zeroed per-block accumulators for a dict of parameter blocks."""
    zeros = lambda: {k: np.zeros_like(v) for k, v in params.items()}
    return ReferenceAdamState(base_lr, warmup_fraction, total_steps, zeros(), zeros())


def reference_adam_step(state, params, grads):
    """Adam as first written, block by block over dicts of arrays, one
    full-size temporary per operation; the library's in-place version over
    one flat array must match it bit for bit."""
    lr = lr_at(state)
    t = state.step + 1
    for name, p in params.items():
        g = grads[name]
        m = state.first_moment[name]
        v = state.second_moment[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        m_hat = m / (1.0 - state.beta1**t)
        v_hat = v / (1.0 - state.beta2**t)
        p -= lr * m_hat / (np.sqrt(v_hat) + state.eps)
    state.step = t


def reference_encode_windows_backward(params, windows, reprs, upstream):
    """encode_windows_backward as first batched, the embedding gradient
    accumulated with np.add.at."""
    d_pre = upstream * (1.0 - reprs**2)
    x = params.embedding_table[windows].reshape(len(windows), 3 * params.embed_dim)
    d_weights = d_pre.T @ x
    d_bias = d_pre.sum(axis=0)
    d_x = d_pre @ params.context_weights
    d_emb = np.zeros_like(params.embedding_table)
    np.add.at(d_emb, windows.ravel(), d_x.reshape(-1, params.embed_dim))
    return EncoderGrads(d_emb, d_weights, d_bias)


def reference_parse_conll(text: str, schema: str = "BIO") -> TaggedCorpus:
    """parse_conll as a loop over the lines that builds one TokenSequence
    per sentence and raises at the first bad line it reaches. A blank line
    is an empty sentence only between two sentences (pending until the
    next content line), not before the first or after the last."""
    schema = schema.upper()
    if schema not in ("BIO", "IO"):
        raise DataError(f"unknown schema {schema!r}; expected one of ('BIO', 'IO')")
    prefixes = ("B", "I") if schema == "BIO" else ("I",)
    sentences: list[TokenSequence] = []
    tokens: list[str] = []
    tags: list[str] = []
    types: set[str] = set()
    pending_empty = None
    content_since_sep = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        columns = line.split()
        if not columns:
            if tokens:
                sentences.append(TokenSequence(tuple(tokens), tuple(tags)))
                tokens, tags = [], []
            elif sentences and not content_since_sep and pending_empty is None:
                pending_empty = lineno
            content_since_sep = False
            continue
        if pending_empty is not None:
            raise DataError(f"line {pending_empty}: empty sentence between separators")
        content_since_sep = True
        if columns[0].startswith(DOCSTART):
            if tokens:
                sentences.append(TokenSequence(tuple(tokens), tuple(tags)))
                tokens, tags = [], []
            continue
        if len(columns) < 2:
            raise DataError(
                f"line {lineno}: expected token and tag columns, got {line.strip()!r}"
            )
        tag = columns[-1]
        if tag != "O":
            prefix, _, etype = tag.partition("-")
            if prefix not in prefixes or not etype:
                raise DataError(f"line {lineno}: tag {tag!r} violates the {schema} schema")
            if etype == "O":
                raise DataError(f'line {lineno}: tag {tag!r} has the reserved entity type "O"')
            types.add(etype)
        tokens.append(columns[0])
        tags.append(tag)
    if tokens:
        sentences.append(TokenSequence(tuple(tokens), tuple(tags)))
    return TaggedCorpus(tuple(sentences), LabelSet(tuple(sorted(types)), schema))


def reference_windows(params, tokens) -> np.ndarray:
    """(T, 3) vocabulary rows (left, centre, right) of one sentence's
    tokens, looked up one token at a time by position in the vocabulary."""
    vocab = list(params.vocab)
    rows = [vocab.index(t if t in vocab else UNK) for t in tokens]
    padded = [vocab.index(PAD), *rows, vocab.index(PAD)]
    return np.array([padded[i : i + 3] for i in range(len(rows))], dtype=np.intp).reshape(-1, 3)


def _sentence_types(corpus):
    return [{tag_type(t) for t in sent.tags if t != "O"} for sent in corpus.sentences]


def reference_sample_fewshot(corpus, shots: int, seed: int):
    """The few-shot sampler as first written: a scan of the whole corpus
    per type, candidates in ascending sentence order."""
    rng = random.Random(seed)
    type_sets = _sentence_types(corpus)
    selected: set[int] = set()
    for etype in corpus.labels.entity_types:
        have = sum(1 for i in selected if etype in type_sets[i])
        if have >= shots:
            continue
        candidates = [
            i for i in range(len(corpus.sentences))
            if i not in selected and etype in type_sets[i]
        ]
        if have + len(candidates) < shots:
            raise DataError(
                f"type {etype!r} occurs in only {have + len(candidates)} "
                f"sentences; cannot sample {shots} shots"
            )
        selected.update(rng.sample(candidates, shots - have))
    return TaggedCorpus(tuple(corpus.sentences[i] for i in sorted(selected)), corpus.labels)


def reference_top_up(rng, members, bucket, want, exclude=()) -> int:
    """corpus.top_up as a walk over every member: the candidates are the
    members in neither the bucket nor exclude, in ascending order, and the
    draw is rng.sample over that list."""
    have = 0
    candidates = []
    for i in members:
        if i in bucket:
            have += 1
        elif i not in exclude:
            candidates.append(i)
    if have < want <= have + len(candidates):
        bucket.update(rng.sample(candidates, want - have))
    return have + len(candidates)


def reference_sample_episode(corpus, m_types: int, k_support: int, k_query: int, seed: int):
    """The episode sampler as first written (same scan as above, with
    support and query kept disjoint)."""
    types = corpus.labels.entity_types
    if m_types > len(types):
        raise DataError(f"corpus has {len(types)} entity types; cannot sample {m_types}")
    rng = random.Random(seed)
    sampled = rng.sample(list(types), m_types)
    type_sets = _sentence_types(corpus)
    support: set[int] = set()
    query: set[int] = set()

    def top_up(bucket, other, etype, want):
        have = sum(1 for i in bucket if etype in type_sets[i])
        if have >= want:
            return
        candidates = [
            i
            for i in range(len(corpus.sentences))
            if i not in bucket and i not in other and etype in type_sets[i]
        ]
        if have + len(candidates) < want:
            raise DataError(
                f"type {etype!r}: only {have + len(candidates)} sentences available "
                f"for {want} required"
            )
        bucket.update(rng.sample(candidates, want - have))

    for etype in sampled:
        top_up(support, query, etype, k_support)
        top_up(query, support, etype, k_query)
    return Episode(
        support_ids=tuple(sorted(support)),
        query_ids=tuple(sorted(query)),
        sampled_types=tuple(sampled),
    )


def reference_train_prototype(corpus, config, encoder):
    """Episodic prototype training token by token: per-sentence encodes,
    one proto_forward, cross_entropy and proto_backward per query token,
    centroid gradients spread over their support tokens, one encoder
    backward per sentence. Trains `encoder` in place; returns the per-epoch
    mean losses."""
    types = corpus.labels.entity_types
    m_types = min(config.M, len(types))
    iters_per_epoch = math.ceil(len(corpus) / (m_types * (config.K + config.K_prime)))
    total_steps = config.epochs * iters_per_epoch
    trainable = {f"encoder.{k}": v for k, v in encoder.arrays().items()}
    state = reference_init_optimizer(
        trainable, config.learning_rate, config.warmup_fraction, total_steps
    )
    episode_rng = random.Random(config.seed + SEED_EPISODES)
    vocab_order = corpus.labels.tag_vocabulary
    epoch_losses, losses = [], []
    for step in range(total_steps):
        episode = reference_sample_episode(
            corpus, m_types, config.K, config.K_prime, seed=episode_rng.getrandbits(32)
        )
        in_scope = set(episode.sampled_types)
        support = [corpus.sentences[i] for i in episode.support_ids]
        query = [corpus.sentences[i] for i in episode.query_ids]
        support_reprs = [encode(encoder, s) for s in support]
        members: dict[str, list[tuple[int, int]]] = {}
        for i, sent in enumerate(support):
            for j, tag in enumerate(sent.tags):
                etype = tag_type(tag)
                if etype is None or etype in in_scope:
                    members.setdefault(tag, []).append((i, j))
        space = [t for t in vocab_order if t in members]
        protos = build_prototypes(
            {t: [support_reprs[i][j] for i, j in members[t]] for t in space}
        )
        label_pos = {t: k for k, t in enumerate(space)}
        support_up = [np.zeros_like(r) for r in support_reprs]
        query_reprs = [encode(encoder, s) for s in query]
        query_up = [np.zeros_like(r) for r in query_reprs]
        centroid_grads = {t: np.zeros(encoder.hidden_dim) for t in space}
        n_tokens = 0
        loss = 0.0
        for i, sent in enumerate(query):
            for j, tag in enumerate(sent.tags):
                if tag not in label_pos:
                    continue
                target = np.zeros(len(space))
                target[label_pos[tag]] = 1.0
                loss += cross_entropy(proto_forward(protos, query_reprs[i][j]), target)
                d_z, c_grads = proto_backward(protos, query_reprs[i][j], target)
                query_up[i][j] = d_z
                for t, g in c_grads.items():
                    centroid_grads[t] += g
                n_tokens += 1
        if n_tokens == 0:
            continue
        epoch_losses.append(loss / n_tokens)
        for t in space:
            share = centroid_grads[t] / len(members[t])
            for i, j in members[t]:
                support_up[i][j] += share
        grads = {k: np.zeros_like(v) for k, v in trainable.items()}
        for sent, up in zip(support + query, support_up + query_up):
            for k, v in encode_backward(encoder, sent, up / n_tokens).arrays().items():
                grads[f"encoder.{k}"] += v
        reference_adam_step(state, trainable, grads)
        if (step + 1) % iters_per_epoch == 0:
            losses.append(sum(epoch_losses) / len(epoch_losses) if epoch_losses else 0.0)
            epoch_losses = []
    return losses


def reference_multi_proto_scores(protos, reprs):
    """Multi-prototype label scores of (N, H) reprs, as first batched: an
    (N, centroids, H) difference tensor, a row softmax over the negated
    distances, each label's mean centroid probability, renormalized."""
    all_cents = np.vstack([cents for _, cents in protos.entries])
    neg = -np.linalg.norm(reprs[:, None, :] - all_cents[None, :, :], axis=2)
    flat = np.exp(neg - neg.max(axis=1, keepdims=True))
    flat /= flat.sum(axis=1, keepdims=True)
    bounds = np.cumsum([0] + [cents.shape[0] for _, cents in protos.entries])
    scores = np.column_stack(
        [flat[:, a:b].mean(axis=1) for a, b in zip(bounds[:-1], bounds[1:])]
    )
    return scores / scores.sum(axis=1, keepdims=True)


def _reference_ranked_argmax(scores, labels, label_order):
    rank = {t: i for i, t in enumerate(label_order)}
    ranked = sorted(range(len(labels)), key=lambda i: rank.get(labels[i], len(rank) + i))
    best = np.argmax(scores[:, ranked], axis=1)
    return [labels[ranked[b]] for b in best]


def reference_sentence_tags(model, sentence, protos=None):
    """Tag prediction one sentence at a time: one encode and one head call
    per sentence, exact ties to the label earliest in the tag vocabulary."""
    reprs = encode(model.encoder, sentence)
    order = model.labels.tag_vocabulary
    if protos is not None:
        scores = reference_multi_proto_scores(protos, reprs)
        return _reference_ranked_argmax(scores, protos.labels, order)
    return _reference_ranked_argmax(linear_forward(model.head, reprs), order, order)


def reference_generate_soft_labels(teacher, sentences):
    """Soft labels one sentence at a time, the sentences' rows stacked."""
    rows = [np.empty((0, len(teacher.labels.tag_vocabulary)))]
    for tokens in sentences:
        seq = TokenSequence(tuple(tokens), tuple("O" for _ in tokens))
        rows.append(linear_forward(teacher.head, encode(teacher.encoder, seq)))
    return np.concatenate(rows)


def reference_support_prototypes(encoder, support, shots=None, seed=0):
    """Support prototypes from one encode per support sentence."""
    reprs = {}
    for sent in support.sentences:
        encoded = encode(encoder, sent)
        for j, tag in enumerate(sent.tags):
            reprs.setdefault(tag, []).append(encoded[j])
    ordered = {t: reprs[t] for t in support.labels.tag_vocabulary if t in reprs}
    if not ordered:
        raise DataError("support corpus has no tokens to build prototypes from")
    return build_multi_prototypes(ordered, shots if shots is not None else 5, seed)


def reference_run_scheme(labeled, config, source=None, unlabeled=None, source_config=None):
    """Scheme dispatch as a string ladder over the scheme name, with the
    two-stage transfer written out per scheme base."""
    scheme = config.scheme
    if "nsp" in scheme and source is None:
        raise DataError(f"scheme {scheme!r} requires a source corpus")
    if scheme.endswith("st") and unlabeled is None:
        raise DataError(f"scheme {scheme!r} requires unlabeled sentences")
    stage1_config = source_config if source_config is not None else config
    if scheme == "lc":
        return train_linear(labeled, config)
    if scheme == "proto":
        return train_prototype(labeled, config)
    if scheme == "lc+nsp":
        stage1 = train_linear(source, stage1_config)
        return train_linear(labeled, config, init=stage1.encoder)
    if scheme == "proto+nsp":
        stage1 = train_prototype(source, stage1_config)
        return train_prototype(labeled, config, init=stage1.encoder)
    if scheme == "lc+st":
        return self_train(labeled, unlabeled, config)
    if scheme == "lc+nsp+st":
        stage1 = train_linear(source, stage1_config)
        return self_train(labeled, unlabeled, config, init=stage1.encoder)
    raise DataError(f"unknown scheme {scheme!r}")


def _reference_softmax(logits):
    shifted = logits - np.max(logits)
    exp = np.exp(shifted)
    return exp / exp.sum()


def reference_multi_proto_score(protos, repr_vec):
    """Multi-prototype label scores of one H-vector as first written: a
    softmax over the negated distances to every centroid of every label,
    each label's mean centroid probability, renormalized."""
    all_cents = np.vstack([cents for _, cents in protos.entries])
    flat = _reference_softmax(-np.linalg.norm(all_cents - repr_vec, axis=1))
    scores = np.empty(len(protos.entries))
    offset = 0
    for i, (_, cents) in enumerate(protos.entries):
        k = cents.shape[0]
        scores[i] = flat[offset : offset + k].mean()
        offset += k
    return scores / scores.sum()


def reference_build_multi_prototypes(support_reprs, shots: int, seed: int):
    """Multi-prototype k-means as first written: farthest-point seeding,
    then Lloyd steps over an (N, k, H) difference tensor. Returns the
    (label, centroids) entries."""
    k_target = max(1, math.ceil(shots / 5))
    rng = np.random.default_rng(seed)
    entries = []
    for label, reprs in support_reprs.items():
        points = np.asarray(reprs, dtype=float)
        k = min(k_target, points.shape[0])
        if k == 1:
            entries.append((label, points.mean(axis=0)[None, :]))
            continue
        chosen = [int(rng.integers(points.shape[0]))]
        min_dist = np.linalg.norm(points - points[chosen[0]], axis=1)
        while len(chosen) < k:
            nxt = int(np.argmax(min_dist))
            chosen.append(nxt)
            min_dist = np.minimum(min_dist, np.linalg.norm(points - points[nxt], axis=1))
        centroids = points[chosen].copy()
        for _ in range(50):
            dists = np.linalg.norm(points[:, None, :] - centroids[None, :, :], axis=2)
            assign = np.argmin(dists, axis=1)
            updated = centroids.copy()
            for j in range(k):
                members = points[assign == j]
                if members.shape[0] > 0:
                    updated[j] = members.mean(axis=0)
            if np.array_equal(updated, centroids):
                break
            centroids = updated
        entries.append((label, centroids))
    return entries


def reference_labeled_items(corpus, weight: float) -> list[tuple]:
    """(tokens, one-hot targets over the tag vocabulary, weight) per sentence."""
    one_hot = np.eye(len(corpus.labels.tag_vocabulary))[corpus.tag_ids]
    targets = np.split(one_hot, corpus.offsets[1:-1])
    return [(s.tokens, t, weight) for s, t in zip(corpus.sentences, targets)]


def reference_train_weighted(items, labels, config, encoder, head, on_epoch=None) -> Model:
    """Weighted mini-batch training as first batched: per-item window and
    weight arrays, three concatenations per batch. Trains encoder and head
    in place."""
    n = len(items)
    batches_per_epoch = math.ceil(n / config.batch_size)
    total_steps = config.epochs * batches_per_epoch
    trainable = {f"head.{k}": v for k, v in head.arrays().items()}
    if not config.freeze_encoder:
        trainable.update({f"encoder.{k}": v for k, v in encoder.arrays().items()})
    if total_steps > 0:
        state = reference_init_optimizer(
            trainable, config.learning_rate, config.warmup_fraction, total_steps
        )
    shuffle_rng = random.Random(config.seed + SEED_SHUFFLE)
    total_tokens = sum(len(tokens) for tokens, _, _ in items)
    mean_token_weight = (
        sum(weight * len(tokens) for tokens, _, weight in items) / total_tokens
    )
    windows = [window_indices(encoder, tokens) for tokens, _, _ in items]
    token_weights = [np.full(len(tokens), weight) for tokens, _, weight in items]

    for epoch in range(config.epochs):
        order = list(range(n))
        shuffle_rng.shuffle(order)
        epoch_loss = 0.0
        epoch_norm = 0.0
        for start in range(0, n, config.batch_size):
            batch = order[start : start + config.batch_size]
            batch_windows = np.concatenate([windows[i] for i in batch])
            reprs = encode_windows(encoder, batch_windows)
            batch_loss, d_w, d_b, upstream = linear_loss_grads(
                head,
                reprs,
                np.concatenate([items[i][1] for i in batch]),
                np.concatenate([token_weights[i] for i in batch]),
            )
            grads = {"head.weights": d_w, "head.bias": d_b}
            if not config.freeze_encoder:
                enc_grads = reference_encode_windows_backward(
                    encoder, batch_windows, reprs, upstream
                )
                grads.update({f"encoder.{k}": v for k, v in enc_grads.arrays().items()})
            norm = mean_token_weight * len(batch_windows)
            if norm > 0.0:
                for g in grads.values():
                    g /= norm
                reference_adam_step(state, trainable, grads)
            epoch_loss += batch_loss
            epoch_norm += norm
        if on_epoch is not None:
            on_epoch(epoch, epoch_loss / epoch_norm if epoch_norm else 0.0)
    return Model(encoder, labels, head)


def reference_train_linear(corpus, config, encoder, on_epoch=None) -> Model:
    """train_linear from an EncoderParams init through the item-list trainer."""
    head = init_linear_head(
        len(corpus.labels.tag_vocabulary), encoder.hidden_dim, config.seed + SEED_HEAD
    )
    items = reference_labeled_items(corpus, 1.0)
    return reference_train_weighted(items, corpus.labels, config, encoder.copy(), head, on_epoch)


def reference_self_train(labeled, unlabeled, config) -> Model:
    """self_train without an init through the item-list trainer: teacher,
    soft labels, then a fresh student on items weighted 1/|L| and
    lambda_u/|U|."""
    unlabeled = [tuple(tokens) for tokens in unlabeled]
    teacher_encoder = init_encoder(
        build_vocabulary(labeled), config.embed_dim, config.hidden_dim, config.seed
    )
    teacher = reference_train_linear(labeled, config, teacher_encoder)
    soft = generate_soft_labels(teacher, word_ids(unlabeled))
    unlabeled_words = [w for tokens in unlabeled for w in tokens]
    encoder = init_encoder(
        build_vocabulary(labeled, unlabeled_words),
        config.embed_dim,
        config.hidden_dim,
        config.seed,
    )
    head = init_linear_head(
        len(labeled.labels.tag_vocabulary), encoder.hidden_dim, config.seed + SEED_HEAD
    )
    w_soft = config.lambda_u / len(unlabeled)
    items = reference_labeled_items(labeled, 1.0 / len(labeled))
    per_sentence = np.split(soft, np.cumsum([len(tokens) for tokens in unlabeled])[:-1])
    items += [(tokens, probs, w_soft) for tokens, probs in zip(unlabeled, per_sentence)]
    return reference_train_weighted(items, labeled.labels, config, encoder, head)


def reference_batched_train_prototype(corpus, config, encoder) -> list[float]:
    """Episodic prototype training as first batched: a dict from each
    sentence to its (windows, tag ids), one encode, loss and encoder
    backward per episode. Trains `encoder` in place; returns the per-epoch
    mean losses (an epoch whose last episode is skipped reports none)."""
    types = corpus.labels.entity_types
    m_types = min(config.M, len(types))
    per_episode = m_types * (config.K + config.K_prime)
    iters_per_epoch = math.ceil(len(corpus) / per_episode)
    total_steps = config.epochs * iters_per_epoch
    trainable = {f"encoder.{k}": v for k, v in encoder.arrays().items()}
    state = reference_init_optimizer(
        trainable, config.learning_rate, config.warmup_fraction, total_steps
    )
    episode_rng = random.Random(config.seed + SEED_EPISODES)
    tag_type_ids = corpus.labels.codes[0]
    rows_of = {
        s: (window_indices(encoder, s.tokens), ids)
        for s, ids in zip(corpus.sentences, np.split(corpus.tag_ids, corpus.offsets[1:-1]))
    }
    epoch_losses, losses = [], []
    for step in range(total_steps):
        episode = sample_episode(
            corpus, m_types, config.K, config.K_prime, seed=episode_rng.getrandbits(32)
        )
        support = [corpus.sentences[i] for i in episode.support_ids]
        query = [corpus.sentences[i] for i in episode.query_ids]
        rows = [rows_of[s] for s in support + query]
        windows = np.concatenate([w for w, _ in rows])
        tag_ids = np.concatenate([ids for _, ids in rows])
        reprs = encode_windows(encoder, windows)
        n_support = sum(len(s) for s in support)
        in_scope = np.zeros(len(types) + 1, dtype=bool)
        in_scope[[types.index(t) for t in episode.sampled_types] + [-1]] = True
        present = np.bincount(tag_ids[:n_support], minlength=len(tag_type_ids)) > 0
        space = np.flatnonzero(present & in_scope[tag_type_ids])
        label_pos = np.full(len(tag_type_ids), -1)
        label_pos[space] = np.arange(len(space))
        row_label = label_pos[tag_ids]
        support_label = row_label[:n_support]
        query_rows = n_support + np.flatnonzero(row_label[n_support:] >= 0)
        n_tokens = len(query_rows)
        if n_tokens == 0:
            continue
        centroids = np.stack(
            [reprs[:n_support][support_label == k].mean(axis=0) for k in range(len(space))]
        )
        targets = np.zeros((n_tokens, len(space)))
        targets[np.arange(n_tokens), row_label[query_rows]] = 1.0
        loss, d_query, d_centroids = proto_loss_grads(centroids, reprs[query_rows], targets)
        epoch_losses.append(loss / n_tokens)
        upstream = np.zeros_like(reprs)
        upstream[query_rows] = d_query
        members = np.flatnonzero(support_label >= 0)
        member_label = support_label[members]
        counts = np.bincount(member_label, minlength=len(space))
        upstream[members] = (d_centroids / counts[:, None])[member_label]
        upstream /= n_tokens
        enc_grads = reference_encode_windows_backward(encoder, windows, reprs, upstream)
        grads = {f"encoder.{k}": v for k, v in enc_grads.arrays().items()}
        reference_adam_step(state, trainable, grads)
        if (step + 1) % iters_per_epoch == 0:
            losses.append(sum(epoch_losses) / len(epoch_losses) if epoch_losses else 0.0)
            epoch_losses = []
    return losses


def reference_gate_sum(params, used) -> float:
    """S of encoder.projection_tables over the embedding rows used:
    max|E_used| max_j ||W_j||_1 + max|b|."""
    emb = np.abs(params.embedding_table[used]).max()
    weights = np.abs(params.context_weights).sum(axis=1).max()
    return emb * weights + np.abs(params.context_bias).max()


def reference_slack(params, used) -> float:
    """The slack of encoder.projection_tables over the embedding rows used:
    2 g S + 3v (1 + 2^-22) t + 2^-148 + TANH_ERROR + TANH32_ERROR, with S
    the gate sum, g = (3E + 2)u / (1 - (3E + 2)u), u = 2^-53, v = 2^-24 and
    t = max|P_L| + max|P_C| + max|P_R| over the three float64 tables, each
    one product with a third of the context weights. NaN or inf where a
    value is not finite."""
    e, n = params.embed_dim, 3 * params.embed_dim + 2
    emb, weights = params.embedding_table[used], params.context_weights
    g = n * 2.0**-53 / (1 - n * 2.0**-53)
    with np.errstate(all="ignore"):
        tables = [emb @ weights[:, j * e : (j + 1) * e].T for j in range(3)]
        tables[1] = tables[1] + params.context_bias
        t = sum(float(np.abs(table).max()) for table in tables)
        s = float(reference_gate_sum(params, used))
        return 2 * g * s + 3 * 2.0**-24 * (1 + 2.0**-22) * t + 2.0**-148 + TANH_ERROR + TANH32_ERROR


def scale_to_slack(params, used, target: float) -> None:
    """Zero the context bias and scale the context weights in place so that
    reference_slack(params, used) is target, up to a few ulps: with no bias
    the slack less its constant terms is linear in the weights."""
    params.context_bias[:] = 0.0
    weights = params.context_weights.copy()
    base = reference_slack(params, used)
    params.context_weights[:] = 0.0
    fixed = reference_slack(params, used)
    params.context_weights[:] = weights * ((target - fixed) / (base - fixed))
