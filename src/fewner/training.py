"""Training schemes over the window encoder and the two heads.

Four entry points, all deterministic functions of (data, config, seed):

* train_linear        supervised fine-tuning of encoder + linear head
* train_prototype     episodic training of the encoder with prototypes
* pretrain_transfer   train on a source corpus, re-head, fine-tune on target
* self_train          teacher on labeled data, soft labels on unlabeled
                      sentences, student on the weighted joint objective

Optimization is Adam with bias correction under a linear warmup / linear
decay schedule planned over the whole run. The per-batch loss is a
(weighted) mean over tokens, so learning rates are comparable across
batch sizes.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .checkpoint import LINEAR, PROTOTYPE, Model
from .corpus import TaggedCorpus, TokenSequence, split_tag
from .encoder import (
    EncoderParams,
    encode,
    encode_backward,
    encode_windows,
    encode_windows_backward,
    init_encoder,
    window_indices,
)
from .errors import DataError, NumericError
from .heads import (
    build_prototypes,
    cross_entropy,
    init_linear_head,
    linear_forward,
    linear_loss_grads,
    proto_backward,
    proto_forward,
)

SCHEMES = ("lc", "proto", "lc+nsp", "proto+nsp", "lc+st", "lc+nsp+st")

# fixed sub-seed offsets so that one run seed drives every stage
SEED_HEAD = 1
SEED_SHUFFLE = 2
SEED_EPISODES = 3


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for every scheme; seed is mandatory.

    Defaults are the fixed full-data setting (batch 16, lr 5e-5, 10 epochs,
    episodes with (K, K') = (5, 15), lambda_u 0.5); five_shot() switches to
    the 5-shot preset (batch 4, lr 1e-4, (K, K') = (2, 3)).
    """

    seed: int
    scheme: str = "lc"
    batch_size: int = 16
    learning_rate: float = 5e-5
    epochs: int = 10
    M: int = 5
    K: int = 5
    K_prime: int = 15
    lambda_u: float = 0.5
    freeze_encoder: bool = False
    warmup_fraction: float = 0.1
    embed_dim: int = 32
    hidden_dim: int = 64

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise DataError(f"unknown scheme {self.scheme!r}; expected one of {SCHEMES}")
        for name in ("batch_size", "M", "K", "K_prime", "embed_dim", "hidden_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.lambda_u < 0:
            raise ValueError("lambda_u must be >= 0")
        if not 0.0 <= self.warmup_fraction <= 1.0:
            raise ValueError("warmup_fraction must be in [0, 1]")

    @classmethod
    def five_shot(cls, seed: int, **overrides) -> "TrainConfig":
        preset = dict(batch_size=4, learning_rate=1e-4, K=2, K_prime=3)
        preset.update(overrides)
        return cls(seed=seed, **preset)

    def with_(self, **overrides) -> "TrainConfig":
        return replace(self, **overrides)


def load_config(path: str | Path) -> TrainConfig:
    """Read a TrainConfig from a JSON (or TOML, on Python 3.11+) file."""
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".toml":
        try:
            import tomllib
        except ImportError as exc:
            raise DataError("TOML configs need Python 3.11+; use JSON") from exc
        raw = tomllib.loads(text)
    else:
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: invalid config ({exc})") from exc
    if "seed" not in raw:
        raise DataError(f"{path}: config must set a seed")
    known = set(TrainConfig.__dataclass_fields__)
    unknown = set(raw) - known
    if unknown:
        raise DataError(f"{path}: unknown config fields {sorted(unknown)}")
    return TrainConfig(**raw)


@dataclass
class OptimizerState:
    """Adam accumulators plus the learning-rate plan."""

    base_lr: float
    warmup_fraction: float
    total_steps: int
    step: int = 0
    first_moment: dict[str, np.ndarray] = field(default_factory=dict)
    second_moment: dict[str, np.ndarray] = field(default_factory=dict)

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8


def init_optimizer(
    params: dict[str, np.ndarray], base_lr: float, warmup_fraction: float, total_steps: int
) -> OptimizerState:
    if total_steps < 1:
        raise ValueError("total_steps must be >= 1")
    return OptimizerState(
        base_lr=base_lr,
        warmup_fraction=warmup_fraction,
        total_steps=total_steps,
        first_moment={k: np.zeros_like(v) for k, v in params.items()},
        second_moment={k: np.zeros_like(v) for k, v in params.items()},
    )


def lr_at(state: OptimizerState) -> float:
    """Linear ramp to base_lr over the warmup span, then linear decay to 0."""
    total = state.total_steps
    warmup = state.warmup_fraction * total
    s = state.step
    if s >= total:
        return 0.0
    if s < warmup:
        return state.base_lr * (s / warmup)
    return state.base_lr * ((total - s) / (total - warmup))


def adam_step(
    state: OptimizerState, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]
) -> tuple[dict[str, np.ndarray], OptimizerState]:
    """One Adam update in place; the step's rate comes from lr_at."""
    lr = lr_at(state)
    t = state.step + 1
    for name, p in params.items():
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient in parameter block {name!r}")
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
    return params, state


@dataclass(frozen=True)
class Episode:
    """A sampled mini-task: disjoint support and query sentence sets."""

    support: tuple[TokenSequence, ...]
    query: tuple[TokenSequence, ...]
    sampled_types: tuple[str, ...]


def sample_episode(
    corpus: TaggedCorpus, m_types: int, k_support: int, k_query: int, seed: int
) -> Episode:
    """Draw M types uniformly, then per type top up support and query with
    sentences containing it, without replacement and globally disjoint.
    A sentence counts toward every sampled type it contains.
    """
    types = corpus.labels.entity_types
    if m_types > len(types):
        raise DataError(f"corpus has {len(types)} entity types; cannot sample {m_types}")
    rng = random.Random(seed)
    sampled = rng.sample(list(types), m_types)
    type_sets = [
        {split_tag(t)[1] for t in sent.tags if t != "O"} for sent in corpus.sentences
    ]
    support: set[int] = set()
    query: set[int] = set()

    def top_up(bucket: set[int], other: set[int], etype: str, want: int):
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
        support=tuple(corpus.sentences[i] for i in sorted(support)),
        query=tuple(corpus.sentences[i] for i in sorted(query)),
        sampled_types=tuple(sampled),
    )


def build_vocabulary(corpus: TaggedCorpus, extra_sentences=()) -> list[str]:
    """Case-sensitive word list (sorted, no frequency cutoff)."""
    words = {tok for sent in corpus.sentences for tok in sent.tokens}
    for tokens in extra_sentences:
        words.update(tokens)
    return sorted(words)


def _start_encoder(
    corpus: TaggedCorpus, config: TrainConfig, init: Model | EncoderParams | None, extra=()
) -> EncoderParams:
    if isinstance(init, Model):
        return init.encoder.copy()
    if isinstance(init, EncoderParams):
        return init.copy()
    return init_encoder(
        build_vocabulary(corpus, extra), config.embed_dim, config.hidden_dim, config.seed
    )


def _one_hot_targets(sent: TokenSequence, tag_index: dict[str, int]) -> np.ndarray:
    targets = np.zeros((len(sent), len(tag_index)))
    for j, tag in enumerate(sent.tags):
        targets[j, tag_index[tag]] = 1.0
    return targets


def _train_weighted(
    items: list[tuple[TokenSequence, np.ndarray, float]],
    labels,
    config: TrainConfig,
    encoder: EncoderParams,
    head,
    on_epoch=None,
) -> Model:
    """Mini-batch Adam over (sentence, per-token targets, weight) items.

    A token's loss carries its sentence's weight; each batch is normalized
    by the corpus-wide mean token weight times the batch's token count, so
    the weighting between item groups holds across batches and uniform
    weights reduce to the plain token mean. Each batch is one encode, one
    head forward/backward and one encoder backward over the concatenated
    windows of its sentences.
    """
    n = len(items)
    batches_per_epoch = math.ceil(n / config.batch_size)
    total_steps = config.epochs * batches_per_epoch
    trainable = {f"head.{k}": v for k, v in head.arrays().items()}
    if not config.freeze_encoder:
        trainable.update({f"encoder.{k}": v for k, v in encoder.arrays().items()})
    if total_steps > 0:
        state = init_optimizer(
            trainable, config.learning_rate, config.warmup_fraction, total_steps
        )
    shuffle_rng = random.Random(config.seed + SEED_SHUFFLE)
    total_tokens = sum(len(sent) for sent, _, _ in items)
    mean_token_weight = (
        sum(weight * len(sent) for sent, _, weight in items) / total_tokens
    )
    # the vocabulary is fixed during training, so each item's windows are too
    windows = [window_indices(encoder, sent.tokens) for sent, _, _ in items]
    token_weights = [np.full(len(sent), weight) for sent, _, weight in items]

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
                enc_grads = encode_windows_backward(encoder, batch_windows, reprs, upstream)
                grads.update({f"encoder.{k}": v for k, v in enc_grads.arrays().items()})
            norm = mean_token_weight * len(batch_windows)
            if norm > 0.0:
                for g in grads.values():
                    g /= norm
                adam_step(state, trainable, grads)
            epoch_loss += batch_loss
            epoch_norm += norm
        if on_epoch is not None:
            on_epoch(epoch, epoch_loss / epoch_norm if epoch_norm else 0.0)
    return Model(encoder, labels, LINEAR, head)


def train_linear(
    corpus: TaggedCorpus,
    config: TrainConfig,
    init: Model | EncoderParams | None = None,
    on_epoch=None,
) -> Model:
    """Supervised fine-tuning of the linear head (and, unless frozen, the
    encoder) with per-token cross-entropy.

    `init` warm-starts the encoder; a Model init also reuses its head when
    it is linear over the identical tag vocabulary, otherwise a freshly
    seeded head is attached.
    """
    if len(corpus) == 0:
        raise DataError("cannot train on an empty corpus")
    tags = corpus.labels.tag_vocabulary
    encoder = _start_encoder(corpus, config, init)
    if (
        isinstance(init, Model)
        and init.head_kind == LINEAR
        and init.labels.tag_vocabulary == tags
    ):
        head = init.head.copy()
    else:
        head = init_linear_head(len(tags), encoder.hidden_dim, config.seed + SEED_HEAD)
    tag_index = {t: i for i, t in enumerate(tags)}
    items = [(s, _one_hot_targets(s, tag_index), 1.0) for s in corpus.sentences]
    return _train_weighted(items, corpus.labels, config, encoder, head, on_epoch)


def train_prototype(
    corpus: TaggedCorpus,
    config: TrainConfig,
    init: Model | EncoderParams | None = None,
    on_epoch=None,
) -> Model:
    """Episodic training of the encoder: per iteration sample an episode,
    build prototypes for the episode's tag labels from the support set,
    classify query tokens by distance and backpropagate through both the
    query representations and the prototype means.

    Only the encoder is trained; query tokens whose gold tag falls outside
    the episode's label space contribute nothing.
    """
    if len(corpus) == 0:
        raise DataError("cannot train on an empty corpus")
    if config.freeze_encoder:
        raise ValueError("freeze_encoder leaves prototype training nothing to update")
    types = corpus.labels.entity_types
    if not types:
        raise DataError("corpus has no entity types")
    m_types = min(config.M, len(types))
    encoder = _start_encoder(corpus, config, init)
    per_episode = m_types * (config.K + config.K_prime)
    iters_per_epoch = math.ceil(len(corpus) / per_episode)
    total_steps = config.epochs * iters_per_epoch
    trainable = {f"encoder.{k}": v for k, v in encoder.arrays().items()}
    if total_steps > 0:
        state = init_optimizer(
            trainable, config.learning_rate, config.warmup_fraction, total_steps
        )
    episode_rng = random.Random(config.seed + SEED_EPISODES)
    vocab_order = corpus.labels.tag_vocabulary
    epoch_losses: list[float] = []

    for step in range(total_steps):
        episode = sample_episode(
            corpus, m_types, config.K, config.K_prime, seed=episode_rng.getrandbits(32)
        )
        in_scope = set(episode.sampled_types)
        support_reprs = [encode(encoder, s) for s in episode.support]
        # support provenance per tag label, restricted to the sampled types
        members: dict[str, list[tuple[int, int]]] = {}
        for i, sent in enumerate(episode.support):
            for j, tag in enumerate(sent.tags):
                etype = split_tag(tag)[1]
                if etype is None or etype in in_scope:
                    members.setdefault(tag, []).append((i, j))
        space = [t for t in vocab_order if t in members]
        protos = build_prototypes(
            {t: [support_reprs[i][j] for i, j in members[t]] for t in space}
        )
        label_pos = {t: k for k, t in enumerate(space)}

        support_up = [np.zeros_like(r) for r in support_reprs]
        query_reprs = [encode(encoder, s) for s in episode.query]
        query_up = [np.zeros_like(r) for r in query_reprs]
        centroid_grads = {t: np.zeros(encoder.hidden_dim) for t in space}
        n_tokens = 0
        loss = 0.0
        for i, sent in enumerate(episode.query):
            for j, tag in enumerate(sent.tags):
                if tag not in label_pos:
                    continue
                target = np.zeros(len(space))
                target[label_pos[tag]] = 1.0
                dist = proto_forward(protos, query_reprs[i][j])
                loss += cross_entropy(dist, target)
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
        for sent, up in zip(episode.support + episode.query, support_up + query_up):
            if not np.any(up):
                continue
            enc_grads = encode_backward(encoder, sent, up / n_tokens)
            for k, v in enc_grads.arrays().items():
                grads[f"encoder.{k}"] += v
        adam_step(state, trainable, grads)
        if on_epoch is not None and (step + 1) % iters_per_epoch == 0:
            mean_loss = sum(epoch_losses) / len(epoch_losses) if epoch_losses else 0.0
            on_epoch((step + 1) // iters_per_epoch - 1, mean_loss)
            epoch_losses = []
    return Model(encoder, corpus.labels, PROTOTYPE, None)


def _scheme_base(scheme: str) -> str:
    return "proto" if scheme.startswith("proto") else "lc"


def pretrain_transfer(
    source: TaggedCorpus,
    target: TaggedCorpus,
    config: TrainConfig,
    source_config: TrainConfig | None = None,
) -> Model:
    """Two-stage transfer: train on the source corpus with its own tag
    vocabulary, then keep the encoder, attach a fresh head for the target
    vocabulary and fine-tune on the target.

    The objective of both stages follows the scheme base (lc -> linear,
    proto -> prototype). source_config overrides stage-1 hyperparameters.
    """
    stage1_config = source_config if source_config is not None else config
    if _scheme_base(config.scheme) == "proto":
        stage1 = train_prototype(source, stage1_config)
        return train_prototype(target, config, init=stage1.encoder)
    stage1 = train_linear(source, stage1_config)
    return train_linear(target, config, init=stage1.encoder)


@dataclass
class SoftLabelDataset:
    """Unlabeled sentences with one teacher distribution per token."""

    tag_order: tuple[str, ...]
    items: list[tuple[tuple[str, ...], np.ndarray]]

    def __post_init__(self):
        for tokens, probs in self.items:
            if probs.shape != (len(tokens), len(self.tag_order)):
                raise ValueError(
                    f"soft labels {probs.shape} != ({len(tokens)}, {len(self.tag_order)})"
                )
            if np.any(probs < 0) or np.any(np.abs(probs.sum(axis=1) - 1.0) > 1e-6):
                raise ValueError("soft labels are not distributions")


def generate_soft_labels(teacher: Model, sentences) -> SoftLabelDataset:
    """Run the teacher on raw token sequences, keeping the full per-token
    distribution (no argmax). Only linear-head teachers are supported:
    a prototype teacher would need its support set stored.
    """
    if teacher.head_kind != LINEAR:
        raise DataError("soft labels need a linear-head teacher")
    items = []
    for tokens in sentences:
        tokens = tuple(tokens)
        seq = TokenSequence(tokens, tuple("O" for _ in tokens))
        probs = linear_forward(teacher.head, encode(teacher.encoder, seq))
        items.append((tokens, probs))
    return SoftLabelDataset(teacher.labels.tag_vocabulary, items)


def self_train(
    labeled: TaggedCorpus,
    unlabeled,
    config: TrainConfig,
    init: Model | EncoderParams | None = None,
) -> Model:
    """One teacher -> student round: train a linear teacher on the labeled
    corpus, soft-label the unlabeled sentences, then train a freshly
    initialized student on labeled items weighted 1/|L| and soft items
    weighted lambda_u/|U|.

    With lambda_u = 0 or no unlabeled data this is exactly supervised
    training. Without an explicit init the student's vocabulary covers the
    unlabeled words too; with one (e.g. a pre-trained encoder) the student
    starts from it unchanged.
    """
    unlabeled = [tuple(tokens) for tokens in unlabeled]
    if config.lambda_u == 0.0 or not unlabeled:
        return train_linear(labeled, config, init=init)
    teacher = train_linear(labeled, config, init=init)
    soft = generate_soft_labels(teacher, unlabeled)

    tags = labeled.labels.tag_vocabulary
    tag_index = {t: i for i, t in enumerate(tags)}
    if init is None:
        encoder = init_encoder(
            build_vocabulary(labeled, unlabeled),
            config.embed_dim,
            config.hidden_dim,
            config.seed,
        )
    else:
        encoder = _start_encoder(labeled, config, init)
    head = init_linear_head(len(tags), encoder.hidden_dim, config.seed + SEED_HEAD)

    w_labeled = 1.0 / len(labeled)
    w_soft = config.lambda_u / len(unlabeled)
    items = [(s, _one_hot_targets(s, tag_index), w_labeled) for s in labeled.sentences]
    for tokens, probs in soft.items:
        seq = TokenSequence(tokens, tuple("O" for _ in tokens))
        items.append((seq, probs, w_soft))
    return _train_weighted(items, labeled.labels, config, encoder, head)


def run_scheme(
    labeled: TaggedCorpus,
    config: TrainConfig,
    source: TaggedCorpus | None = None,
    unlabeled=None,
    source_config: TrainConfig | None = None,
) -> Model:
    """Dispatch config.scheme to the right chain of training operations."""
    scheme = config.scheme
    if "nsp" in scheme and source is None:
        raise DataError(f"scheme {scheme!r} requires a source corpus")
    if scheme.endswith("st") and unlabeled is None:
        raise DataError(f"scheme {scheme!r} requires unlabeled sentences")
    if scheme == "lc":
        return train_linear(labeled, config)
    if scheme == "proto":
        return train_prototype(labeled, config)
    if scheme in ("lc+nsp", "proto+nsp"):
        return pretrain_transfer(source, labeled, config, source_config=source_config)
    if scheme == "lc+st":
        return self_train(labeled, unlabeled, config)
    if scheme == "lc+nsp+st":
        stage1 = train_linear(source, source_config if source_config is not None else config)
        return self_train(labeled, unlabeled, config, init=stage1.encoder)
    raise DataError(f"unknown scheme {scheme!r}")
