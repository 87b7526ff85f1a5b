"""Training schemes over the window encoder and the two heads.

train_linear fine-tunes the encoder under a linear head; train_prototype
trains it on episodes with prototypes. A scheme (SCHEMES) is a chain of
named stages, and STAGES gives each name the input it reads, the trainer
it calls and its step. run_scheme walks the stages that scheme_stages
says a run executes, passing on the warm start (pretrain), the latest model
and the soft labels that a student trains on with the teacher's data;
pretrain_transfer and self_train are such runs. Every result is a
deterministic function of (data, config, seed).

Every trainer hands its batches to one epoch loop, _fit, which takes one
Adam step per batch over a flat ParamArena whose views the model's arrays
become; the rate plan (OptimizerState) is a linear warmup and decay over
the whole run, and a batch's loss is a (weighted) mean over its tokens.
"""

from __future__ import annotations

import json
import math
import random
import sys
from collections import namedtuple
from dataclasses import dataclass, replace
from functools import partial
from itertools import accumulate, pairwise, takewhile
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .checkpoint import Model
from .corpus import TaggedCorpus, WordIds, sentence_rows, top_up, word_ids
from .encoder import (
    EncoderGrads,
    EncoderParams,
    _encode_checked,
    encode_blocks,
    encode_windows_backward,
    init_encoder,
    word_windows,
)
from .errors import OVERFLOW_BOUND, DataError, NumericError
from .heads import init_linear_head, linear_forward, linear_loss_grads, proto_loss_grads

# each scheme's stages in run order (scheme_stages gives those a run executes);
# STAGES says what each one reads and does
SCHEMES = {
    "lc": ("train_linear",),
    "proto": ("train_prototype",),
    "lc+nsp": ("pretrain:train_linear", "finetune:train_linear"),
    "proto+nsp": ("pretrain:train_prototype", "finetune:train_prototype"),
    "lc+st": ("teacher:train_linear", "soft_labels", "student:train_linear"),
    "lc+nsp+st": (
        "pretrain:train_linear",
        "teacher:train_linear",
        "soft_labels",
        "student:train_linear",
    ),
}

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
            raise DataError(f"unknown scheme {self.scheme!r}; expected one of {tuple(SCHEMES)}")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        for name in ("batch_size", "M", "K", "K_prime", "embed_dim", "hidden_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        # numpy refuses (hidden_dim, 3 embed_dim) context weights of more bytes than an intp holds
        if 24 * self.embed_dim * self.hidden_dim > np.iinfo(np.intp).max:
            raise ValueError("embed_dim and hidden_dim make the context weights too large")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if not 0 < self.learning_rate <= sys.float_info.max:  # an int may pass any float
            raise ValueError("learning_rate must be positive and finite")
        if not 0 <= self.lambda_u <= sys.float_info.max:
            raise ValueError("lambda_u must be >= 0 and finite")
        if not 0.0 <= self.warmup_fraction <= 1.0:
            raise ValueError("warmup_fraction must be in [0, 1]")

    @classmethod
    def five_shot(cls, seed: int, **overrides) -> "TrainConfig":
        preset = dict(batch_size=4, learning_rate=1e-4, K=2, K_prime=3)
        preset.update(overrides)
        return cls(seed=seed, **preset)

    def with_(self, **overrides) -> "TrainConfig":
        return replace(self, **overrides)


# JSON/TOML value types accepted per declared field type; an int is a valid
# float, but a bool is valid only for bool fields
_CONFIG_TYPES = {"int": int, "float": (int, float), "bool": bool, "str": str}


def load_config(text: str, path: str | Path) -> TrainConfig:
    """Parse a TrainConfig from the JSON (or TOML, on Python 3.11+) text of
    the file at path, which picks the parser by its suffix and is not read.

    Every value must have its field's declared type; a malformed or invalid
    config raises DataError naming the file.
    """
    path, parser = Path(path), json
    try:
        if path.suffix == ".toml":
            import tomllib as parser  # Python 3.11+
        raw = parser.loads(text)
    except ImportError as exc:
        raise DataError(f"{path}: invalid config (TOML needs Python 3.11+; use JSON)") from exc
    except (ValueError, RecursionError) as exc:  # not JSON or TOML, or nested too deeply
        raise DataError(f"{path}: invalid config ({exc})") from exc
    if not isinstance(raw, dict):
        raise DataError(f"{path}: a config must be an object of fields")
    if "seed" not in raw:
        raise DataError(f"{path}: config must set a seed")
    fields = TrainConfig.__dataclass_fields__
    unknown = set(raw) - set(fields)
    if unknown:
        raise DataError(f"{path}: unknown config fields {sorted(unknown)}")
    for name, value in raw.items():
        declared = fields[name].type
        if isinstance(value, bool) != (declared == "bool") or not isinstance(
            value, _CONFIG_TYPES[declared]
        ):
            raise DataError(f"{path}: config field {name!r} must be {declared}, got {value!r}")
    try:
        return TrainConfig(**raw)
    except (ValueError, DataError) as exc:
        raise DataError(f"{path}: invalid config ({exc})") from exc


class ParamArena:
    """Named parameter blocks laid out in one flat buffer.

    The blocks are copied into `params` in the given order; `views` holds
    each block as a reshaped view of it, and `grad_views` the same of `grads`,
    a gradient buffer of the same layout. Block i is params[bounds[i]:bounds[i + 1]].
    Adam's zeroed moments and the two work rows adam_step reuses share it.
    """

    def __init__(self, blocks: dict[str, np.ndarray]):
        self.names = tuple(blocks)
        self.bounds = np.cumsum([0, *(b.size for b in blocks.values())])
        self.params = np.concatenate([b.ravel() for b in blocks.values()])
        self.grads = np.zeros_like(self.params)
        self.first_moment = np.zeros_like(self.params)
        self.second_moment = np.zeros_like(self.params)
        self.work = np.empty((2, *self.params.shape))
        spans = list(zip(blocks, self.bounds, self.bounds[1:], (b.shape for b in blocks.values())))
        self.views = {name: self.params[a:z].reshape(shape) for name, a, z, shape in spans}
        self.grad_views = {name: self.grads[a:z].reshape(shape) for name, a, z, shape in spans}

    def block_at(self, index: int) -> str:
        """The name of the block holding flat position index."""
        return self.names[int(np.searchsorted(self.bounds, index, side="right")) - 1]


@dataclass
class OptimizerState:
    """Adam's learning-rate plan and step count; the moments it updates
    live in the ParamArena."""

    base_lr: float
    warmup_fraction: float
    total_steps: int
    step: int = 0

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8


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


def adam_step(state: OptimizerState, arena: ParamArena) -> None:
    """One Adam update of arena.params from arena.grads and its moments, in
    place; the step's rate comes from lr_at. A non-finite gradient raises
    NumericError naming its block before any parameter changes."""
    g = arena.grads
    finite = np.isfinite(g)
    if not finite.all():
        bad = arena.block_at(int(np.argmin(finite)))
        raise NumericError(f"non-finite gradient in parameter block {bad!r}")
    t = state.step + 1
    # Kingma & Ba's efficient order (Adam, after Algorithm 1): the bias
    # corrections fold into the step size a_t and into eps_hat
    root2 = math.sqrt(1.0 - state.beta2**t)
    a_t = lr_at(state) * root2 / (1.0 - state.beta1**t)
    eps_hat = state.eps * root2
    m, v = arena.first_moment, arena.second_moment
    num, den = arena.work
    # m = b1 m + (1 - b1) g;  v = b2 v + ((1 - b2) g) g
    np.multiply(g, 1.0 - state.beta1, out=num)
    m *= state.beta1
    m += num
    np.multiply(g, 1.0 - state.beta2, out=num)
    num *= g
    v *= state.beta2
    v += num
    # p -= a_t m / (sqrt(v) + eps_hat)
    np.multiply(m, a_t, out=num)
    np.sqrt(v, out=den)
    den += eps_hat
    num /= den
    arena.params -= num
    state.step = t


@dataclass(frozen=True)
class Episode:
    """A sampled mini-task: disjoint support and query sentence sets of the
    corpus it was drawn from, held as ascending sentence indices."""

    support_ids: tuple[int, ...]
    query_ids: tuple[int, ...]
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
    support: set[int] = set()
    query: set[int] = set()
    for etype in sampled:
        members = corpus.type_index[etype]
        for bucket, other, want in ((support, query, k_support), (query, support, k_query)):
            available = top_up(rng, members, bucket, want, exclude=other)
            if available < want:
                raise DataError(
                    f"type {etype!r}: only {available} sentences available "
                    f"for {want} required"
                )
    return Episode(tuple(sorted(support)), tuple(sorted(query)), tuple(sampled))


def build_vocabulary(corpus: TaggedCorpus, extra_words=()) -> list[str]:
    """Case-sensitive word list of the corpus plus extra_words (sorted, no
    frequency cutoff)."""
    return sorted({*corpus.word_ids.words, *extra_words})


def _start_encoder(
    corpus: TaggedCorpus, config: TrainConfig, init: EncoderParams | None, extra_words=()
) -> EncoderParams:
    if init is not None:
        return init.copy()
    return init_encoder(
        build_vocabulary(corpus, extra_words), config.embed_dim, config.hidden_dim, config.seed
    )


def _arena(owners: dict) -> tuple[ParamArena, dict[str, dict[str, np.ndarray]]]:
    """One arena over the owners' arrays, named "<owner>.<array>" in owner
    order, with each owner's attributes rebound to their views (training then
    updates the model through one flat array), and each owner's gradient views by name."""
    arena = ParamArena(
        {f"{prefix}.{k}": v for prefix, owner in owners.items() for k, v in owner.arrays().items()}
    )
    grads = {prefix: {} for prefix in owners}
    for name, view in arena.views.items():
        prefix, attr = name.split(".")
        setattr(owners[prefix], attr, view)
        grads[prefix][attr] = arena.grad_views[name]
    return arena, grads


def _fit(arena, config, steps, batches, epoch_loss, on_epoch) -> None:
    """The one epoch loop: Adam planned over config.epochs x steps; per epoch,
    one adam_step per loss batches(with_loss) yields after writing a batch's
    gradients. Losses, computed only for on_epoch, reach it as epoch_loss(losses)."""
    state = OptimizerState(config.learning_rate, config.warmup_fraction, config.epochs * steps)
    with_loss = on_epoch is not None
    for epoch in range(config.epochs):
        losses = []
        for loss in batches(with_loss):
            adam_step(state, arena)
            losses.append(loss)
        if with_loss:
            on_epoch(epoch, epoch_loss(losses))


def _train_weighted(
    model: Model,
    windows: np.ndarray,
    offsets: np.ndarray,
    targets: np.ndarray,
    weights,
    config: TrainConfig,
    on_epoch=None,
) -> Model:
    """Train a linear model in place by mini-batch Adam over sentences given
    as one window column with its sentence offsets, one flat (tokens x
    tags) target column in the same order and one weight per sentence.

    A token's loss carries its sentence's weight; each batch is normalized
    by the run-wide mean token weight times the batch's token count, so the
    weighting between sentence groups holds across batches and uniform
    weights reduce to the plain token mean. A batch is a run of shuffled
    sentences, one encode, head forward/backward and encoder backward over
    their rows; an epoch's loss is its batch losses' sum over weight_sum.
    A weight sum that overflows raises NumericError before the first step.
    A run ending with max_j ||W_j||_1 + max|b|, which bounds every logit of
    tanh-bounded rows, not below OVERFLOW_BOUND raises NumericError.
    """
    encoder, head = model.encoder, model.head
    n = len(offsets) - 1
    owners = {"head": head} if config.freeze_encoder else {"head": head, "encoder": encoder}
    arena, owner_grads = _arena(owners)
    head_grads = tuple(owner_grads["head"].values())
    enc_grads = EncoderGrads(**owner_grads["encoder"]) if "encoder" in owner_grads else None
    shuffle_rng = random.Random(config.seed + SEED_SHUFFLE)
    lengths = np.diff(offsets).tolist()
    weight_sum = sum(w * k for w, k in zip(weights, lengths))  # over every token
    if not math.isfinite(weight_sum):  # every step would divide the token weights by it
        raise NumericError("non-finite token weight sum")
    mean_token_weight = weight_sum / sum(lengths)
    token_weights = np.repeat(weights, lengths)
    epoch_loss = lambda losses: sum(losses) / weight_sum

    def batches(with_loss):
        order = list(range(n))
        shuffle_rng.shuffle(order)
        # the epoch's rows in shuffled sentence order; a batch is a run of them
        rows = sentence_rows(offsets, order)
        bounds = [0, *accumulate(lengths[i] for i in order)]
        for start in range(0, n, config.batch_size):
            batch = rows[bounds[start] : bounds[min(start + config.batch_size, n)]]
            batch_windows = windows[batch]
            x, reprs = _encode_checked(encoder, batch_windows)
            # every gradient is linear in the logit gradient, so the batch's
            # normalization scales its token weights, not the arena
            scale = mean_token_weight * len(batch)
            loss, _, _, upstream = linear_loss_grads(
                head, reprs, targets[batch], token_weights[batch] / scale, head_grads, with_loss
            )
            if enc_grads is not None:
                encode_windows_backward(encoder, batch_windows, reprs, upstream, enc_grads, x)
            yield None if loss is None else loss * scale

    _fit(arena, config, math.ceil(n / config.batch_size), batches, epoch_loss, on_epoch)
    with np.errstate(all="ignore"):  # inf and NaN fail the check
        if not np.abs(head.weights).sum(axis=1).max() + np.abs(head.bias).max() < OVERFLOW_BOUND:
            raise NumericError(f"linear-head logit bound reached {OVERFLOW_BOUND:g}")
    return model


def _linear_start(labeled: TaggedCorpus, config: TrainConfig, init, *pools: WordIds):
    """A linear model (a copy of init or a fresh encoder whose vocabulary covers
    the pools' words too, under a head seeded at seed + SEED_HEAD), the windows
    of the labeled sentences then the pools' and the labeled one-hot targets."""
    tags = labeled.labels.tag_vocabulary
    encoder = _start_encoder(labeled, config, init, [w for pool in pools for w in pool.words])
    head = init_linear_head(len(tags), encoder.hidden_dim, config.seed + SEED_HEAD)
    # the vocabulary is fixed during training, so the windows are too
    windows = np.concatenate([word_windows(encoder, w) for w in (labeled.word_ids, *pools)])
    return Model(encoder, labeled.labels, head), windows, np.eye(len(tags))[labeled.tag_ids]


def train_linear(
    corpus: TaggedCorpus,
    config: TrainConfig,
    init: EncoderParams | None = None,
    on_epoch=None,
) -> Model:
    """Supervised fine-tuning of a freshly seeded linear head (and, unless
    frozen, the encoder) with per-token cross-entropy; `init` warm-starts
    the encoder with a copy of it.
    """
    if len(corpus) == 0:
        raise DataError("cannot train on an empty corpus")
    model, windows, targets = _linear_start(corpus, config, init)
    weights = [1.0] * len(corpus)
    return _train_weighted(model, windows, corpus.offsets, targets, weights, config, on_epoch)


def train_prototype(
    corpus: TaggedCorpus,
    config: TrainConfig,
    init: EncoderParams | None = None,
    on_epoch=None,
) -> Model:
    """Episodic training of the encoder: per iteration sample an episode,
    build prototypes for the episode's tag labels from the support set,
    classify query tokens by distance and backpropagate through both the
    query representations and the prototype means.

    Only the encoder is trained; query tokens whose gold tag falls outside
    the episode's label space contribute nothing, and an episode without one
    in scope is neither encoded nor stepped. An episode is one encode of its
    support and query windows, one loss and gradient over its in-scope query
    tokens and one encoder backward; an epoch's loss is the mean of its
    stepped episodes' losses.
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
    iters_per_epoch = math.ceil(len(corpus) / (m_types * (config.K + config.K_prime)))
    arena, owner_grads = _arena({"encoder": encoder})
    grads = EncoderGrads(**owner_grads["encoder"])
    episode_rng = random.Random(config.seed + SEED_EPISODES)
    tag_type = corpus.labels.codes[0]
    # the vocabulary is fixed during training, so the windows are too
    windows = word_windows(encoder, corpus.word_ids)
    lengths = np.diff(corpus.offsets)
    epoch_loss = lambda losses: sum(losses) / len(losses) if losses else 0.0

    def batches(with_loss):
        for _ in range(iters_per_epoch):
            episode = sample_episode(
                corpus, m_types, config.K, config.K_prime, seed=episode_rng.getrandbits(32)
            )
            rows = sentence_rows(corpus.offsets, episode.support_ids + episode.query_ids)
            tag_ids = corpus.tag_ids[rows]
            n_support = int(lengths[list(episode.support_ids)].sum())
            # label space: the support's tags of the sampled types plus "O", in
            # vocabulary order; "O" has type id -1, the last slot of in_scope
            in_scope = np.zeros(len(types) + 1, dtype=bool)
            in_scope[[types.index(t) for t in episode.sampled_types] + [-1]] = True
            present = np.bincount(tag_ids[:n_support], minlength=len(tag_type)) > 0
            space = np.flatnonzero(present & in_scope[tag_type])
            label_pos = np.full(len(tag_type), -1)
            label_pos[space] = np.arange(len(space))
            row_label = label_pos[tag_ids]
            support_label = row_label[:n_support]
            query_rows = n_support + np.flatnonzero(row_label[n_support:] >= 0)
            n_tokens = len(query_rows)
            if n_tokens == 0:
                continue
            episode_windows = windows[rows]
            x, reprs = _encode_checked(encoder, episode_windows)
            members = np.flatnonzero(support_label >= 0)
            member_label = support_label[members]
            counts = np.bincount(member_label, minlength=len(space))
            # each label's support rows in row order, summed and divided as np.mean does
            grouped = reprs[members[np.argsort(member_label, kind="stable")]]
            bounds = pairwise([0, *np.cumsum(counts).tolist()])
            sums = [np.add.reduce(grouped[a:b], axis=0) for a, b in bounds]
            centroids = np.stack(sums) / counts[:, None]
            targets = np.zeros((n_tokens, len(space)))
            targets[np.arange(n_tokens), row_label[query_rows]] = 1.0
            loss, d_query, d_centroids = proto_loss_grads(
                centroids, reprs[query_rows], targets, with_loss
            )
            # a centroid is the mean of its support rows, so each of them gets
            # the centroid's gradient divided by the label's support count
            upstream = np.zeros_like(reprs)
            upstream[query_rows] = d_query
            upstream[members] = (d_centroids / counts[:, None])[member_label]
            upstream /= n_tokens
            encode_windows_backward(encoder, episode_windows, reprs, upstream, grads, x)
            yield loss / n_tokens if with_loss else None

    _fit(arena, config, iters_per_epoch, batches, epoch_loss, on_epoch)
    return Model(encoder, corpus.labels)


def pretrain_transfer(
    source: TaggedCorpus,
    target: TaggedCorpus,
    config: TrainConfig,
    source_config: TrainConfig | None = None,
) -> Model:
    """Two-stage transfer, run_scheme with a source and no unlabeled text:
    train on the source with its own tags (under source_config if given),
    then keep the encoder under a fresh head and fine-tune on the target.
    A scheme without a pretrain stage, or one that needs unlabeled text,
    is a DataError."""
    if "source" not in scheme_inputs(config.scheme):
        raise DataError(f"scheme {config.scheme!r} has no pretrain stage")
    return run_scheme(target, config, source=source, source_config=source_config)


def generate_soft_labels(teacher: Model, words: WordIds) -> np.ndarray:
    """The teacher's full distribution (no argmax) over its
    labels.tag_vocabulary for every token of the word-id column: one
    (tokens x tags) array, sentence after sentence, from one
    encoder.encode_blocks pass. Only linear-head teachers are supported:
    a prototype teacher would need its support set stored.
    """
    if teacher.head is None:
        raise DataError("soft labels need a linear-head teacher")
    if np.any(np.diff(words.offsets) == 0):
        raise DataError("empty sentence")
    return encode_blocks(teacher.encoder, words, partial(linear_forward, teacher.head))


# a STAGES entry: the input a stage reads ("labeled", "source" or
# "unlabeled"), the trainer it calls and its step over the run state
_Stage = namedtuple("_Stage", "reads trainer step")


def _pretrain(run, stage: _Stage) -> None:
    """Train on the source's own tags; only the encoder goes on, as the warm start."""
    run.init = stage.trainer(run.inputs[stage.reads], run.configs[stage.reads]).encoder


def _train(run, stage: _Stage) -> None:
    run.model = stage.trainer(run.inputs[stage.reads], run.configs[stage.reads], init=run.init)


def _soft_labels(run, stage: _Stage) -> None:
    run.soft = generate_soft_labels(run.model, run.inputs[stage.reads])


def _student(run, stage: _Stage) -> None:
    """A freshly initialized student on labeled items weighted 1/|L| and
    soft items weighted lambda_u/|U|. Without a warm start its vocabulary
    covers the unlabeled words too; with one it starts from it unchanged."""
    labeled, config = run.inputs[stage.reads], run.configs[stage.reads]
    pool = run.inputs["unlabeled"]
    student, windows, targets = _linear_start(labeled, config, run.init, pool)
    # the labeled sentences, then the unlabeled ones
    offsets = np.concatenate([labeled.offsets, labeled.offsets[-1] + pool.offsets[1:]])
    targets = np.concatenate([targets, run.soft])
    n_unlabeled = len(pool.offsets) - 1
    weights = [1.0 / len(labeled)] * len(labeled) + [config.lambda_u / n_unlabeled] * n_unlabeled
    run.model = stage.trainer(student, windows, offsets, targets, weights, config)


# every stage name of SCHEMES -> what that stage reads, calls and does
STAGES = {
    "train_linear": _Stage("labeled", train_linear, _train),
    "train_prototype": _Stage("labeled", train_prototype, _train),
    "pretrain:train_linear": _Stage("source", train_linear, _pretrain),
    "pretrain:train_prototype": _Stage("source", train_prototype, _pretrain),
    "finetune:train_linear": _Stage("labeled", train_linear, _train),
    "finetune:train_prototype": _Stage("labeled", train_prototype, _train),
    "teacher:train_linear": _Stage("labeled", train_linear, _train),
    "soft_labels": _Stage("unlabeled", None, _soft_labels),
    "student:train_linear": _Stage("labeled", _train_weighted, _student),
}


def scheme_inputs(scheme: str) -> tuple[str, ...]:
    """The inputs besides the labeled corpus that scheme's stages read, in
    the order they are first read: "source", "unlabeled" or both."""
    reads = (STAGES[name].reads for name in SCHEMES[scheme])
    return tuple(dict.fromkeys(r for r in reads if r != "labeled"))


def scheme_stages(scheme: str, lambda_u: float, n_unlabeled: int) -> tuple[str, ...]:
    """The stages of SCHEMES[scheme] that a run executes, in order: soft
    labels with no weight (lambda_u 0 or no unlabeled sentences) end the run
    after the teacher."""
    stages = SCHEMES[scheme]
    return stages if lambda_u and n_unlabeled else tuple(takewhile("soft_labels".__ne__, stages))


def _run(scheme, labeled, config, source=None, unlabeled=None, source_config=None, init=None):
    """Run scheme_stages' stages in order through STAGES; return the last
    model. init warm-starts the stages on the labeled corpus; source_config
    configures those on the source. A missing input, or a prototype stage
    whose config freezes the encoder, is a DataError before any stage runs."""
    inputs = {"labeled": labeled, "source": source, "unlabeled": unlabeled}
    nouns = {"source": "a source corpus", "unlabeled": "unlabeled sentences"}
    needed = scheme_inputs(scheme)
    for name in needed:
        if inputs[name] is None:
            raise DataError(f"scheme {scheme!r} requires {nouns[name]}")
    configs = {"labeled": config, "source": source_config or config}
    n_unlabeled = 0
    if "unlabeled" in needed:  # built once, only for the stages that read it
        inputs["unlabeled"] = word_ids(unlabeled)
        n_unlabeled = len(inputs["unlabeled"].offsets) - 1
    stages = [(name, STAGES[name]) for name in scheme_stages(scheme, config.lambda_u, n_unlabeled)]
    for name, stage in stages:
        if stage.trainer is train_prototype and configs[stage.reads].freeze_encoder:
            raise DataError(
                f"scheme {scheme!r}: {name} has nothing to train with freeze_encoder set"
            )
    # what the stages read and pass on
    run = SimpleNamespace(inputs=inputs, configs=configs, init=init, model=None, soft=None)
    for _, stage in stages:
        stage.step(run, stage)
    return run.model


def run_scheme(
    labeled: TaggedCorpus, config: TrainConfig, source: TaggedCorpus | None = None,
    unlabeled=None, source_config: TrainConfig | None = None,
) -> Model:
    """Run config.scheme's stages (SCHEMES) on these inputs: see _run."""
    return _run(config.scheme, labeled, config, source, unlabeled, source_config)


def self_train(
    labeled: TaggedCorpus, unlabeled, config: TrainConfig, init: EncoderParams | None = None
) -> Model:
    """One teacher -> student round, the stages of SCHEMES["lc+st"]
    (_student): a linear teacher on the labeled corpus soft-labels the
    unlabeled sentences, then a fresh student trains on both. init (e.g. a
    pre-trained encoder) warm-starts the teacher and the student. With
    lambda_u = 0 or no unlabeled data this is exactly supervised training."""
    return _run("lc+st", labeled, config, unlabeled=unlabeled, init=init)
