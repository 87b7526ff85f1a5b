"""Synthetic desk-scale NER benchmarks.

The task is built so a 3-token window matters but bag-of-words does not:
a fixed inventory of entity words each carries a base type, a cue word
immediately before an entity shifts its type cyclically, and untriggered
entities may span two tokens (B + I). Each type also owns a few companion
words that tend to precede its entities, so context carries type evidence
for words never seen labeled. Plain filler words separate entities, so no
two chunks are ever adjacent.

The same generator emits coarse labels (3 types) or fine labels (6
subtypes, two per coarse type), giving a transfer pair: pre-train on the
fine-grained corpus, fine-tune or run prototype inference on the coarse
one, whose label set is unseen.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .corpus import LabelSet, TaggedCorpus, TokenSequence

COARSE_TYPES = ("LOC", "ORG", "PER")
N_ENTITY = 30
N_COMPANION = 3  # per coarse type
TRIGGER = "cue"
# chances that an entity follows the cue word (and takes the shifted type),
# and that an untriggered one follows a companion word or spans two tokens
TRIGGER_PROB = 0.25
COMPANION_PROB = 0.5
PAIR_PROB = 0.3
SOURCE_NOISE = 0.05  # transfer_benchmark's source tag noise

ENTITY_WORDS = tuple(f"e{i:02d}" for i in range(N_ENTITY))
COMPANION_WORDS = {
    t: tuple(f"near_{t.lower()}{k}" for k in range(N_COMPANION)) for t in COARSE_TYPES
}
N_PLAIN = 200 - N_ENTITY - 1 - N_COMPANION * len(COARSE_TYPES)
PLAIN_WORDS = tuple(f"w{i:03d}" for i in range(N_PLAIN))
VOCABULARY = (
    PLAIN_WORDS
    + tuple(w for t in COARSE_TYPES for w in COMPANION_WORDS[t])
    + ENTITY_WORDS
    + (TRIGGER,)
)  # exactly 200 words


def base_type(word_index: int) -> str:
    return COARSE_TYPES[word_index % len(COARSE_TYPES)]


# per coarse type, the entity indices of that base type: a pair's second word
SAME_BASE = {t: tuple(j for j in range(N_ENTITY) if base_type(j) == t) for t in COARSE_TYPES}


def subtype(word_index: int) -> int:
    return (word_index // len(COARSE_TYPES)) % 2 + 1


def shifted(coarse: str) -> str:
    i = COARSE_TYPES.index(coarse)
    return COARSE_TYPES[(i + 1) % len(COARSE_TYPES)]


def _fine(coarse: str, sub: int) -> str:
    return f"{coarse}{sub}"


def make_corpus(
    n_sentences: int,
    seed: int,
    fine: bool = False,
    trigger_prob: float = TRIGGER_PROB,
    noise: float = 0.0,
) -> TaggedCorpus:
    """Generate sentences over the fixed 200-word vocabulary.

    noise relabels an entity with a uniformly random wrong type; it only
    corrupts tags, never tokens (the noise draws come from their own
    stream, so corpora with different noise share sentences).
    """
    types, rows = _generate(n_sentences, seed, fine, trigger_prob, noise)
    sentences = tuple(TokenSequence(tokens, tags) for tokens, tags in rows)
    return TaggedCorpus(sentences, LabelSet(types, "BIO"))


def _generate(
    n_sentences: int, seed: int, fine: bool, trigger_prob: float, noise: float
) -> tuple[tuple[str, ...], list]:
    """make_corpus's entity types and (tokens, tags) rows, without the corpus."""
    rng = random.Random(seed)
    noise_rng = random.Random(seed + 999331)
    if fine:
        types = tuple(sorted(_fine(c, s) for c in COARSE_TYPES for s in (1, 2)))
    else:
        types = COARSE_TYPES
    sentences = []
    for _ in range(n_sentences):
        tokens: list[str] = []
        tags: list[str] = []

        def filler(low, high):
            for _ in range(rng.randint(low, high)):
                tokens.append(rng.choice(PLAIN_WORDS))
                tags.append("O")

        filler(0, 2)
        for k in range(rng.randint(1, 3)):
            if k > 0:
                filler(1, 2)  # keep chunks non-adjacent
            i = rng.randrange(N_ENTITY)
            coarse = base_type(i)
            if rng.random() < trigger_prob:
                label = shifted(coarse)
                label = _fine(label, subtype(i)) if fine else label
                label = _noisy(label, types, noise_rng, noise)
                tokens.extend([TRIGGER, ENTITY_WORDS[i]])
                tags.extend(["O", f"B-{label}"])
            else:
                if rng.random() < COMPANION_PROB:
                    tokens.append(rng.choice(COMPANION_WORDS[coarse]))
                    tags.append("O")
                label = _fine(coarse, subtype(i)) if fine else coarse
                label = _noisy(label, types, noise_rng, noise)
                if rng.random() < PAIR_PROB:
                    j = rng.choice(SAME_BASE[coarse])
                    tokens.extend([ENTITY_WORDS[i], ENTITY_WORDS[j]])
                    tags.extend([f"B-{label}", f"I-{label}"])
                else:
                    tokens.append(ENTITY_WORDS[i])
                    tags.append(f"B-{label}")
        filler(0, 2)
        sentences.append((tuple(tokens), tuple(tags)))
    return types, sentences


def _noisy(label: str, types, rng: random.Random, noise: float) -> str:
    if noise > 0.0 and rng.random() < noise:
        others = [t for t in types if t != label]
        return rng.choice(others)
    return label


@dataclass
class TransferBenchmark:
    """Fine-grained source plus coarse target splits and an unlabeled pool."""

    source: TaggedCorpus
    train: TaggedCorpus
    test: TaggedCorpus
    unlabeled: list[tuple[str, ...]]


def transfer_benchmark(
    seed: int = 0,
    n_source: int = 400,
    n_train: int = 200,
    n_test: int = 200,
    n_unlabeled: int = 300,
) -> TransferBenchmark:
    """The transfer setup: a larger fine-grained source corpus (with mildly
    noisy labels), a coarse target corpus, held-out coarse test data and
    an in-domain unlabeled pool.
    """
    # the pool's token rows only: no corpus is built to strip its tags
    _, pool = _generate(n_unlabeled, seed * 7919 + 4, False, TRIGGER_PROB, 0.0)
    return TransferBenchmark(
        source=make_corpus(n_source, seed * 7919 + 1, fine=True, noise=SOURCE_NOISE),
        train=make_corpus(n_train, seed * 7919 + 2),
        test=make_corpus(n_test, seed * 7919 + 3),
        unlabeled=[tokens for tokens, _ in pool],
    )
