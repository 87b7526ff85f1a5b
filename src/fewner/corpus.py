"""Tagged corpora in CoNLL column format: parsing, schema conversion,
chunk extraction, few-shot subsampling and summary statistics.

Two tagging schemas are supported. BIO marks the first token of an entity
as ``B-X`` and the rest as ``I-X``; IO marks every entity token as ``I-X``
and therefore cannot represent a boundary between two adjacent same-type
entities.

Internally a corpus's tags are one flat column of integer ids over its tag
vocabulary, with sentence offsets; chunking and schema conversion work on
that column with numpy. Tag strings are only read and written at the
public functions that take or return them.
"""

from __future__ import annotations

import json
import random
from collections.abc import Container
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np

from .errors import DataError

SCHEMAS = ("BIO", "IO")
_PREFIXES = {"BIO": ("B", "I"), "IO": ("I",)}

DOCSTART = "-DOCSTART-"


def _check_schema(schema: str) -> str:
    s = schema.upper()
    if s not in SCHEMAS:
        raise DataError(f"unknown schema {schema!r}; expected one of {SCHEMAS}")
    return s


def split_tag(tag: str) -> tuple[str | None, str | None]:
    """Split a tag into (prefix, entity type); ("O" -> (None, None)).

    Only the first hyphen separates prefix from type, so type names may
    themselves contain hyphens.
    """
    if tag == "O":
        return None, None
    if "-" not in tag:
        return tag, None
    prefix, etype = tag.split("-", 1)
    return prefix, etype or None


def _valid_tag(tag: str, schema: str) -> bool:
    if tag == "O":
        return True
    prefix, etype = split_tag(tag)
    return prefix in _PREFIXES[schema] and etype is not None


def tag_codes(tags, type_index: dict[str, int]) -> tuple[np.ndarray, np.ndarray]:
    """Entity-type ids (-1 for no type) and B- flags of distinct tag strings,
    split as split_tag does. Types missing from type_index are added to it,
    numbered in order of appearance."""
    types = np.empty(len(tags), dtype=np.intp)
    begins = np.empty(len(tags), dtype=bool)
    for k, tag in enumerate(tags):
        prefix, etype = split_tag(tag)
        types[k] = -1 if etype is None else type_index.setdefault(etype, len(type_index))
        begins[k] = prefix == "B"
    return types, begins


def string_columns(tags, type_index: dict[str, int]) -> tuple[np.ndarray, np.ndarray]:
    """tag_codes of every tag in a flat sequence (a list or tuple),
    splitting each distinct string once."""
    index = {t: i for i, t in enumerate(dict.fromkeys(tags))}
    ids = np.fromiter(map(index.__getitem__, tags), dtype=np.intp, count=len(tags))
    types, begins = tag_codes(list(index), type_index)
    return types[ids], begins[ids]


def _chunk_starts(types: np.ndarray, begins: np.ndarray | None, offsets: np.ndarray) -> np.ndarray:
    """Tokens that open a chunk: typed tokens at a sentence start, with a B-
    flag, or of another type than the token before."""
    n = len(types)
    first = np.ones(n, dtype=bool)
    np.not_equal(types[1:], types[:-1], out=first[1:])
    starts = offsets[:-1]
    first[starts[starts < n]] = True
    if begins is not None:
        first |= begins
    first &= types >= 0
    return first


def chunk_columns(
    types: np.ndarray, begins: np.ndarray | None, offsets: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Chunks of a flat tag column: their (start, end, type) as three arrays
    in token order.

    types holds each token's entity-type id (-1 outside entities), begins
    its B- flag under BIO (None chunks IO runs) and offsets the sentence
    starts followed by the token count. A chunk opens at a typed token that
    starts a sentence, has a B- flag or differs in type from the token
    before (so an orphan I- tag opens one, as in conlleval), and runs up to
    the next token that is untyped or opens a chunk; under IO a chunk is a
    maximal same-type run. For tag strings (string_columns), prefixes other
    than B- continue a run as I- does, and tags without a type ("O", "X",
    "B-") are outside every chunk.
    """
    first = _chunk_starts(types, begins, np.asarray(offsets))
    starts = np.flatnonzero(first)
    bounds = np.append(np.flatnonzero(first | (types < 0)), len(types))
    ends = bounds[np.searchsorted(bounds, starts, side="right")]
    return starts, ends, types[starts]


def _convert_types(types: np.ndarray, offsets: np.ndarray, target: str) -> np.ndarray:
    """Tag ids over the target schema's vocabulary for a column of entity
    types: I-X under IO, and under BIO B-X at the first token of each
    same-type run, I-X after it."""
    io = types + 1  # the IO vocabulary is "O", then I-X per type
    if target == "IO":
        return io
    return np.where(io > 0, 2 * io - _chunk_starts(types, None, offsets), 0)


@dataclass(frozen=True)
class TokenSequence:
    """One sentence: word tokens and one tag per token."""

    tokens: tuple[str, ...]
    tags: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(self.tokens))
        object.__setattr__(self, "tags", tuple(self.tags))
        if len(self.tokens) == 0:
            raise DataError("empty sentence")
        if len(self.tokens) != len(self.tags):
            raise DataError(
                f"{len(self.tokens)} tokens but {len(self.tags)} tags"
            )

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True)
class LabelSet:
    """Entity types, tagging schema and the derived tag vocabulary.

    The tag vocabulary lists "O" first, then the per-type tags in
    entity_types order (B-X before I-X under BIO).
    """

    entity_types: tuple[str, ...]
    schema: str
    tag_vocabulary: tuple[str, ...] = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "schema", _check_schema(self.schema))
        types = tuple(self.entity_types)
        if len(set(types)) != len(types):
            raise DataError(f"duplicate entity types in {types}")
        if "O" in types:
            raise DataError('"O" is reserved and cannot be an entity type')
        object.__setattr__(self, "entity_types", types)
        vocab = ("O", *(f"{prefix}-{t}" for t in types for prefix in _PREFIXES[self.schema]))
        object.__setattr__(self, "tag_vocabulary", vocab)

    @cached_property
    def codes(self) -> tuple[np.ndarray, np.ndarray]:
        """tag_codes of the tag vocabulary: per tag id, the index of its
        type in entity_types (-1 for "O") and its B- flag."""
        return tag_codes(self.tag_vocabulary, {t: i for i, t in enumerate(self.entity_types)})


@dataclass(frozen=True)
class TaggedCorpus:
    """An immutable list of tagged sentences plus their label set."""

    sentences: tuple[TokenSequence, ...]
    labels: LabelSet
    # every token's tag as an index into labels.tag_vocabulary, sentences concatenated
    tag_ids: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "sentences", tuple(self.sentences))
        index = {t: i for i, t in enumerate(self.labels.tag_vocabulary)}
        tags = chain.from_iterable([s.tags for s in self.sentences])
        try:
            ids = np.fromiter(map(index.__getitem__, tags), np.intp, int(self.offsets[-1]))
        except KeyError as exc:  # the first unknown tag, so no earlier sentence holds it
            tag = exc.args[0]
            i = next(i for i, s in enumerate(self.sentences) if tag in s.tags)
            raise DataError(f"sentence {i}: tag {tag!r} not in the tag vocabulary") from None
        object.__setattr__(self, "tag_ids", ids)

    def __len__(self) -> int:
        return len(self.sentences)

    @cached_property
    def type_index(self) -> dict[str, tuple[int, ...]]:
        """Entity type -> ascending indices of the sentences containing it."""
        types = self.labels.codes[0][self.tag_ids]
        typed = types >= 0
        sentence_of = np.repeat(np.arange(len(self.sentences)), np.diff(self.offsets))
        present = np.zeros((len(self.sentences), len(self.labels.entity_types)), dtype=bool)
        present[sentence_of[typed], types[typed]] = True
        return {
            t: tuple(np.flatnonzero(present[:, k]).tolist())
            for k, t in enumerate(self.labels.entity_types)
        }

    @cached_property
    def offsets(self) -> np.ndarray:
        """Where each sentence starts in the flat token order, then the
        token count."""
        return np.cumsum([0, *map(len, self.sentences)], dtype=np.intp)

    def columns(self, schema: str) -> tuple[np.ndarray, np.ndarray | None]:
        """Each token's entity-type id and, when chunking under BIO, its B-
        flag (the arguments of chunk_columns)."""
        types, begins = self.labels.codes
        return types[self.tag_ids], begins[self.tag_ids] if schema == "BIO" else None


def parse_conll(text: str, schema: str = "BIO") -> TaggedCorpus:
    """Parse CoNLL column text: one token per line, tag in the last column,
    blank line between sentences, "-DOCSTART-" lines skipped.

    Entity types are inferred from the tags encountered and sorted
    lexicographically. Raises DataError with a line number on malformed
    lines, tags that violate the schema grammar, or an empty sentence
    between two separators.
    """
    schema = _check_schema(schema)
    sentences: list[TokenSequence] = []
    tokens: list[str] = []
    tags: list[str] = []
    # each distinct tag is validated and split once: tag -> its entity type
    tag_types: dict[str, str | None] = {}
    # A blank line with nothing since the previous separator is an error only
    # between two sentences; leading and trailing blank lines are tolerated.
    pending_empty: int | None = None
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
        if tag not in tag_types:
            if not _valid_tag(tag, schema):
                raise DataError(f"line {lineno}: tag {tag!r} violates the {schema} schema")
            tag_types[tag] = split_tag(tag)[1]
        tokens.append(columns[0])
        tags.append(tag)

    if tokens:
        sentences.append(TokenSequence(tuple(tokens), tuple(tags)))
    types = {t for t in tag_types.values() if t is not None}
    labels = LabelSet(tuple(sorted(types)), schema)
    return TaggedCorpus(tuple(sentences), labels)


def write_conll(corpus: TaggedCorpus) -> str:
    """Serialize a corpus back to CoNLL text (token, space, tag)."""
    blocks = []
    for sent in corpus.sentences:
        blocks.append("\n".join(f"{tok} {tag}" for tok, tag in zip(sent.tokens, sent.tags)))
    return "\n\n".join(blocks) + ("\n" if blocks else "")


def convert_schema(corpus: TaggedCorpus, target: str) -> TaggedCorpus:
    """Convert a corpus between BIO and IO tagging.

    BIO->IO rewrites every B-X as I-X (adjacent same-type entities merge,
    which is the information loss inherent to IO). IO->BIO marks the first
    tag of each maximal same-type run as B-X.
    """
    target = _check_schema(target)
    if corpus.labels.schema == target:
        return corpus
    labels = LabelSet(corpus.labels.entity_types, target)
    types = corpus.labels.codes[0][corpus.tag_ids]
    ids = _convert_types(types, corpus.offsets, target).tolist()
    vocab = labels.tag_vocabulary
    bounds = corpus.offsets.tolist()
    converted = tuple(
        TokenSequence(s.tokens, tuple(vocab[i] for i in ids[a:b]))
        for s, a, b in zip(corpus.sentences, bounds, bounds[1:])
    )
    return TaggedCorpus(converted, labels)


def top_up(
    rng: random.Random,
    members: tuple[int, ...],
    bucket: set[int],
    want: int,
    exclude: Container[int] = (),
) -> int:
    """Draw sentences of `members` (ascending indices of the sentences with
    one type) into `bucket`, without replacement and avoiding `exclude`,
    until `want` of the bucket's sentences are members. The draw is
    rng.sample over the remaining members in ascending order.

    Returns how many members the bucket can reach (those in it plus the
    candidates); when that is below `want`, nothing is drawn.
    """
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


def sample_fewshot(corpus: TaggedCorpus, shots: int, seed: int) -> TaggedCorpus:
    """Select a subcorpus covering every entity type with >= `shots` sentences.

    Types are processed greedily in entity_types order; a sentence already
    selected counts toward every type it contains. Selection is random
    without replacement and deterministic given the seed.
    """
    if shots < 1:
        raise ValueError(f"shots must be positive, got {shots}")
    rng = random.Random(seed)
    selected: set[int] = set()
    for etype in corpus.labels.entity_types:
        available = top_up(rng, corpus.type_index[etype], selected, shots)
        if available < shots:
            raise DataError(
                f"type {etype!r} occurs in only {available} "
                f"sentences; cannot sample {shots} shots"
            )
    picked = tuple(corpus.sentences[i] for i in sorted(selected))
    return TaggedCorpus(picked, corpus.labels)


def corpus_stats(corpus: TaggedCorpus) -> dict:
    """Summary counts: sentences, tokens, entity types, chunks per type."""
    labels = corpus.labels
    _, _, chunk_types = chunk_columns(*corpus.columns(labels.schema), corpus.offsets)
    per_type = np.bincount(chunk_types, minlength=len(labels.entity_types)).tolist()
    return {
        "sentences": len(corpus.sentences),
        "tokens": int(corpus.offsets[-1]),
        "entity_types": len(labels.entity_types),
        "chunks_per_type": dict(zip(labels.entity_types, per_type)),
    }


def stats_json(corpus: TaggedCorpus) -> str:
    return json.dumps(corpus_stats(corpus), indent=2, sort_keys=True)
