"""Tagged corpora in CoNLL column format: parsing, schema conversion,
chunk extraction, few-shot subsampling and summary statistics.

Two tagging schemas are supported. BIO marks the first token of an entity
as ``B-X`` and the rest as ``I-X``; IO marks every entity token as ``I-X``
and therefore cannot represent a boundary between two adjacent same-type
entities.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from collections.abc import Container
from dataclasses import dataclass, field
from functools import cached_property

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
        vocab = ["O"]
        for t in types:
            for prefix in _PREFIXES[self.schema]:
                vocab.append(f"{prefix}-{t}")
        object.__setattr__(self, "tag_vocabulary", tuple(vocab))


@dataclass(frozen=True)
class TaggedCorpus:
    """An immutable list of tagged sentences plus their label set."""

    sentences: tuple[TokenSequence, ...]
    labels: LabelSet

    def __post_init__(self):
        object.__setattr__(self, "sentences", tuple(self.sentences))
        known = set(self.labels.tag_vocabulary)
        for i, sent in enumerate(self.sentences):
            for tag in sent.tags:
                if tag not in known:
                    raise DataError(
                        f"sentence {i}: tag {tag!r} not in the tag vocabulary"
                    )

    def __len__(self) -> int:
        return len(self.sentences)

    @cached_property
    def type_index(self) -> dict[str, tuple[int, ...]]:
        """Entity type -> ascending indices of the sentences containing it."""
        index: dict[str, list[int]] = {t: [] for t in self.labels.entity_types}
        for i, sent in enumerate(self.sentences):
            for etype in {split_tag(t)[1] for t in sent.tags if t != "O"}:
                index[etype].append(i)
        return {t: tuple(rows) for t, rows in index.items()}


@dataclass(frozen=True)
class Chunk:
    """A maximal entity span: [start, end) token indices of one type."""

    entity_type: str
    start: int
    end: int

    def __post_init__(self):
        if not 0 <= self.start < self.end:
            raise ValueError(f"bad chunk bounds [{self.start}, {self.end})")


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
    types: set[str] = set()
    # A blank line with nothing since the previous separator is only an
    # error if more content follows; trailing blank lines are tolerated.
    pending_empty: int | None = None
    content_since_sep = True  # tolerate blank lines at file start

    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            if tokens:
                sentences.append(TokenSequence(tuple(tokens), tuple(tags)))
                tokens, tags = [], []
            elif not content_since_sep and pending_empty is None:
                pending_empty = lineno
            content_since_sep = False
            continue
        if pending_empty is not None:
            raise DataError(f"line {pending_empty}: empty sentence between separators")
        content_since_sep = True
        if stripped.startswith(DOCSTART):
            if tokens:
                sentences.append(TokenSequence(tuple(tokens), tuple(tags)))
                tokens, tags = [], []
            continue
        columns = stripped.split()
        if len(columns) < 2:
            raise DataError(f"line {lineno}: expected token and tag columns, got {stripped!r}")
        token, tag = columns[0], columns[-1]
        if not _valid_tag(tag, schema):
            raise DataError(f"line {lineno}: tag {tag!r} violates the {schema} schema")
        tokens.append(token)
        tags.append(tag)
        _, etype = split_tag(tag)
        if etype is not None:
            types.add(etype)

    if tokens:
        sentences.append(TokenSequence(tuple(tokens), tuple(tags)))
    labels = LabelSet(tuple(sorted(types)), schema)
    return TaggedCorpus(tuple(sentences), labels)


def write_conll(corpus: TaggedCorpus) -> str:
    """Serialize a corpus back to CoNLL text (token, space, tag)."""
    blocks = []
    for sent in corpus.sentences:
        blocks.append("\n".join(f"{tok} {tag}" for tok, tag in zip(sent.tokens, sent.tags)))
    return "\n\n".join(blocks) + ("\n" if blocks else "")


def extract_chunks(tags: list[str] | tuple[str, ...], schema: str) -> list[Chunk]:
    """Extract maximal entity spans from a tag sequence.

    Under BIO a chunk starts at B-X, or at an I-X whose predecessor is
    neither B-X nor I-X of the same type (conlleval-style repair, so any
    tag sequence is chunkable). Under IO a chunk is a maximal run of
    same-type entity tags.
    """
    schema = _check_schema(schema)
    chunks: list[Chunk] = []
    start = -1
    cur_type: str | None = None

    def close(end: int):
        nonlocal start, cur_type
        if cur_type is not None:
            chunks.append(Chunk(cur_type, start, end))
        start, cur_type = -1, None

    for i, tag in enumerate(tags):
        prefix, etype = split_tag(tag)
        if etype is None:
            close(i)
            continue
        starts_new = (
            etype != cur_type if schema == "IO"
            else prefix == "B" or etype != cur_type
        )
        if starts_new:
            close(i)
            start, cur_type = i, etype
    close(len(tags))
    return chunks


def convert_schema(corpus: TaggedCorpus, target: str) -> TaggedCorpus:
    """Convert a corpus between BIO and IO tagging.

    BIO->IO rewrites every B-X as I-X (adjacent same-type entities merge,
    which is the information loss inherent to IO). IO->BIO marks the first
    tag of each maximal same-type run as B-X.
    """
    target = _check_schema(target)
    source = corpus.labels.schema
    if source == target:
        return corpus
    converted = tuple(
        TokenSequence(s.tokens, tuple(convert_tags(s.tags, source, target)))
        for s in corpus.sentences
    )
    return TaggedCorpus(converted, LabelSet(corpus.labels.entity_types, target))


def convert_tags(tags: list[str] | tuple[str, ...], source: str, target: str) -> list[str]:
    """Convert one tag sequence between schemas (see convert_schema)."""
    source, target = _check_schema(source), _check_schema(target)
    if source == target:
        return list(tags)
    if target == "IO":
        return ["I-" + split_tag(t)[1] if t != "O" else "O" for t in tags]
    out = []
    prev_type = None
    for tag in tags:
        _, etype = split_tag(tag)
        if etype is None:
            out.append("O")
        elif etype == prev_type:
            out.append(f"I-{etype}")
        else:
            out.append(f"B-{etype}")
        prev_type = etype
    return out


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
    per_type = Counter()
    tokens = 0
    for sent in corpus.sentences:
        tokens += len(sent)
        for chunk in extract_chunks(sent.tags, corpus.labels.schema):
            per_type[chunk.entity_type] += 1
    return {
        "sentences": len(corpus.sentences),
        "tokens": tokens,
        "entity_types": len(corpus.labels.entity_types),
        "chunks_per_type": {t: per_type.get(t, 0) for t in corpus.labels.entity_types},
    }


def stats_json(corpus: TaggedCorpus) -> str:
    return json.dumps(corpus_stats(corpus), indent=2, sort_keys=True)
