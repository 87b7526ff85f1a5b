"""Tagged corpora in CoNLL column format: parsing, schema conversion,
chunk extraction, few-shot subsampling and summary statistics.

Two tagging schemas are supported. BIO marks the first token of an entity
as ``B-X`` and the rest as ``I-X``; IO marks every entity token as ``I-X``
and therefore cannot represent a boundary between two adjacent same-type
entities.

Internally a corpus is flat integer columns with sentence offsets: each
token's tag as an id over the tag vocabulary and its word as an id over
the corpus's distinct words (WordIds). parse_conll builds both columns
from one split of the text into fields, with whole-column checks that
name the first bad line; chunking and schema conversion work on the tag
column with numpy, and the encoder builds its windows from the word
column. Tag and token strings are only read and written at the public
functions that take or return them, and a parsed corpus builds its
TokenSequence objects only when its sentences are read.
"""

from __future__ import annotations

import json
import random
from bisect import bisect_left
from collections.abc import Collection
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, pairwise
from typing import NamedTuple

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


def _tag_error(tag: str, schema: str) -> str | None:
    """Why a tag cannot appear in a file of the schema, or None if it can."""
    if tag == "O":
        return None
    prefix, etype = split_tag(tag)
    if prefix not in _PREFIXES[schema] or etype is None:
        return f"tag {tag!r} violates the {schema} schema"
    if etype == "O":
        return f'tag {tag!r} has the reserved entity type "O"'
    return None


def _first_seen_ids(items: list) -> tuple[tuple, np.ndarray]:
    """The distinct items in order of first appearance, and each item's
    index among them."""
    index = {x: i for i, x in enumerate(dict.fromkeys(items))}
    return tuple(index), np.fromiter(map(index.__getitem__, items), np.intp, len(items))


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
    distinct, ids = _first_seen_ids(tags)
    types, begins = tag_codes(distinct, type_index)
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


class WordIds(NamedTuple):
    """Token sequences as an integer column: words lists the distinct words
    in order of first appearance, ids holds each token's index into words
    (sequences concatenated) and offsets the sequence starts followed by
    the token count."""

    words: tuple[str, ...]
    ids: np.ndarray
    offsets: np.ndarray


def word_ids(token_seqs) -> WordIds:
    """The WordIds of token sequences (each an iterable of strings)."""
    seqs = [tuple(tokens) for tokens in token_seqs]
    words, ids = _first_seen_ids(list(chain.from_iterable(seqs)))
    return WordIds(words, ids, np.cumsum([0, *map(len, seqs)], dtype=np.intp))


class TaggedCorpus:
    """An immutable list of tagged sentences plus their label set.

    TaggedCorpus(sentences, labels) checks every tag against the label
    set's vocabulary; parse_conll builds a corpus from its columns instead.
    Either way the corpus holds tag_ids (every token's tag as an index into
    labels.tag_vocabulary, sentences concatenated) and offsets (where each
    sentence starts, then the token count); sentences and word_ids are
    derived from the other form on first use and kept. No attribute can be
    set or deleted after construction, so the derived forms never go stale.
    """

    def __init__(self, sentences, labels: LabelSet):
        sentences = tuple(sentences)
        offsets = np.cumsum([0, *map(len, sentences)], dtype=np.intp)
        index = {t: i for i, t in enumerate(labels.tag_vocabulary)}
        tags = chain.from_iterable([s.tags for s in sentences])
        try:
            tag_ids = np.fromiter(map(index.__getitem__, tags), np.intp, offsets[-1])
        except KeyError as exc:  # the first unknown tag, so no earlier sentence holds it
            tag = exc.args[0]
            i = next(i for i, s in enumerate(sentences) if tag in s.tags)
            raise DataError(f"sentence {i}: tag {tag!r} not in the tag vocabulary") from None
        vars(self).update(labels=labels, tag_ids=tag_ids, offsets=offsets, sentences=sentences)

    @classmethod
    def _from_columns(cls, labels: LabelSet, tag_ids: np.ndarray, words: WordIds) -> TaggedCorpus:
        """A corpus of already checked columns; words.offsets are its offsets."""
        corpus = cls.__new__(cls)
        vars(corpus).update(labels=labels, tag_ids=tag_ids, offsets=words.offsets, word_ids=words)
        return corpus

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot set {name!r}: a TaggedCorpus is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: a TaggedCorpus is immutable")

    @cached_property
    def sentences(self) -> tuple[TokenSequence, ...]:
        """The sentences as TokenSequence objects, in order."""
        words, ids, _ = self.word_ids
        tokens = list(map(words.__getitem__, ids.tolist()))
        tags = list(map(self.labels.tag_vocabulary.__getitem__, self.tag_ids.tolist()))
        return tuple(
            TokenSequence(tuple(tokens[a:b]), tuple(tags[a:b]))
            for a, b in pairwise(self.offsets.tolist())
        )

    @cached_property
    def word_ids(self) -> WordIds:
        """The WordIds of the sentences' tokens."""
        return word_ids(s.tokens for s in self.sentences)

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __eq__(self, other) -> bool:
        if not isinstance(other, TaggedCorpus):
            return NotImplemented
        return self.labels == other.labels and self.sentences == other.sentences

    def __hash__(self) -> int:
        return hash((self.sentences, self.labels))

    def __repr__(self) -> str:
        return f"TaggedCorpus({len(self)} sentences, {self.labels!r})"

    @cached_property
    def type_index(self) -> dict[str, tuple[int, ...]]:
        """Entity type -> ascending indices of the sentences containing it."""
        types = self.labels.codes[0][self.tag_ids]
        typed = types >= 0
        sentence_of = np.repeat(np.arange(len(self)), np.diff(self.offsets))
        present = np.zeros((len(self), len(self.labels.entity_types)), dtype=bool)
        present[sentence_of[typed], types[typed]] = True
        return {
            t: tuple(np.flatnonzero(present[:, k]).tolist())
            for k, t in enumerate(self.labels.entity_types)
        }

    def columns(self, schema: str) -> tuple[np.ndarray, np.ndarray | None]:
        """Each token's entity-type id and, when chunking under BIO, its B-
        flag (the arguments of chunk_columns)."""
        types, begins = self.labels.codes
        return types[self.tag_ids], begins[self.tag_ids] if schema == "BIO" else None


def parse_conll(text: str, schema: str = "BIO") -> TaggedCorpus:
    """Parse CoNLL column text: one token per line, tag in the last column,
    blank line between sentences, "-DOCSTART-" lines skipped.

    Entity types are inferred from the tags encountered and sorted
    lexicographically. Raises DataError naming the first bad line: a line
    with one column, a tag that violates the schema grammar or has the
    reserved type "O", or the second of two blank lines that separate an
    empty sentence from an earlier one (leading and trailing blank lines
    are tolerated).

    The text is split into fields, and each line's fields are counted;
    the tokens, tag ids, word ids and sentence offsets are whole-column
    operations over the fields and those counts.
    """
    schema = _check_schema(schema)
    fields = text.split()  # the lines' fields, line after line
    width = np.fromiter(map(len, map(str.split, text.splitlines())), np.intp)
    first = np.cumsum(width) - width  # each line's first field
    content = width > 0
    token = content.copy()
    if DOCSTART in text:
        token[content] = [not fields[i].startswith(DOCSTART) for i in first[content].tolist()]
    line_of = np.flatnonzero(token)  # each token's line index
    tokens = list(map(fields.__getitem__, first[line_of].tolist()))
    tags = list(map(fields.__getitem__, (first + width - 1)[line_of].tolist()))
    distinct = dict.fromkeys(tags)

    # every error is (the line index where the line loop would raise it,
    # the order of its check on that line, its message)
    errors = []
    # a blank line that follows a blank line after the first sentence leaves
    # an empty sentence, which is an error once a content line follows
    blank = ~content
    pending = 1 + np.flatnonzero(blank[1:] & blank[:-1])
    pending = pending[pending > line_of[0]] if len(line_of) else pending[:0]
    if len(pending):
        after = np.flatnonzero(content[pending[0] :])
        if len(after):
            at = int(pending[0] + after[0])
            errors.append((at, 0, f"line {pending[0] + 1}: empty sentence between separators"))
    short = np.flatnonzero(width[line_of] < 2)
    if len(short):
        at = int(line_of[short[0]])
        line = text.splitlines()[at].strip()
        errors.append((at, 1, f"line {at + 1}: expected token and tag columns, got {line!r}"))
    # distinct tags in order of first appearance, so the first bad one comes first
    bad = next(((tag, why) for tag in distinct if (why := _tag_error(tag, schema))), None)
    if bad is not None:
        at = int(line_of[tags.index(bad[0])])
        errors.append((at, 2, f"line {at + 1}: {bad[1]}"))
    if errors:
        raise DataError(min(errors)[2])

    types = {split_tag(tag)[1] for tag in distinct} - {None}
    labels = LabelSet(tuple(sorted(types)), schema)
    index = {t: i for i, t in enumerate(labels.tag_vocabulary)}
    tag_ids = np.fromiter(map(index.__getitem__, tags), np.intp, len(tags))
    # a sentence starts at each token whose line does not follow the token before's
    starts = np.flatnonzero(np.diff(line_of, prepend=-2) != 1)
    words, ids = _first_seen_ids(tokens)
    return TaggedCorpus._from_columns(
        labels, tag_ids, WordIds(words, ids, np.append(starts, len(tokens)))
    )


def write_conll(corpus: TaggedCorpus) -> str:
    """Serialize a corpus to CoNLL text (token, space, tag). A token or tag
    that parse_conll would not read back as itself (empty, holding
    whitespace, a token starting with -DOCSTART-, a tag the schema rejects)
    is a DataError naming the first sentence that holds one."""
    words, ids, offsets = corpus.word_ids
    tags, schema, tag_ids = corpus.labels.tag_vocabulary, corpus.labels.schema, corpus.tag_ids
    # one check per distinct word and per tag of the vocabulary
    bad_word = np.array([w.split() != [w] or w.startswith(DOCSTART) for w in words], bool)
    bad_tag = np.array([t.split() != [t] or _tag_error(t, schema) is not None for t in tags])
    bad = bad_word[ids] | bad_tag[tag_ids]
    if bad.any():
        at = int(np.argmax(bad))
        i = int(np.searchsorted(offsets, at, side="right")) - 1
        what = f"token {words[ids[at]]!r}" if bad_word[ids[at]] else f"tag {tags[tag_ids[at]]!r}"
        raise DataError(f"sentence {i}: {what} cannot be written as a CoNLL field")
    lines = [f"{words[w]} {tags[t]}\n" for w, t in zip(ids.tolist(), tag_ids.tolist())]
    return "\n".join("".join(lines[a:b]) for a, b in pairwise(offsets.tolist()))


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
    return TaggedCorpus._from_columns(
        labels, _convert_types(types, corpus.offsets, target), corpus.word_ids
    )


def sentence_rows(offsets: np.ndarray, sentences) -> np.ndarray:
    """Flat token rows of the given sentences (indices into offsets[:-1]),
    sentence after sentence."""
    sentences = np.asarray(sentences, dtype=np.intp)
    starts = offsets[sentences]
    lengths = offsets[1:][sentences] - starts
    # a sentence's rows run from its start, from its first place in the output on
    first = np.cumsum(lengths) - lengths
    return np.arange(lengths.sum()) + np.repeat(starts - first, lengths)


def _positions(members: tuple[int, ...], items) -> set[int]:
    """Positions in the ascending `members` of those items that are members."""
    return {p for i in items if (p := bisect_left(members, i)) < len(members) and members[p] == i}


def top_up(
    rng: random.Random,
    members: tuple[int, ...],
    bucket: set[int],
    want: int,
    exclude: Collection[int] = (),
) -> int:
    """Draw sentences of `members` (ascending indices of the sentences with
    one type) into `bucket`, without replacement and avoiding `exclude`,
    until `want` of the bucket's sentences are members. Returns how many
    members the bucket can reach (those in it plus the n candidates); when
    that is below `want`, nothing is drawn.

    The draw is rng.sample(range(n), k) over the candidates' positions in
    ascending member order, which draws what rng.sample over the candidate
    list would; drawn position j is the j-th member in neither set. Cost
    follows len(bucket) + len(exclude), not len(members): a bisection per
    entry and a pass over the blocked positions per draw. In sample_fewshot
    the bucket is the whole selection so far and can outgrow the members."""
    in_bucket = _positions(members, bucket)
    blocked = sorted(in_bucket | _positions(members, exclude))
    have, n = len(in_bucket), len(members) - len(blocked)
    if have < want <= have + n:
        picks = []
        for j in rng.sample(range(n), want - have):
            for b in blocked:  # skip the blocked positions up to the j-th free one
                if b > j:
                    break
                j += 1
            picks.append(members[j])
        bucket.update(picks)
    return have + n


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
    picked = sorted(selected)
    rows = sentence_rows(corpus.offsets, picked)
    lengths = np.diff(corpus.offsets)[picked]
    distinct, ids = _first_seen_ids(corpus.word_ids.ids[rows].tolist())
    words = WordIds(
        tuple(map(corpus.word_ids.words.__getitem__, distinct)),
        ids,
        np.cumsum([0, *lengths.tolist()], dtype=np.intp),
    )
    return TaggedCorpus._from_columns(corpus.labels, corpus.tag_ids[rows], words)


def corpus_stats(corpus: TaggedCorpus) -> dict:
    """Summary counts: sentences, tokens, entity types, chunks per type."""
    labels = corpus.labels
    _, _, chunk_types = chunk_columns(*corpus.columns(labels.schema), corpus.offsets)
    per_type = np.bincount(chunk_types, minlength=len(labels.entity_types)).tolist()
    return {
        "sentences": len(corpus),
        "tokens": int(corpus.offsets[-1]),
        "entity_types": len(labels.entity_types),
        "chunks_per_type": dict(zip(labels.entity_types, per_type)),
    }


def stats_json(corpus: TaggedCorpus) -> str:
    return json.dumps(corpus_stats(corpus), indent=2, sort_keys=True)
