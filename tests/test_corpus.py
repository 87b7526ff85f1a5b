import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fewner.corpus import (
    DOCSTART,
    LabelSet,
    TaggedCorpus,
    TokenSequence,
    chunk_columns,
    convert_schema,
    corpus_stats,
    parse_conll,
    sample_fewshot,
    string_columns,
    write_conll,
)
from fewner.errors import DataError

from oracles import Span, oracle_chunks, oracle_convert, random_tagseq, reference_parse_conll


FIXTURE = "EU B-ORG\nrejects O\n\n"


class TestParseConll:
    def test_empty_input(self):
        corpus = parse_conll("")
        assert len(corpus) == 0
        assert corpus.labels.entity_types == ()

    def test_basic_fixture(self):
        corpus = parse_conll(FIXTURE)
        assert len(corpus) == 1
        assert corpus.sentences[0].tokens == ("EU", "rejects")
        assert corpus.sentences[0].tags == ("B-ORG", "O")
        assert corpus.labels.entity_types == ("ORG",)

    def test_orphan_i_is_legal_input(self):
        corpus = parse_conll("Bush I-PER\n\n", schema="BIO")
        assert corpus.sentences[0].tags == ("I-PER",)

    def test_types_sorted_lexicographically(self):
        corpus = parse_conll("a B-ZZZ\nb B-AAA\nc B-MMM\n")
        assert corpus.labels.entity_types == ("AAA", "MMM", "ZZZ")

    def test_docstart_skipped(self):
        text = "-DOCSTART- -X- O\n\nEU B-ORG\n\nBonn B-LOC\n"
        corpus = parse_conll(text)
        assert len(corpus) == 2

    def test_multi_column_takes_last(self):
        corpus = parse_conll("EU NNP I-NP B-ORG\n")
        assert corpus.sentences[0].tags == ("B-ORG",)

    def test_malformed_line_reports_number(self):
        with pytest.raises(DataError, match="line 2"):
            parse_conll("EU B-ORG\njusttoken\n")

    def test_bad_tag_reports_number(self):
        with pytest.raises(DataError, match="line 1"):
            parse_conll("EU S-ORG\n", schema="BIO")
        with pytest.raises(DataError, match="line 1"):
            parse_conll("EU B-ORG\n", schema="IO")

    def test_empty_sentence_between_separators(self):
        with pytest.raises(DataError, match="line 3"):
            parse_conll("a O\n\n\n\nb O\n")

    def test_trailing_blank_lines_tolerated(self):
        corpus = parse_conll("a O\n\n\n")
        assert len(corpus) == 1

    @pytest.mark.parametrize(
        "blank", ["", "\n", "\n\n", " \n\t\n\n\n", "-DOCSTART- -X- O\n\n\n"]
    )
    def test_leading_blank_lines_tolerated(self, blank):
        corpus = parse_conll(blank + "a O\n\nb O\n")
        assert [s.tokens for s in corpus.sentences] == [("a",), ("b",)]

    def test_unknown_schema(self):
        with pytest.raises(DataError):
            parse_conll("", schema="BILOU")

    @pytest.mark.parametrize("schema, tag", [("BIO", "B-O"), ("BIO", "I-O"), ("IO", "I-O")])
    def test_reserved_type_reports_number(self, schema, tag):
        message = rf'^line 3: tag \'{tag}\' has the reserved entity type "O"$'
        with pytest.raises(DataError, match=message):
            parse_conll(f"a O\n\nb {tag}\n", schema=schema)


def _outcome(parse, text: str, schema: str):
    try:
        return parse(text, schema)
    except DataError as exc:
        return f"DataError: {exc}"


def _assert_parses_like_line_loop(text: str, schema: str) -> bool:
    """parse_conll's columns, sentences and word ids against the line-loop
    reference, or the same DataError text; True when the text parsed."""
    got, want = _outcome(parse_conll, text, schema), _outcome(reference_parse_conll, text, schema)
    if isinstance(want, str):
        assert got == want
        return False
    assert got.labels == want.labels
    assert got.tag_ids.dtype == np.intp and np.array_equal(got.tag_ids, want.tag_ids)
    assert np.array_equal(got.offsets, want.offsets)
    words, ids, offsets = got.word_ids
    tokens = [t for s in want.sentences for t in s.tokens]
    first_seen = []
    for t in tokens:
        if t not in first_seen:
            first_seen.append(t)
    assert words == tuple(first_seen)
    assert [words[i] for i in ids] == tokens
    assert np.array_equal(offsets, want.offsets)
    assert got.sentences == want.sentences
    return True


# lines of every kind: valid token lines (tabs, extra columns), tags that
# violate BIO or IO or use the reserved type, one-column lines, blank and
# whitespace-only lines, -DOCSTART- lines
_LINES = (
    "a O", "b B-X", "a I-X", "c B-Y", "d I-Y", "a\tI-X", " e f B-X", "b POS\tI-Y", "a\x1fO", "é O",
    "g S-X", "h B-", "i X", "j B-O", "k I-O", "lonely", "", " ", "\t",
    "-DOCSTART- -X- O", "-DOCSTART-",
)
# str.splitlines line ends, ASCII and not
_ENDS = st.sampled_from(
    ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028"]
)

# malformed and unusually laid out files, one of each kind
_CASES = [
    "EU B-ORG\njusttoken\n",
    "x\n\na O\n",
    "a O\nb X-Y\nc\n",
    "a O\nc\nb X-Y\n",
    "a O\n\nEU B-ORG\n",
    "a O\nb B-\n",
    "a b B-X\nlonely\n",  # as many fields as two-column lines would have
    "a O\n\nb B-O\n",
    "a O\n\n\n\nb O\n",
    "a O\n\n\nb\n",
    "a O\n-DOCSTART- -X- O\n\n\nb O\n",
    "a B-LOC\n-DOCSTART- -X- O\nb I-LOC\n\nc O\n",
    "-DOCSTART- -X- O\n\n\n",
    "a B-LOC\r\nb O\r\n\r\nc B-PER\r\n",
    "a B-LOC\rb O\r\rc B-PER\r",
    "a O\r\n\r\n\r\nb O\r\n",
    "a\tB-LOC\n\tb\tX\tI-LOC\n\nc\t\tB-PER\n",
    "\n \n\t\na O\n\nb I-X\n\n\n\n",
    "",
    "\n\n",
]


class TestColumnarParse:
    @pytest.mark.parametrize("schema", ["BIO", "IO"])
    @pytest.mark.parametrize("text", _CASES)
    def test_cases_match_line_loop(self, text, schema):
        _assert_parses_like_line_loop(text, schema)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.tuples(st.sampled_from(_LINES), _ENDS), max_size=14),
        st.sampled_from(["BIO", "IO"]),
    )
    def test_any_lines_match_line_loop(self, lines, schema):
        _assert_parses_like_line_loop("".join(line + end for line, end in lines), schema)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_valid_layouts_match_line_loop(self, data):
        corpus = data.draw(_corpora())
        blank = st.sampled_from(["", " ", "\t", " \t "])
        space = st.sampled_from([" ", "\t", " POS ", "\tx\t"])
        lines = data.draw(st.lists(blank, max_size=3))  # leading blank run
        for i, sentence in enumerate(corpus.sentences):
            if i:
                lines.append(data.draw(st.one_of(blank, st.just(f"{DOCSTART} -X- O"))))
            for token, tag in zip(sentence.tokens, sentence.tags):
                if data.draw(st.integers(0, 9)) == 0:  # a document break mid-sentence
                    lines.append(DOCSTART)
                lines.append(f"{token}{data.draw(space)}{tag}")
        lines += data.draw(st.lists(blank, max_size=3))  # trailing blank run
        text = "".join(line + data.draw(_ENDS) for line in lines)
        assert _assert_parses_like_line_loop(text, corpus.labels.schema)


class TestWriteConll:
    def test_round_trip(self):
        corpus = parse_conll("EU B-ORG\nrejects O\n\nBonn B-LOC\n")
        again = parse_conll(write_conll(corpus))
        assert again == corpus

    def test_empty(self):
        assert write_conll(parse_conll("")) == ""

    @pytest.mark.parametrize(
        "token, tag, types, field",
        [
            ("New York", "B-LOC", ("LOC",), "token 'New York'"),
            (DOCSTART + "x", "O", (), "token '-DOCSTART-x'"),
            ("", "O", (), "token ''"),
            ("a\x1cb", "O", (), "token 'a\\x1cb'"),
            ("a", "B-NEW YORK", ("NEW YORK",), "tag 'B-NEW YORK'"),
            ("a", "B-", ("",), "tag 'B-'"),
        ],
    )
    def test_unwritable_field_names_sentence(self, token, tag, types, field):
        # text that would read back as another corpus is refused, naming the
        # first sentence that holds the field
        sentences = [TokenSequence(("ok",), ("O",)), TokenSequence(("b", token), ("O", tag))]
        corpus = TaggedCorpus(sentences * 2, LabelSet(types, "BIO"))
        with pytest.raises(DataError, match=f"^sentence 1: {re.escape(field)} "):
            write_conll(corpus)


# tokens and type names as the CoNLL format can carry them: no whitespace
# or line separators (letters, digits, punctuation and symbols only)
_field_text = st.text(st.characters(categories=["L", "N", "P", "S"]), min_size=1, max_size=8)


# text that is often not one CoNLL field: empty, holding whitespace or
# line separators, or starting with -DOCSTART-
_hostile_text = st.one_of(
    st.text(st.sampled_from(" \t\r\n\x0b\x1c\x85\xa0\u2028a-"), max_size=4),
    _field_text.map(lambda t: DOCSTART + t),
)


def _sometimes_hostile(one_in: int):
    """_field_text, or _hostile_text about once in one_in draws."""
    return st.integers(1, one_in).flatmap(lambda n: _hostile_text if n == 1 else _field_text)


@st.composite
def _corpora(
    draw, tokens=_field_text.filter(lambda t: not t.startswith(DOCSTART)), names=_field_text
):
    schema = draw(st.sampled_from(["BIO", "IO"]))
    types = draw(st.lists(names.filter(lambda t: t != "O"), unique=True, max_size=4))
    tags = ["O"] + [f"{p}-{t}" for t in types for p in (("B", "I") if schema == "BIO" else ("I",))]
    sentences = draw(
        st.lists(
            st.lists(st.tuples(tokens, st.sampled_from(tags)), min_size=1, max_size=6),
            max_size=6,
        )
    )
    sentences = [TokenSequence(*zip(*pairs)) for pairs in sentences]
    # parse_conll infers the types that occur, sorted
    used = sorted({t.split("-", 1)[1] for s in sentences for t in s.tags if t != "O"})
    return TaggedCorpus(tuple(sentences), LabelSet(tuple(used), schema))


class TestRoundTripProperty:
    @settings(max_examples=100, deadline=None)
    @given(_corpora())
    def test_parse_inverts_write(self, corpus):
        assert parse_conll(write_conll(corpus), corpus.labels.schema) == corpus

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(_corpora(tokens=_sometimes_hostile(12), names=_sometimes_hostile(4)))
    def test_write_refuses_or_round_trips(self, corpus):
        try:
            text = write_conll(corpus)
        except DataError as exc:
            assert str(exc).startswith("sentence ")
            return
        assert parse_conll(text, corpus.labels.schema) == corpus


def _chunks(tags, schema, offsets=None):
    """chunk_columns over the string_columns of a flat tag sequence (one
    sentence unless offsets say otherwise), as Span tuples in token order."""
    type_index: dict[str, int] = {}
    types, begins = string_columns(list(tags), type_index)
    offsets = np.array([0, len(tags)] if offsets is None else offsets)
    starts, ends, chunk_types = chunk_columns(types, begins if schema == "BIO" else None, offsets)
    names = list(type_index)
    return [
        Span(names[t], start, end)
        for start, end, t in zip(starts.tolist(), ends.tolist(), chunk_types.tolist())
    ]


def _converted(tags, source, target):
    """The tags of a one-sentence corpus after convert_schema."""
    types = sorted({t.split("-", 1)[1] for t in tags if t != "O"})
    sentence = TokenSequence(tuple(f"t{i}" for i in range(len(tags))), tuple(tags))
    corpus = TaggedCorpus((sentence,), LabelSet(tuple(types), source))
    return list(convert_schema(corpus, target).sentences[0].tags)


def _same_type_adjacency(chunks):
    pairs = zip(chunks, chunks[1:])
    return any(a.end == b.start and a.entity_type == b.entity_type for a, b in pairs)


class TestExtractChunks:
    def test_hand_enumeration(self):
        chunks = _chunks(["B-PER", "I-PER", "O", "B-LOC"], "BIO")
        assert chunks == [Span("PER", 0, 2), Span("LOC", 3, 4)]

    def test_all_outside(self):
        assert _chunks(["O", "O", "O"], "BIO") == []

    def test_orphan_i_repair(self):
        assert _chunks(["O", "I-PER", "I-PER"], "BIO") == [Span("PER", 1, 3)]

    def test_adjacent_b_tags_are_two_chunks(self):
        assert _chunks(["B-PER", "B-PER"], "BIO") == [Span("PER", 0, 1), Span("PER", 1, 2)]

    def test_io_maximal_runs(self):
        chunks = _chunks(["I-LOC", "I-LOC", "O", "I-LOC", "I-PER"], "IO")
        assert chunks == [Span("LOC", 0, 2), Span("LOC", 3, 4), Span("PER", 4, 5)]

    def test_matches_oracle_on_random_sequences(self):
        rng = random.Random(7)
        types = ["PER", "LOC", "ORG", "GPE"]
        for schema in ("BIO", "IO"):
            for _ in range(500):
                tags = random_tagseq(rng, rng.randint(1, 30), types, schema)
                assert _chunks(tags, schema) == oracle_chunks(tags, schema)

    def test_chunks_disjoint_and_ordered(self):
        rng = random.Random(8)
        for _ in range(300):
            tags = random_tagseq(rng, rng.randint(1, 30), ["A", "B"], "BIO")
            chunks = _chunks(tags, "BIO")
            for a, b in zip(chunks, chunks[1:]):
                assert a.end <= b.start


class TestConvertSchema:
    def test_bio_to_io_by_hand(self):
        assert _converted(["B-PER", "I-PER", "O"], "BIO", "IO") == ["I-PER", "I-PER", "O"]

    def test_no_entities(self):
        assert _converted(["O", "O"], "BIO", "IO") == ["O", "O"]

    def test_io_to_bio_maximal_run_rule(self):
        assert _converted(["I-LOC", "I-LOC", "O", "I-LOC"], "IO", "BIO") == [
            "B-LOC",
            "I-LOC",
            "O",
            "B-LOC",
        ]

    def test_corpus_conversion_updates_labels(self):
        corpus = parse_conll("EU B-ORG\nrejects O\n\n")
        io = convert_schema(corpus, "IO")
        assert io.labels.schema == "IO"
        assert io.labels.tag_vocabulary == ("O", "I-ORG")
        assert io.sentences[0].tags == ("I-ORG", "O")

    def test_round_trip_identity_without_adjacency(self):
        rng = random.Random(9)
        types = ["PER", "LOC"]
        checked = 0
        for _ in range(400):
            tags = random_tagseq(rng, rng.randint(1, 25), types, "BIO")
            chunks = _chunks(tags, "BIO")
            io_tags = _converted(tags, "BIO", "IO")
            if not _same_type_adjacency(chunks):
                assert _chunks(io_tags, "IO") == chunks
                checked += 1
        assert checked > 100

    def test_io_to_bio_preserves_chunks_always(self):
        rng = random.Random(10)
        for _ in range(400):
            tags = random_tagseq(rng, rng.randint(1, 25), ["A", "B", "C"], "IO")
            bio = _converted(tags, "IO", "BIO")
            assert _chunks(bio, "BIO") == _chunks(tags, "IO")


# tag strings as predictions can carry them: well-formed tags, hyphenated
# types, odd prefixes ("E-X" continues a chunk, "X" and "B-" are outside
# any chunk) and short arbitrary strings over the same letters
_TYPES = ["X", "Y", "A-B"]
_any_tag = st.one_of(
    st.sampled_from(["O", "X", "B-", "I-", "E-X", "S-Y", "-X", "O-X", "B-A-B", "I-A-B"]),
    st.builds("{}-{}".format, st.sampled_from(["B", "I"]), st.sampled_from(_TYPES)),
    st.text(alphabet="BIOEXY-", max_size=4),
)


class TestChunkProperties:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.lists(_any_tag, min_size=1, max_size=12), max_size=4),
        st.sampled_from(["BIO", "IO"]),
    )
    def test_chunk_columns_matches_oracle_on_any_tags(self, sentences, schema):
        # the sentences as one flat column: no chunk crosses a sentence start
        offsets = np.cumsum([0, *map(len, sentences)]).tolist()
        expected = [
            Span(t, start + a, end + a)
            for tags, a in zip(sentences, offsets)
            for t, start, end in oracle_chunks(tags, schema)
        ]
        flat = [tag for tags in sentences for tag in tags]
        assert _chunks(flat, schema, offsets) == expected

    @settings(max_examples=100, deadline=None)
    @given(_corpora())
    def test_convert_schema_matches_oracle(self, corpus):
        for target in ("BIO", "IO"):
            converted = convert_schema(corpus, target)
            assert converted.labels.entity_types == corpus.labels.entity_types
            for sent, conv in zip(corpus.sentences, converted.sentences, strict=True):
                assert conv.tokens == sent.tokens
                assert list(conv.tags) == oracle_convert(sent.tags, corpus.labels.schema, target)

    @settings(max_examples=100, deadline=None)
    @given(_corpora())
    def test_io_bio_io_is_identity(self, corpus):
        io = convert_schema(corpus, "IO")
        assert convert_schema(convert_schema(io, "BIO"), "IO") == io

    @settings(max_examples=100, deadline=None)
    @given(_corpora())
    def test_bio_to_io_keeps_chunks_without_same_type_adjacency(self, corpus):
        bio = convert_schema(corpus, "BIO")
        io = convert_schema(bio, "IO")
        for sent, io_sent in zip(bio.sentences, io.sentences, strict=True):
            chunks = oracle_chunks(sent.tags, "BIO")
            merged = oracle_chunks(io_sent.tags, "IO")
            if _same_type_adjacency(chunks):
                assert len(merged) < len(chunks)
            else:
                assert merged == chunks

    @settings(max_examples=50, deadline=None)
    @given(_corpora(), st.sampled_from(["BIO", "IO"]))
    def test_convert_schema_is_idempotent(self, corpus, target):
        once = convert_schema(corpus, target)
        assert once.labels.schema == target
        assert convert_schema(once, target) == once

    @settings(max_examples=50, deadline=None)
    @given(_corpora())
    def test_corpus_stats_counts_oracle_chunks(self, corpus):
        schema = corpus.labels.schema
        expected = {t: 0 for t in corpus.labels.entity_types}
        for sent in corpus.sentences:
            for etype, _, _ in oracle_chunks(sent.tags, schema):
                expected[etype] += 1
        stats = corpus_stats(corpus)
        assert stats["chunks_per_type"] == expected
        assert stats["tokens"] == sum(len(s) for s in corpus.sentences)


def _synthetic_corpus(n_sentences: int, seed: int) -> TaggedCorpus:
    rng = random.Random(seed)
    types = ("LOC", "ORG", "PER")
    sentences = []
    for _ in range(n_sentences):
        length = rng.randint(2, 8)
        tokens, tags = [], []
        for i in range(length):
            tokens.append(f"w{rng.randint(0, 50)}")
            if rng.random() < 0.35:
                tags.append(f"B-{rng.choice(types)}")
            else:
                tags.append("O")
        sentences.append(TokenSequence(tuple(tokens), tuple(tags)))
    return TaggedCorpus(tuple(sentences), LabelSet(types, "BIO"))


class TestSampleFewshot:
    def test_five_shot_budget(self):
        corpus = _synthetic_corpus(200, seed=1)
        sub = sample_fewshot(corpus, shots=5, seed=11)
        assert len(sub) <= 5 * len(corpus.labels.entity_types)
        for etype in corpus.labels.entity_types:
            covering = sum(
                1 for s in sub.sentences if any(t.endswith(etype) for t in s.tags)
            )
            assert covering >= 5

    def test_single_type_forced_count(self):
        sentences = tuple(
            TokenSequence((f"t{i}", "x"), ("B-PER", "O")) for i in range(20)
        )
        corpus = TaggedCorpus(sentences, LabelSet(("PER",), "BIO"))
        sub = sample_fewshot(corpus, shots=7, seed=3)
        assert len(sub) == 7

    def test_deterministic(self):
        corpus = _synthetic_corpus(100, seed=2)
        a = sample_fewshot(corpus, shots=3, seed=42)
        b = sample_fewshot(corpus, shots=3, seed=42)
        assert a == b

    def test_subset_of_input(self):
        corpus = _synthetic_corpus(100, seed=4)
        sub = sample_fewshot(corpus, shots=3, seed=5)
        pool = set(corpus.sentences)
        assert all(s in pool for s in sub.sentences)

    def test_insufficient_names_type(self):
        corpus = parse_conll("EU B-ORG\n\n")
        with pytest.raises(DataError, match="ORG"):
            sample_fewshot(corpus, shots=2, seed=0)


class TestCorpusStats:
    def test_empty(self):
        stats = corpus_stats(parse_conll(""))
        assert stats == {
            "sentences": 0,
            "tokens": 0,
            "entity_types": 0,
            "chunks_per_type": {},
        }

    def test_fixture_counts(self):
        stats = corpus_stats(parse_conll(FIXTURE))
        assert stats["sentences"] == 1
        assert stats["tokens"] == 2
        assert stats["entity_types"] == 1
        assert stats["chunks_per_type"] == {"ORG": 1}


class TestLabelSet:
    def test_vocabulary_sizes(self):
        bio = LabelSet(("LOC", "PER"), "BIO")
        io = LabelSet(("LOC", "PER"), "IO")
        assert len(bio.tag_vocabulary) == 1 + 2 * 2
        assert len(io.tag_vocabulary) == 1 + 2
        assert bio.tag_vocabulary[0] == "O"

    def test_rejects_reserved_and_duplicates(self):
        with pytest.raises(DataError):
            LabelSet(("O",), "BIO")
        with pytest.raises(DataError):
            LabelSet(("PER", "PER"), "BIO")


class TestTaggedCorpus:
    def test_unknown_tag_names_first_bad_sentence(self):
        # the first unknown tag in token order is named, with its sentence,
        # though it recurs later and another unknown tag follows it
        sentences = [
            TokenSequence(("a", "b"), ("B-LOC", "O")),
            TokenSequence(("c", "d", "e"), ("O", "B-PER", "I-MISC")),
            TokenSequence(("f",), ("B-PER",)),
        ]
        with pytest.raises(
            DataError, match=r"^sentence 1: tag 'B-PER' not in the tag vocabulary$"
        ):
            TaggedCorpus(sentences, LabelSet(("LOC",), "BIO"))

    def test_immutable_and_hashable(self):
        parsed = parse_conll("a B-LOC\nb O\n\nc I-PER\n")
        built = TaggedCorpus(parsed.sentences, parsed.labels)
        assert parsed == built and hash(parsed) == hash(built)
        for corpus in (parsed, built):
            with pytest.raises(AttributeError, match="immutable"):
                corpus.tag_ids = corpus.tag_ids[::-1]
            with pytest.raises(AttributeError, match="immutable"):
                del corpus.offsets
            assert corpus.offsets.tolist() == [0, 2, 3]

    def test_tag_ids_index_the_vocabulary(self):
        corpus = parse_conll("a B-LOC\nb O\n\nc I-PER\n")
        vocab = corpus.labels.tag_vocabulary
        assert [vocab[i] for i in corpus.tag_ids] == ["B-LOC", "O", "I-PER"]
        assert corpus.offsets.tolist() == [0, 2, 3]
