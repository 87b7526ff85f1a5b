"""The few-shot and episode samplers: draw order against the whole-corpus
scans they replaced, top_up against the walk over members it replaced, and
their invariants on generated corpora."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fewner.corpus import (
    LabelSet,
    TaggedCorpus,
    TokenSequence,
    parse_conll,
    sample_fewshot,
    top_up,
    write_conll,
)
from fewner.errors import DataError
from fewner.synthetic import make_corpus
from fewner.training import sample_episode

from oracles import (
    reference_sample_episode,
    reference_sample_fewshot,
    reference_top_up,
    tag_type,
)

CORPORA = [
    make_corpus(40, seed=1, fine=True),
    make_corpus(25, seed=2, fine=True, trigger_prob=0.6),
    make_corpus(12, seed=3),
    make_corpus(60, seed=4, noise=0.2),
]


def _outcome(sampler, *args):
    try:
        return sampler(*args)
    except DataError as exc:
        return f"DataError: {exc}"


def _columns(corpus):
    words = corpus.word_ids
    return (
        corpus.labels,
        corpus.tag_ids.tolist(),
        corpus.offsets.tolist(),
        words.words,
        words.ids.tolist(),
        words.offsets.tolist(),
    )


def _contains(sentence, etype) -> bool:
    return any(tag_type(t) == etype for t in sentence.tags)


class TestDrawOrder:
    def test_fewshot_matches_reference(self):
        outcomes = []
        for corpus in CORPORA:
            for shots in (1, 3, 5, 9):
                for seed in range(15):
                    got = _outcome(sample_fewshot, corpus, shots, seed)
                    assert got == _outcome(reference_sample_fewshot, corpus, shots, seed)
                    outcomes.append(isinstance(got, str))
        assert len(outcomes) >= 200
        assert any(outcomes) and not all(outcomes)  # both draws and errors compared

    def test_fewshot_columns_match_reference(self):
        # the sample gathers its columns from the corpus's, parsed or built
        # from sentences; they must be those a corpus of the sampled
        # sentences derives, the first-seen word order included
        compared = 0
        for corpus in CORPORA:
            for source in (corpus, parse_conll(write_conll(corpus))):
                for shots in (1, 3):
                    for seed in range(5):
                        ref = _outcome(reference_sample_fewshot, corpus, shots, seed)
                        if isinstance(ref, str):
                            continue
                        assert _columns(sample_fewshot(source, shots, seed)) == _columns(ref)
                        compared += 1
        assert compared >= 40

    def test_episodes_hash_by_value(self):
        corpus = CORPORA[0]
        parsed = parse_conll(write_conll(corpus))
        a, b = sample_episode(corpus, 2, 2, 3, 7), sample_episode(parsed, 2, 2, 3, 7)
        assert a == b and hash(a) == hash(b)

    def test_episode_matches_reference(self):
        outcomes = []
        for corpus in CORPORA:
            for m, k, k_query in ((1, 1, 1), (2, 2, 3), (3, 2, 2), (5, 2, 3), (2, 5, 15)):
                for seed in range(12):
                    args = (corpus, m, k, k_query, seed)
                    got = _outcome(sample_episode, *args)
                    assert got == _outcome(reference_sample_episode, *args)
                    outcomes.append(isinstance(got, str))
        assert len(outcomes) >= 200
        assert any(outcomes) and not all(outcomes)


@st.composite
def top_up_cases(draw):
    """Ascending members (possibly none), bucket and exclude sets that mix
    members with non-members and may share entries, and a want of 0-30.
    Sizes come from a seeded generator: Hypothesis's own draws cluster at
    the smallest sizes, where nothing is drawn."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    members = sorted(rng.sample(range(120), rng.randint(0, 40)))

    def entries() -> set[int]:
        picks = (
            rng.choice(members) if members and rng.random() < 0.7 else rng.randint(-3, 125)
            for _ in range(rng.randint(0, 12))
        )
        return set(picks)

    bucket, exclude = entries(), entries()
    exclude |= set(rng.sample(sorted(bucket), min(len(bucket), rng.randint(0, 2))))
    return tuple(members), bucket, exclude, rng.randint(0, 30)


MEMBERS = (2, 5, 7, 11, 13)


class TestTopUp:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(top_up_cases(), st.integers(0, 2**32 - 1))
    @example(((), {1}, {2}, 3), 0)  # no members
    @example((MEMBERS, {2, 5}, set(), 2), 0)  # want <= have: nothing drawn
    @example((MEMBERS, {2}, {5, 7, 11}, 3), 0)  # too few candidates: nothing drawn
    @example((MEMBERS, {2, 99}, {5, 2, -1}, 3), 0)  # entries in both sets, and non-members
    @example((MEMBERS, set(), set(MEMBERS), 1), 0)  # every member excluded
    @example((MEMBERS, set(), set(), 5), 0)  # every member drawn
    def test_matches_walk_over_members(self, case, seed):
        members, bucket, exclude, want = case
        results = []
        for sampler in (top_up, reference_top_up):
            rng, filled = random.Random(seed), set(bucket)
            available = sampler(rng, members, filled, want, exclude)
            results.append((available, filled, rng.getstate()))
        assert results[0] == results[1]


@st.composite
def corpora(draw):
    """Corpora of distinct sentences (each carries its index as a token) over
    up to four entity types."""
    types = ("A", "B", "C", "D")[: draw(st.integers(1, 4))]
    tag = st.sampled_from(("O", *(f"B-{t}" for t in types)))
    rows = draw(st.lists(st.lists(tag, min_size=1, max_size=5), min_size=5, max_size=40))
    sentences = tuple(
        TokenSequence(tuple(f"s{i}w{j}" for j in range(len(tags))), tuple(tags))
        for i, tags in enumerate(rows)
    )
    return TaggedCorpus(sentences, LabelSet(types, "BIO"))


class TestProperties:
    @settings(max_examples=150, deadline=None)
    @given(corpora(), st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_fewshot_covers_every_type(self, corpus, shots, seed):
        rows = {
            t: tuple(i for i, s in enumerate(corpus.sentences) if _contains(s, t))
            for t in corpus.labels.entity_types
        }
        assert corpus.type_index == rows
        if min(len(r) for r in rows.values()) < shots:
            with pytest.raises(DataError):
                sample_fewshot(corpus, shots, seed)
            return
        sub = sample_fewshot(corpus, shots, seed)
        assert set(sub.sentences) <= set(corpus.sentences)
        for etype in corpus.labels.entity_types:
            assert sum(_contains(s, etype) for s in sub.sentences) >= shots

    @settings(max_examples=150, deadline=None)
    @given(
        corpora(), st.integers(1, 4), st.integers(1, 3), st.integers(1, 3),
        st.integers(0, 2**32 - 1),
    )
    def test_episode_disjoint_and_filled(self, corpus, m, k, k_query, seed):
        m = min(m, len(corpus.labels.entity_types))
        try:
            episode = sample_episode(corpus, m, k, k_query, seed)
        except DataError:
            return
        support = [corpus.sentences[i] for i in episode.support_ids]
        query = [corpus.sentences[i] for i in episode.query_ids]
        assert not set(support) & set(query)
        assert len(episode.sampled_types) == m
        for etype in episode.sampled_types:
            assert sum(_contains(s, etype) for s in support) >= k
            assert sum(_contains(s, etype) for s in query) >= k_query
