import pytest

from fewner.synthetic import (
    COARSE_TYPES,
    ENTITY_WORDS,
    TRIGGER,
    VOCABULARY,
    base_type,
    make_corpus,
    shifted,
    transfer_benchmark,
)

from oracles import oracle_chunks


class TestVocabulary:
    def test_exactly_200_distinct_words(self):
        assert len(VOCABULARY) == 200
        assert len(set(VOCABULARY)) == 200

    def test_three_coarse_types(self):
        corpus = make_corpus(50, seed=1)
        assert corpus.labels.entity_types == COARSE_TYPES

    def test_six_fine_types(self):
        corpus = make_corpus(50, seed=1, fine=True)
        assert len(corpus.labels.entity_types) == 6


class TestLabelingRule:
    def test_cue_shifts_type(self):
        corpus = make_corpus(300, seed=2, noise=0.0)
        word_index = {w: i for i, w in enumerate(ENTITY_WORDS)}
        cued = 0
        for sent in corpus.sentences:
            for j, tok in enumerate(sent.tokens):
                if tok not in word_index:
                    continue
                base = base_type(word_index[tok])
                tag_type = sent.tags[j].split("-", 1)[1]
                if j > 0 and sent.tokens[j - 1] == TRIGGER:
                    assert tag_type == shifted(base)
                    cued += 1
                elif sent.tags[j].startswith("B-"):
                    assert tag_type == base
        assert cued > 0

    def test_pairs_are_single_chunks_of_one_type(self):
        corpus = make_corpus(300, seed=3)
        for sent in corpus.sentences:
            for chunk in oracle_chunks(sent.tags, "BIO"):
                assert 1 <= chunk.end - chunk.start <= 2

    def test_chunks_never_adjacent(self):
        corpus = make_corpus(300, seed=4)
        for sent in corpus.sentences:
            chunks = oracle_chunks(sent.tags, "BIO")
            for a, b in zip(chunks, chunks[1:]):
                assert a.end < b.start

    def test_noise_flips_tags_not_tokens(self):
        clean = make_corpus(100, seed=5, noise=0.0)
        noisy = make_corpus(100, seed=5, noise=0.3)
        assert [s.tokens for s in clean.sentences] == [s.tokens for s in noisy.sentences]
        assert any(
            c.tags != n.tags for c, n in zip(clean.sentences, noisy.sentences)
        )

    def test_deterministic(self):
        assert make_corpus(40, seed=6) == make_corpus(40, seed=6)


class TestBenchmark:
    def test_components(self):
        bench = transfer_benchmark(seed=0, n_source=30, n_train=20, n_test=20, n_unlabeled=25)
        assert len(bench.source) == 30
        assert len(bench.train) == 20
        assert len(bench.unlabeled) == 25
        assert len(bench.source.labels.entity_types) == 6
        assert bench.train.labels.entity_types == COARSE_TYPES

    @pytest.mark.parametrize("seed", range(5))
    def test_unlabeled_pool_is_a_stripped_corpus(self, seed):
        bench = transfer_benchmark(seed)
        corpus = make_corpus(300, seed * 7919 + 4)
        assert bench.unlabeled == [s.tokens for s in corpus.sentences]
