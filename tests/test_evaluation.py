import random
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fewner.corpus import (
    LabelSet,
    TaggedCorpus,
    TokenSequence,
    convert_schema,
    parse_conll,
    sample_fewshot,
    word_ids,
)
from fewner.errors import DataError, NumericError
from fewner.evaluation import (
    AggregateReport,
    Experiment,
    entity_f1,
    evaluate_model,
    predict_corpus,
    repeated_eval,
    run_experiment,
    support_prototypes,
)
from fewner import encoder as encoder_module
from fewner import evaluation as evaluation_module
from fewner import heads as heads_module
from fewner.checkpoint import Model
from fewner.encoder import encode, init_encoder
from fewner.heads import (
    PrototypeSet,
    init_linear_head,
    linear_forward,
    multi_proto_score,
    multi_proto_scores,
)
from fewner.synthetic import make_corpus, transfer_benchmark
from fewner.training import (
    TrainConfig,
    generate_soft_labels,
    run_scheme,
    train_linear,
    train_prototype,
)

from builders import word_identity_corpus
from oracles import (
    oracle_chunks,
    oracle_convert,
    oracle_f1,
    oracle_type_counts,
    reference_entity_f1,
    reference_gate_sum,
    reference_slack,
    random_tagseq,
    reference_generate_soft_labels,
    reference_multi_proto_scores,
    reference_sentence_tags,
    reference_support_prototypes,
    scale_to_slack,
)


def _corpus_from_tags(tag_seqs, types, schema="BIO"):
    sentences = tuple(
        TokenSequence(tuple(f"t{j}" for j in range(len(tags))), tuple(tags))
        for tags in tag_seqs
    )
    return TaggedCorpus(sentences, LabelSet(tuple(sorted(types)), schema))


class TestEntityF1:
    def test_hand_enumeration(self):
        gold = _corpus_from_tags([["B-PER", "I-PER", "O", "B-LOC"]], ["PER", "LOC"])
        report = entity_f1(gold, [["B-PER", "I-PER", "O", "O"]], "BIO")
        assert report.precision == 1.0
        assert report.recall == 0.5
        assert report.f1 == pytest.approx(2 / 3)
        assert report.counts == (2, 1, 1)

    def test_perfect_prediction(self):
        tags = [["B-PER", "O"], ["O", "B-LOC", "I-LOC"]]
        gold = _corpus_from_tags(tags, ["PER", "LOC"])
        report = entity_f1(gold, tags, "BIO")
        assert (report.precision, report.recall, report.f1) == (1.0, 1.0, 1.0)

    def test_all_o_prediction(self):
        gold = _corpus_from_tags([["B-PER", "O"]], ["PER"])
        report = entity_f1(gold, [["O", "O"]], "BIO")
        assert report.f1 == 0.0
        assert report.precision == 0.0

    def test_length_mismatch_names_sentence(self):
        gold = _corpus_from_tags([["O", "O"], ["B-PER"]], ["PER"])
        with pytest.raises(DataError, match="sentence 1"):
            entity_f1(gold, [["O", "O"], ["B-PER", "O"]], "BIO")

    def test_matches_oracle_on_random_pairs(self):
        rng = random.Random(21)
        types = ["A", "B", "C", "D"]
        for schema in ("BIO", "IO"):
            for _ in range(300):
                n = rng.randint(1, 5)
                lengths = [rng.randint(1, 20) for _ in range(n)]
                gold_tags = [random_tagseq(rng, t, types, schema) for t in lengths]
                pred_tags = [random_tagseq(rng, t, types, schema) for t in lengths]
                gold = _corpus_from_tags(gold_tags, types, schema)
                report = entity_f1(gold, pred_tags, schema)
                p, r, f, counts = oracle_f1(gold_tags, pred_tags, schema)
                assert report.counts == counts
                assert report.precision == p
                assert report.recall == r
                assert report.f1 == f

    def test_permutation_symmetry(self):
        rng = random.Random(22)
        types = ["A", "B"]
        gold_tags = [random_tagseq(rng, rng.randint(1, 15), types, "BIO") for _ in range(8)]
        pred_tags = [random_tagseq(rng, len(g), types, "BIO") for g in gold_tags]
        base = entity_f1(_corpus_from_tags(gold_tags, types), pred_tags, "BIO")
        order = list(range(len(gold_tags)))
        rng.shuffle(order)
        permuted = entity_f1(
            _corpus_from_tags([gold_tags[i] for i in order], types),
            [pred_tags[i] for i in order],
            "BIO",
        )
        assert permuted.f1 == base.f1
        assert permuted.counts == base.counts

    def test_per_type_gold_sums_to_total(self):
        rng = random.Random(23)
        types = ["A", "B", "C"]
        gold_tags = [random_tagseq(rng, 12, types, "BIO") for _ in range(10)]
        pred_tags = [random_tagseq(rng, 12, types, "BIO") for _ in range(10)]
        report = entity_f1(_corpus_from_tags(gold_tags, types), pred_tags, "BIO")
        assert sum(s.support for s in report.per_type.values()) == report.counts[0]

    def test_bio_to_io_conversion_properties(self):
        # without same-type adjacency all three counts survive conversion;
        # in general conversion can only merge chunks, never split them
        rng = random.Random(24)
        types = ["A", "B"]
        for _ in range(300):
            n = rng.randint(1, 4)
            lengths = [rng.randint(1, 15) for _ in range(n)]
            gold_tags = [random_tagseq(rng, t, types, "BIO") for t in lengths]
            pred_tags = [random_tagseq(rng, t, types, "BIO") for t in lengths]
            bio = entity_f1(_corpus_from_tags(gold_tags, types), pred_tags, "BIO")
            io_gold = [oracle_convert(t, "BIO", "IO") for t in gold_tags]
            io_pred = [oracle_convert(t, "BIO", "IO") for t in pred_tags]
            io = entity_f1(
                _corpus_from_tags(io_gold, types, "IO"), io_pred, "IO"
            )
            assert io.counts[0] <= bio.counts[0]
            assert io.counts[1] <= bio.counts[1]

            def adjacency(seqs):
                for tags in seqs:
                    chunks = oracle_chunks(tags, "BIO")
                    for a, b in zip(chunks, chunks[1:]):
                        if a.end == b.start and a.entity_type == b.entity_type:
                            return True
                return False

            if not adjacency(gold_tags) and not adjacency(pred_tags):
                assert io.counts == bio.counts
                assert io.f1 == bio.f1


@st.composite
def _scored_corpora(draw):
    """A gold corpus of a few sentences and predictions for it. Gold tags
    come from the label set's vocabulary (one label type may never occur);
    predictions also use a type unknown to gold ("Q") and odd strings."""
    schema = draw(st.sampled_from(["BIO", "IO"]))
    types = draw(st.lists(st.sampled_from(["A", "B", "C-D"]), min_size=1, unique=True))
    vocab = LabelSet(tuple(types), schema).tag_vocabulary
    lengths = draw(st.lists(st.integers(1, 8), min_size=1, max_size=6))
    gold = [draw(st.lists(st.sampled_from(vocab), min_size=n, max_size=n)) for n in lengths]
    pred_tags = st.one_of(
        st.sampled_from(vocab),
        st.sampled_from(["B-Q", "I-Q", "B-A", "I-A", "E-A", "X", "B-", "O"]),
    )
    pred = [draw(st.lists(pred_tags, min_size=n, max_size=n)) for n in lengths]
    return schema, types, gold, pred


class TestEntityF1Properties:
    @settings(max_examples=100, deadline=None)
    @given(_scored_corpora())
    # chunks touching sentence boundaries end and start at the boundary
    @example(("BIO", ["A"], [["O", "I-A"], ["I-A", "O"]], [["O", "I-A"], ["I-A", "O"]]))
    @example(("IO", ["A"], [["I-A", "I-A"], ["I-A"]], [["I-A", "I-A"], ["I-A"]]))
    @example(("BIO", ["A"], [["B-A"], ["I-A"]], [["I-Q"], ["I-Q"]]))
    def test_multi_sentence_matches_oracle_per_type(self, case):
        schema, types, gold_tags, pred_tags = case
        gold = _corpus_from_tags(gold_tags, types, schema)
        report = entity_f1(gold, pred_tags, schema)
        p, r, f, counts = oracle_f1(gold_tags, pred_tags, schema)
        assert report.counts == counts
        assert (report.precision, report.recall, report.f1) == (p, r, f)
        per_type = oracle_type_counts(gold_tags, pred_tags, schema)
        assert list(report.per_type) == sorted(set(types) | set(per_type))
        for etype, score in report.per_type.items():
            n_gold, n_pred, n_correct = per_type.get(etype, (0, 0, 0))
            assert score.support == n_gold
            assert score.precision == (n_correct / n_pred if n_pred else 0.0)
            assert score.recall == (n_correct / n_gold if n_gold else 0.0)
        assert report.to_dict() == reference_entity_f1(gold, pred_tags, schema).to_dict()

    def test_boundary_chunks_stay_in_their_sentences(self):
        gold = _corpus_from_tags([["O", "I-A"], ["I-A", "O"]], ["A"])
        # one chunk per sentence, not one chunk across the boundary
        report = entity_f1(gold, [["O", "I-A"], ["I-A", "O"]], "BIO")
        assert report.counts == (2, 2, 2)
        merged = entity_f1(gold, [["O", "I-A"], ["O", "O"]], "IO")
        assert merged.counts == (2, 1, 1)


def _reports_match_reference(model, test, schema, protos=None, native=None):
    """evaluate_model, and entity_f1 on converted and on raw predictions,
    each equal to the first string-based scorer's report."""
    preds = predict_corpus(model, test.sentences, protos)
    native = native or model.labels.schema
    converted = [oracle_convert(p, native, schema) for p in preds]
    gold = convert_schema(test, schema)
    expected = reference_entity_f1(gold, converted, schema).to_dict()
    assert evaluate_model(model, test, schema, protos, native).to_dict() == expected
    assert entity_f1(gold, converted, schema).to_dict() == expected
    raw = reference_entity_f1(test, preds, schema).to_dict()
    assert entity_f1(test, preds, schema).to_dict() == raw


class TestReferenceScorer:
    @pytest.mark.parametrize("seed", range(5))
    def test_transfer_benchmark_reports_equal_reference(self, seed):
        bench = transfer_benchmark(seed)
        config = TrainConfig(seed=seed, epochs=1, learning_rate=0.05, batch_size=8)
        model = train_linear(bench.train, config)
        supports = [
            sample_fewshot(bench.train, 5, seed),
            convert_schema(sample_fewshot(bench.train, 5, seed), "IO"),
            sample_fewshot(bench.source, 5, seed),  # types the test set lacks
        ]
        for schema in ("BIO", "IO"):
            _reports_match_reference(model, bench.test, schema)
            for support in supports:
                protos = support_prototypes(model.encoder, support, shots=5, seed=seed)
                _reports_match_reference(
                    model, bench.test, schema, protos, support.labels.schema
                )


class TestPredictTags:
    def test_dominant_o_bias(self):
        corpus = word_identity_corpus(10, seed=1)
        model = train_linear(corpus, TrainConfig(seed=1, epochs=0, embed_dim=4, hidden_dim=6))
        model.head.bias[:] = 0.0
        model.head.bias[0] = 100.0  # index 0 is "O"
        for sent in corpus.sentences[:3]:
            assert predict_corpus(model, [sent])[0] == ["O"] * len(sent)

    def test_zero_distance_wins(self):
        corpus = word_identity_corpus(10, seed=2)
        model = train_prototype(
            corpus, TrainConfig(seed=2, epochs=1, embed_dim=4, hidden_dim=6, M=2, K=2, K_prime=2)
        )
        sent = corpus.sentences[0]
        from fewner.encoder import encode

        reprs = encode(model.encoder, sent)
        protos = PrototypeSet(
            [("B-LOC", reprs[0][None, :].copy()), ("B-ORG", reprs[0][None, :] + 5.0)]
        )
        assert predict_corpus(model, [sent], protos)[0][0] == "B-LOC"

    def test_entry_order_irrelevant(self):
        corpus = word_identity_corpus(10, seed=3)
        model = train_linear(corpus, TrainConfig(seed=3, epochs=0, embed_dim=4, hidden_dim=6))
        rng = np.random.default_rng(4)
        cents = {t: rng.normal(size=(1, 6)) for t in model.labels.tag_vocabulary}
        forward = PrototypeSet(list(cents.items()))
        backward = PrototypeSet(list(cents.items())[::-1])
        for sent in corpus.sentences[:5]:
            tags = predict_corpus(model, [sent], forward)
            assert tags == predict_corpus(model, [sent], backward)

    def test_tie_breaks_to_lowest_vocab_index(self):
        corpus = word_identity_corpus(5, seed=5)
        model = train_linear(corpus, TrainConfig(seed=5, epochs=0, embed_dim=4, hidden_dim=6))
        model.head.weights[:] = 0.0
        model.head.bias[:] = 0.0  # uniform distribution: every tag tied
        sent = corpus.sentences[0]
        assert predict_corpus(model, [sent])[0] == ["O"] * len(sent)

    def test_matches_per_token_reference(self):
        # reference: every token scored alone, then the highest score with
        # exact ties to the label earliest in the tag vocabulary (labels
        # outside it last, in entry order)
        rng = random.Random(11)
        np_rng = np.random.default_rng(12)
        corpus = word_identity_corpus(20, seed=11, types=("LOC", "ORG", "PER"))
        model = train_linear(corpus, TrainConfig(seed=11, epochs=0, embed_dim=4, hidden_dim=6))
        vocab = model.labels.tag_vocabulary
        rank = {t: i for i, t in enumerate(vocab)}
        tied_best = 0

        def reference(scores, labels):
            nonlocal tied_best
            best = max(scores)
            tied = [label for label, s in zip(labels, scores) if s == best]
            tied_best += len(tied) > 1
            return min(tied, key=lambda t: rank.get(t, len(rank)))

        for _ in range(200):  # multi-prototype sets in shuffled label order
            sent = rng.choice(corpus.sentences)
            reprs = encode(model.encoder, sent)
            labels = [*vocab, "B-MISC", "I-MISC"]
            rng.shuffle(labels)
            labels = labels[: rng.randint(2, len(labels))]
            cents = {t: np_rng.normal(size=(rng.randint(1, 3), 6)) for t in labels}
            a, b = rng.sample(labels, 2)
            if rng.random() < 0.5:  # a zero-distance centroid makes the pair win
                cents[a][0] = reprs[rng.randrange(len(sent))]
            cents[b] = cents[a].copy()  # a and b tie on every token
            protos = PrototypeSet([(t, cents[t]) for t in labels])
            expected = [reference(multi_proto_score(protos, z), labels) for z in reprs]
            assert predict_corpus(model, [sent], protos)[0] == expected

        head = model.head
        for _ in range(100):  # linear head with two identical tag rows
            sent = rng.choice(corpus.sentences)
            head.weights[:] = np_rng.normal(size=head.weights.shape)
            head.bias[:] = np_rng.normal(size=head.bias.shape)
            i, j = rng.sample(range(len(vocab)), 2)
            if rng.random() < 0.5:  # the tied pair wins
                head.bias[i] = 50.0
            head.weights[j], head.bias[j] = head.weights[i], head.bias[i]
            reprs = encode(model.encoder, sent)
            expected = [reference(linear_forward(head, z), vocab) for z in reprs]
            assert predict_corpus(model, [sent])[0] == expected
        assert tied_best > 100

    def test_prototype_model_needs_support(self):
        corpus = word_identity_corpus(10, seed=6)
        model = train_prototype(
            corpus, TrainConfig(seed=6, epochs=0, embed_dim=4, hidden_dim=6, M=2, K=2, K_prime=2)
        )
        message = "prototype checkpoints carry no head arrays"
        with pytest.raises(DataError, match=message):
            evaluate_model(model, corpus)
        with pytest.raises(DataError, match=message):
            predict_corpus(model, corpus.sentences)


def _random_model(np_rng, embed_dim, hidden_dim, types=("LOC", "ORG", "PER")):
    labels = LabelSet(types, "BIO")
    encoder = init_encoder([f"w{i}" for i in range(300)], embed_dim, hidden_dim, seed=1)
    encoder.embedding_table[:] = np_rng.normal(size=encoder.embedding_table.shape)
    encoder.context_weights[:] = np_rng.normal(size=encoder.context_weights.shape)
    encoder.context_weights /= np.sqrt(3 * embed_dim)
    encoder.context_bias[:] = np_rng.normal(size=hidden_dim)
    head = init_linear_head(len(labels.tag_vocabulary), hidden_dim, seed=2)
    return Model(encoder, labels, head)


def _random_corpus(rng, labels, n_sentences, long_at=None):
    """Random words (some out of the vocabulary) and tags, 1 to 40 tokens a
    sentence, so that sentences straddle block boundaries; the sentence at
    long_at is longer than a block."""
    words = [f"w{i}" for i in range(330)]
    sentences = []
    for i in range(n_sentences):
        n = encoder_module.BLOCK_ROWS + 100 if i == long_at else rng.randint(1, 40)
        sentences.append(
            TokenSequence(
                tuple(rng.choice(words) for _ in range(n)),
                tuple(rng.choice(labels.tag_vocabulary) for _ in range(n)),
            )
        )
    return TaggedCorpus(tuple(sentences), labels)


# Probabilities of the block path against the one-sentence-at-a-time path:
# a larger matrix product may run through another BLAS kernel, which sums
# in another order, so rows agree to rounding, not bit for bit (relative
# differences up to 9e-14 at H = 128 with OpenBLAS 0.3.31 on an AVX-512 x86-64).
SOFT_LABEL_RTOL = 1e-12


def _counted(make_head, blocks, declined):
    """make_head whose (certify, exact) pair records row counts: of every
    block certify gets in blocks, and of every block exact scores (the
    blocks certify declined) in declined."""

    def counted_head(*args):
        certify, exact = make_head(*args)
        counted_certify = lambda reprs, slack: blocks.append(len(reprs)) or certify(reprs, slack)
        return counted_certify, lambda reprs: declined.append(len(reprs)) or exact(reprs)

    return counted_head


class TestBlockInference:
    """predict_corpus, soft labels and support prototypes, encoded in
    blocks of sentences, against the one-sentence-at-a-time reference."""

    @pytest.mark.parametrize("dims", [(4, 6), (32, 64)])
    @pytest.mark.parametrize("block_rows", [1, 23, None])
    def test_predictions_match_per_sentence_reference(self, monkeypatch, dims, block_rows):
        if block_rows is not None:
            monkeypatch.setattr(encoder_module, "BLOCK_ROWS", block_rows)
        rng = random.Random(40)
        np_rng = np.random.default_rng(41)
        model = _random_model(np_rng, *dims)
        vocab = model.labels.tag_vocabulary
        rank = {t: i for i, t in enumerate(vocab)}
        corpus = _random_corpus(rng, model.labels, 100, long_at=60)
        tokens = [s.tokens for s in corpus.sentences]
        block_rows = []

        def record_rows(reprs):
            block_rows.append(len(reprs))
            return reprs

        encoder_module.encode_blocks(model.encoder, word_ids(tokens), record_rows)
        # the long sentence is a block alone
        assert len(block_rows) >= 3 and encoder_module.BLOCK_ROWS + 100 in block_rows
        reprs = np.vstack([encode(model.encoder, s) for s in corpus.sentences])
        tied_best = 0

        def count_tied_best(scores):
            nonlocal tied_best
            tied_best += int(np.sum((scores == scores.max(axis=1, keepdims=True)).sum(axis=1) > 1))

        head = model.head
        for trial in range(4):  # linear head with two tied tag rows
            head.weights[:] = np_rng.normal(size=head.weights.shape)
            head.bias[:] = np_rng.normal(size=head.bias.shape)
            i, j = rng.sample(range(len(vocab)), 2)
            # zero weight rows tie exactly in any BLAS kernel; equal nonzero
            # rows need not (small products may sum columns differently)
            head.weights[[i, j]] = 0.0
            head.bias[j] = head.bias[i] = 50.0 if trial % 2 else 0.0
            expected = [reference_sentence_tags(model, s) for s in corpus.sentences]
            assert predict_corpus(model, corpus.sentences) == expected
            count_tied_best(linear_forward(head, reprs))

        for trial in range(4):  # multi-prototype sets in shuffled label order
            labels = [*vocab, "B-MISC", "I-MISC"]
            rng.shuffle(labels)
            labels = labels[: rng.randint(2, len(labels))]
            cents = {t: np_rng.normal(size=(rng.randint(1, 3), dims[1])) for t in labels}
            a, b = rng.sample(labels, 2)
            if trial % 2:  # a zero-distance centroid: the tied pair wins at token 0
                cents[a][0] = reprs[0]
            cents[b] = cents[a].copy()  # a and b tie on every token
            protos = PrototypeSet([(t, cents[t]) for t in labels])
            expected = [reference_sentence_tags(model, s, protos) for s in corpus.sentences]
            assert predict_corpus(model, corpus.sentences, protos) == expected
            count_tied_best(reference_multi_proto_scores(protos, reprs))
            # labels outside the vocabulary rank after it, in entry order
            loser = max(a, b, key=lambda t: rank.get(t, len(rank) + labels.index(t)))
            assert all(t != loser for tags in expected for t in tags)
        assert tied_best > 1000

    def test_empty_corpus(self):
        model = _random_model(np.random.default_rng(42), 4, 6)
        empty = TaggedCorpus((), model.labels)
        assert predict_corpus(model, empty.sentences) == []
        empty_words = word_ids([])
        assert generate_soft_labels(model, empty_words).shape == (
            0,
            len(model.labels.tag_vocabulary),
        )
        with pytest.raises(DataError, match="empty sentence"):
            generate_soft_labels(model, word_ids([("w1",), ()]))
        assert evaluate_model(model, empty).counts == (0, 0, 0)
        with pytest.raises(DataError, match="no tokens"):
            support_prototypes(model.encoder, empty)

    @pytest.mark.parametrize("block_rows", [1, None])
    def test_soft_labels_match_per_sentence_reference(self, monkeypatch, block_rows):
        if block_rows is not None:
            monkeypatch.setattr(encoder_module, "BLOCK_ROWS", block_rows)
        rng = random.Random(43)
        model = _random_model(np.random.default_rng(44), 32, 64)
        model.head.weights[:] = np.random.default_rng(45).normal(size=model.head.weights.shape)
        corpus = _random_corpus(rng, model.labels, 150, long_at=90)
        sentences = [list(s.tokens) for s in corpus.sentences]
        got = generate_soft_labels(model, word_ids(sentences))
        want = reference_generate_soft_labels(model, sentences)
        assert got.shape == want.shape == (sum(map(len, sentences)), len(model.head.bias))
        if block_rows == 1:  # one-sentence blocks: the same arithmetic
            assert np.array_equal(got, want)
        else:
            np.testing.assert_allclose(got, want, rtol=SOFT_LABEL_RTOL, atol=0.0)

    @pytest.mark.parametrize("shots", [None, 12])
    @pytest.mark.parametrize("block_rows", [1, None])
    def test_support_prototypes_match_per_sentence_reference(
        self, monkeypatch, shots, block_rows
    ):
        if block_rows is not None:
            monkeypatch.setattr(encoder_module, "BLOCK_ROWS", block_rows)
        rng = random.Random(46)
        model = _random_model(np.random.default_rng(47), 32, 64)
        support = _random_corpus(rng, model.labels, 120, long_at=30)
        got = support_prototypes(model.encoder, support, shots=shots, seed=3)
        want = reference_support_prototypes(model.encoder, support, shots=shots, seed=3)
        assert got.labels == want.labels
        for (_, c), (_, d) in zip(got.entries, want.entries):
            assert c.shape == d.shape
            if block_rows == 1:
                assert np.array_equal(c, d)
            else:
                np.testing.assert_allclose(c, d, rtol=0.0, atol=1e-14)

    def test_prototype_constants_built_once_per_pass(self, monkeypatch):
        rng = random.Random(50)
        model = _random_model(np.random.default_rng(51), 32, 64)
        test = _random_corpus(rng, model.labels, 80)
        assert len(list(encoder_module._blocks(test.offsets))) >= 2
        protos = support_prototypes(model.encoder, test, shots=10, seed=0)
        want = evaluate_model(model, test, protos=protos)
        built = []

        def spy(protos, ranked):
            built.append(ranked)
            return make_head(protos, ranked)

        make_head = heads_module.proto_argmax_head
        # the head may be built through either module's name for it
        for module in (heads_module, evaluation_module):
            monkeypatch.setattr(module, "proto_argmax_head", spy)
        assert evaluate_model(model, test, protos=protos) == want
        assert len(built) == 1

    def test_linear_benchmark_blocks_are_all_certified(self, monkeypatch):
        # the four linear schemes as the fewshot_lc benchmark workload trains them
        bench = transfer_benchmark(0, n_test=1000)
        labeled = sample_fewshot(bench.train, 5, 0)
        config = TrainConfig.five_shot(seed=0, learning_rate=0.01)
        source_config = TrainConfig(seed=0, learning_rate=0.05, batch_size=8)
        blocks, declined, encoded = [], [], []
        counted_head = _counted(heads_module.linear_argmax_head, blocks, declined)
        encode_windows = encoder_module.encode_windows

        def encode_spy(params, windows):
            encoded.append(len(windows))
            return encode_windows(params, windows)

        for scheme in ("lc", "lc+nsp", "lc+st", "lc+nsp+st"):
            model = run_scheme(
                labeled, config.with_(scheme=scheme), source=bench.source,
                unlabeled=bench.unlabeled, source_config=source_config,
            )
            with monkeypatch.context() as patch:
                patch.setattr(evaluation_module, "linear_argmax_head", counted_head)
                patch.setattr(encoder_module, "encode_windows", encode_spy)
                evaluate_model(model, bench.test, "BIO")
        assert len(blocks) == 60 and sum(blocks) == 4 * bench.test.offsets[-1]
        # every block is encoded from the projection tables and certified there
        assert declined == [] and encoded == []

    def test_prototype_benchmark_rows_are_all_certified(self, monkeypatch):
        # proto+nsp as the episodic_proto benchmark workload trains it, scored
        # by 20-shot support prototypes with 2 centroids per label
        bench = transfer_benchmark(0, n_test=1000)
        labeled, support = sample_fewshot(bench.train, 5, 0), sample_fewshot(bench.train, 20, 0)
        config = TrainConfig.five_shot(
            seed=0, learning_rate=0.01, scheme="proto+nsp", K=1, K_prime=2
        )
        source_config = TrainConfig.five_shot(seed=0, learning_rate=0.05)
        model = run_scheme(labeled, config, source=bench.source, source_config=source_config)
        protos = support_prototypes(model.encoder, support, shots=10, seed=0)
        blocks, declined, encoded = [], [], []
        encode_windows = encoder_module.encode_windows

        def encode_spy(params, windows):
            encoded.append(len(windows))
            return encode_windows(params, windows)

        # attached after support_prototypes, whose encode is exact by design
        monkeypatch.setattr(
            evaluation_module, "proto_argmax_head",
            _counted(heads_module.proto_argmax_head, blocks, declined),
        )
        monkeypatch.setattr(encoder_module, "encode_windows", encode_spy)
        evaluate_model(model, bench.test, "BIO", protos=protos)
        assert len(blocks) == 15 and sum(blocks) == bench.test.offsets[-1]
        # every block is encoded from the projection tables and certified there
        assert declined == [] and encoded == []

    def test_one_sentence_corpus_matches_reference(self):
        rng = random.Random(48)
        model = _random_model(np.random.default_rng(49), 32, 64)
        corpus = _random_corpus(rng, model.labels, 20)
        for sent in corpus.sentences:
            assert predict_corpus(model, [sent]) == [reference_sentence_tags(model, sent)]


def _exact_block_ids(model, words, protos=None):
    """_predict_ids' label ids from the exact per-block path: each block's
    encode_windows, then the exact head (the linear log softmax, or the
    multi-prototype scores over the ranked labels) and its argmax."""
    if protos is None:
        head = lambda reprs: np.argmax(linear_forward(model.head, reprs), axis=1)
    else:
        ranked = evaluation_module._ranking(protos.labels, model.labels.tag_vocabulary)
        head = lambda reprs: np.argmax(multi_proto_scores(protos, reprs)[:, ranked], axis=1)
    return encoder_module.encode_blocks(model.encoder, words, head)


def _gate_sum(encoder, words) -> float:
    """S of encoder.projection_tables over the rows the column uses."""
    return reference_gate_sum(encoder, encoder_module._column_windows(encoder, words)[0])


class TestProjectedPrediction:
    """Argmax prediction from the projection tables against the exact
    per-block path."""

    # weight scales; "below" and "past" put S at 0.5e300 and 2e300,
    # "under_two" and "over_two" the slack a millionth under and over 2
    @pytest.mark.parametrize(
        "scale", [1e-2, 1.0, 10.0, 1e3, 1e100, "below", "past", "under_two", "over_two"]
    )
    @pytest.mark.parametrize("kind", ["linear", "protos"])
    def test_equals_the_exact_per_block_path(self, scale, kind):
        rng = random.Random(60)
        np_rng = np.random.default_rng(61)
        model = _random_model(np_rng, 32, 64)
        test = _random_corpus(rng, model.labels, 100, long_at=60)
        words = test.word_ids
        model.head.weights[:] = np_rng.normal(size=model.head.weights.shape)
        protos = None
        if kind == "protos":
            protos = support_prototypes(model.encoder, test, shots=10, seed=0)
        used, _ = encoder_module._column_windows(model.encoder, words)
        if scale in ("under_two", "over_two"):
            scale_to_slack(model.encoder, used, 2 + (2e-6 if scale == "over_two" else -2e-6))
        else:
            if isinstance(scale, str):
                model.encoder.context_bias[:] = 0.0  # S scales with the weights
                scale = (0.5e300 if scale == "below" else 2e300) / _gate_sum(model.encoder, words)
            model.encoder.context_weights *= scale
        certified = encoder_module.projection_tables(model.encoder, used) is not None
        assert certified == (reference_slack(model.encoder, used) < 2)
        labels, got = evaluation_module._predict_ids(model, words, protos)
        want = _exact_block_ids(model, words, protos)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert len(got) == words.offsets[-1]

    def test_a_pass_past_the_slack_asks_no_certificate(self, monkeypatch):
        # an lc model set up as predict/f32_clip's: context weights scaled to
        # a gate sum S of 1e100, far under 1e300, which puts the slack past 2
        train, test = make_corpus(40, 2), make_corpus(100, 3)
        model = run_scheme(train, TrainConfig.five_shot(seed=0, epochs=3, learning_rate=0.05))
        words = test.word_ids
        used, _ = encoder_module._column_windows(model.encoder, words)
        model.encoder.context_weights *= 1e100 / reference_gate_sum(model.encoder, used)
        assert reference_slack(model.encoder, used) >= 2
        blocks, declined = [], []
        monkeypatch.setattr(
            evaluation_module, "linear_argmax_head",
            _counted(heads_module.linear_argmax_head, blocks, declined),
        )
        _, got = evaluation_module._predict_ids(model, words)
        # no certify call: every block goes straight to the exact scorer
        n_blocks = len(list(encoder_module._blocks(words.offsets)))
        assert blocks == [] and len(declined) == n_blocks >= 2
        monkeypatch.undo()
        assert np.array_equal(got, _exact_block_ids(model, words))

    def test_a_tied_head_re_encodes_every_block(self, monkeypatch):
        rng = random.Random(62)
        model = _random_model(np.random.default_rng(63), 32, 64)
        test = _random_corpus(rng, model.labels, 150)
        # rows 1 and 2 zero with zero bias, the last row a copy of row 0
        head = model.head
        head.weights[[1, 2]], head.bias[[1, 2]] = 0.0, 0.0
        head.weights[-1], head.bias[-1] = head.weights[0], head.bias[0]
        blocks = list(encoder_module._blocks(test.offsets))
        encode_windows = encoder_module.encode_windows
        encoded = []

        def spy(params, windows):
            encoded.append(len(windows))
            return encode_windows(params, windows)

        monkeypatch.setattr(encoder_module, "encode_windows", spy)
        _, got = evaluation_module._predict_ids(model, test.word_ids)
        assert len(blocks) >= 4 and encoded == [b - a for a, b in blocks]
        monkeypatch.undo()
        assert np.array_equal(got, _exact_block_ids(model, test.word_ids))

    def test_embedding_rows_outside_the_column_do_not_matter(self):
        rng = random.Random(64)
        model = _random_model(np.random.default_rng(65), 32, 64)
        test = _random_corpus(rng, model.labels, 10)
        used, _ = encoder_module._column_windows(model.encoder, test.word_ids)
        unused = sorted(set(range(len(model.encoder.vocab))) - set(used.tolist()))
        assert len(unused) > 10
        want = predict_corpus(model, test.sentences)
        model.encoder.embedding_table[unused] = np.nan
        assert predict_corpus(model, test.sentences) == want
        model.encoder.embedding_table[used[-1]] = np.nan
        with pytest.raises(NumericError, match="^non-finite encoder pre-activation$"):
            predict_corpus(model, test.sentences)


class TestEvaluateModel:
    def test_memorization_reaches_one(self):
        corpus = word_identity_corpus(20, seed=7)
        model = train_linear(
            corpus,
            TrainConfig(seed=7, epochs=25, learning_rate=0.05, batch_size=8, embed_dim=8, hidden_dim=12),
        )
        report = evaluate_model(model, corpus, "BIO")
        assert report.f1 == 1.0

    def test_unknown_types_reported(self):
        corpus = word_identity_corpus(10, seed=8)
        model = train_linear(corpus, TrainConfig(seed=8, epochs=0, embed_dim=4, hidden_dim=6))
        alien = parse_conll("x B-GADGET\n\n")
        with pytest.raises(DataError, match="GADGET"):
            evaluate_model(model, alien)

    def test_io_schema_scoring(self):
        corpus = word_identity_corpus(20, seed=9)
        model = train_linear(
            corpus,
            TrainConfig(seed=9, epochs=25, learning_rate=0.05, batch_size=8, embed_dim=8, hidden_dim=12),
        )
        bio = evaluate_model(model, corpus, "BIO")
        io = evaluate_model(model, corpus, "IO")
        assert 0.0 <= io.f1 <= 1.0
        # memorized corpus without adjacency scores identically
        assert io.f1 == pytest.approx(bio.f1)


class TestSupportPrototypes:
    def test_entries_follow_vocab_order(self):
        corpus = word_identity_corpus(15, seed=10)
        model = train_linear(corpus, TrainConfig(seed=10, epochs=0, embed_dim=4, hidden_dim=6))
        protos = support_prototypes(model.encoder, corpus)
        order = [t for t in corpus.labels.tag_vocabulary if t in set(protos.labels)]
        assert protos.labels == order

    def test_multi_shot_count(self):
        corpus = word_identity_corpus(40, seed=11)
        model = train_linear(corpus, TrainConfig(seed=11, epochs=0, embed_dim=4, hidden_dim=6))
        protos = support_prototypes(model.encoder, corpus, shots=10, seed=1)
        assert all(c.shape[0] <= 2 for _, c in protos.entries)
        assert any(c.shape[0] == 2 for _, c in protos.entries)


class TestRepeatedEval:
    def _experiment(self):
        train = word_identity_corpus(40, seed=12)
        test = word_identity_corpus(15, seed=13)
        config = TrainConfig(
            seed=0, epochs=2, learning_rate=0.05, batch_size=8, embed_dim=4, hidden_dim=6
        )
        return Experiment(train=train, test=test, config=config, shots=3)

    def test_single_run_zero_std(self):
        agg = repeated_eval(self._experiment(), n_repeats=1, base_seed=5)
        assert agg.std_f1 == 0.0
        assert agg.mean_f1 == agg.runs[0].f1

    def test_deterministic(self):
        a = repeated_eval(self._experiment(), n_repeats=3, base_seed=5)
        b = repeated_eval(self._experiment(), n_repeats=3, base_seed=5)
        assert a.mean_f1 == b.mean_f1
        assert a.std_f1 == b.std_f1

    def test_formatting(self):
        agg = AggregateReport(0.779, 0.0401, runs=())
        assert agg.formatted() == "0.779 ± 0.040"
        assert re.fullmatch(r"\d\.\d{3} ± \d\.\d{3}", agg.formatted())

    def test_run_experiment_proto_scheme(self):
        train = word_identity_corpus(60, seed=14)
        test = word_identity_corpus(15, seed=15)
        config = TrainConfig(
            seed=0,
            scheme="proto",
            epochs=1,
            learning_rate=0.05,
            embed_dim=4,
            hidden_dim=6,
            M=2,
            K=2,
            K_prime=2,
        )
        report = run_experiment(
            Experiment(train=train, test=test, config=config, shots=5), seed=3
        )
        assert 0.0 <= report.f1 <= 1.0
