import random
import re

import numpy as np
import pytest

from fewner.corpus import (
    LabelSet,
    TaggedCorpus,
    TokenSequence,
    convert_tags,
    extract_chunks,
    parse_conll,
)
from fewner.errors import DataError
from fewner.evaluation import (
    AggregateReport,
    Experiment,
    entity_f1,
    evaluate_model,
    predict_tags,
    repeated_eval,
    run_experiment,
    support_prototypes,
)
from fewner.encoder import encode
from fewner.heads import PrototypeSet, linear_forward, multi_proto_score
from fewner.training import TrainConfig, train_linear, train_prototype

from builders import word_identity_corpus
from oracles import oracle_f1, random_tagseq


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
            io_gold = [convert_tags(t, "BIO", "IO") for t in gold_tags]
            io_pred = [convert_tags(t, "BIO", "IO") for t in pred_tags]
            io = entity_f1(
                _corpus_from_tags(io_gold, types, "IO"), io_pred, "IO"
            )
            assert io.counts[0] <= bio.counts[0]
            assert io.counts[1] <= bio.counts[1]

            def adjacency(seqs):
                for tags in seqs:
                    chunks = extract_chunks(tags, "BIO")
                    for a, b in zip(chunks, chunks[1:]):
                        if a.end == b.start and a.entity_type == b.entity_type:
                            return True
                return False

            if not adjacency(gold_tags) and not adjacency(pred_tags):
                assert io.counts == bio.counts
                assert io.f1 == bio.f1


class TestPredictTags:
    def test_dominant_o_bias(self):
        corpus = word_identity_corpus(10, seed=1)
        model = train_linear(corpus, TrainConfig(seed=1, epochs=0, embed_dim=4, hidden_dim=6))
        model.head.bias[:] = 0.0
        model.head.bias[0] = 100.0  # index 0 is "O"
        for sent in corpus.sentences[:3]:
            assert predict_tags(model, sent) == ["O"] * len(sent)

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
        assert predict_tags(model, sent, protos=protos)[0] == "B-LOC"

    def test_entry_order_irrelevant(self):
        corpus = word_identity_corpus(10, seed=3)
        model = train_linear(corpus, TrainConfig(seed=3, epochs=0, embed_dim=4, hidden_dim=6))
        rng = np.random.default_rng(4)
        cents = {t: rng.normal(size=(1, 6)) for t in model.labels.tag_vocabulary}
        forward = PrototypeSet(list(cents.items()))
        backward = PrototypeSet(list(cents.items())[::-1])
        for sent in corpus.sentences[:5]:
            assert predict_tags(model, sent, protos=forward) == predict_tags(
                model, sent, protos=backward
            )

    def test_tie_breaks_to_lowest_vocab_index(self):
        corpus = word_identity_corpus(5, seed=5)
        model = train_linear(corpus, TrainConfig(seed=5, epochs=0, embed_dim=4, hidden_dim=6))
        model.head.weights[:] = 0.0
        model.head.bias[:] = 0.0  # uniform distribution: every tag tied
        sent = corpus.sentences[0]
        assert predict_tags(model, sent) == ["O"] * len(sent)

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
            assert predict_tags(model, sent, protos=protos) == expected

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
            assert predict_tags(model, sent) == expected
        assert tied_best > 100

    def test_prototype_model_needs_support(self):
        corpus = word_identity_corpus(10, seed=6)
        model = train_prototype(
            corpus, TrainConfig(seed=6, epochs=0, embed_dim=4, hidden_dim=6, M=2, K=2, K_prime=2)
        )
        with pytest.raises(DataError):
            evaluate_model(model, corpus)


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
