"""Acceptance suite: one test per criterion, at its stated tolerance and
time budget. Each prints a PASS line (visible with pytest -s; pytest -v
shows the per-criterion verdict either way).
"""

import json
import math
import random
import time

import numpy as np

from fewner.cli import main as cli_main
from fewner.corpus import LabelSet, TaggedCorpus, TokenSequence, sample_fewshot, write_conll
from fewner.encoder import (
    encode,
    encode_backward,
    encode_windows,
    encode_windows_backward,
    init_encoder,
    window_indices,
)
from fewner.evaluation import entity_f1, evaluate_model, support_prototypes
from fewner.heads import (
    LinearHead,
    PrototypeSet,
    build_multi_prototypes,
    build_prototypes,
    cross_entropy,
    linear_backward,
    linear_forward,
    linear_loss_grads,
    multi_proto_score,
    proto_backward,
    proto_forward,
)
from fewner.synthetic import make_corpus, transfer_benchmark
from fewner.training import (
    OptimizerState,
    TrainConfig,
    lr_at,
    pretrain_transfer,
    self_train,
    train_linear,
)

from oracles import assert_grad_close, finite_difference, oracle_f1, random_tagseq


def _report(name):
    print(f"ACCEPTANCE {name}: PASS")


def test_gradient_correctness():
    """Analytic gradients of both heads and the encoder, per vector or
    sentence and batched, match central finite differences within 1e-4
    relative (1e-7 floor), 100+ cases each."""
    started = time.monotonic()
    rng = random.Random(99)
    np_rng = np.random.default_rng(99)

    for _ in range(100):  # encoder
        vocab = [f"v{i}" for i in range(rng.randint(2, 5))]
        params = init_encoder(vocab, 3, 4, seed=rng.randint(0, 10**6))
        params.context_bias[:] = np_rng.normal(size=4)
        tokens = tuple(rng.choice(vocab + ["oov"]) for _ in range(rng.randint(1, 4)))
        sent = TokenSequence(tokens, tuple("O" for _ in tokens))
        upstream = np_rng.normal(size=(len(tokens), 4))
        analytic = encode_backward(params, sent, upstream)
        numeric = finite_difference(
            lambda: float(np.sum(upstream * encode(params, sent))), params.arrays()
        )
        for name, arr in analytic.arrays().items():
            assert_grad_close(arr, numeric[name])

    for _ in range(100):  # linear head
        head = LinearHead(np_rng.normal(size=(4, 3)), np_rng.normal(size=4))
        z = np_rng.normal(size=3)
        target = np_rng.dirichlet(np.ones(4))
        d_w, d_b, d_z = linear_backward(head, z, target)
        numeric = finite_difference(
            lambda: cross_entropy(linear_forward(head, z), target),
            {"weights": head.weights, "bias": head.bias, "repr": z},
        )
        assert_grad_close(d_w, numeric["weights"])
        assert_grad_close(d_b, numeric["bias"])
        assert_grad_close(d_z, numeric["repr"])

    for _ in range(100):  # batched encoder core: sentences of different lengths
        vocab = [f"v{i}" for i in range(rng.randint(2, 5))]
        params = init_encoder(vocab, 3, 4, seed=rng.randint(0, 10**6))
        params.context_bias[:] = np_rng.normal(size=4)
        lengths = rng.sample(range(1, 6), rng.randint(2, 4))
        windows = np.concatenate(
            [
                window_indices(params, [rng.choice(vocab + ["oov"]) for _ in range(n)])
                for n in lengths
            ]
        )
        upstream = np_rng.normal(size=(len(windows), 4))
        analytic = encode_windows_backward(
            params, windows, encode_windows(params, windows), upstream
        )
        numeric = finite_difference(
            lambda: float(np.sum(upstream * encode_windows(params, windows))),
            params.arrays(),
        )
        for name, arr in analytic.arrays().items():
            assert_grad_close(arr, numeric[name])

    for _ in range(100):  # batched linear head: N > 1 rows, soft targets, unequal weights
        n = rng.randint(2, 5)
        head = LinearHead(np_rng.normal(size=(4, 3)), np_rng.normal(size=4))
        z = np_rng.normal(size=(n, 3))
        targets = np_rng.dirichlet(np.ones(4), size=n)
        weights = np_rng.uniform(0.1, 2.0, size=n)
        loss, d_w, d_b, d_z = linear_loss_grads(head, z, targets, weights)
        per_row = sum(
            w * cross_entropy(linear_forward(head, row), t)
            for w, row, t in zip(weights, z, targets)
        )
        assert abs(loss - per_row) <= 1e-10 * max(1.0, per_row)
        numeric = finite_difference(
            lambda: linear_loss_grads(head, z, targets, weights)[0],
            {"weights": head.weights, "bias": head.bias, "repr": z},
        )
        assert_grad_close(d_w, numeric["weights"])
        assert_grad_close(d_b, numeric["bias"])
        assert_grad_close(d_z, numeric["repr"])

    done = 0  # prototype head, including gradients through the mean
    while done < 100:
        support = {
            "A": [np_rng.normal(size=3) for _ in range(rng.randint(1, 3))],
            "B": [np_rng.normal(size=3) for _ in range(rng.randint(1, 3))],
            "C": [np_rng.normal(size=3)],
        }
        z = np_rng.normal(size=3) * 1.5
        protos = build_prototypes(support)
        if min(np.linalg.norm(z - c[0]) for _, c in protos.entries) < 1e-3:
            continue
        target = np_rng.dirichlet(np.ones(3))
        d_z, cent_grads = proto_backward(protos, z, target)

        def objective():
            return cross_entropy(proto_forward(build_prototypes(support), z), target)

        numeric = finite_difference(objective, {"query": z})
        assert_grad_close(d_z, numeric["query"])
        for label, reprs in support.items():
            expected = cent_grads[label] / len(reprs)
            numeric = finite_difference(objective, {"s": reprs[0]})
            assert_grad_close(expected, numeric["s"])
        done += 1

    elapsed = time.monotonic() - started
    assert elapsed < 60, f"gradient checks took {elapsed:.1f}s"
    _report("gradient correctness")


def test_chunker_f1_oracle_equivalence():
    """entity_f1 equals brute-force chunk intersection exactly on 1000
    random tag pairs per schema, lengths 1-40, up to 6 types."""
    started = time.monotonic()
    rng = random.Random(17)
    types = ["T1", "T2", "T3", "T4", "T5", "T6"]
    for schema in ("BIO", "IO"):
        for _ in range(1000):
            length = rng.randint(1, 40)
            gold_tags = random_tagseq(rng, length, types, schema)
            pred_tags = random_tagseq(rng, length, types, schema)
            gold = TaggedCorpus(
                (
                    TokenSequence(
                        tuple(f"t{j}" for j in range(length)), tuple(gold_tags)
                    ),
                ),
                LabelSet(tuple(types), schema),
            )
            report = entity_f1(gold, [pred_tags], schema)
            p, r, f, counts = oracle_f1([gold_tags], [pred_tags], schema)
            assert report.counts == counts
            assert (report.precision, report.recall, report.f1) == (p, r, f)
    elapsed = time.monotonic() - started
    assert elapsed < 10, f"oracle comparison took {elapsed:.1f}s"
    _report("chunker/F1 oracle equivalence")


def test_nearest_neighbor_consistency():
    """argmax of the prototype distribution is the nearest centroid, with
    ties to the lowest label index; 1000 random cases, exact."""
    rng = np.random.default_rng(23)
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        protos = PrototypeSet([(f"L{i}", rng.normal(size=(1, 4))) for i in range(n)])
        z = rng.normal(size=4)
        dist = proto_forward(protos, z)
        distances = np.array([np.linalg.norm(z - c[0]) for _, c in protos.entries])
        assert int(np.argmax(dist)) == int(np.argmin(distances))
    # constructed exact tie: equidistant centroids resolve to the first label
    tie = PrototypeSet([("L0", np.array([[1.0, 0.0]])), ("L1", np.array([[-1.0, 0.0]]))])
    probs = proto_forward(tie, np.array([0.0, 0.0]))
    assert probs[0] == probs[1]
    assert int(np.argmax(probs)) == 0
    _report("nearest-neighbor consistency")


def test_reduction_identities():
    """lambda_u = 0 self-training is bitwise supervised training; K <= 5
    multi-prototype scoring equals single-prototype scoring within 1e-12."""
    corpus = make_corpus(30, seed=41)
    config = TrainConfig(
        seed=11, scheme="lc+st", lambda_u=0.0, epochs=2, learning_rate=0.05,
        batch_size=8, embed_dim=6, hidden_dim=10,
    )
    student = self_train(corpus, [("w000", "e00"), ("cue", "e01")], config)
    plain = train_linear(corpus, config)
    for k in student.encoder.arrays():
        assert np.array_equal(student.encoder.arrays()[k], plain.encoder.arrays()[k])
    assert np.array_equal(student.head.weights, plain.head.weights)
    assert np.array_equal(student.head.bias, plain.head.bias)

    rng = np.random.default_rng(43)
    for shots in (1, 2, 3, 4, 5):
        support = {
            f"L{i}": [rng.normal(size=5) for _ in range(rng.integers(1, 6))]
            for i in range(4)
        }
        multi = build_multi_prototypes(support, shots=shots, seed=3)
        single = build_prototypes(support)
        for _ in range(20):
            z = rng.normal(size=5)
            diff = np.abs(multi_proto_score(multi, z) - proto_forward(single, z))
            assert np.max(diff) < 1e-12
    _report("reduction identities")


def test_schedule_shape():
    """lr_at matches the closed-form warmup/decay values at 0%, 10%, 50%
    and 100% of a 1000-step plan, exactly."""
    base = 2e-4
    state = OptimizerState(base_lr=base, warmup_fraction=0.1, total_steps=1000)
    warmup = 0.1 * 1000
    for step, expected in (
        (0, 0.0),
        (100, base),
        (500, base * ((1000 - 500) / (1000 - warmup))),
        (1000, 0.0),
    ):
        state.step = step
        assert lr_at(state) == expected
    _report("schedule shape")


def test_synthetic_learnability():
    """Supervised fine-tuning at 100% data reaches entity F1 >= 0.95 on the
    held-out split within 10 epochs of the 200-word benchmark."""
    started = time.monotonic()
    train = make_corpus(200, seed=101)
    test = make_corpus(200, seed=202)
    config = TrainConfig(seed=1, epochs=10, learning_rate=0.05, batch_size=8)
    model = train_linear(train, config)
    f1 = evaluate_model(model, test, "BIO").f1
    elapsed = time.monotonic() - started
    assert f1 >= 0.95, f"lc reached only F1={f1:.4f}"
    assert elapsed < 120, f"learnability run took {elapsed:.1f}s"
    _report(f"synthetic learnability (F1={f1:.3f})")


def test_fewshot_ordering():
    """Transfer pre-training and self-training each beat plain fine-tuning
    at 5-shot: on means and in >= 7/10 seed-paired trials."""
    started = time.monotonic()
    bench = transfer_benchmark(seed=0)
    rows = []
    for i in range(10):
        seed = 1000 + i
        labeled = sample_fewshot(bench.train, 5, seed)
        config = TrainConfig.five_shot(seed=seed, learning_rate=0.01)
        source_config = TrainConfig(seed=seed, learning_rate=0.05, batch_size=8)
        lc = evaluate_model(train_linear(labeled, config), bench.test, "BIO").f1
        nsp = evaluate_model(
            pretrain_transfer(
                bench.source,
                labeled,
                config.with_(scheme="lc+nsp"),
                source_config=source_config,
            ),
            bench.test,
            "BIO",
        ).f1
        st = evaluate_model(
            self_train(labeled, bench.unlabeled, config.with_(scheme="lc+st")),
            bench.test,
            "BIO",
        ).f1
        rows.append((lc, nsp, st))
    mean_lc = sum(r[0] for r in rows) / 10
    mean_nsp = sum(r[1] for r in rows) / 10
    mean_st = sum(r[2] for r in rows) / 10
    nsp_wins = sum(1 for r in rows if r[1] >= r[0])
    st_wins = sum(1 for r in rows if r[2] >= r[0])
    elapsed = time.monotonic() - started
    assert mean_nsp >= mean_lc, f"nsp mean {mean_nsp:.3f} < lc mean {mean_lc:.3f}"
    assert mean_st >= mean_lc, f"st mean {mean_st:.3f} < lc mean {mean_lc:.3f}"
    assert nsp_wins >= 7, f"nsp won only {nsp_wins}/10 paired trials"
    assert st_wins >= 7, f"st won only {st_wins}/10 paired trials"
    assert elapsed < 900, f"few-shot ordering took {elapsed:.1f}s"
    _report(
        f"few-shot ordering (lc={mean_lc:.3f} nsp={mean_nsp:.3f} st={mean_st:.3f}, "
        f"wins {nsp_wins}/10 and {st_wins}/10)"
    )


def test_training_free_inference():
    """Multi-prototype inference over an unseen type set from 10 support
    examples per type beats the all-O baseline by >= 0.3 F1 without any
    parameter update."""
    started = time.monotonic()
    bench = transfer_benchmark(seed=0)
    source_config = TrainConfig(seed=7, learning_rate=0.05, batch_size=8)
    model = train_linear(bench.source, source_config)  # fine types only

    frozen = {k: v.copy() for k, v in model.encoder.arrays().items()}
    support = sample_fewshot(bench.train, 10, seed=0)
    protos = support_prototypes(model.encoder, support, shots=10, seed=0)
    report = evaluate_model(
        model, bench.test, "BIO", protos=protos, native_schema=support.labels.schema
    )
    baseline = entity_f1(
        bench.test, [["O"] * len(s) for s in bench.test.sentences], "BIO"
    )
    for k, v in model.encoder.arrays().items():
        assert np.array_equal(v, frozen[k]), "encoder changed during inference"
    elapsed = time.monotonic() - started
    margin = report.f1 - baseline.f1
    assert margin >= 0.3, f"prototype inference beat all-O by only {margin:.3f}"
    assert elapsed < 60, f"training-free run took {elapsed:.1f}s"
    _report(f"training-free inference (F1={report.f1:.3f} vs all-O {baseline.f1:.3f})")


def test_cmd_train_determinism(tmp_path, capsys):
    """Identical config and seed produce byte-identical checkpoints."""
    corpus = make_corpus(40, seed=51)
    train_path = tmp_path / "train.conll"
    train_path.write_text(write_conll(corpus), encoding="utf-8")
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps(
            {
                "seed": 13,
                "epochs": 2,
                "learning_rate": 0.05,
                "batch_size": 8,
                "embed_dim": 6,
                "hidden_dim": 10,
            }
        ),
        encoding="utf-8",
    )
    outputs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        code = cli_main(
            [
                "train",
                "lc",
                "--config",
                str(config_path),
                "--train",
                str(train_path),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    _report("checkpoint determinism")
