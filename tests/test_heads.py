import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fewner.corpus import word_ids
from fewner.encoder import (
    _column_windows,
    encode_blocks,
    encode_windows,
    init_encoder,
    projected_blocks,
    word_windows,
)
from fewner.errors import DataError, NumericError
from fewner.evaluation import _ranking
from fewner.heads import (
    LinearHead,
    _distances,
    PrototypeSet,
    build_multi_prototypes,
    build_prototypes,
    cross_entropy,
    init_linear_head,
    linear_argmax_head,
    linear_backward,
    linear_forward,
    linear_loss_grads,
    multi_proto_score,
    multi_proto_scores,
    proto_argmax_head,
    proto_backward,
    proto_forward,
    proto_loss_grads,
)

from oracles import (
    assert_grad_close,
    finite_difference,
    reference_build_multi_prototypes,
    reference_gate_sum,
    reference_multi_proto_score,
)


def _points(rng, n, dim, rounded):
    """n normal points; rounded to halves they repeat and tie in distance."""
    points = rng.normal(size=(n, dim))
    return np.round(points * 2) / 2 if rounded else points


def _assert_distribution(probs):
    assert np.all(probs >= 0.0)
    assert abs(probs.sum() - 1.0) < 1e-9


def _decided(pair):
    """A head's (certify, exact) pair as encoder.projected_blocks applies it
    to one block: certify's labels for reprs within slack of exact_rows
    (reprs themselves by default), else exact's labels for exact_rows."""
    certify, exact = pair

    def head(reprs, slack=0.0, exact_rows=None):
        labels = certify(reprs, slack)
        return exact(reprs if exact_rows is None else exact_rows) if labels is None else labels

    return head


def _outcome(fn):
    """fn()'s array, or the text of the NumericError it raises."""
    try:
        return fn()
    except NumericError as exc:
        return f"NumericError: {exc}"


def _within(rows, slack, seed):
    """rows moved by at most slack / 2 each entry (so that, rounding
    included, by at most slack)."""
    rng = np.random.default_rng(seed)
    return rows + rng.uniform(-slack / 2, slack / 2, size=rows.shape)


def _same(got, want) -> bool:
    """Equal error texts, or equal arrays of the same dtype."""
    if isinstance(want, str) or isinstance(got, str):
        return got == want
    return got.dtype == want.dtype and np.array_equal(got, want)


class TestLinearForward:
    def test_zero_head_uniform(self):
        head = LinearHead(np.zeros((4, 3)), np.zeros(4))
        dist = linear_forward(head, np.ones(3))
        assert np.allclose(dist, [0.25, 0.25, 0.25, 0.25])

    def test_hand_softmax(self):
        head = LinearHead(np.zeros((2, 1)), np.array([0.0, 1.0]))
        dist = linear_forward(head, np.zeros(1))
        assert np.allclose(dist, [0.2689, 0.7311], atol=1e-4)

    def test_shift_invariance(self):
        head = LinearHead(np.array([[1.0, 2.0], [3.0, -1.0], [0.5, 0.5]]), np.zeros(3))
        z = np.array([0.3, -0.7])
        base = linear_forward(head, z)
        shifted = LinearHead(head.weights, head.bias + 11.0)
        assert np.allclose(base, linear_forward(shifted, z), atol=1e-12)

    def test_valid_distribution_random(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            head = LinearHead(rng.normal(size=(5, 4)) * 10, rng.normal(size=5) * 10)
            _assert_distribution(linear_forward(head, rng.normal(size=4) * 10))

    def test_dimension_mismatch(self):
        head = LinearHead(np.zeros((2, 3)), np.zeros(2))
        with pytest.raises(ValueError):
            linear_forward(head, np.zeros(4))
        with pytest.raises(ValueError):
            linear_forward(head, np.zeros((2, 4)))

    def test_matrix_rows_match_vectors(self):
        rng = np.random.default_rng(14)
        head = LinearHead(rng.normal(size=(5, 4)), rng.normal(size=5))
        reprs = rng.normal(size=(7, 4))
        batched = linear_forward(head, reprs)
        assert batched.shape == (7, 5)
        for row, z in zip(batched, reprs):
            assert np.allclose(row, linear_forward(head, z), rtol=0.0, atol=1e-15)


class TestCrossEntropy:
    def test_one_hot_identity(self):
        assert cross_entropy(np.array([0.0, 1.0]), np.array([0.0, 1.0])) == 0.0

    def test_uniform_against_one_hot(self):
        loss = cross_entropy(np.array([0.5, 0.5]), np.array([1.0, 0.0]))
        assert abs(loss - math.log(2)) < 1e-12

    def test_kl_of_equal_soft_targets(self):
        loss = cross_entropy(np.array([0.5, 0.5]), np.array([0.5, 0.5]))
        assert abs(loss) < 1e-12

    def test_support_violation(self):
        with pytest.raises(ValueError):
            cross_entropy(np.array([1.0, 0.0]), np.array([0.5, 0.5]))

    def test_nonnegative(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            q = rng.dirichlet(np.ones(4))
            p = rng.dirichlet(np.ones(4))
            assert cross_entropy(q, p) >= -1e-12


class TestLinearBackward:
    def test_stationary_at_match(self):
        head = LinearHead(np.zeros((3, 2)), np.zeros(3))
        z = np.zeros(2)
        target = linear_forward(head, z)
        dw, db, dz = linear_backward(head, z, target)
        assert np.allclose(dw, 0.0) and np.allclose(db, 0.0) and np.allclose(dz, 0.0)

    def test_bias_gradient_closed_form(self):
        rng = np.random.default_rng(2)
        head = LinearHead(rng.normal(size=(4, 3)), rng.normal(size=4))
        z = rng.normal(size=3)
        target = np.array([0.0, 1.0, 0.0, 0.0])
        _, db, _ = linear_backward(head, z, target)
        assert np.allclose(db, linear_forward(head, z) - target, atol=1e-14)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            head = LinearHead(rng.normal(size=(4, 3)), rng.normal(size=4))
            z = rng.normal(size=3)
            target = rng.dirichlet(np.ones(4))
            dw, db, dz = linear_backward(head, z, target)

            def objective():
                return cross_entropy(linear_forward(head, z), target)

            numeric = finite_difference(
                objective, {"weights": head.weights, "bias": head.bias, "repr": z}
            )
            assert_grad_close(dw, numeric["weights"])
            assert_grad_close(db, numeric["bias"])
            assert_grad_close(dz, numeric["repr"])


class TestLinearLossGrads:
    def test_loss_is_weighted_sum_of_row_kl(self):
        rng = np.random.default_rng(15)
        head = LinearHead(rng.normal(size=(4, 3)), rng.normal(size=4))
        reprs = rng.normal(size=(6, 3))
        targets = rng.dirichlet(np.ones(4), size=6)
        targets[0] = [0.0, 1.0, 0.0, 0.0]  # one-hot rows use 0 log 0 = 0
        weights = rng.uniform(0.1, 3.0, size=6)
        loss, _, _, _ = linear_loss_grads(head, reprs, targets, weights)
        expected = sum(
            w * cross_entropy(linear_forward(head, z), t)
            for w, z, t in zip(weights, reprs, targets)
        )
        assert loss == pytest.approx(expected, rel=1e-12)

    def test_log_space_at_underflowing_softmax(self):
        # the gold tag's probability underflows to exactly 0, where the
        # probability-space cross_entropy has no finite value
        head = LinearHead(np.array([[1e4], [-1e4]]), np.zeros(2))
        z = np.array([[1.0]])
        target = np.array([[0.0, 1.0]])
        assert linear_forward(head, z)[0, 1] == 0.0
        with pytest.raises(ValueError):
            cross_entropy(linear_forward(head, z)[0], target[0])
        loss, d_w, d_b, d_z = linear_loss_grads(head, z, target, np.ones(1))
        assert loss == pytest.approx(2e4)
        assert np.allclose(d_b, [1.0, -1.0])
        assert np.allclose(d_w, [[1.0], [-1.0]])
        assert np.allclose(d_z, [[2e4]])

    def test_out_and_without_loss_give_the_same_gradients(self):
        rng = np.random.default_rng(16)
        head = LinearHead(rng.normal(size=(4, 3)), rng.normal(size=4))
        reprs = rng.normal(size=(6, 3))
        targets = rng.dirichlet(np.ones(4), size=6)
        weights = rng.uniform(0.1, 3.0, size=6)
        _, *plain = linear_loss_grads(head, reprs, targets, weights)
        # stale values in out must be overwritten, not added to
        out = (np.full((4, 3), 7.0), np.full(4, 7.0))
        loss, d_w, d_b, d_z = linear_loss_grads(head, reprs, targets, weights, out, False)
        assert loss is None
        assert d_w is out[0] and d_b is out[1]
        for got, want in zip((d_w, d_b, d_z), plain):
            assert got.tobytes() == want.tobytes()

    def test_shape_mismatch(self):
        head = LinearHead(np.zeros((3, 2)), np.zeros(3))
        with pytest.raises(ValueError):
            linear_loss_grads(head, np.zeros((2, 2)), np.zeros((2, 4)), np.ones(2))
        with pytest.raises(ValueError):
            linear_loss_grads(head, np.zeros((2, 2)), np.zeros((2, 3)), np.ones(1))


class TestDistances:
    @pytest.mark.parametrize(
        "n, n_cents, dim",
        [(512, 28, 64), (512, 7, 32), (300, 4, 64), (80, 3, 13), (20, 2, 5), (1, 3, 7), (0, 2, 9)],
    )
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_columns_equal_norms_bit_for_bit(self, n, n_cents, dim, order):
        rng = np.random.default_rng(n * 1000 + n_cents * 10 + dim)
        reprs = np.asarray(np.tanh(rng.normal(size=(n, dim))), order=order)
        centroids = np.tanh(rng.normal(size=(n_cents, dim)))
        dist = _distances(centroids, reprs)
        # C order, so row reductions of the distances sum as they always did
        assert dist.shape == (n, n_cents) and dist.flags.c_contiguous
        for j, c in enumerate(centroids):
            assert np.array_equal(dist[:, j], np.linalg.norm(reprs - c, axis=1))


class TestBuildPrototypes:
    def test_mean_symmetry(self):
        protos = build_prototypes({"A": [np.array([1.0, 0.0]), np.array([0.0, 1.0])]})
        assert np.allclose(dict(protos.entries)["A"], [[0.5, 0.5]])

    def test_single_repr_identity(self):
        v = np.array([0.3, -0.2, 0.9])
        protos = build_prototypes({"A": [v]})
        assert np.allclose(dict(protos.entries)["A"], v[None, :])

    def test_three_token_average(self):
        # a class prototype is the mean of its support tokens
        tokens = [np.array([1.0, 2.0]), np.array([3.0, 4.0]), np.array([5.0, 0.0])]
        protos = build_prototypes({"Person": tokens})
        assert np.allclose(dict(protos.entries)["Person"], [[3.0, 2.0]])

    def test_empty_label_rejected(self):
        with pytest.raises(DataError):
            build_prototypes({"A": []})


class TestProtoForward:
    def test_equidistant_symmetry(self):
        protos = PrototypeSet(
            [("A", np.array([[1.0, 0.0]])), ("B", np.array([[-1.0, 0.0]]))]
        )
        dist = proto_forward(protos, np.array([0.0, 5.0]))
        assert np.allclose(dist, [0.5, 0.5])

    def test_hand_evaluation(self):
        protos = PrototypeSet(
            [("A", np.array([[0.0, 0.0]])), ("B", np.array([[1.0, 0.0]]))]
        )
        dist = proto_forward(protos, np.array([0.0, 0.0]))
        assert np.allclose(dist, [0.7311, 0.2689], atol=1e-4)

    def test_argmax_is_nearest(self):
        rng = np.random.default_rng(4)
        for _ in range(500):
            n = rng.integers(2, 6)
            protos = PrototypeSet(
                [(f"L{i}", rng.normal(size=(1, 3))) for i in range(n)]
            )
            z = rng.normal(size=3)
            dist = proto_forward(protos, z)
            _assert_distribution(dist)
            dists = [np.linalg.norm(z - c[0]) for _, c in protos.entries]
            assert int(np.argmax(dist)) == int(np.argmin(dists))

    def test_translation_equivariance(self):
        rng = np.random.default_rng(5)
        protos = PrototypeSet([(f"L{i}", rng.normal(size=(1, 4))) for i in range(3)])
        z = rng.normal(size=4)
        shift = rng.normal(size=4)
        moved = PrototypeSet([(lab, c + shift) for lab, c in protos.entries])
        assert np.allclose(proto_forward(protos, z), proto_forward(moved, z + shift))

    def test_multi_centroid_rejected(self):
        protos = PrototypeSet([("A", np.zeros((2, 3)))])
        with pytest.raises(ValueError):
            proto_forward(protos, np.zeros(3))


class TestProtoBackward:
    def test_stationary_at_match(self):
        protos = PrototypeSet(
            [("A", np.array([[1.0, 0.0]])), ("B", np.array([[0.0, 1.0]]))]
        )
        z = np.array([2.0, 2.0])
        target = proto_forward(protos, z)
        d_repr, cent_grads = proto_backward(protos, z, target)
        assert np.allclose(d_repr, 0.0, atol=1e-12)
        for g in cent_grads.values():
            assert np.allclose(g, 0.0, atol=1e-12)

    def test_zero_distance_subgradient(self):
        protos = PrototypeSet(
            [("A", np.array([[1.0, 1.0]])), ("B", np.array([[0.0, 0.0]]))]
        )
        d_repr, cent_grads = proto_backward(
            protos, np.array([1.0, 1.0]), np.array([1.0, 0.0])
        )
        assert np.all(np.isfinite(d_repr))
        assert np.allclose(cent_grads["A"], 0.0)

    def test_query_grad_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        done = 0
        while done < 100:
            protos = PrototypeSet(
                [(f"L{i}", rng.normal(size=(1, 3))) for i in range(3)]
            )
            z = rng.normal(size=3)
            if min(np.linalg.norm(z - c[0]) for _, c in protos.entries) < 1e-3:
                continue
            target = rng.dirichlet(np.ones(3))
            d_repr, _ = proto_backward(protos, z, target)

            def objective():
                return cross_entropy(proto_forward(protos, z), target)

            numeric = finite_difference(objective, {"repr": z})
            assert_grad_close(d_repr, numeric["repr"])
            done += 1

    def test_support_grad_through_the_mean(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            support = {
                "A": [rng.normal(size=3) for _ in range(3)],
                "B": [rng.normal(size=3) for _ in range(2)],
            }
            z = rng.normal(size=3) * 2
            target = rng.dirichlet(np.ones(2))

            protos = build_prototypes(support)
            if min(np.linalg.norm(z - c[0]) for _, c in protos.entries) < 1e-3:
                continue
            _, cent_grads = proto_backward(protos, z, target)

            def objective():
                return cross_entropy(proto_forward(build_prototypes(support), z), target)

            for label, reprs in support.items():
                expected = cent_grads[label] / len(reprs)
                for vec in reprs:
                    numeric = finite_difference(objective, {"v": vec})
                    assert_grad_close(expected, numeric["v"])


class TestProtoLossGrads:
    def test_matches_finite_differences_through_support_means(self):
        rng = np.random.default_rng(8)
        for case in range(100):
            n_query, n_labels, dim = rng.integers(2, 6), rng.integers(2, 5), 3
            assign = np.concatenate(
                [np.arange(n_labels), rng.integers(n_labels, size=rng.integers(0, 4))]
            )
            support = rng.normal(size=(len(assign), dim))
            counts = np.bincount(assign, minlength=n_labels)

            def centroids():
                return np.stack([support[assign == k].mean(axis=0) for k in range(n_labels)])

            queries = rng.normal(size=(n_query, dim)) * 1.5
            step = 1e-5
            if case % 4 == 0:
                # zero distance: the norm's subgradient there is taken as 0,
                # which is also what a central difference of |x| at 0 gives;
                # the kink adds an O(step) error to the other coordinates'
                # differences, so the step is smaller
                queries[0] = centroids()[rng.integers(n_labels)]
                step = 1e-7
            targets = rng.dirichlet(np.ones(n_labels), size=n_query)
            loss, d_queries, d_cents = proto_loss_grads(centroids(), queries, targets)

            protos = PrototypeSet([(str(k), c[None, :]) for k, c in enumerate(centroids())])
            per_row = [cross_entropy(proto_forward(protos, q), t) for q, t in zip(queries, targets)]
            assert loss == pytest.approx(sum(per_row), rel=1e-12)

            def objective():
                return proto_loss_grads(centroids(), queries, targets)[0]

            numeric = finite_difference(
                objective, {"queries": queries, "support": support}, step=step
            )
            assert_grad_close(d_queries, numeric["queries"])
            assert_grad_close(d_cents[assign] / counts[assign, None], numeric["support"])

    def test_rows_match_proto_backward(self):
        rng = np.random.default_rng(9)
        cents = rng.normal(size=(3, 4))
        protos = PrototypeSet([(f"L{k}", c[None, :]) for k, c in enumerate(cents)])
        queries = rng.normal(size=(5, 4))
        targets = np.eye(3)[rng.integers(3, size=5)]
        _, d_queries, d_cents = proto_loss_grads(cents, queries, targets)
        summed = np.zeros_like(cents)
        for q, t, d_q in zip(queries, targets, d_queries):
            d_repr, cent_grads = proto_backward(protos, q, t)
            assert np.allclose(d_repr, d_q, rtol=1e-12, atol=1e-15)
            summed += np.stack([cent_grads[f"L{k}"] for k in range(3)])
        assert np.allclose(summed, d_cents, rtol=1e-12, atol=1e-15)

    def test_log_space_far_from_every_centroid(self):
        cents = np.array([[0.0, 0.0], [1e3, 0.0]])
        # the exact softmax of the far label underflows to 0; the loss stays finite
        loss, d_queries, d_cents = proto_loss_grads(
            cents, np.array([[-5.0, 0.0]]), np.array([[0.0, 1.0]])
        )
        assert loss == pytest.approx(1e3)
        assert np.all(np.isfinite(d_queries)) and np.all(np.isfinite(d_cents))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            proto_loss_grads(np.zeros((2, 3)), np.zeros((4, 2)), np.zeros((4, 2)))
        with pytest.raises(ValueError):
            proto_loss_grads(np.zeros((2, 3)), np.zeros((4, 3)), np.zeros((4, 3)))


def test_proto_loss_without_loss_gives_the_same_gradients():
    rng = np.random.default_rng(17)
    cents = rng.normal(size=(4, 5))
    queries = rng.normal(size=(7, 5))
    queries[2] = cents[1]  # a zero distance, where w is set to 0
    targets = rng.dirichlet(np.ones(4), size=7)
    _, *plain = proto_loss_grads(cents, queries, targets)
    loss, *grads = proto_loss_grads(cents, queries, targets, False)
    assert loss is None
    for got, want in zip(grads, plain):
        assert got.tobytes() == want.tobytes()


class TestMultiPrototypes:
    def test_k5_reduces_to_single(self):
        rng = np.random.default_rng(8)
        support = {"A": [rng.normal(size=4) for _ in range(5)]}
        multi = build_multi_prototypes(support, shots=5, seed=0)
        single = build_prototypes(support)
        assert np.allclose(dict(multi.entries)["A"], dict(single.entries)["A"])

    def test_k10_gives_two_centroids(self):
        rng = np.random.default_rng(9)
        support = {"A": [rng.normal(size=4) for _ in range(10)]}
        protos = build_multi_prototypes(support, shots=10, seed=0)
        assert dict(protos.entries)["A"].shape == (2, 4)

    def test_identical_points_collapse(self):
        point = np.array([1.0, 2.0])
        protos = build_multi_prototypes({"A": [point.copy() for _ in range(12)]}, 12, seed=1)
        assert np.allclose(dict(protos.entries)["A"], point)

    def test_k_clamped_to_repr_count(self):
        support = {"A": [np.array([float(i), 0.0]) for i in range(2)]}
        protos = build_multi_prototypes(support, shots=20, seed=2)
        assert dict(protos.entries)["A"].shape[0] == 2

    def test_deterministic(self):
        rng = np.random.default_rng(10)
        support = {"A": [rng.normal(size=3) for _ in range(15)]}
        a = build_multi_prototypes(support, 15, seed=5)
        b = build_multi_prototypes(support, 15, seed=5)
        for (la, ca), (lb, cb) in zip(a.entries, b.entries):
            assert la == lb and np.array_equal(ca, cb)

    def test_separated_clusters_found(self):
        rng = np.random.default_rng(11)
        cloud_a = [np.array([0.0, 0.0]) + rng.normal(size=2) * 0.05 for _ in range(5)]
        cloud_b = [np.array([10.0, 10.0]) + rng.normal(size=2) * 0.05 for _ in range(5)]
        protos = build_multi_prototypes({"A": cloud_a + cloud_b}, shots=10, seed=3)
        cents = dict(protos.entries)["A"]
        spread = np.linalg.norm(cents[0] - cents[1])
        assert spread > 10.0

    @pytest.mark.parametrize("rounded", [False, True])
    def test_bitwise_equal_to_reference(self, rounded):
        rng = np.random.default_rng(21)
        for trial in range(64):
            dim = int(rng.integers(1, 6))
            support = {
                f"L{i}": list(_points(rng, int(rng.integers(1, 30)), dim, rounded))
                for i in range(int(rng.integers(1, 4)))
            }
            shots = 5 * (trial % 8 + 1)  # k = 1 ... 8 centroids per label
            got = build_multi_prototypes(support, shots, seed=trial)
            want = reference_build_multi_prototypes(support, shots, seed=trial)
            assert got.labels == [label for label, _ in want]
            for (_, cents), (_, ref) in zip(got.entries, want):
                assert np.array_equal(cents, ref)


class TestMultiProtoScore:
    def test_reduces_to_proto_forward(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            protos = PrototypeSet(
                [(f"L{i}", rng.normal(size=(1, 3))) for i in range(4)]
            )
            z = rng.normal(size=3)
            assert np.allclose(
                multi_proto_score(protos, z), proto_forward(protos, z), atol=1e-12
            )

    def test_hand_evaluation_equidistant(self):
        c = np.array([[1.0, 0.0]])
        protos = PrototypeSet([("A", np.vstack([c, c])), ("B", np.array([[-1.0, 0.0]]))])
        scores = multi_proto_score(protos, np.array([0.0, 0.0]))
        assert np.allclose(scores, [0.5, 0.5])

    def test_batched_rows_equal_per_vector(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            protos = PrototypeSet(
                [(f"L{i}", rng.normal(size=(rng.integers(1, 12), 3))) for i in range(4)]
            )
            reprs = rng.normal(size=(rng.integers(1, 9), 3))
            batched = multi_proto_scores(protos, reprs)
            for row, z in zip(batched, reprs):
                assert np.array_equal(row, multi_proto_score(protos, z))

    @pytest.mark.parametrize("rounded", [False, True])
    def test_bitwise_equal_to_reference(self, rounded):
        rng = np.random.default_rng(22)
        for _ in range(200):
            dim = int(rng.integers(1, 6))
            protos = PrototypeSet(
                [
                    (f"L{i}", _points(rng, int(rng.integers(1, 9)), dim, rounded))
                    for i in range(int(rng.integers(1, 6)))
                ]
            )
            z = _points(rng, 1, dim, rounded)[0]
            assert np.array_equal(
                multi_proto_score(protos, z), reference_multi_proto_score(protos, z)
            )

    def test_batched_dimension_mismatch(self):
        protos = PrototypeSet([("A", np.zeros((2, 3)))])
        with pytest.raises(ValueError):
            multi_proto_scores(protos, np.zeros((2, 4)))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_representation_raises(self, value):
        rng = np.random.default_rng(19)
        protos = PrototypeSet([("A", rng.normal(size=(2, 8))), ("B", rng.normal(size=(2, 8)))])
        with pytest.raises(NumericError, match="non-finite prototype-head representation"):
            multi_proto_score(protos, np.full(8, value))
        reprs = rng.normal(size=(3, 8))
        reprs[1, 5] = value
        with pytest.raises(NumericError, match="non-finite prototype-head representation"):
            multi_proto_scores(protos, reprs)

    def test_sums_to_one(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            protos = PrototypeSet(
                [
                    ("A", rng.normal(size=(rng.integers(1, 4), 3))),
                    ("B", rng.normal(size=(rng.integers(1, 4), 3))),
                ]
            )
            _assert_distribution(multi_proto_score(protos, rng.normal(size=3)))


VOCAB = ("O", "B-PER", "I-PER", "B-LOC", "I-LOC")


@st.composite
def tie_prone_blocks(draw):
    """A prototype set over labels in and outside VOCAB (1-4 centroids
    each, the first label's maybe copied, exactly or nudged, into the last),
    its ranking and a block of query rows, many on a centroid or midway
    between two, and some holding NaN or +-inf (which the exact path
    refuses) or so large that their squared norm overflows."""
    dim = draw(st.sampled_from((1, 7, 8, 13, 64, 129)))
    scale = 10.0 ** draw(st.integers(-6, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = draw(st.permutations((*VOCAB, "B-MISC", "I-MISC")))[: draw(st.integers(1, 7))]
    cents = [rng.normal(size=(draw(st.integers(1, 4)), dim)) * scale for _ in labels]
    if len(labels) > 1 and draw(st.booleans()):  # exact ties or near-ties between labels
        nudge = draw(st.sampled_from((0.0, 1e-12, 1e-9, 1e-6, 1e-4))) * scale
        cents[-1] = cents[0] + nudge * rng.normal(size=cents[0].shape)
    all_cents = np.vstack(cents)
    reprs = rng.normal(size=(draw(st.integers(0, 30)), dim)) * scale
    for row in reprs:
        a, b = all_cents[rng.integers(len(all_cents), size=2)]
        place = rng.integers(3)
        if place:
            row[:] = a if place == 1 else (a + b) / 2
    for value in draw(st.lists(st.sampled_from((np.nan, np.inf, -np.inf, 1e154)), max_size=3)):
        if len(reprs):
            row = reprs[rng.integers(len(reprs))]
            if value == 1e154:  # each square is finite; over dim > 1 their sum is not
                row[:] = value
            else:
                row[rng.integers(dim)] = value
    protos = PrototypeSet(list(zip(labels, cents)))
    return protos, reprs, _ranking(labels, VOCAB)


class TestMultiProtoArgmax:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(tie_prone_blocks())
    def test_equals_exact_ranked_argmax(self, block):
        protos, reprs, ranked = block
        exact = lambda rows: np.argmax(multi_proto_scores(protos, rows)[:, ranked], axis=1)
        with np.errstate(all="ignore"):  # the exact path warns on overflowing rows
            want = _outcome(lambda: exact(reprs))
            head = _decided(proto_argmax_head(protos, ranked))
            assert _same(_outcome(lambda: head(reprs)), want)
            empty = head(reprs[:0])
            assert empty.shape == (0,) and empty.dtype == np.intp
            # one head's constants serve every block of a pass, in any order
            for rows in (reprs[::-1], reprs[:0], reprs):
                assert _same(_outcome(lambda: head(rows)), _outcome(lambda: exact(rows)))

    def test_a_doubtful_row_declines_the_block(self):
        rng = np.random.default_rng(31)
        a, b = rng.normal(size=(2, 8))
        # "I-PER" copies "B-PER"'s centroid, so the two tie exactly near it
        protos = PrototypeSet([("I-PER", a[None]), ("B-LOC", b[None]), ("B-PER", a[None])])
        ranked = _ranking(protos.labels, VOCAB)
        reprs = np.vstack([b, a, (a + b) / 2, b + 0.01, a + 0.01])
        certify, exact = proto_argmax_head(protos, ranked)
        # rows 0 and 3 are certified; the exact tie and the midpoint are not,
        # and each of them declines a block it is in
        assert np.array_equal(certify(reprs[[0, 3]], 0.0), exact(reprs[[0, 3]]))
        for doubtful in (1, 2, 4):
            assert certify(reprs[[0, 3, doubtful]], 0.0) is None
        assert certify(reprs, 0.0) is None
        got = exact(reprs)
        assert np.array_equal(got, np.argmax(multi_proto_scores(protos, reprs)[:, ranked], axis=1))
        # the tie goes to the label earliest in the vocabulary
        assert [protos.labels[ranked[i]] for i in got[[0, 1, 3, 4]]] == ["B-LOC", "B-PER"] * 2

    def test_a_row_not_finite_declines_the_block(self):
        rng = np.random.default_rng(37)
        protos = PrototypeSet([(t, rng.normal(size=(2, 16))) for t in VOCAB])
        ranked = _ranking(protos.labels, VOCAB)
        reprs = rng.normal(size=(513, 16))
        certify, exact = proto_argmax_head(protos, ranked)
        assert certify(reprs, 0.0) is not None  # the finite rows are all certified
        reprs[200, 3] = np.nan
        assert certify(reprs, 0.0) is None
        with pytest.raises(NumericError, match="non-finite prototype-head representation"):
            _decided((certify, exact))(reprs)

    def test_an_infinite_margin_beside_a_zero_score_is_not_certified(self):
        # B-PER's score exp(-1e4) is 0; a slack of 1e3 overflows the margin to
        # inf, so the floor top / inf is 0, which B-PER's score reaches
        protos = PrototypeSet([("O", np.zeros((1, 1))), ("B-PER", np.full((1, 1), 1e4))])
        ranked = _ranking(protos.labels, VOCAB)
        reprs = np.zeros((1, 1))
        certify, exact = proto_argmax_head(protos, ranked)
        assert certify(reprs, 0.0).tolist() == [0]
        assert certify(reprs, 1e3) is None and exact(reprs).tolist() == [0]

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_a_single_label_row_not_finite_raises(self, value):
        # one label always wins, but a row not finite must reach the exact path
        protos = PrototypeSet([("O", np.random.default_rng(41).normal(size=(2, 4)))])
        reprs = np.zeros((3, 4))
        head = _decided(proto_argmax_head(protos, [0]))
        assert head(reprs).tolist() == [0, 0, 0]
        reprs[1, 2] = value
        with pytest.raises(NumericError, match="^non-finite prototype-head representation$"):
            head(reprs)

    def test_a_lead_within_the_slack_is_not_certified(self):
        protos = PrototypeSet([("O", np.zeros((1, 2))), ("B-PER", np.array([[1.0, 0.0]]))])
        ranked = _ranking(protos.labels, VOCAB)
        exact_rows = np.array([[0.5 + 4e-7, 0.0]])  # nearer B-PER
        reprs = exact_rows - [[1e-6, 0.0]]  # within a slack of 1e-6, and nearer O
        head = _decided(proto_argmax_head(protos, ranked))
        assert head(reprs).tolist() == [0]  # certified on reprs alone
        assert head(reprs, 1e-6, exact_rows).tolist() == [1]

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(tie_prone_blocks(), st.sampled_from((1e-15, 1e-12, 1e-9, 1e-6)), st.integers(0, 2**32 - 1))
    def test_rows_within_a_slack_certify_the_exact_rows(self, block, slack, seed):
        """reprs within slack of the exact rows, entry by entry, give the
        exact rows' ranked argmax, or decline the block."""
        protos, exact_rows, ranked = block
        reprs = _within(exact_rows, slack, seed)
        exact = lambda rows: np.argmax(multi_proto_scores(protos, rows)[:, ranked], axis=1)
        head = _decided(proto_argmax_head(protos, ranked))
        with np.errstate(all="ignore"):
            want = _outcome(lambda: exact(exact_rows))
            assert _same(_outcome(lambda: head(reprs, slack, exact_rows)), want)


@st.composite
def tie_prone_linear(draw):
    """A linear head (1-9 labels) whose rows may be equal, zero (with a zero
    bias) or one ulp apart, with biases of 0, +-50 or normal, and a block of
    rows holding exact 0 and +-1 entries; maybe one row holds NaN or +-inf,
    or pushes the logits near 1e300."""
    dim = draw(st.sampled_from((1, 7, 64)))
    n_labels = draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = rng.normal(size=(n_labels, dim)) * 10.0 ** draw(st.integers(-3, 2))
    bias = rng.choice(draw(st.sampled_from(((0.0,), (50.0, -50.0, 0.0), (0.5, -1.3)))), n_labels)
    for kind in draw(st.lists(st.sampled_from(("equal", "zero", "ulp")), max_size=4)):
        a, b = rng.integers(n_labels, size=2)
        if kind == "zero":
            weights[a], bias[a] = 0.0, 0.0
        else:
            weights[b] = weights[a] if kind == "equal" else np.nextafter(weights[a], np.inf)
            bias[b] = bias[a]
    reprs = np.tanh(2 * rng.normal(size=(draw(st.sampled_from((40, 9, 2, 1, 0))), dim)))
    exact = rng.integers(4, size=reprs.shape)
    reprs[exact < 3] = np.array([0.0, 1.0, -1.0])[exact[exact < 3]]
    special = draw(st.sampled_from((None, np.nan, np.inf, -np.inf, "near_1e300")))
    if special is not None and len(reprs):
        row = reprs[rng.integers(len(reprs))]
        if special == "near_1e300":
            with np.errstate(over="ignore", invalid="ignore"):  # a tiny max|W| overflows
                row *= 10.0 ** draw(st.integers(296, 302)) / (np.abs(weights).max() or 1.0)
        else:
            row[rng.integers(dim)] = special
    return LinearHead(weights, bias), reprs


def _exact_argmax(head):
    return lambda reprs: np.argmax(linear_forward(head, reprs), axis=1)


class TestLinearArgmaxHead:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(tie_prone_linear())
    def test_equals_exact_argmax(self, case):
        head, reprs = case
        argmax, exact = _decided(linear_argmax_head(head)), _exact_argmax(head)
        with np.errstate(all="ignore"):  # the exact path warns on logits not finite
            # one head's constants serve every block of a pass, in any order
            for rows in (reprs, reprs[::-1], reprs[:0]):
                assert _same(_outcome(lambda: argmax(rows)), _outcome(lambda: exact(rows)))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(tie_prone_linear(), st.sampled_from((1e-15, 1e-12, 1e-9, 1e-6)), st.integers(0, 2**32 - 1))
    def test_rows_within_a_slack_certify_the_exact_rows(self, case, slack, seed):
        """reprs within slack of the exact rows, entry by entry, give the
        exact rows' argmax, or decline the block."""
        head, exact_rows = case
        reprs = _within(exact_rows, slack, seed)
        argmax = _decided(linear_argmax_head(head))
        with np.errstate(all="ignore"):
            want = _outcome(lambda: _exact_argmax(head)(exact_rows))
            assert _same(_outcome(lambda: argmax(reprs, slack, exact_rows)), want)

    def test_a_lead_within_the_slack_is_not_certified(self):
        head = LinearHead(np.eye(2), np.zeros(2))
        exact_rows = np.array([[0.5, 0.5 + 4e-7]])  # label 1 leads by 4e-7
        reprs = exact_rows + [[5e-7, -5e-7]]  # within a slack of 1e-6; label 0 leads
        argmax = _decided(linear_argmax_head(head))
        assert argmax(reprs).tolist() == [0]  # certified on reprs alone
        assert argmax(reprs, 1e-6, exact_rows).tolist() == [1]

    def test_a_doubtful_block_scores_the_exact_rows(self):
        # labels 0 and 2 tie on every row, so the block is not certified
        head = LinearHead(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]), np.zeros(3))
        reprs = np.array([[1.0, 0.0], [0.0, 1.0]])
        exact_rows = np.array([[0.0, 1.0], [0.0, 1.0]])
        certify, exact = linear_argmax_head(head)
        assert certify(reprs, 1e-12) is None
        assert np.array_equal(_decided((certify, exact))(reprs, 1e-12, exact_rows), [1, 1])
        # without label 2 the block is certified on reprs
        certified = LinearHead(head.weights[:2], head.bias[:2])
        assert np.array_equal(linear_argmax_head(certified)[0](reprs, 1e-12), [0, 1])

    def test_one_huge_row_leaves_the_others_certified(self):
        """The margin is per row: logits of +-1 and +-2 beside a row at 4e299
        and 8e299 stay certified, so the block is not declined."""
        certify, _ = linear_argmax_head(LinearHead(np.array([[1.0], [2.0]]), np.zeros(2)))
        got = certify(np.array([[1.0], [4e299], [-1.0]]), 0.0)
        assert np.array_equal(got, [1, 1, 0])

    @pytest.mark.parametrize("lengths", [(), (1,), (511,), (512,), (513,), (300, 211, 1, 513)])
    @pytest.mark.parametrize("ties", [False, True])
    def test_blocks_through_encode_blocks(self, lengths, ties):
        rng = np.random.default_rng(len(lengths))
        vocab = [f"w{i}" for i in range(40)]
        encoder = init_encoder(vocab, 6, 10, seed=3)
        encoder.context_weights *= 3000  # saturated: most entries are exactly +-1
        words = word_ids(tuple(rng.choice(vocab, size=n)) for n in lengths)
        head = LinearHead(rng.normal(size=(5, 10)), rng.normal(size=5))
        if ties:  # two zero rows and two equal rows
            head.weights[[1, 2]], head.bias[[1, 2]] = 0.0, 0.0
            head.weights[4], head.bias[4] = head.weights[0], head.bias[0]
        got = encode_blocks(encoder, words, _decided(linear_argmax_head(head)))
        want = encode_blocks(encoder, words, _exact_argmax(head))
        assert got.shape == (sum(lengths),) and _same(got, want)

    @pytest.mark.parametrize("nudge", [0.0, 1e-13])
    def test_only_doubtful_blocks_are_rescored_whole(self, nudge):
        rng = np.random.default_rng(43)
        weights = rng.normal(size=(4, 8))
        reprs = np.tanh(rng.normal(size=(40, 8)))
        certified = linear_argmax_head(LinearHead(weights, np.zeros(4)))[0](reprs, 0.0)
        assert certified is not None
        # label 4 copies label 2, exactly or within the margin, so the two tie
        # or nearly tie wherever label 2 wins
        certify, exact = linear_argmax_head(
            LinearHead(np.vstack([weights, weights[2] * (1 + nudge)]), np.zeros(5))
        )
        assert certify(reprs, 0.0) is None
        got = exact(reprs)
        assert 2 in certified and np.array_equal(np.where(got == 4, 2, got), certified)
        if not nudge:  # an exact tie goes to the earlier label
            assert 4 not in got

    @pytest.mark.parametrize(
        "weights, row, want",
        [
            ([[1.0], [2.0]], 4e299, 1),  # logits below 1e300 are certified
            ([[1.0], [2.0]], 6e299, 1),  # 1.2e300 falls back
            ([[-1.0], [1.0]], 1e308, "NumericError: non-finite linear-head log-probability"),
            ([[1.0], [2.0]], np.nan, "NumericError: non-finite linear-head log-probability"),
        ],
    )
    def test_logits_near_1e300_fall_back(self, weights, row, want):
        certify, exact = linear_argmax_head(LinearHead(np.array(weights), np.zeros(2)))
        reprs = np.array([[1e299], [row], [-1e299]])  # the margin grows with max |logit|
        with np.errstate(all="ignore"):
            declined = certify(reprs, 0.0) is None
            got = _outcome(lambda: _decided((certify, exact))(reprs))
        if isinstance(want, str):
            assert got == want
        else:
            assert np.array_equal(got, [1, want, 0])
        assert declined == (row != 4e299)


@st.composite
def projected_passes(draw):
    """An encoder, a word-id column of 1-4 sentences (up to 600 tokens each,
    so up to 5 blocks) and a head's (certify, exact) pair. The encoder may
    be saturated (most entries exactly +-1) or fail the projection gate (NaN
    in a row the column reads, or S = 2e300), or hold NaN in a row the
    column does not read. Prototype centroids are representations of the
    column's own tokens. The head may be forced to tie: a linear head's two
    zero rows and two equal rows, or I-PER copying B-PER's centroids, which
    ties the tokens nearest them and so declines only their blocks."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    hidden = draw(st.sampled_from((1, 10, 32)))
    vocab = [f"w{i}" for i in range(40)]
    params = init_encoder([*vocab, "unread"], 6, hidden, seed=draw(st.integers(0, 9)))
    params.context_weights *= draw(st.sampled_from((1.0, 3000.0)))
    lengths = draw(st.lists(st.integers(1, 600), min_size=1, max_size=4))
    words = word_ids(tuple(rng.choice([*vocab, "oov"], size=n)) for n in lengths)
    windows = word_windows(params, words)
    reprs = encode_windows(params, windows[rng.integers(len(windows), size=12)])
    gate = draw(st.sampled_from(("pass", "nan_read", "nan_unread", "past")))
    if gate == "nan_read":
        params.embedding_table[params._index.get(words.words[0], 1)] = np.nan
    elif gate == "nan_unread":
        params.embedding_table[params._index["unread"]] = np.nan
    elif gate == "past":
        params.context_bias[:] = 0.0  # S scales with the weights
        used, _ = _column_windows(params, words)
        params.context_weights *= 2e300 / reference_gate_sum(params, used)
    ties = draw(st.booleans())
    if draw(st.booleans()):
        head = LinearHead(rng.normal(size=(5, hidden)), rng.normal(size=5))
        if ties:
            head.weights[[1, 2]], head.bias[[1, 2]] = 0.0, 0.0
            head.weights[4], head.bias[4] = head.weights[0], head.bias[0]
        return params, words, linear_argmax_head(head)
    cents = {t: reprs[rng.integers(12, size=draw(st.integers(1, 3)))] for t in VOCAB}
    if ties:
        cents["I-PER"] = cents["B-PER"]
    protos = PrototypeSet(list(cents.items()))
    return params, words, proto_argmax_head(protos, _ranking(protos.labels, VOCAB))


class TestProjectedBlocks:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(projected_passes())
    def test_equals_encode_blocks_with_exact(self, case):
        params, words, (certify, exact) = case
        with np.errstate(all="ignore"):  # the gate's scaled weights overflow in places
            want = _outcome(lambda: encode_blocks(params, words, exact))
            got = _outcome(lambda: projected_blocks(params, words, certify, exact))
        assert _same(got, want)
