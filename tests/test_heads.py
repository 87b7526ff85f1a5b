import math
import random

import numpy as np
import pytest

from fewner.errors import DataError
from fewner.heads import (
    LinearHead,
    PrototypeSet,
    build_multi_prototypes,
    build_prototypes,
    cross_entropy,
    init_linear_head,
    linear_backward,
    linear_forward,
    linear_loss_grads,
    multi_proto_score,
    multi_proto_scores,
    proto_backward,
    proto_forward,
)

from oracles import assert_grad_close, finite_difference


def _assert_distribution(probs):
    assert np.all(probs >= 0.0)
    assert abs(probs.sum() - 1.0) < 1e-9


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

    def test_shape_mismatch(self):
        head = LinearHead(np.zeros((3, 2)), np.zeros(3))
        with pytest.raises(ValueError):
            linear_loss_grads(head, np.zeros((2, 2)), np.zeros((2, 4)), np.ones(2))
        with pytest.raises(ValueError):
            linear_loss_grads(head, np.zeros((2, 2)), np.zeros((2, 3)), np.ones(1))


class TestBuildPrototypes:
    def test_mean_symmetry(self):
        protos = build_prototypes({"A": [np.array([1.0, 0.0]), np.array([0.0, 1.0])]})
        assert np.allclose(protos.centroid("A"), [[0.5, 0.5]])

    def test_single_repr_identity(self):
        v = np.array([0.3, -0.2, 0.9])
        protos = build_prototypes({"A": [v]})
        assert np.allclose(protos.centroid("A"), v[None, :])

    def test_three_token_average(self):
        # a class prototype is the mean of its support tokens
        tokens = [np.array([1.0, 2.0]), np.array([3.0, 4.0]), np.array([5.0, 0.0])]
        protos = build_prototypes({"Person": tokens})
        assert np.allclose(protos.centroid("Person"), [[3.0, 2.0]])

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


class TestMultiPrototypes:
    def test_k5_reduces_to_single(self):
        rng = np.random.default_rng(8)
        support = {"A": [rng.normal(size=4) for _ in range(5)]}
        multi = build_multi_prototypes(support, shots=5, seed=0)
        single = build_prototypes(support)
        assert np.allclose(multi.centroid("A"), single.centroid("A"))

    def test_k10_gives_two_centroids(self):
        rng = np.random.default_rng(9)
        support = {"A": [rng.normal(size=4) for _ in range(10)]}
        protos = build_multi_prototypes(support, shots=10, seed=0)
        assert protos.centroid("A").shape == (2, 4)

    def test_identical_points_collapse(self):
        point = np.array([1.0, 2.0])
        protos = build_multi_prototypes({"A": [point.copy() for _ in range(12)]}, 12, seed=1)
        assert np.allclose(protos.centroid("A"), point)

    def test_k_clamped_to_repr_count(self):
        support = {"A": [np.array([float(i), 0.0]) for i in range(2)]}
        protos = build_multi_prototypes(support, shots=20, seed=2)
        assert protos.centroid("A").shape[0] == 2

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
        cents = protos.centroid("A")
        spread = np.linalg.norm(cents[0] - cents[1])
        assert spread > 10.0


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

    def test_batched_dimension_mismatch(self):
        protos = PrototypeSet([("A", np.zeros((2, 3)))])
        with pytest.raises(ValueError):
            multi_proto_scores(protos, np.zeros((2, 4)))

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
