"""Classification heads over token representations.

Two interchangeable heads produce a probability distribution over the tag
set for each token:

* a linear layer followed by a softmax, trained with cross-entropy
  computed in log space for a whole batch of rows at once;
* a prototype head that scores a token by its Euclidean distance to one
  centroid per label (the mean of that label's support representations),
  softmaxed over negative distances. The multi-prototype variant keeps
  several centroids per label, obtained by k-means over the support, and
  averages the per-centroid probabilities of a label.

Both heads accept soft target distributions; the loss is KL(target || q),
which for one-hot targets is the usual negative log-likelihood.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError


@dataclass
class LinearHead:
    """Softmax classifier: weights (n_tags x H) and bias (n_tags)."""

    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        if self.weights.ndim != 2 or self.bias.shape != (self.weights.shape[0],):
            raise ValueError(
                f"inconsistent head shapes {self.weights.shape} / {self.bias.shape}"
            )

    @property
    def n_labels(self) -> int:
        return self.weights.shape[0]

    def copy(self) -> "LinearHead":
        return LinearHead(self.weights.copy(), self.bias.copy())

    def arrays(self) -> dict[str, np.ndarray]:
        return {"weights": self.weights, "bias": self.bias}


def init_linear_head(n_labels: int, hidden_dim: int, seed: int) -> LinearHead:
    rng = np.random.default_rng(seed)
    return LinearHead(
        weights=rng.uniform(-0.1, 0.1, size=(n_labels, hidden_dim)),
        bias=np.zeros(n_labels),
    )


@dataclass
class PrototypeSet:
    """Centroids per label: entries[i] = (label, (k_i x H) centroid matrix)."""

    entries: list[tuple[str, np.ndarray]]

    def __post_init__(self):
        labels = [label for label, _ in self.entries]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate prototype labels in {labels}")
        dims = set()
        for label, cents in self.entries:
            if cents.ndim != 2 or cents.shape[0] < 1:
                raise ValueError(f"label {label!r} needs >= 1 centroid")
            if not np.all(np.isfinite(cents)):
                raise ValueError(f"non-finite centroid for label {label!r}")
            dims.add(cents.shape[1])
        if len(dims) > 1:
            raise ValueError(f"mixed centroid dimensions {sorted(dims)}")

    @property
    def labels(self) -> list[str]:
        return [label for label, _ in self.entries]

    def is_single(self) -> bool:
        return all(cents.shape[0] == 1 for _, cents in self.entries)

    def centroid(self, label: str) -> np.ndarray:
        for lab, cents in self.entries:
            if lab == label:
                return cents
        raise KeyError(label)


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - np.max(logits)
    exp = np.exp(shifted)
    return exp / exp.sum()


def linear_log_probs(head: LinearHead, reprs: np.ndarray) -> np.ndarray:
    """Row-wise log softmax(W @ repr + b) for (N, H) reprs, max-shifted."""
    reprs = np.asarray(reprs, dtype=float)
    if reprs.ndim != 2 or reprs.shape[1] != head.weights.shape[1]:
        raise ValueError(
            f"reprs shape {reprs.shape} != (N, {head.weights.shape[1]})"
        )
    logits = reprs @ head.weights.T + head.bias
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def linear_forward(head: LinearHead, repr_vec: np.ndarray) -> np.ndarray:
    """softmax(W @ repr + b) of one H-vector, or row-wise of an (N, H) matrix."""
    repr_vec = np.asarray(repr_vec, dtype=float)
    probs = np.exp(linear_log_probs(head, np.atleast_2d(repr_vec)))
    return probs[0] if repr_vec.ndim == 1 else probs


def linear_loss_grads(
    head: LinearHead, reprs: np.ndarray, targets: np.ndarray, weights: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """sum_i w_i KL(T_i || softmax(W @ reprs[i] + b)) over (N, H) reprs,
    (N, n_tags) targets and N token weights, computed in log space, with its
    gradients (dW, db, d_reprs). The logit gradient is w * (softmax - T).
    """
    reprs = np.asarray(reprs, dtype=float)
    targets = np.asarray(targets, dtype=float)
    weights = np.asarray(weights, dtype=float)
    log_q = linear_log_probs(head, reprs)
    if targets.shape != log_q.shape or weights.shape != log_q.shape[:1]:
        raise ValueError(
            f"targets {targets.shape} / weights {weights.shape} do not fit {log_q.shape}"
        )
    w = weights[:, None]
    # target entropy term with 0 * log 0 = 0
    log_t = np.log(np.where(targets > 0.0, targets, 1.0))
    loss = float(np.sum(w * targets * (log_t - log_q)))
    d_logits = w * (np.exp(log_q) - targets)
    return loss, d_logits.T @ reprs, d_logits.sum(axis=0), d_logits @ head.weights


def cross_entropy(dist: np.ndarray, target: np.ndarray) -> float:
    """KL(target || dist) with 0*log0 = 0; equals -log dist[y] for one-hot."""
    dist = np.asarray(dist, dtype=float)
    target = np.asarray(target, dtype=float)
    if dist.shape != target.shape:
        raise ValueError(f"shape mismatch {dist.shape} vs {target.shape}")
    support = target > 0.0
    if np.any(dist[support] <= 0.0):
        raise ValueError("target places mass where the distribution is zero")
    t = target[support]
    return float(np.sum(t * (np.log(t) - np.log(dist[support]))))


def linear_backward(
    head: LinearHead, repr_vec: np.ndarray, target: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of KL(target || linear_forward) as (dW, db, d_repr)."""
    _, d_weights, d_bias, d_reprs = linear_loss_grads(
        head, np.atleast_2d(repr_vec), np.atleast_2d(target), np.ones(1)
    )
    return d_weights, d_bias, d_reprs[0]


def build_prototypes(support_reprs: dict[str, list[np.ndarray]]) -> PrototypeSet:
    """One centroid per label: the mean of that label's representations."""
    entries = []
    for label, reprs in support_reprs.items():
        if len(reprs) == 0:
            raise DataError(f"no support representations for label {label!r}")
        entries.append((label, np.mean(np.asarray(reprs, dtype=float), axis=0)[None, :]))
    return PrototypeSet(entries)


def _distances(protos: PrototypeSet, repr_vec: np.ndarray) -> np.ndarray:
    cents = np.vstack([c[0] for _, c in protos.entries])
    if repr_vec.shape != (cents.shape[1],):
        raise ValueError(f"repr shape {repr_vec.shape} != ({cents.shape[1]},)")
    return np.linalg.norm(cents - repr_vec, axis=1)


def proto_forward(protos: PrototypeSet, repr_vec: np.ndarray) -> np.ndarray:
    """softmax over negative Euclidean distances to the label centroids."""
    if not protos.is_single():
        raise ValueError("proto_forward needs single-centroid entries; use multi_proto_score")
    return _softmax(-_distances(protos, np.asarray(repr_vec, dtype=float)))


def proto_backward(
    protos: PrototypeSet, repr_vec: np.ndarray, target: np.ndarray
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Gradients of KL(target || proto_forward) w.r.t. the query repr and
    each centroid. At zero distance the norm's subgradient is taken as 0.

    Centroid gradients flow to support representations by dividing by the
    support count of the label (the centroid is their mean); the caller
    owns that provenance.
    """
    repr_vec = np.asarray(repr_vec, dtype=float)
    dist = proto_forward(protos, repr_vec)
    d_neg_d = dist - np.asarray(target, dtype=float)  # d loss / d (-distance)
    d_repr = np.zeros_like(repr_vec)
    centroid_grads: dict[str, np.ndarray] = {}
    for (label, cents), g in zip(protos.entries, d_neg_d):
        delta = repr_vec - cents[0]
        norm = np.linalg.norm(delta)
        direction = delta / norm if norm > 0.0 else np.zeros_like(delta)
        # distance gradient: d d/d repr = direction, d d/d centroid = -direction
        d_repr += -g * direction
        centroid_grads[label] = g * direction
    return d_repr, centroid_grads


def _kmeans_seed(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Farthest-point seeding: random first centre, then argmax of the
    distance to the nearest chosen centre (ties to the lowest index)."""
    chosen = [int(rng.integers(points.shape[0]))]
    min_dist = np.linalg.norm(points - points[chosen[0]], axis=1)
    while len(chosen) < k:
        nxt = int(np.argmax(min_dist))
        chosen.append(nxt)
        min_dist = np.minimum(min_dist, np.linalg.norm(points - points[nxt], axis=1))
    return points[chosen].copy()


def build_multi_prototypes(
    support_reprs: dict[str, list[np.ndarray]], shots: int, seed: int
) -> PrototypeSet:
    """ceil(shots/5) centroids per label via 50 Lloyd iterations, clamped to
    the label's representation count. shots <= 5 reduces to build_prototypes.
    """
    if shots < 1:
        raise ValueError(f"shots must be positive, got {shots}")
    k_target = max(1, math.ceil(shots / 5))
    rng = np.random.default_rng(seed)
    entries = []
    for label, reprs in support_reprs.items():
        if len(reprs) == 0:
            raise DataError(f"no support representations for label {label!r}")
        points = np.asarray(reprs, dtype=float)
        k = min(k_target, points.shape[0])
        if k == 1:
            entries.append((label, points.mean(axis=0)[None, :]))
            continue
        centroids = _kmeans_seed(points, k, rng)
        for _ in range(50):
            dists = np.linalg.norm(points[:, None, :] - centroids[None, :, :], axis=2)
            assign = np.argmin(dists, axis=1)
            updated = centroids.copy()
            for j in range(k):
                members = points[assign == j]
                if members.shape[0] > 0:
                    updated[j] = members.mean(axis=0)
            if np.array_equal(updated, centroids):
                break
            centroids = updated
        entries.append((label, centroids))
    return PrototypeSet(entries)


def multi_proto_score(protos: PrototypeSet, repr_vec: np.ndarray) -> np.ndarray:
    """Flat softmax over exp(-d) across all centroids of all labels; a
    label's score is the mean of its centroids' probabilities, renormalized.
    """
    repr_vec = np.asarray(repr_vec, dtype=float)
    dims = protos.entries[0][1].shape[1]
    if repr_vec.shape != (dims,):
        raise ValueError(f"repr shape {repr_vec.shape} != ({dims},)")
    all_cents = np.vstack([cents for _, cents in protos.entries])
    flat = _softmax(-np.linalg.norm(all_cents - repr_vec, axis=1))
    scores = np.empty(len(protos.entries))
    offset = 0
    for i, (_, cents) in enumerate(protos.entries):
        k = cents.shape[0]
        scores[i] = flat[offset : offset + k].mean()
        offset += k
    return scores / scores.sum()


def multi_proto_scores(protos: PrototypeSet, reprs: np.ndarray) -> np.ndarray:
    """multi_proto_score for every row of (N, H) reprs at once: an
    (N x all centroids) distance matrix, a row softmax over the negated
    distances, then each label's mean centroid probability, renormalized.
    Row i is computed with the same operations as multi_proto_score(reprs[i]).
    """
    reprs = np.asarray(reprs, dtype=float)
    all_cents = np.vstack([cents for _, cents in protos.entries])
    if reprs.ndim != 2 or reprs.shape[1] != all_cents.shape[1]:
        raise ValueError(f"reprs shape {reprs.shape} != (N, {all_cents.shape[1]})")
    neg = -np.linalg.norm(reprs[:, None, :] - all_cents[None, :, :], axis=2)
    flat = np.exp(neg - neg.max(axis=1, keepdims=True))
    flat /= flat.sum(axis=1, keepdims=True)
    bounds = np.cumsum([0] + [cents.shape[0] for _, cents in protos.entries])
    scores = np.column_stack(
        [flat[:, a:b].mean(axis=1) for a, b in zip(bounds[:-1], bounds[1:])]
    )
    return scores / scores.sum(axis=1, keepdims=True)
