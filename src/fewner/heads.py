"""Classification heads over token representations.

Two interchangeable heads produce a probability distribution over the tag
set for each token:

* a linear layer followed by a softmax, trained with cross-entropy
  computed in log space for a whole batch of rows at once;
* a prototype head that scores a token by its Euclidean distance to one
  centroid per label (the mean of that label's support representations),
  softmaxed over negative distances, with its loss and gradients computed
  in log space for a whole episode's query rows at once. The multi-prototype
  variant keeps several centroids per label, obtained by k-means over the
  support, and averages the per-centroid probabilities of a label.

Both heads accept soft target distributions; the loss is KL(target || q),
which for one-hot targets is the usual negative log-likelihood.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import OVERFLOW_BOUND, DataError, NumericError


def head_shapes(n_tags: int, hidden_dim: int) -> dict[str, tuple[int, ...]]:
    """The linear head's trainable arrays and their shapes, in arrays() order."""
    return {"weights": (n_tags, hidden_dim), "bias": (n_tags,)}


@dataclass
class LinearHead:
    """Softmax classifier over H-vectors, shaped as head_shapes gives."""

    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        if self.weights.ndim != 2 or self.bias.shape != (self.weights.shape[0],):
            raise ValueError(
                f"inconsistent head shapes {self.weights.shape} / {self.bias.shape}"
            )

    def arrays(self) -> dict[str, np.ndarray]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def init_linear_head(n_labels: int, hidden_dim: int, seed: int) -> LinearHead:
    """Weights uniform in [-0.1, 0.1], bias zero."""
    rng = np.random.default_rng(seed)
    arrays = {
        name: np.zeros(shape) if name.endswith("bias") else rng.uniform(-0.1, 0.1, size=shape)
        for name, shape in head_shapes(n_labels, hidden_dim).items()
    }
    return LinearHead(**arrays)


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


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise log softmax of (N, L) logits, max-shifted."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def linear_log_probs(head: LinearHead, reprs: np.ndarray) -> np.ndarray:
    """Row-wise log softmax(W @ repr + b) for (N, H) reprs, max-shifted."""
    reprs = np.asarray(reprs, dtype=float)
    if reprs.ndim != 2 or reprs.shape[1] != head.weights.shape[1]:
        raise ValueError(
            f"reprs shape {reprs.shape} != (N, {head.weights.shape[1]})"
        )
    return _log_softmax(reprs @ head.weights.T + head.bias)


def linear_forward(head: LinearHead, repr_vec: np.ndarray) -> np.ndarray:
    """softmax(W @ repr + b) of one H-vector, or row-wise of an (N, H) matrix;
    a non-finite log-probability (logits overflowing or too far apart to
    subtract) raises NumericError."""
    repr_vec = np.asarray(repr_vec, dtype=float)
    log_probs = linear_log_probs(head, np.atleast_2d(repr_vec))
    if not np.isfinite(log_probs).all():
        raise NumericError("non-finite linear-head log-probability")
    return np.exp(log_probs[0] if repr_vec.ndim == 1 else log_probs)


def linear_argmax_head(head: LinearHead):
    """The pair (certify, exact): exact(reprs) is
    np.argmax(linear_forward(head, reprs), axis=1) for (N, H) reprs, and
    certify(reprs, slack) gives exact's labels for rows within slack of reprs,
    entry by entry (slack 0 for exact rows), or None when it cannot certify
    every row. certify works label-major per row, its constants built once.

    z = (reprs @ W.T).T + b (W.T contiguous: faster than W @ reprs.T) is a
    (labels, rows) matrix reduced over axis 0. With b_j as an (H + 1)-th
    term, each logit here and on the exact path is a dot product summed in
    some order, within g (||r||_1 max|W| + |b_j|) of the real one,
    g = (H + 1)u / (1 - (H + 1)u), u = 2^-53 (Higham, Accuracy and
    Stability of Numerical Algorithms, 3.1), r being the row. (||r||_1 is
    one matrix-vector product; a per-row max|r| is a reduction along the
    short trailing axis, several times slower.) The exact row's real logits
    differ from reprs' by at most ||W_j||_1 slack and its ||r||_1 is at most
    reprs' plus H slack, so for row i the two paths' logits differ by at
    most D_i = 2g ((r_i + H slack) max|W| + b1) + w1 slack,
    w1 = max_j ||W_j||_1, b1 = max|b|, r_i = ||reprs[i]||_1. Row i is
    certified when m_i + t_i < OVERFLOW_BOUND (1e300), m_i = max|z[:, i]|,
    t_i = 2 D_i + 1e-9 (1 + m_i), and only its best logit reaches
    max - t_i. Its exact row then has the same unique best logit, ahead by
    more than 1e-9 (1 + m_i) less a few ulps of m_i (the rounding of t_i and
    the comparisons), which the max-shift, log-sum and exp cannot close; no
    exact (shifted) logit overflows, so exact would not raise. Ties,
    near-ties and anything not finite are not certified; a declined block is
    rescored whole, as the exact product's rounding depends on its row count.
    The certified index is read from the mask of logits reaching max - t_i.
    """
    weights_t, bias = np.ascontiguousarray(head.weights.T), head.bias[:, None]
    n_labels, dim = head.weights.shape
    scale = 4 / (2.0**53 / (dim + 1) - 1)  # 4g
    w1, b1 = np.abs(head.weights).sum(axis=1).max(), np.abs(head.bias).max()
    w_max, ones, labels = np.abs(head.weights).max(), np.ones(dim), np.arange(n_labels)

    def certify(reprs: np.ndarray, slack: float) -> np.ndarray | None:
        reprs = np.asarray(reprs, dtype=float)
        with np.errstate(all="ignore"):  # what is not finite is not certified
            z = np.ascontiguousarray((reprs @ weights_t).T)
            z += bias
            top = z.max(axis=0)
            m = np.maximum(top, -z.min(axis=0))
            r = np.abs(reprs) @ ones + dim * slack
            t = scale * (r * w_max + b1) + 2 * w1 * slack + 1e-9 * (1 + m)
            best = z >= top - t
            certified = (m + t).max(initial=0.0) < OVERFLOW_BOUND
        return labels @ best if certified and np.count_nonzero(best) == len(reprs) else None

    return certify, lambda reprs: np.argmax(linear_forward(head, reprs), axis=1)


def linear_loss_grads(
    head: LinearHead, reprs: np.ndarray, targets: np.ndarray, weights: np.ndarray,
    out: tuple[np.ndarray, np.ndarray] | None = None, with_loss: bool = True,
) -> tuple[float | None, np.ndarray, np.ndarray, np.ndarray]:
    """sum_i w_i KL(T_i || softmax(W @ reprs[i] + b)) over (N, H) reprs,
    (N, n_tags) targets and N token weights, computed in log space, with its
    gradients (dW, db, d_reprs). The logit gradient is w * (softmax - T).
    dW and db are written into the arrays of out if given; without with_loss
    the loss is None."""
    reprs = np.asarray(reprs, dtype=float)
    targets = np.asarray(targets, dtype=float)
    weights = np.asarray(weights, dtype=float)
    log_q = linear_log_probs(head, reprs)
    if targets.shape != log_q.shape or weights.shape != log_q.shape[:1]:
        raise ValueError(
            f"targets {targets.shape} / weights {weights.shape} do not fit {log_q.shape}"
        )
    w = weights[:, None]
    loss = None
    if with_loss:  # target entropy term with 0 * log 0 = 0
        loss = float(np.sum(w * targets * (np.log(np.where(targets > 0.0, targets, 1.0)) - log_q)))
    d_logits = w * (np.exp(log_q) - targets)
    d_w, d_b = out if out is not None else (np.empty_like(head.weights), np.empty_like(head.bias))
    np.matmul(d_logits.T, reprs, out=d_w)
    np.add.reduce(d_logits, axis=0, out=d_b)
    return loss, d_w, d_b, d_logits @ head.weights


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
    """One centroid per label: the mean of that label's representations
    (k-means with k = 1)."""
    return build_multi_prototypes(support_reprs, shots=1, seed=0)


def _distances(centroids: np.ndarray, reprs: np.ndarray) -> np.ndarray:
    """(N, L) Euclidean distances of (N, H) reprs to (L, H) centroids.

    Per centroid, one reused (N, H) buffer takes the differences and their
    squares, and their row sums go to a row of an (L, N) buffer: the
    operations np.linalg.norm(reprs - c, axis=1) runs, on a buffer of the
    same layout, so each distance is bit-identical to it. One square root
    then fills the C-ordered result, whose row reductions downstream then
    sum in the same order as before.
    """
    diff = np.empty_like(reprs, dtype=float)
    sq = np.empty((len(centroids), len(reprs)))
    for c, row in zip(centroids, sq):
        np.subtract(reprs, c, out=diff)
        np.multiply(diff, diff, out=diff)
        np.add.reduce(diff, axis=1, out=row)
    dist = np.empty((len(reprs), len(centroids)))
    return np.sqrt(sq.T, out=dist)


def _proto_log_probs(centroids: np.ndarray, reprs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(N, L) Euclidean distances of reprs to the centroids and the row-wise
    log softmax of their negation, max-shifted."""
    if centroids.ndim != 2 or reprs.ndim != 2 or reprs.shape[1] != centroids.shape[1]:
        raise ValueError(
            f"reprs {reprs.shape} and centroids {centroids.shape} are not (N, H) and (L, H)"
        )
    dist = _distances(centroids, reprs)
    return dist, _log_softmax(-dist)


def proto_loss_grads(
    centroids: np.ndarray, reprs: np.ndarray, targets: np.ndarray, with_loss: bool = True
) -> tuple[float | None, np.ndarray, np.ndarray]:
    """sum_i KL(T_i || softmax(-||reprs[i] - centroids||)) over (N, H) reprs,
    (L, H) centroids and (N, L) targets, computed in log space, with its
    gradients (d_reprs, d_centroids); without with_loss the loss is None.

    With g = softmax - T and w = g / distance (0 at zero distance, where
    the norm's subgradient is taken as 0), d_reprs = w @ C - rowsum(w) * Q
    and d_centroids = w.T @ Q - colsum(w) * C.
    """
    centroids = np.asarray(centroids, dtype=float)
    reprs = np.asarray(reprs, dtype=float)
    targets = np.asarray(targets, dtype=float)
    dist, log_q = _proto_log_probs(centroids, reprs)
    if targets.shape != log_q.shape:
        raise ValueError(f"targets {targets.shape} do not fit {log_q.shape}")
    loss = None
    if with_loss:  # target entropy term with 0 * log 0 = 0
        log_t = np.log(np.where(targets > 0.0, targets, 1.0))
        loss = float(np.sum(targets * (log_t - log_q)))
    w = np.divide(
        np.exp(log_q) - targets, dist, out=np.zeros_like(dist), where=dist > 0.0
    )
    d_reprs = w @ centroids - w.sum(axis=1)[:, None] * reprs
    d_centroids = w.T @ reprs - w.sum(axis=0)[:, None] * centroids
    return loss, d_reprs, d_centroids


def _single_centroids(protos: PrototypeSet) -> np.ndarray:
    if any(cents.shape[0] != 1 for _, cents in protos.entries):
        raise ValueError("proto_forward needs single-centroid entries; use multi_proto_score")
    return np.vstack([c[0] for _, c in protos.entries])


def proto_forward(protos: PrototypeSet, repr_vec: np.ndarray) -> np.ndarray:
    """softmax over negative Euclidean distances to the label centroids."""
    repr_vec = np.asarray(repr_vec, dtype=float)
    return np.exp(_proto_log_probs(_single_centroids(protos), repr_vec[None, :])[1][0])


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
    _, d_reprs, d_cents = proto_loss_grads(
        _single_centroids(protos), repr_vec[None, :], np.atleast_2d(target)
    )
    return d_reprs[0], dict(zip(protos.labels, d_cents))


def _kmeans_seed(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Farthest-point seeding: random first centre, then argmax of the
    distance to the nearest chosen centre (ties to the lowest index)."""
    chosen = [int(rng.integers(points.shape[0]))]
    while len(chosen) < k:
        chosen.append(int(np.argmax(_distances(points[chosen], points).min(axis=1))))
    return points[chosen].copy()


def build_multi_prototypes(
    support_reprs: dict[str, list[np.ndarray]], shots: int, seed: int
) -> PrototypeSet:
    """ceil(shots/5) centroids per label via 50 Lloyd iterations, clamped to
    the label's representation count. With one centroid (k = 1), Lloyd's
    first step makes it the label's mean: build_prototypes.
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
        centroids = _kmeans_seed(points, k, rng)
        for _ in range(50):
            assign = np.argmin(_distances(centroids, points), axis=1)
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
    return multi_proto_scores(protos, repr_vec[None, :])[0]


def multi_proto_scores(protos: PrototypeSet, reprs: np.ndarray) -> np.ndarray:
    """multi_proto_score for every row of (N, H) reprs at once: an
    (N x all centroids) distance matrix, a row softmax over the negated
    distances, then each label's mean centroid probability, renormalized.
    Row i is computed with the same operations as multi_proto_score(reprs[i]).
    A representation that is not finite raises NumericError.
    """
    reprs = np.asarray(reprs, dtype=float)
    all_cents = np.vstack([cents for _, cents in protos.entries])
    if reprs.ndim != 2 or reprs.shape[1] != all_cents.shape[1]:
        raise ValueError(f"reprs shape {reprs.shape} != (N, {all_cents.shape[1]})")
    if not np.isfinite(reprs).all():
        raise NumericError("non-finite prototype-head representation")
    neg = -_distances(all_cents, reprs)
    flat = np.exp(neg - neg.max(axis=1, keepdims=True))
    flat /= flat.sum(axis=1, keepdims=True)
    bounds = np.cumsum([0] + [cents.shape[0] for _, cents in protos.entries])
    scores = np.column_stack(
        [flat[:, a:b].mean(axis=1) for a, b in zip(bounds[:-1], bounds[1:])]
    )
    return scores / scores.sum(axis=1, keepdims=True)


def proto_argmax_head(protos: PrototypeSet, ranked):
    """linear_argmax_head's pair (certify, exact) for exact(reprs) =
    np.argmax(multi_proto_scores(protos, reprs)[:, ranked], axis=1), ranked
    a permutation of the label indices; certify works label-major per row,
    with the set's constants (the ranked centroids C stacked, their squared
    norms, -2C and the label-averaging matrix) built once for every block.

    One matmul gives the squared distances (-2C) @ reprs.T + ||c||^2 +
    ||r||^2 as a (centroids, rows) matrix, and the min, exp, label means and
    top reduce over its axis 0. These differ from the exact path's by less
    than E = 8(H + 8) u (max ||r||^2 + max ||c||^2), u = 2^-53, in any
    summation order (each path's squared distances are within E/4 of the
    real ones, so their distances are within sqrt(E)/2). So each distance
    moves by at most delta = sqrt(E), and each label's mean of exp(min d - d)
    by a factor e^(+-delta): a row has the exact argmax when its top score is
    finite and positive and only its best label reaches the floor
    top / (e^(2 delta) (1 + 1e-9)). Its label is labels @ mask, the mask of
    the labels reaching the floor. A NaN score reaches no floor; a margin
    that overflows to inf makes the floor 0, which every label reaches.

    An exact row is within sqrt(H) slack of reprs' in Euclidean norm, so
    max ||r|| in E grows by that, and so does every real distance, which
    delta gains. One row not certified (a tie, a near-tie, anything not
    finite) declines the block; row i of multi_proto_scores needs row i
    only, so rescoring the block whole changes no certified row's label.
    """
    cents = [protos.entries[j][1] for j in ranked]
    sizes = [len(c) for c in cents]
    all_cents = np.vstack(cents)
    neg2c = -2.0 * all_cents
    c2 = np.einsum("ij,ij->i", all_cents, all_cents)[:, None]
    mean = np.repeat(np.eye(len(cents)) / sizes, sizes, axis=1)  # label means of centroid rows
    label_count = np.stack([np.arange(len(cents)), np.ones_like(sizes)])  # mask -> label, count
    unit = 8 * (all_cents.shape[1] + 8) * 2.0**-53
    root_h = math.sqrt(all_cents.shape[1])

    def certify(reprs: np.ndarray, slack: float) -> np.ndarray | None:
        reprs = np.asarray(reprs, dtype=float)
        with np.errstate(all="ignore"):  # what is not finite is not certified
            r2 = np.einsum("ij,ij->i", reprs, reprs)
            dist = neg2c @ reprs.T
            dist += c2
            dist += r2
            np.sqrt(np.maximum(dist, 0.0, out=dist), out=dist)
            flat = np.exp(np.subtract(dist.min(axis=0), dist, out=dist), out=dist)
            scores = mean @ flat
            r2_max, spread = r2.max(initial=0.0), root_h * slack
            r2_max += spread * (2 * np.sqrt(r2_max) + spread)  # (max ||r|| + spread)^2
            delta = np.sqrt(unit * (r2_max + c2.max())) + spread
            top = scores.max(axis=0)
            best, count = label_count @ (scores >= top / (np.exp(2 * delta) * (1 + 1e-9)))
            certified = ((count == 1) & (top > 0) & (top < np.inf)).all()
        return best if certified else None

    return certify, lambda reprs: np.argmax(multi_proto_scores(protos, reprs)[:, ranked], axis=1)
