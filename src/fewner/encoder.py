"""Token representation network: embedding lookup, 3-token window
contextualization and a tanh projection, with exact analytic gradients.

The representation of token i is

    tanh(Wc @ concat(e[i-1], e[i], e[i+1]) + bc)

where e[k] is the embedding of token k, a padding embedding beyond the
sentence ends and an unknown-word embedding for out-of-vocabulary words.
Both reserved rows are trainable like any other.

The per-sentence encode and encode_backward are the batch core
(window_indices, encode_windows, encode_windows_backward) applied to one
sentence; training concatenates the windows of a whole mini-batch.

encode is a pure function: concurrent readers may share one EncoderParams.
Training mutates the arrays in place and must be serialized externally.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .corpus import TokenSequence
from .errors import DataError

PAD = "<PAD>"
UNK = "<UNK>"


@dataclass
class EncoderParams:
    """All trainable weights of the encoder.

    vocab includes the reserved <PAD> (row 0) and <UNK> (row 1) entries;
    embedding_table is |vocab| x E, context_weights H x 3E, context_bias H.
    """

    vocab: tuple[str, ...]
    embed_dim: int
    hidden_dim: int
    embedding_table: np.ndarray
    context_weights: np.ndarray
    context_bias: np.ndarray
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        e, h = self.embed_dim, self.hidden_dim
        if self.embedding_table.shape != (len(self.vocab), e):
            raise ValueError(
                f"embedding table {self.embedding_table.shape} != ({len(self.vocab)}, {e})"
            )
        if self.context_weights.shape != (h, 3 * e):
            raise ValueError(
                f"context weights {self.context_weights.shape} != ({h}, {3 * e})"
            )
        if self.context_bias.shape != (h,):
            raise ValueError(f"context bias {self.context_bias.shape} != ({h},)")
        for arr in (self.embedding_table, self.context_weights, self.context_bias):
            if not np.all(np.isfinite(arr)):
                raise ValueError("non-finite encoder parameter")
        self._index = {w: i for i, w in enumerate(self.vocab)}

    def token_index(self, token: str) -> int:
        return self._index.get(token, self._index[UNK])

    def copy(self) -> "EncoderParams":
        return EncoderParams(
            self.vocab,
            self.embed_dim,
            self.hidden_dim,
            self.embedding_table.copy(),
            self.context_weights.copy(),
            self.context_bias.copy(),
        )

    def arrays(self) -> dict[str, np.ndarray]:
        """Named views of the trainable arrays (mutating them mutates self)."""
        return {
            "embedding_table": self.embedding_table,
            "context_weights": self.context_weights,
            "context_bias": self.context_bias,
        }


@dataclass
class EncoderGrads:
    """Gradients shape-congruent with EncoderParams."""

    embedding_table: np.ndarray
    context_weights: np.ndarray
    context_bias: np.ndarray

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "embedding_table": self.embedding_table,
            "context_weights": self.context_weights,
            "context_bias": self.context_bias,
        }


def init_encoder(vocab, embed_dim: int, hidden_dim: int, seed: int) -> EncoderParams:
    """Fresh parameters: weights uniform in [-0.1, 0.1], bias zero."""
    words = list(vocab)
    if not words:
        raise DataError("cannot initialize an encoder with an empty vocabulary")
    if embed_dim < 1 or hidden_dim < 1:
        raise ValueError("embed_dim and hidden_dim must be >= 1")
    full = (PAD, UNK, *words)
    if len(set(full)) != len(full):
        raise DataError("vocabulary contains duplicates or reserved entries")
    rng = np.random.default_rng(seed)
    return EncoderParams(
        vocab=full,
        embed_dim=embed_dim,
        hidden_dim=hidden_dim,
        embedding_table=rng.uniform(-0.1, 0.1, size=(len(full), embed_dim)),
        context_weights=rng.uniform(-0.1, 0.1, size=(hidden_dim, 3 * embed_dim)),
        context_bias=np.zeros(hidden_dim),
    )


def window_indices(params: EncoderParams, tokens) -> np.ndarray:
    """(T, 3) vocabulary rows (left, centre, right) for each token of one
    sentence, with padding beyond its ends. Rows of several sentences
    concatenate into one batch."""
    pad = params._index[PAD]
    padded = np.array([pad, *map(params.token_index, tokens), pad], dtype=np.intp)
    return np.stack((padded[:-2], padded[1:-1], padded[2:]), axis=1)


def _window_input(params: EncoderParams, windows: np.ndarray) -> np.ndarray:
    """(N, 3E): the concatenated left, centre and right embeddings."""
    return params.embedding_table[windows].reshape(len(windows), 3 * params.embed_dim)


def encode_windows(params: EncoderParams, windows: np.ndarray) -> np.ndarray:
    """Representations for a batch of windows; row i is the H-vector of
    the token whose window is windows[i]."""
    pre = _window_input(params, windows) @ params.context_weights.T + params.context_bias
    return np.tanh(pre)


def encode_windows_backward(
    params: EncoderParams, windows: np.ndarray, reprs: np.ndarray, upstream: np.ndarray
) -> EncoderGrads:
    """Exact gradients of sum_i upstream[i] . reprs[i] w.r.t. all parameters,
    where reprs = encode_windows(params, windows).

    The padding embedding accumulates gradient like any other row.
    """
    d_pre = upstream * (1.0 - reprs**2)
    d_weights = d_pre.T @ _window_input(params, windows)
    d_bias = d_pre.sum(axis=0)
    d_x = d_pre @ params.context_weights  # (N, 3E)
    d_emb = np.zeros_like(params.embedding_table)
    np.add.at(d_emb, windows.ravel(), d_x.reshape(-1, params.embed_dim))
    return EncoderGrads(d_emb, d_weights, d_bias)


def encode(params: EncoderParams, sentence: TokenSequence) -> np.ndarray:
    """Representations for every token; row i is the H-vector of token i."""
    return encode_windows(params, window_indices(params, sentence.tokens))


def encode_backward(
    params: EncoderParams, sentence: TokenSequence, upstream: np.ndarray
) -> EncoderGrads:
    """Exact gradients of sum_i upstream[i] . repr[i] w.r.t. all parameters."""
    upstream = np.asarray(upstream, dtype=float)
    t = len(sentence)
    if upstream.shape != (t, params.hidden_dim):
        raise ValueError(
            f"upstream shape {upstream.shape} != ({t}, {params.hidden_dim})"
        )
    windows = window_indices(params, sentence.tokens)
    return encode_windows_backward(
        params, windows, encode_windows(params, windows), upstream
    )
