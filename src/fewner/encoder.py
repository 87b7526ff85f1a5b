"""Token representation network: embedding lookup, 3-token window
contextualization and a tanh projection, with exact analytic gradients.

The representation of token i is

    tanh(Wc @ concat(e[i-1], e[i], e[i+1]) + bc)

where e[k] is the embedding of token k, a padding embedding beyond the
sentence ends and an unknown-word embedding for out-of-vocabulary words.
Both reserved rows are trainable like any other.

Words reach the encoder as a corpus's word-id column (corpus.WordIds):
word_windows looks each distinct word up in the vocabulary once, gathers
the rows for every token and pads at the sentence boundaries, giving one
window column. The per-sentence encode and encode_backward are the batch
core (word_windows, encode_windows, encode_windows_backward) applied to
one sentence; training gathers each mini-batch from one window column per
run. Inference (prediction, soft labels, support prototypes) is one
encode_blocks pass over a word-id column's windows: row ranges of whole
sentences, each encoded and handed to a head whose per-token results come
back as one array in token order. Argmax prediction runs the same blocks
through projected_blocks, which encodes them from per-word projection
tables and re-encodes exactly only the blocks its head cannot certify.

encode is a pure function: concurrent readers may share one EncoderParams.
Training mutates the arrays in place and must be serialized externally.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .corpus import TokenSequence, WordIds, word_ids
from .errors import DataError, NumericError

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


# Most token rows encoded at once by encode_blocks: enough to amortize the
# per-call overhead, few enough that the (rows x 3E) window input and the
# heads' (rows x labels) scores add little to peak memory.
BLOCK_ROWS = 512


def _column_windows(params: EncoderParams, words: WordIds) -> tuple[np.ndarray, np.ndarray]:
    """The vocabulary rows a word-id column uses, <PAD>'s first and then
    each distinct word's (out-of-vocabulary words giving <UNK>'s), and the
    (tokens, 3) windows (left, centre, right) as indices into them, with
    padding beyond each sequence's ends. Each distinct word is looked up
    once."""
    index, unk = params._index, params._index[UNK]
    used = np.array([index[PAD], *(index.get(w, unk) for w in words.words)], dtype=np.intp)
    lengths = np.diff(words.offsets)
    # each token's place in one column with a padding slot before, between
    # and after the sequences
    at = np.arange(len(words.ids)) + np.repeat(np.arange(1, len(lengths) + 1), lengths)
    padded = np.zeros(len(words.ids) + len(lengths) + 1, dtype=np.intp)
    padded[at] = words.ids + 1
    return used, np.stack((padded[at - 1], padded[at], padded[at + 1]), axis=1)


def word_windows(params: EncoderParams, words: WordIds) -> np.ndarray:
    """(tokens, 3) vocabulary rows (left, centre, right) for every token of
    the word-id column, with padding beyond each sequence's ends. Each
    distinct word is looked up once; words outside the vocabulary get the
    unknown-word row."""
    used, windows = _column_windows(params, words)
    return used[windows]


def window_indices(params: EncoderParams, tokens) -> np.ndarray:
    """(T, 3) vocabulary rows (left, centre, right) for each token of one
    sentence, with padding beyond its ends. Rows of several sentences
    concatenate into one batch."""
    return word_windows(params, word_ids([tokens]))


def _window_input(params: EncoderParams, windows: np.ndarray) -> np.ndarray:
    """(N, 3E): the concatenated left, centre and right embeddings."""
    rows = np.take(params.embedding_table, windows, axis=0)
    return rows.reshape(len(windows), 3 * params.embed_dim)


def _encode_checked(params: EncoderParams, windows: np.ndarray):
    """The window input, representations and, if a pre-activation is not
    finite (tanh would map it to +-1), the NumericError to raise, else None."""
    x = _window_input(params, windows)
    pre = x @ params.context_weights.T
    pre += params.context_bias
    error = None if np.isfinite(pre).all() else NumericError("non-finite encoder pre-activation")
    return x, np.tanh(pre, out=pre), error


def encode_windows(params: EncoderParams, windows: np.ndarray) -> np.ndarray:
    """Representations for a batch of windows; row i is the H-vector of
    the token whose window is windows[i]. A non-finite pre-activation
    raises NumericError."""
    _, reprs, error = _encode_checked(params, windows)
    if error is not None:
        raise error
    return reprs


def encode_windows_backward(
    params: EncoderParams, windows: np.ndarray, reprs: np.ndarray, upstream: np.ndarray,
    out: EncoderGrads | None = None, window_input: np.ndarray | None = None,
) -> EncoderGrads:
    """Exact gradients of sum_i upstream[i] . reprs[i] w.r.t. all parameters,
    where reprs = encode_windows(params, windows), written into out if given.
    window_input may pass in the windows' _window_input if already gathered.

    The padding embedding accumulates gradient like any other row.
    """
    if out is None:
        out = EncoderGrads(*(np.empty_like(a) for a in params.arrays().values()))
    x = _window_input(params, windows) if window_input is None else window_input
    d_pre = upstream * (1.0 - reprs**2)
    np.matmul(d_pre.T, x, out=out.context_weights)
    np.add.reduce(d_pre, axis=0, out=out.context_bias)
    d_x = (d_pre @ params.context_weights).reshape(-1, params.embed_dim)  # (3N, E)
    out.embedding_table[...] = scatter_rows(windows.ravel(), d_x, len(params.vocab))
    return out


def scatter_rows(rows: np.ndarray, values: np.ndarray, n_rows: int) -> np.ndarray:
    """(n_rows, D) sums of the (N, D) values by target row, rows[i] being
    values[i]'s. Each sum is added in index order from +0.0, as np.add.at
    adds, so the two agree bit for bit; one bincount over the flat slots
    replaces add.at's per-row loop."""
    d = values.shape[1]
    slots = (rows[:, None] * d + np.arange(d)).ravel()
    sums = np.bincount(slots, weights=values.ravel(), minlength=n_rows * d)
    return sums.reshape(n_rows, d)


def _blocks(offsets: np.ndarray):
    """Row ranges (start, stop) of consecutive runs of whole sentences with
    at most BLOCK_ROWS rows each, for sentences starting at offsets[:-1];
    a longer sentence is a run of its own. No sentences make one empty run."""
    n, i = len(offsets) - 1, 0
    while True:
        # the most sentences from i on whose rows fit, and at least one
        fit = int(np.searchsorted(offsets, offsets[i] + BLOCK_ROWS, side="right")) - 1
        j = max(fit, min(i + 1, n))
        yield int(offsets[i]), int(offsets[j])
        if j == n:
            return
        i = j


def encode_blocks(params: EncoderParams, words: WordIds, head) -> np.ndarray:
    """head's rows for every token of a word-id column, in token order.

    The column's windows (word_windows) are encoded in row ranges of whole
    sentences of at most BLOCK_ROWS rows; head maps each range's (rows, H)
    representations to one result row per token, and the ranges' results
    are concatenated. With no sentences head gets one (0, H) block, so the
    result is empty with the shape head gives it. A non-finite
    pre-activation raises NumericError.
    """
    windows = word_windows(params, words)
    return np.concatenate(
        [head(encode_windows(params, windows[a:b])) for a, b in _blocks(words.offsets)]
    )


# numpy's float64 and float32 tanh are assumed to be within these absolute
# errors of the real tanh. libm and SIMD implementations are within a few
# ulps of 1 (about 1e-15 and 6e-8), so the bounds are generous, as the
# prediction heads' certificates are for exp and log.
TANH_ERROR = 2.0**-40
TANH32_ERROR = 2.0**-20


def projection_tables(params: EncoderParams, used: np.ndarray):
    """Per-word float32 projection tables of the embedding rows `used` and
    their slack, or None where they are not certified.

    The tables are a (3, U, H) array: P_L = E_used @ W_L.T,
    P_C = E_used @ W_C.T + b and P_R = E_used @ W_R.T, W_L, W_C and W_R
    being context_weights' left, centre and right E columns. So U x 3H
    floats, U = len(used), at most the column's distinct words and <PAD>,
    never the whole vocabulary. The representation of a window (l, c, r)
    of indices into used is tanh(P_L[l] + P_C[c] + P_R[r]).

    With S = max|E_used| max_j ||W_j||_1 + max|b| (W_j the j-th row of
    context_weights), every pre-activation and its every partial sum is at
    most S in magnitude, up to rounding. The float64 tables' sums and
    encode_windows' pre-activations are each within g S of the real ones,
    g = (3E + 2)u / (1 - (3E + 2)u), u = 2^-53 (Higham, Accuracy and
    Stability of Numerical Algorithms, 3.1). Rounded to float32 (unit
    v = 2^-24), each entry moves by at most v times it or 2^-150
    (subnormal); each float32 add moves the sum by at most v times it (a
    subnormal sum is exact; Higham 2.2). So the float32 pre-activation is
    within 3v(1 + 2^-22) t + 2^-148 of the float64 tables' real sum,
    t = sum_X max|P_X|. tanh is 1-Lipschitz and numpy's float64 and float32
    loops are taken to be within TANH_ERROR and TANH32_ERROR of it, so every
    representation entry differs from encode_windows' by at most the slack
    2 g S + 3v(1 + 2^-22) t + 2^-148 + TANH_ERROR + TANH32_ERROR. The
    tables are returned only when the slack is under 2, the widest gap
    between two representations: a larger slack bounds nothing. That is the
    whole gate: a value that is not finite (NaN in a used row, weights that
    overflow) makes the slack NaN or inf; slack < 2 gives S < 1/g, so
    neither path makes a pre-activation that is not finite, and 3v t < 2,
    so every |P_X| < 2^24 and no float32 value or sum overflows.
    """
    e, h = params.embed_dim, params.hidden_dim
    emb = np.take(params.embedding_table, used, axis=0)
    # (3, E, H): W_L.T, W_C.T and W_R.T
    tables = emb @ params.context_weights.reshape(h, 3, e).transpose(1, 2, 0)
    tables[1] += params.context_bias
    n = 3 * e + 2
    with np.errstate(all="ignore"):  # what is not finite makes the slack NaN or inf
        s = np.abs(emb).max(initial=0.0) * np.abs(params.context_weights).sum(axis=1).max()
        s += np.abs(params.context_bias).max()
        # sum_X max|P_X| (no |tables| temporary)
        t = np.maximum(tables.max(axis=(1, 2)), -tables.min(axis=(1, 2))).sum()
        slack = (2 * n / (2.0**53 - n) * s + 3 * 2.0**-24 * (1 + 2.0**-22) * t + 2.0**-148
                 + TANH_ERROR + TANH32_ERROR)
    return (tables.astype(np.float32), slack) if slack < 2 else None


def projected_blocks(params: EncoderParams, words: WordIds, certify, exact) -> np.ndarray:
    """encode_blocks(params, words, exact), each block's result taken from
    certify where it can vouch for it.

    The blocks are encoded from the column's projection_tables, built once:
    three row gathers, two adds and a tanh in float32 in place of the
    (rows x 3E) (3E x H) product. certify(reprs, slack) gets those
    representations widened to float64 and the bound on how far any entry
    is from encode_windows', and gives exact's result on encode_windows'
    representations or None. reprs is a view of a buffer that the next
    block overwrites, so certify must not keep it. A declined block is
    re-encoded by encode_windows and scored by exact as a whole:
    prediction's one fallback. Where projection_tables gives None, the pass
    is encode_blocks(params, words, exact) itself, no certificate asked, so
    every NumericError is raised as encode_blocks raises it.
    """
    used, windows = _column_windows(params, words)
    certified = projection_tables(params, used)
    if certified is None:
        return encode_blocks(params, words, exact)
    (left, centre, right), slack = certified
    blocks = list(_blocks(words.offsets))
    # one buffer for every block, as big as a float64 pair: malloc would map
    # fresh ones, and a smaller one lowers its mmap threshold for later training
    wide, work = np.empty((2, max(b - a for a, b in blocks), params.hidden_dim))
    work = work.view(np.float32).reshape(2, *wide.shape)

    def block(a: int, b: int) -> np.ndarray:
        rows = windows[a:b]
        pre, addend = work[:, : b - a]
        # "clip" keeps take from buffering out; every index is in range
        np.take(left, rows[:, 0], axis=0, out=pre, mode="clip")
        pre += np.take(centre, rows[:, 1], axis=0, out=addend, mode="clip")
        pre += np.take(right, rows[:, 2], axis=0, out=addend, mode="clip")
        labels = certify(np.tanh(pre, out=wide[: b - a], dtype=np.float32), slack)
        return exact(encode_windows(params, used[rows])) if labels is None else labels

    return np.concatenate([block(a, b) for a, b in blocks])


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
