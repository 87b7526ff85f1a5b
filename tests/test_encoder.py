import math
import random

import numpy as np
import pytest

from fewner.corpus import TokenSequence
from fewner.encoder import (
    PAD,
    UNK,
    EncoderParams,
    encode,
    encode_backward,
    encode_windows,
    encode_windows_backward,
    init_encoder,
    window_indices,
)
from fewner.errors import DataError

from oracles import assert_grad_close, finite_difference


def _sentence(tokens):
    return TokenSequence(tuple(tokens), tuple("O" for _ in tokens))


def _random_encoder(rng, vocab_size=6, embed_dim=3, hidden_dim=4):
    params = init_encoder(
        [f"w{i}" for i in range(vocab_size)], embed_dim, hidden_dim, seed=rng.randint(0, 10**6)
    )
    # bias is zero at init; randomize it so gradient checks exercise it
    params.context_bias[:] = np.random.default_rng(rng.randint(0, 10**6)).normal(
        size=hidden_dim
    )
    return params


def _random_sentence(rng, params, max_len=6):
    words = list(params.vocab[2:]) + ["oov-word"]
    return _sentence([rng.choice(words) for _ in range(rng.randint(1, max_len))])


class TestInitEncoder:
    def test_deterministic(self):
        a = init_encoder(["a", "b"], 4, 5, seed=9)
        b = init_encoder(["a", "b"], 4, 5, seed=9)
        assert np.array_equal(a.embedding_table, b.embedding_table)
        assert np.array_equal(a.context_weights, b.context_weights)

    def test_seed_changes_parameters(self):
        a = init_encoder(["a", "b"], 4, 5, seed=9)
        b = init_encoder(["a", "b"], 4, 5, seed=10)
        assert not np.array_equal(a.embedding_table, b.embedding_table)

    def test_reserved_rows_added(self):
        params = init_encoder([f"w{i}" for i in range(100)], 8, 16, seed=0)
        assert params.embedding_table.shape == (102, 8)
        assert params.vocab[:2] == (PAD, UNK)
        assert params.context_bias.shape == (16,)
        assert np.all(params.context_bias == 0.0)

    def test_empty_vocab_rejected(self):
        with pytest.raises(DataError):
            init_encoder([], 4, 4, seed=0)


class TestEncode:
    def test_zero_params_give_zero_reprs(self):
        params = init_encoder(["a"], 3, 2, seed=0)
        for arr in params.arrays().values():
            arr[:] = 0.0
        reprs = encode(params, _sentence(["a", "a"]))
        assert np.array_equal(reprs, np.zeros((2, 2)))

    def test_single_token_uses_padding(self):
        params = init_encoder(["a"], 2, 3, seed=1)
        reprs = encode(params, _sentence(["a"]))
        emb = params.embedding_table
        window = np.concatenate([emb[0], emb[params.token_index("a")], emb[0]])
        expected = np.tanh(params.context_weights @ window + params.context_bias)
        assert np.allclose(reprs[0], expected)

    def test_matches_direct_reevaluation(self):
        rng = random.Random(3)
        for _ in range(50):
            params = _random_encoder(rng)
            sent = _random_sentence(rng, params)
            reprs = encode(params, sent)
            emb = params.embedding_table
            pad = 0
            idx = [params.token_index(t) for t in sent.tokens]
            for i in range(len(sent)):
                left = emb[pad] if i == 0 else emb[idx[i - 1]]
                right = emb[pad] if i == len(sent) - 1 else emb[idx[i + 1]]
                window = np.concatenate([left, emb[idx[i]], right])
                expected = np.tanh(params.context_weights @ window + params.context_bias)
                assert np.allclose(reprs[i], expected, atol=1e-12)

    def test_oov_maps_to_unk(self):
        params = init_encoder(["a"], 2, 2, seed=4)
        assert params.token_index("never-seen") == params.token_index(UNK) == 1

    def test_pure_function(self):
        params = init_encoder(["a", "b"], 3, 3, seed=5)
        sent = _sentence(["a", "b", "a"])
        assert np.array_equal(encode(params, sent), encode(params, sent))

    def test_output_in_tanh_range(self):
        rng = random.Random(6)
        params = _random_encoder(rng)
        reprs = encode(params, _random_sentence(rng, params))
        assert np.all(np.abs(reprs) <= 1.0)

    def test_order_sensitivity(self):
        params = init_encoder(["a", "b", "c"], 4, 4, seed=7)
        fwd = encode(params, _sentence(["a", "b", "c"]))
        rev = encode(params, _sentence(["c", "b", "a"]))
        assert not np.allclose(fwd, rev)


class TestBatchedWindows:
    def test_window_rows(self):
        params = init_encoder(["a", "b"], 2, 2, seed=8)
        a, b, unk = (params.token_index(t) for t in ("a", "b", "zz"))
        windows = window_indices(params, ["a", "b", "zz"])
        assert windows.tolist() == [[0, a, b], [a, b, unk], [b, unk, 0]]
        assert window_indices(params, []).shape == (0, 3)

    def test_batch_equals_per_sentence(self):
        rng = random.Random(9)
        np_rng = np.random.default_rng(10)
        for _ in range(30):
            params = _random_encoder(rng)
            sents = [_random_sentence(rng, params) for _ in range(rng.randint(2, 5))]
            windows = np.concatenate([window_indices(params, s.tokens) for s in sents])
            reprs = encode_windows(params, windows)
            assert np.allclose(
                reprs, np.vstack([encode(params, s) for s in sents]), rtol=0.0, atol=1e-15
            )
            upstream = np_rng.normal(size=reprs.shape)
            batched = encode_windows_backward(params, windows, reprs, upstream)
            bounds = np.cumsum([0] + [len(s) for s in sents])
            for name, arr in batched.arrays().items():
                summed = sum(
                    encode_backward(params, s, upstream[lo:hi]).arrays()[name]
                    for s, lo, hi in zip(sents, bounds[:-1], bounds[1:])
                )
                assert np.allclose(arr, summed, rtol=1e-12, atol=1e-15)


class TestEncodeBackward:
    def test_zero_upstream_zero_grads(self):
        rng = random.Random(11)
        params = _random_encoder(rng)
        sent = _random_sentence(rng, params)
        grads = encode_backward(params, sent, np.zeros((len(sent), params.hidden_dim)))
        for arr in grads.arrays().values():
            assert np.all(arr == 0.0)

    def test_absent_word_gets_zero_embedding_grad(self):
        params = init_encoder(["a", "b"], 3, 3, seed=12)
        sent = _sentence(["a", "a"])
        grads = encode_backward(params, sent, np.ones((2, 3)))
        b_row = params.token_index("b")
        assert np.all(grads.embedding_table[b_row] == 0.0)
        assert np.any(grads.embedding_table[params.token_index("a")] != 0.0)

    def test_pad_row_accumulates(self):
        params = init_encoder(["a"], 2, 2, seed=13)
        grads = encode_backward(params, _sentence(["a"]), np.ones((1, 2)))
        assert np.any(grads.embedding_table[0] != 0.0)

    def test_shape_mismatch_rejected(self):
        params = init_encoder(["a"], 2, 2, seed=14)
        with pytest.raises(ValueError):
            encode_backward(params, _sentence(["a", "a"]), np.zeros((1, 2)))

    def test_matches_finite_differences(self):
        rng = random.Random(15)
        np_rng = np.random.default_rng(16)
        for _ in range(100):
            params = _random_encoder(rng, vocab_size=rng.randint(2, 5))
            sent = _random_sentence(rng, params, max_len=4)
            upstream = np_rng.normal(size=(len(sent), params.hidden_dim))

            analytic = encode_backward(params, sent, upstream)

            def objective():
                return float(np.sum(upstream * encode(params, sent)))

            numeric = finite_difference(objective, params.arrays())
            for name, arr in analytic.arrays().items():
                assert_grad_close(arr, numeric[name])
