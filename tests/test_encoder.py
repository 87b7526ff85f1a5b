import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fewner.corpus import TokenSequence, word_ids
from fewner import encoder
from fewner.encoder import (
    PAD,
    UNK,
    EncoderParams,
    encode,
    encode_backward,
    encode_blocks,
    encode_windows,
    encode_windows_backward,
    init_encoder,
    scatter_rows,
    window_indices,
    word_windows,
)
from fewner.errors import DataError, NumericError

from oracles import (
    assert_grad_close,
    finite_difference,
    reference_encode_windows_backward,
    reference_gate_sum,
    reference_slack,
    reference_windows,
    scale_to_slack,
)


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


def _param_arrays():
    """Valid arrays for a 4-word vocabulary, E = 3 and H = 2."""
    return {
        "embedding_table": np.arange(12.0).reshape(4, 3),
        "context_weights": np.arange(18.0).reshape(2, 9),
        "context_bias": np.array([0.5, -0.5]),
    }


class TestEncoderParams:
    VOCAB = (PAD, UNK, "a", "b")

    @pytest.mark.parametrize(
        "name, shape, message",
        [
            ("embedding_table", (5, 3), "embedding table (5, 3) != (4, 3)"),
            ("embedding_table", (4,), "embedding table (4,) != (4, 3)"),
            ("context_weights", (2, 6), "context weights (2, 6) != (2, 9)"),
            ("context_weights", (9, 2), "context weights (9, 2) != (2, 9)"),
            ("context_bias", (3,), "context bias (3,) != (2,)"),
            ("context_bias", (2, 1), "context bias (2, 1) != (2,)"),
        ],
    )
    def test_wrong_shape_names_the_array(self, name, shape, message):
        arrays = {**_param_arrays(), name: np.zeros(shape)}
        with pytest.raises(ValueError) as raised:
            EncoderParams(self.VOCAB, 3, 2, **arrays)
        assert str(raised.value) == message

    @pytest.mark.parametrize("name", ["embedding_table", "context_weights", "context_bias"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_array(self, name, value):
        arrays = _param_arrays()
        arrays[name].flat[-1] = value
        with pytest.raises(ValueError) as raised:
            EncoderParams(self.VOCAB, 3, 2, **arrays)
        assert str(raised.value) == "non-finite encoder parameter"

    def test_shapes_are_checked_before_finiteness(self):
        arrays = {**_param_arrays(), "context_bias": np.zeros(3)}
        arrays["embedding_table"][0, 0] = np.nan
        with pytest.raises(ValueError) as raised:
            EncoderParams(self.VOCAB, 3, 2, **arrays)
        assert str(raised.value) == "context bias (3,) != (2,)"

    def test_copy_shares_no_memory(self):
        params = EncoderParams(self.VOCAB, 3, 2, **_param_arrays())
        copy = params.copy()
        assert (copy.vocab, copy.embed_dim, copy.hidden_dim) == (self.VOCAB, 3, 2)
        assert list(copy.arrays()) == ["embedding_table", "context_weights", "context_bias"]
        for name, arr in params.arrays().items():
            assert np.array_equal(copy.arrays()[name], arr), name
            assert not np.shares_memory(copy.arrays()[name], arr), name
        sentence = _sentence(["b", "oov-word", "a"])
        assert np.array_equal(encode(copy, sentence), encode(params, sentence))


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
        window = np.concatenate([emb[0], emb[params.vocab.index("a")], emb[0]])
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
            idx = [params.vocab.index(t if t in params.vocab else UNK) for t in sent.tokens]
            for i in range(len(sent)):
                left = emb[pad] if i == 0 else emb[idx[i - 1]]
                right = emb[pad] if i == len(sent) - 1 else emb[idx[i + 1]]
                window = np.concatenate([left, emb[idx[i]], right])
                expected = np.tanh(params.context_weights @ window + params.context_bias)
                assert np.allclose(reprs[i], expected, atol=1e-12)

    def test_oov_maps_to_unk(self):
        params = init_encoder(["a"], 2, 2, seed=4)
        unk = params.vocab.index(UNK)
        assert unk == 1
        assert window_indices(params, ["never-seen"]).tolist() == [[0, unk, 0]]

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
        a, b, unk = (params.vocab.index(t) for t in ("a", "b", UNK))
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


class TestBlocks:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.lists(st.sampled_from(["w0", "w1", "w5", "oov", "<oov>", UNK]), max_size=5),
            max_size=6,
        )
    )
    def test_batch_windows_concatenate_per_sequence_windows(self, seqs):
        # out-of-vocabulary words (and the literal "<UNK>") take the <UNK>
        # row; one-token and empty sequences are padded on both sides
        params = _random_encoder(random.Random(30))
        expected = np.concatenate(
            [np.empty((0, 3), dtype=np.intp), *(reference_windows(params, s) for s in seqs)]
        )
        got = word_windows(params, word_ids(seqs))
        assert got.dtype == np.intp and np.array_equal(got, expected)
        for s in seqs:
            assert np.array_equal(window_indices(params, s), reference_windows(params, s))

    @pytest.mark.parametrize("block_rows", [1, 7, 1024])
    def test_blocks_are_greedy_runs_of_whole_sequences(self, monkeypatch, block_rows):
        monkeypatch.setattr(encoder, "BLOCK_ROWS", block_rows)
        rng = random.Random(31)
        params = _random_encoder(rng, vocab_size=20, embed_dim=8, hidden_dim=16)
        words = [*params.vocab[2:], "oov-word"]
        lengths = [rng.randint(1, 40) for _ in range(150)]
        lengths[70] = 1500  # longer than any block
        seqs = [[rng.choice(words) for _ in range(n)] for n in lengths]
        seen = []  # the rows of each block the head is called on

        def head(reprs):
            seen.append(reprs.copy())
            return reprs[:, ::-1]

        got = encode_blocks(params, word_ids(seqs), head)
        # split the sequence lengths into the runs whose rows the blocks hold
        blocks, rest = [], list(lengths)
        for reprs in seen:
            block = []
            while sum(block) < len(reprs):
                block.append(rest.pop(0))
            assert sum(block) == len(reprs)
            blocks.append(block)
        assert rest == []
        for i, block in enumerate(blocks):
            assert sum(block) <= block_rows or len(block) == 1
            if i + 1 < len(blocks):  # the next sequence did not fit
                assert sum(block) + blocks[i + 1][0] > block_rows
        # one-sequence blocks repeat the per-sentence arithmetic exactly;
        # otherwise BLAS may pick another kernel for the larger product
        tol = 0.0 if block_rows == 1 else 1e-14
        expected = np.vstack([encode(params, _sentence(s)) for s in seqs])
        assert np.allclose(np.vstack(seen), expected, rtol=0.0, atol=tol)
        # the head's rows come back in token order
        assert np.array_equal(got, np.vstack(seen)[:, ::-1])

    def test_no_sequences_one_empty_block(self):
        params = _random_encoder(random.Random(32))
        calls = []

        def head(reprs):
            calls.append(reprs.shape)
            return np.zeros((len(reprs), 5), dtype=np.intp)

        got = encode_blocks(params, word_ids([]), head)
        assert calls == [(0, params.hidden_dim)]
        assert got.shape == (0, 5) and got.dtype == np.intp

    def test_overflowing_pre_activation_raises(self):
        # every parameter is finite but their products overflow; tanh would
        # map the infinite pre-activations to +-1 and hide them
        params = _random_encoder(random.Random(33))
        params.embedding_table[:] = 1e200
        params.context_weights[:] = 1e200
        heads = []
        with np.errstate(over="ignore"), pytest.raises(NumericError, match="^non-finite encoder"):
            encode_blocks(params, word_ids([["w0", "w1"], ["w2"]]), heads.append)
        assert heads == []


def _column(rng, params, n_sentences=40):
    """A word-id column of random sentences over params' vocabulary and one
    out-of-vocabulary word, and its used rows and local windows."""
    words = [*params.vocab[2:], "oov-word"]
    seqs = [[rng.choice(words) for _ in range(rng.randint(1, 30))] for _ in range(n_sentences)]
    column = word_ids(seqs)
    return column, *encoder._column_windows(params, column)


class TestProjectionTables:
    def test_used_rows_index_the_word_windows(self):
        params = _random_encoder(random.Random(34), vocab_size=20)
        column, used, windows = _column(random.Random(35), params)
        # <PAD> first, then one row per distinct word of the column
        assert used[0] == params._index[PAD] and len(used) == len(column.words) + 1
        assert np.array_equal(used[windows], word_windows(params, column))

    @pytest.mark.parametrize(
        "scale", [1e-40, 1e-30, 1e-3, 1.0, 1e3, 1e20, 1e100, 0.9e300, "under_two", "over_two"]
    )
    def test_within_the_slack_of_encode_windows(self, scale):
        """projection_tables gives tables iff reference_slack is under 2.
        With them, every block's float32 representations are within the
        slack of encode_windows', entry by entry; without them,
        projected_blocks asks no certificate and is encode_blocks. scale
        multiplies the weights, and below 1e-20 the bias too, so at 1e-40
        every table value is a float32 subnormal. From 1e20 on the float32
        rounding alone makes the slack exceed 2 (1e100 would pass float32's
        range); 0.9e300 puts S just under 1e300. The last two put the slack
        a millionth under and over 2."""
        rng = random.Random(36)
        params = _random_encoder(rng, vocab_size=20, embed_dim=8, hidden_dim=16)
        column, used, _ = _column(rng, params)
        if isinstance(scale, str):
            scale_to_slack(params, used, 2 + (2e-6 if scale == "over_two" else -2e-6))
        else:
            factor = scale / reference_gate_sum(params, used) if scale > 1e200 else scale
            params.context_weights *= factor
            if scale < 1e-20:
                params.context_bias *= factor
        want = reference_slack(params, used)
        certified = encoder.projection_tables(params, used)
        assert (certified is not None) == (want < 2)
        assert (want < 2) == (scale == "under_two" or isinstance(scale, float) and scale < 1e20)
        whole, blocks, gaps = word_windows(params, column), list(encoder._blocks(column.offsets)), []
        if certified is None:
            certify = lambda reprs, head_slack: gaps.append(head_slack)
            got = encoder.projected_blocks(params, column, certify, lambda r: r)
            assert gaps == [] and np.array_equal(got, encode_blocks(params, column, lambda r: r))
            return
        tables, slack = certified
        assert tables.shape == (3, len(used), params.hidden_dim) and tables.dtype == np.float32
        top = np.abs(tables).max()
        assert top < np.finfo(np.float32).tiny if scale == 1e-40 else top > 1e-35
        assert top < 2.0**24 and slack == pytest.approx(want, rel=1e-12)

        def certify(reprs, head_slack):
            a, b = blocks[len(gaps)]
            assert reprs.dtype == np.float64 and head_slack == slack
            gaps.append(np.abs(reprs - encode_windows(params, whole[a:b])).max())
            return np.zeros(len(reprs), dtype=int)

        encoder.projected_blocks(params, column, certify, None)
        assert len(gaps) == len(blocks) >= 2 and max(gaps) <= slack

    def test_gate(self):
        """The tables come iff reference_slack is under 2: NaN in a row the
        column reads, weights near overflow and a slack just past 2 all
        fail that one comparison."""
        rng = random.Random(37)
        params = _random_encoder(rng, vocab_size=30, embed_dim=4, hidden_dim=6)
        column, used, _ = _column(rng, params, n_sentences=3)
        unused = sorted(set(range(len(params.vocab))) - set(used.tolist()))
        assert unused

        def gate() -> float:
            slack = reference_slack(params, used)
            assert (encoder.projection_tables(params, used) is not None) == (slack < 2)
            return slack

        params.embedding_table[unused[0]] = np.nan  # a row no window reads
        assert gate() < 2
        params.embedding_table[used[1]] = np.nan
        assert np.isnan(gate())
        params.embedding_table[used[1]] = 0.5
        for target in (2 * (1 - 1e-6), 2 * (1 + 1e-6)):
            scale_to_slack(params, used, target)
            assert gate() == pytest.approx(target, rel=1e-12)
        params.context_weights *= 0.5e300 / reference_gate_sum(params, used)
        assert gate() > 2  # S is 0.5e300: finite, far past the slack
        params.context_weights *= 4.0  # S is now 2e300
        assert gate() > 2
        params.context_weights *= np.inf
        with np.errstate(invalid="ignore"):
            assert not gate() < 2

    def test_projected_blocks_hand_the_head_its_certificate(self):
        rng = random.Random(38)
        params = _random_encoder(rng, vocab_size=20, embed_dim=8, hidden_dim=16)
        column, used, windows = _column(rng, params, n_sentences=60)
        _, slack = encoder.projection_tables(params, used)
        blocks = list(encoder._blocks(column.offsets))
        assert len(blocks) >= 2
        declined = {1}  # the second block is declined, the first certified
        seen, scored = [], []

        def certify(reprs, head_slack):
            seen.append((reprs.copy(), head_slack))
            return None if len(seen) - 1 in declined else np.arange(len(reprs))

        def exact(reprs):
            scored.append(reprs.copy())
            return -np.arange(len(reprs))

        got = encoder.projected_blocks(params, column, certify, exact)
        want = [(-1 if k in declined else 1) * np.arange(b - a) for k, (a, b) in enumerate(blocks)]
        assert np.array_equal(got, np.concatenate(want))
        whole = word_windows(params, column)
        assert len(seen) == len(blocks) and len(scored) == len(declined)
        for (reprs, head_slack), (a, b) in zip(seen, blocks):
            # the reprs are within the slack of the block's encode_windows
            assert head_slack == slack
            assert np.abs(reprs - encode_windows(params, whole[a:b])).max() <= slack
        # a declined block is re-encoded by encode_windows and scored whole
        (a, b), = (blocks[k] for k in declined)
        assert np.array_equal(scored[0], encode_windows(params, whole[a:b]))

    def test_projected_blocks_without_tables_are_encode_blocks(self):
        params = _random_encoder(random.Random(39))
        column = word_ids([["w0", "w1"], ["w2"]])
        params.context_bias[:] = 0.0  # S scales with the weights
        used, _ = encoder._column_windows(params, column)
        params.context_weights *= 2e300 / reference_gate_sum(params, used)
        # exact gets encode_blocks' reprs, and no certificate is asked for
        certified = []

        def certify(reprs, slack):
            certified.append(slack)

        got = encoder.projected_blocks(params, column, certify, lambda r: r)
        assert np.array_equal(got, encode_blocks(params, column, lambda r: r))
        params.embedding_table[params._index["w1"]] = np.nan
        with pytest.raises(NumericError, match="^non-finite encoder pre-activation$"):
            encoder.projected_blocks(params, column, certify, lambda r: r)
        assert certified == []


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
        b_row = params.vocab.index("b")
        assert np.all(grads.embedding_table[b_row] == 0.0)
        assert np.any(grads.embedding_table[params.vocab.index("a")] != 0.0)

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

    def test_batch_matches_add_at_reference_bitwise(self):
        np_rng = np.random.default_rng(17)
        for _ in range(20):
            params = init_encoder([f"w{i}" for i in range(6)], 4, 5, seed=int(np_rng.integers(99)))
            # few rows, many tokens: every row is hit many times
            windows = np_rng.integers(0, len(params.vocab), size=(40, 3))
            reprs = encode_windows(params, windows)
            upstream = np_rng.normal(size=reprs.shape) * 10.0 ** np_rng.integers(-8, 8)
            grads = encode_windows_backward(params, windows, reprs, upstream)
            ref = reference_encode_windows_backward(params, windows, reprs, upstream)
            for name, arr in grads.arrays().items():
                assert _bits(arr) == _bits(ref.arrays()[name]), name

    def test_out_and_window_input_give_the_same_bits(self):
        np_rng = np.random.default_rng(18)
        params = init_encoder([f"w{i}" for i in range(6)], 4, 5, seed=3)
        windows = np_rng.integers(0, len(params.vocab), size=(12, 3))
        reprs = encode_windows(params, windows)
        upstream = np_rng.normal(size=reprs.shape)
        plain = encode_windows_backward(params, windows, reprs, upstream)
        # stale values in out must be overwritten, not added to
        out = encoder.EncoderGrads(*(np.full_like(a, 7.0) for a in params.arrays().values()))
        x = encoder._window_input(params, windows)
        given = encode_windows_backward(params, windows, reprs, upstream, out, x)
        assert given is out
        for name, arr in out.arrays().items():
            assert _bits(arr) == _bits(plain.arrays()[name]), name


def _bits(arr: np.ndarray) -> bytes:
    """The array's raw float bytes: -0.0 differs from 0.0, NaN payloads count."""
    return np.ascontiguousarray(arr, dtype=np.float64).tobytes()


def _scatter_value(code: int) -> float:
    """Codes 0 and 1 are +0.0 and -0.0; the rest give a sign, a mantissa of
    1 to 9 and a power of ten from 1e-300 to 1e300."""
    if code < 2:
        return (0.0, -0.0)[code]
    sign, rest = divmod(code - 2, 9 * 601)
    power, mantissa = divmod(rest, 9)
    return (-1.0) ** sign * (mantissa + 1) * 10.0 ** (power - 300)


class TestScatterRows:
    # few target rows and up to 60 values each: rows repeat, and the sums
    # round, cancel and overflow to inf and nan
    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 5), st.data())
    def test_equals_add_at_bitwise(self, width, n_rows, data):
        n = data.draw(st.integers(0, 60))
        rows = data.draw(st.lists(st.integers(0, n_rows - 1), min_size=n, max_size=n))
        codes = data.draw(
            st.lists(st.integers(0, 2 * 9 * 601 + 1), min_size=n * width, max_size=n * width)
        )
        rows = np.array(rows, dtype=np.intp)
        values = np.array([_scatter_value(c) for c in codes]).reshape(n, width)
        want = np.zeros((n_rows, width))
        np.add.at(want, rows, values)
        got = scatter_rows(rows, values, n_rows)
        assert got.shape == want.shape
        assert np.array_equal(got, want, equal_nan=True)
        assert _bits(got) == _bits(want)

    def test_signed_zeros_sum_from_positive_zero(self):
        rows = np.array([0, 0, 1], dtype=np.intp)
        got = scatter_rows(rows, np.array([[-0.0], [-0.0], [-0.0]]), 3)
        assert _bits(got) == _bits(np.zeros((3, 1)))

    def test_order_of_addition_is_index_order(self):
        # (1e16 + 1) + 1 rounds twice, 1e16 + (1 + 1) once: only index order gives 1e16
        rows = np.zeros(3, dtype=np.intp)
        got = scatter_rows(rows, np.array([[1e16], [1.0], [1.0]]), 1)
        assert got[0, 0] == (1e16 + 1.0) + 1.0 == 1e16
