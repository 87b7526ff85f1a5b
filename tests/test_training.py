import json
import math
import random
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fewner import training
from fewner.checkpoint import LINEAR, PROTOTYPE, dumps, from_document, read_text
from fewner.corpus import (
    LabelSet,
    TaggedCorpus,
    TokenSequence,
    convert_schema,
    parse_conll,
    word_ids,
)
from fewner.encoder import encode, encode_backward, init_encoder
from fewner.errors import DataError, NumericError
from fewner.evaluation import evaluate_model, support_prototypes
from fewner.heads import cross_entropy, init_linear_head, linear_backward, linear_forward
from fewner.synthetic import make_corpus, transfer_benchmark
from fewner.training import (
    OptimizerState,
    ParamArena,
    TrainConfig,
    adam_step,
    build_vocabulary,
    generate_soft_labels,
    load_config,
    lr_at,
    pretrain_transfer,
    run_scheme,
    sample_episode,
    self_train,
    train_linear,
    train_prototype,
)


from builders import word_identity_corpus as _make_corpus
from oracles import (
    reference_adam_step,
    reference_batched_train_prototype,
    reference_init_optimizer,
    reference_run_scheme,
    reference_self_train,
    reference_train_linear,
    reference_train_prototype,
)

ALL_SCHEMES = ("lc", "proto", "lc+nsp", "proto+nsp", "lc+st", "lc+nsp+st")


def _assert_models_equal(model, reference):
    """Every encoder and head array bitwise equal."""
    for name, arr in model.encoder.arrays().items():
        assert np.array_equal(arr, reference.encoder.arrays()[name]), name
    for name, arr in model.head.arrays().items():
        assert np.array_equal(arr, reference.head.arrays()[name]), name


def _tiny_config(**overrides):
    defaults = dict(
        seed=7,
        learning_rate=0.05,
        epochs=3,
        batch_size=8,
        embed_dim=6,
        hidden_dim=10,
        M=2,
        K=2,
        K_prime=2,
    )
    defaults.update(overrides)
    return TrainConfig(**defaults)


class TestSchedule:
    def _state(self, total, warmup=0.1, base=1e-4):
        return OptimizerState(base_lr=base, warmup_fraction=warmup, total_steps=total)

    def test_ramp_start(self):
        state = self._state(100)
        assert lr_at(state) == 0.0

    def test_ramp_peak_exact(self):
        state = self._state(100)
        state.step = 10
        assert lr_at(state) == 1e-4

    def test_decay_end(self):
        state = self._state(100)
        state.step = 100
        assert lr_at(state) == 0.0

    def test_closed_form_thousand_steps(self):
        base = 3e-3
        state = self._state(1000, base=base)
        expected = {0: 0.0, 100: base, 500: base * 500 / 900, 1000: 0.0}
        for step, want in expected.items():
            state.step = step
            assert lr_at(state) == want

    def test_midway_through_warmup(self):
        state = self._state(1000)
        state.step = 50
        assert lr_at(state) == pytest.approx(5e-5)

    def test_no_warmup(self):
        state = self._state(10, warmup=0.0, base=1.0)
        assert lr_at(state) == 1.0
        state.step = 5
        assert lr_at(state) == 0.5


def _adam(blocks: dict, base_lr, warmup_fraction, total_steps):
    """An arena over copies of blocks and a fresh optimizer for it."""
    return ParamArena(blocks), OptimizerState(base_lr, warmup_fraction, total_steps)


def _step(state, arena, grads: dict) -> None:
    arena.grads[:] = np.concatenate([np.ravel(g) for g in grads.values()])
    adam_step(state, arena)


class TestAdam:
    def test_zero_gradients_fixed_point(self):
        arena, state = _adam({"x": np.array([1.0, -2.0])}, 0.1, 0.0, 10)
        _step(state, arena, {"x": np.zeros(2)})
        assert np.array_equal(arena.views["x"], [1.0, -2.0])

    def test_first_step_is_signlike(self):
        arena, state = _adam({"x": np.array([0.0])}, 0.01, 0.0, 100)
        _step(state, arena, {"x": np.array([3.7])})
        assert arena.views["x"][0] == pytest.approx(-0.01, rel=1e-6)

    def test_bitwise_deterministic(self):
        def run():
            rng = np.random.default_rng(5)
            arena, state = _adam({"x": rng.normal(size=4)}, 0.05, 0.1, 50)
            for _ in range(50):
                _step(state, arena, {"x": np.sin(arena.views["x"])})
            return arena.views["x"]

        assert np.array_equal(run(), run())

    def test_nonfinite_gradient_named(self):
        arena, state = _adam({"first": np.zeros(3), "blockname": np.zeros(2)}, 0.1, 0.0, 5)
        with pytest.raises(NumericError, match="'blockname'"):
            _step(state, arena, {"first": np.ones(3), "blockname": np.array([0.0, np.nan])})
        # the check runs before the update: nothing moved, no step was counted
        assert np.array_equal(arena.params, np.zeros(5))
        assert state.step == 0

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_nonfinite_gradient_names_its_block_by_offset(self, bad):
        shapes = {"a": (2, 3), "b": (1,), "c": (4, 2)}
        arena, state = _adam({k: np.zeros(v) for k, v in shapes.items()}, 0.1, 0.0, 5)
        for name, shape in shapes.items():
            for flat in range(math.prod(shape)):
                grads = {k: np.zeros(v) for k, v in shapes.items()}
                grads[name].ravel()[flat] = bad
                with pytest.raises(NumericError, match=f"block '{name}'"):
                    _step(state, arena, grads)

    def test_in_place_update_matches_reference_bitwise(self):
        # 400 steps: from step 356 on 1 - beta1^t rounds to 1.0
        rng = np.random.default_rng(21)
        shapes = {"table": (300, 8), "weights": (5, 24), "bias": (5,)}
        params = {k: rng.normal(size=shape) for k, shape in shapes.items()}
        ref_params = {k: v.copy() for k, v in params.items()}
        arena, state = _adam(params, 0.05, 0.1, 400)
        ref_state = reference_init_optimizer(ref_params, 0.05, 0.1, 400)
        for _ in range(400):
            grads = {
                k: rng.normal(size=shape) * 10.0 ** rng.integers(-6, 4)
                for k, shape in shapes.items()
            }
            grads["table"][rng.random(300) < 0.9] = 0.0  # mostly untouched rows
            given = {k: g.copy() for k, g in grads.items()}
            _step(state, arena, grads)
            reference_adam_step(ref_state, ref_params, grads)
            for k in shapes:
                assert np.array_equal(grads[k], given[k])  # gradients left as given
        assert state.step == ref_state.step == 400
        flat = lambda blocks: np.concatenate([blocks[k].ravel() for k in shapes])
        for k in shapes:
            assert np.array_equal(arena.views[k], ref_params[k])
        assert np.array_equal(arena.params, flat(ref_params))
        assert np.array_equal(arena.first_moment, flat(ref_state.first_moment))
        assert np.array_equal(arena.second_moment, flat(ref_state.second_moment))
        # the arena copied its blocks in: the arrays it was built from are untouched
        for k in shapes:
            assert not np.array_equal(params[k], ref_params[k])

    def test_update_is_textbook_adam(self):
        # a_t m / (sqrt(v) + eps_hat) is lr m_hat / (sqrt(v_hat) + eps) in real
        # arithmetic, here to rounding over 400 steps that straddle step 356;
        # the update reads no parameter, so each step starts them at 0 and
        # leaves minus the update in them exactly
        rng = np.random.default_rng(22)
        b1, b2, eps = OptimizerState.beta1, OptimizerState.beta2, OptimizerState.eps
        arena, state = _adam({"x": np.zeros(500)}, 0.05, 0.1, 400)
        m, v = np.zeros(500), np.zeros(500)
        for t in range(1, 401):
            g = rng.normal(size=500) * 10.0 ** rng.integers(-6, 4)
            lr = lr_at(state)
            arena.params[:] = 0.0
            _step(state, arena, {"x": g})
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * g * g
            m_hat, v_hat = m / (1.0 - b1**t), v / (1.0 - b2**t)
            want = lr * m_hat / (np.sqrt(v_hat) + eps)
            np.testing.assert_allclose(-arena.params, want, rtol=1e-12, atol=0.0)
        assert state.step == 400

    def test_step_counter_advances(self):
        arena, state = _adam({"x": np.zeros(1)}, 0.1, 0.0, 5)
        _step(state, arena, {"x": np.ones(1)})
        assert state.step == 1

    def test_step_reuses_the_arena_work_rows(self):
        """A step allocates no parameter-sized temporaries: its traced peak
        is the boolean finiteness mask, an eighth of the parameters' bytes."""
        rng = np.random.default_rng(3)
        arena, state = _adam({"x": rng.normal(size=200_000)}, 0.01, 0.0, 10)
        arena.grads[:] = rng.normal(size=200_000)
        adam_step(state, arena)
        tracemalloc.start()
        try:
            adam_step(state, arena)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert state.step == 2
        assert peak < arena.params.nbytes / 4


class TestParamArena:
    def test_views_share_the_flat_buffer(self):
        arena = ParamArena({"w": np.arange(6.0).reshape(2, 3), "b": np.array([7.0, 8.0])})
        assert arena.names == ("w", "b")
        assert np.array_equal(arena.params, [0, 1, 2, 3, 4, 5, 7, 8])
        arena.params += 1.0
        assert np.array_equal(arena.views["w"], [[1, 2, 3], [4, 5, 6]])
        assert np.array_equal(arena.views["b"], [8, 9])
        assert [arena.block_at(i) for i in range(8)] == ["w"] * 6 + ["b"] * 2

    def test_grad_views_share_the_gradient_buffer(self):
        arena = ParamArena({"w": np.zeros((2, 2)), "b": np.zeros(1)})
        arena.grad_views["w"][1] = [3.0, 4.0]
        arena.grad_views["b"][...] = 5.0
        assert np.array_equal(arena.grads, [0, 0, 3, 4, 5])
        assert not np.shares_memory(arena.grads, arena.params)


class TestSampleEpisode:
    def test_budgets_and_disjointness(self):
        corpus = _make_corpus(80, seed=1, types=("A", "B", "C", "D", "E"))
        episode = sample_episode(corpus, 5, 2, 3, seed=3)
        support = [corpus.sentences[i] for i in episode.support_ids]
        query = [corpus.sentences[i] for i in episode.query_ids]
        assert len(episode.sampled_types) == 5
        assert len(support) <= 10
        assert len(query) <= 15
        assert not set(support) & set(query)
        for etype in episode.sampled_types:
            assert any(any(t.endswith(etype) for t in s.tags) for s in support)

    def test_full_type_count(self):
        corpus = _make_corpus(60, seed=2)
        episode = sample_episode(corpus, 2, 2, 2, seed=4)
        assert sorted(episode.sampled_types) == ["LOC", "ORG"]

    def test_deterministic(self):
        corpus = _make_corpus(60, seed=3)
        a = sample_episode(corpus, 2, 2, 3, seed=9)
        b = sample_episode(corpus, 2, 2, 3, seed=9)
        assert a == b

    def test_insufficient_names_type(self):
        corpus = parse_conll("EU B-ORG\n\nx O\ny B-ORG\n\n")
        with pytest.raises(DataError, match="ORG"):
            sample_episode(corpus, 1, 2, 3, seed=0)

    def test_too_many_types_requested(self):
        corpus = _make_corpus(30, seed=4)
        with pytest.raises(DataError):
            sample_episode(corpus, 5, 1, 1, seed=0)


class TestTrainLinear:
    def test_zero_epochs_is_identity(self):
        # zero epochs keep the warm-start encoder and the freshly seeded head
        corpus = _make_corpus(10, seed=5)
        config = _tiny_config(epochs=2)
        init = train_linear(corpus, config).encoder
        resumed = train_linear(corpus, config.with_(epochs=0), init=init)
        for name, arr in resumed.encoder.arrays().items():
            assert np.array_equal(arr, init.arrays()[name]), name
        head = init_linear_head(
            len(corpus.labels.tag_vocabulary), init.hidden_dim, config.seed + 1
        )
        for name, arr in resumed.head.arrays().items():
            assert np.array_equal(arr, head.arrays()[name]), name

    def test_loss_decreases(self):
        corpus = _make_corpus(25, seed=6)
        losses = {}
        train_linear(
            corpus,
            _tiny_config(epochs=11),
            on_epoch=lambda e, loss: losses.__setitem__(e, loss),
        )
        assert losses[10] < losses[0]

    def test_bitwise_deterministic(self):
        corpus = _make_corpus(15, seed=7)
        a = train_linear(corpus, _tiny_config())
        b = train_linear(corpus, _tiny_config())
        assert np.array_equal(a.encoder.embedding_table, b.encoder.embedding_table)
        assert np.array_equal(a.encoder.context_weights, b.encoder.context_weights)
        assert np.array_equal(a.head.weights, b.head.weights)
        assert np.array_equal(a.head.bias, b.head.bias)

    def test_freeze_encoder(self):
        corpus = _make_corpus(10, seed=8)
        config = _tiny_config(freeze_encoder=True, epochs=2)
        model = train_linear(corpus, config)
        fresh = init_encoder(
            build_vocabulary(corpus), config.embed_dim, config.hidden_dim, config.seed
        )
        assert np.array_equal(model.encoder.embedding_table, fresh.embedding_table)
        head0 = init_linear_head(
            len(corpus.labels.tag_vocabulary), config.hidden_dim, config.seed + 1
        )
        assert not np.array_equal(model.head.weights, head0.weights)

    # 20 sentences: batch 4 divides the corpus, batch 6 leaves a batch of 2
    @pytest.mark.parametrize("batch_size", [4, 6])
    @pytest.mark.parametrize("freeze", [False, True])
    def test_matches_item_list_reference(self, batch_size, freeze):
        corpus = _make_corpus(20, seed=9)
        config = _tiny_config(batch_size=batch_size, freeze_encoder=freeze)
        init = init_encoder(build_vocabulary(corpus), 6, 10, seed=4)
        losses, ref_losses = [], []
        model = train_linear(corpus, config, init=init, on_epoch=lambda e, l: losses.append(l))
        reference = reference_train_linear(
            corpus, config, init, on_epoch=lambda e, l: ref_losses.append(l)
        )
        assert len(losses) == config.epochs
        assert losses == ref_losses
        _assert_models_equal(model, reference)

    @pytest.mark.parametrize("k", [-3, 5])
    def test_batch_scale_is_relative_to_the_mean_weight(self, k):
        # each batch is scaled by the run-wide mean token weight, so scaling
        # every sentence weight by 2^k, which is exact, moves no byte
        corpus = _make_corpus(20, seed=9)
        config = _tiny_config(batch_size=6)
        weights = [(1.0, 0.3, 2.5)[i % 3] for i in range(len(corpus))]

        def run(factor):
            model, windows, targets = training._linear_start(corpus, config, None)
            losses = []
            training._train_weighted(
                model, windows, corpus.offsets, targets, [w * factor for w in weights],
                config, on_epoch=lambda e, l: losses.append(l),
            )
            return dumps(model), losses

        assert run(2.0**k) == run(1.0)

    def test_five_shot_preset(self):
        config = TrainConfig.five_shot(seed=1)
        assert config.batch_size == 4
        assert config.learning_rate == 1e-4
        assert (config.K, config.K_prime) == (2, 3)
        assert config.epochs == 10

    def test_empty_corpus_rejected(self):
        corpus = parse_conll("")
        with pytest.raises(DataError):
            train_linear(corpus, _tiny_config())


def _all_arrays(model):
    return [*model.encoder.arrays().values(), *model.head.arrays().values()]


def _count_calls(monkeypatch, name: str) -> list:
    """A list that grows by one entry per call of training.<name>, which
    still runs."""
    calls, real = [], getattr(training, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(training, name, counted)
    return calls


class TestTrainingArena:
    """Training updates the model through one flat arena per run."""

    def test_nonfinite_head_gradient_named(self, monkeypatch):
        real = training.linear_loss_grads

        def poisoned(*args):
            loss, d_w, d_b, upstream = real(*args)
            d_b[-1] = np.nan
            return loss, d_w, d_b, upstream

        monkeypatch.setattr(training, "linear_loss_grads", poisoned)
        with pytest.raises(NumericError, match="block 'head.bias'"):
            train_linear(_make_corpus(10, seed=5), _tiny_config())

    @pytest.mark.parametrize("block", ["embedding_table", "context_weights", "context_bias"])
    @pytest.mark.parametrize("trainer", [train_linear, train_prototype])
    def test_nonfinite_encoder_gradient_named(self, monkeypatch, block, trainer):
        real = training.encode_windows_backward

        def poisoned(*args):
            grads = real(*args)
            getattr(grads, block).ravel()[-1] = np.inf
            return grads

        monkeypatch.setattr(training, "encode_windows_backward", poisoned)
        with pytest.raises(NumericError, match=f"block 'encoder.{block}'"):
            trainer(_make_corpus(20, seed=5), _tiny_config())

    def test_model_arrays_are_views_of_one_buffer(self):
        model = train_linear(_make_corpus(10, seed=5), _tiny_config(epochs=1))
        arrays = _all_arrays(model)
        assert all(a.flags.c_contiguous for a in arrays)
        buffer = arrays[0].base
        assert buffer.ndim == 1 and all(a.base is buffer for a in arrays)

    def test_frozen_encoder_stays_out_of_the_arena(self):
        model = train_linear(_make_corpus(10, seed=5), _tiny_config(epochs=1, freeze_encoder=True))
        head = model.head.arrays().values()
        for arr in model.encoder.arrays().values():
            assert not any(np.shares_memory(arr, h) for h in head)

    @pytest.mark.parametrize("trainer", [train_linear, train_prototype])
    def test_init_model_left_unchanged(self, trainer):
        corpus = _make_corpus(20, seed=5)
        init = train_linear(corpus, _tiny_config(epochs=1))
        before = [a.copy() for a in _all_arrays(init)]
        model = trainer(corpus, _tiny_config(epochs=2), init=init.encoder)
        for arr, was in zip(_all_arrays(init), before):
            assert np.array_equal(arr, was)
        for arr in model.encoder.arrays().values():
            assert not any(np.shares_memory(arr, a) for a in _all_arrays(init))

    @pytest.mark.parametrize("scheme", ["lc+nsp", "proto+nsp"])
    def test_pretrain_transfer_leaves_stage1_encoder_unchanged(self, monkeypatch, scheme):
        stage1 = []
        name = training.SCHEMES[scheme][0]
        entry = training.STAGES[name]

        def train_source(*args, **kwargs):
            model = entry.trainer(*args, **kwargs)
            stage1.append((model.encoder, model.encoder.copy()))
            return model

        monkeypatch.setitem(training.STAGES, name, entry._replace(trainer=train_source))
        source = _make_corpus(20, seed=15, types=("FINEA", "FINEB"))
        target = _make_corpus(12, seed=16)
        model = pretrain_transfer(source, target, _tiny_config(scheme=scheme, epochs=2))
        [(encoder, copy)] = stage1
        for name, arr in encoder.arrays().items():
            assert np.array_equal(arr, copy.arrays()[name])
            assert not np.shares_memory(arr, model.encoder.arrays()[name])
        assert not np.array_equal(model.encoder.embedding_table, encoder.embedding_table)


class TestStepChecks:
    """What a training step checks and what on_epoch changes."""

    # tanh would map an overflowing pre-activation to +-1 and keep every
    # gradient finite, so the encode checks it and raises before its batch's
    # step: the run ends one adam_step short of its encodes, also at 1e308,
    # where the linear head's gradient overflows in the same batch
    @pytest.mark.parametrize(
        "trainer, learning_rate",
        [
            pytest.param(trainer, rate, id=f"{trainer.__name__}-{rate:g}")
            for trainer, rate in [
                (train_linear, 1e200),
                (train_linear, 1e300),
                (train_prototype, 1e200),
                (train_prototype, 1e300),
                (train_linear, 1e308),
            ]
        ],
    )
    def test_overflowing_pre_activations_raise(self, monkeypatch, trainer, learning_rate):
        encodes = _count_calls(monkeypatch, "_encode_checked")
        steps = _count_calls(monkeypatch, "adam_step")
        config = TrainConfig.five_shot(seed=0, epochs=2, learning_rate=learning_rate)
        message = "^non-finite encoder pre-activation$"
        with np.errstate(all="ignore"), pytest.raises(NumericError, match=message):
            trainer(make_corpus(30, seed=0), config)
        assert len(steps) == len(encodes) - 1

    @pytest.mark.parametrize("learning_rate", [1e299, 1e300])
    def test_a_diverging_linear_head_raises(self, monkeypatch, learning_rate):
        """A frozen encoder keeps every head gradient finite, so only the
        check at the end of a linear run stops a head whose logit bound
        reached 1e300; the teacher stops before it makes soft labels."""
        config = TrainConfig(seed=0, epochs=2, learning_rate=learning_rate, freeze_encoder=True)
        message = "^linear-head logit bound reached 1e\\+300$"
        with np.errstate(all="ignore"), pytest.raises(NumericError, match=message):
            train_linear(NUMERIC_TRAIN, config)
        made = []
        monkeypatch.setattr(training, "generate_soft_labels", lambda *args: made.append(args))
        with np.errstate(all="ignore"), pytest.raises(NumericError, match=message):
            run_scheme(NUMERIC_TRAIN, config.with_(scheme="lc+st"), unlabeled=NUMERIC_UNLABELED)
        assert made == []

    def test_a_head_below_the_bound_trains(self):
        # at 1e298 the bound is 7.9e299
        config = TrainConfig(seed=0, epochs=2, learning_rate=1e298, freeze_encoder=True)
        head = train_linear(NUMERIC_TRAIN, config).head
        assert 1e299 < np.abs(head.weights).sum(axis=1).max() + np.abs(head.bias).max() < 1e300

    def test_a_weight_sum_that_overflows_raises_before_the_first_step(self, monkeypatch):
        """lambda_u 1e308 is finite, but the student's run-wide weight sum
        overflows; every step would divide the gradients by inf and leave the
        student at its initialization. At 1e306 the sum is 7.8e306 and the
        student trains."""
        bench = transfer_benchmark(0, n_source=40, n_train=30, n_test=20, n_unlabeled=20)
        moved = []  # per _fit call: whether any parameter changed
        fit = training._fit

        def spy(arena, *args):
            start = arena.params.copy()
            fit(arena, *args)
            moved.append(not np.array_equal(start, arena.params))

        monkeypatch.setattr(training, "_fit", spy)
        config = TrainConfig(seed=0, scheme="lc+st", epochs=1, learning_rate=0.01)
        run = lambda lambda_u: run_scheme(
            bench.train, config.with_(lambda_u=lambda_u), unlabeled=bench.unlabeled
        )
        with pytest.raises(NumericError, match="^non-finite token weight sum$"):
            run(1e308)
        assert moved == [True]  # the teacher trained; the student never stepped
        moved.clear()
        run(1e306)
        assert moved == [True, True]

    @pytest.mark.parametrize(
        "trainer, freeze",
        [(train_linear, False), (train_linear, True), (train_prototype, False)],
        ids=["linear", "linear_frozen", "prototype"],
    )
    def test_on_epoch_leaves_the_model_bit_identical(self, trainer, freeze):
        corpus = _make_corpus(20, seed=5)
        config = _tiny_config(freeze_encoder=freeze)
        losses = []
        hooked = trainer(corpus, config, on_epoch=lambda e, loss: losses.append(loss))
        plain = trainer(corpus, config)
        assert len(losses) == config.epochs and all(math.isfinite(x) for x in losses)
        assert dumps(hooked) == dumps(plain)


NUMERIC_TRAIN = make_corpus(30, seed=0)
NUMERIC_TEST = make_corpus(50, seed=1)
NUMERIC_UNLABELED = [s.tokens for s in make_corpus(20, seed=2).sentences]


def _numeric_config(scheme: str, freeze: bool, epochs: int, learning_rate: float):
    episodes = {"K": 1, "K_prime": 2} if scheme == "proto" else {}
    return TrainConfig(
        seed=0,
        scheme=scheme,
        freeze_encoder=freeze,
        epochs=epochs,
        learning_rate=learning_rate,
        embed_dim=8,
        hidden_dim=16,
        **episodes,
    )


@st.composite
def numeric_runs(draw):
    """A scheme, freeze_encoder (linear schemes only), 1-3 epochs and a
    learning rate 10^e for a whole e in [-8, 308], drawn as often from
    [-7, -1] as from the whole range."""
    scheme = draw(st.sampled_from(("lc", "proto", "lc+st")))
    freeze = scheme != "proto" and draw(st.booleans())
    epochs = draw(st.integers(1, 3))
    exponent = draw(st.one_of(st.integers(-7, -1), st.integers(-8, 308)))
    return _numeric_config(scheme, freeze, epochs, 10.0**exponent)


class TestNumericContract:
    """A non-finite value in training or inference is a NumericError: every
    other run ends in a checkpoint that loads back as itself and an
    evaluation that is finite without one overflow or invalid operation."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(numeric_runs())
    # training stays finite and evaluation overflows in the encoder matmul
    @example(_numeric_config("lc", False, 1, 1e200))
    # a frozen encoder: the teacher's logit bound overflows, so it stops
    @example(_numeric_config("lc+st", True, 1, 1e308))
    # a frozen encoder keeps every gradient finite; the head's bound stops it
    @example(_numeric_config("lc", True, 2, 1e300))
    @example(_numeric_config("proto", False, 2, 1e200))  # training overflows
    # the low end
    @example(_numeric_config("lc", True, 2, 1e-4))
    @example(_numeric_config("proto", False, 1, 1e-4))
    @example(_numeric_config("lc+st", False, 1, 1e-4))
    def test_numeric_error_or_finite_run(self, config):
        # the CLI runs every command under np.errstate(all="ignore")
        with np.errstate(all="ignore"):
            try:
                model = run_scheme(NUMERIC_TRAIN, config, unlabeled=NUMERIC_UNLABELED)
            except NumericError:
                return
        text = dumps(model)
        assert dumps(from_document(json.loads(text))) == text

        def f1() -> float:
            protos = None
            if model.head is None:  # a prototype model scores support prototypes
                protos = support_prototypes(model.encoder, NUMERIC_TRAIN)
            return evaluate_model(model, NUMERIC_TEST, protos=protos).f1

        with np.errstate(all="ignore"):
            try:
                score = f1()
            except NumericError:
                return
        assert math.isfinite(score)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            assert f1() == score


class TestFullBatchDescent:
    def test_plain_gd_strictly_decreases_loss(self):
        corpus = _make_corpus(2, seed=9)
        tags = corpus.labels.tag_vocabulary
        tag_index = {t: i for i, t in enumerate(tags)}
        encoder = init_encoder(build_vocabulary(corpus), 5, 8, seed=2)
        head = init_linear_head(len(tags), 8, seed=3)

        def full_batch():
            loss = 0.0
            grads = {k: np.zeros_like(v) for k, v in encoder.arrays().items()}
            head_grads = {k: np.zeros_like(v) for k, v in head.arrays().items()}
            count = 0
            for sent in corpus.sentences:
                reprs = encode(encoder, sent)
                upstream = np.zeros_like(reprs)
                for j, tag in enumerate(sent.tags):
                    target = np.zeros(len(tags))
                    target[tag_index[tag]] = 1.0
                    loss += cross_entropy(linear_forward(head, reprs[j]), target)
                    d_w, d_b, d_z = linear_backward(head, reprs[j], target)
                    head_grads["weights"] += d_w
                    head_grads["bias"] += d_b
                    upstream[j] = d_z
                    count += 1
                enc = encode_backward(encoder, sent, upstream)
                for k, v in enc.arrays().items():
                    grads[k] += v
            return loss / count, grads, head_grads, count

        lr = 1e-2
        prev, grads, head_grads, count = full_batch()
        for _ in range(20):
            for k, v in encoder.arrays().items():
                v -= lr * grads[k] / count
            for k, v in head.arrays().items():
                v -= lr * head_grads[k] / count
            loss, grads, head_grads, count = full_batch()
            assert loss < prev
            prev = loss


class TestTrainPrototype:
    def test_zero_encoder_gives_log_uniform_loss(self):
        corpus = _make_corpus(8, seed=10, types=("LOC",))
        config = _tiny_config(M=1, K=2, K_prime=2, epochs=1)
        zero = init_encoder(build_vocabulary(corpus), 6, 10, seed=0)
        for arr in zero.arrays().values():
            arr[:] = 0.0
        losses = []
        train_prototype(
            corpus, config, init=zero, on_epoch=lambda e, loss: losses.append(loss)
        )
        # every repr is identical, so every episode's loss is ln(#labels)
        # with labels {O, B-LOC}
        assert losses[0] == pytest.approx(math.log(2), abs=1e-9)

    def test_one_step_changes_encoder(self):
        corpus = _make_corpus(20, seed=11)
        config = _tiny_config(epochs=1)
        model = train_prototype(corpus, config)
        fresh = init_encoder(
            build_vocabulary(corpus), config.embed_dim, config.hidden_dim, config.seed
        )
        assert not np.array_equal(model.encoder.embedding_table, fresh.embedding_table)
        assert model.head_kind == PROTOTYPE
        assert model.head is None

    def test_bitwise_deterministic(self):
        corpus = _make_corpus(20, seed=12)
        a = train_prototype(corpus, _tiny_config())
        b = train_prototype(corpus, _tiny_config())
        assert np.array_equal(a.encoder.embedding_table, b.encoder.embedding_table)
        assert np.array_equal(a.encoder.context_weights, b.encoder.context_weights)

    @pytest.mark.parametrize(
        "types, M, K, K_prime, schema",
        [
            pytest.param(("LOC", "ORG", "PER"), 2, 2, 2, "BIO", id="types0-2-2-2"),
            pytest.param(("LOC", "ORG"), 2, 1, 3, "BIO", id="types1-2-1-3"),
            pytest.param(("LOC",), 1, 3, 2, "BIO", id="types2-1-3-2"),
            pytest.param(("LOC", "ORG", "PER"), 2, 2, 2, "IO", id="io-types0-2-2-2"),
        ],
    )
    def test_matches_per_token_reference(self, types, M, K, K_prime, schema):
        corpus = convert_schema(_make_corpus(3 * M * (K + K_prime), seed=16, types=types), schema)
        config = _tiny_config(epochs=1, M=M, K=K, K_prime=K_prime)  # 3 steps
        init = init_encoder(build_vocabulary(corpus), 6, 10, seed=3)
        losses = []
        model = train_prototype(
            corpus, config, init=init, on_epoch=lambda e, loss: losses.append(loss)
        )
        reference = init.copy()
        ref_losses = reference_train_prototype(corpus, config, reference)
        assert losses == pytest.approx(ref_losses, rel=1e-10)
        for name, arr in model.encoder.arrays().items():
            ref = reference.arrays()[name]
            assert not np.array_equal(arr, init.arrays()[name])
            assert np.allclose(arr, ref, rtol=0.0, atol=1e-10), name

    @pytest.mark.parametrize("schema", ["BIO", "IO"])
    def test_matches_batched_reference(self, schema):
        corpus = convert_schema(_make_corpus(40, seed=17, types=("LOC", "ORG", "PER")), schema)
        config = _tiny_config(epochs=3, M=2, K=2, K_prime=2)
        init = init_encoder(build_vocabulary(corpus), 6, 10, seed=5)
        losses = []
        model = train_prototype(
            corpus, config, init=init, on_epoch=lambda e, loss: losses.append(loss)
        )
        reference = init.copy()
        assert losses == reference_batched_train_prototype(corpus, config, reference)
        assert len(losses) == config.epochs
        for name, arr in model.encoder.arrays().items():
            assert np.array_equal(arr, reference.arrays()[name]), name

    def test_epoch_of_skipped_episodes_reported(self, monkeypatch):
        # support and query never share a tag, so no query token is in scope
        corpus = parse_conll("a B-LOC\n\nb I-LOC\n")
        config = _tiny_config(M=1, K=1, K_prime=1, epochs=3)
        calls = []
        steps = _count_calls(monkeypatch, "adam_step")
        encodes = _count_calls(monkeypatch, "_encode_checked")
        model = train_prototype(corpus, config, on_epoch=lambda e, loss: calls.append((e, loss)))
        assert calls == [(0, 0.0), (1, 0.0), (2, 0.0)]
        assert steps == encodes == []
        fresh = init_encoder(build_vocabulary(corpus), 6, 10, config.seed)
        for name, arr in model.encoder.arrays().items():
            assert np.array_equal(arr, fresh.arrays()[name]), name

    def test_m_clamped_to_type_count(self):
        corpus = _make_corpus(20, seed=13)
        model = train_prototype(corpus, _tiny_config(M=5, epochs=1))
        assert model.head_kind == PROTOTYPE

    def test_freeze_rejected(self):
        corpus = _make_corpus(10, seed=14)
        with pytest.raises(ValueError):
            train_prototype(corpus, _tiny_config(freeze_encoder=True))


class TestPretrainTransfer:
    def test_stage2_starts_from_stage1_encoder(self):
        source = _make_corpus(20, seed=15, types=("FINEA", "FINEB"))
        target = _make_corpus(12, seed=16)
        config = _tiny_config(scheme="lc+nsp", epochs=0)
        source_config = _tiny_config(epochs=2)
        transferred = pretrain_transfer(source, target, config, source_config=source_config)
        stage1 = train_linear(source, source_config)
        assert np.array_equal(
            transferred.encoder.embedding_table, stage1.encoder.embedding_table
        )
        assert np.array_equal(
            transferred.encoder.context_weights, stage1.encoder.context_weights
        )

    def test_stage2_head_fresh_and_sized_for_target(self):
        source = _make_corpus(20, seed=17, types=("FINEA", "FINEB", "FINEC"))
        target = _make_corpus(12, seed=18)
        config = _tiny_config(scheme="lc+nsp", epochs=0)
        transferred = pretrain_transfer(
            source, target, config, source_config=_tiny_config(epochs=1)
        )
        want = init_linear_head(
            len(target.labels.tag_vocabulary),
            transferred.encoder.hidden_dim,
            config.seed + 1,
        )
        assert np.array_equal(transferred.head.weights, want.weights)

    def test_prototype_objective(self):
        source = _make_corpus(20, seed=19, types=("FINEA", "FINEB"))
        target = _make_corpus(12, seed=20)
        config = _tiny_config(scheme="proto+nsp", epochs=1)
        model = pretrain_transfer(source, target, config)
        assert model.head_kind == PROTOTYPE

    @pytest.mark.parametrize("with_source_config", [False, True])
    @pytest.mark.parametrize("scheme", ["lc+nsp", "proto+nsp"])
    def test_matches_reference_ladder(self, scheme, with_source_config):
        source = _make_corpus(16, seed=21, types=("FINEA", "FINEB"))
        target = _make_corpus(12, seed=22)
        config = _tiny_config(scheme=scheme, epochs=2)
        source_config = _tiny_config(seed=9, epochs=1) if with_source_config else None
        got = pretrain_transfer(source, target, config, source_config=source_config)
        want = reference_run_scheme(target, config, source=source, source_config=source_config)
        assert dumps(got) == dumps(want)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (dict(scheme="lc"), "scheme 'lc' has no pretrain stage"),
            (dict(scheme="proto"), "scheme 'proto' has no pretrain stage"),
            (dict(scheme="lc+st"), "scheme 'lc+st' has no pretrain stage"),
            (dict(scheme="lc+nsp+st"), "scheme 'lc+nsp+st' requires unlabeled sentences"),
            (dict(scheme="proto+nsp", freeze_encoder=True), "freeze_encoder"),
        ],
    )
    def test_scheme_it_cannot_run_is_data_error(self, overrides, message):
        source = _make_corpus(16, seed=23, types=("FINEA", "FINEB"))
        target = _make_corpus(12, seed=24)
        with pytest.raises(DataError, match=re.escape(message)):
            pretrain_transfer(source, target, _tiny_config(epochs=1, **overrides))


class TestSoftLabels:
    def test_distributions_sum_to_one(self):
        corpus = _make_corpus(10, seed=21)
        teacher = train_linear(corpus, _tiny_config(epochs=1))
        soft = generate_soft_labels(teacher, word_ids([("paris", "w1"), ("acme",)]))
        assert soft.shape == (3, len(teacher.labels.tag_vocabulary))
        assert np.all(soft >= 0.0)
        assert np.allclose(soft.sum(axis=1), 1.0, atol=1e-9)

    def test_zero_teacher_uniform(self):
        corpus = _make_corpus(6, seed=22)
        teacher = train_linear(corpus, _tiny_config(epochs=0))
        teacher.head.weights[:] = 0.0
        teacher.head.bias[:] = 0.0
        soft = generate_soft_labels(teacher, word_ids([("w0", "w1")]))
        n = len(teacher.labels.tag_vocabulary)
        assert soft.shape == (2, n)
        assert np.allclose(soft, 1.0 / n)

    def test_saturated_teacher_near_one_hot(self):
        corpus = _make_corpus(6, seed=23)
        teacher = train_linear(corpus, _tiny_config(epochs=0))
        teacher.head.weights[:] = 0.0
        teacher.head.bias[:] = 0.0
        teacher.head.bias[0] = 50.0
        soft = generate_soft_labels(teacher, word_ids([("w0",)]))
        assert soft.shape == (1, len(teacher.labels.tag_vocabulary))
        assert soft[0, 0] > 0.999999

    def test_prototype_teacher_rejected(self):
        corpus = _make_corpus(10, seed=24)
        teacher = train_prototype(corpus, _tiny_config(epochs=1))
        with pytest.raises(DataError):
            generate_soft_labels(teacher, word_ids([("w0",)]))


class TestSelfTrain:
    def test_lambda_zero_identity(self):
        corpus = _make_corpus(10, seed=25)
        config = _tiny_config(scheme="lc+st", lambda_u=0.0, epochs=2)
        student = self_train(corpus, [("w0", "w1"), ("paris",)], config)
        plain = train_linear(corpus, config)
        assert np.array_equal(student.encoder.embedding_table, plain.encoder.embedding_table)
        assert np.array_equal(student.head.weights, plain.head.weights)

    def test_empty_unlabeled_identity(self):
        corpus = _make_corpus(10, seed=26)
        config = _tiny_config(scheme="lc+st", epochs=2)
        student = self_train(corpus, [], config)
        plain = train_linear(corpus, config)
        assert np.array_equal(student.head.weights, plain.head.weights)

    def test_student_vocabulary_covers_unlabeled(self):
        corpus = _make_corpus(10, seed=27)
        config = _tiny_config(scheme="lc+st", epochs=1)
        student = self_train(corpus, [("brandnewword", "w0")], config)
        assert "brandnewword" in student.encoder.vocab

    def test_respects_init_encoder(self):
        corpus = _make_corpus(10, seed=28)
        config = _tiny_config(scheme="lc+st", epochs=0)
        pre = init_encoder(build_vocabulary(corpus), 6, 10, seed=99)
        student = self_train(corpus, [("w0",)], config, init=pre)
        assert student.encoder.vocab == pre.vocab

    def test_matches_item_list_reference(self):
        corpus = _make_corpus(14, seed=30)
        config = _tiny_config(scheme="lc+st", epochs=2, batch_size=5, lambda_u=0.7)
        unlabeled = [("w0", "paris", "w2"), ("acme", "w1"), ("loc1", "new", "w3", "w4")]
        _assert_models_equal(
            self_train(corpus, unlabeled, config),
            reference_self_train(corpus, unlabeled, config),
        )

    def test_deterministic(self):
        corpus = _make_corpus(10, seed=29)
        config = _tiny_config(scheme="lc+st", epochs=2)
        unlabeled = [("w0", "paris", "w2"), ("acme", "w1")]
        a = self_train(corpus, unlabeled, config)
        b = self_train(corpus, unlabeled, config)
        assert np.array_equal(a.head.weights, b.head.weights)
        assert np.array_equal(a.encoder.embedding_table, b.encoder.embedding_table)


class TestRunScheme:
    def _inputs(self):
        return dict(
            source=_make_corpus(16, seed=40, types=("FINEA", "FINEB")),
            unlabeled=[s.tokens + ("unseen",) for s in _make_corpus(6, seed=41).sentences],
        )

    @pytest.mark.parametrize("with_source_config", [False, True])
    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_matches_reference_ladder(self, scheme, with_source_config):
        labeled = _make_corpus(12, seed=42)
        config = _tiny_config(scheme=scheme, epochs=2)
        source_config = _tiny_config(seed=9, epochs=1) if with_source_config else None
        inputs = self._inputs()
        got = run_scheme(labeled, config, source_config=source_config, **inputs)
        want = reference_run_scheme(labeled, config, source_config=source_config, **inputs)
        assert dumps(got) == dumps(want)

    @pytest.mark.parametrize(
        "scheme, missing, message",
        [
            ("lc+nsp", "source", "requires a source corpus"),
            ("proto+nsp", "source", "requires a source corpus"),
            ("lc+st", "unlabeled", "requires unlabeled sentences"),
            ("lc+nsp+st", "source", "requires a source corpus"),
            ("lc+nsp+st", "unlabeled", "requires unlabeled sentences"),
        ],
    )
    def test_missing_input_is_data_error(self, scheme, missing, message):
        inputs = self._inputs()
        inputs[missing] = None
        with pytest.raises(DataError, match=re.escape(f"scheme {scheme!r} {message}")):
            run_scheme(_make_corpus(12, seed=43), _tiny_config(scheme=scheme), **inputs)

    @pytest.mark.parametrize(
        "scheme, frozen",
        [("proto", "config"), ("proto+nsp", "config"), ("proto+nsp", "source_config")],
    )
    def test_frozen_prototype_stage_is_data_error(self, scheme, frozen):
        configs = {"config": _tiny_config(scheme=scheme), "source_config": _tiny_config()}
        configs[frozen] = configs[frozen].with_(freeze_encoder=True)
        with pytest.raises(DataError, match="freeze_encoder"):
            run_scheme(_make_corpus(12, seed=44), **configs, **self._inputs())


class TestStageTable:
    """run_scheme walks the stages scheme_stages lists through STAGES."""

    def _record(self, monkeypatch):
        """The names of the stages that run, in order, from wrapped steps."""
        ran = []
        for name, entry in training.STAGES.items():

            def step(run, stage, name=name, real=entry.step):
                ran.append(name)
                real(run, stage)

            monkeypatch.setitem(training.STAGES, name, entry._replace(step=step))
        return ran

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_stages_run_in_scheme_order(self, monkeypatch, scheme):
        ran = self._record(monkeypatch)
        config = _tiny_config(scheme=scheme, epochs=1)
        run_scheme(_make_corpus(12, seed=45), config, **TestRunScheme()._inputs())
        assert ran == list(training.SCHEMES[scheme])

    @pytest.mark.parametrize("scheme", ["lc+st", "lc+nsp+st"])
    @pytest.mark.parametrize("variant", ["lambda_u_0", "empty_pool"])
    def test_self_training_stops_after_the_teacher(self, monkeypatch, scheme, variant):
        ran = self._record(monkeypatch)
        inputs = TestRunScheme()._inputs()
        config = _tiny_config(scheme=scheme, epochs=1)
        if variant == "lambda_u_0":
            config = config.with_(lambda_u=0.0)
        else:
            inputs["unlabeled"] = []
        run_scheme(_make_corpus(12, seed=46), config, **inputs)
        stages = training.SCHEMES[scheme]
        assert ran == list(stages[: stages.index("teacher:train_linear") + 1])

    @pytest.mark.parametrize("pool", ["empty", "non_empty"])
    @pytest.mark.parametrize("lambda_u", [0.0, 0.5])
    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_runs_exactly_scheme_stages(self, monkeypatch, scheme, lambda_u, pool):
        ran = self._record(monkeypatch)
        inputs = TestRunScheme()._inputs()
        if pool == "empty":
            inputs["unlabeled"] = []
        config = _tiny_config(scheme=scheme, epochs=1, lambda_u=lambda_u)
        run_scheme(_make_corpus(12, seed=47), config, **inputs)
        n_unlabeled = len(inputs["unlabeled"])
        assert ran == list(training.scheme_stages(scheme, lambda_u, n_unlabeled))

    @pytest.mark.parametrize("scheme", ["lc+st", "lc+nsp+st"])
    def test_the_run_has_no_stop_rule_of_its_own(self, monkeypatch, scheme):
        """With lambda_u 0 the run still goes through the student when
        scheme_stages lists it."""
        ran = self._record(monkeypatch)
        monkeypatch.setattr(training, "scheme_stages", lambda name, *_: training.SCHEMES[name])
        config = _tiny_config(scheme=scheme, epochs=1, lambda_u=0.0)
        run_scheme(_make_corpus(12, seed=48), config, **TestRunScheme()._inputs())
        assert ran == list(training.SCHEMES[scheme])

    def test_every_stage_name_has_one_entry_and_every_entry_is_used(self):
        used = {name for stages in training.SCHEMES.values() for name in stages}
        assert used == set(training.STAGES)


class TestConfigFile:
    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"seed": 3, "learning_rate": 0.01, "scheme": "lc+st"}')
        config = load_config(read_text(path), path)
        assert config.seed == 3
        assert config.learning_rate == 0.01
        assert config.scheme == "lc+st"
        assert config.lambda_u == 0.5

    def test_seed_mandatory(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"learning_rate": 0.01}')
        with pytest.raises(DataError, match="seed"):
            load_config(read_text(path), path)

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"seed": 1, "learning_rte": 0.01}')
        with pytest.raises(DataError, match="learning_rte"):
            load_config(read_text(path), path)

    @pytest.mark.parametrize(
        "raw",
        [
            '{"seed": "x"}',
            '{"seed": true}',
            '{"seed": 1.0}',
            '{"seed": 1, "epochs": 2.5}',
            '{"seed": 1, "freeze_encoder": 1}',
            '{"seed": 1, "learning_rate": "0.1"}',
        ],
    )
    def test_field_types_checked(self, tmp_path, raw):
        path = tmp_path / "config.json"
        path.write_text(raw)
        with pytest.raises(DataError, match="config field"):
            load_config(read_text(path), path)

    def test_int_accepted_for_float_field(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"seed": 1, "learning_rate": 1, "freeze_encoder": true}')
        assert load_config(read_text(path), path).learning_rate == 1

    def test_invalid_value_names_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"seed": 1, "batch_size": 0}')
        with pytest.raises(DataError, match="config.json.*batch_size"):
            load_config(read_text(path), path)

    def test_bad_scheme_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"seed": 1, "scheme": "magic"}')
        with pytest.raises(DataError, match=re.escape(f"expected one of {ALL_SCHEMES}")):
            load_config(read_text(path), path)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("learning_rate", "NaN"),
            ("learning_rate", "Infinity"),
            ("learning_rate", "-Infinity"),
            ("lambda_u", "NaN"),
            ("lambda_u", "Infinity"),
        ],
    )
    def test_non_finite_value_rejected(self, tmp_path, field, value):
        # Python's JSON reader takes these literals, and NaN <= 0 is false
        path = tmp_path / "config.json"
        path.write_text(f'{{"seed": 0, "{field}": {value}}}')
        with pytest.raises(DataError, match=f"config.json.*{field} must be .*finite"):
            load_config(read_text(path), path)
        with pytest.raises(ValueError, match=field):
            TrainConfig(seed=0, **{field: float(value)})

    def test_negative_seed_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"seed": -1}')
        with pytest.raises(DataError, match="config.json.*seed"):
            load_config(read_text(path), path)
        with pytest.raises(ValueError, match="seed"):
            TrainConfig(seed=-1)

    def test_toml_round_trip(self, tmp_path):
        pytest.importorskip("tomllib")
        path = tmp_path / "config.toml"
        path.write_text('seed = 3\nlearning_rate = 0.01\nscheme = "lc+st"\n', encoding="utf-8")
        expected = TrainConfig(seed=3, learning_rate=0.01, scheme="lc+st")
        assert load_config(read_text(path), path) == expected

    def test_toml_without_tomllib_names_file(self, tmp_path, monkeypatch):
        path = tmp_path / "config.toml"
        path.write_text("seed = 1\n", encoding="utf-8")
        monkeypatch.setitem(sys.modules, "tomllib", None)  # as on Python 3.10
        message = f"{path}: invalid config (TOML needs Python 3.11+; use JSON)"
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            load_config(read_text(path), path)

    @pytest.mark.parametrize(
        "name, content",
        [
            ("missing.json", None),
            ("binary.json", b"\xff\xfe{"),
            ("list.json", b"[1, 2]"),
            ("number.json", b"5"),
            ("bad.toml", b"seed = = 1"),
        ],
    )
    def test_unreadable_config_names_file(self, tmp_path, name, content):
        path = tmp_path / name
        if content is not None:
            path.write_bytes(content)
        with pytest.raises(DataError, match=name):
            load_config(read_text(path), path)
