import dataclasses
import hashlib
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sapeval import benchmark, metrics, sampling, training
from sapeval.benchmark import (
    DEFAULT_VARIANTS,
    REFERENCE_FRACTIONS,
    REFERENCE_SPEC,
    count_split,
    run_benchmark,
)
from sapeval.datasets import FeatureDataset, HeadTailSplit, ZipfSpec, synthesize_dataset
from sapeval.errors import CategoryMismatch, DimMismatch, EmptyHead, NonFiniteLoss
from sapeval.sampling import SapConfig, mix_seed
from sapeval.training import (
    VARIANTS,
    StagePlan,
    TrainConfig,
    PROB_EPS,
    Ablation,
    _backprop,
    _head_backprop,
    _sigmoid,
    checkpoint_text,
    embed,
    evaluate_model,
    forward,
    init_params,
    logit_loss,
    sgd_train,
)

from oracles import load_checkpoint, masked_sigmoid, reference_loss


def finite_difference_grads(params, x, y, loss, gamma, step=1e-5):
    grads = {}
    for field in dataclasses.fields(params):
        arr = getattr(params, field.name)
        grad = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            original = arr[idx]
            arr[idx] = original + step
            up, _ = _backprop(params, x, y, loss, gamma)
            arr[idx] = original - step
            down, _ = _backprop(params, x, y, loss, gamma)
            arr[idx] = original
            grad[idx] = (up - down) / (2 * step)
        grads[field.name] = grad
    return grads


def tiny_problem(seed=0, n=6, dims=(5, 7, 4, 3)):
    rng = np.random.default_rng(seed)
    d, h, e, k = dims
    params = init_params(d, h, e, k, seed=seed)
    x = rng.normal(size=(n, d))
    y = (rng.random((n, k)) < 0.4).astype(float)
    return params, x, y


class TestForward:
    def test_zero_weights_give_half(self):
        params = init_params(4, 5, 3, 2, seed=0)
        for field in dataclasses.fields(params):
            getattr(params, field.name)[:] = 0.0
        probs = forward(params, np.ones((3, 4)))
        assert np.allclose(probs, 0.5)

    def test_positive_scaling_preserves_ordering(self):
        params, x, _ = tiny_problem()
        base = forward(params, x)
        scaled = params.copy()
        scaled.head_w *= 3.0
        rescored = forward(scaled, x)
        for c in range(base.shape[1]):
            assert np.array_equal(np.argsort(base[:, c]), np.argsort(rescored[:, c]))

    def test_deterministic(self):
        params, x, _ = tiny_problem()
        assert np.array_equal(forward(params, x), forward(params, x))

    def test_dim_mismatch(self):
        params, _, _ = tiny_problem()
        with pytest.raises(DimMismatch):
            forward(params, np.ones((2, 9)))

    #: zeros, the largest finite magnitudes, the smallest subnormals and
    #: logits past +-745, where exp(-|z|) underflows to zero
    EDGE_LOGITS = [0.0, -0.0, 1e308, -1e308, 745.2, -745.2, 800.0, -800.0, 5e-324, -5e-324]

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.sampled_from(EDGE_LOGITS),
                st.floats(745.0, 1e308) | st.floats(-1e308, -745.0),
                st.floats(-2.3e-308, 2.3e-308),
                st.floats(allow_nan=False, allow_infinity=False),
            ),
            min_size=1,
            max_size=70,
        )
    )
    @example(EDGE_LOGITS)
    def test_sigmoid_is_bitwise_the_masked_form(self, logits):
        z = np.array(logits, dtype=np.float64)
        for shaped in (z, z.reshape(-1, 1), z.reshape(1, -1)):
            assert _sigmoid(shaped).shape == shaped.shape
            assert np.array_equal(
                _sigmoid(shaped).view(np.uint64), masked_sigmoid(shaped).view(np.uint64)
            )


def logit(p):
    """The logits of probabilities ``p`` clipped to [PROB_EPS, 1 - PROB_EPS]."""
    p = np.clip(np.asarray(p, dtype=np.float64), PROB_EPS, 1.0 - PROB_EPS)
    return np.log(p) - np.log1p(-p)


def mean_loss(z, y, loss="bce", gamma=0.0):
    """The mean of ``logit_loss`` over every entry, and its gradient in ``z``."""
    entries, slope = logit_loss(np.asarray(z, dtype=np.float64),
                                np.asarray(y, dtype=np.float64), loss, gamma)
    return float(np.mean(entries)), slope / entries.size


def head_loss(p, y, loss="bce", gamma=0.0):
    """``mean_loss`` at the logits of probabilities ``p``."""
    return mean_loss(logit(p), y, loss, gamma)


class TestLosses:
    def test_bce_zero_at_exact_prediction(self):
        loss, _ = head_loss([[1.0, 0.0]], [[1.0, 0.0]])
        assert loss == pytest.approx(0.0, abs=1e-6)

    def test_bce_half_is_ln2(self):
        loss, _ = head_loss(np.full((1, 3), 0.5), [[1.0, 0.0, 1.0]])
        assert loss == pytest.approx(math.log(2), abs=1e-12)

    def test_focal_reduces_to_bce_at_gamma_zero(self, rng):
        p = rng.uniform(0.02, 0.98, size=(8, 5))
        y = (rng.random((8, 5)) < 0.5).astype(float)
        bl, bg = head_loss(p, y, "bce")
        fl, fg = head_loss(p, y, "focal", 0.0)
        assert fl == pytest.approx(bl, abs=1e-12)
        assert np.allclose(fg, bg, atol=1e-12)

    def test_focal_known_value(self):
        # p_t = 0.9 at gamma 2: (0.1)^2 * (-ln 0.9)
        loss, _ = head_loss([[0.9]], [[1.0]], "focal", 2.0)
        assert loss == pytest.approx(0.01 * -math.log(0.9), abs=1e-12)
        # and symmetrically for a negative scored 0.1
        loss2, _ = head_loss([[0.1]], [[0.0]], "focal", 2.0)
        assert loss2 == pytest.approx(loss, abs=1e-12)

    def test_focal_downweights_easy_examples(self):
        easy = head_loss([[0.95]], [[1.0]], "focal", 2.0)[0]
        hard = head_loss([[0.55]], [[1.0]], "focal", 2.0)[0]
        easy_bce = head_loss([[0.95]], [[1.0]])[0]
        hard_bce = head_loss([[0.55]], [[1.0]])[0]
        assert easy / easy_bce < hard / hard_bce

    def test_gamma_validation(self):
        with pytest.raises(ValueError):
            head_loss([[0.5]], [[1.0]], "focal", -1.0)

    def test_unknown_loss(self):
        with pytest.raises(ValueError, match="unknown loss 'hinge'"):
            head_loss([[0.5]], [[1.0]], "hinge")

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 200),
        st.integers(1, 25),
        st.integers(0, 2**32 - 1),
        st.sampled_from(["bce", "focal"]),
        st.sampled_from([0.0, 0.7, 1.5, 2.0]),
    )
    def test_matches_the_probability_space_reference(self, batch, n_categories, seed, loss,
                                                     gamma):
        # unsaturated logits, where the reference's own rounding stays far
        # below the bound: it works through p and 1 - p
        rng = np.random.default_rng(seed)
        z = rng.uniform(-6.0, 6.0, size=(batch, n_categories))
        y = (rng.random((batch, n_categories)) < 0.3).astype(float)
        value, dz = mean_loss(z, y, loss, gamma)
        ref_value, ref_dz = reference_loss(z, y, loss, gamma)
        assert value == pytest.approx(ref_value, rel=1e-12, abs=0)
        np.testing.assert_allclose(dz, ref_dz, rtol=1e-12, atol=0)

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 60),
        st.integers(1, 12),
        st.integers(0, 2**32 - 1),
        st.sampled_from(["bce", "focal"]),
    )
    def test_head_backprop_matches_the_reference(self, batch, n_categories, seed, loss):
        # the loss of the head's logits, and head gradients that are the
        # reference's logit gradient carried through the head
        rng = np.random.default_rng(seed)
        params = init_params(3, 4, 5, n_categories, seed=seed % 1000)
        params.head_w *= 0.5
        embeddings = rng.normal(size=(batch, 5))
        y = (rng.random((batch, n_categories)) < 0.3).astype(float)
        z = embeddings @ params.head_w.T + params.head_b
        ref_value, ref_dz = reference_loss(z, y, loss, 1.5)

        value, d_emb, grads = _head_backprop(params, embeddings, y, loss, 1.5,
                                             embedding_grad=True)
        assert value == pytest.approx(ref_value, rel=1e-12, abs=0)
        # each gradient is a sum of products, so its rounding bound scales
        # with the sum of their magnitudes
        for got, ref, bound in [
            (grads["head_w"], ref_dz.T @ embeddings, np.abs(ref_dz).T @ np.abs(embeddings)),
            (grads["head_b"], ref_dz.sum(axis=0), np.abs(ref_dz).sum(axis=0)),
            (d_emb, ref_dz @ params.head_w, np.abs(ref_dz) @ np.abs(params.head_w)),
        ]:
            assert np.all(np.abs(got - ref) <= 1e-12 * bound)
        # a head-only step does not compute the embedding gradient it would discard
        assert _head_backprop(params, embeddings, y, loss, 1.5)[1] is None

    @pytest.mark.parametrize("loss", ["bce", "focal"])
    @pytest.mark.parametrize("gamma", [0.0, 0.5, 2.0])
    def test_saturated_logits_stay_finite(self, loss, gamma):
        z = np.array([[-1e3, -745.2, -40.0, 0.0, 40.0, 745.2, 1e3]] * 2)
        y = np.array([[1.0] * 7, [0.0] * 7])
        entries, slope = logit_loss(z, y, loss, gamma)
        assert np.all(np.isfinite(entries)) and np.all(np.isfinite(slope))
        assert np.all(entries >= 0.0)
        # a confident wrong logit costs |z|: no cap where a clipped
        # probability used to stop the loss at -log(PROB_EPS)
        assert entries[0, 0] == entries[1, -1] == 1e3
        assert slope[0, 0] == -1.0 and slope[1, -1] == 1.0

    def test_bce_is_softplus(self):
        # y = 1 costs softplus(-z) and y = 0 softplus(z), log(1 + e^v) in
        # closed form, at every magnitude up to 1e3
        z = np.concatenate([-np.logspace(-3, 3, 60), [0.0], np.logspace(-3, 3, 60)])
        entries, slope = logit_loss(np.stack([z, z]), np.stack([np.ones_like(z), np.zeros_like(z)]),
                                    "bce", 0.0)
        softplus = lambda v: np.maximum(v, 0.0) + np.log1p(np.exp(-np.abs(v)))
        np.testing.assert_allclose(entries[0], softplus(-z), rtol=1e-15, atol=0)
        np.testing.assert_allclose(entries[1], np.logaddexp(0.0, z), rtol=1e-15, atol=0)
        assert entries[1, -1] == 1e3 and entries[0, -1] == 0.0
        assert entries[0, 60] == entries[1, 60] == math.log(2)
        np.testing.assert_allclose(slope[1], masked_sigmoid(z), rtol=1e-15, atol=0)
        # sigmoid(z) - 1 keeps sigmoid(z)'s absolute rounding, within an ulp of 1
        np.testing.assert_allclose(slope[0], -masked_sigmoid(-z), rtol=0, atol=2**-52)


class TestGradients:
    @pytest.mark.parametrize(
        "loss,gamma", [("bce", 0.0), ("focal", 2.0), ("focal", 0.7)]
    )
    def test_analytic_matches_finite_differences(self, loss, gamma):
        params, x, y = tiny_problem(seed=3)
        _, grads = _backprop(params, x, y, loss, gamma)
        fd = finite_difference_grads(params, x, y, loss, gamma)
        for name, grad in fd.items():
            analytic = getattr(grads, name)
            denom = np.maximum(np.abs(grad), 1e-6)
            assert np.max(np.abs(analytic - grad) / denom) < 1e-4

    def test_loss_value_grad_dims_match_params(self):
        params, x, y = tiny_problem()
        _, grads = _backprop(params, x, y, "bce", 2.0)
        for field in dataclasses.fields(params):
            assert (
                getattr(grads, field.name).shape
                == getattr(params, field.name).shape
            )


class TestStagePlan:
    def test_step_schedule_drops_at_ninety_percent(self):
        plan = StagePlan(0.05, 0.005, "step", 10)
        assert plan.learning_rate(0, 100) == 0.05
        assert plan.learning_rate(89, 100) == 0.05
        assert plan.learning_rate(90, 100) == 0.005

    def test_linear_schedule_endpoints(self):
        plan = StagePlan(0.001, 0.0001, "linear", 1)
        assert plan.learning_rate(0, 11) == pytest.approx(0.001)
        assert plan.learning_rate(10, 11) == pytest.approx(0.0001)

    def test_validation(self):
        with pytest.raises(ValueError):
            StagePlan(0.0, 0.1)
        with pytest.raises(ValueError):
            StagePlan(0.1, 0.01, "cosine")


def synthetic_split(n_categories=6):
    spec = ZipfSpec(
        n_categories=n_categories,
        exponent=1.0,
        max_count=150,
        min_count=4,
        feature_dim=8,
        cluster_spread=0.35,
        multilabel_rate=0.1,
        seed=9,
    )
    datasets = synthesize_dataset(spec, (0.7, 0.15, 0.15))
    head = frozenset(range(n_categories // 2))
    tail = frozenset(range(n_categories // 2, n_categories))
    return datasets, HeadTailSplit(head, tail, 0.0)


class TestSgdTrain:
    def test_deterministic(self):
        datasets, _ = synthetic_split()
        train = datasets["train"]
        x, y = train.features, train.targets
        params = init_params(8, 12, 6, train.n_categories, seed=1)
        plan = StagePlan(0.5, 0.05, "step", 3)
        a = sgd_train(params, x, y, plan, seed=11)
        b = sgd_train(params, x, y, plan, seed=11)
        for field in dataclasses.fields(a):
            assert np.array_equal(getattr(a, field.name), getattr(b, field.name))

    @pytest.mark.parametrize(
        "shape", [(6, 1), (6, 4), (5, 3), (6,)],
        ids=["too_few_columns", "too_many_columns", "too_few_rows", "one_dimensional"],
    )
    def test_targets_must_match_examples_and_head_rows(self, shape):
        params, x, _ = tiny_problem(n=6, dims=(5, 7, 4, 3))
        with pytest.raises(DimMismatch, match=re.escape(f"targets {shape} != (6 examples, 3")):
            sgd_train(params, x, np.zeros(shape), StagePlan(0.1, 0.01), batch_size=4)

    @pytest.mark.parametrize("head_only", [False, True])
    def test_feature_dim_must_match_model(self, head_only):
        params, _, y = tiny_problem(n=6, dims=(5, 7, 4, 3))
        with pytest.raises(DimMismatch, match="model input dim 5"):
            sgd_train(params, np.ones((6, 9)), y, StagePlan(0.1, 0.01), head_only=head_only)

    def test_near_separable_data_trains_to_low_loss(self):
        spec = ZipfSpec(
            n_categories=4,
            exponent=0.0,
            max_count=60,
            min_count=1,
            feature_dim=6,
            cluster_spread=1e-3,
            multilabel_rate=0.0,
            seed=2,
        )
        train = synthesize_dataset(spec, (0.8, 0.1, 0.1))["train"]
        x, y = train.features, train.targets
        params = init_params(6, 16, 8, 4, seed=0)
        history = []
        sgd_train(
            params, x, y, StagePlan(2.0, 0.2, "step", 60), seed=0, history=history
        )
        assert history[-1]["loss"] < 0.01

    def test_head_only_step_matches_model_loss_head_gradient(self):
        # one full-batch step on cached embeddings moves the head exactly
        # as the head gradients of the full backward pass say
        params, x, y = tiny_problem(seed=5, n=8)
        lr = 0.3
        stepped = sgd_train(
            params, x, y, StagePlan(lr, lr, "step", 1), batch_size=8, head_only=True
        )
        _, grads = _backprop(params, x, y, "bce", 2.0)
        assert np.allclose(stepped.head_w, params.head_w - lr * grads.head_w, atol=1e-14)
        assert np.allclose(stepped.head_b, params.head_b - lr * grads.head_b, atol=1e-14)
        assert np.array_equal(stepped.w1, params.w1)

    def test_head_only_matches_full_backprop_freeze(self):
        # head-only training with cached embeddings equals masked full
        # training in which extractor updates are discarded
        datasets, _ = synthetic_split()
        train = datasets["train"]
        x, y = train.features[:64], train.targets[:64]
        params = init_params(8, 12, 6, train.n_categories, seed=6)
        plan = StagePlan(0.3, 0.03, "linear", 2)
        head_only = sgd_train(params, x, y, plan, batch_size=16, seed=7, head_only=True)
        assert np.array_equal(head_only.w1, params.w1)
        assert np.array_equal(head_only.w2, params.w2)
        assert not np.array_equal(head_only.head_w, params.head_w)

    @pytest.mark.parametrize("loss", ["bce", "focal"])
    @pytest.mark.parametrize("head_only", [False, True])
    def test_epoch_gather_matches_indexing_each_batch(self, loss, head_only):
        # the shuffled rows are gathered once per epoch (the targets in their
        # own dtype); stepping on rows indexed batch by batch gives the same bits
        datasets, _ = synthetic_split()
        train = datasets["train"]
        x, y = train.features, train.targets
        params = init_params(8, 12, 6, train.n_categories, seed=3)
        plan, batch_size, seed = StagePlan(0.5, 0.05, "step", 3), 16, 12
        trained = sgd_train(params, x, y, plan, batch_size=batch_size, seed=seed,
                            head_only=head_only, loss=loss, gamma=1.5)

        y = y.astype(np.float64)
        expected = params.copy()
        cached = embed(expected, x)
        batches = -(-len(x) // batch_size)
        for step in range(plan.epochs * batches):
            epoch, b = divmod(step, batches)
            order = np.random.default_rng(mix_seed(seed, 101 + epoch)).permutation(len(x))
            rows = order[b * batch_size : (b + 1) * batch_size]
            if head_only:
                grads = _head_backprop(expected, cached[rows], y[rows], loss, 1.5)[2]
            else:
                grads = vars(_backprop(expected, x[rows], y[rows], loss, 1.5)[1])
            for name, grad in grads.items():
                weights = getattr(expected, name)
                weights -= plan.learning_rate(step, plan.epochs * batches) * grad
        for field in dataclasses.fields(trained):
            assert np.array_equal(getattr(trained, field.name), getattr(expected, field.name))

    def test_nonfinite_loss_aborts(self):
        x = np.ones((4, 3))
        x[2, 1] = np.nan
        y = np.ones((4, 2))
        params = init_params(3, 4, 3, 2, seed=0)
        with pytest.raises(NonFiniteLoss):
            sgd_train(params, x, y, StagePlan(0.1, 0.01, "step", 3), seed=0)

    def test_negative_focal_gamma_rejected(self):
        params, x, y = tiny_problem()
        with pytest.raises(ValueError, match="gamma"):
            sgd_train(params, x, y, StagePlan(0.1, 0.01), loss="focal", gamma=-0.5)

    @pytest.mark.parametrize("gamma", [math.nan, math.inf])
    def test_non_finite_focal_gamma_rejected(self, gamma):
        # NaN would pass a bare "gamma < 0" and end in NonFiniteLoss, and an
        # infinite gamma would zero every gradient: TrainConfig's rule holds here
        params, x, y = tiny_problem()
        with pytest.raises(ValueError, match="gamma must be finite and non-negative"):
            sgd_train(params, x, y, StagePlan(0.1, 0.01), loss="focal", gamma=gamma)

    def test_empty_dataset(self):
        params = init_params(3, 4, 3, 2, seed=0)
        with pytest.raises(ValueError):
            sgd_train(params, np.zeros((0, 3)), np.zeros((0, 2)), StagePlan(0.1, 0.01))


class TestSgdTrainRows:
    """Training on row indices equals training on the rows they gather."""

    @pytest.mark.parametrize("loss", ["bce", "focal"])
    @pytest.mark.parametrize("head_only", [False, True])
    def test_rows_equal_the_gathered_rows(self, loss, head_only):
        datasets, _ = synthetic_split()
        train = datasets["train"]
        x, y = train.features, train.targets
        rng = np.random.default_rng(4)
        # every row drawn with replacement: some repeat, others are left out
        rows = rng.integers(0, len(x), size=2 * len(x))
        assert len(np.unique(rows)) < len(x)
        batch_size = 23
        assert len(rows) % batch_size
        params = init_params(8, 12, 6, train.n_categories, seed=2)
        kwargs = dict(batch_size=batch_size, seed=5, head_only=head_only, loss=loss,
                      gamma=1.5)
        plan = StagePlan(0.5, 0.05, "step", 3)
        by_index, gathered = [], []
        trained = sgd_train(params, x, y, plan, history=by_index, rows=rows, **kwargs)
        expected = sgd_train(params, x[rows], y[rows], plan, history=gathered, **kwargs)
        assert_same_weights(trained, expected)
        assert by_index == gathered

    def test_default_rows_are_every_row_once(self):
        params, x, y = tiny_problem(n=9)
        plan = StagePlan(0.3, 0.03, "linear", 2)
        assert_same_weights(sgd_train(params, x, y, plan, batch_size=4),
                            sgd_train(params, x, y, plan, batch_size=4, rows=np.arange(9)))

    @pytest.mark.parametrize(
        "rows,message",
        [
            (np.array([0, -1, 2]), r"rows must lie in \[0, 6\)"),
            (np.array([0, 6, 2]), r"rows must lie in \[0, 6\)"),
            (np.array([0.0, 1.0]), "rows must be a 1-D array of integer indices"),
            (np.ones(6, dtype=bool), "rows must be a 1-D array of integer indices"),
            (np.array([[0, 1], [2, 3]]), "rows must be a 1-D array of integer indices"),
            (np.array([], dtype=np.int64), "training set is empty"),
            (np.array([]), "training set is empty"),
        ],
        ids=["negative", "past_the_end", "float", "bool_mask", "two_dimensional",
             "empty", "empty_float"],
    )
    def test_bad_rows_raise_rather_than_clip(self, rows, message):
        params, x, y = tiny_problem(n=6)
        with pytest.raises(ValueError, match=message):
            sgd_train(params, x, y, StagePlan(0.1, 0.01), rows=rows)


class TestTrainingMemory:
    def test_two_stage_peak_stays_near_the_epoch_buffers(self):
        """The frozen stage 2 gathers its balanced multiset straight into its
        epoch buffers and embeds each distinct row once: the traced peak of a
        two-stage run stays within twice those buffers plus the distinct rows'
        embeddings, where embedding the multiset would take about four times."""
        spec = ZipfSpec(n_categories=20, exponent=1.2, max_count=400, feature_dim=16, seed=3)
        train = synthesize_dataset(spec)["train"]
        config = TrainConfig(stage1=StagePlan(0.05, 0.005, "step", 1),
                             stage2=StagePlan(0.001, 0.0001, "linear", 1))
        ablation = Ablation(train, count_split(train))
        balanced = len(ablation.rows("balanced", config.seed))
        assert balanced >= 5 * len(train)
        epoch_buffers = balanced * (8 * config.embedding_dim + train.n_categories)
        embeddings = len(train) * 8 * config.embedding_dim
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            ablation.train("two_stage", config)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 2 * (epoch_buffers + embeddings)


class TestTwoStage:
    def test_freeze_contract(self):
        datasets, split = synthetic_split()
        config = TrainConfig(
            seed=3,
            hidden_dim=12,
            embedding_dim=6,
            stage1=StagePlan(0.5, 0.05, "step", 3),
            stage2=StagePlan(0.5, 0.05, "linear", 2),
        )
        params = Ablation(datasets["train"], split).train("two_stage", config)
        stage1_only = Ablation(datasets["train"], split).train(
            "two_stage",
            dataclasses.replace(config, stage2=StagePlan(1e-9, 1e-10, "linear", 1)),
        )
        # the extractor is bit-identical no matter what stage 2 does
        for name in ("w1", "b1", "w2", "b2"):
            assert np.array_equal(getattr(params, name), getattr(stage1_only, name))

    def test_no_freeze_updates_backbone(self):
        datasets, split = synthetic_split()
        config = TrainConfig(
            seed=3,
            hidden_dim=12,
            embedding_dim=6,
            stage1=StagePlan(0.5, 0.05, "step", 2),
            stage2=StagePlan(0.1, 0.01, "linear", 2),
            stage2_freeze=False,
        )
        frozen = Ablation(datasets["train"], split).train(
            "two_stage", dataclasses.replace(config, stage2_freeze=True),
        )
        unfrozen = Ablation(datasets["train"], split).train("two_stage", config)
        assert not np.array_equal(frozen.w1, unfrozen.w1)

    def test_empty_tail_degenerates_to_head_retraining(self):
        datasets, _ = synthetic_split()
        train = datasets["train"]
        split = HeadTailSplit(frozenset(range(train.n_categories)), frozenset(), 0.0)
        config = TrainConfig(
            seed=1,
            hidden_dim=12,
            embedding_dim=6,
            stage1=StagePlan(0.5, 0.05, "step", 2),
            stage2=StagePlan(0.5, 0.05, "linear", 1),
        )
        params = Ablation(train, split).train("two_stage", config)
        assert np.isfinite(params.head_w).all()

    def test_empty_head_raises(self):
        datasets, _ = synthetic_split()
        train = datasets["train"]
        split = HeadTailSplit(frozenset(), frozenset(range(train.n_categories)), 0.0)
        with pytest.raises(EmptyHead):
            Ablation(train, split).train("two_stage", TrainConfig(seed=0))

    def test_split_must_cover_categories(self):
        datasets, _ = synthetic_split()
        bad = HeadTailSplit(frozenset({0}), frozenset({1}), 0.0)
        with pytest.raises(CategoryMismatch):
            Ablation(datasets["train"], bad).train("two_stage", TrainConfig(seed=0))

    def test_warm_start_keeps_stage1_head_basis(self):
        datasets, split = synthetic_split()
        cold_cfg = TrainConfig(
            seed=5,
            hidden_dim=12,
            embedding_dim=6,
            stage1=StagePlan(0.5, 0.05, "step", 2),
            stage2=StagePlan(1e-9, 1e-10, "linear", 1),
        )
        cold = Ablation(datasets["train"], split).train("two_stage", cold_cfg)
        warm = Ablation(datasets["train"], split).train(
            "two_stage",
            dataclasses.replace(cold_cfg, stage2_warm_start=True),
        )
        assert not np.array_equal(cold.head_w, warm.head_w)

    @pytest.mark.parametrize(
        "variant,flag",
        [("stage2_finetune_all", "stage2_freeze"), ("stage2_unbalanced", "stage2_balance")],
    )
    def test_ablation_variant_equals_two_stage_with_flag_off(self, variant, flag):
        datasets, split = synthetic_split()
        config = TrainConfig(
            seed=4,
            hidden_dim=10,
            embedding_dim=5,
            stage1=StagePlan(0.5, 0.05, "step", 2),
            stage2=StagePlan(0.1, 0.01, "linear", 1),
        )
        ablation = Ablation(datasets["train"], split).train(variant, config)
        flagged = Ablation(datasets["train"], split).train(
            "two_stage", dataclasses.replace(config, **{flag: False})
        )
        for field in dataclasses.fields(ablation):
            assert np.array_equal(getattr(ablation, field.name), getattr(flagged, field.name))


class TestAblationTrain:
    def test_all_variants_run_and_are_deterministic(self):
        datasets, split = synthetic_split()
        config = TrainConfig(
            seed=2,
            hidden_dim=10,
            embedding_dim=5,
            stage1=StagePlan(0.5, 0.05, "step", 2),
            stage2=StagePlan(0.5, 0.05, "linear", 1),
        )
        for variant in VARIANTS:
            a = Ablation(datasets["train"], split).train(variant, config)
            b = Ablation(datasets["train"], split).train(variant, config)
            for field in dataclasses.fields(a):
                assert np.array_equal(
                    getattr(a, field.name), getattr(b, field.name)
                ), variant

    def test_unknown_variant(self):
        datasets, split = synthetic_split()
        with pytest.raises(ValueError) as err:
            Ablation(datasets["train"], split).train("mystery", TrainConfig())
        assert all(variant in str(err.value) for variant in VARIANTS)

    def test_two_stage_needs_split(self):
        datasets, _ = synthetic_split()
        with pytest.raises(EmptyHead):
            Ablation(datasets["train"], None).train("two_stage", TrainConfig())

    def test_focal_variant_differs_from_baseline(self):
        datasets, split = synthetic_split()
        config = TrainConfig(
            seed=2,
            hidden_dim=10,
            embedding_dim=5,
            stage1=StagePlan(0.5, 0.05, "step", 2),
        )
        base = Ablation(datasets["train"], split).train("baseline_plain", config)
        focal = Ablation(datasets["train"], split).train("focal", config)
        assert not np.array_equal(base.head_w, focal.head_w)

    def test_head_stage1_leaves_tail_rows_at_init(self):
        # stage 1 on the head trains the head categories' classifier rows;
        # the tail's rows keep their initial values bit for bit
        datasets, split = synthetic_split()
        train = datasets["train"]
        config = TrainConfig(seed=4, hidden_dim=12, embedding_dim=6,
                             stage1=StagePlan(0.5, 0.05, "step", 2))
        ablation = Ablation(train, split)
        ablation.train("two_stage", config)
        ((stage1, _),) = ablation._stage1.values()
        init = init_params(train.features.shape[1], 12, 6, train.n_categories, seed=4)
        head, tail = sorted(split.head), sorted(split.tail)
        assert stage1.head_w.shape == init.head_w.shape
        assert np.array_equal(stage1.head_w[tail], init.head_w[tail])
        assert np.array_equal(stage1.head_b[tail], init.head_b[tail])
        assert (stage1.head_w[head] != init.head_w[head]).any(axis=1).all()
        assert (stage1.head_b[head] != init.head_b[head]).all()

    @pytest.mark.parametrize("extra", [{"head": 6}, {"tail": -1}],
                             ids=["head_past_end", "tail_negative"])
    def test_split_naming_a_category_outside_the_dataset_rejected(self, extra):
        datasets, split = synthetic_split()
        sides = {"head": split.head, "tail": split.tail}
        sides.update({side: sides[side] | {c} for side, c in extra.items()})
        bad = HeadTailSplit(sides["head"], sides["tail"], 0.0)
        with pytest.raises(CategoryMismatch):
            Ablation(datasets["train"], bad)

    def test_head_without_training_examples_raises(self):
        # no example carries category 0, the only head category
        train = FeatureDataset(ids=[0, 1, 2], features=np.eye(3), labels=[(1,), (2,), (1, 2)],
                               split="train", n_categories=3)
        split = HeadTailSplit(frozenset({0}), frozenset({1, 2}), 0.0)
        with pytest.raises(EmptyHead, match="no training examples carry a head category"):
            Ablation(train, split).train("two_stage", TrainConfig(seed=0, hidden_dim=4,
                                                                  embedding_dim=2))

    def test_integer_type_of_split_entries_does_not_matter(self):
        datasets, split = synthetic_split()
        config = TrainConfig(seed=4, hidden_dim=12, embedding_dim=6,
                             stage1=StagePlan(0.5, 0.05, "step", 2),
                             stage2=StagePlan(0.5, 0.05, "linear", 1))
        trained = Ablation(datasets["train"], split).train("two_stage", config)
        numpy_split = HeadTailSplit(frozenset(np.int32(c) for c in split.head),
                                    frozenset(np.int64(c) for c in split.tail), 0.0)
        other = Ablation(datasets["train"], numpy_split).train("two_stage", config)
        for field in dataclasses.fields(trained):
            assert np.array_equal(getattr(other, field.name), getattr(trained, field.name))

    def test_stage2_finetune_all_updates_backbone(self):
        datasets, split = synthetic_split()
        config = TrainConfig(
            seed=2,
            hidden_dim=10,
            embedding_dim=5,
            stage1=StagePlan(0.5, 0.05, "step", 2),
            stage2=StagePlan(0.1, 0.01, "linear", 1),
        )
        frozen = Ablation(datasets["train"], split).train("two_stage", config)
        tuned = Ablation(datasets["train"], split).train("stage2_finetune_all", config)
        assert not np.array_equal(frozen.w1, tuned.w1)


class TestSharedStage1:
    @pytest.mark.parametrize(
        "variants,n_calls",
        [
            # two_stage and stage2_unbalanced share their head-only stage 1
            (DEFAULT_VARIANTS, 5),
            # so do stage2_finetune_all, and baseline_plain and stage1_all
            (tuple(VARIANTS), 8),
        ],
    )
    def test_run_benchmark_trains_each_stage1_once(self, monkeypatch, variants, n_calls):
        calls, configs, trained = [], [], []
        real_sgd, real_config = training.sgd_train, benchmark.variant_config

        def counting_sgd(*args, **kwargs):
            calls.append(args)
            return real_sgd(*args, **kwargs)

        def recording_config(*args, **kwargs):
            configs.append(real_config(*args, **kwargs))
            return configs[-1]

        monkeypatch.setattr(training, "sgd_train", counting_sgd)
        monkeypatch.setattr(benchmark, "variant_config", recording_config)
        monkeypatch.setattr(
            benchmark, "evaluate_model", lambda params, *a, **k: trained.append(params)
        )
        run_benchmark(0, variants)
        assert len(calls) == n_calls

        train = synthesize_dataset(dataclasses.replace(REFERENCE_SPEC, seed=0),
                                   REFERENCE_FRACTIONS)["train"]
        split = count_split(train)
        for variant, config, params in zip(variants, configs, trained, strict=True):
            alone = Ablation(train, split).train(variant, config)
            for field in dataclasses.fields(alone):
                assert np.array_equal(
                    getattr(params, field.name), getattr(alone, field.name)
                ), variant

    def test_history_records_both_stages(self):
        datasets, split = synthetic_split()
        config = TrainConfig(
            seed=3,
            hidden_dim=12,
            embedding_dim=6,
            stage1=StagePlan(0.5, 0.05, "step", 3),
            stage2=StagePlan(0.5, 0.05, "linear", 2),
        )
        history: list = []
        params = Ablation(datasets["train"], split).train("two_stage", config, history)
        assert [list(h) for h in history] == [["stage", "epoch", "loss", "lr"]] * 5
        assert [(h["stage"], h["epoch"]) for h in history] == [
            (1, 0), (1, 1), (1, 2), (2, 0), (2, 1)
        ]
        assert all(math.isfinite(h["loss"]) for h in history)

        ablation = Ablation(datasets["train"], split)
        first: list = []
        composed = ablation.train("two_stage", config, first)
        assert first == history
        assert_same_weights(composed, params)

        # a variant whose stage 1 is cached trains the same weights and
        # records the same history as when it trained alone
        again: list = []
        assert_same_weights(ablation.train("two_stage", config, again), params)
        assert again == history

        # a warm-started stage 2 retrains a copy of the cached head: the
        # stage-1 weights baseline_plain returns stay as they were
        warm = dataclasses.replace(config, stage2_warm_start=True)
        kept = ablation.train("baseline_plain", config).copy()
        for variant in ("stage1_all", "two_stage"):
            alone = Ablation(datasets["train"], split).train(variant, warm)
            assert_same_weights(ablation.train(variant, warm), alone)
            assert_same_weights(ablation.train(variant, warm), alone)
        ablation.train("baseline_plain", config).head_w[:] = 0.0  # the caller's copy
        assert_same_weights(ablation.train("baseline_plain", config), kept)


def assert_same_weights(a, b):
    for field in dataclasses.fields(a):
        assert np.array_equal(getattr(a, field.name), getattr(b, field.name)), field.name


class TestRunBenchmarkCalls:
    """``run_benchmark(5)`` traced by name: what it builds and ranks."""

    @pytest.fixture(scope="class")
    def calls(self):
        calls = {"rank_order": 0, "oversample_balance": 0}

        def counting(module, name):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return wrapper

        with pytest.MonkeyPatch.context() as patch:
            for module, name in ((metrics, "rank_order"), (sampling, "rank_order"),
                                 (benchmark, "oversample_balance"),
                                 (training, "oversample_balance")):
                patch.setattr(module, name, counting(module, name))
            result = run_benchmark(5)
        calls["pools"] = sum(c.n_pos > 0 for r in result.reports.values() for c in r.categories)
        return calls

    def test_each_pool_is_ranked_once(self, calls):
        # 4 variants x 20 validation categories, every one with positives
        assert calls["pools"] == 80
        assert calls["rank_order"] == 80

    def test_balanced_set_is_built_once(self, calls):
        assert calls["oversample_balance"] == 1


#: SHA-256 of ``run_benchmark(0)``'s report dicts, trial APs included,
#: recorded while every variant still trained its own stage 1.
RUN_BENCHMARK_0_DIGEST = "fa5828e75eaad6a86812ce7c5ffae770195668e52e867e71f4acd3a5cff6664d"


def test_run_benchmark_reports_are_pinned():
    result = run_benchmark(0)
    payload = {
        variant: {
            "categories": [c.to_dict(store_trials=True) for c in report.categories],
            "aggregates": report.aggregates,
        }
        for variant, report in result.reports.items()
    }
    digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
    assert digest == RUN_BENCHMARK_0_DIGEST


#: SHA-256 of the JSON-dumped ``EvalReport.to_dict()`` of each variant of
#: ``run_benchmark(0, ("two_stage", "stage2_unbalanced"))``, which share one
#: head stage 1, recorded while stage 1 masked the tail out of a full-size head.
TWO_STAGE_0_DIGEST = "0699f018b540ba648ada8022db7ca14ab8dff1bd2ac8479b76f424066784f014"


def test_two_stage_reports_are_pinned():
    result = run_benchmark(0, variants=("two_stage", "stage2_unbalanced"))
    payload = {variant: report.to_dict() for variant, report in result.reports.items()}
    digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
    assert digest == TWO_STAGE_0_DIGEST


class TestEvaluateModel:
    def test_separable_limit_gives_perfect_sap(self):
        spec = ZipfSpec(
            n_categories=4,
            exponent=0.0,
            max_count=80,
            min_count=1,
            feature_dim=6,
            cluster_spread=1e-3,
            multilabel_rate=0.0,
            seed=3,
        )
        datasets = synthesize_dataset(spec, (0.7, 0.15, 0.15))
        train, val = datasets["train"], datasets["val"]
        x, y = train.features, train.targets
        params = init_params(6, 16, 8, 4, seed=0)
        params = sgd_train(params, x, y, StagePlan(2.0, 0.2, "step", 60), seed=0)
        report = evaluate_model(params, val, SapConfig(n_trials=10, seed=0))
        for record in report.categories:
            assert record.sap_mean == 1.0
        assert report.aggregates["all"]["msap"] == 1.0

    def test_random_params_near_half(self):
        datasets, split = synthetic_split()
        params = init_params(8, 12, 6, datasets["val"].n_categories, seed=123)
        report = evaluate_model(
            params, datasets["val"], SapConfig(n_trials=100, seed=5), split=split
        )
        saps = [c.sap_mean for c in report.categories if c.sap_mean is not None]
        assert np.mean(saps) == pytest.approx(0.5, abs=0.05)

    def test_category_undercoverage_raises(self):
        datasets, _ = synthetic_split()
        small = init_params(8, 12, 6, 2, seed=0)  # fewer heads than labels
        with pytest.raises(DimMismatch):
            evaluate_model(small, datasets["val"])

    def test_group_aggregates_are_unweighted_means(self):
        datasets, split = synthetic_split()
        params = init_params(8, 12, 6, datasets["val"].n_categories, seed=1)
        report = evaluate_model(
            params, datasets["val"], SapConfig(n_trials=5, seed=0), split=split
        )
        by_cat = {c.category: c for c in report.categories}
        for group, members in (("head", split.head), ("tail", split.tail)):
            values = [
                by_cat[c].sap_mean
                for c in members
                if by_cat[c].sap_mean is not None
            ]
            assert report.aggregates[group]["msap"] == pytest.approx(np.mean(values))


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        params = init_params(4, 6, 3, 5, seed=8)
        path = tmp_path / "checkpoint.json"
        path.write_text(checkpoint_text(params, {"variant": "two_stage", "seed": 8}))
        loaded, training = load_checkpoint(path)
        for field in dataclasses.fields(params):
            assert np.array_equal(
                getattr(loaded, field.name), getattr(params, field.name)
            )
        assert training["variant"] == "two_stage"
        assert loaded.dims == params.dims

    def test_unknown_format_version_rejected(self, tmp_path):
        path = tmp_path / "checkpoint.json"
        path.write_text(checkpoint_text(init_params(4, 6, 3, 5, seed=8), {}))
        payload = json.loads(path.read_text())
        payload["format_version"] = 2
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="format_version"):
            load_checkpoint(path)

    def test_weight_shape_disagreeing_with_dims_rejected(self, tmp_path):
        path = tmp_path / "checkpoint.json"
        path.write_text(checkpoint_text(init_params(4, 6, 3, 5, seed=8), {}))
        payload = json.loads(path.read_text())
        payload["weights"]["b1"] = payload["weights"]["b1"][:-1]
        path.write_text(json.dumps(payload))
        with pytest.raises(DimMismatch, match="b1"):
            load_checkpoint(path)
