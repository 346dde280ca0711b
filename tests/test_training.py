import dataclasses
import hashlib
import json
import math

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
from sapeval.datasets import HeadTailSplit, ZipfSpec, synthesize_dataset
from sapeval.errors import CategoryMismatch, DimMismatch, EmptyHead, NonFiniteLoss
from sapeval.sampling import SapConfig
from sapeval.training import (
    VARIANTS,
    StagePlan,
    TrainConfig,
    _sigmoid,
    bce_loss,
    checkpoint_text,
    evaluate_model,
    focal_loss,
    forward,
    head_gradient,
    init_params,
    model_loss,
    resolve_variant,
    run_ablation,
    sgd_train,
    train_stage1,
    train_stage2,
)

from oracles import load_checkpoint, masked_sigmoid


def finite_difference_grads(params, x, y, loss, gamma, mask, step=1e-5):
    grads = {}
    for field in dataclasses.fields(params):
        arr = getattr(params, field.name)
        grad = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            original = arr[idx]
            arr[idx] = original + step
            up = model_loss(params, x, y, loss, gamma, mask).value
            arr[idx] = original - step
            down = model_loss(params, x, y, loss, gamma, mask).value
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


class TestLosses:
    def test_bce_zero_at_exact_prediction(self):
        y = np.array([[1.0, 0.0]])
        p = np.array([[1.0, 0.0]])  # clamped internally
        loss, _ = bce_loss(p, y)
        assert loss == pytest.approx(0.0, abs=1e-6)

    def test_bce_half_is_ln2(self):
        y = np.array([[1.0, 0.0, 1.0]])
        p = np.full((1, 3), 0.5)
        loss, _ = bce_loss(p, y)
        assert loss == pytest.approx(math.log(2), abs=1e-12)

    def test_focal_reduces_to_bce_at_gamma_zero(self, rng):
        p = rng.uniform(0.02, 0.98, size=(8, 5))
        y = (rng.random((8, 5)) < 0.5).astype(float)
        bl, bg = bce_loss(p, y)
        fl, fg = focal_loss(p, y, gamma=0.0)
        assert fl == pytest.approx(bl, abs=1e-12)
        assert np.allclose(fg, bg, atol=1e-12)

    def test_focal_known_value(self):
        # p_t = 0.9 at gamma 2: (0.1)^2 * (-ln 0.9)
        loss, _ = focal_loss(np.array([[0.9]]), np.array([[1.0]]), gamma=2.0)
        assert loss == pytest.approx(0.01 * -math.log(0.9), abs=1e-12)
        # and symmetrically for a negative scored 0.1
        loss2, _ = focal_loss(np.array([[0.1]]), np.array([[0.0]]), gamma=2.0)
        assert loss2 == pytest.approx(loss, abs=1e-12)

    def test_focal_downweights_easy_examples(self):
        easy = focal_loss(np.array([[0.95]]), np.array([[1.0]]), 2.0)[0]
        hard = focal_loss(np.array([[0.55]]), np.array([[1.0]]), 2.0)[0]
        easy_bce = bce_loss(np.array([[0.95]]), np.array([[1.0]]))[0]
        hard_bce = bce_loss(np.array([[0.55]]), np.array([[1.0]]))[0]
        assert easy / easy_bce < hard / hard_bce

    def test_gamma_validation(self):
        with pytest.raises(ValueError):
            focal_loss(np.array([[0.5]]), np.array([[1.0]]), gamma=-1.0)

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 200),
        st.integers(1, 25),
        st.integers(0, 2**32 - 1),
        st.sampled_from(["bce", "focal"]),
        st.booleans(),
    )
    def test_head_gradient_is_bitwise_the_loss_of_the_column_gather(
        self, batch, n_categories, seed, loss, masked
    ):
        rng = np.random.default_rng(seed)
        params = init_params(3, 4, 5, n_categories, seed=seed % 1000)
        p = forward(params, rng.normal(size=(batch, 3)))
        y = (rng.random((batch, n_categories)) < 0.3).astype(float)
        columns = np.flatnonzero(rng.random(n_categories) < 0.5) if masked else None
        used = np.arange(n_categories) if columns is None else columns
        if not len(used):
            return
        if loss == "bce":
            value, dloss = bce_loss(p[:, used], y[:, used])
        else:
            value, dloss = focal_loss(p[:, used], y[:, used], 1.5)
        dz = np.zeros_like(p)
        dz[:, used] = dloss * p[:, used] * (1.0 - p[:, used])
        got_value, got_dz = head_gradient(p, y, columns, loss, 1.5)
        assert got_value == value
        assert np.array_equal(got_dz, dz)


class TestGradients:
    @pytest.mark.parametrize(
        "loss,gamma", [("bce", 0.0), ("focal", 2.0), ("focal", 0.7)]
    )
    def test_analytic_matches_finite_differences(self, loss, gamma):
        params, x, y = tiny_problem(seed=3)
        result = model_loss(params, x, y, loss, gamma)
        fd = finite_difference_grads(params, x, y, loss, gamma, None)
        for name, grad in fd.items():
            analytic = getattr(result.grads, name)
            denom = np.maximum(np.abs(grad), 1e-6)
            assert np.max(np.abs(analytic - grad) / denom) < 1e-4

    def test_masked_gradients_at_random_points(self):
        worst = 0.0
        for seed in range(100):
            params, x, y = tiny_problem(seed=seed, n=3, dims=(3, 4, 3, 4))
            mask = [0, 2]
            result = model_loss(params, x, y, "bce", category_mask=mask)
            fd = finite_difference_grads(params, x, y, "bce", 2.0, mask)
            for name, grad in fd.items():
                analytic = getattr(result.grads, name)
                denom = np.maximum(np.abs(grad), 1e-6)
                worst = max(worst, float(np.max(np.abs(analytic - grad) / denom)))
            assert np.all(result.grads.head_w[[1, 3]] == 0.0)
            assert np.all(result.grads.head_b[[1, 3]] == 0.0)
        assert worst < 1e-4

    def test_loss_value_grad_dims_match_params(self):
        params, x, y = tiny_problem()
        result = model_loss(params, x, y)
        for field in dataclasses.fields(params):
            assert (
                getattr(result.grads, field.name).shape
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

    def test_masked_categories_untouched(self):
        datasets, split = synthetic_split()
        train = datasets["train"]
        x, y = train.features, train.targets
        params = init_params(8, 12, 6, train.n_categories, seed=4)
        before = params.copy()
        mask = sorted(split.head)
        after = sgd_train(
            params, x, y, StagePlan(0.5, 0.05, "step", 2), seed=5, category_mask=mask
        )
        masked_out = sorted(split.tail)
        assert np.array_equal(after.head_w[masked_out], before.head_w[masked_out])
        assert np.array_equal(after.head_b[masked_out], before.head_b[masked_out])
        assert not np.array_equal(after.head_w[mask], before.head_w[mask])

    def test_head_only_step_matches_model_loss_head_gradient(self):
        # one full-batch step on cached embeddings moves the head exactly
        # as the head gradients of the full backward pass say
        params, x, y = tiny_problem(seed=5, n=8)
        lr = 0.3
        stepped = sgd_train(
            params, x, y, StagePlan(lr, lr, "step", 1), batch_size=8, head_only=True
        )
        grads = model_loss(params, x, y).grads
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

    def test_empty_dataset(self):
        params = init_params(3, 4, 3, 2, seed=0)
        with pytest.raises(ValueError):
            sgd_train(params, np.zeros((0, 3)), np.zeros((0, 2)), StagePlan(0.1, 0.01))


class TestCategoryMask:
    def train(self, mask):
        params, x, y = tiny_problem(seed=2, n=8, dims=(5, 7, 4, 3))
        return sgd_train(params, x, y, StagePlan(0.3, 0.03, "step", 2), batch_size=4,
                         category_mask=mask)

    @pytest.mark.parametrize("mask", [[0, 1.0], [0.5], [True], ["1"]])
    def test_non_integer_entry_rejected(self, mask):
        with pytest.raises(ValueError, match="not an integer"):
            self.train(mask)

    @pytest.mark.parametrize("mask", [[-1], [0, 3], [2**63]])
    def test_entry_outside_categories_rejected(self, mask):
        with pytest.raises(ValueError, match=r"outside \[0, 3\)"):
            self.train(mask)

    @pytest.mark.parametrize("mask,entry", [([1, 1], 1), ([2, 0, 2], 2)])
    def test_repeated_entry_rejected(self, mask, entry):
        with pytest.raises(ValueError, match=f"repeats entry {entry}"):
            self.train(mask)

    def test_empty_mask_rejected(self):
        with pytest.raises(ValueError, match="selects no category"):
            self.train([])

    def test_order_and_integer_type_do_not_matter(self):
        trained = self.train([0, 2])
        for mask in ((2, 0), np.array([2, 0]), [np.int32(0), np.int64(2)], {0, 2}):
            other = self.train(mask)
            for field in dataclasses.fields(trained):
                assert np.array_equal(getattr(other, field.name), getattr(trained, field.name))

    def test_model_loss_checks_its_mask_too(self):
        params, x, y = tiny_problem()
        with pytest.raises(ValueError, match="outside"):
            model_loss(params, x, y, category_mask=[-1])


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
        params = run_ablation(datasets["train"], split, "two_stage", config)
        stage1_only = run_ablation(
            datasets["train"],
            split,
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
        frozen = run_ablation(
            datasets["train"], split, "two_stage",
            dataclasses.replace(config, stage2_freeze=True),
        )
        unfrozen = run_ablation(datasets["train"], split, "two_stage", config)
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
        params = run_ablation(train, split, "two_stage", config)
        assert np.isfinite(params.head_w).all()

    def test_empty_head_raises(self):
        datasets, _ = synthetic_split()
        train = datasets["train"]
        split = HeadTailSplit(frozenset(), frozenset(range(train.n_categories)), 0.0)
        with pytest.raises(EmptyHead):
            run_ablation(train, split, "two_stage", TrainConfig(seed=0))

    def test_split_must_cover_categories(self):
        datasets, _ = synthetic_split()
        bad = HeadTailSplit(frozenset({0}), frozenset({1}), 0.0)
        with pytest.raises(CategoryMismatch):
            run_ablation(datasets["train"], bad, "two_stage", TrainConfig(seed=0))

    def test_warm_start_keeps_stage1_head_basis(self):
        datasets, split = synthetic_split()
        cold_cfg = TrainConfig(
            seed=5,
            hidden_dim=12,
            embedding_dim=6,
            stage1=StagePlan(0.5, 0.05, "step", 2),
            stage2=StagePlan(1e-9, 1e-10, "linear", 1),
        )
        cold = run_ablation(datasets["train"], split, "two_stage", cold_cfg)
        warm = run_ablation(
            datasets["train"],
            split,
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
        ablation = run_ablation(datasets["train"], split, variant, config)
        flagged = run_ablation(
            datasets["train"], split, "two_stage", dataclasses.replace(config, **{flag: False})
        )
        for field in dataclasses.fields(ablation):
            assert np.array_equal(getattr(ablation, field.name), getattr(flagged, field.name))


class TestRunAblation:
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
            a = run_ablation(datasets["train"], split, variant, config)
            b = run_ablation(datasets["train"], split, variant, config)
            for field in dataclasses.fields(a):
                assert np.array_equal(
                    getattr(a, field.name), getattr(b, field.name)
                ), variant

    def test_unknown_variant(self):
        datasets, split = synthetic_split()
        with pytest.raises(ValueError) as err:
            run_ablation(datasets["train"], split, "mystery", TrainConfig())
        assert all(variant in str(err.value) for variant in VARIANTS)

    def test_two_stage_needs_split(self):
        datasets, _ = synthetic_split()
        with pytest.raises(EmptyHead):
            run_ablation(datasets["train"], None, "two_stage", TrainConfig())

    def test_focal_variant_differs_from_baseline(self):
        datasets, split = synthetic_split()
        config = TrainConfig(
            seed=2,
            hidden_dim=10,
            embedding_dim=5,
            stage1=StagePlan(0.5, 0.05, "step", 2),
        )
        base = run_ablation(datasets["train"], split, "baseline_plain", config)
        focal = run_ablation(datasets["train"], split, "focal", config)
        assert not np.array_equal(base.head_w, focal.head_w)

    def test_stage2_finetune_all_updates_backbone(self):
        datasets, split = synthetic_split()
        config = TrainConfig(
            seed=2,
            hidden_dim=10,
            embedding_dim=5,
            stage1=StagePlan(0.5, 0.05, "step", 2),
            stage2=StagePlan(0.1, 0.01, "linear", 1),
        )
        frozen = run_ablation(datasets["train"], split, "two_stage", config)
        tuned = run_ablation(datasets["train"], split, "stage2_finetune_all", config)
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
            alone = run_ablation(train, split, variant, config)
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
        params = run_ablation(datasets["train"], split, "two_stage", config, history=history)
        assert [list(h) for h in history] == [["stage", "epoch", "loss", "lr"]] * 5
        assert [(h["stage"], h["epoch"]) for h in history] == [
            (1, 0), (1, 1), (1, 2), (2, 0), (2, 1)
        ]
        assert all(math.isfinite(h["loss"]) for h in history)

        staged: list = []
        config, stage1_set, stage2_set = resolve_variant("two_stage", config)
        head_rows = training._example_rows(datasets["train"], stage1_set, split, config.seed)
        stage1 = train_stage1(datasets["train"], head_rows, config, sorted(split.head), staged)
        kept = stage1.copy()
        balanced_rows = training._example_rows(datasets["train"], stage2_set, split, config.seed)
        composed = train_stage2(datasets["train"], balanced_rows, config, stage1, staged)
        assert staged == history
        for field in dataclasses.fields(params):
            assert np.array_equal(getattr(composed, field.name), getattr(params, field.name))
            assert np.array_equal(getattr(stage1, field.name), getattr(kept, field.name))


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
            assert record.sap.mean == 1.0
        assert report.aggregates["all"]["msap"] == 1.0

    def test_random_params_near_half(self):
        datasets, split = synthetic_split()
        params = init_params(8, 12, 6, datasets["val"].n_categories, seed=123)
        report = evaluate_model(
            params, datasets["val"], SapConfig(n_trials=100, seed=5), split=split
        )
        saps = [c.sap.mean for c in report.categories if c.sap]
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
                by_cat[c].sap.mean
                for c in members
                if by_cat[c].sap is not None
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
