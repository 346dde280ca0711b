"""Small multi-label classifier and the training schemata compared in the
long-tail study.

The model is a two-layer feature extractor (tanh between the layers)
feeding a per-category logistic head. Gradients are written out by hand so
they can be validated against finite differences.

Every compared schema is one row of :data:`VARIANTS`, trained by
:func:`run_ablation`: the example set stage 1 trains on (all, head or
balanced), whether a second stage retrains a fresh head on the balanced
set with the extractor frozen, and the config fields it overrides.
``two_stage`` is the head-to-tail transfer schema; ``baseline_plain``,
``naive_balanced`` and ``focal`` are its single-stage baselines, and
``stage1_all``, ``stage2_finetune_all`` and ``stage2_unbalanced`` its
ablations. :func:`run_ablation` is :func:`train_stage1` followed by
:func:`train_stage2`, each handed the rows of its example set; variants
with equal :func:`stage1_key` train the same stage 1, which the reference
benchmark trains once and shares, as it builds each example set once.
:func:`score_pools` scores each pool, ranked once, into one
:class:`~sapeval.metrics.CategoryEvaluation`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .datasets import FeatureDataset, HeadTailSplit, oversample_balance
from .errors import CategoryMismatch, DimMismatch, EmptyHead, NoEligibleCategories, NonFiniteLoss
from .metrics import CategoryEvaluation, _eligible, mean_ap
# not called here; perfbench/tracing.py wraps it under this name
from .metrics import average_precision  # noqa: F401
from .pools import EvalPool, pools_from_scores
from .sampling import SapConfig, mix_seed, msap, sampled_ap

#: Probabilities are kept this far from {0, 1} before any logarithm.
PROB_EPS = 1e-7
#: Rows scored per forward pass in ``evaluate_model``.
EVAL_BATCH_SIZE = 4096


class Variant(NamedTuple):
    """One training schema: the example set stage 1 trains on (``all``,
    ``head`` or ``balanced``), whether a second stage follows, and the
    :class:`TrainConfig` fields the schema overrides."""

    stage1: str
    second_stage: bool
    overrides: dict = {}


VARIANTS = {
    "baseline_plain": Variant("all", False),
    "naive_balanced": Variant("balanced", False),
    "focal": Variant("all", False, {"loss": "focal"}),
    "two_stage": Variant("head", True),
    "stage1_all": Variant("all", True),
    "stage2_finetune_all": Variant("head", True, {"stage2_freeze": False}),
    "stage2_unbalanced": Variant("head", True, {"stage2_balance": False}),
}


@dataclass(frozen=True)
class StagePlan:
    """Learning-rate schedule and epoch budget for one training stage.

    ``step`` holds ``lr_start`` and drops to ``lr_end`` at 90% of the step
    budget; ``linear`` interpolates from ``lr_start`` to ``lr_end``.
    """

    lr_start: float
    lr_end: float
    schedule: str = "step"
    epochs: int = 1

    def __post_init__(self):
        if self.lr_start <= 0 or self.lr_end <= 0:
            raise ValueError("learning rates must be positive")
        if self.schedule not in ("step", "linear"):
            raise ValueError(f"unknown schedule {self.schedule!r}")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")

    def learning_rate(self, step: int, total_steps: int) -> float:
        if self.schedule == "linear":
            if total_steps <= 1:
                return self.lr_start
            t = step / (total_steps - 1)
            return self.lr_start + (self.lr_end - self.lr_start) * t
        return self.lr_start if step < 0.9 * total_steps else self.lr_end


@dataclass(frozen=True)
class TrainConfig:
    hidden_dim: int = 32
    embedding_dim: int = 16
    batch_size: int = 128
    seed: int = 0
    loss: str = "bce"  # "bce" | "focal"
    focal_gamma: float = 2.0
    stage1: StagePlan = StagePlan(0.05, 0.005, "step", 12)
    stage2: StagePlan = StagePlan(0.001, 0.0001, "linear", 1)
    stage2_freeze: bool = True
    stage2_balance: bool = True
    stage2_warm_start: bool = False

    def __post_init__(self):
        if self.hidden_dim < 1 or self.embedding_dim < 1:
            raise ValueError("hidden_dim and embedding_dim must be at least 1")
        if self.loss not in ("bce", "focal"):
            raise ValueError(f"unknown loss {self.loss!r}")
        if self.focal_gamma < 0:
            raise ValueError("focal_gamma must be non-negative")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")


@dataclass
class ModelParams:
    """Extractor weights (w1, b1, w2, b2) plus the linear head (head_w rows
    are per-category weight vectors)."""

    w1: np.ndarray  # (feature_dim, hidden_dim)
    b1: np.ndarray  # (hidden_dim,)
    w2: np.ndarray  # (hidden_dim, embedding_dim)
    b2: np.ndarray  # (embedding_dim,)
    head_w: np.ndarray  # (n_categories, embedding_dim)
    head_b: np.ndarray  # (n_categories,)

    @property
    def dims(self) -> dict[str, int]:
        return {
            "feature_dim": self.w1.shape[0],
            "hidden_dim": self.w1.shape[1],
            "embedding_dim": self.w2.shape[1],
            "n_categories": self.head_w.shape[0],
        }

    def copy(self) -> "ModelParams":
        return ModelParams(*(getattr(self, f.name).copy() for f in dataclasses.fields(self)))


@dataclass(frozen=True)
class LossValue:
    """A scalar loss together with its gradient for every parameter."""

    value: float
    grads: ModelParams


def init_params(
    feature_dim: int,
    hidden_dim: int,
    embedding_dim: int,
    n_categories: int,
    seed: int = 0,
) -> ModelParams:
    rng = np.random.default_rng(mix_seed(seed, 11))
    scale = lambda fan_in: 1.0 / np.sqrt(fan_in)
    return ModelParams(
        w1=rng.normal(0.0, scale(feature_dim), size=(feature_dim, hidden_dim)),
        b1=np.zeros(hidden_dim),
        w2=rng.normal(0.0, scale(hidden_dim), size=(hidden_dim, embedding_dim)),
        b2=np.zeros(embedding_dim),
        head_w=rng.normal(0.0, scale(embedding_dim), size=(n_categories, embedding_dim)),
        head_b=np.zeros(n_categories),
    )


def reinit_head(params: ModelParams, seed: int) -> ModelParams:
    rng = np.random.default_rng(mix_seed(seed, 13))
    fresh = params.copy()
    fresh.head_w = rng.normal(
        0.0, 1.0 / np.sqrt(params.w2.shape[1]), size=params.head_w.shape
    )
    fresh.head_b = np.zeros_like(params.head_b)
    return fresh


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # exp only ever sees -|z|, so it cannot overflow
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def embed(params: ModelParams, features: np.ndarray) -> np.ndarray:
    features = np.atleast_2d(np.asarray(features, dtype=np.float64))
    if features.shape[1] != params.w1.shape[0]:
        raise DimMismatch(
            f"feature dim {features.shape[1]} != model input dim {params.w1.shape[0]}"
        )
    hidden = np.tanh(features @ params.w1 + params.b1)
    return hidden @ params.w2 + params.b2


def head_probabilities(params: ModelParams, embeddings: np.ndarray) -> np.ndarray:
    z = embeddings @ params.head_w.T + params.head_b
    return np.clip(_sigmoid(z), PROB_EPS, 1.0 - PROB_EPS)


def forward(params: ModelParams, features: np.ndarray) -> np.ndarray:
    """Per-category probabilities, shape (n_examples, n_categories)."""
    return head_probabilities(params, embed(params, features))


def _bce_terms(p: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-entry binary cross-entropy of probabilities already clipped to
    [PROB_EPS, 1 - PROB_EPS], and its derivative in the probabilities."""
    return -(y * np.log(p) + (1.0 - y) * np.log1p(-p)), (p - y) / (p * (1.0 - p))


def _focal_terms(
    p: np.ndarray, y: np.ndarray, gamma: float
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_bce_terms` of the focusing loss."""
    if gamma < 0:
        raise ValueError("gamma must be non-negative")
    p_t = np.where(y > 0.5, p, 1.0 - p)
    focus = (1.0 - p_t) ** gamma
    dl_dpt = gamma * (1.0 - p_t) ** (gamma - 1.0) * np.log(p_t) - focus / p_t
    return -focus * np.log(p_t), np.where(y > 0.5, dl_dpt, -dl_dpt)


def _mean_loss(probabilities, targets, terms, *args) -> tuple[float, np.ndarray]:
    p = np.clip(np.asarray(probabilities, dtype=np.float64), PROB_EPS, 1.0 - PROB_EPS)
    entries, slope = terms(p, np.asarray(targets, dtype=np.float64), *args)
    return float(np.mean(entries)), slope / p.size


def bce_loss(
    probabilities: np.ndarray, targets: np.ndarray
) -> tuple[float, np.ndarray]:
    """Per-category binary cross-entropy, averaged over every entry.

    Returns the loss and its gradient with respect to the probabilities.
    """
    return _mean_loss(probabilities, targets, _bce_terms)


def focal_loss(
    probabilities: np.ndarray, targets: np.ndarray, gamma: float = 2.0
) -> tuple[float, np.ndarray]:
    """Focusing loss: cross-entropy scaled by (1 - p_t)^gamma, which
    down-weights well-classified entries. Reduces exactly to
    :func:`bce_loss` at gamma = 0."""
    return _mean_loss(probabilities, targets, _focal_terms, gamma)


def head_gradient(
    probabilities: np.ndarray,
    targets: np.ndarray,
    columns: np.ndarray | None,
    loss: str,
    gamma: float,
) -> tuple[float, np.ndarray]:
    """Loss over the given category columns (all when None; distinct
    ``intp`` indices, as :func:`_mask_columns` returns them) and its
    gradient with respect to the head logits, zero outside the columns.

    ``probabilities`` come from :func:`head_probabilities`, already clipped.
    """
    if columns is None:
        p_used, y_used = probabilities, targets
    else:
        p_used, y_used = probabilities[:, columns], targets[:, columns]
    if loss == "bce":
        entries, slope = _bce_terms(p_used, y_used)
    elif loss == "focal":
        entries, slope = _focal_terms(p_used, y_used, gamma)
    else:
        raise ValueError(f"unknown loss {loss!r}")
    # summed down the columns, the order np.mean reads a column gather in:
    # the loss is bce_loss (focal_loss) of the gathered columns to the bit
    value = float(np.asfortranarray(entries).sum() / entries.size)
    dz_used = slope / entries.size * p_used * (1.0 - p_used)
    if columns is None:
        return value, dz_used
    dz = np.zeros_like(probabilities)
    dz[:, columns] = dz_used
    return value, dz


def _mask_columns(
    category_mask: Sequence[int] | None, n_categories: int
) -> np.ndarray | None:
    """A category mask as sorted ``intp`` columns (None stays None).

    Raises ValueError for an empty mask, and for an entry that is not an
    integer, lies outside ``[0, n_categories)`` or repeats.
    """
    if category_mask is None:
        return None
    entries = list(category_mask)
    if not entries:
        raise ValueError("category_mask selects no category")
    for c in entries:
        if isinstance(c, (bool, np.bool_)) or not isinstance(c, (int, np.integer)):
            raise ValueError(f"category_mask entry {c!r} is not an integer")
        if not 0 <= c < n_categories:
            raise ValueError(f"category_mask entry {c} is outside [0, {n_categories})")
    columns = np.array(sorted(entries), dtype=np.intp)
    repeated = columns[1:][columns[1:] == columns[:-1]]
    if len(repeated):
        raise ValueError(f"category_mask repeats entry {repeated[0]}")
    return columns


def model_loss(
    params: ModelParams,
    features: np.ndarray,
    targets: np.ndarray,
    loss: str = "bce",
    gamma: float = 2.0,
    category_mask: Sequence[int] | None = None,
) -> LossValue:
    """Loss over a batch plus analytic gradients for all parameters.

    With a category mask, the loss averages over the masked categories only
    and every other category receives an exactly zero gradient; the mask is
    checked as :func:`sgd_train` checks it.
    """
    return _backprop(
        params,
        np.atleast_2d(np.asarray(features, dtype=np.float64)),
        np.atleast_2d(np.asarray(targets, dtype=np.float64)),
        loss,
        gamma,
        _mask_columns(category_mask, params.head_w.shape[0]),
    )


def _backprop(
    params: ModelParams,
    features: np.ndarray,
    y: np.ndarray,
    loss: str,
    gamma: float,
    columns: np.ndarray | None,
) -> LossValue:
    """:func:`model_loss` of 2-D float64 arrays and checked columns."""
    hidden = np.tanh(features @ params.w1 + params.b1)
    embeddings = hidden @ params.w2 + params.b2
    probs = head_probabilities(params, embeddings)
    value, dz = head_gradient(probs, y, columns, loss, gamma)

    g_head_w = dz.T @ embeddings
    g_head_b = dz.sum(axis=0)
    d_emb = dz @ params.head_w
    g_w2 = hidden.T @ d_emb
    g_b2 = d_emb.sum(axis=0)
    d_hidden = (d_emb @ params.w2.T) * (1.0 - hidden**2)
    g_w1 = features.T @ d_hidden
    g_b1 = d_hidden.sum(axis=0)
    return LossValue(
        value, ModelParams(g_w1, g_b1, g_w2, g_b2, g_head_w, g_head_b)
    )


def sgd_train(
    params: ModelParams,
    features: np.ndarray,
    targets: np.ndarray,
    plan: StagePlan,
    batch_size: int = 128,
    seed: int = 0,
    category_mask: Sequence[int] | None = None,
    head_only: bool = False,
    loss: str = "bce",
    gamma: float = 2.0,
    history: list | None = None,
) -> ModelParams:
    """Mini-batch SGD over seeded shuffles; pure function of its inputs.

    ``head_only`` freezes the extractor: embeddings are computed once and
    only the linear head is updated.
    """
    features = np.asarray(features, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if len(features) == 0:
        raise ValueError("training set is empty")
    columns = _mask_columns(category_mask, targets.shape[1])
    params = params.copy()
    cached = embed(params, features) if head_only else None

    n = len(features)
    batches = -(-n // batch_size)
    total_steps = plan.epochs * batches
    step = 0
    for epoch in range(plan.epochs):
        order = np.random.default_rng(mix_seed(seed, 101 + epoch)).permutation(n)
        epoch_loss = 0.0
        for b in range(batches):
            rows = order[b * batch_size : (b + 1) * batch_size]
            lr = plan.learning_rate(step, total_steps)
            if head_only:
                e_batch = cached[rows]
                value, dz = head_gradient(
                    head_probabilities(params, e_batch), targets[rows], columns, loss, gamma
                )
                grads = {"head_w": dz.T @ e_batch, "head_b": dz.sum(axis=0)}
            else:
                result = _backprop(
                    params, features[rows], targets[rows], loss, gamma, columns
                )
                value, grads = result.value, vars(result.grads)
            if not np.isfinite(value):
                raise NonFiniteLoss(
                    f"non-finite loss at epoch {epoch}, step {step}, lr {lr}"
                )
            for name, grad in grads.items():
                weights = getattr(params, name)
                weights -= lr * grad
            epoch_loss += value
            step += 1
        if history is not None:
            history.append(
                {
                    "epoch": epoch,
                    "loss": epoch_loss / batches,
                    "lr": plan.learning_rate(step - 1, total_steps),
                }
            )
    return params


def resolve_variant(
    variant: str, config: TrainConfig
) -> tuple[TrainConfig, str, str | None]:
    """The config a variant trains with and the example sets its stages
    train on (``all``, ``head`` or ``balanced``; None without a second
    stage)."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {tuple(VARIANTS)}")
    stage1, second_stage, overrides = VARIANTS[variant]
    config = dataclasses.replace(config, **overrides)
    stage2 = ("balanced" if config.stage2_balance else "all") if second_stage else None
    return config, stage1, stage2


def _example_rows(
    dataset: FeatureDataset, example_set: str, split: HeadTailSplit | None, seed: int
) -> list[int] | np.ndarray | slice:
    """The dataset rows of ``example_set``: every row (``all``), the rows
    carrying a head category (``head``), or the oversampled balanced
    multiset seeded by ``mix_seed(seed, 2)`` (``balanced``)."""
    if example_set == "balanced":
        return oversample_balance(dataset, seed=mix_seed(seed, 2))
    if example_set == "all":
        return slice(None)
    if not split.head:
        raise EmptyHead("split has no head categories")
    rows = np.flatnonzero(dataset.targets[:, sorted(split.head)].any(axis=1))
    if not len(rows):
        raise EmptyHead("no training examples carry a head category")
    return rows


#: The :class:`TrainConfig` fields that only a second stage reads.
_STAGE2_FIELDS = ("stage2", "stage2_freeze", "stage2_balance", "stage2_warm_start")


def stage1_key(config: TrainConfig, stage1_set: str) -> tuple:
    """Everything :func:`train_stage1` reads besides the dataset and the
    split: on the same dataset and split, equal keys train bitwise-equal
    stage-1 weights."""
    defaults = TrainConfig()
    return stage1_set, dataclasses.replace(
        config, **{name: getattr(defaults, name) for name in _STAGE2_FIELDS}
    )


def _train_stage(stage, params, dataset, rows, config, plan, history, **options):
    stage_history: list = []
    params = sgd_train(
        params,
        dataset.features[rows],
        dataset.targets[rows],
        plan,
        batch_size=config.batch_size,
        seed=mix_seed(config.seed, 2 * stage - 1),  # 2 seeds the balancer
        loss=config.loss,
        gamma=config.focal_gamma,
        history=stage_history,
        **options,
    )
    if history is not None:
        history.extend({"stage": stage, **h} for h in stage_history)
    return params


def stage1_mask(split: HeadTailSplit | None, stage1_set: str) -> list[int] | None:
    """The categories stage 1's loss covers on ``stage1_set``: the head
    categories on ``head``, every category (None) on the others."""
    return sorted(split.head) if stage1_set == "head" else None


def train_stage1(
    dataset: FeatureDataset,
    rows: list[int] | np.ndarray | slice,
    config: TrainConfig,
    category_mask: Sequence[int] | None = None,
    history: list | None = None,
) -> ModelParams:
    """Stage 1: a fresh model trained on the dataset rows ``rows``, its loss
    over the categories of ``category_mask`` (all when None)."""
    params = init_params(
        dataset.features.shape[1],
        config.hidden_dim,
        config.embedding_dim,
        dataset.n_categories,
        seed=config.seed,
    )
    return _train_stage(
        1, params, dataset, rows, config, config.stage1, history,
        category_mask=category_mask,
    )


def train_stage2(
    dataset: FeatureDataset,
    rows: list[int] | np.ndarray | slice,
    config: TrainConfig,
    params: ModelParams,
    history: list | None = None,
) -> ModelParams:
    """Stage 2: retrain the head of the stage-1 ``params`` (left unchanged)
    on the dataset rows ``rows``; the head starts fresh unless
    ``stage2_warm_start``, and the extractor is frozen while
    ``stage2_freeze``."""
    if not config.stage2_warm_start:
        params = reinit_head(params, seed=config.seed)
    return _train_stage(
        2, params, dataset, rows, config, config.stage2, history,
        head_only=config.stage2_freeze,
    )


def run_ablation(
    dataset: FeatureDataset,
    split: HeadTailSplit | None,
    variant: str,
    config: TrainConfig = TrainConfig(),
    history: list | None = None,
) -> ModelParams:
    """Train one of the compared schemata; all variants share the config and
    seed so their results are directly comparable.

    Two-stage variants require a ``split``; single-stage ones train
    without it. A given split must cover the dataset's categories exactly,
    whatever the variant.
    """
    config, stage1_set, stage2_set = resolve_variant(variant, config)
    if split is None:
        if stage2_set is not None:
            raise EmptyHead(f"variant {variant!r} needs a head/tail split")
    elif split.categories != frozenset(range(dataset.n_categories)):
        raise CategoryMismatch("head/tail split does not cover the dataset's categories")
    rows = _example_rows(dataset, stage1_set, split, config.seed)
    params = train_stage1(dataset, rows, config, stage1_mask(split, stage1_set), history)
    if stage2_set is None:
        return params
    rows = _example_rows(dataset, stage2_set, split, config.seed)
    return train_stage2(dataset, rows, config, params, history)


@dataclass(frozen=True)
class EvalReport:
    categories: tuple[CategoryEvaluation, ...]
    aggregates: dict[str, dict]

    def to_dict(self) -> dict:
        return {
            "categories": [c.to_dict() for c in self.categories],
            "aggregates": self.aggregates,
        }

    def ap_by_category(self) -> dict[int, float]:
        return {c.category: c.ap for c in self.categories if c.ap is not None}


def _group_aggregate(
    evals: Sequence[CategoryEvaluation], min_examples: int
) -> dict:
    """mSAP and mAP of a category group, both None when no record is
    eligible."""
    try:
        eligible = _eligible(evals, min_examples)
    except NoEligibleCategories:
        return {"msap": None, "map": None, "categories": len(evals), "eligible": 0}
    return {
        "msap": msap(eligible, min_examples),
        "map": mean_ap(eligible, min_examples),
        "categories": len(evals),
        "eligible": len(eligible),
    }


def score_pools(
    pools: Mapping[int, EvalPool], sap_config: SapConfig
) -> tuple[CategoryEvaluation, ...]:
    """AP and sampled AP of each pool, from one ranking of it, in category
    order. A category without positives carries null metrics. Category c's
    trials are seeded with ``mix_seed(sap_config.seed, 1000 + c)``, so its
    result does not depend on which other categories are scored."""
    evals = []
    for c, pool in sorted(pools.items()):
        if pool.n_pos == 0:
            evals.append(CategoryEvaluation(c, 0, pool.n_neg, None, None))
            continue
        trial_config = dataclasses.replace(sap_config, seed=mix_seed(sap_config.seed, 1000 + c))
        sap = sampled_ap(pool, trial_config)
        evals.append(CategoryEvaluation(c, pool.n_pos, pool.n_neg, sap.ap, sap))
    return tuple(evals)


def evaluate_model(
    params: ModelParams,
    dataset: FeatureDataset,
    sap_config: SapConfig = SapConfig(),
    split: HeadTailSplit | None = None,
    min_examples: int = 1,
) -> EvalReport:
    """Score a dataset and report AP and sampled AP per category, with
    unweighted aggregates over all categories and, when a split is given,
    over head and tail separately.

    Categories without positives in the split are listed but carry null
    metrics.
    """
    if params.head_w.shape[0] < dataset.n_categories:
        raise DimMismatch(
            f"model scores {params.head_w.shape[0]} categories, "
            f"dataset has {dataset.n_categories}"
        )
    x = dataset.features
    scores = np.vstack(
        [forward(params, x[i : i + EVAL_BATCH_SIZE]) for i in range(0, len(x), EVAL_BATCH_SIZE)]
    )
    pools = pools_from_scores(scores[:, : dataset.n_categories], dataset.targets)
    evals = score_pools(pools, sap_config)

    aggregates = {"all": _group_aggregate(evals, min_examples)}
    if split is not None:
        aggregates["head"] = _group_aggregate(
            [e for e in evals if e.category in split.head], min_examples
        )
        aggregates["tail"] = _group_aggregate(
            [e for e in evals if e.category in split.tail], min_examples
        )
    return EvalReport(evals, aggregates)


def config_hash(config: TrainConfig) -> str:
    canonical = json.dumps(dataclasses.asdict(config), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def checkpoint_text(params: ModelParams, training: dict) -> str:
    """The checkpoint file's text: weights, dims and training record."""
    payload = {
        "format_version": 1,
        "dims": params.dims,
        "weights": {
            f.name: getattr(params, f.name).tolist()
            for f in dataclasses.fields(params)
        },
        "training": training,
    }
    return json.dumps(payload, indent=1, sort_keys=True)
