"""Small multi-label classifier and the training schemata compared in the
long-tail study.

The model is a two-layer feature extractor (tanh between the layers)
feeding a per-category logistic head. Training reads the head's logits
(:func:`logit_loss`), so its loss does not cap at saturated logits. Gradients
are written out by hand so they can be validated against finite differences.

Every compared schema is one row of :data:`VARIANTS`, trained by
:class:`Ablation`: the example set stage 1 trains on (all, head or
balanced), whether a second stage retrains a fresh head on the balanced
set with the extractor frozen, and the config fields it overrides. On the
head set, stage 1 trains a classifier of the head categories only: the
other categories' head rows keep their initial values, which a
warm-started second stage starts from. :func:`sgd_train` itself knows no
categories; it trains one head row per target column.
``two_stage`` is the head-to-tail transfer schema; ``baseline_plain``,
``naive_balanced`` and ``focal`` are its single-stage baselines, and
``stage1_all``, ``stage2_finetune_all`` and ``stage2_unbalanced`` its
ablations. One :class:`Ablation` per dataset and split builds each example
set once and trains each distinct stage 1 once, sharing it between the
variants that train it, so a variant trains the same weights whether it
runs alone (``Ablation(dataset, split).train(variant, config)``) or
beside others. :func:`evaluate_model` scores a model's pools with
:func:`~sapeval.sampling.score_pools`, the scorer of ``sapeval sap``, and
aggregates them over all, head and tail categories.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .datasets import FeatureDataset, HeadTailSplit, oversample_balance
from .errors import CategoryMismatch, DimMismatch, EmptyHead, NonFiniteLoss
from .metrics import CategoryEvaluation
from .pools import pools_from_scores
from .sampling import SapConfig, _group_aggregate, mix_seed, score_pools
# not called here; perfbench/tracing.py wraps them under these names
from .metrics import average_precision  # noqa: F401
from .sampling import sampled_ap  # noqa: F401

#: The scores of :func:`forward` are kept this far from {0, 1}; training never clips.
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
        for name in ("lr_start", "lr_end"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive")
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
        if not 0 <= self.focal_gamma < math.inf:
            raise ValueError("focal_gamma must be finite and non-negative")
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


def logit_loss(
    z: np.ndarray, y: np.ndarray, loss: str, gamma: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per-entry loss of head logits ``z`` against 0/1 targets ``y`` and its
    derivative in ``z``, both from ``e = exp(-|z|)``, which cannot overflow.
    ``bce`` is ``max(z, 0) - z*y + log1p(e)``, slope ``sigmoid(z) - y``.
    ``focal`` is ``-(1 - p_t)^gamma * log p_t`` at the true label's logit
    ``z_t = +-z``, with ``log p_t = -(max(-z_t, 0) + log1p(e))``, slope
    ``+-(1 - p_t)^gamma * (gamma * p_t * log p_t - (1 - p_t))``."""
    e = np.exp(-np.abs(z))
    log1p_e = np.log1p(e)
    if loss == "bce":
        slope = np.where(z >= 0, 1.0, e)
        slope /= 1.0 + e
        slope -= y
        return np.maximum(z, 0.0) - z * y + log1p_e, slope
    if loss != "focal":
        raise ValueError(f"unknown loss {loss!r}")
    if not 0 <= gamma < math.inf:
        raise ValueError("gamma must be finite and non-negative")
    sign = np.where(y > 0.5, 1.0, -1.0)
    z_t = sign * z
    right = z_t >= 0
    p_t = np.where(right, 1.0, e) / (1.0 + e)
    miss = np.where(right, e, 1.0) / (1.0 + e)  # 1 - p_t, without the cancellation
    log_pt = -(np.maximum(-z_t, 0.0) + log1p_e)
    focus = miss**gamma
    return -focus * log_pt, sign * focus * (gamma * p_t * log_pt - miss)


def _head_backprop(
    params: ModelParams,
    embeddings: np.ndarray,
    y: np.ndarray,
    loss: str,
    gamma: float,
    embedding_grad: bool = False,
) -> tuple[float, np.ndarray | None, dict[str, np.ndarray]]:
    """The mean loss of the head's logits against their targets ``y``, its
    gradient with respect to ``embeddings`` if ``embedding_grad`` (else
    None: a head-only step has no use for it) and the gradients of
    ``head_w`` and ``head_b``."""
    entries, slope = logit_loss(embeddings @ params.head_w.T + params.head_b, y, loss, gamma)
    dz = slope / entries.size
    grads = {"head_w": dz.T @ embeddings, "head_b": dz.sum(axis=0)}
    d_emb = dz @ params.head_w if embedding_grad else None
    return float(entries.sum()) / entries.size, d_emb, grads


def _backprop(
    params: ModelParams, features: np.ndarray, y: np.ndarray, loss: str, gamma: float
) -> tuple[float, ModelParams]:
    """Loss over a batch of 2-D float64 arrays plus analytic gradients for
    all parameters."""
    hidden = np.tanh(features @ params.w1 + params.b1)
    embeddings = hidden @ params.w2 + params.b2
    value, d_emb, head = _head_backprop(params, embeddings, y, loss, gamma, embedding_grad=True)

    g_w2 = hidden.T @ d_emb
    g_b2 = d_emb.sum(axis=0)
    d_hidden = (d_emb @ params.w2.T) * (1.0 - hidden**2)
    g_w1 = features.T @ d_hidden
    g_b1 = d_hidden.sum(axis=0)
    return value, ModelParams(g_w1, g_b1, g_w2, g_b2, **head)


def sgd_train(
    params: ModelParams,
    features: np.ndarray,
    targets: np.ndarray,
    plan: StagePlan,
    batch_size: int = 128,
    seed: int = 0,
    head_only: bool = False,
    loss: str = "bce",
    gamma: float = 2.0,
    history: list | None = None,
    rows: np.ndarray | None = None,
) -> ModelParams:
    """Mini-batch SGD over seeded shuffles; pure function of its inputs.

    The training examples are ``rows``, a 1-D integer array of indices into
    ``features`` and ``targets`` that may repeat or omit any of them (by
    default every row once); training on ``rows`` gives the same bits as
    training on ``features[rows]`` and ``targets[rows]``, without their copy.
    Each column of ``targets`` is the target of the head row of the same
    index, so ``params`` has one head row per column; ``features`` and
    ``targets`` of any other shape are a ``DimMismatch``. ``head_only`` freezes
    the extractor: each row of ``features`` is embedded once, however often
    ``rows`` repeats it, and only the linear head is updated.
    """
    features = np.asarray(features, dtype=np.float64)
    targets = np.asarray(targets)  # a dataset's bool targets become float per batch
    rows = np.arange(len(features)) if rows is None else np.asarray(rows)
    if rows.size == 0:
        raise ValueError("training set is empty")
    if features.shape[1:] != params.w1.shape[:1]:
        raise DimMismatch(f"features {features.shape} != model input dim {params.w1.shape[0]}")
    if targets.shape != (len(features), len(params.head_b)):
        raise DimMismatch(f"targets {targets.shape} != ({len(features)} examples, "
                          f"{len(params.head_b)} head rows)")
    if rows.ndim != 1 or not np.issubdtype(rows.dtype, np.integer):
        raise ValueError(f"rows must be a 1-D array of integer indices, not {rows.dtype} "
                         f"of shape {rows.shape}")
    if rows.min() < 0 or rows.max() >= len(features):
        raise ValueError(f"rows must lie in [0, {len(features)})")
    params = params.copy()
    inputs = embed(params, features) if head_only else features
    # each epoch's rows are gathered once into the same buffers, so a batch is a
    # contiguous slice; "clip" (a no-op on the checked rows) spares np.take a temporary
    n = len(rows)
    shuffled_inputs = np.empty((n, inputs.shape[1]))
    shuffled_targets = np.empty((n, targets.shape[1]), targets.dtype)

    batches = -(-n // batch_size)
    total_steps = plan.epochs * batches
    step = 0
    for epoch in range(plan.epochs):
        order = rows[np.random.default_rng(mix_seed(seed, 101 + epoch)).permutation(n)]
        np.take(inputs, order, axis=0, out=shuffled_inputs, mode="clip")
        np.take(targets, order, axis=0, out=shuffled_targets, mode="clip")
        epoch_loss = 0.0
        for b in range(batches):
            batch = slice(b * batch_size, (b + 1) * batch_size)
            lr = plan.learning_rate(step, total_steps)
            x, y = shuffled_inputs[batch], shuffled_targets[batch].astype(np.float64)
            if head_only:
                value, _, grads = _head_backprop(params, x, y, loss, gamma)
            else:
                value, grads = _backprop(params, x, y, loss, gamma)
                grads = vars(grads)
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


#: The :class:`TrainConfig` fields that only a second stage reads.
_STAGE2_FIELDS = ("stage2", "stage2_freeze", "stage2_balance", "stage2_warm_start")


class Ablation:
    """The compared schemata on one dataset and split, which must cover
    the dataset's categories exactly (``None`` serves single-stage
    variants only).

    Each example set is built once per seed, and each distinct stage 1
    is trained once: variants whose stage-1 example set and config agree
    outside the stage-2 fields share its weights and its history entries.
    Stage 2 trains a copy, so the shared weights never change.
    """

    def __init__(self, dataset: FeatureDataset, split: HeadTailSplit | None):
        if split is not None and split.categories != frozenset(range(dataset.n_categories)):
            raise CategoryMismatch("head/tail split does not cover the dataset's categories")
        self.dataset, self.split = dataset, split
        self._rows: dict = {}
        self._stage1: dict = {}

    def rows(self, example_set: str, seed: int) -> np.ndarray:
        """The dataset rows of ``example_set``, as int64 indices: every row
        (``all``), the rows carrying a head category (``head``), or the
        oversampled balanced multiset seeded by ``mix_seed(seed, 2)``
        (``balanced``)."""
        key = example_set, seed
        if key not in self._rows:
            if example_set == "balanced":
                rows = np.array(oversample_balance(self.dataset, seed=mix_seed(seed, 2)),
                                dtype=np.int64)
            elif example_set == "all":
                rows = np.arange(len(self.dataset))
            else:
                if self.split is None or not self.split.head:
                    raise EmptyHead("split has no head categories")
                head = self.dataset.targets[:, sorted(self.split.head)]
                rows = np.flatnonzero(head.any(axis=1))
                if not len(rows):
                    raise EmptyHead("no training examples carry a head category")
            self._rows[key] = rows
        return self._rows[key]

    def train(self, variant: str, config: TrainConfig, history: list | None = None) -> ModelParams:
        """The weights ``variant`` trains under ``config``; ``history``
        receives one entry per epoch of each stage."""
        config, stage1_set, stage2_set = resolve_variant(variant, config)
        if stage2_set is not None and self.split is None:
            raise EmptyHead(f"variant {variant!r} needs a head/tail split")
        defaults = TrainConfig()
        key = stage1_set, dataclasses.replace(
            config, **{name: getattr(defaults, name) for name in _STAGE2_FIELDS}
        )
        if key not in self._stage1:
            params = init_params(self.dataset.features.shape[1], config.hidden_dim,
                                 config.embedding_dim, self.dataset.n_categories, config.seed)
            self._stage1[key] = self._stage(1, params, stage1_set, config, config.stage1)
        params, stage1_history = self._stage1[key]
        if history is not None:
            history.extend(dict(h) for h in stage1_history)
        if stage2_set is None:
            return params.copy()
        if not config.stage2_warm_start:
            params = reinit_head(params, seed=config.seed)
        params, stage2_history = self._stage(
            2, params, stage2_set, config, config.stage2, head_only=config.stage2_freeze
        )
        if history is not None:
            history.extend(stage2_history)
        return params

    def _stage(self, stage, params, example_set, config, plan, head_only=False):
        """``sgd_train`` of one stage on its example set (which leaves
        ``params`` unchanged), and its history entries. The stage reads the
        dataset's rows by index, copying none of them. It trains the
        classifier rows of the categories its set covers, the head
        categories on ``head`` and all of them otherwise; every other row
        keeps its value in ``params``."""
        covered = sorted(self.split.head) if example_set == "head" else slice(None)
        history: list = []
        trained = sgd_train(
            dataclasses.replace(params, head_w=params.head_w[covered],
                                head_b=params.head_b[covered]),
            self.dataset.features,
            self.dataset.targets[:, covered],
            plan,
            batch_size=config.batch_size,
            seed=mix_seed(config.seed, 2 * stage - 1),  # 2 seeds the balancer
            head_only=head_only,
            loss=config.loss,
            gamma=config.focal_gamma,
            history=history,
            rows=self.rows(example_set, config.seed),
        )
        head_w, head_b = params.head_w.copy(), params.head_b.copy()
        head_w[covered], head_b[covered] = trained.head_w, trained.head_b
        trained = dataclasses.replace(trained, head_w=head_w, head_b=head_b)
        return trained, [{"stage": stage, **h} for h in history]


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
