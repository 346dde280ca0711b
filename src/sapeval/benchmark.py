"""Reference synthetic benchmark: a desk-scale end-to-end comparison of the
training schemata on Zipf-imbalanced Gaussian-cluster data.

Every variant gets the same optimizer budget, counted in SGD steps rather
than epochs: balancing inflates the training multiset severalfold, and
comparing schemata at equal wall effort is what makes the trade-off
visible (the balanced multiset spends most of its steps on duplicates).
The head/tail partition is ``datasets.count_split``, the top half of the
categories by training count; the rarest categories are the ones a plain
schedule under-serves.
Each seed's variants train through one :class:`~sapeval.training.Ablation`,
which builds each example set once and shares each distinct stage 1.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from .datasets import HeadTailSplit, ZipfSpec, count_split, synthesize_dataset
# not called here; perfbench/tracing.py wraps it under this name
from .datasets import oversample_balance  # noqa: F401
from .sampling import SapConfig
from .training import Ablation, EvalReport, StagePlan, TrainConfig, evaluate_model, resolve_variant

#: The dataset shape used throughout the benchmark.
REFERENCE_SPEC = ZipfSpec(
    n_categories=20,
    exponent=1.2,
    max_count=2000,
    min_count=2,
    feature_dim=16,
    cluster_spread=0.8,
    multilabel_rate=0.1,
)

REFERENCE_FRACTIONS = (0.6, 0.2, 0.2)

#: SGD budgets (steps) shared by every variant: representation stage and
#: classifier-retraining stage.
STAGE1_STEPS = 400
STAGE2_STEPS = 500
BATCH_SIZE = 128

DEFAULT_VARIANTS = (
    "baseline_plain",
    "naive_balanced",
    "two_stage",
    "stage2_unbalanced",
)


def epochs_for_budget(n_examples: int, batch_size: int, budget_steps: int) -> int:
    """Whole-epoch count closest to the step budget for a given set size."""
    batches = -(-n_examples // batch_size)
    return max(1, round(budget_steps / batches))


def variant_config(
    variant: str,
    seed: int,
    n_train: int,
    n_head_examples: int,
    n_balanced: int,
) -> TrainConfig:
    """Per-variant schedule derived from the shared step budgets: each
    stage gets the epochs its example set needs to spend the budget."""
    _, stage1_set, stage2_set = resolve_variant(variant, TrainConfig())
    sizes = {"all": n_train, "head": n_head_examples, "balanced": n_balanced}
    stage1_n, stage2_n = sizes[stage1_set], sizes[stage2_set or "all"]
    return TrainConfig(
        hidden_dim=32,
        embedding_dim=16,
        batch_size=BATCH_SIZE,
        seed=seed,
        stage1=StagePlan(
            1.0, 0.1, "step", epochs_for_budget(stage1_n, BATCH_SIZE, STAGE1_STEPS)
        ),
        stage2=StagePlan(
            5.0, 0.5, "linear", epochs_for_budget(stage2_n, BATCH_SIZE, STAGE2_STEPS)
        ),
    )


@dataclass
class BenchmarkResult:
    seed: int
    split: HeadTailSplit
    reports: dict[str, EvalReport] = field(default_factory=dict)

    def aggregate(self, variant: str, group: str) -> float | None:
        return self.reports[variant].aggregates[group]["msap"]

    def summary(self) -> dict:
        return {
            "seed": self.seed,
            "head": sorted(self.split.head),
            "tail": sorted(self.split.tail),
            "msap": {
                variant: {
                    group: report.aggregates[group]["msap"]
                    for group in ("all", "head", "tail")
                }
                for variant, report in self.reports.items()
            },
        }


def run_benchmark(
    seed: int,
    variants: tuple[str, ...] = DEFAULT_VARIANTS,
    sap_trials: int = 15,
) -> BenchmarkResult:
    spec = dataclasses.replace(REFERENCE_SPEC, seed=seed)
    splits = synthesize_dataset(spec, REFERENCE_FRACTIONS)
    train, val = splits["train"], splits["val"]
    split = count_split(train)
    ablation = Ablation(train, split)
    n_head, n_balanced = (len(ablation.rows(name, seed)) for name in ("head", "balanced"))

    result = BenchmarkResult(seed=seed, split=split)
    sap_config = SapConfig(n_trials=sap_trials, seed=seed)
    for variant in variants:
        config = variant_config(variant, seed, len(train), n_head, n_balanced)
        params = ablation.train(variant, config)
        result.reports[variant] = evaluate_model(
            params, val, sap_config, split=split, min_examples=1
        )
    return result


#: (name, variant a, variant b, group, negated): the claim that a's mSAP on
#: the group is above b's, or with ``negated`` that it is not.
ORDERING_CLAIMS = (
    ("tail_two_stage_gt_baseline", "two_stage", "baseline_plain", "tail", False),
    ("all_two_stage_gt_naive_balanced", "two_stage", "naive_balanced", "all", False),
    ("head_two_stage_ge_naive_balanced", "naive_balanced", "two_stage", "head", True),
    ("tail_unbalanced_lt_balanced", "two_stage", "stage2_unbalanced", "tail", False),
)


def ordering_checks(result: BenchmarkResult) -> dict[str, bool]:
    """The directional claims the benchmark is expected to reproduce, for
    the claims whose two variants both ran."""

    def above(a, b, group):
        x, y = result.aggregate(a, group), result.aggregate(b, group)
        return x is not None and y is not None and x > y

    return {
        name: above(a, b, group) != negated
        for name, a, b, group, negated in ORDERING_CLAIMS
        if a in result.reports and b in result.reports
    }
