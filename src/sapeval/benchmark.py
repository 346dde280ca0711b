"""Reference synthetic benchmark: a desk-scale end-to-end comparison of the
training schemata on Zipf-imbalanced Gaussian-cluster data.

Every variant gets the same optimizer budget, counted in SGD steps rather
than epochs: balancing inflates the training multiset severalfold, and
comparing schemata at equal wall effort is what makes the trade-off
visible (the balanced multiset spends most of its steps on duplicates).
The head/tail partition is the top half of the categories by training
count; the rarest categories are the ones a plain schedule under-serves.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .datasets import FeatureDataset, HeadTailSplit, ZipfSpec, synthesize_dataset
# not called here; perfbench/tracing.py wraps it under this name
from .datasets import oversample_balance  # noqa: F401
from .sampling import SapConfig
from .training import (
    EvalReport,
    StagePlan,
    TrainConfig,
    _example_rows,
    evaluate_model,
    resolve_variant,
    stage1_key,
    stage1_mask,
    train_stage1,
    train_stage2,
)

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
#: Share of the categories, most frequent first, in ``count_split``'s head.
HEAD_FRACTION = 0.5

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


def count_split(dataset: FeatureDataset) -> HeadTailSplit:
    """Head = the most frequent half of the categories in this split."""
    counts = dataset.contains_counts()
    order = np.argsort(-counts, kind="stable")
    n_head = max(1, round(dataset.n_categories * HEAD_FRACTION))
    return HeadTailSplit(
        frozenset(int(c) for c in order[:n_head]),
        frozenset(int(c) for c in order[n_head:]),
        threshold=0.0,
    )


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
    # each example set built once; its size sets the variants' epochs
    rows = {name: _example_rows(train, name, split, seed) for name in ("all", "head", "balanced")}

    result = BenchmarkResult(seed=seed, split=split)
    sap_config = SapConfig(n_trials=sap_trials, seed=seed)
    stage1: dict = {}
    for variant in variants:
        # run_ablation's two stages, with each distinct stage 1 trained once
        config, stage1_set, stage2_set = resolve_variant(
            variant,
            variant_config(variant, seed, len(train), len(rows["head"]), len(rows["balanced"])),
        )
        key = stage1_key(config, stage1_set)
        if key not in stage1:
            mask = stage1_mask(split, stage1_set)
            stage1[key] = train_stage1(train, rows[stage1_set], config, mask)
        params = stage1[key].copy()
        if stage2_set is not None:
            params = train_stage2(train, rows[stage2_set], config, params)
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
