"""Synthetic long-tail feature datasets, oversampling, and the head/tail
category split.

The generator draws per-category Gaussian feature clusters whose sizes
follow a Zipf curve, producing the kind of imbalance (a handful of huge
categories, a long tail of tiny ones) that motivates balanced-sample
evaluation and two-stage training.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from itertools import chain
from typing import Mapping, Sequence

import numpy as np

from .errors import CategoryMismatch, EmptyCategory
from .sampling import mix_seed


#: The splits ``synthesize_dataset`` returns, in the order of its fractions.
SPLIT_NAMES = ("train", "val", "test")


class EmptySplitWarning(UserWarning):
    """A category has too few examples to appear in every split."""


@dataclass(frozen=True)
class ZipfSpec:
    """Shape of the synthetic dataset.

    Category k (0-indexed, most frequent first) gets
    ``clamp(round(max_count * (k+1)**-exponent), min_count, max_count)``
    examples, drawn from an isotropic Gaussian around a distinct unit-norm
    mean direction. With probability ``multilabel_rate`` an example picks
    up one extra co-occurring label, weighted by category frequency.
    """

    n_categories: int = 20
    exponent: float = 1.2
    max_count: int = 2000
    min_count: int = 2
    feature_dim: int = 16
    cluster_spread: float = 0.8
    multilabel_rate: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.n_categories < 1:
            raise ValueError("n_categories must be at least 1")
        if self.exponent < 0:
            raise ValueError("exponent must be non-negative")
        if not 1 <= self.min_count <= self.max_count:
            raise ValueError("need max_count >= min_count >= 1")
        if self.feature_dim < 1:
            raise ValueError("feature_dim must be at least 1")
        if self.cluster_spread <= 0:
            raise ValueError("cluster_spread must be positive")
        if not 0.0 <= self.multilabel_rate < 1.0:
            raise ValueError("multilabel_rate must lie in [0, 1)")


def label_pairs(labels: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """The example row and the label of every (example, label) pair, in
    example order, as two int64 arrays."""
    lengths = np.fromiter(map(len, labels), dtype=np.int64, count=len(labels))
    rows = np.repeat(np.arange(len(labels)), lengths)
    return rows, np.fromiter(chain.from_iterable(labels), dtype=np.int64, count=len(rows))


def multi_hot(labels: Sequence[Sequence[int]], n_categories: int) -> np.ndarray:
    """The n x K bool matrix of per-example label tuples: row i is true at
    example i's labels, which must lie in [0, K)."""
    rows, cols = label_pairs(labels)
    # fancy-index assignment would wrap a label of -1 to the last column
    if ((cols < 0) | (cols >= n_categories)).any():
        raise ValueError(f"labels must lie in [0, {n_categories})")
    targets = np.zeros((len(labels), n_categories), dtype=bool)
    targets[rows, cols] = True
    return targets


@dataclass(eq=False)
class FeatureDataset:
    """One split's examples as columns: row i of ``ids``, ``features``
    (n x d) and ``labels`` is example i, whose label tuple lists its
    generating (primary) category first. ``targets`` is the read-only
    n x K multi-hot matrix of those labels, built once."""

    ids: np.ndarray
    features: np.ndarray
    labels: Sequence[tuple[int, ...]]
    split: str
    n_categories: int
    targets: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.ids = np.asarray(self.ids, dtype=np.int64)
        self.features = np.asarray(self.features, dtype=np.float64)
        if not len(self.ids) == len(self.features) == len(self.labels):
            raise ValueError("ids, features and labels must have one row per example")
        if not all(self.labels):
            raise ValueError("every example needs a label")
        self.targets = multi_hot(self.labels, self.n_categories)
        self.targets.flags.writeable = False

    def __len__(self) -> int:
        return len(self.labels)

    def contains_counts(self) -> np.ndarray:
        """Per-category count of examples carrying each label."""
        return self.targets.sum(axis=0)


@dataclass(frozen=True)
class HeadTailSplit:
    """Disjoint partition of the categories into data-rich head and tail."""

    head: frozenset[int]
    tail: frozenset[int]
    threshold: float

    def __post_init__(self):
        if self.head & self.tail:
            raise ValueError("head and tail must be disjoint")

    @property
    def categories(self) -> frozenset[int]:
        return self.head | self.tail


def zipf_counts(spec: ZipfSpec) -> list[int]:
    """Per-category example counts along the Zipf curve, most frequent first."""
    return [
        min(
            max(round(spec.max_count * (k + 1) ** -spec.exponent), spec.min_count),
            spec.max_count,
        )
        for k in range(spec.n_categories)
    ]


def _cluster_means(spec: ZipfSpec, rng: np.random.Generator) -> np.ndarray:
    """Unit-norm cluster means kept apart by rejection sampling, so
    categories are learnable but mutually confusable."""
    min_cos = math.cos(math.radians(25.0))
    means: list[np.ndarray] = []
    for _ in range(spec.n_categories):
        threshold = min_cos
        while True:
            v = rng.normal(size=spec.feature_dim)
            norm = np.linalg.norm(v)
            if norm == 0.0:
                continue
            v /= norm
            if all(abs(float(v @ m)) < threshold for m in means):
                break
            threshold = 1.0 - 0.995 * (1.0 - threshold)  # relax a little, retry
            if threshold >= 1.0 - 1e-12:  # separation impossible at this dim
                break
        means.append(v)
    return np.stack(means)


def _split_sizes(count: int, fractions: Sequence[float]) -> list[int]:
    """Largest-remainder allocation; guarantees one example per split when
    the count permits."""
    raw = [count * f for f in fractions]
    sizes = [int(math.floor(r)) for r in raw]
    remainders = [r - s for r, s in zip(raw, sizes)]
    for _ in range(count - sum(sizes)):
        i = max(range(len(fractions)), key=lambda j: (remainders[j], -j))
        sizes[i] += 1
        remainders[i] = -1.0
    if count >= len(fractions):
        while min(sizes) == 0:
            sizes[sizes.index(max(sizes))] -= 1
            sizes[sizes.index(min(sizes))] += 1
    return sizes


def synthesize_dataset(
    spec: ZipfSpec,
    split_fractions: Sequence[float] = (0.7, 0.15, 0.15),
) -> dict[str, FeatureDataset]:
    """Generate Zipf-imbalanced Gaussian-cluster data, stratified per split:
    one fraction, and one dataset, for each of :data:`SPLIT_NAMES`.

    Deterministic for a given spec: the same seed reproduces the datasets
    bit-for-bit. Categories whose count is below the number of splits are
    flagged with :class:`EmptySplitWarning` and simply missing from some
    splits.
    """
    if len(split_fractions) != len(SPLIT_NAMES):
        raise ValueError(f"split_fractions needs one fraction for each of {SPLIT_NAMES}")
    if abs(sum(split_fractions) - 1.0) > 1e-9 or min(split_fractions) <= 0:
        raise ValueError("split fractions must be positive and sum to 1")

    counts = zipf_counts(spec)
    rng = np.random.default_rng(mix_seed(spec.seed, 0))
    means = _cluster_means(spec, rng)
    weights = np.asarray(counts, dtype=np.float64)

    # ids number the examples in generation order: category by category,
    # and within one, its permuted examples split by split
    blocks, labels, split_codes = [], [], []
    for k, count in enumerate(counts):
        features = means[k] + spec.cluster_spread * rng.normal(
            size=(count, spec.feature_dim)
        )
        category_labels: list[tuple[int, ...]] = []
        for _ in range(count):
            extra: tuple[int, ...] = ()
            if spec.multilabel_rate > 0 and rng.random() < spec.multilabel_rate:
                w = weights.copy()
                w[k] = 0.0
                if w.sum() > 0:
                    extra = (int(rng.choice(spec.n_categories, p=w / w.sum())),)
            category_labels.append((k, *extra))

        if count < len(SPLIT_NAMES):
            warnings.warn(
                f"category {k} has {count} examples for {len(SPLIT_NAMES)} splits",
                EmptySplitWarning,
                stacklevel=2,
            )
        order = rng.permutation(count)
        blocks.append(features[order])
        labels.extend(category_labels[i] for i in order)
        sizes = _split_sizes(count, split_fractions)
        split_codes.append(np.repeat(np.arange(len(SPLIT_NAMES)), sizes))

    features, codes = np.concatenate(blocks), np.concatenate(split_codes)
    datasets = {}
    for code, name in enumerate(SPLIT_NAMES):
        ids = np.flatnonzero(codes == code)
        datasets[name] = FeatureDataset(
            ids, features[ids], [labels[i] for i in ids], name, spec.n_categories
        )
    return datasets


def oversample_balance(dataset: FeatureDataset, seed: int = 0) -> list[int]:
    """Duplicate tail examples until every category carries roughly the mass
    of the most frequent one.

    Each example counts toward its rarest label. Per category, the example
    list is repeated whole until it reaches the target (the largest
    per-category count) and trimmed to it exactly, so multiplicities within
    a category differ by at most one round. The returned index multiset is
    shuffled by ``seed``.
    """
    contains = dataset.contains_counts()
    empty = np.flatnonzero(contains == 0)
    if len(empty):
        raise EmptyCategory(f"category {empty[0]} has no examples in split {dataset.split!r}")

    # rarest label of each example: least count, then lowest category
    rarest = np.where(dataset.targets, contains, np.iinfo(np.int64).max).argmin(axis=1)
    sizes = np.bincount(rarest, minlength=dataset.n_categories)
    groups = np.split(np.argsort(rarest, kind="stable"), np.cumsum(sizes)[:-1])
    target = sizes.max()
    indices = np.concatenate([np.resize(group, target) for group in groups if len(group)])

    rng = np.random.default_rng(mix_seed(seed, 1))
    return indices[rng.permutation(len(indices))].tolist()


def split_head_tail(
    train_ap: Mapping[int, float],
    val_ap: Mapping[int, float],
    threshold: float = 0.0,
) -> HeadTailSplit:
    """Partition categories by the train-minus-validation AP gap.

    A category whose training AP does not exceed its validation AP by more
    than ``threshold`` goes to the tail: the model never had enough of its
    examples to fit them, let alone overfit.
    """
    if set(train_ap) != set(val_ap):
        raise CategoryMismatch(
            f"train/val categories differ: {sorted(set(train_ap) ^ set(val_ap))}"
        )
    head, tail = set(), set()
    for c in train_ap:
        if train_ap[c] - val_ap[c] <= threshold:
            tail.add(c)
        else:
            head.add(c)
    return HeadTailSplit(frozenset(head), frozenset(tail), threshold)
