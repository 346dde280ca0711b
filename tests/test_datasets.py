import dataclasses
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sapeval.datasets import (
    EmptySplitWarning,
    FeatureDataset,
    HeadTailSplit,
    ZipfSpec,
    oversample_balance,
    split_head_tail,
    synthesize_dataset,
    zipf_counts,
)
from sapeval.errors import CategoryMismatch, EmptyCategory

from oracles import reference_oversample_balance


class TestZipfSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ZipfSpec(n_categories=0)
        with pytest.raises(ValueError):
            ZipfSpec(min_count=5, max_count=2)
        with pytest.raises(ValueError):
            ZipfSpec(cluster_spread=0.0)
        with pytest.raises(ValueError):
            ZipfSpec(multilabel_rate=1.0)
        # a zero-length cluster mean has norm 0, which the generator would redraw forever
        with pytest.raises(ValueError, match="feature_dim"):
            ZipfSpec(feature_dim=0)

    def test_zero_exponent_allowed(self):
        ZipfSpec(exponent=0.0)


class TestZipfCounts:
    def test_formula_fixture(self):
        spec = ZipfSpec(n_categories=4, exponent=1.0, max_count=1000, min_count=1)
        assert zipf_counts(spec) == [1000, 500, 333, 250]

    def test_zero_exponent_is_balanced(self):
        spec = ZipfSpec(n_categories=5, exponent=0.0, max_count=700, min_count=1)
        assert zipf_counts(spec) == [700] * 5

    def test_single_category(self):
        spec = ZipfSpec(n_categories=1, max_count=123, min_count=1)
        assert zipf_counts(spec) == [123]

    def test_min_count_clamp(self):
        spec = ZipfSpec(n_categories=200, exponent=2.0, max_count=2000, min_count=2)
        counts = zipf_counts(spec)
        assert min(counts) == 2
        assert max(counts) == 2000

    @given(
        st.integers(1, 40),
        st.floats(0.0, 3.0, allow_nan=False),
        st.integers(1, 5000),
    )
    @settings(max_examples=50, deadline=None)
    def test_nonincreasing_and_bounded(self, k, s, max_count):
        spec = ZipfSpec(
            n_categories=k, exponent=s, max_count=max_count, min_count=1
        )
        counts = zipf_counts(spec)
        assert all(a >= b for a, b in zip(counts, counts[1:]))
        assert all(1 <= c <= max_count for c in counts)


def primary_counts(dataset):
    """Per-category count of examples whose first (generating) label it is."""
    primary = [labels[0] for labels in dataset.labels]
    return np.bincount(primary, minlength=dataset.n_categories)


SMALL_SPEC = ZipfSpec(
    n_categories=6,
    exponent=1.0,
    max_count=120,
    min_count=2,
    feature_dim=8,
    cluster_spread=0.5,
    multilabel_rate=0.2,
    seed=5,
)


class TestSynthesize:
    def test_deterministic(self):
        a = synthesize_dataset(SMALL_SPEC)
        b = synthesize_dataset(SMALL_SPEC)
        for name in a:
            assert len(a[name]) == len(b[name])
            assert np.array_equal(a[name].ids, b[name].ids)
            assert a[name].labels == b[name].labels
            assert np.array_equal(a[name].features, b[name].features)

    def test_primary_counts_match_zipf(self):
        datasets = synthesize_dataset(SMALL_SPEC)
        totals = sum(
            (primary_counts(ds) for ds in datasets.values()),
            start=np.zeros(SMALL_SPEC.n_categories, dtype=np.int64),
        )
        assert totals.tolist() == zipf_counts(SMALL_SPEC)

    def test_near_zero_spread_single_label_is_separable(self):
        spec = dataclasses.replace(
            SMALL_SPEC, cluster_spread=1e-9, multilabel_rate=0.0
        )
        datasets = synthesize_dataset(spec)
        train = datasets["train"]
        # nearest cluster mean classifies every example perfectly
        primary = np.array([labels[0] for labels in train.labels])
        centroids = {c: train.features[primary == c].mean(axis=0) for c in set(primary)}
        for features, c in zip(train.features, primary):
            best = min(
                centroids, key=lambda k: np.linalg.norm(features - centroids[k])
            )
            assert best == c

    def test_every_split_covered_when_count_permits(self):
        datasets = synthesize_dataset(SMALL_SPEC, (0.5, 0.25, 0.25))
        counts = zipf_counts(SMALL_SPEC)
        for k, count in enumerate(counts):
            if count < 3:
                continue
            for ds in datasets.values():
                assert primary_counts(ds)[k] >= 1

    def test_small_category_warns(self):
        spec = dataclasses.replace(SMALL_SPEC, n_categories=12, exponent=2.2)
        assert zipf_counts(spec)[-1] == 2
        with pytest.warns(EmptySplitWarning):
            synthesize_dataset(spec)

    def test_bad_fractions(self):
        with pytest.raises(ValueError):
            synthesize_dataset(SMALL_SPEC, (0.5, 0.4))
        with pytest.raises(ValueError):
            synthesize_dataset(SMALL_SPEC, (0.5, 0.4, 0.2))

    @pytest.mark.parametrize("fractions", [(np.nan, 0.5, 0.5), (0.5, np.nan, 0.5),
                                           (np.inf, 0.5, 0.5), (0.7, 0.15, -np.inf)])
    def test_non_finite_fractions_rejected(self, fractions):
        # every comparison with NaN is false, so it passed both range checks
        # and failed inside numpy when a split size was rounded
        with pytest.raises(ValueError, match="split fractions must be finite"):
            synthesize_dataset(SMALL_SPEC, fractions)

    def test_multilabel_examples_have_primary_first(self):
        datasets = synthesize_dataset(SMALL_SPEC)
        multi = [labels for ds in datasets.values() for labels in ds.labels if len(labels) > 1]
        assert multi  # rate 0.2 over ~250 examples
        for labels in multi:
            assert len(set(labels)) == len(labels)
        # ids follow generation order, which runs cluster by cluster
        for ds in datasets.values():
            primary = [ds.labels[i][0] for i in np.argsort(ds.ids)]
            assert primary == sorted(primary)

    def test_reference_scale_imbalance(self):
        spec = ZipfSpec()  # the reference shape
        counts = zipf_counts(spec)
        datasets = synthesize_dataset(spec, (0.6, 0.2, 0.2))
        train_counts = primary_counts(datasets["train"])
        # the formula bottoms out near max_count/K^s, far above min_count
        assert counts[0] / counts[-1] >= 30
        assert train_counts.max() / train_counts.min() >= 30


def _dataset(label_lists, n_categories):
    n = len(label_lists)
    labels = [tuple(labels) for labels in label_lists]
    return FeatureDataset(np.arange(n), np.zeros((n, 2)), labels, "train", n_categories)


class TestOversampleBalance:
    def test_tail_duplicated_to_head_count(self):
        dataset = _dataset([(0,)] * 100 + [(1,)] * 10, 2)
        indices = oversample_balance(dataset, seed=0)
        per_category = Counter(dataset.labels[i][0] for i in indices)
        assert per_category[0] == 100 and per_category[1] == 100
        multiplicity = Counter(i for i in indices if dataset.labels[i][0] == 1)
        assert all(v == 10 for v in multiplicity.values())

    def test_balanced_input_is_identity_multiset(self):
        dataset = _dataset([(0,)] * 7 + [(1,)] * 7, 2)
        indices = oversample_balance(dataset, seed=1)
        assert Counter(indices) == Counter(range(14))

    def test_whole_copy_then_trim(self):
        dataset = _dataset([(0,)] * 7 + [(1,)] * 3, 2)
        indices = oversample_balance(dataset, seed=2)
        tail_counts = Counter(i for i in indices if i >= 7)
        assert sum(tail_counts.values()) == 7
        assert set(tail_counts.values()) <= {2, 3}  # ceil(7/3) copies, trimmed
        assert set(tail_counts) == {7, 8, 9}  # every index survives

    def test_multilabel_weight_follows_rarest_label(self):
        # the example carrying {0, 1} must balance as a category-1 example
        dataset = _dataset([(0,)] * 9 + [(0, 1), (1,)], 2)
        indices = oversample_balance(dataset, seed=3)
        # group sizes: cat0 -> 9 singles, cat1 -> 2 examples; target 9
        assert len(indices) == 18
        assert sum(1 for i in indices if i >= 9) == 9

    def test_empty_category_raises(self):
        dataset = _dataset([(0,)] * 3, 2)
        with pytest.raises(EmptyCategory):
            oversample_balance(dataset, seed=0)

    def test_shuffle_depends_on_seed_but_multiset_does_not(self):
        dataset = _dataset([(0,)] * 6 + [(1,)] * 2, 2)
        a = oversample_balance(dataset, seed=0)
        b = oversample_balance(dataset, seed=1)
        assert Counter(a) == Counter(b)
        assert a != b

    @given(st.lists(st.integers(1, 5), min_size=2, max_size=5))
    @settings(max_examples=30, deadline=None)
    def test_every_example_kept_and_multiplicities_tight(self, sizes):
        labels = [(c,) for c, n in enumerate(sizes) for _ in range(n)]
        dataset = _dataset(labels, len(sizes))
        indices = oversample_balance(dataset, seed=0)
        counts = Counter(indices)
        assert set(counts) == set(range(len(labels)))  # everything kept
        per_cat = Counter(labels[i][0] for i in indices)
        assert len(set(per_cat.values())) == 1  # exactly equal totals
        for c, n in enumerate(sizes):
            copies = {counts[i] for i, lab in enumerate(labels) if lab[0] == c}
            assert max(copies) - min(copies) <= 1


@st.composite
def label_tuples(draw, max_categories=6):
    """(label tuples, K): 1-3 distinct labels per example from a few
    categories, so counts tie often."""
    k = draw(st.integers(1, max_categories))
    labels = draw(st.lists(
        st.lists(st.integers(0, k - 1), min_size=1, max_size=3, unique=True).map(tuple),
        min_size=1, max_size=40,
    ))
    return labels, k


class TestColumnarMatchesReference:
    @given(label_tuples(), st.integers(0, 2**32))
    @settings(max_examples=300, deadline=None)
    def test_oversample_balance_equals_reference(self, data, seed):
        labels, k = data
        dataset = _dataset(labels, k)
        try:
            expected = reference_oversample_balance(labels, k, seed)
        except EmptyCategory:
            with pytest.raises(EmptyCategory):
                oversample_balance(dataset, seed=seed)
            return
        assert oversample_balance(dataset, seed=seed) == expected

    @given(label_tuples())
    @settings(max_examples=200, deadline=None)
    def test_targets_and_counts_equal_a_per_example_loop(self, data):
        labels, k = data
        dataset = _dataset(labels, k)
        targets = np.zeros((len(labels), k), dtype=bool)
        counts = [0] * k
        for i, example_labels in enumerate(labels):
            for c in example_labels:
                targets[i, c] = True
                counts[c] += 1
        assert np.array_equal(dataset.targets, targets)
        assert dataset.contains_counts().tolist() == counts
        assert not dataset.targets.flags.writeable

    def test_reference_splits_equal_reference(self):
        spec = ZipfSpec(seed=3)
        train = synthesize_dataset(spec, (0.6, 0.2, 0.2))["train"]
        assert oversample_balance(train, seed=7) == reference_oversample_balance(
            train.labels, train.n_categories, 7
        )

    @pytest.mark.parametrize(
        "labels,message",
        [([(0,), (-1,)], r"labels must lie in \[0, 2\)"),
         ([(0,), (2,)], r"labels must lie in \[0, 2\)"),
         ([(0,), ()], "every example needs a label")],
        ids=["negative", "beyond", "none"],
    )
    def test_bad_labels_raise(self, labels, message):
        with pytest.raises(ValueError, match=message):
            _dataset(labels, 2)


class TestSplitHeadTail:
    def test_overfit_capable_category_is_head(self):
        split = split_head_tail({0: 0.9}, {0: 0.5})
        assert split.head == {0} and not split.tail

    def test_underfitting_category_is_tail(self):
        split = split_head_tail({0: 0.2}, {0: 0.3})
        assert split.tail == {0}

    def test_boundary_goes_to_tail(self):
        split = split_head_tail({0: 0.5}, {0: 0.4}, threshold=0.1)
        assert split.tail == {0}

    def test_partition_properties(self):
        train = {0: 0.9, 1: 0.3, 2: 0.6}
        val = {0: 0.4, 1: 0.5, 2: 0.6}
        split = split_head_tail(train, val)
        assert split.head | split.tail == {0, 1, 2}
        assert not split.head & split.tail
        assert split.head == {0}

    def test_category_mismatch(self):
        with pytest.raises(CategoryMismatch):
            split_head_tail({0: 0.5}, {1: 0.5})

    @given(
        st.dictionaries(st.integers(0, 8), st.floats(0, 1, width=32), min_size=1),
        st.floats(-0.5, 0.5, width=32),
        st.floats(0.0, 0.5, width=32),
    )
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_threshold(self, train_ap, tau, bump):
        val_ap = {c: min(1.0, v / 2 + 0.1) for c, v in train_ap.items()}
        low = split_head_tail(train_ap, val_ap, tau)
        high = split_head_tail(train_ap, val_ap, tau + bump)
        assert low.tail <= high.tail  # raising tau only grows the tail


class TestHeadTailSplitType:
    def test_rejects_overlap(self):
        with pytest.raises(ValueError):
            HeadTailSplit(frozenset({0, 1}), frozenset({1, 2}), 0.0)
