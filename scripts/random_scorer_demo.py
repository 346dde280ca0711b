#!/usr/bin/env python3
"""Demonstrate why plain AP misleads on rare categories.

Builds two pools with identical (uniformly random) scores but wildly
different positive counts, then prints plain AP, the analytic random
baseline, ROC-AUC, and sampled AP for both. Plain AP tracks the class
frequency; sampled AP stays near one half for both.
"""

from __future__ import annotations

import argparse

import numpy as np

from sapeval.metrics import average_precision, random_baseline_ap, roc_auc
from sapeval.pools import pool_from_arrays
from sapeval.sampling import SapConfig, sampled_ap


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--total", type=int, default=93994)
    parser.add_argument("--frequent", type=int, default=44449)
    parser.add_argument("--rare", type=int, default=32)
    parser.add_argument("--trials", type=int, default=15)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    print(f"{'n_pos':>8s} {'AP':>8s} {'baseline':>9s} {'ROC-AUC':>8s} {'SAP':>8s}")
    for n_pos in (args.frequent, args.rare):
        scores = rng.random(args.total)
        flags = np.zeros(args.total, dtype=bool)
        flags[:n_pos] = True
        pool = pool_from_arrays(0, scores, flags)
        result = sampled_ap(pool, SapConfig(n_trials=args.trials, seed=args.seed))
        print(
            f"{n_pos:8d} {average_precision(pool):8.4f} "
            f"{random_baseline_ap(n_pos, args.total):9.4f} "
            f"{roc_auc(pool):8.4f} {result.sap_mean:8.4f}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
