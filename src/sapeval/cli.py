"""Command-line surface.

Exit codes: 0 success, 2 configuration error, 3 unparseable input file,
4 empty result (nothing eligible to report). Every command writes a run
manifest next to its outputs; ``rerun`` re-executes a recorded manifest
and reproduces the outputs byte for byte.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path


from . import __version__
from .benchmark import count_split
from .charts import grouped_bar_chart
from .datasets import ZipfSpec, split_head_tail, synthesize_dataset, zipf_counts
from .errors import (
    CategoryMismatch,
    DegeneratePool,
    EmptyCategory,
    EmptyHead,
    InvalidCounts,
    NoEligibleCategories,
    NonFiniteLoss,
    NoPositives,
    ParseError,
    UnknownCategory,
)
from .formats import (
    read_category_ap,
    read_detections_csv,
    read_feature_dataset,
    read_ground_truth_csv,
    read_predictions,
    read_split,
    serialize_feature_dataset,
)
from .manifest import json_text, write_atomic, write_manifest
from .metrics import CategoryEvaluation, _eligible, frame_ap_from_index, mean_ap, roc_auc
from .pools import FrameIndex, pools_from_scores
# not called here; perfbench/tracing.py wraps them under these names
from .metrics import average_precision, frame_ap  # noqa: F401
from .pools import build_eval_pool  # noqa: F401
from .sampling import sampled_ap  # noqa: F401
from .sampling import SapConfig, msap, stability_profile
from .training import (
    VARIANTS,
    StagePlan,
    TrainConfig,
    checkpoint_text,
    config_hash,
    evaluate_model,
    run_ablation,
    score_pools,
)

EXIT_CONFIG = 2
EXIT_PARSE = 3
EXIT_EMPTY = 4


class ConfigError(Exception):
    pass


def _parse_fractions(text: str) -> tuple[float, ...]:
    try:
        fractions = tuple(float(v) for v in text.split(","))
    except ValueError:
        raise ConfigError(f"--fractions: cannot parse {text!r}") from None
    if len(fractions) != 3:
        raise ConfigError("--fractions: expected three comma-separated values")
    if min(fractions) <= 0 or abs(sum(fractions) - 1.0) > 1e-9:
        raise ConfigError("--fractions: values must be positive and sum to 1")
    return fractions


def _parse_int_list(text: str, flag: str) -> list[int]:
    """Comma-separated distinct positive integers; an empty entry is an error."""
    try:
        values = [int(v) for v in text.split(",")]
    except ValueError:
        raise ConfigError(f"{flag}: cannot parse {text!r}") from None
    if min(values) < 1:
        raise ConfigError(f"{flag}: needs positive integers")
    if len(set(values)) < len(values):
        raise ConfigError(f"{flag}: repeats a count in {text!r}")
    return values


def _config_dict(args: argparse.Namespace) -> dict:
    return {k: v for k, v in vars(args).items() if k not in ("func", "command")}


def _write_outputs(
    args: argparse.Namespace, command: str, outputs: dict[str, tuple[Path, str]], inputs: dict
) -> None:
    """Write each output's text to its path, then the run manifest, seeded
    with ``--seed`` if the command has one: ``<out>.manifest.json`` beside
    ``--out``, else ``report_manifest.json`` (``report``) or ``run_manifest.json``
    in ``--out-dir``. Called once every output is computed: a failed command writes nothing."""
    for path, text in outputs.values():
        write_atomic(path, text)
    if getattr(args, "out", None):
        manifest = Path(str(args.out) + ".manifest.json")
    else:
        filename = "report_manifest.json" if command == "report" else "run_manifest.json"
        manifest = Path(args.out_dir) / filename
    write_manifest(manifest, command, _config_dict(args), inputs,
                   {name: path for name, (path, _) in outputs.items()}, getattr(args, "seed", None))


def _detection_index(args: argparse.Namespace) -> tuple[FrameIndex, list[int]]:
    """The frame index of ``--gt`` and ``--det`` and the ground truth's
    categories, sorted."""
    gt = read_ground_truth_csv(args.gt)
    index = FrameIndex(gt, read_detections_csv(args.det), args.iou)
    return index, sorted(set(gt.label_category.tolist()))


def _sap_config(args: argparse.Namespace, include_background: bool = True) -> SapConfig:
    if args.trials < 1:
        raise ConfigError("--trials: must be at least 1")
    return SapConfig(args.trials, args.seed, include_background)


# ---------------------------------------------------------------- synth


def cmd_synth(args: argparse.Namespace) -> int:
    fractions = _parse_fractions(args.fractions)
    try:
        spec = ZipfSpec(
            n_categories=args.categories,
            exponent=args.zipf_s,
            max_count=args.max_count,
            min_count=args.min_count,
            feature_dim=args.feature_dim,
            cluster_spread=args.sigma,
            multilabel_rate=args.multilabel_rate,
            seed=args.seed,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    datasets = synthesize_dataset(spec, fractions)
    out_dir = Path(args.out_dir)
    outputs = {
        f"{name}.jsonl": (out_dir / f"{name}.jsonl", serialize_feature_dataset(dataset))
        for name, dataset in datasets.items()
    }
    dataset_manifest = {
        "zipf_counts": zipf_counts(spec),
        "spec": dataclasses.asdict(spec),
        "fractions": list(fractions),
        "splits": {name: len(ds) for name, ds in datasets.items()},
    }
    outputs["dataset_manifest.json"] = (out_dir / "dataset_manifest.json",
                                        json_text(dataset_manifest))
    _write_outputs(args, "synth", outputs, {})
    print(f"wrote {len(outputs)} files to {out_dir}")
    return 0


# ----------------------------------------------------------------- eval


def cmd_eval(args: argparse.Namespace) -> int:
    if not 0.0 < args.iou <= 1.0:
        raise ConfigError("--iou: must lie in (0, 1]")
    index, gt_categories = _detection_index(args)
    evals, rows = [], []
    for category in gt_categories:
        pool = index.pool(category)
        ap = frame_ap_from_index(index, category)
        try:
            auc = roc_auc(pool)
        except DegeneratePool:
            auc = None
        evals.append(CategoryEvaluation(category, pool.n_pos, pool.n_neg, ap, None))
        rows.append({"category": category, "n_pos": pool.n_pos, "n_neg": pool.n_neg,
                     "ap": ap, "roc_auc": auc})

    eligible = _eligible(evals, args.min_examples)
    report = {
        "categories": rows,
        "aggregate": {
            "map": mean_ap(eligible, args.min_examples),
            "eligible_categories": len(eligible),
        },
    }
    _write_outputs(args, "eval", {"report": (args.out, json_text(report))},
                   {"gt": args.gt, "det": args.det})
    print(f"mAP {report['aggregate']['map']:.4f} over {len(eligible)} categories")
    return 0


# ------------------------------------------------------------------ sap


def _load_pools(args: argparse.Namespace) -> tuple[dict[int, object], dict[str, str]]:
    """Pools keyed by category from either detection CSVs or predictions."""
    if args.predictions:
        if args.gt or args.det:
            raise ConfigError("--predictions excludes --gt/--det")
        ids, targets, scores = read_predictions(args.predictions)
        return pools_from_scores(scores, targets, ids), {"predictions": args.predictions}
    if not (args.gt and args.det):
        raise ConfigError("need either --predictions or both --gt and --det")
    index, categories = _detection_index(args)
    return {c: index.pool(c) for c in categories}, {"gt": args.gt, "det": args.det}


def cmd_sap(args: argparse.Namespace) -> int:
    sap_config = _sap_config(args, include_background=not args.no_background)
    pools, inputs = _load_pools(args)
    evals = score_pools(pools, sap_config)
    records = [
        {k: v for k, v in e.to_dict(args.store_trials).items() if k != "n_neg"} for e in evals
    ]
    report = {
        "categories": records,
        "aggregate": {"msap": msap(evals, args.min_examples)},
    }
    _write_outputs(args, "sap", {"report": (args.out, json_text(report))}, inputs)
    print(f"mSAP {report['aggregate']['msap']:.4f}")
    return 0


# ------------------------------------------------------------ stability


def cmd_stability(args: argparse.Namespace) -> int:
    trial_counts = _parse_int_list(args.trials, "--trials")
    if args.repeats < 2:
        raise ConfigError("--repeats: must be at least 2")
    pools, inputs = _load_pools(args)
    if args.category not in pools:
        raise ConfigError(f"--category: {args.category} not present in the input")
    pool = pools[args.category]
    points = stability_profile(
        pool,
        trial_counts,
        repeats=args.repeats,
        seed=args.seed,
        include_background=not args.no_background,
    )
    lines = ["N,mean,std"] + [f"{p.n_trials},{p.mean!r},{p.std!r}" for p in points]
    _write_outputs(args, "stability", {"profile": (args.out, "\n".join(lines) + "\n")}, inputs)
    print(f"wrote {len(points)} trial counts to {args.out}")
    return 0


# ---------------------------------------------------------------- split


def cmd_split(args: argparse.Namespace) -> int:
    train_ap = read_category_ap(args.train_ap)
    val_ap = read_category_ap(args.val_ap)
    split = split_head_tail(train_ap, val_ap, args.threshold)
    payload = {
        "head": sorted(split.head),
        "tail": sorted(split.tail),
        "threshold": split.threshold,
    }
    inputs = {"train_ap": args.train_ap, "val_ap": args.val_ap}
    _write_outputs(args, "split", {"split": (args.out, json_text(payload))}, inputs)
    print(f"head {len(split.head)} / tail {len(split.tail)} categories")
    return 0


# ---------------------------------------------------------------- train


def cmd_train(args: argparse.Namespace) -> int:
    sap_config = _sap_config(args)
    data_dir = Path(args.data_dir)
    train = read_feature_dataset(data_dir / "train.jsonl", "train")
    val = read_feature_dataset(data_dir / "val.jsonl", "val", n_categories=train.n_categories)

    split = None
    if args.split:
        split = read_split(args.split)
    elif args.auto_split:
        split = count_split(train)
    elif VARIANTS[args.variant].second_stage:
        raise ConfigError(f"--variant {args.variant} needs --split or --auto-split")

    try:
        config = TrainConfig(
            hidden_dim=args.hidden_dim,
            embedding_dim=args.embedding_dim,
            batch_size=args.batch_size,
            seed=args.seed,
            loss=args.loss,
            focal_gamma=args.gamma,
            stage1=StagePlan(
                args.stage1_lr_start, args.stage1_lr_end, args.stage1_schedule, args.stage1_epochs
            ),
            stage2=StagePlan(
                args.stage2_lr_start, args.stage2_lr_end, args.stage2_schedule, args.stage2_epochs
            ),
            stage2_freeze=not args.no_freeze,
            stage2_balance=not args.no_balance,
            stage2_warm_start=args.warm_start,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    history: list = []
    params = run_ablation(train, split, args.variant, config, history=history)

    report_train = evaluate_model(
        params, train, sap_config, split=split, min_examples=args.min_examples
    )
    report_val = evaluate_model(
        params, val, sap_config, split=split, min_examples=args.min_examples
    )

    out_dir = Path(args.out_dir)
    config_payload = {
        "variant": args.variant,
        "seed": args.seed,
        "config": dataclasses.asdict(config),
        "config_hash": config_hash(config),
    }
    metrics = {
        "variant": args.variant,
        "seed": args.seed,
        "history": history,
        "train_ap": {str(k): v for k, v in report_train.ap_by_category().items()},
        "val_ap": {str(k): v for k, v in report_val.ap_by_category().items()},
        "evaluation": {"train": report_train.to_dict(), "val": report_val.to_dict()},
    }
    if split is not None:
        metrics["head"] = sorted(split.head)
        metrics["tail"] = sorted(split.tail)
    inputs = {"train.jsonl": data_dir / "train.jsonl", "val.jsonl": data_dir / "val.jsonl"}
    if args.split:
        inputs["split"] = args.split
    _write_outputs(args, "train", {
        "checkpoint.json": (out_dir / "checkpoint.json", checkpoint_text(params, config_payload)),
        "metrics.json": (out_dir / "metrics.json", json_text(metrics)),
    }, inputs)
    val_msap = report_val.aggregates["all"]["msap"]
    print(f"{args.variant}: val mSAP {val_msap if val_msap is None else round(val_msap, 4)}")
    return 0


# --------------------------------------------------------------- report


def _evaluation(payload: dict) -> tuple[list[tuple], list[str]]:
    """(category, AP, sampled AP) of each scored category, and the lines of
    the summary CSV of the aggregates, of a ``train`` metrics file's
    validation evaluation or of an evaluation report."""
    evaluation = payload["evaluation"]["val"] if "evaluation" in payload else payload
    scored = [(c["category"], c["ap"], c["sap_mean"])
              for c in evaluation["categories"] if c.get("sap_mean") is not None]
    rows = ["group,msap,map,categories,eligible"]
    for group in ("all", "tail", "head"):
        agg = evaluation["aggregates"].get(group)
        if agg is None:
            continue
        try:
            rows.append(
                f"{group},{agg['msap']!r},{agg['map']!r},{agg['categories']},{agg['eligible']}"
            )
        except KeyError as exc:
            raise KeyError(f"the {group} aggregate lacks {exc}") from None
    return scored, rows


def _report_input(flag: str, path: str, read):
    """``read`` applied to the JSON in ``path``; a missing key or a value of
    the wrong type is a ``ConfigError`` naming the flag, the file and the key."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    try:
        return read(payload)
    except (AttributeError, KeyError, TypeError) as exc:
        raise ConfigError(f"{flag}: {path}: {exc!r}") from None


def cmd_report(args: argparse.Namespace) -> int:
    scored, rows = _report_input("--metrics", args.metrics, _evaluation)

    out_dir = Path(args.out_dir)
    chart = grouped_bar_chart(
        [str(c) for c, _, _ in scored],
        {"AP": [ap for _, ap, _ in scored], "sampled AP": [sap for _, _, sap in scored]},
        title="AP vs sampled AP by category",
        y_label="score",
    )
    outputs = {
        "summary.csv": (out_dir / "summary.csv", "\n".join(rows) + "\n"),
        "ap_vs_sap.svg": (out_dir / "ap_vs_sap.svg", chart),
    }
    inputs = {"metrics": args.metrics}
    if args.compare:
        other, _ = _report_input("--compare", args.compare, _evaluation)
        other_sap = {c: sap for c, _, sap in other}
        shared = [(c, sap) for c, _, sap in scored if c in other_sap]
        compare_chart = grouped_bar_chart(
            [str(c) for c, _ in shared],
            {
                "this run": [sap for _, sap in shared],
                "comparison": [other_sap[c] for c, _ in shared],
            },
            title="sampled AP by category",
            y_label="sampled AP",
        )
        outputs["compare.svg"] = (out_dir / "compare.svg", compare_chart)
        inputs["compare"] = args.compare

    if args.counts:
        counts = _report_input("--counts", args.counts, lambda manifest: manifest["zipf_counts"])
        counts_chart = grouped_bar_chart(
            [str(c) for c in range(len(counts))],
            {"examples": counts},
            title="category example counts",
            y_label="examples",
            log_scale=True,
        )
        outputs["counts.svg"] = (out_dir / "counts.svg", counts_chart)
        inputs["counts"] = args.counts

    _write_outputs(args, "report", outputs, inputs)
    print(f"wrote {', '.join(sorted(outputs))} to {out_dir}")
    return 0


# ---------------------------------------------------------------- rerun


def cmd_rerun(args: argparse.Namespace) -> int:
    manifest = json.loads(Path(args.manifest).read_text(encoding="utf-8"))
    if not isinstance(manifest, dict):
        raise ConfigError("manifest is not an object")
    command = manifest.get("command")
    (subcommands,) = (
        action.choices
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    if command == "rerun" or command not in subcommands:
        raise ConfigError(f"manifest has unknown command {command!r}")
    subparser = subcommands[command]
    config = manifest.get("config", {})
    if not isinstance(config, dict):
        raise ConfigError("manifest config is not an object")
    missing = sorted(
        action.dest
        for action in subparser._actions
        if not isinstance(action, argparse._HelpAction) and action.dest not in config
    )
    if missing:
        raise ConfigError(f"manifest config lacks {', '.join(missing)}")
    return subparser.get_default("func")(argparse.Namespace(**config))


# --------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sapeval",
        description="Balanced-sample AP metrics and long-tail transfer training",
    )
    parser.add_argument("--version", action="version", version=f"sapeval {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic Zipf-imbalanced dataset")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--categories", type=int, default=20, help="number of categories")
    p.add_argument("--zipf-s", type=float, default=1.2, help="frequency-decay exponent")
    p.add_argument("--max-count", type=int, default=2000, help="examples in the largest category")
    p.add_argument("--min-count", type=int, default=2, help="floor on per-category examples")
    p.add_argument("--feature-dim", type=int, default=16, help="feature vector dimension")
    p.add_argument("--sigma", type=float, default=0.8, help="within-cluster spread")
    p.add_argument("--multilabel-rate", type=float, default=0.1, help="probability of one extra co-occurring label")
    p.add_argument("--fractions", default="0.6,0.2,0.2", help="train,val,test fractions")
    p.add_argument("--seed", type=int, default=0, help="generation seed")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("eval", help="detection AP / ROC-AUC report from CSV files")
    p.add_argument("--gt", required=True, help="ground-truth CSV")
    p.add_argument("--det", required=True, help="detections CSV")
    p.add_argument("--out", required=True, help="report JSON path")
    p.add_argument("--iou", type=float, default=0.5, help="box-match IoU threshold")
    p.add_argument("--min-examples", type=int, default=25, help="positives needed for mAP eligibility")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sap", help="sampled-AP report")
    p.add_argument("--gt")
    p.add_argument("--det")
    p.add_argument("--predictions", help="classification-mode score file (JSONL)")
    p.add_argument("--out", required=True, help="report JSON path")
    p.add_argument("--trials", type=int, default=15, help="balanced subsamples per category")
    p.add_argument("--seed", type=int, default=0, help="sampling seed")
    p.add_argument("--min-examples", type=int, default=25, help="positives needed for mSAP eligibility")
    p.add_argument("--iou", type=float, default=0.5, help="box-match IoU threshold (detection mode)")
    p.add_argument("--no-background", action="store_true",
                   help="exclude background false positives from negative sampling")
    p.add_argument("--store-trials", action="store_true", help="include per-trial APs in the report")
    p.set_defaults(func=cmd_sap)

    p = sub.add_parser("stability", help="sampled-AP dispersion vs trial count")
    p.add_argument("--gt", help="ground-truth CSV (detection mode)")
    p.add_argument("--det", help="detections CSV (detection mode)")
    p.add_argument("--predictions", help="classification-mode score file (JSONL)")
    p.add_argument("--category", type=int, required=True, help="category to profile")
    p.add_argument("--trials", default="5,10,15,20,40", help="comma-separated trial counts")
    p.add_argument("--repeats", type=int, default=20, help="independent estimates per trial count")
    p.add_argument("--seed", type=int, default=0, help="sampling seed")
    p.add_argument("--iou", type=float, default=0.5, help="box-match IoU threshold (detection mode)")
    p.add_argument("--no-background", action="store_true",
                   help="exclude background false positives from negative sampling")
    p.add_argument("--out", required=True, help="CSV path")
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("split", help="head/tail partition from AP gap")
    p.add_argument("--train-ap", required=True, help="per-category AP JSON (train)")
    p.add_argument("--val-ap", required=True, help="per-category AP JSON (validation)")
    p.add_argument("--threshold", type=float, default=0.0, help="AP-gap boundary; gaps at or below go to the tail")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("train", help="train one schema variant on a feature dataset")
    p.add_argument("--data-dir", required=True, help="directory with train.jsonl/val.jsonl")
    p.add_argument("--variant", choices=VARIANTS, default="two_stage",
                   help="training schema to run")
    p.add_argument("--out-dir", required=True, help="checkpoint/metrics output directory")
    p.add_argument("--split", help="head/tail split JSON (from the split command)")
    p.add_argument("--auto-split", action="store_true",
                   help="split head/tail by training-count median")
    p.add_argument("--seed", type=int, default=0, help="training and evaluation seed")
    p.add_argument("--hidden-dim", type=int, default=32, help="extractor hidden width")
    p.add_argument("--embedding-dim", type=int, default=16, help="extractor output width")
    p.add_argument("--batch-size", type=int, default=128, help="mini-batch size")
    p.add_argument("--loss", choices=("bce", "focal"), default="bce", help="training loss")
    p.add_argument("--gamma", type=float, default=2.0, help="focal focusing parameter")
    p.add_argument("--stage1-lr-start", type=float, default=0.05, help="stage-1 learning rate")
    p.add_argument("--stage1-lr-end", type=float, default=0.005, help="stage-1 rate after the drop / at the end")
    p.add_argument("--stage1-schedule", choices=("step", "linear"), default="step", help="stage-1 decay shape")
    p.add_argument("--stage1-epochs", type=int, default=12, help="stage-1 epochs")
    p.add_argument("--stage2-lr-start", type=float, default=0.001, help="stage-2 learning rate")
    p.add_argument("--stage2-lr-end", type=float, default=0.0001, help="stage-2 rate at the end")
    p.add_argument("--stage2-schedule", choices=("step", "linear"), default="linear", help="stage-2 decay shape")
    p.add_argument("--stage2-epochs", type=int, default=1, help="stage-2 epochs")
    p.add_argument("--no-freeze", action="store_true", help="stage 2 also updates the extractor")
    p.add_argument("--no-balance", action="store_true", help="stage 2 on the original distribution")
    p.add_argument("--warm-start", action="store_true", help="keep stage-1 head instead of reinitializing")
    p.add_argument("--trials", type=int, default=15, help="sampled-AP trials for evaluation")
    p.add_argument("--min-examples", type=int, default=1, help="positives needed for aggregate eligibility")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("report", help="summary table and SVG charts from metrics JSON")
    p.add_argument("--metrics", required=True, help="metrics JSON from the train command")
    p.add_argument("--out-dir", required=True, help="output directory for CSV and SVG files")
    p.add_argument("--compare", help="second metrics JSON to chart against")
    p.add_argument("--counts", help="dataset manifest JSON for the counts chart")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("rerun", help="re-execute a recorded run manifest")
    p.add_argument("manifest", help="run manifest JSON written by a previous command")
    p.set_defaults(func=cmd_rerun)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (NoEligibleCategories, NoPositives, EmptyCategory, EmptyHead, DegeneratePool) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EMPTY
    except (
        ConfigError,
        CategoryMismatch,
        UnknownCategory,
        InvalidCounts,
        ValueError,
        FileNotFoundError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NonFiniteLoss as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
