"""Balanced-sample average precision metrics and head-to-tail transfer
training for long-tail detection and classification."""

from .boxes import DetectionColumns, GroundTruthColumns
from .boxes import iou, match_detections
from .datasets import (
    FeatureDataset,
    HeadTailSplit,
    ZipfSpec,
    oversample_balance,
    split_head_tail,
    synthesize_dataset,
    zipf_counts,
)
from .metrics import (
    CategoryEvaluation,
    average_precision,
    frame_ap,
    mean_ap,
    random_baseline_ap,
    roc_auc,
)
from .pools import EvalPool, ExampleOrigin, FrameIndex, build_eval_pool, pools_from_scores
from .sampling import SapConfig, SapResult, msap, sampled_ap, stability_profile
from .training import (
    ModelParams,
    StagePlan,
    TrainConfig,
    evaluate_model,
    run_ablation,
)

__version__ = "0.1.0"
