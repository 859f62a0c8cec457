"""Open-vocabulary multi-label classification on aligned visual-textual features.

Library layout:

- ``tensor`` / ``optim`` / ``rng``: dense 2-D tensors with reverse-mode
  gradients, Adam, finite-difference checking, labeled random streams.
- ``decoder``: one block forward for the dual-modal and the baseline
  (ablation) block, the stacked decoder, and the shared per-class head.
- ``pyramid``: multi-level tile plans, bilinear resize, tile extraction,
  token stacking, and the compute-cost report.
- ``encoders``: frozen toy image/text towers, the default prompts, and the
  synthetic aligned world.
- ``supervision``: selective label sampling and the asymmetric loss.
- ``training`` / ``metrics`` / ``checkpoint``: the training loop, prompted
  label queries, decoder and cosine-baseline scores, mAP / F1@k evaluation,
  open-vocabulary splits, and checkpoint serialization.
- ``cli``: ``adds`` command-line entry point.
"""

from .metrics import MetricsReport, f1_at_k, mean_average_precision, metrics_report
from .pyramid import PyramidPlan, build_plan, cost_report, extract_tiles
from .supervision import AslConfig, asl_loss, select_labels
from .training import Checkpoint, TrainConfig, evaluation_scores, open_vocab_split, train

__version__ = "0.1.0"

__all__ = [
    "AslConfig",
    "Checkpoint",
    "MetricsReport",
    "PyramidPlan",
    "TrainConfig",
    "asl_loss",
    "build_plan",
    "cost_report",
    "evaluation_scores",
    "extract_tiles",
    "f1_at_k",
    "mean_average_precision",
    "metrics_report",
    "open_vocab_split",
    "select_labels",
    "train",
    "__version__",
]
