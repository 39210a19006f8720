"""Few-shot metric meta-learning by regression-error distance.

Classes are represented inside each episode by the span of their embedded
support examples; queries are classified by the ridge-regularized
regression residual to each class subspace, with a pairwise subspace
orthogonalization penalty during episodic training.  Prototype and cosine
heads provide baselines, and the evaluation harness reports accuracies
with 95% confidence intervals, paired ablations, and domain-shift runs.
"""

from . import autodiff, linalg
from .encoder import (EncoderParams, embed_np, init_encoder, load_encoder,
                      save_encoder)
from .episodes import (Dataset, Episode, load_csv, sample_episode, save_csv,
                       split_classes, synth_gaussian)
from .errors import (CheckpointError, ConditioningError, ConfigError,
                     ContractError, DatasetFormatError,
                     DegenerateSubspaceError, DivergenceError, FewshotError,
                     SamplingError, ShapeError)
from .evaluate import (AblationResult, EvalReport, ablate_lambda2,
                       domain_shift, evaluate)
from .heads import (CosineHead, Hyper, ProtoHead, RegressionHead, make_head,
                    ortho_penalty)
from .train import AdamState, TrainConfig, adam_update, fit, train_step
from .verify import CheckResult, run_all_checks

__version__ = "0.1.0"

__all__ = [
    "AblationResult", "AdamState", "CheckResult", "CheckpointError",
    "ConditioningError", "ConfigError", "ContractError",
    "CosineHead", "Dataset", "DatasetFormatError", "DegenerateSubspaceError",
    "DivergenceError", "EncoderParams", "Episode", "EvalReport",
    "FewshotError", "Hyper", "ProtoHead", "RegressionHead", "SamplingError",
    "ShapeError", "TrainConfig", "ablate_lambda2", "adam_update", "autodiff",
    "domain_shift", "embed_np",
    "evaluate", "fit", "init_encoder", "linalg", "load_csv",
    "load_encoder", "make_head", "ortho_penalty", "run_all_checks",
    "sample_episode", "save_csv", "save_encoder",
    "split_classes", "synth_gaussian", "train_step",
]
