"""Few-shot metric meta-learning by regression-error distance.

Classes are represented inside each episode by the span of their embedded
support examples; queries are classified by the ridge-regularized
regression residual to each class subspace, with a pairwise subspace
orthogonalization penalty during episodic training.  Prototype and cosine
heads provide baselines, and the evaluation harness reports accuracies
with 95% confidence intervals, paired ablations, and domain-shift runs.
"""

from . import autodiff, encoder, episodes, errors, evaluate, heads, linalg, train, verify

__version__ = "0.1.0"

__all__ = ["autodiff", "encoder", "episodes", "errors", "evaluate", "heads",
           "linalg", "train", "verify"]
