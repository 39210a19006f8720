"""Test-episode evaluation, ablation pairing, and domain-shift runs.

Accuracies are reported in percent with a 95% confidence half-width of
1.96 * s / sqrt(E), where s is the sample standard deviation over the E
per-episode accuracies.  Every report carries two fingerprints: one over
the configuration (hyperparameters and seeds) and one over the actual
episode contents, so paired experiments can assert they saw identical
test episodes rather than merely identical settings.

``evaluate`` scores through ``train.split_accuracies``: the test split is
embedded once and the episodes are sampled, fingerprinted and scored one
chunk at a time, in sampling order, so reports do not depend on the
chunk size.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from . import linalg
from .encoder import EncoderParams
from .episodes import Dataset, sample_episode
from .errors import ContractError, ShapeError
from .heads import Hyper, make_head
from .train import TrainConfig, fit, split_accuracies

Z95 = 1.96


@dataclass
class EvalReport:
    head: str
    train_domain: str
    test_domain: str
    n_way: int
    k_shot: int
    q_queries: int
    episodes: int
    mean_accuracy: float          # percent
    ci95: float                   # percent half-width
    per_episode: np.ndarray       # percent, length == episodes
    config_fingerprint: str
    episodes_fingerprint: str

    def to_line(self) -> str:
        return json.dumps({
            "head": self.head, "train_domain": self.train_domain,
            "test_domain": self.test_domain, "n": self.n_way, "k": self.k_shot,
            "q": self.q_queries, "episodes": self.episodes,
            "mean_accuracy": self.mean_accuracy, "ci95": self.ci95,
            "config_fingerprint": self.config_fingerprint,
            "episodes_fingerprint": self.episodes_fingerprint,
        })


def confidence_interval(per_episode: np.ndarray) -> tuple[float, float]:
    """(mean, 95% half-width) of a per-episode accuracy vector."""
    e = per_episode.size
    if e < 2:
        raise ContractError(f"confidence interval needs >= 2 episodes, got {e}")
    mean = float(np.mean(per_episode))
    s = float(np.std(per_episode, ddof=1))
    return mean, Z95 * s / math.sqrt(e)


def fingerprint_config(**kwargs) -> str:
    text = ";".join(f"{k}={kwargs[k]!r}" for k in sorted(kwargs))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _assert_no_class_leakage(train_set: Dataset | None, test_set: Dataset) -> None:
    if train_set is None or train_set.name != test_set.name:
        return
    shared = set(map(str, train_set.class_to_indices)) & set(
        map(str, test_set.class_to_indices))
    if shared:
        raise ContractError(
            f"train and test splits of {test_set.name!r} share classes: "
            f"{sorted(shared)[:5]}")


def eval_hyper(n_way: int, k_shot: int, q_queries: int, eval_episodes: int,
               lambda1: float = Hyper.lambda1) -> Hyper:
    """An evaluation's ``Hyper``, after refusing too few episodes for a CI."""
    if eval_episodes < 2:
        raise ContractError(
            f"eval_episodes must be >= 2 for a confidence interval, got {eval_episodes}")
    return Hyper(n_way, k_shot, q_queries, lambda1, 0.0)


def evaluate(params: EncoderParams, head, test_set: Dataset, n_way: int,
             k_shot: int, q_queries: int, episodes: int, seed: int,
             lambda1: float = Hyper.lambda1,
             train_set: Dataset | None = None) -> EvalReport:
    """Accuracy over freshly sampled test episodes with a 95% CI; the report's
    train domain is ``train_set``'s name, or ``test_set``'s without one."""
    hyper = eval_hyper(n_way, k_shot, q_queries, episodes, lambda1)
    if test_set.dim != params.layers[0].weight.shape[1]:
        raise ShapeError(f"test set {test_set.name!r} has {test_set.dim} features, but the "
                         f"encoder takes {params.layers[0].weight.shape[1]}")
    _assert_no_class_leakage(train_set, test_set)
    rng = linalg.named_stream(seed, "evaluation")
    ep_hash = hashlib.sha256()

    def sampled():
        for _ in range(episodes):
            episode = sample_episode(test_set, n_way, k_shot, q_queries, rng)
            ep_hash.update(episode.fingerprint().encode())
            yield episode

    per_episode = 100.0 * split_accuracies(params, head, test_set, sampled(), hyper)
    mean, ci = confidence_interval(per_episode)
    head_name = getattr(head, "name", head.__class__.__name__)
    return EvalReport(
        head=head_name,
        train_domain=(test_set if train_set is None else train_set).name,
        test_domain=test_set.name,
        n_way=n_way, k_shot=k_shot, q_queries=q_queries,
        episodes=episodes,
        mean_accuracy=mean, ci95=ci, per_episode=per_episode,
        config_fingerprint=fingerprint_config(
            head=head_name, n=n_way, k=k_shot, q=q_queries,
            episodes=episodes, seed=seed, lambda1=lambda1),
        episodes_fingerprint=ep_hash.hexdigest())


@dataclass
class AblationResult:
    """Paired reports over a list of lambda2 values (shared test episodes)."""

    lambda2_values: list[float]
    reports: list[EvalReport]
    per_episode_delta: list[np.ndarray]   # report[i] - report[0], percent
    mean_delta: list[float]

    def summary(self) -> str:
        """The reports' ``format_table``, then each value's paired delta."""
        lines = [format_table(self.reports)]
        for v, d in zip(self.lambda2_values[1:], self.mean_delta[1:]):
            lines.append(f"lambda2={v:g} vs {self.lambda2_values[0]:g}: "
                         f"paired accuracy delta {d:+.2f} points")
        return "\n".join(lines)


def ablate_lambda2(train_set: Dataset, val_set: Dataset, test_set: Dataset,
                   config: TrainConfig, lambda2_values,
                   eval_episodes: int = 600) -> AblationResult:
    """Train and score one regression-head model per lambda2 through
    ``domain_shift`` with otherwise identical seeds, so every model sees the
    same test episodes.  Only the regression head's loss reads lambda2."""
    if not lambda2_values:
        raise ContractError("ablation needs at least one lambda2 value")
    # TrainConfig checks every value before domain_shift trains the first model.
    configs = [replace(config, lambda2=float(value)) for value in lambda2_values]
    reports = [domain_shift(train_set, val_set, test_set, cfg, eval_episodes=eval_episodes)
               for cfg in configs]
    prints = {r.episodes_fingerprint for r in reports}
    if len(prints) != 1:
        raise ContractError(
            "paired ablation saw different test episodes across runs; "
            f"fingerprints {sorted(prints)}")
    deltas = [r.per_episode - reports[0].per_episode for r in reports]
    return AblationResult(
        lambda2_values=[float(v) for v in lambda2_values],
        reports=reports,
        per_episode_delta=deltas,
        mean_delta=[float(np.mean(d)) for d in deltas])


def domain_shift(train_a: Dataset, val_a: Dataset | None, test_b: Dataset,
                 config: TrainConfig, head_name: str = "regression",
                 eval_episodes: int = 600) -> EvalReport:
    """Train on domain A's classes, evaluate on domain B's test classes.
    Domain B may be A's own test split, as in ``ablate_lambda2``."""
    if train_a.dim != test_b.dim:
        raise ContractError(
            f"feature dimensions differ across domains: "
            f"{train_a.name} has D={train_a.dim}, {test_b.name} has D={test_b.dim}")
    eval_hyper(config.n_way, config.k_shot, config.q_queries, eval_episodes)
    head = make_head(head_name)
    params, _ = fit(train_a, val_a, config, head=head)
    return evaluate(
        params, head, test_b, config.n_way, config.k_shot, config.q_queries,
        eval_episodes, config.seed, lambda1=config.lambda1, train_set=train_a)


def format_table(reports) -> str:
    """Human-readable accuracy table."""
    header = (f"{'head':>10}  {'train -> test':<24}  {'task':<14}  "
              f"{'accuracy':>16}  {'episodes':>8}")
    rows = [header, "-" * len(header)]
    for r in reports:
        rows.append(
            f"{r.head:>10}  {r.train_domain + ' -> ' + r.test_domain:<24}  "
            f"{str(r.n_way) + '-way ' + str(r.k_shot) + '-shot':<14}  "
            f"{r.mean_accuracy:7.2f} +- {r.ci95:5.2f} %  {r.episodes:>8}")
    return "\n".join(rows)
