"""Episodic training: sample episodes, backprop the episode loss, update.

One update step consumes a batch of tasks (default one), accumulates the
summed loss on a single tape, and applies Adam (or plain SGD) with the
summed gradient.  Validation accuracy is measured every ``val_interval``
episodes on freshly sampled validation episodes, and the parameters with
the best validation accuracy (earliest on ties) are returned.

History is a list of plain dicts with deterministic fields only, so two
identical seeded runs serialize to byte-identical logs; wall-clock time
is reported separately by the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff, encoder, heads, linalg
from .autodiff import Tape
from .encoder import EncoderParams
from .episodes import Dataset, Episode, sample_episode
from .errors import ConfigError, DivergenceError
from .heads import Hyper, RegressionHead


@dataclass
class TrainConfig:
    n_way: int = 5
    k_shot: int = 5
    q_queries: int = 16
    batch_tasks: int = 1
    episodes: int = 2000
    lr: float = 1e-3
    lambda1: float = 1e-3
    lambda2: float | None = None     # None: 1e-3 for 1-shot, 1e-2 otherwise
    val_interval: int = 250
    val_episodes: int = 100
    seed: int = 0
    optimizer: str = "adam"
    embed_dim: int = 16
    hidden_dim: int = 64
    depth: int = 2
    activation: str = "relu"
    final_activation: str = "none"

    def __post_init__(self):
        if self.lr <= 0.0:
            raise ConfigError(f"learning rate must be positive, got {self.lr}")
        if self.episodes < 1 or self.batch_tasks < 1:
            raise ConfigError("episode and batch counts must be >= 1")
        if self.val_interval < 1 or self.val_episodes < 1:
            raise ConfigError("validation interval and episode count must be >= 1")
        if self.optimizer not in ("adam", "sgd"):
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")
        if self.activation not in encoder.ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}")
        if self.final_activation not in encoder.ACTIVATIONS:
            raise ConfigError(f"unknown final activation {self.final_activation!r}")
        if self.embed_dim < self.k_shot:
            raise ConfigError(
                f"embedding dim must be >= k_shot for a well-posed projection, "
                f"got M={self.embed_dim} < K={self.k_shot}")

    @property
    def resolved_lambda2(self) -> float:
        if self.lambda2 is not None:
            return self.lambda2
        return 1e-3 if self.k_shot == 1 else 1e-2

    def hyper(self) -> Hyper:
        return Hyper(self.n_way, self.k_shot, self.q_queries,
                     self.lambda1, self.resolved_lambda2)


@dataclass
class AdamState:
    m: list[np.ndarray]
    v: list[np.ndarray]
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def for_params(cls, params: EncoderParams) -> "AdamState":
        tensors = params.flatten()
        return cls(m=[np.zeros_like(t) for t in tensors],
                   v=[np.zeros_like(t) for t in tensors])


def adam_update(params: EncoderParams, grads: list[np.ndarray],
                state: AdamState, lr: float) -> EncoderParams:
    """Standard Adam with bias correction; returns updated parameters."""
    state.step += 1
    t = state.step
    c1 = 1.0 - state.beta1 ** t
    c2 = 1.0 - state.beta2 ** t
    new_tensors = []
    for i, (p, g) in enumerate(zip(params.flatten(), grads)):
        state.m[i] = state.beta1 * state.m[i] + (1.0 - state.beta1) * g
        state.v[i] = state.beta2 * state.v[i] + (1.0 - state.beta2) * (g * g)
        m_hat = state.m[i] / c1
        v_hat = state.v[i] / c2
        new_tensors.append(p - lr * m_hat / (np.sqrt(v_hat) + state.eps))
    return _rebuild(params, new_tensors)


def sgd_update(params: EncoderParams, grads: list[np.ndarray], lr: float) -> EncoderParams:
    new_tensors = [p - lr * g for p, g in zip(params.flatten(), grads)]
    return _rebuild(params, new_tensors)


def _rebuild(params: EncoderParams, tensors: list[np.ndarray]) -> EncoderParams:
    layers = []
    for i, layer in enumerate(params.layers):
        layers.append(encoder.Layer(tensors[2 * i], tensors[2 * i + 1], layer.activation))
    return EncoderParams(layers)


def episode_loss_on_tape(attached, params: EncoderParams, episode: Episode,
                         head, hyper: Hyper, tape: Tape):
    """Embed support and queries on the tape and record the head loss.

    Returns (loss, N x B distance matrix), as ``head.episode_loss`` does.
    """
    n, k, q = episode.n_way, episode.k_shot, episode.q_queries
    batch = np.hstack([episode.support_x, episode.query_x])
    embeds = encoder.forward(attached, params, tape.leaf(batch))
    support_cols = [
        autodiff.col_slice(embeds, c * k, (c + 1) * k) for c in range(n)
    ]
    query = autodiff.col_slice(embeds, n * k, n * k + n * q)
    return head.episode_loss(support_cols, query, episode.query_y, hyper)


def episode_accuracy(params: EncoderParams, head, episode: Episode,
                     hyper: Hyper) -> float:
    """Fraction of queries whose predicted class matches; no gradients."""
    support = encoder.embed_np(params, episode.support_x)
    query = encoder.embed_np(params, episode.query_x)
    k = episode.k_shot
    support_cols = [
        np.ascontiguousarray(support[:, c * k : (c + 1) * k])
        for c in range(episode.n_way)
    ]
    dist = head.distances_np(support_cols, query, hyper)
    predicted = heads.predict_np(dist)
    return float(np.mean(predicted == episode.query_y))


def train_step(params: EncoderParams, batch: list[Episode], config: TrainConfig,
               state: AdamState | None, head=None,
               episode_offset: int = 0) -> tuple[EncoderParams, dict]:
    """One optimizer update on the summed loss over a batch of episodes."""
    head = head if head is not None else RegressionHead()
    hyper = config.hyper()
    tape = Tape()
    attached = encoder.attach(params, tape)
    total = None
    losses = []
    accuracies = []
    for i, episode in enumerate(batch):
        loss, dist = episode_loss_on_tape(attached, params, episode, head, hyper, tape)
        value = loss.item()
        if not np.isfinite(value):
            raise DivergenceError(
                f"non-finite loss {value} at episode {episode_offset + i}",
                episode_index=episode_offset + i)
        losses.append(value)
        # The loss's distances are the pre-update params' distances, so this
        # is episode_accuracy(params, ...) without embedding a second time.
        accuracies.append(np.mean(heads.predict_np(dist.value) == episode.query_y))
        total = loss if total is None else autodiff.add(total, loss)
    autodiff.backward(tape, total)
    grads = []
    for w_var, b_var in attached:
        grads.append(w_var.grad)
        grads.append(b_var.grad)
    if config.optimizer == "adam":
        new_params = adam_update(params, grads, state, config.lr)
    else:
        new_params = sgd_update(params, grads, config.lr)
    metrics = {"loss": float(np.mean(losses)), "accuracy": float(np.mean(accuracies))}
    return new_params, metrics


def validate(params: EncoderParams, head, dataset: Dataset, config: TrainConfig,
             rng: np.random.Generator, n_episodes: int | None = None) -> float:
    """Mean query accuracy over freshly sampled episodes."""
    hyper = config.hyper()
    count = n_episodes if n_episodes is not None else config.val_episodes
    accs = [
        episode_accuracy(
            params, head,
            sample_episode(dataset, config.n_way, config.k_shot, config.q_queries, rng),
            hyper)
        for _ in range(count)
    ]
    return float(np.mean(accs))


def fit(train_set: Dataset, val_set: Dataset | None, config: TrainConfig,
        head=None, init_params: EncoderParams | None = None,
        ) -> tuple[EncoderParams, list[dict]]:
    """Run the episodic loop; return the best-validation params and history.

    Ties in validation accuracy keep the earliest checkpoint. If validation
    never runs (no val set, or the interval exceeds the episode budget),
    the final parameters are returned.
    """
    head = head if head is not None else RegressionHead()
    if init_params is None:
        spec = encoder.default_layer_spec(
            train_set.dim, config.embed_dim, config.hidden_dim,
            config.depth, config.activation, config.final_activation)
        params = encoder.init_encoder(linalg.named_stream(config.seed, "init"), spec)
    else:
        params = init_params.copy()
    sample_rng = linalg.named_stream(config.seed, "train-sampling")
    val_rng = linalg.named_stream(config.seed, "validation")
    state = AdamState.for_params(params) if config.optimizer == "adam" else None

    history: list[dict] = []
    best_params = params
    best_val = -1.0
    consumed = 0
    while consumed < config.episodes:
        take = min(config.batch_tasks, config.episodes - consumed)
        batch = [
            sample_episode(train_set, config.n_way, config.k_shot,
                           config.q_queries, sample_rng)
            for _ in range(take)
        ]
        params, metrics = train_step(params, batch, config, state, head,
                                     episode_offset=consumed)
        prev = consumed
        consumed += take
        record = {"episode": consumed,
                  "loss": metrics["loss"],
                  "accuracy": metrics["accuracy"]}
        # Validate when the batch crosses an interval boundary.
        if val_set is not None and (prev // config.val_interval) < (consumed // config.val_interval):
            val_acc = validate(params, head, val_set, config, val_rng)
            record["val_accuracy"] = val_acc
            if val_acc > best_val:
                best_val = val_acc
                best_params = params.copy()
        history.append(record)
    if best_val < 0.0:
        best_params = params
    return best_params, history


def history_lines(history: list[dict]) -> str:
    """Line-delimited records with a fixed key order (stable bytes)."""
    keys = ("episode", "loss", "accuracy", "val_accuracy")
    lines = []
    for record in history:
        parts = []
        for key in keys:
            if key in record:
                value = record[key]
                text = str(value) if isinstance(value, int) else repr(float(value))
                parts.append(f'"{key}": {text}')
        lines.append("{" + ", ".join(parts) + "}")
    return "\n".join(lines) + "\n"
