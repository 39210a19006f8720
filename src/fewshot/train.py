"""Episodic training: sample episodes, backprop the episode loss, update.

One update step consumes a batch of tasks (default one), accumulates the
summed loss on a single tape, and applies Adam (or plain SGD) with the
summed gradient.  Validation accuracy is measured every ``val_interval``
episodes on freshly sampled validation episodes, and the parameters with
the best validation accuracy (earliest on ties) are returned.

Validation and evaluation share one scoring engine, ``split_accuracies``:
it embeds the whole split once with ``encoder.embed_np``, then scores the
episodes in chunks (``episode_accuracy``), each chunk one (E, M, NK)
support and (E, M, B) query stack gathered from that embedding through
the episodes' ``columns`` and run through the head's ``distances_np``.
A chunk holds as many episodes as fit in ``CHUNK_FLOATS``.

History is a list of plain dicts with deterministic fields only, so two
identical seeded runs serialize to byte-identical logs; wall-clock time
is reported separately by the CLI.
"""

from __future__ import annotations

import itertools
import json
import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from . import autodiff, encoder, heads, linalg
from .autodiff import Tape, Var
from .encoder import EncoderParams
from .episodes import Dataset, Episode, check_sampleable, sample_episode
from .errors import ConfigError, ContractError, DivergenceError, NumericalError
from .heads import Hyper, RegressionHead

OPTIMIZERS = ("adam", "sgd")


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
        if not (math.isfinite(self.lr) and self.lr > 0.0):
            raise ConfigError(f"learning rate must be finite and positive, got {self.lr}")
        if self.episodes < 1 or self.batch_tasks < 1:
            raise ConfigError("episode and batch counts must be >= 1")
        if self.val_interval < 1 or self.val_episodes < 1:
            raise ConfigError("validation interval and episode count must be >= 1")
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")
        if self.activation not in encoder.ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}")
        if self.final_activation not in encoder.ACTIVATIONS:
            raise ConfigError(f"unknown final activation {self.final_activation!r}")
        self.hyper()   # episode shape and loss weights fail here, not mid-run

    @property
    def resolved_lambda2(self) -> float:
        if self.lambda2 is not None:
            return self.lambda2
        return 1e-3 if self.k_shot == 1 else 1e-2

    def hyper(self) -> Hyper:
        return Hyper(self.n_way, self.k_shot, self.q_queries,
                     self.lambda1, self.resolved_lambda2)


# Adam's moment decay rates and denominator floor (Kingma & Ba's defaults).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """First and second moments, laid out as ``EncoderParams.vector``."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def for_params(cls, params: EncoderParams) -> "AdamState":
        return cls(m=np.zeros_like(params.vector), v=np.zeros_like(params.vector))


def adam_update(params: EncoderParams, grad: np.ndarray,
                state: AdamState, lr: float) -> EncoderParams:
    """Standard Adam with bias correction on the flat gradient ``grad``;
    returns new parameters and updates ``state.m`` and ``state.v`` in place.
    Only ``scratch`` and ``step`` (the new vector) are allocated: network-
    sized temporaries cost more to allocate than their arithmetic."""
    state.step += 1
    c1 = 1.0 - ADAM_BETA1 ** state.step
    c2 = 1.0 - ADAM_BETA2 ** state.step
    m, v = state.m, state.v
    scratch = grad * (1.0 - ADAM_BETA1)
    m *= ADAM_BETA1
    m += scratch
    np.multiply(grad, grad, out=scratch)
    scratch *= 1.0 - ADAM_BETA2
    v *= ADAM_BETA2
    v += scratch
    step = m / c1
    step *= lr
    np.divide(v, c2, out=scratch)
    np.sqrt(scratch, out=scratch)
    scratch += ADAM_EPS
    step /= scratch
    return params.with_vector(np.subtract(params.vector, step, out=step))


def sgd_update(params: EncoderParams, grad: np.ndarray, lr: float) -> EncoderParams:
    return params.with_vector(params.vector - lr * grad)


def episode_loss_on_tape(theta: Var, params: EncoderParams, episode: Episode,
                         head, hyper: Hyper):
    """Embed the episode's support and queries (``episode.x``, the support
    one block of NK columns, class by class as sampled, then the queries)
    on the tape of the parameter leaf ``theta`` (see ``encoder.forward``),
    and record the head's loss on that embedding as one node.

    Returns (loss, N x B distance array), as ``head.episode_loss`` does.
    """
    embeds = encoder.forward(theta, params, episode.x)
    return head.episode_loss(embeds, episode.query_y, hyper)


# Float budget of one scoring chunk.  The largest per-episode value a
# head computes is an N x max(M, K) x B stack (regression residuals and
# coefficients, proto differences), and a kernel keeps a few of them
# alive; 2**16 floats (512 KiB) hold 10 episodes at 5-way 5-shot with 16
# queries and M = 16, which keeps scoring well inside the memory of one
# training step.
CHUNK_FLOATS = 1 << 16


def chunk_episodes(hyper: Hyper, embed_dim: int) -> int:
    """Episodes per scoring chunk under ``CHUNK_FLOATS``, at least one."""
    per_episode = (hyper.n_way * max(embed_dim, hyper.k_shot)
                   * hyper.n_way * hyper.q_queries)
    return max(1, CHUNK_FLOATS // per_episode)


def episode_accuracy(embedded: np.ndarray, episodes: list[Episode], head,
                     hyper: Hyper, first: int = 0) -> np.ndarray:
    """Per-episode fraction of queries whose predicted class matches, for a
    chunk of episodes scored as one stack; no gradients.

    ``embedded`` is the M x count embedding of the split the episodes were
    sampled from, and each episode's ``columns`` pick its support and
    queries out of it.  ``first`` is the chunk's position in its episode
    sequence, so a singular ridge system names its episode there.
    """
    nk = hyper.n_way * hyper.k_shot
    columns = np.stack([ep.columns for ep in episodes])          # E x (NK + NQ)
    stack = np.swapaxes(embedded[:, columns], 0, 1)              # E x M x (NK + NQ)
    try:
        dist = head.distances_np(stack[..., :nk], stack[..., nk:], hyper)
    except NumericalError as exc:
        if exc.episode_index is None:
            raise
        raise exc.at_episode(first + exc.episode_index) from exc
    labels = np.stack([ep.query_y for ep in episodes])
    return np.mean(heads.predict_np(dist) == labels, axis=-1)


def split_accuracies(params: EncoderParams, head, dataset: Dataset,
                     episodes: Iterable[Episode], hyper: Hyper) -> np.ndarray:
    """Per-episode accuracies of episodes sampled from ``dataset``.

    The split is embedded once; ``episodes`` (a generator is fine) is
    drawn and scored one chunk of ``chunk_episodes`` at a time.
    """
    embedded = encoder.embed_np(params, dataset.features)
    size = chunk_episodes(hyper, params.output_dim)
    source = iter(episodes)
    chunks = iter(lambda: list(itertools.islice(source, size)), [])
    return np.concatenate([np.empty(0)] + [
        episode_accuracy(embedded, chunk, head, hyper, first=i * size)
        for i, chunk in enumerate(chunks)])


def batch_gradient(params: EncoderParams, batch: list[Episode], head,
                   hyper: Hyper, episode_offset: int = 0) -> tuple[np.ndarray, dict]:
    """The gradient of the summed loss over a batch of episodes, laid out
    as ``params.vector``, and the batch's mean loss and accuracy."""
    if not batch:
        raise ContractError("a training step needs at least one episode, got an empty batch")
    tape = Tape()
    theta = tape.leaf(params.vector)
    total = None
    losses = []
    accuracies = []
    for i, episode in enumerate(batch):
        try:
            loss, dist = episode_loss_on_tape(theta, params, episode, head, hyper)
            value = loss.item()
            if not np.isfinite(value):
                raise DivergenceError(f"training diverged: non-finite loss {value}")
        except NumericalError as exc:
            raise exc.at_episode(episode_offset + i) from exc
        losses.append(value)
        # The loss's distances are the pre-update params' distances, so this
        # is the episode's accuracy without embedding a second time.
        accuracies.append(np.mean(heads.predict_np(dist) == episode.query_y))
        total = loss if total is None else autodiff.add(total, loss)
    autodiff.backward(tape, total)
    metrics = {"loss": float(np.mean(losses)), "accuracy": float(np.mean(accuracies))}
    return theta.grad.reshape(params.vector.shape), metrics


def train_step(params: EncoderParams, batch: list[Episode], config: TrainConfig,
               state: AdamState | None, head=None,
               episode_offset: int = 0) -> tuple[EncoderParams, dict]:
    """One optimizer update on the summed loss over a batch of episodes;
    Adam updates ``state`` in place."""
    if config.optimizer == "adam" and state is None:
        raise ContractError("adam needs an optimizer state: pass AdamState.for_params(params)")
    head = head if head is not None else RegressionHead()
    grad, metrics = batch_gradient(params, batch, head, config.hyper(), episode_offset)
    if config.optimizer == "adam":
        new_params = adam_update(params, grad, state, config.lr)
    else:
        new_params = sgd_update(params, grad, config.lr)
    return new_params, metrics


def validate(params: EncoderParams, head, dataset: Dataset, config: TrainConfig,
             rng: np.random.Generator) -> float:
    """Mean query accuracy over ``config.val_episodes`` freshly sampled
    episodes (``split_accuracies``)."""
    sampled = (sample_episode(dataset, config.n_way, config.k_shot,
                              config.q_queries, rng)
               for _ in range(config.val_episodes))
    return float(np.mean(split_accuracies(params, head, dataset, sampled,
                                          config.hyper())))


def fit(train_set: Dataset, val_set: Dataset | None, config: TrainConfig,
        head=None) -> tuple[EncoderParams, list[dict]]:
    """Run the episodic loop; return the best-validation params and history.

    Ties in validation accuracy keep the earliest checkpoint. If validation
    never runs (no val set, or the interval exceeds the episode budget),
    the final parameters are returned.  A split too small for an episode
    raises ``SamplingError`` before the first step.
    """
    head = head if head is not None else RegressionHead()
    validates = val_set is not None and config.episodes >= config.val_interval
    for dataset in (train_set, val_set) if validates else (train_set,):
        check_sampleable(dataset, config.n_way, config.k_shot + config.q_queries)
    spec = encoder.default_layer_spec(
        train_set.dim, config.embed_dim, config.hidden_dim,
        config.depth, config.activation, config.final_activation)
    params = encoder.init_encoder(linalg.named_stream(config.seed, "init"), spec)
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
    """One JSON object per record, keys in ``fit``'s order (stable bytes)."""
    return "\n".join(map(json.dumps, history)) + "\n"
