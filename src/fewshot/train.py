"""Episodic training: sample episodes, backprop the episode loss, update.

One update step takes one episode, as prototypical networks train:
it records the episode's (encoder back, loss back) pair on a tape, and
applies Adam with the gradient that ``autodiff.backward`` takes from it.
Validation accuracy is measured every ``val_interval`` episodes on
freshly sampled validation episodes, and the parameters with the best
validation accuracy (earliest on ties) are returned.

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
from .autodiff import Tape
from .encoder import EncoderParams
from .episodes import Dataset, Episode, check_sampleable, sample_episode
from .errors import ConfigError, ContractError, DivergenceError, NumericalError, ShapeError
from .heads import Hyper, RegressionHead


@dataclass
class TrainConfig(Hyper):
    """``Hyper``'s episode shape and loss weights, then the run's knobs; each
    is checked when built, the encoder shape by ``encoder.default_layer_spec``,
    with a message that starts with the field and gives the value."""

    episodes: int = 2000
    lr: float = 1e-3
    val_interval: int = 250
    val_episodes: int = 100
    seed: int = 0
    embed_dim: int = 16
    hidden_dim: int = 64
    depth: int = 2
    final_activation: str = "none"

    def __post_init__(self):
        if not (math.isfinite(self.lr) and self.lr > 0.0):
            raise ConfigError(f"lr must be finite and positive, got {self.lr}")
        for name in ("episodes", "val_interval", "val_episodes"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        self.layer_spec(1)
        super().__post_init__()

    def layer_spec(self, input_dim: int) -> list[tuple[int, int, str]]:
        return encoder.default_layer_spec(input_dim, self.embed_dim, self.hidden_dim,
                                          self.depth, final_activation=self.final_activation)


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


def _check_shape(episode: Episode, hyper: Hyper, index: int) -> None:
    """``ShapeError`` unless the episode has the hyper's (n_way, k_shot, q_queries)."""
    shape = (episode.n_way, episode.k_shot, episode.q_queries)
    want = (hyper.n_way, hyper.k_shot, hyper.q_queries)
    if shape != want:
        raise ShapeError(f"episode {index} has (n_way, k_shot, q_queries) = {shape}, "
                         f"but the hyper's are {want}")


def episode_accuracy(embedded: np.ndarray, episodes: list[Episode], head,
                     hyper: Hyper, first: int = 0) -> np.ndarray:
    """Per-episode fraction of queries whose predicted class matches, for a
    chunk of episodes scored as one stack; no gradients.

    ``embedded`` is the M x count embedding of the split the episodes were
    sampled from, and each episode's ``columns`` pick its support and
    queries out of it.  ``first`` is the chunk's position in its episode
    sequence, so a singular ridge system or a shape that is not the hyper's
    names its episode there.
    """
    for i, episode in enumerate(episodes):
        _check_shape(episode, hyper, first + i)
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


def episode_gradient(params: EncoderParams, episode: Episode, head, hyper: Hyper,
                     episode_index: int = 0) -> tuple[np.ndarray, dict]:
    """The gradient of one episode's loss, laid out as ``params.vector``,
    and the episode's loss and accuracy.  ``episode_index`` is the
    episode's 0-based position in its run, which a ``NumericalError`` or a
    shape that is not the hyper's names."""
    _check_shape(episode, hyper, episode_index)
    try:
        # episode.x: the support's NK columns, class by class, then the queries
        embedded, encoder_back = encoder.forward(params.vector, params, episode.x)
        loss, dist, loss_back = head.episode_loss(embedded, episode.query_y, hyper)
        value = loss.item()
        if not math.isfinite(value):
            raise DivergenceError(f"training diverged: non-finite loss {value}")
    except NumericalError as exc:
        raise exc.at_episode(episode_index) from exc
    # The loss's distances are the pre-update params' distances, so this
    # is the episode's accuracy without embedding a second time.
    y = episode.query_y
    accuracy = int(np.count_nonzero(heads.predict_np(dist) == y)) / y.size
    tape = Tape()
    tape.nodes.append((encoder_back, loss_back))
    return autodiff.backward(tape), {"loss": value, "accuracy": accuracy}


def train_step(params: EncoderParams, episode: Episode, config: TrainConfig,
               state: AdamState, head,
               episode_index: int = 0) -> tuple[EncoderParams, dict]:
    """One Adam update on one episode's loss; ``state`` is updated in place."""
    if state is None:
        raise ContractError("adam needs an optimizer state: pass AdamState.for_params(params)")
    grad, metrics = episode_gradient(params, episode, head, config, episode_index)
    return adam_update(params, grad, state, config.lr), metrics


def validate(params: EncoderParams, head, dataset: Dataset, config: TrainConfig,
             rng: np.random.Generator) -> float:
    """Mean query accuracy over ``config.val_episodes`` freshly sampled
    episodes (``split_accuracies``)."""
    sampled = (sample_episode(dataset, config.n_way, config.k_shot,
                              config.q_queries, rng)
               for _ in range(config.val_episodes))
    return float(np.mean(split_accuracies(params, head, dataset, sampled, config)))


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
    params = encoder.init_encoder(linalg.named_stream(config.seed, "init"),
                                  config.layer_spec(train_set.dim))
    sample_rng = linalg.named_stream(config.seed, "train-sampling")
    val_rng = linalg.named_stream(config.seed, "validation")
    state = AdamState.for_params(params)

    history: list[dict] = []
    best_params = params
    best_val = -1.0
    for episode in range(1, config.episodes + 1):
        sampled = sample_episode(train_set, config.n_way, config.k_shot,
                                 config.q_queries, sample_rng)
        params, metrics = train_step(params, sampled, config, state, head,
                                     episode_index=episode - 1)
        record = {"episode": episode, "loss": metrics["loss"],
                  "accuracy": metrics["accuracy"]}
        if val_set is not None and episode % config.val_interval == 0:
            val_acc = validate(params, head, val_set, config, val_rng)
            record["val_accuracy"] = val_acc
            if val_acc > best_val:
                best_val = val_acc
                best_params = params   # adam_update writes no parameter vector
        history.append(record)
    if best_val < 0.0:
        best_params = params
    return best_params, history


def history_lines(history: list[dict]) -> str:
    """One JSON object per record, keys in ``fit``'s order (stable bytes)."""
    return "\n".join(map(json.dumps, history)) + "\n"
