"""The benchmark's workloads: inputs, the unit of work, expected layer counts, gate.

Every workload is a closed loop: one caller runs one unit after another,
and each unit is the same seeded ``train.fit`` of ``Sizes.train_episodes``
5-way 5-shot episodes in the README quick-start shape (validation every
``val_interval`` episodes on ``val_episodes`` episodes), so every unit
returns the same history and the loop can check that it does.  After the
loop the trained encoder is evaluated on ``test_episodes`` test episodes.

The package receives only the ``Dataset`` objects generated from the
workload seed and the configuration.
"""

from __future__ import annotations

import importlib
import math
import statistics
import time
from dataclasses import dataclass

from probe import Probe
from spans import patched

N_WAY = 5
K_SHOT = 5
Q_QUERIES = 16
LAMBDA1 = 10.0
HIDDEN = 128
GATE_SEED = 0

# Synthetic data of the README quick start: 30 classes of 50 examples in
# 32 dimensions, split 20/5/5 classes into train/val/test.
SYNTH = dict(n_classes=30, per_class=50, dim=32, spread=1.0, within_std=0.3)
FRACTIONS = (2 / 3, 1 / 6, 1 / 6)

# A trained model below this validation accuracy is wrong, not slow:
# chance is 20%, and over seeds 0-39 the best validation accuracy was
# 85-100%.
MIN_VAL_ACCURACY = 0.60


@dataclass(frozen=True)
class Sizes:
    train_episodes: int = 500     # episodes per fit (one unit)
    val_interval: int = 250
    val_episodes: int = 100
    test_episodes: int = 100      # evaluate() of the trained encoder
    setups: int = 40              # set-ups timed per run
    overhead_pairs: int = 3       # untraced/traced unit pairs of a traced run


FULL = Sizes()
# Inputs of the correctness gate: seed GATE_SEED, small enough to run in
# every benchmark run, recorded in reference.json.
GATE = Sizes(train_episodes=60, val_interval=30, val_episodes=20,
             test_episodes=40, setups=1)
# A few episodes of everything, for the smoke test.
TINY = Sizes(train_episodes=6, val_interval=3, val_episodes=2,
             test_episodes=2, setups=2, overhead_pairs=2)


@dataclass(frozen=True)
class Workload:
    name: str
    head: str


# The head each workload trains; BENCHMARK.json says why each exists.
WORKLOADS = {w.name: w for w in (
    Workload("train-regression-5w5s", "regression"),
    Workload("train-proto-5w5s", "proto"),
)}


def fs(module: str):
    """A fewshot submodule, looked up at call time so trace wrappers apply.

    ``fewshot.evaluate`` as a package attribute is the function, so go
    through importlib rather than attribute access.
    """
    return importlib.import_module(f"fewshot.{module}")


def fit_config(seed: int, sizes: Sizes):
    # lambda2 stays at its default ('auto': 0.01 for K > 1), so the
    # regression head runs heads.ortho_penalty.
    return fs("train").TrainConfig(
        n_way=N_WAY, k_shot=K_SHOT, q_queries=Q_QUERIES,
        episodes=sizes.train_episodes, lambda1=LAMBDA1,
        val_interval=sizes.val_interval, val_episodes=sizes.val_episodes,
        seed=seed, hidden_dim=HIDDEN, final_activation="relu")


@dataclass
class State:
    train_set: object
    val_set: object
    test_set: object


def setup(seed: int) -> State:
    """Dataset synthesis and class split."""
    episodes, linalg = fs("episodes"), fs("linalg")
    data = episodes.synth_gaussian(linalg.named_stream(seed, "dataset"), **SYNTH)
    return State(*episodes.split_classes(data, FRACTIONS,
                                         linalg.named_stream(seed, "split")))


# The host's speed is sampled after train step 1, 1 + PROBE_EVERY, ... of
# a unit, each time as the median of PROBE_REPEATS probe runs: about 2% of
# a unit's time, spread over it so that the samples see what the unit saw.
PROBE_EVERY = 25
PROBE_REPEATS = 5


class StepClock:
    """Per-call seconds of train_step and validate, installed by spans.patched.

    Between train steps, outside every timed call, it also samples the
    host's speed with ``host``; ``probing_s`` is the wall time that took.
    """

    def __init__(self, host: Probe):
        self.host = host
        self.steps: list[float] = []
        self.validations: list[tuple[int, float]] = []   # (steps before it, seconds)
        self.probes: list[float] = []
        self.probing_s = 0.0

    def wrappers(self) -> dict:
        return {"train.train_step": self._timed(self._step),
                "train.validate": self._timed(
                    lambda s: self.validations.append((len(self.steps), s)))}

    def _step(self, seconds: float) -> None:
        self.steps.append(seconds)
        if len(self.steps) % PROBE_EVERY == 1:
            start = time.perf_counter()
            self.probes.append(self.host.seconds(PROBE_REPEATS))
            self.probing_s += time.perf_counter() - start

    @staticmethod
    def _timed(record):
        def make(_target, original):
            def timed(*args, **kwargs):
                start = time.perf_counter()
                result = original(*args, **kwargs)
                record(time.perf_counter() - start)
                return result
            return timed
        return make

    def episode_seconds(self) -> list[float]:
        """train_step time plus its share of the validation that followed it."""
        per_episode = list(self.steps)
        start = 0
        for end, seconds in self.validations:
            share = seconds / max(end - start, 1)
            for i in range(start, end):
                per_episode[i] += share
            start = end
        return per_episode


class UnitFailed(Exception):
    """A unit raised DivergenceError or ConditioningError part way."""

    def __init__(self, completed: int, cause: Exception):
        super().__init__(f"{type(cause).__name__}: {cause}")
        self.completed = completed


@dataclass
class Unit:
    history: list[dict]      # what every unit of a run must reproduce exactly
    samples: list[float]     # per-episode seconds
    params: object           # trained encoder
    wall_s: float            # the fit's wall time, probing excluded
    probe_s: float           # median probe seconds sampled during the fit


def run_unit(w: Workload, seed: int, state: State, sizes: Sizes, host: Probe) -> Unit:
    """One fit, timed, with the host's speed sampled while it runs."""
    errors = fs("errors")
    clock = StepClock(host)
    with patched(clock.wrappers()) as missing:
        if missing:
            raise RuntimeError(f"cannot time per-episode latency: {missing} not found")
        try:
            start = time.perf_counter()
            params, history = fs("train").fit(
                state.train_set, state.val_set, fit_config(seed, sizes),
                head=fs("heads").make_head(w.head))
            wall_s = time.perf_counter() - start - clock.probing_s
        except (errors.DivergenceError, errors.ConditioningError) as exc:
            raise UnitFailed(len(clock.steps), exc) from exc
    per_episode = clock.episode_seconds()
    if len(per_episode) != sizes.train_episodes:
        raise RuntimeError(f"timed {len(per_episode)} train steps, expected "
                           f"{sizes.train_episodes}")
    return Unit(history, per_episode, params, wall_s, statistics.median(clock.probes))


def test_report(w: Workload, seed: int, state: State, params, sizes: Sizes):
    """``evaluate.evaluate`` of trained params on fresh test episodes."""
    return fs("evaluate").evaluate(
        params, fs("heads").make_head(w.head), state.test_set, N_WAY, K_SHOT,
        Q_QUERIES, sizes.test_episodes, seed, lambda1=LAMBDA1)


def best_val_accuracy(history: list[dict]) -> float:
    vals = [r["val_accuracy"] for r in history if "val_accuracy" in r]
    return max(vals) if vals else math.nan


def answer_checks(history: list[dict]) -> list[str]:
    """Plausibility of one unit's history for any seed: finite and accurate."""
    problems = []
    if not all(math.isfinite(r["loss"]) for r in history):
        problems.append("non-finite training loss")
    best = best_val_accuracy(history)
    if not best >= MIN_VAL_ACCURACY:
        problems.append(f"best validation accuracy {best} < {MIN_VAL_ACCURACY}")
    return problems


# -- correctness gate --------------------------------------------------------


def gate_answer(w: Workload) -> dict:
    """The workload's computation on the fixed GATE inputs, as JSON data."""
    state = setup(GATE_SEED)
    unit = run_unit(w, GATE_SEED, state, GATE, Probe())
    report = test_report(w, GATE_SEED, state, unit.params, GATE)
    return {"loss": [r["loss"] for r in unit.history],
            "val_accuracy": [r["val_accuracy"] for r in unit.history
                             if "val_accuracy" in r],
            "per_episode": report.per_episode.tolist(),
            "episodes_fingerprint": report.episodes_fingerprint}


# Tolerances: summation order may change the last bits of a loss (relative
# 1e-6 leaves room for that and nothing else), and such a change may flip
# a near-tied query, so accuracies may differ by one query per episode
# (100 / (N * Q) points) and validation accuracy by 0.5 points.
LOSS_RTOL = 1e-6
ONE_QUERY_PCT = 100.0 / (N_WAY * Q_QUERIES)
VAL_ATOL = 0.005


def gate_mismatches(got: dict, ref: dict) -> list[str]:
    problems = []
    if got.keys() != ref.keys():
        return [f"gate keys {sorted(got)} != reference {sorted(ref)}"]
    for key, want in ref.items():
        have = got[key]
        if isinstance(want, str):
            ok = have == want
        elif len(have) != len(want):
            ok = False
        elif key == "loss":
            ok = all(math.isclose(h, r, rel_tol=LOSS_RTOL) for h, r in zip(have, want))
        elif key == "per_episode":
            ok = all(abs(h - r) <= ONE_QUERY_PCT + 1e-9 for h, r in zip(have, want))
        else:
            ok = all(abs(h - r) <= VAL_ATOL for h, r in zip(have, want))
        if not ok:
            problems.append(f"gate {key} differs from the reference")
    return problems


# -- traced-run expectations -------------------------------------------------

LINALG = ("linalg.cholesky", "linalg.solve_with_factor")


def expected_counts(w: Workload, sizes: Sizes) -> tuple[dict, set, set]:
    """Calls implied by one traced set-up, fit and test evaluation.

    Returns (exact counts the workload implies, layers that must be
    called at least once, layers that must not be called).  Counts that
    depend on how the package computes (Cholesky calls per episode,
    re-embedded columns) are not here: see ``baseline_notes``.
    """
    episodes, tests = sizes.train_episodes, sizes.test_episodes
    validations = episodes // sizes.val_interval
    exact = {"train.train_step": episodes, "train.adam_update": episodes,
             "autodiff.backward": episodes, "heads.episode_loss": episodes,
             "train.validate": validations,
             "episodes.sample_episode": episodes + validations * sizes.val_episodes
             + tests,
             "episodes.synth_gaussian": 1, "episodes.split_classes": 1,
             "evaluate.evaluate": 1, "episodes.Episode.fingerprint": tests}
    nonzero = {"encoder.forward", "encoder.embed_np", "heads.distances_np",
               "train.episode_accuracy"}
    zero = set()
    if w.head == "regression":
        nonzero |= set(LINALG) | {"heads.ortho_penalty"}
    else:
        zero |= set(LINALG) | {"heads.ortho_penalty"}
    return exact, nonzero, zero


def baseline_notes(w: Workload, tracer) -> list[str]:
    """Counts that held when the benchmark was written; a refactor may change them.

    Each train episode re-embeds its columns once for train accuracy
    (ratio 1.0), and the regression head factors one K x K Gram matrix
    per class and scored episode (5 Cholesky calls per 5-way episode).
    """
    notes = []
    ratio = reembed_ratio(tracer)
    if ratio != 1.0:
        notes.append(f"encoder.reembed_ratio is {ratio}, was 1.0")
    if w.head == "regression":
        scored = tracer.calls["heads.distances_np"] + tracer.calls["heads.episode_loss"]
        if tracer.calls["linalg.cholesky"] != N_WAY * scored:
            notes.append(f"linalg.cholesky calls {tracer.calls['linalg.cholesky']}, "
                         f"was {N_WAY} per scored episode ({N_WAY * scored})")
    return notes


def reembed_ratio(tracer) -> float:
    on_tape = tracer.counters["tape_columns"]
    return tracer.counters["reembed_columns"] / on_tape if on_tape else 0.0


def _columns(batch) -> int:
    shape = getattr(batch, "shape", None)
    return int(shape[1]) if shape is not None and len(shape) == 2 else 1


def observers() -> dict:
    """Argument observers that turn calls into per-layer counts."""

    def embed_np(tracer, args, kwargs):
        cols = _columns(args[1] if len(args) > 1 else kwargs["batch"])
        tracer.counters["embed_np_columns"] += cols
        if tracer.active("train.train_step"):
            tracer.counters["reembed_columns"] += cols

    def forward(tracer, args, kwargs):
        if tracer.active("train.train_step"):
            tracer.counters["tape_columns"] += _columns(
                args[2] if len(args) > 2 else kwargs["x"])

    def backward(tracer, args, kwargs):
        tracer.counters["tape_nodes"] += len((args[0] if args else kwargs["tape"]).nodes)

    return {"encoder.embed_np": embed_np, "encoder.forward": forward,
            "autodiff.backward": backward}
