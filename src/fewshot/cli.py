"""Command-line interface: train, eval, ablate, shift, check.

Configuration precedence is defaults <- config file <- command-line flags.
The config file is flat ``key = value`` text with ``#`` comments; keys
mirror the flag names. Exit codes: 0 success, 1 verification failure,
2 usage error, 3 I/O or file-format error, 4 numerical failure: a
non-finite loss or a non-positive-definite ridge system.

``--threads`` (config key ``threads``) is accepted and ignored, so older
config files still parse; evaluation runs on one thread.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from dataclasses import dataclass, fields, replace

from . import verify
from .evaluate import ablate_lambda2, domain_shift, evaluate, format_table
from .encoder import ACTIVATIONS, load_encoder, save_encoder
from .episodes import load_csv, split_classes, synth_gaussian
from .errors import (CheckpointError, ConditioningError, ConfigError,
                     DatasetFormatError, DegenerateSubspaceError,
                     DivergenceError, FewshotError)
from .heads import HEADS, make_head
from .linalg import named_stream
from .train import OPTIMIZERS, TrainConfig, fit, history_lines

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4


@dataclass
class RunConfig:
    """Flat bag of every knob; commands read the fields they need."""

    dataset: str = "synth"
    target_dataset: str = ""      # shift: domain B (defaults to a translated copy)
    offset: float = 0.5           # shift: center translation for the synthetic copy
    n: int = 5
    k: int = 5
    q: int = 16
    episodes: int = 2000
    eval_episodes: int = 600
    lr: float = 1e-3
    lambda1: float = 1e-3
    lambda2: float | None = None  # None: resolved by shot count
    lambda2_values: str = "0,0.01"
    head: str = "regression"
    seed: int = 0
    threads: int = 1             # accepted and ignored
    out: str = ""
    checkpoint: str = ""
    batch_tasks: int = 1
    val_interval: int = 250
    val_episodes: int = 100
    optimizer: str = "adam"
    embed_dim: int = 16
    hidden_dim: int = 64
    depth: int = 2
    activation: str = "relu"
    final_activation: str = "none"
    synth_classes: int = 30
    per_class: int = 50
    dim: int = 32
    spread: float = 1.0
    within_std: float = 1.0
    val_fraction: float = 1.0 / 6.0
    test_fraction: float = 1.0 / 6.0

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            n_way=self.n, k_shot=self.k, q_queries=self.q,
            batch_tasks=self.batch_tasks, episodes=self.episodes,
            lr=self.lr, lambda1=self.lambda1, lambda2=self.lambda2,
            val_interval=self.val_interval, val_episodes=self.val_episodes,
            seed=self.seed, optimizer=self.optimizer,
            embed_dim=self.embed_dim, hidden_dim=self.hidden_dim,
            depth=self.depth, activation=self.activation,
            final_activation=self.final_activation)


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _parse_value(key: str, text: str):
    """Convert a config-file token to the field's declared type."""
    text = text.strip()
    kind = _FIELD_TYPES[key]
    if key == "lambda2":
        return None if text.lower() in ("auto", "none", "") else float(text)
    if kind == "int":
        return int(text)
    if kind == "float":
        return float(text)
    return text


def parse_config_file(path: str) -> dict:
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}: line {lineno} is not 'key = value'")
            key, _, text = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in _FIELD_TYPES:
                raise ConfigError(f"{path}: line {lineno}: unknown key {key!r}")
            try:
                values[key] = _parse_value(key, text)
            except ValueError:
                raise ConfigError(
                    f"{path}: line {lineno}: bad value {text.strip()!r} for {key!r}"
                ) from None
    return values


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, help="flat key = value config file")
    common.add_argument("--dataset", default=None,
                        help="'synth' or a CSV path (label,feat_1,...,feat_D)")
    common.add_argument("--n", type=int, default=None, help="classes per episode")
    common.add_argument("--k", type=int, default=None, help="support shots per class")
    common.add_argument("--q", type=int, default=None, help="queries per class")
    common.add_argument("--episodes", type=int, default=None, help="training episodes")
    common.add_argument("--eval-episodes", type=int, default=None, dest="eval_episodes")
    common.add_argument("--lr", type=float, default=None, help="learning rate")
    common.add_argument("--lambda1", type=float, default=None,
                        help="ridge conditioning weight")
    common.add_argument("--lambda2", default=None,
                        help="orthogonalization weight, or 'auto' (by shot count)")
    common.add_argument("--head", choices=tuple(HEADS), default=None)
    common.add_argument("--seed", type=int, default=None, help="root random seed")
    common.add_argument("--threads", type=int, default=None,
                        help="accepted and ignored (evaluation is single-threaded)")
    common.add_argument("--out", default=None, help="output directory")
    common.add_argument("--optimizer", choices=OPTIMIZERS, default=None)
    common.add_argument("--batch-tasks", type=int, default=None, dest="batch_tasks")
    common.add_argument("--val-interval", type=int, default=None, dest="val_interval")
    common.add_argument("--val-episodes", type=int, default=None, dest="val_episodes")
    common.add_argument("--embed-dim", type=int, default=None, dest="embed_dim")
    common.add_argument("--hidden-dim", type=int, default=None, dest="hidden_dim")
    common.add_argument("--depth", type=int, default=None)
    common.add_argument("--activation", choices=ACTIVATIONS, default=None)
    common.add_argument("--final-activation", choices=ACTIVATIONS,
                        default=None, dest="final_activation",
                        help="activation on the embedding layer itself")
    common.add_argument("--synth-classes", type=int, default=None, dest="synth_classes")
    common.add_argument("--per-class", type=int, default=None, dest="per_class")
    common.add_argument("--dim", type=int, default=None, help="synthetic feature dim")
    common.add_argument("--spread", type=float, default=None)
    common.add_argument("--within-std", type=float, default=None, dest="within_std")

    parser = argparse.ArgumentParser(
        prog="fewshot",
        description="Few-shot classification by regression-error distance "
                    "to class subspaces, with prototype and cosine baselines.")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("train", parents=[common],
                   help="episodic training; writes a checkpoint and history log")
    p_eval = sub.add_parser("eval", parents=[common],
                            help="evaluate a checkpoint on test-split episodes")
    p_eval.add_argument("--checkpoint", default=None, help="encoder checkpoint path")
    p_ablate = sub.add_parser("ablate", parents=[common],
                              help="paired runs over a list of lambda2 values")
    p_ablate.add_argument("--lambda2-values", default=None, dest="lambda2_values",
                          help="comma-separated list, e.g. 0,0.01")
    p_shift = sub.add_parser("shift", parents=[common],
                             help="train on domain A, evaluate on domain B")
    p_shift.add_argument("--target-dataset", default=None, dest="target_dataset",
                         help="domain B CSV (default: translated synthetic copy)")
    p_shift.add_argument("--offset", type=float, default=None,
                         help="center translation for the synthetic domain B")
    sub.add_parser("check", parents=[common],
                   help="run the verification suites and report pass/fail")
    return parser


def build_run_config(args: argparse.Namespace) -> RunConfig:
    """defaults <- config file <- flags, then range validation."""
    config = RunConfig()
    if args.config is not None:
        for key, value in parse_config_file(args.config).items():
            setattr(config, key, value)
    for field in fields(RunConfig):
        value = getattr(args, field.name, None)
        if value is not None:
            if field.name == "lambda2":
                value = _parse_value("lambda2", str(value))
            setattr(config, field.name, value)

    def positive(name, value, floor=1):
        if value < floor:
            raise ConfigError(f"--{name.replace('_', '-')} must be >= {floor}, got {value}")

    positive("n", config.n, 2)
    positive("k", config.k)
    positive("q", config.q)
    positive("episodes", config.episodes)
    positive("eval-episodes", config.eval_episodes, 2)
    positive("batch-tasks", config.batch_tasks)
    positive("val-interval", config.val_interval)
    positive("val-episodes", config.val_episodes)
    positive("synth-classes", config.synth_classes, 2)
    positive("per-class", config.per_class)
    positive("dim", config.dim)
    positive("embed-dim", config.embed_dim)
    positive("hidden-dim", config.hidden_dim)
    positive("depth", config.depth, 0)
    if not (math.isfinite(config.lr) and config.lr > 0):
        raise ConfigError(f"--lr must be finite and positive, got {config.lr}")
    if not (math.isfinite(config.lambda1) and config.lambda1 >= 0):
        raise ConfigError(f"--lambda1 must be finite and nonnegative, got {config.lambda1}")
    if config.lambda2 is not None and not (math.isfinite(config.lambda2)
                                           and config.lambda2 >= 0):
        raise ConfigError(f"--lambda2 must be finite and nonnegative, got {config.lambda2}")
    return config


def _load_domain(config: RunConfig, offset: float = 0.0, suffix: str = ""):
    """``config.dataset`` plus its class-level (train, val, test) splits."""
    if config.dataset == "synth":
        data = synth_gaussian(
            named_stream(config.seed, "dataset"), config.synth_classes,
            config.per_class, config.dim, config.spread, config.within_std,
            offset=offset, name="synth" + suffix)
    else:
        data = load_csv(config.dataset)
    train_frac = 1.0 - config.val_fraction - config.test_fraction
    return split_classes(
        data, (train_frac, config.val_fraction, config.test_fraction),
        named_stream(config.seed, "split"))


def _write_text(path: str, text: str) -> None:
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _config_lines(config: RunConfig) -> str:
    pairs = []
    for field in fields(RunConfig):
        value = getattr(config, field.name)
        if field.name == "lambda2" and value is None:
            value = "auto"
        pairs.append(f"{field.name} = {value}")
    return "\n".join(pairs) + "\n"


def cmd_train(config: RunConfig) -> int:
    if not config.out:
        raise ConfigError("train requires --out (directory for checkpoint and history)")
    train_set, val_set, _ = _load_domain(config)
    head = make_head(config.head)
    started = time.perf_counter()
    params, history = fit(train_set, val_set, config.train_config(), head=head)
    elapsed = time.perf_counter() - started
    os.makedirs(config.out, exist_ok=True)
    save_encoder(params, os.path.join(config.out, "encoder.txt"))
    _write_text(os.path.join(config.out, "history.log"), history_lines(history))
    _write_text(os.path.join(config.out, "config.txt"), _config_lines(config))
    final = history[-1]
    best_val = max((r["val_accuracy"] for r in history if "val_accuracy" in r),
                   default=None)
    print(f"trained {config.episodes} episodes ({config.n}-way {config.k}-shot, "
          f"head {config.head}) in {elapsed:.1f}s")
    print(f"final train loss {final['loss']:.4f}, accuracy {final['accuracy']:.3f}"
          + (f", best val accuracy {best_val:.3f}" if best_val is not None else ""))
    print(f"wrote {config.out}/encoder.txt, history.log, config.txt")
    return EXIT_OK


def cmd_eval(config: RunConfig) -> int:
    if not config.checkpoint:
        raise ConfigError("eval requires --checkpoint (encoder file from train)")
    params = load_encoder(config.checkpoint)
    train_set, _, test_set = _load_domain(config)
    head = make_head(config.head)
    report = evaluate(
        params, head, test_set, config.n, config.k, config.q,
        config.eval_episodes, config.seed, lambda1=config.lambda1,
        train_domain=train_set.name, train_set=train_set)
    print(format_table([report]))
    print(report.to_line())
    if config.out:
        _write_text(os.path.join(config.out, "report.log"), report.to_line() + "\n")
    return EXIT_OK


def cmd_ablate(config: RunConfig) -> int:
    try:
        values = [float(v) for v in config.lambda2_values.split(",") if v.strip()]
    except ValueError:
        raise ConfigError(
            f"--lambda2-values must be comma-separated numbers, "
            f"got {config.lambda2_values!r}") from None
    if not values:
        raise ConfigError("--lambda2-values is empty")
    for value in values:
        if not (math.isfinite(value) and value >= 0):
            raise ConfigError(
                f"--lambda2-values entries must be finite and nonnegative, got {value}")
    train_set, val_set, test_set = _load_domain(config)
    result = ablate_lambda2(
        train_set, val_set, test_set, config.train_config(), values,
        head_name=config.head, eval_episodes=config.eval_episodes)
    print(result.summary())
    print(f"shared test-episode fingerprint: "
          f"{result.reports[0].episodes_fingerprint[:16]}...")
    if config.out:
        _write_text(os.path.join(config.out, "ablation.log"),
                    "\n".join(r.to_line() for r in result.reports) + "\n")
    return EXIT_OK


def cmd_shift(config: RunConfig) -> int:
    train_a, val_a, _ = _load_domain(config)
    if config.target_dataset:
        _, _, test_b = _load_domain(replace(config, dataset=config.target_dataset))
    else:
        _, _, test_b = _load_domain(config, offset=config.offset, suffix="-shifted")
    report = domain_shift(
        train_a, val_a, test_b, config.train_config(), head_name=config.head,
        eval_episodes=config.eval_episodes)
    print(format_table([report]))
    print(report.to_line())
    if config.out:
        _write_text(os.path.join(config.out, "shift.log"), report.to_line() + "\n")
    return EXIT_OK


def cmd_check(config: RunConfig) -> int:
    results = verify.run_all_checks(config.seed)
    for result in results:
        print(result.line())
    failed = sum(1 for r in results if not r.passed)
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_CHECK_FAILED


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = build_run_config(args)
        if args.command == "train":
            return cmd_train(config)
        if args.command == "eval":
            return cmd_eval(config)
        if args.command == "ablate":
            return cmd_ablate(config)
        if args.command == "shift":
            return cmd_shift(config)
        return cmd_check(config)
    except (DatasetFormatError, CheckpointError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except DivergenceError as exc:
        print(f"error: training diverged: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ConditioningError as exc:
        print(f"error: ridge system is not positive definite: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except DegenerateSubspaceError as exc:
        print(f"error: degenerate class subspace: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except FewshotError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
