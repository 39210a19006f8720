"""Command-line interface: train, eval, ablate, shift, check.

Configuration precedence is defaults <- config file <- command-line flags.
The config file is flat ``key = value`` text with ``#`` comments; keys
mirror the flag names. Exit codes: 0 success, 1 verification failure,
2 usage error (also a size too large to allocate), 3 I/O or file-format
error, 4 numerical failure (a ``NumericalError``, which names its episode).

Each command takes as flags only the fields it reads; a config file may
set any field. Only the regression head's loss reads lambda1 and lambda2:
``train`` and ``shift`` refuse a non-zero lambda2 for another head, and they
and ``eval`` a non-default lambda1; ``ablate`` takes no ``--head``.
A value out of range is refused by the library object that reads it, which
a command builds before it reads any data; ``main`` names the flag.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import time
from dataclasses import dataclass, fields, replace

from . import verify
from .evaluate import ablate_lambda2, domain_shift, eval_hyper, evaluate, format_table
from .encoder import ACTIVATIONS, load_encoder, save_encoder
from .episodes import check_synth, load_csv, split_classes, synth_gaussian
from .errors import (CheckpointError, ConfigError, DatasetFormatError,
                     FewshotError, NumericalError)
from .heads import HEADS, Hyper, make_head
from .linalg import named_stream
from .train import TrainConfig, fit, history_lines

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4


# The RunConfig field of each library knob named otherwise, and of ablate's
# lambda2, which --lambda2-values sets: a usage error names the field's flag.
_FIELD_OF = {"n_way": "n", "k_shot": "k", "q_queries": "q", "n_classes": "synth_classes",
             ("ablate", "lambda2"): "lambda2_values"}


@dataclass
class RunConfig:
    """Flat bag of every knob; commands read the fields they need."""

    dataset: str = "synth"
    target_dataset: str = ""      # shift: domain B (defaults to a translated copy)
    offset: float = 0.5           # shift: center translation for the synthetic copy
    n: int = Hyper.n_way
    k: int = Hyper.k_shot
    q: int = Hyper.q_queries
    episodes: int = TrainConfig.episodes
    eval_episodes: int = 600
    lr: float = TrainConfig.lr
    lambda1: float = Hyper.lambda1
    lambda2: float | None = Hyper.lambda2  # None: resolved by shot count
    lambda2_values: str = "0,0.01"
    head: str = "regression"
    seed: int = TrainConfig.seed
    out: str = ""
    checkpoint: str = ""
    val_interval: int = TrainConfig.val_interval
    val_episodes: int = TrainConfig.val_episodes
    embed_dim: int = TrainConfig.embed_dim
    hidden_dim: int = TrainConfig.hidden_dim
    depth: int = TrainConfig.depth
    final_activation: str = TrainConfig.final_activation
    synth_classes: int = 30
    per_class: int = 50
    dim: int = 32
    spread: float = 1.0
    within_std: float = 1.0

    def check_lambda1(self) -> None:
        """Only the regression head reads lambda1: refuse another value for another head."""
        if self.head != "regression" and self.lambda1 != Hyper.lambda1:
            raise ConfigError(f"the {self.head} head does not read lambda1, so lambda1 "
                              f"{self.lambda1:g} would change nothing it computes; leave "
                              f"it at {Hyper.lambda1:g}, or use the regression head")

    def train_config(self) -> TrainConfig:
        """The training knobs; only the regression head's loss reads lambda1 and lambda2."""
        if self.head != "regression" and self.lambda2:
            raise ConfigError(f"the {self.head} head's loss does not read lambda2, so "
                              f"lambda2 {self.lambda2:g} would train the lambda2 = 0 "
                              "model; pass 0 or auto, or use the regression head")
        self.check_lambda1()
        return TrainConfig(**{f.name: getattr(self, _FIELD_OF.get(f.name, f.name))
                              for f in fields(TrainConfig)})


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}
_CHOICES = {"head": tuple(HEADS), "final_activation": ACTIVATIONS}
_HELP = {
    "config": "flat key = value config file",
    "dataset": "'synth' or a CSV path (label,feat_1,...,feat_D)",
    "n": "classes per episode",
    "k": "support shots per class",
    "q": "queries per class",
    "episodes": "training episodes",
    "lr": "learning rate",
    "lambda1": "ridge conditioning weight",
    "lambda2": "orthogonalization weight (regression head), or 'auto' (by shot count)",
    "seed": "root random seed",
    "out": "output directory",
    "final_activation": "activation on the embedding layer itself",
    "dim": "synthetic feature dim",
    "checkpoint": "encoder checkpoint path",
    "lambda2_values": "comma-separated list, e.g. 0,0.01",
    "target_dataset": "domain B CSV (default: translated synthetic copy)",
    "offset": "center translation for the synthetic domain B",
}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _parse_value(key: str, text: str):
    """Convert a flag or config-file token to field ``key``'s declared type,
    checking it against the field's choices; raises ``ValueError``."""
    text = str(text)
    kind = _FIELD_TYPES[key]
    if key in _CHOICES and text not in _CHOICES[key]:
        raise ValueError(text)
    if kind == "int":
        return int(text)
    if kind == "float":
        return float(text)
    if kind == "float | None":   # lambda2: None resolves by shot count
        return None if text.lower() in ("auto", "none", "") else float(text)
    return text


# Lines every older config.txt holds for a knob that now has one value:
# Adam is the only optimizer, a training step takes one episode, hidden
# layers are relu, and a dataset is split 2/3, 1/6, 1/6 by class.
_RETIRED_LINES = {("optimizer", "adam"), ("batch_tasks", "1"), ("activation", "relu"),
                  ("val_fraction", str(1 / 6)), ("test_fraction", str(1 / 6))}


def parse_config_file(path: str) -> dict:
    """A config file's values by key.  A ``#`` starts a comment only at the
    start of a line or after whitespace, so a value such as ``runs/b#1``
    keeps its ``#``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw_lines = list(fh)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from None
    values = {}
    for lineno, raw in enumerate(raw_lines, start=1):
        line = re.split(r"(?:^|\s)#", raw, maxsplit=1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}: line {lineno} is not 'key = value'")
        key, _, text = line.partition("=")
        key, text = key.strip().replace("-", "_"), text.strip()
        if (key, text) in _RETIRED_LINES:
            continue
        if key not in _FIELD_TYPES:
            raise ConfigError(f"{path}: line {lineno}: unknown key {key!r}")
        try:
            values[key] = _parse_value(key, text)
        except ValueError:
            raise ConfigError(
                f"{path}: line {lineno}: bad value {text!r} for {key!r}") from None
    return values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fewshot",
        description="Few-shot classification by regression-error distance "
                    "to class subspaces, with prototype and cosine baselines.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, keys, help_text) in COMMANDS.items():
        # no abbreviations: ablate's --lambda2 would otherwise pass as the
        # prefix of --lambda2-values instead of being refused
        command = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for key in ("config", *keys):
            command.add_argument(_flag(key), dest=key, choices=_CHOICES.get(key),
                                 help=_HELP.get(key))
    return parser


def build_run_config(args: argparse.Namespace) -> RunConfig:
    """defaults <- config file <- flags; each command's owners check the ranges."""
    config = RunConfig(**({} if args.config is None else parse_config_file(args.config)))
    for key in _FIELD_TYPES:
        value = getattr(args, key, None)
        if value is not None:
            try:
                setattr(config, key, _parse_value(key, value))
            except ValueError:
                raise ConfigError(f"{_flag(key)}: bad value {value!r}") from None
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
    return split_classes(data, (2 / 3, 1 / 6, 1 / 6), named_stream(config.seed, "split"))


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
    train_config = config.train_config()
    if not config.out:
        raise ConfigError("train requires --out (directory for checkpoint and history)")
    train_set, val_set, _ = _load_domain(config)
    head = make_head(config.head)
    started = time.perf_counter()
    params, history = fit(train_set, val_set, train_config, head=head)
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


def _publish(config: RunConfig, shown: str, reports, log_name: str) -> int:
    """Print ``shown``; with ``--out``, write the reports' JSON lines to ``log_name``."""
    print(shown)
    if config.out:
        _write_text(os.path.join(config.out, log_name),
                    "".join(r.to_line() + "\n" for r in reports))
    return EXIT_OK


def cmd_eval(config: RunConfig) -> int:
    if not config.checkpoint:
        raise ConfigError("eval requires --checkpoint (encoder file from train)")
    config.check_lambda1()
    params = load_encoder(config.checkpoint)
    train_set, _, test_set = _load_domain(config)
    head = make_head(config.head)
    report = evaluate(
        params, head, test_set, config.n, config.k, config.q,
        config.eval_episodes, config.seed, lambda1=config.lambda1, train_set=train_set)
    return _publish(config, format_table([report]) + "\n" + report.to_line(),
                    [report], "report.log")


def cmd_ablate(config: RunConfig) -> int:
    # each model is a regression head whose lambda2, checked by its TrainConfig, is a value
    train_config = replace(config, head="regression", lambda2=None).train_config()
    try:
        values = [replace(train_config, lambda2=float(v)).lambda2
                  for v in config.lambda2_values.split(",") if v.strip()]
    except ValueError:
        raise ConfigError(
            f"--lambda2-values must be comma-separated numbers, "
            f"got {config.lambda2_values!r}") from None
    if not values:
        raise ConfigError("--lambda2-values is empty")
    train_set, val_set, test_set = _load_domain(config)
    result = ablate_lambda2(train_set, val_set, test_set, train_config, values,
                            eval_episodes=config.eval_episodes)
    return _publish(config, f"{result.summary()}\nshared test-episode fingerprint: "
                            f"{result.reports[0].episodes_fingerprint[:16]}...",
                    result.reports, "ablation.log")


def cmd_shift(config: RunConfig) -> int:
    train_config = config.train_config()
    if config.dataset != "synth" and not config.target_dataset:
        raise ConfigError("shift from a CSV --dataset needs --target-dataset "
                          "(--offset only translates the synthetic data)")
    train_a, val_a, _ = _load_domain(config)
    if config.target_dataset:
        _, _, test_b = _load_domain(replace(config, dataset=config.target_dataset))
    else:
        _, _, test_b = _load_domain(config, offset=config.offset, suffix="-shifted")
    report = domain_shift(
        train_a, val_a, test_b, train_config, head_name=config.head,
        eval_episodes=config.eval_episodes)
    return _publish(config, format_table([report]) + "\n" + report.to_line(),
                    [report], "shift.log")


def cmd_check(config: RunConfig) -> int:
    results = verify.run_all_checks(config.seed)
    for result in results:
        print(result.line())
    failed = sum(1 for r in results if not r.passed)
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_CHECK_FAILED


# The flags of the training commands: every RunConfig field but those a
# single command reads.
_TRAINING_FLAGS = tuple(key for key in _FIELD_TYPES if key not in (
    "checkpoint", "lambda2_values", "target_dataset", "offset"))
# What eval reads: the data and its split, the episode shape, the head and
# lambda1; the encoder's shape comes from the checkpoint.
_EVAL_FLAGS = ("dataset", "n", "k", "q", "eval_episodes", "lambda1", "head", "seed",
               "out", "checkpoint", "synth_classes", "per_class", "dim", "spread",
               "within_std")

# name -> (handler, the RunConfig fields it takes as flags, help).  Every
# command also takes --config, whose file may set any field: a command
# ignores the keys it does not read, so one config.txt serves train and eval.
COMMANDS = {
    "train": (cmd_train, tuple(k for k in _TRAINING_FLAGS if k != "eval_episodes"),
              "episodic training; writes a checkpoint and history log"),
    "eval": (cmd_eval, _EVAL_FLAGS, "evaluate a checkpoint on test-split episodes"),
    # ablate's lambda2 values come from --lambda2-values; its head is regression
    "ablate": (cmd_ablate, (*(k for k in _TRAINING_FLAGS if k not in ("lambda2", "head")),
                            "lambda2_values"),
               "paired regression-head runs over a list of lambda2 values"),
    "shift": (cmd_shift, (*_TRAINING_FLAGS, "target_dataset", "offset"),
              "train on domain A, evaluate on domain B"),
    "check": (cmd_check, ("seed",), "run the verification suites and report pass/fail"),
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler, keys, _ = COMMANDS[args.command]
    try:
        config = build_run_config(args)
        # refuse a command's data and evaluation knobs first, the synthetic ones whatever --dataset is
        if "dim" in keys:
            check_synth(config.synth_classes, config.per_class, config.dim, config.spread,
                        config.within_std, config.offset if "offset" in keys else 0.0)
        if "eval_episodes" in keys:
            eval_hyper(config.n, config.k, config.q, config.eval_episodes, config.lambda1)
        return handler(config)
    except (DatasetFormatError, CheckpointError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_USAGE
    except FewshotError as exc:
        name, space, rest = str(exc).partition(" ")
        key = _FIELD_OF.get((args.command, name), _FIELD_OF.get(name, name))
        print(f"error: {_flag(key) + space + rest if key in _FIELD_TYPES else exc}",
              file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
