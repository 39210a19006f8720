"""Command-line tests: precedence, validation, exit codes, artifacts,
and byte-identical logs across reruns.
"""

import argparse
import importlib
import json
import os
import re
import shlex
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from fewshot import cli
from fewshot.cli import (EXIT_CHECK_FAILED, EXIT_IO, EXIT_NUMERICAL, EXIT_OK,
                         EXIT_USAGE, RunConfig, build_run_config, main,
                         parse_config_file)
from fewshot.encoder import load_encoder, save_encoder
from fewshot.episodes import save_csv, synth_gaussian


def run(argv):
    return main(argv)


FAST_DATA = [
    "--synth-classes", "12", "--per-class", "12", "--dim", "4",
    "--n", "2", "--k", "2", "--q", "3",
]
FAST_EVAL = [*FAST_DATA, "--eval-episodes", "8"]
FAST_TRAIN = [
    *FAST_DATA, "--episodes", "6", "--val-interval", "100", "--embed-dim", "4",
    "--hidden-dim", "6", "--depth", "1",
]
# ablate and shift train and then evaluate
FAST_RUN = [*FAST_TRAIN, "--eval-episodes", "8"]


def no_data(*args, **kwargs):
    raise AssertionError("loaded data before rejecting a bad flag")


def test_config_file_then_flags_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("k = 3\nlr = 0.01  # comment\nlambda2 = auto\n")
    parsed = parse_config_file(str(cfg))
    assert parsed == {"k": 3, "lr": 0.01, "lambda2": None}

    import argparse
    ns = argparse.Namespace(config=str(cfg), k=2, command="train")
    config = build_run_config(ns)
    assert config.k == 2          # flag beats file
    assert config.lr == 0.01      # file beats default
    assert config.q == 16         # default survives
    assert config.lambda2 is None


def test_config_file_rejects_unknown_keys_and_bad_syntax(tmp_path):
    bad_key = tmp_path / "a.cfg"
    bad_key.write_text("episodes = 10\nwarmup = 5\n")
    with pytest.raises(cli.ConfigError, match="line 2"):
        parse_config_file(str(bad_key))

    bad_line = tmp_path / "b.cfg"
    bad_line.write_text("episodes 10\n")
    with pytest.raises(cli.ConfigError, match="line 1"):
        parse_config_file(str(bad_line))

    bad_value = tmp_path / "c.cfg"
    bad_value.write_text("episodes = many\n")
    with pytest.raises(cli.ConfigError, match="line 1"):
        parse_config_file(str(bad_value))


@pytest.mark.parametrize("key", ["head", "optimizer", "activation", "final_activation"])
def test_config_file_choices_are_checked_like_flags(monkeypatch, tmp_path, capsys, key):
    cfg = tmp_path / "choice.cfg"
    cfg.write_text(f"k = 3\n{key} = foo\n")
    with pytest.raises(cli.ConfigError, match=f"line 2: bad value 'foo' for '{key}'"):
        parse_config_file(str(cfg))
    monkeypatch.setattr(cli, "_load_domain", no_data)
    assert run(["train", "--config", str(cfg), "--out", "x"]) == EXIT_USAGE
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--k", "2.5"), ("--lr", "abc"), ("--seed", "x")])
def test_malformed_flag_values_name_the_flag(monkeypatch, capsys, flag, value):
    monkeypatch.setattr(cli, "_load_domain", no_data)
    assert run(["train", *FAST_TRAIN, flag, value, "--out", "x"]) == EXIT_USAGE
    assert f"{flag}: bad value '{value}'" in capsys.readouterr().err


def test_dashed_keys_match_flag_spelling(tmp_path):
    cfg = tmp_path / "d.cfg"
    cfg.write_text("eval-episodes = 44\nwithin-std = 0.5\n")
    parsed = parse_config_file(str(cfg))
    assert parsed == {"eval_episodes": 44, "within_std": 0.5}


# Every ranged flag with a value below its range (--offset has none), and
# the synthetic-data flags with a finite value whose draw would overflow:
# those values, nan and inf are each refused by the library object that
# reads the knob, and the message starts with the flag, with the synthetic
# data and with a CSV --dataset alike.
BELOW_RANGE = {
    "n": "1", "k": "0", "q": "0", "episodes": "0", "eval-episodes": "1",
    "batch-tasks": "0", "val-interval": "0", "val-episodes": "0", "synth-classes": "1",
    "per-class": "0", "dim": "0", "embed-dim": "0", "hidden-dim": "0", "depth": "-1",
    "lr": "-1", "lambda1": "-1", "lambda2": "-1", "lambda2-values": "0,-1",
    "spread": "-1", "within-std": "-1", "offset": None,
}
ABOVE_RANGE = {"spread": "1e+308", "within-std": "1e+308", "offset": "1.7e+308"}
RANGED_FLAGS = [(command, flag) for command, (_, keys, _) in cli.COMMANDS.items()
                for flag in BELOW_RANGE if flag.replace("-", "_") in keys]


@pytest.mark.parametrize("command, flag", RANGED_FLAGS,
                         ids=[f"{c}-{f}" for c, f in RANGED_FLAGS])
def test_every_out_of_range_flag_exits_2_naming_it_before_reading_data(
        monkeypatch, tmp_path, capsys, command, flag):
    # eval's checkpoint and the CSV do not exist: reading either would exit 3
    monkeypatch.setattr(cli, "_load_domain", no_data)
    out = tmp_path / "out"
    required = ["--checkpoint", str(tmp_path / "enc.txt")] if command == "eval" else []
    for dataset in ([], ["--dataset", str(tmp_path / "d.csv")]):
        for value in filter(None, (BELOW_RANGE[flag], ABOVE_RANGE.get(flag), "nan", "inf")):
            argv = [command, *required, *dataset, f"--{flag}", value, "--out", str(out)]
            assert run(argv) == EXIT_USAGE
            err = capsys.readouterr().err
            assert re.match(rf"error: --{flag}[ :]", err), err
            assert value.split(",")[-1] in err
            assert not out.exists()


def test_depth_zero_is_a_single_layer_encoder(tmp_path):
    out = tmp_path / "run"
    assert run(["train", *FAST_TRAIN, "--depth", "0", "--out", str(out)]) == EXIT_OK
    assert len(load_encoder(out / "encoder.txt").layers) == 1


@pytest.mark.parametrize("argv, named", [
    (["train", "--lr", "nan"], "--lr"),
    (["train", "--lr", "inf"], "--lr"),
    (["train", "--lambda1", "nan"], "--lambda1"),
    (["train", "--lambda2", "nan"], "--lambda2"),
    (["train", "--within-std", "nan"], "--within-std"),
    (["train", "--spread", "nan"], "--spread"),
    (["shift", "--offset", "nan"], "--offset"),
], ids=["lr-nan", "lr-inf", "lambda1-nan", "lambda2-nan", "within-std-nan",
        "spread-nan", "offset-nan"])
def test_non_finite_numeric_flags_are_usage_errors(tmp_path, capsys, argv, named):
    code = run([*argv, *FAST_TRAIN, "--out", str(tmp_path / "out")])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert named in err
    assert "finite" in err
    assert not (tmp_path / "out").exists()


def test_train_requires_an_output_directory(capsys):
    assert run(["train"] + FAST_TRAIN) == EXIT_USAGE
    assert "--out" in capsys.readouterr().err


def test_eval_requires_a_checkpoint(capsys):
    assert run(["eval"] + FAST_EVAL) == EXIT_USAGE
    assert "--checkpoint" in capsys.readouterr().err


def test_train_writes_artifacts_and_eval_reads_them(tmp_path, capsys):
    out = tmp_path / "run"
    assert run(["train", *FAST_TRAIN, "--out", str(out)]) == EXIT_OK
    assert (out / "encoder.txt").exists()
    assert (out / "history.log").exists()
    assert (out / "config.txt").exists()
    params = load_encoder(out / "encoder.txt")
    assert params.input_dim == 4
    history = (out / "history.log").read_text().splitlines()
    assert len(history) == 6
    capsys.readouterr()

    code = run(["eval", *FAST_EVAL,
                "--checkpoint", str(out / "encoder.txt"),
                "--out", str(out)])
    assert code == EXIT_OK
    shown = capsys.readouterr().out
    assert "regression" in shown
    assert (out / "report.log").exists()


def test_written_config_is_readable_again(tmp_path):
    out = tmp_path / "run"
    assert run(["train", *FAST_TRAIN, "--out", str(out)]) == EXIT_OK
    parsed = parse_config_file(str(out / "config.txt"))
    assert parsed["episodes"] == 6
    assert parsed["lambda2"] is None
    assert parsed["out"] == str(out)


def test_history_logs_are_byte_identical_across_reruns(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    args = ["train", *FAST_TRAIN, "--seed", "5"]
    assert run(args + ["--out", str(a)]) == EXIT_OK
    assert run(args + ["--out", str(b)]) == EXIT_OK
    assert (a / "history.log").read_bytes() == (b / "history.log").read_bytes()
    assert (a / "encoder.txt").read_bytes() == (b / "encoder.txt").read_bytes()

    c = tmp_path / "c"
    assert run(["train", *FAST_TRAIN, "--seed", "6", "--out", str(c)]) == EXIT_OK
    assert (a / "history.log").read_bytes() != (c / "history.log").read_bytes()


def test_ablate_prints_paired_deltas(tmp_path, capsys):
    code = run(["ablate", *FAST_RUN, "--lambda2-values", "0,0.01"])
    assert code == EXIT_OK
    shown = capsys.readouterr().out
    assert "paired accuracy delta" in shown
    assert "fingerprint" in shown


def test_ablate_rejects_malformed_value_lists(capsys):
    assert run(["ablate", *FAST_RUN, "--lambda2-values", "0,abc"]) == EXIT_USAGE
    assert "--lambda2-values" in capsys.readouterr().err


def test_ablate_refuses_the_lambda2_flag_but_reads_a_config_with_it(tmp_path, capsys):
    # every model's lambda2 comes from --lambda2-values and its head is the
    # regression head; --lambda2 would be ignored, so it is a usage error,
    # while a config file may still set it, and a head with it
    with pytest.raises(SystemExit) as info:
        run(["ablate", *FAST_RUN, "--lambda2-values", "0", "--lambda2", "5"])
    assert info.value.code == EXIT_USAGE
    assert "--lambda2" in capsys.readouterr().err
    cfg = tmp_path / "lambda2.cfg"
    cfg.write_text("lambda2 = 5\nhead = proto\n")
    assert run(["ablate", *FAST_RUN, "--lambda2-values", "0,0.01"]) == EXIT_OK
    by_flags = capsys.readouterr().out
    assert run(["ablate", *FAST_RUN, "--lambda2-values", "0,0.01",
                "--config", str(cfg)]) == EXIT_OK
    assert capsys.readouterr().out == by_flags


@pytest.mark.parametrize("values", ["0,-1", "0,nan", "inf"])
def test_ablate_rejects_out_of_range_values_before_training(monkeypatch, capsys, values):
    monkeypatch.setattr(cli, "_load_domain", no_data)
    assert run(["ablate", *FAST_RUN, "--lambda2-values", values]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "--lambda2-values" in err
    assert "finite and nonnegative" in err


def test_shift_evaluates_on_the_translated_domain(capsys):
    code = run(["shift", *FAST_RUN, "--offset", "0.5"])
    assert code == EXIT_OK
    shown = capsys.readouterr().out
    assert "synth -> synth-shifted" in shown


def test_shift_evaluates_on_the_test_classes_of_a_target_file(tmp_path, capsys):
    target = tmp_path / "b.csv"
    save_csv(synth_gaussian(7, 12, 12, 4, offset=0.5, name="b"), target)
    code = run(["shift", *FAST_RUN, "--target-dataset", str(target),
                "--out", str(tmp_path)])
    assert code == EXIT_OK
    assert f"synth -> {target}" in capsys.readouterr().out
    report = json.loads((tmp_path / "shift.log").read_text())
    assert report["test_domain"] == str(target)
    assert report["episodes"] == 8


def test_shift_from_a_csv_source_needs_a_target_dataset(monkeypatch, capsys, tmp_path):
    # --offset only translates the synthetic domain, so a CSV source with no
    # target would otherwise evaluate on its own test split whatever the offset
    monkeypatch.setattr(cli, "_load_domain", no_data)
    source = tmp_path / "b.csv"
    assert run(["shift", *FAST_RUN, "--dataset", str(source), "--offset", "3"]) == EXIT_USAGE
    assert "--target-dataset" in capsys.readouterr().err


def test_missing_dataset_file_is_an_io_error(capsys):
    assert run(["train", *FAST_TRAIN, "--dataset", "/nonexistent/x.csv",
                "--out", "/tmp/unused"]) == EXIT_IO
    capsys.readouterr()


def test_malformed_dataset_file_is_an_io_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("label,f1,f2\n1,0.5\n")
    assert run(["train", *FAST_TRAIN, "--dataset", str(bad),
                "--out", str(tmp_path / "out")]) == EXIT_IO
    assert "line 2" in capsys.readouterr().err


TINY_CSV_TRAIN = ["--head", "proto", "--n", "2", "--k", "1", "--q", "1",
                  "--episodes", "2", "--val-interval", "100", "--embed-dim", "2",
                  "--hidden-dim", "3", "--depth", "1"]


def test_non_finite_features_are_a_format_error(tmp_path, capsys):
    bad = tmp_path / "nan.csv"
    bad.write_text("label,f1,f2\n1,0.5,0.5\n2,nan,0.5\n")
    code = run(["train", "--dataset", str(bad), *TINY_CSV_TRAIN,
                "--out", str(tmp_path / "out")])
    assert code == EXIT_IO
    assert "line 3" in capsys.readouterr().err


def test_overflowing_features_surface_as_divergence(tmp_path, capsys):
    # finite but distinct features ~1e300 apart: through a linear encoder
    # every squared distance would overflow, so the distance refuses
    # episode 0, and nothing warns
    big = tmp_path / "big.csv"
    rows = ["label,f1,f2"]
    for c in (1, 2):
        for a, b in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            rows.append(f"{c},{a}e300,{b}e300")
    big.write_text("\n".join(rows) + "\n")
    code = run(["train", "--dataset", str(big), *TINY_CSV_TRAIN, "--depth", "0",
                "--out", str(tmp_path / "out")])
    assert code == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "embedding overflow" in err and "episode 0" in err


@pytest.mark.parametrize("head", ["regression", "proto", "cosine"])
def test_an_embedding_too_large_to_square_exits_4_in_train_and_eval(tmp_path, capsys, head):
    # --spread 1e300 keeps the data and the embedding finite, but not their
    # squares: cosine then trained on zero unit columns at chance, proto and
    # cosine reported chance with exit 0, and regression named an inf pivot
    # "non-positive"
    out = tmp_path / "run"
    assert run(["train", *FAST_TRAIN, "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    big = ["--head", head, "--spread", "1e300"]
    for argv in (["train", *FAST_TRAIN, *big, "--lambda2", "0", "--out", str(tmp_path / "big")],
                 ["eval", *FAST_EVAL, *big, "--checkpoint", str(out / "encoder.txt")]):
        assert run(argv) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("error: embedding overflow: largest magnitude "), err
        assert err.endswith(" at episode 0\n")
    assert not (tmp_path / "big").exists()


def test_all_zero_class_support_is_a_numerical_failure(tmp_path, capsys):
    # class 2's features are all zero, and the initial encoder has zero
    # biases, so its embedded support block is all zero and the ortho
    # penalty (lambda2 'auto' is 0.01 at 2 shots) has no direction for it
    zero = tmp_path / "zero.csv"
    rows = ["label,f1,f2"]
    for a, b in ((1, 2), (2, -1), (-1, 3)):
        rows += [f"1,{a},{b}", "2,0,0"]
    zero.write_text("\n".join(rows) + "\n")
    code = run(["train", "--dataset", str(zero), *TINY_CSV_TRAIN, "--head", "regression",
                "--k", "2", "--out", str(tmp_path / "out")])
    assert code == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "class 2 has an all-zero support matrix at episode 0" in err


def test_singular_ridge_system_is_a_numerical_failure(tmp_path, capsys):
    # all-zero weights embed every example at one point (the last bias), so
    # with lambda1 = 0 every K x K Gram matrix is singular and the
    # factorization names its pivot and class
    out = tmp_path / "run"
    assert run(["train", *FAST_TRAIN, "--out", str(out)]) == EXIT_OK
    params = load_encoder(out / "encoder.txt")
    for layer in params.layers:
        layer.weight[...] = 0.0
    save_encoder(params, out / "zero.txt")
    capsys.readouterr()
    code = run(["eval", *FAST_EVAL, "--lambda1", "0",
                "--checkpoint", str(out / "zero.txt")])
    assert code == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "pivot 0.000e+00" in err
    assert "of class 1 at episode 0" in err


@pytest.mark.parametrize("body", [
    "layers 0\n",
    "layers 2\nlayer 4 3 none\n" + "0 0 0 0\n" * 3 + "0 0 0\n"
    "layer 2 2 none\n0 0\n0 0\n0 0\n",
    "layers 1\nlayer 2 -1 none\n",
    "layers 1\nlayer 4 2 none\n0 0 0 0\n0 0 0 0\n0 0\n"
    "layer 2 2 none\n0 0\n0 0\n0 0\n",
], ids=["no-layers", "unchained-dimensions", "negative-dimension", "undeclared-layer"])
def test_malformed_checkpoint_exits_3_and_names_the_file(tmp_path, capsys, body):
    path = tmp_path / "enc.txt"
    path.write_text("fewshot-encoder v1\n" + body)
    assert run(["eval", *FAST_EVAL, "--checkpoint", str(path)]) == EXIT_IO
    assert str(path) in capsys.readouterr().err


@pytest.mark.parametrize("head, value", [("proto", "nan"), ("cosine", "inf"),
                                         ("regression", "-inf")])
def test_non_finite_checkpoint_exits_3_and_names_the_file_and_row(tmp_path, capsys,
                                                                 head, value):
    # scored as is, such a weight gave proto and cosine a chance-level
    # report and exit 0, and regression a Cholesky failure
    path = tmp_path / "enc.txt"
    path.write_text(f"fewshot-encoder v1\nlayers 1\nlayer 4 2 none\n"
                    f"0 0 0 0\n0 {value} 0 0\n0 0\n")
    assert run(["eval", *FAST_EVAL, "--head", head, "--checkpoint", str(path)]) == EXIT_IO
    err = capsys.readouterr().err
    assert str(path) in err
    assert "non-finite value in layer 0 weight row 1" in err


@pytest.mark.parametrize("argv, flag", [
    (["train", *FAST_TRAIN, "--eval-episodes", "5", "--out", "x"], "--eval-episodes"),
    (["ablate", *FAST_RUN, "--head", "regression"], "--head"),
], ids=["train-eval-episodes", "ablate-head"])
def test_training_commands_refuse_flags_they_do_not_read(monkeypatch, capsys, argv, flag):
    # train evaluates nothing, and ablate always trains the regression head
    monkeypatch.setattr(cli, "_load_domain", no_data)
    with pytest.raises(SystemExit) as info:
        run(argv)
    assert info.value.code == EXIT_USAGE
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["train", "--out", "x"], ["eval", "--checkpoint", "enc.txt"]],
                         ids=["train", "eval"])
def test_a_threads_config_key_is_unknown(monkeypatch, tmp_path, capsys, argv):
    # the key that older config.txt files carry names itself when refused
    monkeypatch.setattr(cli, "_load_domain", no_data)
    cfg = tmp_path / "threads.cfg"
    cfg.write_text("threads = 4\n")
    assert run([*argv, "--config", str(cfg)]) == EXIT_USAGE
    assert "unknown key 'threads'" in capsys.readouterr().err


@pytest.mark.parametrize("head", ["proto", "cosine"])
@pytest.mark.parametrize("command", ["train", "shift"])
def test_a_head_that_does_not_read_lambda2_refuses_a_non_zero_one(
        monkeypatch, tmp_path, capsys, command, head):
    # such a head would silently train the lambda2 = 0 model; 0 and 'auto'
    # still train it
    def no_fit(*args, **kwargs):
        raise AssertionError("trained before refusing lambda2")

    argv = [command, *(FAST_TRAIN if command == "train" else FAST_RUN),
            "--head", head, "--out", str(tmp_path / "out")]
    cfg = tmp_path / "lambda2.cfg"
    cfg.write_text("lambda2 = 0.05\n")
    with monkeypatch.context() as patched:
        patched.setattr(cli, "fit", no_fit)
        patched.setattr(importlib.import_module("fewshot.evaluate"), "fit", no_fit)
        for source in (["--lambda2", "0.05"], ["--config", str(cfg)]):
            assert run([*argv, *source]) == EXIT_USAGE
            err = capsys.readouterr().err
            assert f"the {head} head" in err
            assert "lambda2 0.05" in err
    for value in ("0", "auto"):
        assert run([*argv, "--lambda2", value]) == EXIT_OK


def test_eval_refuses_training_flags_but_reads_a_training_config(tmp_path, capsys):
    # eval takes as flags only what it reads; the config file train wrote,
    # training keys and all, still serves eval (train takes no
    # --eval-episodes, so the file holds the default, 600)
    with pytest.raises(SystemExit) as info:
        run(["eval", *FAST_EVAL, "--checkpoint", "enc.txt", "--lr", "5"])
    assert info.value.code == EXIT_USAGE
    assert "--lr" in capsys.readouterr().err
    out = tmp_path / "run"
    assert run(["train", *FAST_TRAIN, "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    ckpt = ["--checkpoint", str(out / "encoder.txt")]
    assert run(["eval", *FAST_EVAL, *ckpt]) == EXIT_OK
    by_flags = capsys.readouterr().out
    assert run(["eval", "--config", str(out / "config.txt"), *ckpt,
                "--eval-episodes", "8"]) == EXIT_OK
    assert capsys.readouterr().out == by_flags


def test_a_hash_inside_a_config_value_is_kept(tmp_path, capsys):
    # a comment starts at a line's start or after whitespace only
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# note\ndataset = d#1.csv  # a comment\n\t# indented\n")
    assert parse_config_file(str(cfg)) == {"dataset": "d#1.csv"}
    # train writes out = <dir>/b#1 to config.txt; eval --config reads the
    # whole path back and writes report.log there, not into <dir>/b
    out = tmp_path / "b#1"
    assert run(["train", *FAST_TRAIN, "--out", str(out)]) == EXIT_OK
    assert f"out = {out}\n" in (out / "config.txt").read_text()
    assert run(["eval", "--config", str(out / "config.txt"), "--checkpoint",
                str(out / "encoder.txt"), "--eval-episodes", "8"]) == EXIT_OK
    assert (out / "report.log").is_file()
    assert not (tmp_path / "b").exists()
    capsys.readouterr()


def test_check_command_reports_all_suites(capsys):
    assert run(["check"]) == EXIT_OK
    shown = capsys.readouterr().out
    assert shown.count("[pass]") == 5
    assert "5/5 checks passed" in shown


def test_python_dash_m_runs_the_cli():
    # the package's __main__ hands argv to cli.main and exits with its code
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def fewshot(*argv):
        return subprocess.run([sys.executable, "-m", "fewshot", *argv], env=env,
                              capture_output=True, text=True, timeout=120)

    checked = fewshot("check", "--seed", "0")
    assert checked.returncode == EXIT_OK, checked.stderr
    assert "5/5 checks passed" in checked.stdout
    untargeted = fewshot("train")
    assert untargeted.returncode == EXIT_USAGE
    assert "--out" in untargeted.stderr


def test_check_refuses_flags_it_does_not_read(capsys):
    # check reads only the seed; a training knob is a usage error, not ignored
    with pytest.raises(SystemExit) as info:
        run(["check", "--episodes", "5"])
    assert info.value.code == EXIT_USAGE
    assert "--episodes" in capsys.readouterr().err


def test_unknown_config_key_via_flag_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("unknown_option = 1\n")
    assert run(["train", "--config", str(cfg), "--out", "x"]) == EXIT_USAGE
    assert "unknown_option" in capsys.readouterr().err


def test_run_config_defaults_are_the_documented_ones():
    config = RunConfig()
    assert (config.n, config.k, config.q) == (5, 5, 16)
    assert config.episodes == 2000
    assert config.eval_episodes == 600
    assert config.lr == pytest.approx(1e-3)
    assert config.lambda1 == pytest.approx(1e-3)
    assert config.lambda2 is None
    assert config.head == "regression"
    assert len(fields(RunConfig)) == 32
    tc = config.train_config()
    assert tc.n_way == 5 and tc.k_shot == 5 and tc.q_queries == 16
    assert tc.final_activation == "none"


# The flag surface as it was when the flags were first generated from
# RunConfig, except that check takes only --config and --seed, eval only
# the flags it reads, train no --eval-episodes, ablate no --lambda2 or
# --head, and no command --threads: option string -> dest, shared by the
# training commands and then per command.
COMMON_FLAGS = {
    "--config": "config", "--dataset": "dataset", "--n": "n", "--k": "k",
    "--q": "q", "--episodes": "episodes", "--eval-episodes": "eval_episodes",
    "--lr": "lr", "--lambda1": "lambda1", "--lambda2": "lambda2", "--head": "head",
    "--seed": "seed", "--out": "out",
    "--optimizer": "optimizer", "--batch-tasks": "batch_tasks",
    "--val-interval": "val_interval", "--val-episodes": "val_episodes",
    "--embed-dim": "embed_dim", "--hidden-dim": "hidden_dim", "--depth": "depth",
    "--activation": "activation", "--final-activation": "final_activation",
    "--synth-classes": "synth_classes", "--per-class": "per_class", "--dim": "dim",
    "--spread": "spread", "--within-std": "within_std",
}
COMMAND_FLAGS = {
    "train": {f: d for f, d in COMMON_FLAGS.items() if f != "--eval-episodes"},
    "eval": {
        "--config": "config", "--dataset": "dataset", "--n": "n", "--k": "k", "--q": "q",
        "--eval-episodes": "eval_episodes", "--lambda1": "lambda1", "--head": "head",
        "--seed": "seed", "--out": "out", "--checkpoint": "checkpoint",
        "--synth-classes": "synth_classes", "--per-class": "per_class", "--dim": "dim",
        "--spread": "spread", "--within-std": "within_std",
    },
    "ablate": {**{f: d for f, d in COMMON_FLAGS.items() if f not in ("--lambda2", "--head")},
               "--lambda2-values": "lambda2_values"},
    "shift": {**COMMON_FLAGS, "--target-dataset": "target_dataset", "--offset": "offset"},
    "check": {"--config": "config", "--seed": "seed"},
}
FLAG_CHOICES = {
    "--head": ("regression", "proto", "cosine"), "--optimizer": ("adam", "sgd"),
    "--activation": ("tanh", "relu", "none"),
    "--final-activation": ("tanh", "relu", "none"),
}


def subparsers():
    parser = cli._build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_every_command_keeps_its_option_strings_dests_and_choices():
    commands = subparsers()
    assert list(commands) == list(cli.COMMANDS) == list(COMMAND_FLAGS)
    for name, sub in commands.items():
        seen = {tuple(a.option_strings): (a.dest, tuple(a.choices or ()) or None)
                for a in sub._actions if a.dest != "help"}
        expected = {(option,): (dest, FLAG_CHOICES.get(option))
                    for option, dest in COMMAND_FLAGS[name].items()}
        assert seen == expected, name


def test_every_run_config_field_is_a_flag_or_a_file_only_key():
    dests = {a.dest for sub in subparsers().values() for a in sub._actions}
    names = {f.name for f in fields(RunConfig)}
    assert names - dests == {"val_fraction", "test_fraction"}
    assert dests - names == {"help", "config"}


def readme_commands():
    """Every ``fewshot ...`` command line in README.md, continuations joined."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    lines = text.replace("\\\n", " ").splitlines()
    return [shlex.split(line) for line in lines if line.lstrip().startswith("fewshot ")]


def test_readme_commands_parse(capsys):
    commands = readme_commands()
    assert {argv[1] for argv in commands} >= {"train", "eval"}
    parser = cli._build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"{shlex.join(argv)}: {capsys.readouterr().err}")
