"""Command-line tests: precedence, validation, exit codes, artifacts,
and byte-identical logs across reruns.
"""

import numpy as np
import pytest

from fewshot import cli
from fewshot.cli import (EXIT_CHECK_FAILED, EXIT_IO, EXIT_NUMERICAL, EXIT_OK,
                         EXIT_USAGE, RunConfig, build_run_config, main,
                         parse_config_file)
from fewshot.encoder import load_encoder, save_encoder


def run(argv):
    return main(argv)


FAST_TRAIN = [
    "--synth-classes", "12", "--per-class", "12", "--dim", "4",
    "--n", "2", "--k", "2", "--q", "3", "--episodes", "6",
    "--val-interval", "100", "--embed-dim", "4", "--hidden-dim", "6",
    "--depth", "1", "--eval-episodes", "8",
]


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


def test_dashed_keys_match_flag_spelling(tmp_path):
    cfg = tmp_path / "d.cfg"
    cfg.write_text("eval-episodes = 44\nwithin-std = 0.5\n")
    parsed = parse_config_file(str(cfg))
    assert parsed == {"eval_episodes": 44, "within_std": 0.5}


def test_usage_errors_name_the_flag(capsys):
    assert run(["train", "--k", "0", "--out", "x"]) == EXIT_USAGE
    assert "--k" in capsys.readouterr().err
    assert run(["train", "--lr", "-1", "--out", "x"]) == EXIT_USAGE
    assert "--lr" in capsys.readouterr().err
    assert run(["eval", "--eval-episodes", "1"]) == EXIT_USAGE
    assert "--eval-episodes" in capsys.readouterr().err


def test_train_requires_an_output_directory(capsys):
    assert run(["train"] + FAST_TRAIN) == EXIT_USAGE
    assert "--out" in capsys.readouterr().err


def test_eval_requires_a_checkpoint(capsys):
    assert run(["eval"] + FAST_TRAIN) == EXIT_USAGE
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

    code = run(["eval", *FAST_TRAIN,
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
    args = ["train", *FAST_TRAIN, "--seed", "5", "--threads", "1"]
    assert run(args + ["--out", str(a)]) == EXIT_OK
    assert run(args + ["--out", str(b)]) == EXIT_OK
    assert (a / "history.log").read_bytes() == (b / "history.log").read_bytes()
    assert (a / "encoder.txt").read_bytes() == (b / "encoder.txt").read_bytes()

    c = tmp_path / "c"
    assert run(["train", *FAST_TRAIN, "--seed", "6", "--out", str(c)]) == EXIT_OK
    assert (a / "history.log").read_bytes() != (c / "history.log").read_bytes()


def test_ablate_prints_paired_deltas(tmp_path, capsys):
    code = run(["ablate", *FAST_TRAIN, "--lambda2-values", "0,0.01"])
    assert code == EXIT_OK
    shown = capsys.readouterr().out
    assert "paired accuracy delta" in shown
    assert "fingerprint" in shown


def test_ablate_rejects_malformed_value_lists(capsys):
    assert run(["ablate", *FAST_TRAIN, "--lambda2-values", "0,abc"]) == EXIT_USAGE
    assert "--lambda2-values" in capsys.readouterr().err


def test_shift_evaluates_on_the_translated_domain(capsys):
    code = run(["shift", *FAST_TRAIN, "--offset", "0.5"])
    assert code == EXIT_OK
    shown = capsys.readouterr().out
    assert "synth -> synth-shifted" in shown


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_features_surface_as_divergence(tmp_path, capsys):
    # finite but distinct features ~1e300 apart: through a linear encoder
    # every squared distance overflows, so the proto loss is non-finite on
    # episode 0
    big = tmp_path / "big.csv"
    rows = ["label,f1,f2"]
    for c in (1, 2):
        for a, b in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            rows.append(f"{c},{a}e300,{b}e300")
    big.write_text("\n".join(rows) + "\n")
    code = run(["train", "--dataset", str(big), *TINY_CSV_TRAIN, "--depth", "0",
                "--out", str(tmp_path / "out")])
    assert code == EXIT_NUMERICAL
    assert "episode 0" in capsys.readouterr().err


def test_singular_ridge_system_is_a_numerical_failure(tmp_path, capsys):
    # all-zero weights embed every example at 0, so with lambda1 = 0 the
    # K x K Gram matrix is zero and the factorization names its pivot
    out = tmp_path / "run"
    assert run(["train", *FAST_TRAIN, "--out", str(out)]) == EXIT_OK
    params = load_encoder(out / "encoder.txt")
    for layer in params.layers:
        layer.weight[...] = 0.0
    save_encoder(params, out / "zero.txt")
    capsys.readouterr()
    code = run(["eval", *FAST_TRAIN, "--lambda1", "0",
                "--checkpoint", str(out / "zero.txt")])
    assert code == EXIT_NUMERICAL
    assert "pivot 0.000e+00" in capsys.readouterr().err


def test_threads_is_accepted_and_ignored(tmp_path, capsys):
    out = tmp_path / "run"
    assert run(["train", *FAST_TRAIN, "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    ckpt = ["--checkpoint", str(out / "encoder.txt")]
    assert run(["eval", *FAST_TRAIN, *ckpt, "--threads", "1"]) == EXIT_OK
    one = capsys.readouterr().out
    assert run(["eval", *FAST_TRAIN, *ckpt, "--threads", "4"]) == EXIT_OK
    assert capsys.readouterr().out == one


def test_check_command_reports_all_suites(capsys):
    assert run(["check"]) == EXIT_OK
    shown = capsys.readouterr().out
    assert shown.count("[pass]") == 5
    assert "5/5 checks passed" in shown


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
    assert config.threads == 1
    tc = config.train_config()
    assert tc.n_way == 5 and tc.k_shot == 5 and tc.q_queries == 16
    assert tc.final_activation == "none"
