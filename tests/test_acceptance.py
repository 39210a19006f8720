"""End-to-end acceptance checks.

Each test prints one `criterion NN PASS|FAIL: ...` line (echoed in the
pytest summary via -rP) and then asserts, so a red run still shows the
measured numbers for every criterion.

The learning benchmark used by criteria 5, 6, and 8: isotropic Gaussian
blobs (30 classes split 20 train / 5 val / 5 test, D=32, 50 examples per
class, centers uniform in [-1, 1]^32, within-class std 0.30) and a
32 -> 128 relu -> 128 relu -> 16 relu encoder trained with Adam at
lr=1e-3, lambda1=10, lambda2=0 for 2000 episodes of 5-way 5-shot with 16
queries.  The relu on the embedding layer matters for the baseline gap:
an untrained linear readout approximately preserves blob geometry, which
would leave little for training to demonstrate.
"""

import time

import numpy as np

import fewshot.evaluate
from fewshot import verify
from fewshot.cli import EXIT_OK, main
from fewshot.encoder import default_layer_spec, init_encoder
from fewshot.episodes import split_classes, synth_gaussian
from fewshot.evaluate import (Z95, ablate_lambda2, confidence_interval,
                              domain_shift, evaluate)
from fewshot.heads import RegressionHead
from fewshot.linalg import named_stream
from fewshot.train import TrainConfig, fit

N_WAY, K_SHOT, QUERIES = 5, 5, 16
DIM, EMBED, HIDDEN = 32, 16, 128
CLASSES, PER_CLASS = 30, 50
WITHIN_STD = 0.30
LAMBDA1, LAMBDA2, LR = 10.0, 0.0, 1e-3
EPISODES = 2000
FRACTIONS = (2.0 / 3.0, 1.0 / 6.0, 1.0 / 6.0)

_trained_cache = {}


def report(num, passed, detail):
    print(f"criterion {num:02d} {'PASS' if passed else 'FAIL'}: {detail}")


def bench_splits(seed, offset=0.0, name="synth"):
    data = synth_gaussian(named_stream(seed, "dataset"), CLASSES, PER_CLASS,
                          DIM, 1.0, WITHIN_STD, offset=offset, name=name)
    return split_classes(data, FRACTIONS, named_stream(seed, "split"))


def bench_config(seed, k_shot=K_SHOT, episodes=EPISODES):
    return TrainConfig(n_way=N_WAY, k_shot=k_shot, q_queries=QUERIES,
                       episodes=episodes, lr=LR, lambda1=LAMBDA1,
                       lambda2=LAMBDA2, seed=seed, embed_dim=EMBED,
                       hidden_dim=HIDDEN, depth=2, final_activation="relu")


def bench_init(seed):
    spec = default_layer_spec(DIM, EMBED, HIDDEN, 2, "relu", "relu")
    return init_encoder(named_stream(seed, "init"), spec)


def bench_trained(seed, k_shot=K_SHOT):
    """Train once per (seed, shot count); criteria 5, 6 and 8 share models."""
    key = (seed, k_shot)
    if key not in _trained_cache:
        train_set, val_set, test_set = bench_splits(seed)
        params, _ = fit(train_set, val_set, bench_config(seed, k_shot))
        _trained_cache[key] = (params, test_set)
    return _trained_cache[key]


def test_criterion_01_closed_form_matches_iterative_oracle():
    started = time.perf_counter()
    result = verify.check_closed_form_oracle(seed=0, instances=200)
    elapsed = time.perf_counter() - started
    ok = result.passed and elapsed < 10.0
    report(1, ok, f"{result.detail}; {elapsed:.2f}s (limit 10s)")
    assert result.passed, result.detail
    assert elapsed < 10.0


def test_criterion_02_projection_laws_hold():
    started = time.perf_counter()
    result = verify.check_projection_laws(seed=0, trials=100)
    elapsed = time.perf_counter() - started
    ok = result.passed and elapsed < 10.0
    report(2, ok, f"{result.detail}; {elapsed:.2f}s (limit 10s)")
    assert result.passed, result.detail
    assert elapsed < 10.0


def test_criterion_03_gradients_match_finite_differences():
    started = time.perf_counter()
    result = verify.check_gradient_fidelity(seed=0, trials=20, h=1e-4)
    elapsed = time.perf_counter() - started
    ok = result.passed and elapsed < 60.0
    report(3, ok, f"{result.detail}; {elapsed:.2f}s (limit 60s)")
    assert result.passed, result.detail
    assert elapsed < 60.0


def test_criterion_04_posterior_contracts_hold():
    started = time.perf_counter()
    result = verify.check_posterior_contracts(seed=0, trials=100)
    elapsed = time.perf_counter() - started
    ok = result.passed and elapsed < 5.0
    report(4, ok, f"{result.detail}; {elapsed:.2f}s (limit 5s)")
    assert result.passed, result.detail
    assert elapsed < 5.0


def test_criterion_05_training_beats_the_untrained_encoder():
    head = RegressionHead()
    started = time.perf_counter()
    rows = []
    parts = []
    for seed in (0, 1, 2):
        params, test_set = bench_trained(seed)
        after = evaluate(params, head, test_set, N_WAY, K_SHOT, QUERIES, 600,
                         seed, lambda1=LAMBDA1)
        before = evaluate(bench_init(seed), head, test_set, N_WAY, K_SHOT,
                          QUERIES, 600, seed, lambda1=LAMBDA1)
        gap = after.mean_accuracy - before.mean_accuracy
        rows.append((after.mean_accuracy, gap))
        parts.append(f"seed {seed}: {after.mean_accuracy:.2f}% vs "
                     f"{before.mean_accuracy:.2f}% untrained (gap {gap:.1f})")
    elapsed = time.perf_counter() - started
    all_ok = (all(acc >= 90.0 and gap >= 30.0 for acc, gap in rows)
              and elapsed < 300.0)
    report(5, all_ok, "; ".join(parts) + f"; {elapsed:.0f}s (limit 300s)")
    for (acc, gap), part in zip(rows, parts):
        assert acc >= 90.0, part
        assert gap >= 30.0, part
    assert elapsed < 300.0


def test_criterion_06_five_shot_beats_one_shot_on_average():
    head = RegressionHead()
    deltas = []
    parts = []
    for seed in (0, 1, 2, 3, 4):
        params5, test_set = bench_trained(seed, 5)
        acc5 = evaluate(params5, head, test_set, N_WAY, 5, QUERIES, 200, seed,
                        lambda1=LAMBDA1).mean_accuracy
        params1, test_set = bench_trained(seed, 1)
        acc1 = evaluate(params1, head, test_set, N_WAY, 1, QUERIES, 200, seed,
                        lambda1=LAMBDA1).mean_accuracy
        deltas.append(acc5 - acc1)
        parts.append(f"seed {seed}: {acc5:.1f} - {acc1:.1f} = {acc5 - acc1:+.1f}")
    mean_delta = float(np.mean(deltas))
    ok = mean_delta > 0.0
    report(6, ok, "; ".join(parts) + f"; mean {mean_delta:+.2f} points (need > 0)")
    assert mean_delta > 0.0, deltas


def test_criterion_07_ablation_pairs_share_episodes_and_expose_deltas():
    train_set, val_set, test_set = bench_splits(0)
    config = bench_config(0, episodes=400)
    result = ablate_lambda2(train_set, val_set, test_set, config,
                            [0.0, 1e-2], eval_episodes=200)
    same = result.reports[0].episodes_fingerprint == result.reports[1].episodes_fingerprint
    exposed = (result.per_episode_delta[1].shape == (200,)
               and len(result.mean_delta) == 2)
    ok = same and exposed
    report(7, ok,
           f"shared episode fingerprint {result.reports[0].episodes_fingerprint[:12]}..., "
           f"paired delta {result.mean_delta[1]:+.2f} points over 200 episodes "
           f"(no direction asserted)")
    assert same
    assert exposed


def same_split(a, b):
    return ((a.name, a.split, list(a.labels)) == (b.name, b.split, list(b.labels))
            and np.array_equal(a.features, b.features))


def test_criterion_08_domain_shift_stays_well_above_chance(monkeypatch):
    # domain A is the benchmark itself, so domain_shift's fit is handed the
    # model bench_trained already has, once its inputs are checked to be
    # exactly the ones that model was trained on
    def trained_fit(train_set, val_set, config, head=None):
        train_a, val_a, _ = bench_splits(config.seed)
        assert same_split(train_set, train_a) and same_split(val_set, val_a)
        assert config == bench_config(config.seed)
        assert isinstance(head, RegressionHead)
        return bench_trained(config.seed)[0], []

    monkeypatch.setattr(fewshot.evaluate, "fit", trained_fit)
    parts = []
    all_ok = True
    for seed in (0, 1, 2):
        train_a, val_a, _ = bench_splits(seed)
        _, _, test_b = bench_splits(seed, offset=0.5, name="synth-shifted")
        rep = domain_shift(train_a, val_a, test_b, bench_config(seed),
                           eval_episodes=200)
        floor = 100.0 / N_WAY + 20.0
        labeled = rep.train_domain == "synth" and rep.test_domain == "synth-shifted"
        seed_ok = rep.mean_accuracy >= floor and labeled
        all_ok = all_ok and seed_ok
        parts.append(f"seed {seed}: {rep.mean_accuracy:.1f}% "
                     f"({rep.train_domain} -> {rep.test_domain})")
    report(8, all_ok, "; ".join(parts) + f"; floor {100.0 / N_WAY + 20.0:.0f}%")
    assert all_ok, parts


def test_criterion_09_report_statistics_recompute_exactly():
    _, _, test_set = bench_splits(0)
    rep = evaluate(bench_init(0), RegressionHead(), test_set, N_WAY, K_SHOT,
                   QUERIES, 600, seed=0, lambda1=LAMBDA1)
    mean, ci = confidence_interval(rep.per_episode)
    s = float(np.std(rep.per_episode, ddof=1))
    exact = Z95 * s / np.sqrt(600.0)
    mean_err = abs(rep.mean_accuracy - float(np.mean(rep.per_episode)))
    ci_err = abs(rep.ci95 - exact)
    ok = (rep.episodes == 600 and mean_err <= 1e-12 and ci_err <= 1e-12
          and abs(rep.ci95 - ci) <= 1e-12)
    report(9, ok, f"E=600, mean residual {mean_err:.1e}, "
                  f"CI residual vs 1.96*s/sqrt(600): {ci_err:.1e}")
    assert ok


def test_criterion_10_reruns_write_byte_identical_history(tmp_path):
    args = ["train", "--synth-classes", "12", "--per-class", "12", "--dim", "4",
            "--n", "2", "--k", "2", "--q", "3", "--episodes", "40",
            "--val-interval", "20", "--val-episodes", "10",
            "--embed-dim", "4", "--hidden-dim", "6", "--depth", "1",
            "--seed", "3"]
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(args + ["--out", str(a)]) == EXIT_OK
    assert main(args + ["--out", str(b)]) == EXIT_OK
    history_same = (a / "history.log").read_bytes() == (b / "history.log").read_bytes()
    encoder_same = (a / "encoder.txt").read_bytes() == (b / "encoder.txt").read_bytes()
    ok = history_same and encoder_same
    report(10, ok, f"history.log byte-identical: {history_same}, "
                   f"encoder.txt byte-identical: {encoder_same}")
    assert history_same
    assert encoder_same
