"""Evaluation harness tests: confidence intervals, report determinism,
stub-head exactness, ablation pairing, and domain-shift plumbing.
"""

import hashlib
import importlib
import json
from dataclasses import replace

import numpy as np
import pytest

from fewshot import train
from fewshot.encoder import EncoderParams, Layer, default_layer_spec, init_encoder
from fewshot.episodes import Dataset, sample_episode, split_classes, synth_gaussian
from fewshot.errors import ConditioningError, ContractError
from fewshot.evaluate import (Z95, ablate_lambda2, confidence_interval,
                              domain_shift, evaluate, fingerprint_config,
                              format_table)
from fewshot.heads import HEADS, Hyper, RegressionHead, make_head
from fewshot.linalg import named_stream
from fewshot.train import TrainConfig, chunk_episodes
from oracles import per_episode_accuracies_np


def splits(seed=0, n_classes=12, dim=5, within_std=0.4):
    data = synth_gaussian(named_stream(seed, "dataset"), n_classes, 16, dim, 1.0,
                          within_std)
    return split_classes(data, (0.5, 0.25, 0.25), named_stream(seed, "split"))


def identity_params(dim):
    return EncoderParams([Layer(np.eye(dim), np.zeros((dim, 1)), "none")])


class ConstantHead:
    """Stub: every class at distance 1, so argmin always predicts class 1."""

    name = "constant"

    def distances_np(self, support, query, hyper):
        # E x N x B: one N x B matrix per stacked episode
        return np.ones((query.shape[0], hyper.n_way, query.shape[-1]))


def test_confidence_interval_formula_is_exact():
    v = np.array([50.0, 100.0, 75.0, 25.0, 100.0, 0.0])
    mean, ci = confidence_interval(v)
    assert mean == pytest.approx(float(np.mean(v)), abs=1e-14)
    assert ci == pytest.approx(Z95 * float(np.std(v, ddof=1)) / np.sqrt(6), abs=1e-14)
    with pytest.raises(ContractError):
        confidence_interval(np.array([1.0]))


def test_confidence_interval_shrinks_with_episode_count():
    rng = np.random.default_rng(5)
    v = rng.uniform(0, 100, size=2400)
    _, ci_all = confidence_interval(v)
    _, ci_head = confidence_interval(v[:600])
    # same underlying spread, 4x the data, so about half the half-width
    assert ci_all == pytest.approx(ci_head / 2.0, rel=0.15)


def test_evaluate_recompute_matches_report():
    train, _, test = splits()
    params = init_encoder(named_stream(0, "init"), default_layer_spec(5, 4, 8, 1))
    report = evaluate(params, RegressionHead(), test, 3, 2, 4, 50, seed=0,
                      lambda1=1e-3)
    mean, ci = confidence_interval(report.per_episode)
    assert report.mean_accuracy == pytest.approx(mean, abs=1e-12)
    assert report.ci95 == pytest.approx(ci, abs=1e-12)
    assert report.per_episode.shape == (50,)
    assert report.episodes == 50


def test_evaluate_is_deterministic_per_seed():
    _, _, test = splits()
    params = init_encoder(named_stream(1, "init"), default_layer_spec(5, 4, 8, 1))
    a = evaluate(params, RegressionHead(), test, 3, 2, 4, 20, seed=3)
    b = evaluate(params, RegressionHead(), test, 3, 2, 4, 20, seed=3)
    c = evaluate(params, RegressionHead(), test, 3, 2, 4, 20, seed=4)
    # another head (or another encoder) scores the same episodes
    d = evaluate(init_encoder(named_stream(2, "init"), default_layer_spec(5, 4, 8, 1)),
                 make_head("proto"), test, 3, 2, 4, 20, seed=3)
    assert a.to_line() == b.to_line()
    assert a.episodes_fingerprint == b.episodes_fingerprint == d.episodes_fingerprint
    assert d.head == "proto"
    assert a.episodes_fingerprint != c.episodes_fingerprint
    assert np.array_equal(a.per_episode, b.per_episode)


def test_ridge_scores_more_shots_than_embedding_dims():
    # 20 shots in a 16-dim embedding: S^T S is singular, S^T S + lambda1 I is not
    data = synth_gaussian(named_stream(0, "dataset"), 10, 40, 8, 1.0, 0.4)
    _, _, test = split_classes(data, (0.0, 0.5, 0.5), named_stream(0, "split"))
    params = init_encoder(named_stream(0, "init"), default_layer_spec(8, 16, 16, 1))
    report = evaluate(params, RegressionHead(), test, 5, 20, 4, 5, seed=0,
                      lambda1=0.5)
    assert report.per_episode.shape == (5,)
    assert report.mean_accuracy > 20.0
    with pytest.raises(ContractError, match="M=16 < K=20"):
        evaluate(params, RegressionHead(), test, 5, 20, 4, 5, seed=0, lambda1=0.0)


@pytest.mark.parametrize("k_shot", [5, 20])
@pytest.mark.parametrize("head_name", sorted(HEADS))
def test_stacked_evaluation_equals_the_per_episode_loop(head_name, k_shot):
    # 2 episodes, exactly one chunk, and one chunk plus one
    data = synth_gaussian(named_stream(8, "dataset"), 8, 40, 6, 1.0, 0.6)
    params = init_encoder(named_stream(8, "init"), default_layer_spec(6, 16, 12, 1))
    head = make_head(head_name)
    hyper = Hyper(5, k_shot, 4, 0.5, 0.0)
    chunk = chunk_episodes(hyper, params.output_dim)
    assert chunk > 2
    for count in (2, chunk, chunk + 1):
        report = evaluate(params, head, data, 5, k_shot, 4, count, seed=2, lambda1=0.5)
        rng = named_stream(2, "evaluation")
        episodes = [sample_episode(data, 5, k_shot, 4, rng) for _ in range(count)]
        per_episode = 100.0 * per_episode_accuracies_np(params, head, episodes, hyper)
        assert np.array_equal(report.per_episode, per_episode)
        mean, ci = confidence_interval(per_episode)
        prints = hashlib.sha256("".join(ep.fingerprint() for ep in episodes).encode())
        expected = replace(report, mean_accuracy=mean, ci95=ci,
                           episodes_fingerprint=prints.hexdigest())
        assert report.to_line() == expected.to_line()


def test_singular_ridge_system_names_its_episode_across_chunks(monkeypatch):
    # class 7's features are all zero, so with lambda1 = 0 its Gram matrix
    # is zero in every episode that samples it; chunks of 3 put the first
    # such episode past the first chunk
    data = synth_gaussian(named_stream(3, "dataset"), 7, 6, 4, 1.0, 0.3)
    data.features[:, data.class_to_indices[7]] = 0.0
    monkeypatch.setattr(train, "CHUNK_FLOATS", 3 * 2 * 4 * 2 * 2)
    assert chunk_episodes(Hyper(2, 2, 2, 0.0, 0.0), 4) == 3
    rng = named_stream(1, "evaluation")
    episodes = [sample_episode(data, 2, 2, 2, rng) for _ in range(20)]
    first = next(i for i, ep in enumerate(episodes) if 7 in ep.relabel)
    assert first >= 3
    with pytest.raises(ConditioningError) as info:
        evaluate(identity_params(4), RegressionHead(), data, 2, 2, 2, 20, seed=1,
                 lambda1=0.0)
    assert info.value.episode_index == first
    assert str(info.value).endswith(
        f"of class {episodes[first].relabel[7]} at episode {first}")


def test_constant_head_scores_exactly_chance():
    _, _, test = splits()
    params = identity_params(5)
    report = evaluate(params, ConstantHead(), test, 3, 2, 4, 25, seed=0)
    # argmin ties resolve to class 1; queries are balanced, so exactly 1/N
    assert report.mean_accuracy == pytest.approx(100.0 / 3.0, abs=1e-12)
    assert report.ci95 == pytest.approx(0.0, abs=1e-12)
    assert np.all(report.per_episode == report.per_episode[0])


def test_well_separated_classes_score_perfectly():
    # distant blobs and an identity encoder: every episode is solvable
    data = synth_gaussian(named_stream(7, "dataset"), 8, 12, 4, 50.0, 0.01)
    _, _, test = split_classes(data, (0.5, 0.25, 0.25), named_stream(7, "split"))
    report = evaluate(identity_params(4), RegressionHead(), test, 2, 2, 4, 25,
                      seed=1, lambda1=1e-6)
    assert report.mean_accuracy == pytest.approx(100.0, abs=1e-12)
    assert report.ci95 == 0.0


def test_evaluate_rejects_class_leakage():
    train, _, _ = splits()
    params = identity_params(5)
    with pytest.raises(ContractError, match="share classes"):
        evaluate(params, RegressionHead(), train, 3, 2, 4, 10, seed=0,
                 train_set=train)
    # different dataset names skip the check even with overlapping ids
    other = Dataset("other", train.features, train.labels)
    evaluate(params, RegressionHead(), other, 3, 2, 4, 4, seed=0, train_set=train)


def test_evaluate_needs_two_episodes():
    _, _, test = splits()
    with pytest.raises(ContractError):
        evaluate(identity_params(5), RegressionHead(), test, 3, 2, 4, 1, seed=0)


def test_report_line_is_json_parseable():
    _, _, test = splits()
    report = evaluate(identity_params(5), RegressionHead(), test, 3, 2, 4, 10,
                      seed=0, train_domain="synth")
    record = json.loads(report.to_line())
    assert record["head"] == "regression"
    assert record["train_domain"] == "synth"
    assert record["episodes"] == 10
    assert record["mean_accuracy"] == pytest.approx(report.mean_accuracy)
    assert len(record["episodes_fingerprint"]) == 64


def test_report_line_escapes_quotes_and_backslashes_in_names():
    _, _, test = splits()
    report = evaluate(identity_params(5), RegressionHead(), test, 3, 2, 4, 10,
                      seed=0, train_domain="synth")
    # an ordinary report keeps the field order and spelling of the
    # hand-written line it replaced
    fields = [
        f'"head": "{report.head}"', f'"train_domain": "{report.train_domain}"',
        f'"test_domain": "{report.test_domain}"', f'"n": {report.n_way}',
        f'"k": {report.k_shot}', f'"q": {report.q_queries}',
        f'"episodes": {report.episodes}', f'"mean_accuracy": {report.mean_accuracy!r}',
        f'"ci95": {report.ci95!r}',
        f'"config_fingerprint": "{report.config_fingerprint}"',
        f'"episodes_fingerprint": "{report.episodes_fingerprint}"',
    ]
    assert report.to_line() == "{" + ", ".join(fields) + "}"
    odd = 'C:\\data\\"quoted".csv'
    report.train_domain = odd
    report.test_domain = odd
    record = json.loads(report.to_line())
    assert record["train_domain"] == odd and record["test_domain"] == odd


def test_fingerprint_config_is_order_insensitive():
    a = fingerprint_config(n=5, k=1, lambda1=0.5)
    b = fingerprint_config(lambda1=0.5, k=1, n=5)
    c = fingerprint_config(lambda1=0.5, k=2, n=5)
    assert a == b
    assert a != c


def test_ablation_pairs_share_test_episodes():
    train, val, test = splits(seed=3)
    config = TrainConfig(n_way=3, k_shot=2, q_queries=3, episodes=10, lr=1e-3,
                         embed_dim=4, hidden_dim=8, depth=1, seed=3,
                         val_interval=100, val_episodes=5)
    result = ablate_lambda2(train, val, test, config, [0.0, 1e-2],
                            eval_episodes=20)
    assert result.lambda2_values == [0.0, 1e-2]
    assert len(result.reports) == 2
    fingerprints = {r.episodes_fingerprint for r in result.reports}
    assert len(fingerprints) == 1
    assert np.array_equal(result.per_episode_delta[0], np.zeros(20))
    assert result.mean_delta[0] == 0.0
    assert result.per_episode_delta[1].shape == (20,)
    assert result.mean_delta[1] == pytest.approx(
        float(np.mean(result.per_episode_delta[1])))
    assert "delta" in result.summary()
    with pytest.raises(ContractError):
        ablate_lambda2(train, val, test, config, [])


def test_ablation_checks_every_value_before_training(monkeypatch):
    train, val, test = splits(seed=3)
    config = TrainConfig(n_way=3, k_shot=2, q_queries=3, episodes=10,
                         embed_dim=4, hidden_dim=8, depth=1, seed=3)

    def no_fit(*args, **kwargs):
        raise AssertionError("trained before checking every lambda2")

    # the package binds the name ``evaluate`` to the function, not the module
    monkeypatch.setattr(importlib.import_module("fewshot.evaluate"), "fit", no_fit)
    with pytest.raises(ContractError, match="lambda2"):
        ablate_lambda2(train, val, test, config, [0.0, -1.0])


def test_too_few_eval_episodes_are_refused_before_training(monkeypatch):
    # both used to train a model and only then find no confidence interval
    train, val, test = splits(seed=3)
    config = TrainConfig(n_way=3, k_shot=2, q_queries=3, episodes=10,
                         embed_dim=4, hidden_dim=8, depth=1, seed=3)

    def no_fit(*args, **kwargs):
        raise AssertionError("trained before checking the eval episode count")

    monkeypatch.setattr(importlib.import_module("fewshot.evaluate"), "fit", no_fit)
    for run in (lambda: domain_shift(train, val, test, config, eval_episodes=1),
                lambda: ablate_lambda2(train, val, test, config, [0.0], eval_episodes=1)):
        with pytest.raises(ContractError, match="^eval_episodes must be >= 2 for a "
                                                "confidence interval, got 1$"):
            run()


def test_domain_shift_labels_both_domains():
    train_a, val_a, _ = splits(seed=4)
    data_b = synth_gaussian(named_stream(4, "dataset"), 12, 16, 5, 1.0, 0.4,
                            offset=0.5, name="synth-shifted")
    _, _, test_b = split_classes(data_b, (0.5, 0.25, 0.25), named_stream(4, "split"))
    config = TrainConfig(n_way=3, k_shot=2, q_queries=3, episodes=10, lr=1e-3,
                         embed_dim=4, hidden_dim=8, depth=1, seed=4,
                         val_interval=100, val_episodes=5)
    report = domain_shift(train_a, val_a, test_b, config, eval_episodes=10)
    assert report.train_domain == "synth"
    assert report.test_domain == "synth-shifted"

    mismatched = synth_gaussian(named_stream(4, "dataset"), 6, 16, 7, 1.0, 0.4)
    with pytest.raises(ContractError, match="dimensions"):
        domain_shift(train_a, val_a, mismatched, config)


def test_format_table_mentions_heads_and_domains():
    _, _, test = splits()
    report = evaluate(identity_params(5), RegressionHead(), test, 3, 2, 4, 10,
                      seed=0, train_domain="synth")
    table = format_table([report])
    assert "regression" in table
    assert "synth -> synth" in table
    assert "3-way 2-shot" in table
