"""Training-loop tests: config validation, optimizer oracles, the tape loss
against a numpy reconstruction, divergence reporting, and determinism.
"""

import numpy as np
import pytest

from fewshot import heads
from fewshot.encoder import EncoderParams, Layer, default_layer_spec, embed_np, init_encoder
from fewshot.episodes import sample_episode, split_classes, synth_gaussian
from fewshot.errors import ConfigError, DivergenceError
from fewshot.heads import Hyper, RegressionHead, ortho_penalty_np
from fewshot.linalg import named_stream
from fewshot.train import (AdamState, TrainConfig, adam_update, episode_accuracy,
                           fit, history_lines, sgd_update, train_step, validate)


def small_splits(seed=0, within_std=0.4):
    data = synth_gaussian(named_stream(seed, "dataset"), 12, 20, 6, 1.0, within_std)
    return split_classes(data, (0.5, 0.25, 0.25), named_stream(seed, "split"))


def small_config(**overrides):
    base = dict(n_way=3, k_shot=2, q_queries=3, episodes=20, lr=1e-3,
                embed_dim=4, hidden_dim=8, depth=1, seed=0,
                val_interval=10, val_episodes=5)
    base.update(overrides)
    return TrainConfig(**base)


# -- config --------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(lr=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(episodes=0)
    with pytest.raises(ConfigError):
        TrainConfig(batch_tasks=0)
    with pytest.raises(ConfigError):
        TrainConfig(val_interval=0)
    with pytest.raises(ConfigError):
        TrainConfig(optimizer="rmsprop")
    with pytest.raises(ConfigError):
        TrainConfig(activation="gelu")
    with pytest.raises(ConfigError):
        TrainConfig(final_activation="gelu")
    with pytest.raises(ConfigError):
        TrainConfig(embed_dim=3, k_shot=5)  # projection needs M >= K


def test_lambda2_defaults_depend_on_shot_count():
    assert TrainConfig(k_shot=1, embed_dim=4).resolved_lambda2 == pytest.approx(1e-3)
    assert TrainConfig(k_shot=5).resolved_lambda2 == pytest.approx(1e-2)
    assert TrainConfig(k_shot=5, lambda2=0.0).resolved_lambda2 == 0.0
    assert TrainConfig(k_shot=1, embed_dim=4, lambda2=0.5).resolved_lambda2 == 0.5


def test_config_hyper_carries_the_resolved_weight():
    hyper = TrainConfig(k_shot=1, embed_dim=4, lambda1=0.25).hyper()
    assert hyper.lambda1 == 0.25
    assert hyper.lambda2 == pytest.approx(1e-3)
    assert (hyper.n_way, hyper.k_shot, hyper.q_queries) == (5, 1, 16)


# -- optimizers ------------------------------------------------------------------


def test_adam_matches_hand_stepped_recurrence():
    w0 = np.array([[1.0, -2.0], [0.5, 3.0]])
    b0 = np.array([[0.1], [-0.4]])
    params = EncoderParams([Layer(w0.copy(), b0.copy(), "none")])
    state = AdamState.for_params(params)
    lr = 1e-3
    rng = np.random.default_rng(0)
    grads_seq = [[rng.standard_normal((2, 2)), rng.standard_normal((2, 1))]
                 for _ in range(4)]
    for grads in grads_seq:
        params = adam_update(params, grads, state, lr)

    beta1, beta2, eps = 0.9, 0.999, 1e-8
    tensors = [w0.copy(), b0.copy()]
    ms = [np.zeros_like(t) for t in tensors]
    vs = [np.zeros_like(t) for t in tensors]
    for t, grads in enumerate(grads_seq, start=1):
        for i, g in enumerate(grads):
            ms[i] = beta1 * ms[i] + (1 - beta1) * g
            vs[i] = beta2 * vs[i] + (1 - beta2) * g * g
            tensors[i] = tensors[i] - lr * (ms[i] / (1 - beta1**t)) / (
                np.sqrt(vs[i] / (1 - beta2**t)) + eps)
    assert np.allclose(params.layers[0].weight, tensors[0], atol=1e-14)
    assert np.allclose(params.layers[0].bias, tensors[1], atol=1e-14)


def test_first_adam_step_has_unit_scale():
    # bias correction makes step 1 equal lr * g / (|g| + eps) elementwise
    params = EncoderParams([Layer(np.zeros((2, 2)), np.zeros((2, 1)), "none")])
    state = AdamState.for_params(params)
    g = np.array([[0.5, -2.0], [1e-3, 4.0]])
    gb = np.array([[1.0], [-1.0]])
    updated = adam_update(params, [g, gb], state, lr=0.1)
    assert np.allclose(updated.layers[0].weight, -0.1 * np.sign(g), atol=1e-6)
    assert np.allclose(updated.layers[0].bias, -0.1 * np.sign(gb), atol=1e-6)


def test_sgd_is_a_plain_descent_step():
    params = EncoderParams([Layer(np.ones((2, 2)), np.zeros((2, 1)), "none")])
    g = np.full((2, 2), 0.5)
    gb = np.full((2, 1), -1.0)
    updated = sgd_update(params, [g, gb], lr=0.2)
    assert np.allclose(updated.layers[0].weight, 1.0 - 0.1)
    assert np.allclose(updated.layers[0].bias, 0.2)
    # the original parameters are untouched
    assert np.all(params.layers[0].weight == 1.0)


# -- loss plumbing ----------------------------------------------------------------


def test_tape_loss_matches_numpy_reconstruction():
    train_set, _, _ = small_splits()
    config = small_config(lambda1=1e-2, lambda2=5e-3)
    params = init_encoder(named_stream(0, "init"),
                          default_layer_spec(train_set.dim, 4, 8, 1))
    episode = sample_episode(train_set, 3, 2, 3, named_stream(0, "train-sampling"))

    from fewshot.autodiff import Tape
    from fewshot.encoder import attach
    from fewshot.train import episode_loss_on_tape

    tape = Tape()
    attached = attach(params, tape)
    loss, _ = episode_loss_on_tape(attached, params, episode, RegressionHead(),
                                   config.hyper(), tape)

    support = embed_np(params, episode.support_x)
    query = embed_np(params, episode.query_x)
    cols = [support[:, c * 2:(c + 1) * 2] for c in range(3)]
    dist = RegressionHead().distances_np(cols, query, config.hyper())
    neg = -dist
    m = neg.max(axis=0, keepdims=True)
    lse = m + np.log(np.sum(np.exp(neg - m), axis=0, keepdims=True))
    picked = dist[episode.query_y - 1, np.arange(9)]
    expected = float(np.mean(picked + lse[0, :]))
    expected += config.hyper().lambda2 * ortho_penalty_np(cols)
    assert loss.item() == pytest.approx(expected, rel=1e-10)


def test_episode_accuracy_agrees_with_manual_argmin():
    train_set, _, _ = small_splits()
    params = init_encoder(named_stream(1, "init"),
                          default_layer_spec(train_set.dim, 4, 8, 1))
    hyper = Hyper(3, 2, 3, 1e-3, 0.0)
    episode = sample_episode(train_set, 3, 2, 3, named_stream(1, "evaluation"))
    got = episode_accuracy(params, RegressionHead(), episode, hyper)
    support = embed_np(params, episode.support_x)
    query = embed_np(params, episode.query_x)
    cols = [support[:, c * 2:(c + 1) * 2] for c in range(3)]
    dist = RegressionHead().distances_np(cols, query, hyper)
    manual = float(np.mean(np.argmin(dist, axis=0) + 1 == episode.query_y))
    assert got == pytest.approx(manual)


def test_train_step_updates_parameters_and_reports_metrics():
    train_set, _, _ = small_splits()
    config = small_config()
    params = init_encoder(named_stream(2, "init"),
                          default_layer_spec(train_set.dim, 4, 8, 1))
    state = AdamState.for_params(params)
    episode = sample_episode(train_set, 3, 2, 3, named_stream(2, "train-sampling"))
    new_params, metrics = train_step(params, [episode], config, state)
    assert np.isfinite(metrics["loss"])
    assert 0.0 <= metrics["accuracy"] <= 1.0
    assert not np.array_equal(new_params.layers[0].weight, params.layers[0].weight)
    assert state.step == 1


def test_train_step_accuracy_is_episode_accuracy_before_the_update():
    train_set, _, _ = small_splits()
    # a large step, so accuracy after the update would differ
    config = small_config(lambda1=0.1, lr=1.0)
    for seed, head in ((4, RegressionHead()), (5, heads.ProtoHead()),
                       (6, heads.CosineHead())):
        params = init_encoder(named_stream(seed, "init"),
                              default_layer_spec(train_set.dim, 4, 8, 1))
        rng = named_stream(seed, "train-sampling")
        batch = [sample_episode(train_set, 3, 2, 3, rng) for _ in range(2)]
        expected = np.mean([episode_accuracy(params, head, ep, config.hyper())
                            for ep in batch])
        _, metrics = train_step(params, batch, config, AdamState.for_params(params),
                                head=head)
        assert metrics["accuracy"] == expected


def test_divergence_error_carries_the_global_episode_index():
    # the proto head carries NaN features through to the loss; the
    # regression head would fail earlier, inside the Gram factorization
    train_set, _, _ = small_splits()
    config = small_config()
    params = init_encoder(named_stream(3, "init"),
                          default_layer_spec(train_set.dim, 4, 8, 1))
    params.layers[0].weight[0, 0] = np.nan
    state = AdamState.for_params(params)
    episode = sample_episode(train_set, 3, 2, 3, named_stream(3, "train-sampling"))
    with pytest.raises(DivergenceError) as info:
        train_step(params, [episode], config, state, head=heads.ProtoHead(),
                   episode_offset=120)
    assert info.value.episode_index == 120


def test_fit_history_is_deterministic_per_seed():
    train_set, val_set, _ = small_splits()
    config = small_config(episodes=30, val_interval=10)
    params_a, hist_a = fit(train_set, val_set, config)
    params_b, hist_b = fit(train_set, val_set, config)
    assert history_lines(hist_a) == history_lines(hist_b)
    for la, lb in zip(params_a.layers, params_b.layers):
        assert np.array_equal(la.weight, lb.weight)
        assert np.array_equal(la.bias, lb.bias)
    _, hist_c = fit(train_set, val_set, small_config(episodes=30, val_interval=10, seed=1))
    assert history_lines(hist_a) != history_lines(hist_c)


def test_fit_validates_on_interval_boundaries():
    train_set, val_set, _ = small_splits()
    _, history = fit(train_set, val_set, small_config(episodes=25, val_interval=10))
    val_points = [r["episode"] for r in history if "val_accuracy" in r]
    assert val_points == [10, 20]
    assert [r["episode"] for r in history] == list(range(1, 26))


def test_fit_without_validation_returns_final_params():
    train_set, val_set, _ = small_splits()
    config = small_config(episodes=8, val_interval=100)
    params, history = fit(train_set, val_set, config)
    assert all("val_accuracy" not in r for r in history)
    # rerun and step once more by hand to confirm these are the episode-8 params
    params_again, _ = fit(train_set, None, config)
    for la, lb in zip(params.layers, params_again.layers):
        assert np.array_equal(la.weight, lb.weight)


def test_fit_batched_episodes_consume_the_budget_exactly():
    train_set, val_set, _ = small_splits()
    config = small_config(episodes=10, batch_tasks=4, val_interval=100)
    _, history = fit(train_set, val_set, config)
    assert [r["episode"] for r in history] == [4, 8, 10]  # last batch truncated


def test_training_separable_data_reaches_high_accuracy():
    train_set, val_set, _ = small_splits(seed=5, within_std=0.15)
    config = small_config(episodes=150, lr=3e-3, lambda1=1e-2, lambda2=0.0,
                          val_interval=50, val_episodes=20, seed=5)
    params, history = fit(train_set, val_set, config)
    rng = named_stream(99, "evaluation")
    acc = validate(params, RegressionHead(), val_set, config, rng, n_episodes=30)
    assert acc >= 0.85


def test_losses_stay_finite_across_seeds():
    for seed in range(6):
        train_set, _, _ = small_splits(seed=seed)
        config = small_config(episodes=12, seed=seed)
        _, history = fit(train_set, None, config)
        assert all(np.isfinite(r["loss"]) for r in history)


def test_sgd_option_also_trains():
    train_set, val_set, _ = small_splits()
    config = small_config(episodes=12, optimizer="sgd", lr=1e-2)
    _, history = fit(train_set, val_set, config)
    assert len(history) == 12
    assert all(np.isfinite(r["loss"]) for r in history)


def test_history_lines_are_stable_bytes():
    history = [
        {"episode": 1, "loss": 1.5, "accuracy": 0.25},
        {"episode": 2, "loss": 0.75, "accuracy": 0.5, "val_accuracy": 1.0 / 3.0},
    ]
    text = history_lines(history)
    assert text == (
        '{"episode": 1, "loss": 1.5, "accuracy": 0.25}\n'
        '{"episode": 2, "loss": 0.75, "accuracy": 0.5, '
        '"val_accuracy": 0.3333333333333333}\n')


def test_heads_share_the_training_loop():
    train_set, val_set, _ = small_splits()
    for name in ("proto", "cosine"):
        head = heads.make_head(name)
        config = small_config(episodes=10)
        _, history = fit(train_set, val_set, config, head=head)
        assert len(history) == 10
        assert all(np.isfinite(r["loss"]) for r in history)
