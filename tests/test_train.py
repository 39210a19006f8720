"""Training-loop tests: config validation, Adam oracles, the training
loss against a numpy reconstruction, the tape of a step, divergence
reporting, and determinism.
"""

import gc
import inspect
from dataclasses import fields, replace

import numpy as np
import pytest

from fewshot import autodiff, encoder, heads, train
from fewshot.evaluate import evaluate
from fewshot.encoder import EncoderParams, Layer, default_layer_spec, embed_np, init_encoder
from fewshot.episodes import sample_episode, split_classes, synth_gaussian
from fewshot.errors import (ConditioningError, ConfigError, ContractError,
                            DegenerateSubspaceError, DivergenceError,
                            NumericalError, SamplingError)
from fewshot.heads import Hyper, RegressionHead
from fewshot.linalg import named_stream
from fewshot.train import (AdamState, TrainConfig, adam_update, chunk_episodes,
                           episode_accuracy, fit, history_lines, train_step,
                           validate)
from fewshot.verify import check_adam_oracle
from oracles import episode_accuracy_np, ortho_penalty_np, per_episode_accuracies_np


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
    for bad in (0.0, float("nan"), float("inf")):
        with pytest.raises(ConfigError, match=f"^lr must be finite and positive, got {bad}$"):
            TrainConfig(lr=bad)
    for name in ("episodes", "val_interval", "val_episodes"):
        with pytest.raises(ConfigError, match=f"^{name} must be >= 1, got 0$"):
            TrainConfig(**{name: 0})
    # the encoder shape is checked when the config is built, not at fit
    with pytest.raises(ConfigError, match="^embed_dim must be >= 1, got 0$"):
        TrainConfig(embed_dim=0)
    with pytest.raises(ConfigError):
        TrainConfig(final_activation="gelu")
    # the episode shape and loss weights are checked when the config is built
    for bad in (dict(n_way=1), dict(k_shot=0), dict(q_queries=0),
                dict(lambda1=-1.0), dict(lambda2=float("nan"))):
        with pytest.raises(ContractError):
            TrainConfig(**bad)


def test_more_shots_than_embedding_dims_need_a_ridge():
    # M = 3 < K = 4: the ridge keeps every Gram matrix positive definite,
    # and without it the regression head refuses the episode shape
    train_set, val_set, _ = small_splits()
    config = small_config(k_shot=4, embed_dim=3, lambda1=1.0, episodes=5)
    _, history = fit(train_set, val_set, config)
    assert all(np.isfinite(r["loss"]) for r in history)
    with pytest.raises(ContractError, match="M=3 < K=4"):
        fit(train_set, val_set, small_config(k_shot=4, embed_dim=3, lambda1=0.0))


def test_lambda2_defaults_depend_on_shot_count():
    assert TrainConfig(k_shot=1, embed_dim=4).resolved_lambda2 == pytest.approx(1e-3)
    assert TrainConfig(k_shot=5).resolved_lambda2 == pytest.approx(1e-2)
    assert TrainConfig(k_shot=5, lambda2=0.0).resolved_lambda2 == 0.0
    assert TrainConfig(k_shot=1, embed_dim=4, lambda2=0.5).resolved_lambda2 == 0.5


def test_config_hyper_carries_the_resolved_weight():
    # a config is the Hyper its heads read: Hyper declares the five shape
    # and weight fields, first, and TrainConfig declares none of them
    config = TrainConfig(k_shot=1, embed_dim=4, lambda1=0.25)
    assert isinstance(config, Hyper)
    assert config.lambda1 == 0.25
    assert config.lambda2 is None and config.resolved_lambda2 == pytest.approx(1e-3)
    assert (config.n_way, config.k_shot, config.q_queries) == (5, 1, 16)
    shape_and_weights = [f.name for f in fields(Hyper)]
    assert [f.name for f in fields(TrainConfig)][:5] == shape_and_weights
    assert len(fields(TrainConfig)) == 14
    assert not set(inspect.get_annotations(TrainConfig)) & set(shape_and_weights)


def test_a_fit_builds_no_hyper_once_its_config_is_built(monkeypatch):
    # a training step and a validation pass read the config as their Hyper
    train_set, val_set, _ = small_splits()
    config = small_config()
    built = []
    check = Hyper.__post_init__
    monkeypatch.setattr(Hyper, "__post_init__",
                        lambda self: built.append(type(self)) or check(self))
    _, history = fit(train_set, val_set, config)
    assert len(history) == 20 and "val_accuracy" in history[-1]
    assert built == []


# -- Adam ------------------------------------------------------------------------


def test_adam_matches_hand_stepped_recurrence():
    w0 = np.array([[1.0, -2.0], [0.5, 3.0]])
    b0 = np.array([[0.1], [-0.4]])
    params = EncoderParams([Layer(w0.copy(), b0.copy(), "none")])
    state = AdamState.for_params(params)
    lr = 1e-3
    rng = np.random.default_rng(0)
    grads_seq = [rng.standard_normal(6) for _ in range(4)]
    for grad in grads_seq:
        params = adam_update(params, grad, state, lr)

    beta1, beta2, eps = 0.9, 0.999, 1e-8
    flat = np.concatenate([w0.ravel(), b0.ravel()])
    m = np.zeros(6)
    v = np.zeros(6)
    for t, g in enumerate(grads_seq, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        flat = flat - lr * (m / (1 - beta1**t)) / (np.sqrt(v / (1 - beta2**t)) + eps)
    assert np.allclose(params.layers[0].weight, flat[:4].reshape(2, 2), atol=1e-14)
    assert np.allclose(params.layers[0].bias, flat[4:].reshape(2, 1), atol=1e-14)


def test_first_adam_step_has_unit_scale():
    # bias correction makes step 1 equal lr * g / (|g| + eps) elementwise
    params = EncoderParams([Layer(np.zeros((2, 2)), np.zeros((2, 1)), "none")])
    state = AdamState.for_params(params)
    g = np.array([[0.5, -2.0], [1e-3, 4.0]])
    gb = np.array([[1.0], [-1.0]])
    updated = adam_update(params, np.concatenate([g.ravel(), gb.ravel()]), state, lr=0.1)
    assert np.allclose(updated.layers[0].weight, -0.1 * np.sign(g), atol=1e-6)
    assert np.allclose(updated.layers[0].bias, -0.1 * np.sign(gb), atol=1e-6)


def test_adam_updates_its_moments_in_place():
    params = EncoderParams([Layer(np.ones((2, 2)), np.zeros((2, 1)), "none")])
    state = AdamState.for_params(params)
    moments = (id(state.m), id(state.v))
    g = np.array([0.5, -2.0, 1e-3, 4.0, 1.0, -1.0])
    updated = adam_update(params, g, state, lr=0.1)
    updated = adam_update(updated, g, state, lr=0.1)
    assert (id(state.m), id(state.v)) == moments
    first = (1.0 - 0.9) * g
    assert np.array_equal(state.m, 0.9 * first + (1.0 - 0.9) * g)
    # the parameters themselves are new arrays; the inputs are untouched
    assert np.all(params.layers[0].weight == 1.0)
    assert updated.layers[0].weight is not params.layers[0].weight
    assert check_adam_oracle().passed
    assert "0.000e+00" in check_adam_oracle().detail


def test_train_step_with_adam_needs_a_state():
    train_set, _, _ = small_splits()
    params = init_encoder(named_stream(2, "init"),
                          default_layer_spec(train_set.dim, 4, 8, 1))
    episode = sample_episode(train_set, 3, 2, 3, named_stream(2, "train-sampling"))
    with pytest.raises(ContractError, match=r"AdamState\.for_params"):
        train_step(params, episode, small_config(), None)


# -- loss plumbing ----------------------------------------------------------------


def test_tape_loss_matches_numpy_reconstruction():
    train_set, _, _ = small_splits()
    config = small_config(lambda1=1e-2, lambda2=5e-3)
    params = init_encoder(named_stream(0, "init"),
                          default_layer_spec(train_set.dim, 4, 8, 1))
    episode = sample_episode(train_set, 3, 2, 3, named_stream(0, "train-sampling"))

    embedded, _ = encoder.forward(params.vector, params, episode.x)
    loss, _, _ = RegressionHead().episode_loss(embedded, episode.query_y, config)

    support = embed_np(params, episode.support_x)
    query = embed_np(params, episode.query_x)
    cols = [support[:, c * 2:(c + 1) * 2] for c in range(3)]
    dist = RegressionHead().distances_np(support, query, config)
    neg = -dist
    m = neg.max(axis=0, keepdims=True)
    lse = m + np.log(np.sum(np.exp(neg - m), axis=0, keepdims=True))
    picked = dist[episode.query_y - 1, np.arange(9)]
    expected = float(np.mean(picked + lse[0, :]))
    expected += config.resolved_lambda2 * ortho_penalty_np(cols)
    assert loss.item() == pytest.approx(expected, rel=1e-10)


@pytest.mark.parametrize("head_name", ["regression", "proto", "cosine"])
def test_a_training_tape_has_one_leaf_and_gives_the_optimizer_a_flat_gradient(
        monkeypatch, head_name):
    # one episode per step at a 3-layer encoder, lambda2 > 0: the parameter
    # vector is the one thing differentiated, the tape holds one (encoder
    # back, loss back) pair, and Adam gets a gradient of
    # params.vector's shape (a P x 1 one would broadcast against Adam's
    # moments into a P x P array)
    train_set, _, _ = small_splits()
    params = init_encoder(named_stream(3, "init"),
                          default_layer_spec(train_set.dim, 4, 8, 2))
    assert len(params.layers) == 3
    episode = sample_episode(train_set, 3, 2, 3, named_stream(3, "train-sampling"))
    tapes, shapes = [], []
    backward, adam = autodiff.backward, train.adam_update

    def record_tape(tape):
        tapes.append(tape)
        return backward(tape)

    def record_grad(params, grad, *rest):
        shapes.append(grad.shape)
        return adam(params, grad, *rest)

    monkeypatch.setattr(autodiff, "backward", record_tape)
    monkeypatch.setattr(train, "adam_update", record_grad)
    train_step(params, episode, small_config(lambda2=1e-2),
               AdamState.for_params(params), heads.make_head(head_name))
    ((pair,),) = [tape.nodes for tape in tapes]
    assert len(pair) == 2 and all(map(callable, pair))
    assert shapes == [params.vector.shape]


@pytest.mark.parametrize("head_name", ["regression", "proto", "cosine"])
def test_episode_gradient_is_the_hand_built_tape_bit_for_bit(head_name):
    # a tape built by hand from encoder.forward and head.episode_loss, and
    # the episode's loss and accuracy: the step's gradient and metrics
    # equal them exactly, as Python floats, on a few seeds
    train_set, _, _ = small_splits()
    hyper = small_config(lambda2=1e-2)
    head = heads.make_head(head_name)
    for seed in range(4):
        params = init_encoder(named_stream(seed, "init"),
                              default_layer_spec(train_set.dim, 4, 8, 2))
        episode = sample_episode(train_set, 3, 2, 3, named_stream(seed, "train-sampling"))
        tape = autodiff.Tape()
        embedded, encoder_back = encoder.forward(params.vector, params, episode.x)
        loss, dist, loss_back = head.episode_loss(embedded, episode.query_y, hyper)
        tape.nodes.append((encoder_back, loss_back))
        grad, metrics = train.episode_gradient(params, episode, head, hyper)
        assert np.array_equal(grad, autodiff.backward(tape))
        assert metrics == {"loss": loss.item(), "accuracy": float(
            np.mean(heads.predict_np(dist) == episode.query_y))}, seed
        assert [type(value) for value in metrics.values()] == [float, float]


def test_scoring_records_no_tape(monkeypatch):
    # validation and evaluation call the distance kernels directly: they
    # build no tape and run no backward pass
    train_set, val_set, test_set = small_splits()
    config = small_config(val_episodes=3)
    params = init_encoder(named_stream(5, "init"),
                          default_layer_spec(train_set.dim, 4, 8, 1))

    def no_tape(*args):
        raise AssertionError("scoring built a tape or ran backward")

    monkeypatch.setattr(autodiff.Tape, "__init__", no_tape)
    monkeypatch.setattr(autodiff, "backward", no_tape)
    for name in sorted(heads.HEADS):
        head = heads.make_head(name)
        assert 0.0 <= validate(params, head, val_set, config,
                               named_stream(5, "validation")) <= 1.0
        report = evaluate(params, head, test_set, 3, 2, 3, 4, seed=5)
        assert 0.0 <= report.mean_accuracy <= 100.0


def test_episode_accuracy_agrees_with_manual_argmin():
    train_set, _, _ = small_splits()
    params = init_encoder(named_stream(1, "init"),
                          default_layer_spec(train_set.dim, 4, 8, 1))
    hyper = Hyper(3, 2, 3, 1e-3, 0.0)
    episode = sample_episode(train_set, 3, 2, 3, named_stream(1, "evaluation"))
    embedded = embed_np(params, train_set.features)
    (got,) = episode_accuracy(embedded, [episode], RegressionHead(), hyper)
    support = embed_np(params, episode.support_x)
    query = embed_np(params, episode.query_x)
    dist = RegressionHead().distances_np(support, query, hyper)
    manual = float(np.mean(np.argmin(dist, axis=0) + 1 == episode.query_y))
    assert got == pytest.approx(manual)


def test_train_step_updates_parameters_and_reports_metrics():
    train_set, _, _ = small_splits()
    config = small_config()
    params = init_encoder(named_stream(2, "init"),
                          default_layer_spec(train_set.dim, 4, 8, 1))
    state = AdamState.for_params(params)
    episode = sample_episode(train_set, 3, 2, 3, named_stream(2, "train-sampling"))
    new_params, metrics = train_step(params, episode, config, state)
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
        episode = sample_episode(train_set, 3, 2, 3, named_stream(seed, "train-sampling"))
        expected = episode_accuracy_np(params, head, episode, config)
        _, metrics = train_step(params, episode, config, AdamState.for_params(params),
                                head=head)
        assert metrics["accuracy"] == expected


def test_divergence_error_carries_the_global_episode_index(monkeypatch):
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
        train_step(params, episode, config, state, head=heads.ProtoHead(),
                   episode_index=120)
    assert info.value.episode_index == 120
    # fit passes each step its episode's 0-based position in the run: a
    # loss that turns non-finite on the third step fails at episode 2
    losses = []
    proto_loss = heads.ProtoHead.episode_loss

    def nan_on_the_third(head, embedded, labels, hyper):
        loss, dist, back = proto_loss(head, embedded, labels, hyper)
        losses.append(loss)
        return (loss * np.nan if len(losses) == 3 else loss), dist, back

    monkeypatch.setattr(heads.ProtoHead, "episode_loss", nan_on_the_third)
    with pytest.raises(DivergenceError) as info:
        fit(train_set, None, config, head=heads.ProtoHead())
    assert info.value.episode_index == 2 and len(losses) == 3


def test_conditioning_error_carries_the_global_episode_index():
    # zero weights and biases embed everything at the origin, so with
    # lambda1 = 0 the first class's Gram matrix is zero
    train_set, _, _ = small_splits()
    config = small_config(lambda1=0.0, lambda2=0.0)
    params = init_encoder(named_stream(3, "init"),
                          default_layer_spec(train_set.dim, 4, 8, 1))
    for layer in params.layers:
        layer.weight[...] = 0.0
    episode = sample_episode(train_set, 3, 2, 3, named_stream(3, "train-sampling"))
    with pytest.raises(ConditioningError) as info:
        train_step(params, episode, config, AdamState.for_params(params),
                   episode_index=120)
    assert info.value.episode_index == 120
    assert str(info.value).endswith("of class 1 at episode 120")


def test_degenerate_subspace_error_carries_the_global_episode_index():
    # zero weights and biases embed every support block at the origin, so
    # the ortho penalty has no direction for the first class
    train_set, _, _ = small_splits()
    config = small_config(lambda2=0.01)
    params = init_encoder(named_stream(3, "init"),
                          default_layer_spec(train_set.dim, 4, 8, 1))
    for layer in params.layers:
        layer.weight[...] = 0.0
    episode = sample_episode(train_set, 3, 2, 3, named_stream(3, "train-sampling"))
    with pytest.raises(DegenerateSubspaceError) as info:
        train_step(params, episode, config, AdamState.for_params(params),
                   episode_index=120)
    assert isinstance(info.value, NumericalError)
    assert info.value.episode_index == 120
    assert str(info.value).endswith("class 1 has an all-zero support matrix at episode 120")


@pytest.mark.parametrize("head_name", sorted(heads.HEADS))
def test_validate_is_the_mean_of_the_per_episode_loop(head_name):
    _, val_set, _ = small_splits(within_std=0.8)
    head = heads.make_head(head_name)
    chunk = chunk_episodes(small_config(), 4)
    for count in (2, chunk + 1):
        config = small_config(val_episodes=count, lambda1=0.1)
        params = init_encoder(named_stream(6, "init"),
                              default_layer_spec(val_set.dim, 4, 8, 1))
        got = validate(params, head, val_set, config, named_stream(6, "validation"))
        rng = named_stream(6, "validation")
        episodes = [sample_episode(val_set, 3, 2, 3, rng) for _ in range(count)]
        oracle = per_episode_accuracies_np(params, head, episodes, config)
        assert got == float(np.mean(oracle))


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


def test_fit_refuses_a_split_too_small_before_training(monkeypatch):
    import fewshot.train as train_module

    steps = []
    real_step = train_module.train_step
    monkeypatch.setattr(train_module, "train_step",
                        lambda *a, **k: steps.append(1) or real_step(*a, **k))
    train_set, val_set, _ = small_splits()
    two_classes = val_set.subset_by_classes(val_set.class_ids[:2], "val")
    config = small_config(episodes=30, val_interval=10)
    with pytest.raises(SamplingError, match="need 3 classes"):
        fit(train_set, two_classes, config)
    with pytest.raises(SamplingError, match="need 3 classes"):
        fit(two_classes, val_set, config)
    with pytest.raises(SamplingError, match=">= 50 examples"):
        fit(train_set, val_set, small_config(q_queries=48))
    assert steps == []
    # a validation split that is never used (interval beyond the budget) is not checked
    _, history = fit(train_set, two_classes, small_config(episodes=3, val_interval=10))
    assert len(history) == 3 and steps == [1, 1, 1]


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


def test_training_separable_data_reaches_high_accuracy():
    train_set, val_set, _ = small_splits(seed=5, within_std=0.15)
    config = small_config(episodes=150, lr=3e-3, lambda1=1e-2, lambda2=0.0,
                          val_interval=50, val_episodes=20, seed=5)
    params, history = fit(train_set, val_set, config)
    rng = named_stream(99, "evaluation")
    acc = validate(params, RegressionHead(), val_set,
                   replace(config, val_episodes=30), rng)
    assert acc >= 0.85


def test_losses_stay_finite_across_seeds():
    for seed in range(6):
        train_set, _, _ = small_splits(seed=seed)
        config = small_config(episodes=12, seed=seed)
        _, history = fit(train_set, None, config)
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


def test_fit_and_evaluate_leave_no_cyclic_garbage():
    # a tape and its backs form no reference cycle, so reference counting
    # frees every train-step tape; the cyclic collector finds nothing
    train_set, val_set, test_set = small_splits()
    config = small_config(episodes=3, val_interval=2, val_episodes=2)
    for name in ("regression", "proto", "cosine"):
        gc.collect()
        gc.disable()
        try:
            params, _ = fit(train_set, val_set, config, head=heads.make_head(name))
            evaluate(params, heads.make_head(name), test_set, 3, 2, 3, 3, seed=0)
            assert gc.collect() == 0, name
        finally:
            gc.enable()
