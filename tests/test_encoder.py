"""Encoder tests: init distribution, forward/embed_np agreement, the
layer chain's input layout, the forward adjoint, checkpoints."""

import numpy as np
import pytest

from fewshot import encoder, heads
from fewshot.encoder import (EncoderParams, Layer, default_layer_spec, embed_np,
                             init_encoder, load_encoder, save_encoder)
from fewshot.episodes import sample_episode, synth_gaussian
from fewshot.errors import CheckpointError, ConfigError, ShapeError
from fewshot.linalg import named_stream


def test_default_layer_spec_chains_dimensions():
    spec = default_layer_spec(32, 16, hidden=64, depth=2)
    assert spec == [(32, 64, "relu"), (64, 64, "relu"), (64, 16, "none")]
    assert default_layer_spec(8, 4, depth=0) == [(8, 4, "none")]
    spec = default_layer_spec(32, 16, hidden=128, depth=2, final_activation="relu")
    assert spec[-1] == (128, 16, "relu")
    # a size out of range is named by its TrainConfig field, with its value
    for kwargs, message in ((dict(depth=-1), "depth must be >= 0, got -1"),
                            (dict(output_dim=0), "embed_dim must be >= 1, got 0"),
                            (dict(hidden=0, depth=0), "hidden_dim must be >= 1, got 0")):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            default_layer_spec(8, **kwargs)
    with pytest.raises(ConfigError, match="unknown activation 'gelu'"):
        default_layer_spec(8, 4, final_activation="gelu")


def test_init_is_deterministic_per_seed():
    spec = default_layer_spec(10, 4, hidden=8, depth=1)
    a = init_encoder(7, spec)
    b = init_encoder(7, spec)
    c = init_encoder(8, spec)
    for la, lb in zip(a.layers, b.layers):
        assert np.array_equal(la.weight, lb.weight)
    assert not np.array_equal(a.layers[0].weight, c.layers[0].weight)


def test_init_biases_are_zero_and_weights_bounded():
    spec = [(20, 30, "relu"), (30, 5, "none")]
    params = init_encoder(3, spec)
    for layer, (n_in, n_out, _) in zip(params.layers, spec):
        assert np.array_equal(layer.bias, np.zeros((n_out, 1)))
        half_width = np.sqrt(6.0 / (n_in + n_out))
        assert float(np.max(np.abs(layer.weight))) <= half_width


def test_init_weight_distribution_moments():
    # uniform on [-w, w]: mean 0, variance w^2 / 3 (checked loosely on 18k draws)
    n_in, n_out = 120, 150
    params = init_encoder(11, [(n_in, n_out, "none")])
    w = params.layers[0].weight
    half_width = np.sqrt(6.0 / (n_in + n_out))
    assert abs(float(w.mean())) < half_width / 50.0
    assert float(w.var()) == pytest.approx(half_width**2 / 3.0, rel=0.05)


def test_init_rejects_malformed_specs():
    with pytest.raises(ConfigError):
        init_encoder(0, [])
    with pytest.raises(ConfigError):
        init_encoder(0, [(4, 8, "relu"), (9, 2, "none")])  # 8 != 9
    with pytest.raises(ConfigError):
        init_encoder(0, [(4, 8, "sigmoid")])
    with pytest.raises(ConfigError):
        init_encoder(0, [(0, 8, "relu")])
    with pytest.raises(ConfigError, match="empty"):
        EncoderParams([])
    with pytest.raises(ConfigError, match="do not chain"):
        EncoderParams([Layer(np.ones((8, 4)), np.zeros((8, 1)), "relu"),
                       Layer(np.ones((2, 9)), np.zeros((2, 1)), "none")])


def test_identity_network_passes_input_through():
    eye = EncoderParams([Layer(np.eye(4), np.zeros((4, 1)), "none")])
    x = np.arange(8.0).reshape(4, 2)
    assert np.array_equal(embed_np(eye, x), x)


def test_tape_and_numpy_forward_agree():
    rng = np.random.default_rng(21)
    for seed in range(10):
        spec = [(6, 9, "tanh"), (9, 7, "relu"), (7, 3, "none")]
        params = init_encoder(seed, spec)
        x = rng.standard_normal((6, 5))
        trained, _ = encoder.forward(params.vector, params, x)
        plain = embed_np(params, x)
        assert np.max(np.abs(trained - plain)) < 1e-14


def test_embedding_is_column_consistent():
    params = init_encoder(5, [(4, 6, "tanh"), (6, 3, "none")])
    x = np.random.default_rng(9).standard_normal((4, 7))
    whole = embed_np(params, x)
    for j in range(7):
        single = embed_np(params, x[:, [j]])
        assert np.allclose(whole[:, [j]], single, atol=1e-15)


def test_embed_rejects_wrong_input_dim():
    params = init_encoder(5, [(4, 3, "none")])
    with pytest.raises(ShapeError):
        embed_np(params, np.zeros((5, 2)))
    with pytest.raises(ShapeError):
        encoder.forward(params.vector, params, np.zeros((5, 2)))


def test_a_sampled_episode_reaches_the_chain_without_a_copy():
    # sample_episode gathers x C-contiguous, so the chain's first output, its
    # input as a D x B matrix, is x itself; a Fortran-ordered batch is read
    # as a C-ordered copy of the same values
    data = synth_gaussian(0, 8, 12, 6)
    episode = sample_episode(data, 3, 2, 4, np.random.default_rng(0))
    assert episode.x.flags.c_contiguous and episode.x.dtype == np.float64
    assert np.array_equal(episode.x, data.features[:, episode.columns])
    params = init_encoder(0, default_layer_spec(6, 3, 5, 1))
    assert encoder._chain(params.layers, episode.x)[0] is episode.x
    fortran = np.asfortranarray(episode.x)
    first = encoder._chain(params.layers, fortran)[0]
    assert first.flags.c_contiguous and np.array_equal(first, episode.x)


def test_forward_gradients_flow_to_all_layers():
    params = init_encoder(2, [(3, 4, "tanh"), (4, 2, "none")])
    out, back = encoder.forward(params.vector, params,
                                np.random.default_rng(1).standard_normal((3, 4)))
    _, ce_back = heads.cross_entropy(out, np.array([1, 2, 2, 1]))
    grad = back(ce_back(np.ones((1, 1))))
    assert grad.shape == params.vector.shape
    for layer in params.with_vector(grad).layers:
        assert float(np.max(np.abs(layer.weight))) > 0.0
        assert float(np.max(np.abs(layer.bias))) > 0.0


def test_params_are_views_of_one_vector_in_w0_b0_w1_b1_order(tmp_path):
    params = init_encoder(6, [(3, 5, "tanh"), (5, 2, "none")])
    tensors = [t for l in params.layers for t in (l.weight, l.bias)]
    assert [t.shape for t in tensors] == [(5, 3), (5, 1), (2, 5), (2, 1)]
    assert params.vector.shape == (15 + 5 + 10 + 2,)
    assert params.vector.flags["C_CONTIGUOUS"]
    pos = 0
    for t in tensors:
        assert np.shares_memory(t, params.vector)
        assert np.array_equal(t.ravel(), params.vector[pos : pos + t.size])
        pos += t.size
    params.layers[1].bias[1, 0] = 7.0
    assert params.vector[-1] == 7.0

    other = params.with_vector(np.arange(32.0))
    assert not np.shares_memory(other.vector, params.vector)
    for layer in other.layers:
        assert np.shares_memory(layer.weight, other.vector)
        assert not np.shares_memory(layer.weight, params.vector)
        assert not np.shares_memory(layer.bias, params.vector)
    assert np.array_equal(other.layers[0].bias[:, 0], np.arange(15.0, 20.0))
    assert [l.activation for l in other.layers] == ["tanh", "none"]
    with pytest.raises(ShapeError):
        params.with_vector(np.zeros(31))

    path = tmp_path / "enc.txt"
    save_encoder(params, path)
    loaded = load_encoder(path)
    assert np.array_equal(loaded.vector, params.vector)
    for layer in loaded.layers:
        assert np.shares_memory(layer.weight, loaded.vector)
        assert np.shares_memory(layer.bias, loaded.vector)


def test_forward_lays_the_gradient_out_as_the_vector():
    # forward's gradient against backpropagation by hand, concatenated in
    # the W0, b0, W1, b1 order of ``params.vector``
    params = init_encoder(2, [(3, 4, "tanh"), (4, 2, "none")])
    x = np.random.default_rng(1).standard_normal((3, 4))
    out, back = encoder.forward(params.vector, params, x)
    _, ce_back = heads.cross_entropy(out, np.array([1, 2, 2, 1]))
    out_grad = ce_back(np.ones((1, 1)))
    grad = back(out_grad)
    first, second = params.layers
    h = np.tanh(first.weight @ x + first.bias)
    g = (second.weight.T @ out_grad) * (1.0 - h * h)
    expected = np.concatenate([(g @ x.T).ravel(), g.sum(axis=1),
                               (out_grad @ h.T).ravel(), out_grad.sum(axis=1)])
    assert grad.shape == expected.shape
    assert np.allclose(grad, expected, rtol=1e-13, atol=1e-16)


def test_checkpoint_round_trip_is_value_exact(tmp_path):
    params = init_encoder(named_stream(13, "init"), [(5, 8, "relu"), (8, 3, "tanh")])
    # make biases nontrivial so the round trip covers them too
    params.layers[0].bias[:] = np.random.default_rng(2).standard_normal((8, 1))
    path = tmp_path / "enc.txt"
    save_encoder(params, path)
    loaded = load_encoder(path)
    assert len(loaded.layers) == 2
    for orig, back in zip(params.layers, loaded.layers):
        assert np.array_equal(orig.weight, back.weight)  # bit-exact via repr
        assert np.array_equal(orig.bias, back.bias)
        assert orig.activation == back.activation


def test_checkpoint_save_load_save_is_byte_stable(tmp_path):
    params = init_encoder(named_stream(14, "init"), [(4, 4, "none")])
    p1 = tmp_path / "a.txt"
    p2 = tmp_path / "b.txt"
    save_encoder(params, p1)
    save_encoder(load_encoder(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_rejects_malformed_files(tmp_path):
    good = tmp_path / "good.txt"
    save_encoder(init_encoder(0, [(3, 2, "relu")]), good)
    lines = good.read_text().splitlines()

    bad_header = tmp_path / "h.txt"
    bad_header.write_text("something-else v1\n" + "\n".join(lines[1:]) + "\n")
    with pytest.raises(CheckpointError):
        load_encoder(bad_header)

    truncated = tmp_path / "t.txt"
    truncated.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(CheckpointError):
        load_encoder(truncated)

    bad_act = tmp_path / "a.txt"
    bad_act.write_text(
        "\n".join(ln.replace("layer 3 2 relu", "layer 3 2 softplus") for ln in lines) + "\n")
    with pytest.raises(CheckpointError):
        load_encoder(bad_act)

    bad_float = tmp_path / "f.txt"
    corrupted = list(lines)
    corrupted[3] = corrupted[3].replace(corrupted[3].split()[0], "oops", 1)
    bad_float.write_text("\n".join(corrupted) + "\n")
    with pytest.raises(CheckpointError):
        load_encoder(bad_float)

    bad_count = tmp_path / "c.txt"
    bad_count.write_text("\n".join([lines[0], "layers x"] + lines[2:]) + "\n")
    with pytest.raises(CheckpointError):
        load_encoder(bad_count)

    wrong_width = tmp_path / "w.txt"
    corrupted = list(lines)
    corrupted[3] = corrupted[3] + " 0.0"
    wrong_width.write_text("\n".join(corrupted) + "\n")
    with pytest.raises(CheckpointError):
        load_encoder(wrong_width)
