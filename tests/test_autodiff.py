"""Adjoint tests: the encoder's ``back``, ``backward`` over a training
tape's (encoder back, loss back) pair, and the adjoint of every loss
kernel in ``heads`` (the three distances, the cross-entropy and the
ortho penalty) against central finite differences, the kernels against
numpy oracles, plus the structural contracts (idempotent backward, kernel
backs that write to no adjoint, no adjoint for the encoder's input batch,
stabilized reductions, shape errors).

Every function under test returns ``(value, back)``: ``back(w)`` is
checked against differences of the weighted sum ``sum(w * value)``.  A
tape's loss is reduced to a scalar by ``probe``, a weighted sum kept in
the tests, so the package keeps no function for tests alone.
"""

import re
import warnings

import numpy as np
import pytest

from fewshot import encoder, heads
from fewshot.autodiff import Tape, backward
from fewshot.encoder import ACTIVATIONS, EncoderParams, Layer, default_layer_spec, init_encoder
from fewshot.errors import ContractError, NumericalError, ShapeError
from fewshot.heads import CosineHead, Hyper

from oracles import cross_entropy_np, lstsq_distances, ortho_penalty_np

H = 1e-6
TOL = 5e-5


def mats(seed, *shapes):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(s) for s in shapes]


def probe(value):
    """The scalar ``sum(w * value)`` as ``(1 x 1 value, back)``, w random
    and fixed by value's shape, so a misplaced entry changes the loss."""
    w = fixed_weights(value.shape)
    return np.array([[np.sum(w * value)]]), lambda g: float(g[0, 0]) * w


def fixed_weights(shape):
    """Random weights fixed by ``shape``, so every entry of a value counts
    differently and a misplaced entry changes the weighted sum."""
    return np.random.default_rng(int(np.prod(shape))).standard_normal(shape)


def adjoints(back, g):
    """``back(g)`` as a list: one array for a one-operand kernel, else a tuple."""
    out = back(g)
    return [out] if isinstance(out, np.ndarray) else list(out)


def check_kernel(kernel, operands, tol=TOL, h=H):
    """``back(w)`` of ``kernel(*operands)`` against central differences of
    ``sum(w * value)`` in every operand, one coordinate at a time."""
    value, back = kernel(*operands)
    w = fixed_weights(value.shape)
    exact = adjoints(back, w)
    assert len(exact) == len(operands)
    for i, e in enumerate(exact):
        assert e.shape == operands[i].shape
        approx = np.zeros_like(operands[i])
        for idx in np.ndindex(approx.shape):
            plus = [m.copy() for m in operands]
            minus = [m.copy() for m in operands]
            plus[i][idx] += h
            minus[i][idx] -= h
            approx[idx] = (np.sum(w * kernel(*plus)[0])
                           - np.sum(w * kernel(*minus)[0])) / (2.0 * h)
        scale = max(1.0, float(np.max(np.abs(approx))))
        assert np.max(np.abs(e - approx)) / scale < tol, (e, approx)


def ridge(s, q, n=2, lambda1=0.5):
    return heads.ridge_residuals(s, q, n, lambda1)


def encoder_case(seed, depth, act, batch=5):
    """A 4 -> 3 (x depth) -> 2 encoder with every layer's activation
    ``act`` and random weights and biases, a copy of its parameter
    vector, and a 4 x batch input."""
    rng = np.random.default_rng(seed)
    params = init_encoder(seed, default_layer_spec(4, 2, 3, depth, act, act))
    params.vector[:] = rng.standard_normal(params.vector.size)
    return params, params.vector.copy(), rng.standard_normal((4, batch))


def training_tape(vector, params, x, loss):
    """The (encoder back, loss back) pair of the batch ``x`` and ``loss`` on
    a tape, as a training step records it, and the loss's value."""
    tape = Tape()
    embedded, encoder_back = encoder.forward(vector, params, x)
    value, loss_back = loss(embedded)
    tape.nodes.append((encoder_back, loss_back))
    return tape, value[0, 0]


def step_loss(params, x, loss):
    """The loss of ``training_tape`` as a kernel of the parameter vector,
    whose ``back`` scales ``backward`` of the tape."""
    def kernel(vector):
        tape, value = training_tape(vector, params, x, loss)
        return np.array([[value]]), lambda g: float(g[0, 0]) * backward(tape)
    return kernel


NUMPY_ACTIVATIONS = {"tanh": np.tanh, "relu": lambda a: np.maximum(a, 0.0),
                     "none": lambda a: a}


def numpy_chain(params, x):
    """Every layer's pre-activation W h + b and output act(W h + b) on the
    input x, written with numpy alone: the encoder's layer chain's oracle."""
    pres, outs = [], [x]
    for layer in params.layers:
        pres.append(layer.weight @ outs[-1] + layer.bias)
        outs.append(NUMPY_ACTIVATIONS[layer.activation](pres[-1]))
    return pres, outs


def layer_view_back(params, x, g):
    """The encoder's gradient for the adjoint g of its output, written into
    the layer views of ``EncoderParams.with_vector`` of a new vector, one
    new array per activation derivative: the float operations of the
    encoder's ``back`` that it must match bit for bit."""
    outs = numpy_chain(params, x)[1]
    grad = np.empty(params.vector.shape)
    views = params.with_vector(grad).layers
    for i in reversed(range(len(params.layers))):
        if params.layers[i].activation == "tanh":
            g = g * (1.0 - outs[i + 1] * outs[i + 1])
        elif params.layers[i].activation == "relu":
            g = g * (outs[i + 1] > 0.0)
        np.matmul(g, outs[i].T, out=views[i].weight)
        np.sum(g, axis=1, keepdims=True, out=views[i].bias)
        if i:
            g = params.layers[i].weight.T @ g
    return grad


# The three heads' distance kernels, each (support, query, n) -> (d, back).
DISTANCES = {
    "ridge": lambda s, q, n: heads.ridge_residuals(s, q, n, 0.5),
    "centroid": heads.centroid_distances,
    "cosine": heads.mean_cosine,
}


# -- gradient fidelity: the encoder, the tape and the loss kernels -------------


def test_ridge_gradients_when_only_lambda1_makes_the_gram_definite():
    # the ridge term on the Gram diagonal, with K = 3 > M = 2 so that only
    # lambda1 I makes each class's system definite
    for seed in range(5):
        x, q = mats(seed + 25, (2, 6), (2, 3))
        check_kernel(lambda s, q: ridge(s, q, 2, 0.5), [x, q])


def test_encoder_gradients_for_every_activation_and_depth():
    # the encoder, every layer act(W h + b), against the numpy chain and
    # against differences in its parameter vector, for every activation at
    # depth 0 and depth 2; relu pre-activations are kept away from the kink
    # so the stencil never straddles it
    for seed in range(5):
        for depth in (0, 2):
            for act in ACTIVATIONS:
                params, vector, x = encoder_case(seed + 30, depth, act)
                pres, outs = numpy_chain(params, x)
                assert min(np.min(np.abs(p)) for p in pres) > 1e-3
                assert np.array_equal(encoder.forward(vector, params, x)[0], outs[-1])
                check_kernel(lambda v: encoder.forward(v, params, x), [vector])


def test_encoder_back_is_the_layer_view_gradient_and_writes_no_adjoint():
    # every activation at depths 0-2, on the parameters' own vector and on
    # another one: back(g) leaves g as it was and returns a new vector on
    # every call, equal to the layer-view reference bit for bit; relu and
    # tanh scale each hidden layer's W^T g in place, never g itself
    for depth in (0, 1, 2):
        for act in ACTIVATIONS:
            params, vector, x = encoder_case(50 + depth, depth, act)
            for v in (params.vector, 0.5 * vector):
                h, back = encoder.forward(v, params, x)
                g = np.random.default_rng(depth).standard_normal(h.shape)
                kept = g.copy()
                first, second = back(g), back(g)
                assert np.array_equal(g, kept), (depth, act)
                assert first is not second and np.array_equal(first, second)
                assert np.array_equal(first, layer_view_back(params.with_vector(v), x, kept))
            if act == "relu":   # every layer's mask both passes and stops some entries
                for out in numpy_chain(params, x)[1][1:]:
                    assert (out == 0.0).any() and (out > 0.0).any()


def test_dense_value_is_the_shared_layer_function():
    # forward's value and embed_np's are one layer chain: each equals the
    # numpy chain exactly, for every hidden and final activation at depths
    # 0, 1 and 2; an unknown activation at any layer raises ContractError
    # through both
    for depth in (0, 1, 2):
        for act in ACTIVATIONS:
            for final in ACTIVATIONS:
                params = init_encoder(36, default_layer_spec(4, 2, 3, depth, act, final))
                params.vector[:] = np.random.default_rng(depth).standard_normal(
                    params.vector.size)
                (x,) = mats(36, (4, 5))
                expected = numpy_chain(params, x)[1][-1]
                assert np.array_equal(encoder.forward(params.vector, params, x)[0], expected)
                assert np.array_equal(encoder.embed_np(params, x), expected)
    for depth in (0, 2):
        for bad in range(depth + 1):
            params, vector, x = encoder_case(36, depth, "tanh")
            params.layers[bad].activation = "sigmoid"
            with pytest.raises(ContractError, match="unknown activation 'sigmoid'"):
                encoder.forward(vector, params, x)
            with pytest.raises(ContractError, match="unknown activation 'sigmoid'"):
                encoder.embed_np(params, x)


def test_distance_gradients_of_an_episode_cut_into_support_and_queries():
    # an embedded episode's support (two 2 x 3 class blocks) and its queries
    # cut from one matrix as contiguous column slices, as episode_loss cuts
    # them, through each distance kernel; the two adjoints, laid side by
    # side, are the episode's
    def sliced(node):
        def kernel(episode):
            d, back = node(np.ascontiguousarray(episode[:, :6]),
                           np.ascontiguousarray(episode[:, 6:]), 2)
            return d, lambda g: np.hstack(back(g))
        return kernel

    for seed in range(5):
        (episode,) = mats(seed + 50, (2, 9))
        for node in DISTANCES.values():
            check_kernel(sliced(node), [episode])


def test_blocks_lay_class_columns_along_the_stack_axis():
    # class c is columns cK..cK+K-1 of each episode's support: every kernel's
    # row c equals the kernel on that block alone, for a lone episode and a stack
    rng = np.random.default_rng(55)
    x = rng.standard_normal((2, 3, 6))
    q = rng.standard_normal((2, 3, 4))
    for name, node in DISTANCES.items():
        stacked, _ = node(x, q, 3)
        assert stacked.shape == (2, 3, 4), name
        for e in range(2):
            lone, _ = node(x[e], q[e], 3)
            assert np.allclose(lone, stacked[e], rtol=1e-14, atol=1e-14), name
            for c in range(3):
                block, _ = node(x[e][:, 2 * c : 2 * c + 2], q[e], 1)
                assert np.allclose(block[0], stacked[e, c],
                                   rtol=1e-14, atol=1e-14), name


def test_distance_kernels_refuse_an_episode_too_large_to_square():
    # a finite entry whose square overflows named "non-positive pivot inf"
    # (ridge) or gave chance-level distances (the baselines); the kernels
    # now refuse it up front, naming its episode in a stack, and warn nothing
    rng = np.random.default_rng(60)
    x = rng.standard_normal((3, 4, 6))
    q = rng.standard_normal((3, 4, 5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, node in DISTANCES.items():
            near = q.copy()
            near[1, 2, 3] = 1e150            # 4 M NK times its square stays finite
            node(x, near, 3)
            for where, value in (((1, 2, 3), 1e160), ((2, 0, 0), np.inf)):
                big_x, big_q = x.copy(), q.copy()
                (big_q if value == 1e160 else big_x)[where] = value
                named = re.escape(f"largest magnitude {value:.3e} ")
                with pytest.raises(NumericalError, match=named) as info:
                    node(big_x, big_q, 3)
                assert info.value.episode_index == where[0], name
                with pytest.raises(NumericalError) as info:
                    node(big_x[where[0]], big_q[where[0]], 3)
                assert info.value.episode_index is None, name


def test_stacked_and_broadcasting_ops_gradients():
    # the baseline kernels broadcast the queries against the class axis: an
    # M x NK support with M x B queries, an (E, M, NK) stack with (E, M, B),
    # and three classes of two shots
    for seed in range(5):
        x, y, e, q = mats(seed + 110, (3, 6), (3, 4), (2, 3, 4), (2, 3, 2))
        for node in (heads.centroid_distances, heads.mean_cosine):
            check_kernel(lambda s, q: node(s, q, 2), [x, y])
            check_kernel(lambda s, q: node(s, q, 2), [e, q])
            check_kernel(lambda s, q: node(s, q, 3), [x, y])


def test_ridge_gradients_for_a_lone_episode_and_a_stack():
    # the ridge kernel solves one SPD system per class block: M x NK supports
    # with M x B queries, and (E, M, NK) with (E, M, B) episode stacks
    for seed in range(5):
        x, y, e, q = mats(seed + 120, (4, 6), (4, 5), (2, 4, 6), (2, 4, 3))
        check_kernel(ridge, [x, y])
        check_kernel(ridge, [e, q])


def test_ridge_values_match_numpy_per_episode_and_class():
    # one distance per (episode, class, query) against numpy's own solver
    rng = np.random.default_rng(125)
    x = rng.standard_normal((2, 5, 9))
    q = rng.standard_normal((2, 5, 4))
    dist, _ = heads.ridge_residuals(x, q, 3, 0.2)
    assert dist.shape == (2, 3, 4)
    for e in range(2):
        lone, _ = heads.ridge_residuals(x[e], q[e], 3, 0.2)
        assert np.allclose(lone, dist[e], rtol=1e-14, atol=1e-14)
        for c in range(3):
            expected = lstsq_distances(x[e][:, 3 * c : 3 * c + 3], q[e], 0.2)
            assert np.allclose(dist[e, c], expected[0], atol=1e-12)


def test_ridge_residual_inside_a_class_span_has_zero_gradient():
    # S = (e1, e2), lambda1 = 0: the query (2, -3, 0) lies in the span, so
    # its residual and distance are exactly 0, and 0 is its gradient
    s = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    dist, back = heads.ridge_residuals(s, np.array([[2.0], [-3.0], [0.0]]), 1, 0.0)
    assert dist[0, 0] == 0.0
    support_grad, query_grad = back(np.ones((1, 1)))
    assert np.array_equal(support_grad, np.zeros_like(s))
    assert np.array_equal(query_grad, np.zeros((3, 1)))


def test_subspace_overlap_gradients_and_oracle_values():
    for seed in range(5):
        x, y = mats(seed + 140, (4, 6), (3, 6))
        check_kernel(lambda a: heads.ortho_penalty(a, 2), [x])
        check_kernel(lambda a: heads.ortho_penalty(a, 3), [x])
        check_kernel(lambda a: heads.ortho_penalty(a, 6), [y])
        for n in (2, 3, 6):
            value, _ = heads.ortho_penalty(x, n)
            k = 6 // n
            oracle = ortho_penalty_np([x[:, k * c : k * c + k] for c in range(n)])
            assert value.shape == (1, 1)
            assert value[0, 0] == pytest.approx(oracle, rel=1e-12)


def test_baseline_gradients_at_one_shot_one_class_and_one_query():
    # the centroid distance (a column norm) and the cosine (column
    # normalization) at the edges of the class shape: one shot per class
    # (K = 1), one class (N = 1) and a single query
    for seed in range(5):
        rng = np.random.default_rng(seed + 70)
        s = rng.standard_normal((3, 4)) + 0.3
        q = rng.standard_normal((3, 5)) - 0.2
        col = rng.standard_normal((3, 1)) + 0.5
        for node in (heads.centroid_distances, heads.mean_cosine):
            check_kernel(lambda s, q: node(s, q, 4), [s, q])
            check_kernel(lambda s, q: node(s, q, 1), [s, q])
            check_kernel(lambda s, q: node(s, q, 2), [s, col])


def test_cross_entropy_gradients():
    # one column, then several, with repeated and distinct true rows; then
    # the kernel as the loss of a training tape, so its adjoint is checked
    # through the encoder's back and backward
    zero = np.zeros((4, 1))
    for seed in range(5):
        rng = np.random.default_rng(seed + 80)
        col = rng.standard_normal((5, 1))
        a = rng.standard_normal((4, 3))
        m = rng.standard_normal((3, 3))
        check_kernel(lambda d: heads.cross_entropy(d, np.array([4])), [col])
        labels = np.array([3, 1, 3])
        check_kernel(lambda d: heads.cross_entropy(d, labels), [a])
        params = EncoderParams([Layer(a, zero, "none")])
        loss = step_loss(params, m, lambda h: heads.cross_entropy(h, labels))
        check_kernel(loss, [params.vector.copy()])


def test_cross_entropy_matches_the_composed_oracle_bit_for_bit():
    for seed in range(5):
        rng = np.random.default_rng(seed + 85)
        d = np.abs(rng.standard_normal((5, 7))) * 3.0
        rows = rng.integers(0, 5, size=7)
        loss, back = heads.cross_entropy(d, rows + 1)
        value, adjoint = cross_entropy_np(d, rows)
        assert np.array_equal(loss, value)
        assert np.array_equal(back(np.ones((1, 1))), adjoint)


def test_unregularized_ridge_gradients_with_m_at_least_k():
    # the support enters the ridge kernel twice, through S^T S + lambda1 I
    # and through S^T Q; lambda1 = 0 with M > K.  At M = K every residual
    # is rounding noise, so that case is refused
    for seed in range(5):
        x, y, sq, qq = mats(seed + 90, (5, 6), (5, 4), (3, 6), (3, 2))
        check_kernel(lambda s, q: ridge(s, q, 2, 0.0), [x, y])
        with pytest.raises(ContractError, match="got M=3 = K=3"):
            ridge(sq, qq, 2, 0.0)


def test_unregularized_ridge_value_is_the_least_squares_residual():
    # lambda1 = 0 and M >= K: the plain least-squares residual
    rng = np.random.default_rng(123)
    s = rng.standard_normal((5, 4))
    q = rng.standard_normal((5, 3))
    dist, _ = heads.ridge_residuals(s, q, 1, 0.0)
    assert np.allclose(dist, lstsq_distances(s, q, 0.0), atol=1e-12)


# -- structural contracts ------------------------------------------------------


def test_backward_is_idempotent():
    # a second call gives the same gradient and leaves the first one as it was
    params, vector, x = encoder_case(1, 1, "tanh")
    tape, _ = training_tape(vector, params, x, probe)
    first = backward(tape)
    kept = first.copy()
    assert np.array_equal(backward(tape), kept)
    assert np.array_equal(first, kept)


def test_distance_adjoints_do_not_alias_the_output_grad():
    # episode_loss sums the penalty's support adjoint with the distance's,
    # and may hand the same g to several kernels: a kernel's back
    # must leave g as it was, return arrays that share memory with neither
    # g nor one another, and give the same adjoints when called again
    s, q, w = mats(8, (2, 6), (2, 3), (3, 3))
    kernels = {name: (node(s, q, 3), w) for name, node in DISTANCES.items()}
    kernels["cross_entropy"] = (heads.cross_entropy(w, np.array([1, 3, 2])),
                                np.full((1, 1), 0.7))
    kernels["ortho_penalty"] = (heads.ortho_penalty(s, 3), np.full((1, 1), 0.7))
    for name, ((_, back), g) in kernels.items():
        before = g.copy()
        first = adjoints(back, g)
        assert np.array_equal(g, before), name
        for i, adj in enumerate(first):
            assert not np.shares_memory(adj, g), name
            assert not any(np.shares_memory(adj, other) for other in first[i + 1:]), name
        kept = [adj.copy() for adj in first]
        for adj in first:
            adj += 1.0
        assert all(np.array_equal(a, b) for a, b in zip(adjoints(back, g), kept)), name


def test_logsumexp_is_stable_for_large_inputs():
    # the cross-entropy's log-sum-exp of -d, where exp(-d) overflows
    value, _ = heads.cross_entropy(np.array([[-1000.0], [-999.0]]), np.array([2]))
    expected = -999.0 + 1000.0 + np.log(1.0 + np.exp(-1.0))
    assert value[0, 0] == pytest.approx(expected, abs=1e-12)
    big = np.array([[-800.0, 800.0], [-799.0, 801.0]])
    value, back = heads.cross_entropy(big, np.array([1, 1]))
    assert value[0, 0] == pytest.approx(
        0.5 * (np.log(1.0 + np.exp(-1.0)) + np.log(1.0 + np.exp(-1.0))), abs=1e-12)
    grad = back(np.ones((1, 1)))
    assert np.all(np.isfinite(grad))
    assert grad[1, 0] == pytest.approx(-0.5 / (1.0 + np.exp(1.0)), abs=1e-15)


def test_relu_gradient_at_zero_is_zero():
    # W = 1, b = -1 on inputs 1, -1, 2: pre-activations 0, -2, 1, so only
    # the third column passes gradient, giving dW = 2 and db = 1 (a relu
    # gradient of 1 at 0 would give dW = 3 and db = 2)
    params = EncoderParams([Layer(np.ones((1, 1)), np.array([[-1.0]]), "relu")])
    y, back = encoder.forward(params.vector, params, np.array([[1.0, -1.0, 2.0]]))
    assert np.array_equal(y, np.array([[0.0, 0.0, 1.0]]))
    assert np.array_equal(back(np.ones((1, 3))), np.array([2.0, 1.0]))


def test_constants_get_no_adjoint():
    # the encoder's input batch is a plain array, so its back gives only the
    # parameter vector's adjoint, and the loss's back only the embedding's;
    # each distance kernel gives both of its operands an adjoint
    params, vector, x = encoder_case(7, 1, "tanh", batch=6)
    h, encoder_back = encoder.forward(vector, params, x)
    grad = encoder_back(np.ones(h.shape))
    assert isinstance(grad, np.ndarray) and grad.shape == vector.shape
    _, _, loss_back = CosineHead().episode_loss(h, np.array([1, 2]), Hyper(2, 2, 1, 0.0, 0.0))
    embedding_grad = loss_back(np.ones((1, 1)))
    assert isinstance(embedding_grad, np.ndarray) and embedding_grad.shape == h.shape
    (q,) = mats(7, (2, 5))
    for name, node in DISTANCES.items():
        dist, back = node(h, q, 2)
        assert [a.shape for a in back(np.ones(dist.shape))] == [h.shape, q.shape], name
    grad = encoder_back(embedding_grad)
    assert float(np.max(np.abs(grad))) > 0.0


def test_zero_norm_gradients_are_zero():
    # a query on its class centroid: d = 0 exactly, and that distance
    # passes no gradient back (the weights pick only it)
    s = np.array([[1.0, 3.0, 5.0, 7.0], [2.0, 6.0, 0.0, 1.0], [0.0, 0.0, 1.0, 1.0]])
    q = np.array([[2.0, 1.0], [4.0, 0.0], [0.0, 2.0]])
    dist, back = heads.centroid_distances(s, q, 2)
    assert dist[0, 0] == 0.0
    only = np.zeros((2, 2))
    only[0, 0] = 1.0
    support_grad, query_grad = back(only)
    assert np.array_equal(support_grad, np.zeros((3, 4)))
    assert np.array_equal(query_grad, np.zeros((3, 2)))
    # every distance weighted: the d = 0 entry keeps every gradient finite
    support_grad, query_grad = back(fixed_weights(dist.shape))
    assert np.all(np.isfinite(support_grad)) and np.all(np.isfinite(query_grad))

    # an all-zero support column and an all-zero query column: similarity 0
    # in their entries, and a zero adjoint for each
    s = np.array([[0.0, 1.0, 2.0, -1.0], [0.0, 2.0, 1.0, 3.0]])
    q = np.array([[0.0, 3.0], [0.0, 4.0]])
    dist, back = heads.mean_cosine(s, q, 2)
    assert np.array_equal(dist[:, 0], np.zeros(2))
    support_grad, query_grad = back(fixed_weights(dist.shape))
    assert np.array_equal(support_grad[:, 0], np.zeros(2))
    assert np.array_equal(query_grad[:, 0], np.zeros(2))
    assert np.all(np.isfinite(support_grad)) and np.all(np.isfinite(query_grad))


def test_backward_refuses_an_empty_tape():
    # a tape with no episode has no loss to differentiate, and a step takes
    # one episode, so a second pair is refused too; the message gives the count
    with pytest.raises(ContractError, match="pair on the tape, got 0$"):
        backward(Tape())
    params, vector, x = encoder_case(1, 1, "tanh")
    tape, _ = training_tape(vector, params, x, probe)
    tape.nodes += tape.nodes
    with pytest.raises(ContractError, match="pair on the tape, got 2$"):
        backward(tape)


def test_shape_errors_for_malformed_operands():
    params = init_encoder(0, [(3, 2, "none")])
    # a batch of the wrong height, and parameter vectors of the wrong size
    # or layout
    with pytest.raises(ShapeError):
        encoder.forward(params.vector, params, np.ones((2, 4)))
    with pytest.raises(ShapeError):
        encoder.forward(np.ones(5), params, np.ones((3, 4)))
    with pytest.raises(ShapeError):
        encoder.forward(params.vector[:, None], params, np.ones((3, 4)))
    a = np.ones((2, 3))
    with pytest.raises(ShapeError):
        heads.ortho_penalty(a, 2)
    for node in DISTANCES.values():
        # NK = 3 columns cannot make 2 classes
        with pytest.raises(ShapeError):
            node(a, np.ones((2, 4)), 2)
        # queries with the wrong rows, and a lone query matrix against a stack
        with pytest.raises(ShapeError):
            node(a, np.ones((3, 1)), 1)
        with pytest.raises(ShapeError):
            node(np.ones((2, 2, 3)), a, 1)
