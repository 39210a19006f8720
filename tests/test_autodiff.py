"""Tape and kernel tests: the gradient of the tape's nodes (the encoder and
add) and the adjoint of every loss kernel (the three distances, the
cross-entropy and the subspace overlap) against central finite
differences, the kernels against numpy oracles, plus the structural
contracts (idempotent backward, no adjoint aliasing, no adjoint for the
encoder's input batch, stabilized reductions, shape and tape-mixing
errors).

A tape test reduces a value to a scalar loss with ``probe``, a weighted
sum recorded as a test-only node, so the package keeps no op for tests
alone; a kernel's ``back(w)`` is checked against differences of the same
kind of weighted sum of its value.
"""

import numpy as np
import pytest

from fewshot import autodiff, encoder
from fewshot.autodiff import Tape, backward
from fewshot.encoder import ACTIVATIONS, EncoderParams, Layer, default_layer_spec, init_encoder
from fewshot.errors import ContractError, ShapeError
from fewshot.heads import CosineHead, Hyper

from oracles import cross_entropy_node, cross_entropy_np, lstsq_distances, ortho_penalty_np

H = 1e-6
TOL = 5e-5


def analytic(build, leaves):
    """Gradients of build(tape, vars) with respect to every leaf."""
    tape = Tape()
    vars_ = [tape.leaf(m) for m in leaves]
    loss = build(tape, vars_)
    backward(tape, loss)
    return loss.item(), [v.grad.copy() for v in vars_]


def numeric(build, leaves, h=H):
    """Central finite differences, one coordinate at a time."""

    def value(mats):
        tape = Tape()
        vars_ = [tape.leaf(m) for m in mats]
        return build(tape, vars_).item()

    grads = []
    for i in range(len(leaves)):
        g = np.zeros_like(leaves[i])
        for idx in np.ndindex(g.shape):
            plus = [m.copy() for m in leaves]
            minus = [m.copy() for m in leaves]
            plus[i][idx] += h
            minus[i][idx] -= h
            g[idx] = (value(plus) - value(minus)) / (2.0 * h)
        grads.append(g)
    return grads


def check_op(build, leaves, tol=TOL):
    _, exact = analytic(build, leaves)
    approx = numeric(build, leaves)
    for e, a in zip(exact, approx):
        scale = max(1.0, float(np.max(np.abs(a))))
        assert np.max(np.abs(e - a)) / scale < tol, (e, a)


def mats(seed, *shapes):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(s) for s in shapes]


def probe(v, weights=None):
    """The scalar sum(w * v) as one test-only node with adjoint g w.  By
    default w is random and fixed by v's shape, so every entry of v counts
    differently and a misplaced entry changes the loss."""
    w = fixed_weights(v.shape) if weights is None else weights

    def back(g):
        return [(v.id, float(g[0, 0]) * w)]

    return v.tape.append("probe", np.array([[np.sum(w * v.value)]]), back)


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
    return autodiff.ridge_residuals(s, q, n, lambda1)


def encoder_case(seed, depth, act, batch=5):
    """A 4 -> 3 (x depth) -> 2 encoder with every layer's activation
    ``act`` and random weights and biases, its parameter vector as a
    column (the shape ``Tape.leaf`` gives it), and a 4 x batch input."""
    rng = np.random.default_rng(seed)
    params = init_encoder(seed, default_layer_spec(4, 2, 3, depth, act, act))
    params.vector[:] = rng.standard_normal(params.vector.size)
    return params, params.vector[:, None].copy(), rng.standard_normal((4, batch))


def pre_activations(params, x):
    """Every layer's W h + b on the input x."""
    pres = []
    for layer in params.layers:
        pres.append(layer.weight @ x + layer.bias)
        x = encoder.dense_np(layer.weight, layer.bias, x, layer.activation)
    return pres


# The three heads' distance kernels, each (support, query, n) -> (d, back).
DISTANCES = {
    "ridge": lambda s, q, n: autodiff.ridge_residuals(s, q, n, 0.5),
    "centroid": autodiff.centroid_distances,
    "cosine": autodiff.mean_cosine,
}


# -- gradient fidelity: the tape's nodes and the loss kernels ------------------


def test_add_and_sub_gradients():
    # add, with distinct operands and with one operand twice; a - b is the
    # sum of a weighted and a negatively weighted term, as a batch sums losses
    for seed in range(5):
        a, b = mats(seed, (3, 2), (3, 2))
        w = fixed_weights(a.shape)
        check_op(lambda t, v: probe(autodiff.add(v[0], v[1])), [a, b])
        check_op(lambda t, v: probe(autodiff.add(v[0], v[0])), [a])
        check_op(lambda t, v: autodiff.add(probe(v[0], w), probe(v[1], -w)), [a, b])


def test_scale_neg_add_diag_gradients():
    # the ridge term on the Gram diagonal, with K = 3 > M = 2 so that only
    # lambda1 I makes each class's system definite (the scale op is gone:
    # the loss node weighs its penalty by hand)
    for seed in range(5):
        x, q = mats(seed + 25, (2, 6), (2, 3))
        check_kernel(lambda s, q: ridge(s, q, 2, 0.5), [x, q])


def test_dense_gradients():
    # the encoder node, every layer act(W x + b), against differences in
    # its parameter column, for every activation at depth 0 and depth 2;
    # relu pre-activations are kept away from the kink so the stencil
    # never straddles it
    for seed in range(5):
        for depth in (0, 2):
            for act in ACTIVATIONS:
                params, theta, x = encoder_case(seed + 30, depth, act)
                assert min(np.min(np.abs(p)) for p in pre_activations(params, x)) > 1e-3
                check_op(lambda t, v: probe(encoder.forward(v[0], params, x)), [theta])


def test_a_batch_of_episodes_sums_into_one_gradient():
    # two episodes embedded on one tape, as a train step with two tasks
    # records them: the leaf's gradient is the sum of each episode's
    params, theta, x = encoder_case(40, 2, "tanh")
    y = np.random.default_rng(41).standard_normal((4, 3))

    def episode(batch):
        return lambda t, v: probe(encoder.forward(v[0], params, batch))

    def both(t, v):
        return autodiff.add(episode(x)(t, v), episode(y)(t, v))

    check_op(both, [theta])
    _, (summed,) = analytic(both, [theta])
    _, (first,) = analytic(episode(x), [theta])
    _, (second,) = analytic(episode(y), [theta])
    assert summed.shape == theta.shape
    assert np.array_equal(summed, first + second)


def test_dense_value_is_the_shared_layer_function():
    # the node's value is dense_np applied layer by layer, as embed_np does
    for act in ACTIVATIONS:
        params, theta, x = encoder_case(36, 2, act)
        tape = Tape()
        out = encoder.forward(tape.leaf(theta), params, x)
        h = x
        for layer in params.layers:
            h = encoder.dense_np(layer.weight, layer.bias, h, act)
        assert np.array_equal(out.value, h)
    w, b, x = mats(36, (3, 4), (3, 1), (4, 5))
    pre = w @ x + b
    assert np.array_equal(encoder.dense_np(w, b, x, "relu"), np.maximum(pre, 0.0))
    assert np.array_equal(encoder.dense_np(w, b, x, "tanh"), np.tanh(pre))
    assert np.array_equal(encoder.dense_np(w, b, x, "none"), pre)
    with pytest.raises(ContractError):
        encoder.dense_np(w, b, x, "sigmoid")


def test_col_slice_and_blocks_gradients():
    # an embedded episode's support (two 2 x 3 class blocks) and its queries
    # cut from one matrix as contiguous column slices, as the loss node cuts
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


def test_stacked_and_broadcasting_ops_gradients():
    # the baseline kernels broadcast the queries against the class axis: an
    # M x NK support with M x B queries, an (E, M, NK) stack with (E, M, B),
    # and three classes of two shots
    for seed in range(5):
        x, y, e, q = mats(seed + 110, (3, 6), (3, 4), (2, 3, 4), (2, 3, 2))
        for node in (autodiff.centroid_distances, autodiff.mean_cosine):
            check_kernel(lambda s, q: node(s, q, 2), [x, y])
            check_kernel(lambda s, q: node(s, q, 2), [e, q])
            check_kernel(lambda s, q: node(s, q, 3), [x, y])


def test_stacked_solve_spd_gradients():
    # the ridge kernel solves one SPD system per class block: M x NK supports
    # with M x B queries, and (E, M, NK) with (E, M, B) episode stacks
    for seed in range(5):
        x, y, e, q = mats(seed + 120, (4, 6), (4, 5), (2, 4, 6), (2, 4, 3))
        check_kernel(ridge, [x, y])
        check_kernel(ridge, [e, q])


def test_stacked_solve_spd_values_match_numpy_per_class():
    # one distance per (episode, class, query) against numpy's own solver
    rng = np.random.default_rng(125)
    x = rng.standard_normal((2, 5, 9))
    q = rng.standard_normal((2, 5, 4))
    dist, _ = autodiff.ridge_residuals(x, q, 3, 0.2)
    assert dist.shape == (2, 3, 4)
    for e in range(2):
        lone, _ = autodiff.ridge_residuals(x[e], q[e], 3, 0.2)
        assert np.allclose(lone, dist[e], rtol=1e-14, atol=1e-14)
        for c in range(3):
            expected = lstsq_distances(x[e][:, 3 * c : 3 * c + 3], q[e], 0.2)
            assert np.allclose(dist[e, c], expected[0], atol=1e-12)


def test_ridge_residual_inside_a_class_span_has_zero_gradient():
    # S = (e1, e2), lambda1 = 0: the query (2, -3, 0) lies in the span, so
    # its residual and distance are exactly 0, and 0 is its gradient
    s = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    dist, back = autodiff.ridge_residuals(s, np.array([[2.0], [-3.0], [0.0]]), 1, 0.0)
    assert dist[0, 0] == 0.0
    support_grad, query_grad = back(np.ones((1, 1)))
    assert np.array_equal(support_grad, np.zeros_like(s))
    assert np.array_equal(query_grad, np.zeros((3, 1)))


def test_subspace_overlap_gradients_and_oracle_values():
    for seed in range(5):
        x, y = mats(seed + 140, (4, 6), (3, 6))
        check_kernel(lambda a: autodiff.subspace_overlap(a, 2), [x])
        check_kernel(lambda a: autodiff.subspace_overlap(a, 3), [x])
        check_kernel(lambda a: autodiff.subspace_overlap(a, 6), [y])
        for n in (2, 3, 6):
            value, _ = autodiff.subspace_overlap(x, n)
            k = 6 // n
            oracle = ortho_penalty_np([x[:, k * c : k * c + k] for c in range(n)])
            assert value.shape == (1, 1)
            assert value[0, 0] == pytest.approx(oracle, rel=1e-12)


def test_norm_and_normalize_gradients():
    # the centroid distance (a column norm) and the cosine (column
    # normalization) at the edges of the class shape: one shot per class
    # (K = 1), one class (N = 1) and a single query
    for seed in range(5):
        rng = np.random.default_rng(seed + 70)
        s = rng.standard_normal((3, 4)) + 0.3
        q = rng.standard_normal((3, 5)) - 0.2
        col = rng.standard_normal((3, 1)) + 0.5
        for node in (autodiff.centroid_distances, autodiff.mean_cosine):
            check_kernel(lambda s, q: node(s, q, 4), [s, q])
            check_kernel(lambda s, q: node(s, q, 1), [s, q])
            check_kernel(lambda s, q: node(s, q, 2), [s, col])


def test_cross_entropy_gradients():
    # one column, then several, with repeated and distinct true rows; then
    # the kernel on the encoder's output as a test-only node beside a probe,
    # so its adjoint is checked on the tape when it is not the first node
    # backward visits
    zero = np.zeros((4, 1))
    for seed in range(5):
        rng = np.random.default_rng(seed + 80)
        col = rng.standard_normal((5, 1))
        a = rng.standard_normal((4, 3))
        m = rng.standard_normal((3, 3))
        check_kernel(lambda d: autodiff.cross_entropy(d, np.array([3])), [col])
        rows = np.array([2, 0, 2])
        check_kernel(lambda d: autodiff.cross_entropy(d, rows), [a])
        params = EncoderParams([Layer(a, zero, "none")])
        theta = params.vector[:, None].copy()
        check_op(lambda t, v: autodiff.add(
            cross_entropy_node(encoder.forward(v[0], params, m), rows),
            probe(v[0])), [theta])


def test_cross_entropy_matches_the_composed_oracle_bit_for_bit():
    for seed in range(5):
        rng = np.random.default_rng(seed + 85)
        d = np.abs(rng.standard_normal((5, 7))) * 3.0
        rows = rng.integers(0, 5, size=7)
        loss, back = autodiff.cross_entropy(d, rows)
        value, adjoint = cross_entropy_np(d, rows)
        assert np.array_equal(loss, value)
        assert np.array_equal(back(np.ones((1, 1))), adjoint)


def test_solve_spd_gradients_through_gram_construction():
    # the support enters the ridge kernel twice, through S^T S + lambda1 I
    # and through S^T Q; lambda1 = 0 with M >= K, and M = K
    for seed in range(5):
        x, y, sq, qq = mats(seed + 90, (5, 6), (5, 4), (3, 6), (3, 2))
        check_kernel(lambda s, q: ridge(s, q, 2, 0.0), [x, y])
        check_kernel(lambda s, q: ridge(s, q, 2, 0.0), [sq, qq])


def test_solve_spd_value_matches_numpy():
    # lambda1 = 0 and M >= K: the plain least-squares residual
    rng = np.random.default_rng(123)
    s = rng.standard_normal((5, 4))
    q = rng.standard_normal((5, 3))
    dist, _ = autodiff.ridge_residuals(s, q, 1, 0.0)
    assert np.allclose(dist, lstsq_distances(s, q, 0.0), atol=1e-12)


# -- structural contracts ------------------------------------------------------


def test_backward_is_idempotent():
    params, column, x = encoder_case(1, 1, "tanh")
    tape = Tape()
    theta = tape.leaf(column)
    loss = probe(encoder.forward(theta, params, x))
    backward(tape, loss)
    first = theta.grad.copy()
    backward(tape, loss)
    assert np.array_equal(first, theta.grad)


def test_nodes_the_loss_ignores_get_zero_grad():
    tape = Tape()
    x = tape.leaf(np.ones((2, 2)))
    unused = autodiff.add(x, x)
    loss = probe(x, np.ones((2, 2)))
    backward(tape, loss)
    assert np.array_equal(unused.grad, np.zeros((2, 2)))
    assert np.array_equal(x.grad, np.ones((2, 2)))


def test_reused_variable_accumulates_without_corrupting_upstream():
    # add returns the same adjoint array for both inputs; x stores it as
    # is, so accumulating into x in place would also rewrite y.grad.
    tape = Tape()
    x = tape.leaf(np.ones((2, 2)))
    y = autodiff.add(x, x)
    loss = probe(y, np.ones((2, 2)))
    backward(tape, loss)
    assert np.array_equal(x.grad, 2.0 * np.ones((2, 2)))
    assert np.array_equal(y.grad, np.ones((2, 2)))


def test_distance_adjoints_do_not_alias_the_output_grad():
    # the loss node sums the penalty's support adjoint with the distance's,
    # and backward may hand the same g to several nodes: a kernel's back
    # must leave g as it was, return arrays that share memory with neither
    # g nor one another, and give the same adjoints when called again
    s, q, w = mats(8, (2, 6), (2, 3), (3, 3))
    kernels = {name: (node(s, q, 3), w) for name, node in DISTANCES.items()}
    kernels["cross_entropy"] = (autodiff.cross_entropy(w, np.array([0, 2, 1])),
                                np.full((1, 1), 0.7))
    kernels["subspace_overlap"] = (autodiff.subspace_overlap(s, 3), np.full((1, 1), 0.7))
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
    value, _ = autodiff.cross_entropy(np.array([[-1000.0], [-999.0]]), np.array([1]))
    expected = -999.0 + 1000.0 + np.log(1.0 + np.exp(-1.0))
    assert value[0, 0] == pytest.approx(expected, abs=1e-12)
    big = np.array([[-800.0, 800.0], [-799.0, 801.0]])
    value, back = autodiff.cross_entropy(big, np.array([0, 0]))
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
    tape = Tape()
    theta = tape.leaf(params.vector)
    y = encoder.forward(theta, params, np.array([[1.0, -1.0, 2.0]]))
    assert np.array_equal(y.value, np.array([[0.0, 0.0, 1.0]]))
    backward(tape, probe(y, np.ones((1, 3))))
    assert np.array_equal(theta.grad, np.array([[2.0], [1.0]]))


def test_constants_get_no_adjoint():
    # the encoder node's input batch is a plain array, so its adjoint names
    # only the parameter leaf, and the loss node's names only the embedding;
    # each distance kernel gives both of its operands an adjoint
    params, column, x = encoder_case(7, 1, "tanh", batch=6)
    tape = Tape()
    theta = tape.leaf(column)
    h = encoder.forward(theta, params, x)
    assert [i for i, _ in h._backward(np.ones(h.shape))] == [theta.id]
    loss, _ = CosineHead().episode_loss(h, np.array([1, 2]), Hyper(2, 2, 1, 0.0, 0.0))
    assert [i for i, _ in loss._backward(np.ones((1, 1)))] == [h.id]
    (q,) = mats(7, (2, 5))
    for name, node in DISTANCES.items():
        dist, back = node(h.value, q, 2)
        assert [a.shape for a in back(np.ones(dist.shape))] == [h.shape, q.shape], name
    backward(tape, loss)
    assert theta.grad.shape == column.shape
    assert float(np.max(np.abs(theta.grad))) > 0.0


def test_zero_norm_gradients_are_zero():
    # a query on its class centroid: d = 0 exactly, and that distance
    # passes no gradient back (the weights pick only it)
    s = np.array([[1.0, 3.0, 5.0, 7.0], [2.0, 6.0, 0.0, 1.0], [0.0, 0.0, 1.0, 1.0]])
    q = np.array([[2.0, 1.0], [4.0, 0.0], [0.0, 2.0]])
    dist, back = autodiff.centroid_distances(s, q, 2)
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
    dist, back = autodiff.mean_cosine(s, q, 2)
    assert np.array_equal(dist[:, 0], np.zeros(2))
    support_grad, query_grad = back(fixed_weights(dist.shape))
    assert np.array_equal(support_grad[:, 0], np.zeros(2))
    assert np.array_equal(query_grad[:, 0], np.zeros(2))
    assert np.all(np.isfinite(support_grad)) and np.all(np.isfinite(query_grad))


def test_ops_reject_mixed_tapes():
    t1, t2 = Tape(), Tape()
    a = t1.leaf(np.ones((2, 2)))
    b = t2.leaf(np.ones((2, 2)))
    with pytest.raises(ContractError):
        autodiff.add(a, b)


def test_a_variable_outliving_its_tape_is_refused():
    # nodes hold their tape weakly; once the tape is freed, recording on
    # one of its variables fails with a named contract error
    x = Tape().leaf(np.ones((2, 2)))
    assert x.value.shape == (2, 2)
    with pytest.raises(ContractError, match="tape"):
        autodiff.add(x, x)


def test_backward_demands_a_scalar_loss_from_its_own_tape():
    tape = Tape()
    x = tape.leaf(np.ones((2, 2)))
    with pytest.raises(ContractError):
        backward(tape, x)
    other = Tape()
    y = other.leaf(np.ones((1, 1)))
    with pytest.raises(ContractError):
        backward(tape, y)


def test_shape_errors_for_malformed_operands():
    tape = Tape()
    with pytest.raises(ShapeError):
        autodiff.add(tape.leaf(np.ones((2, 3))), tape.leaf(np.ones((3, 2))))
    params = init_encoder(0, [(3, 2, "none")])
    theta = tape.leaf(params.vector)
    # a batch of the wrong height, and a parameter column of the wrong size
    with pytest.raises(ShapeError):
        encoder.forward(theta, params, np.ones((2, 4)))
    with pytest.raises(ShapeError):
        encoder.forward(tape.leaf(np.ones(5)), params, np.ones((3, 4)))
    with pytest.raises(ShapeError):
        tape.leaf(np.ones((2, 3))).item()
    a = np.ones((2, 3))
    with pytest.raises(ShapeError):
        autodiff.subspace_overlap(a, 2)
    for node in DISTANCES.values():
        # NK = 3 columns cannot make 2 classes
        with pytest.raises(ShapeError):
            node(a, np.ones((2, 4)), 2)
        # queries with the wrong rows, and a lone query matrix against a stack
        with pytest.raises(ShapeError):
            node(a, np.ones((3, 1)), 1)
        with pytest.raises(ShapeError):
            node(np.ones((2, 2, 3)), a, 1)
