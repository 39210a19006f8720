"""Tape op tests: every op's gradient against central finite differences,
the fused distance and penalty nodes against numpy oracles, plus the
structural contracts (idempotent backward, no adjoint aliasing, constants
without adjoints, stabilized reductions, shape and tape-mixing errors).

A test reduces a value to a scalar loss with ``probe``, a weighted sum
recorded as a test-only node, so the package keeps no op for tests alone.
"""

import numpy as np
import pytest

from fewshot import autodiff
from fewshot.autodiff import Tape, backward
from fewshot.errors import ContractError, ShapeError

from oracles import cross_entropy_np, lstsq_distances, ortho_penalty_np

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
    w = (np.random.default_rng(v.value.size).standard_normal(v.shape)
         if weights is None else weights)

    def back(g):
        return [(v.id, float(g[0, 0]) * w)]

    return v.tape._append("probe", np.array([[np.sum(w * v.value)]]), back)


def ridge(t, v, n=2, lambda1=0.5):
    """The probed ridge residuals of leaves v[0] (support) and v[1] (queries)."""
    return probe(autodiff.ridge_residuals(v[0], v[1], n, lambda1))


# The three heads' distance nodes, each (support, query, n) -> distances.
DISTANCES = {
    "ridge": lambda s, q, n: autodiff.ridge_residuals(s, q, n, 0.5),
    "centroid": autodiff.centroid_distances,
    "cosine": autodiff.mean_cosine,
}


# -- per-op gradient fidelity -------------------------------------------------


def test_add_and_sub_gradients():
    # a - b is add(a, scale(b, -1)), as a loss adds its weighted penalty
    for seed in range(5):
        a, b = mats(seed, (3, 2), (3, 2))
        check_op(lambda t, v: probe(autodiff.add(v[0], v[1])), [a, b])
        check_op(lambda t, v: probe(autodiff.add(v[0], autodiff.scale(v[1], -1.0))), [a, b])
        check_op(lambda t, v: probe(autodiff.add(
            autodiff.dense(t.const(np.eye(3)), t.const(np.zeros((3, 1))), v[0], "tanh"),
            v[1])), [a, b])


def test_scale_neg_add_diag_gradients():
    for seed in range(5):
        (a,) = mats(seed + 20, (3, 3))
        check_op(lambda t, v: probe(autodiff.scale(v[0], -1.7)), [a])
        check_op(lambda t, v: probe(autodiff.scale(v[0], -1.0)), [a])
        # the ridge term on the Gram diagonal, with K = 3 > M = 2 so that
        # only lambda1 I makes each class's system definite
        x, q = mats(seed + 25, (2, 6), (2, 3))
        check_op(lambda t, v: ridge(t, v, 2, 0.5), [x, q])


def test_dense_gradients():
    # W, b and x all leaves, for every activation; relu pre-activations are
    # kept away from the kink so the stencil never straddles it
    for seed in range(5):
        w, b, x = mats(seed + 30, (3, 4), (3, 1), (4, 5))
        assert np.min(np.abs(w @ x + b)) > 1e-3
        for act in ("relu", "tanh", "none"):
            check_op(lambda t, v: probe(
                autodiff.dense(v[0], v[1], v[2], act)), [w, b, x])
        # two layers chained, as the encoder records them
        w2, b2 = mats(seed + 35, (2, 3), (2, 1))
        check_op(lambda t, v: probe(autodiff.dense(
            v[3], v[4], autodiff.dense(v[0], v[1], v[2], "tanh"), "none")), [w, b, x, w2, b2])


def test_add_col_gradients():
    # the bias column added to every column: dense with W = I and no activation
    eye = np.eye(3)
    for seed in range(5):
        a, c = mats(seed + 30, (3, 4), (3, 1))
        check_op(lambda t, v: probe(
            autodiff.dense(t.const(eye), v[1], v[0], "none")), [a, c])


def test_dense_value_is_the_shared_layer_function():
    w, b, x = mats(36, (3, 4), (3, 1), (4, 5))
    for act in ("relu", "tanh", "none"):
        tape = Tape()
        out = autodiff.dense(tape.leaf(w), tape.leaf(b), tape.const(x), act)
        assert np.array_equal(out.value, autodiff.dense_np(w, b, x, act))
    pre = w @ x + b
    assert np.array_equal(autodiff.dense_np(w, b, x, "relu"), np.maximum(pre, 0.0))
    assert np.array_equal(autodiff.dense_np(w, b, x, "tanh"), np.tanh(pre))
    assert np.array_equal(autodiff.dense_np(w, b, x, "none"), pre)


def test_col_slice_and_blocks_gradients():
    # an embedded episode's support (two 2 x 3 class blocks) and its queries
    # sliced from one matrix, as a training step does, through each distance
    for seed in range(5):
        a, episode = mats(seed + 50, (2, 4), (2, 9))
        check_op(lambda t, v: probe(autodiff.col_slice(v[0], 1, 3)), [a])
        for node in DISTANCES.values():
            check_op(lambda t, v: probe(node(
                autodiff.col_slice(v[0], 0, 6), autodiff.col_slice(v[0], 6, 9), 2)),
                [episode])


def test_blocks_lay_class_columns_along_the_stack_axis():
    # class c is columns cK..cK+K-1 of each episode's support: every node's
    # row c equals the node on that block alone, for a lone episode and a stack
    rng = np.random.default_rng(55)
    x = rng.standard_normal((2, 3, 6))
    q = rng.standard_normal((2, 3, 4))
    tape = Tape()
    for name, node in DISTANCES.items():
        stacked = node(tape.leaf(x), tape.leaf(q), 3).value
        assert stacked.shape == (2, 3, 4), name
        for e in range(2):
            lone = node(tape.leaf(x[e]), tape.leaf(q[e]), 3).value
            assert np.allclose(lone, stacked[e], rtol=1e-14, atol=1e-14), name
            for c in range(3):
                block = node(tape.leaf(x[e][:, 2 * c : 2 * c + 2]), tape.leaf(q[e]), 1)
                assert np.allclose(block.value[0], stacked[e, c],
                                   rtol=1e-14, atol=1e-14), name


def test_stacked_and_broadcasting_ops_gradients():
    # the baseline nodes broadcast the queries against the class axis: an
    # M x NK support with M x B queries, an (E, M, NK) stack with (E, M, B),
    # and a constant query, where only the support gets an adjoint
    for seed in range(5):
        x, y, e, q = mats(seed + 110, (3, 6), (3, 4), (2, 3, 4), (2, 3, 2))
        for node in (autodiff.centroid_distances, autodiff.mean_cosine):
            check_op(lambda t, v: probe(node(v[0], v[1], 2)), [x, y])
            check_op(lambda t, v: probe(node(v[0], v[1], 2)), [e, q])
            check_op(lambda t, v: probe(node(v[0], t.const(y), 3)), [x])


def test_stacked_solve_spd_gradients():
    # the ridge node solves one SPD system per class block: M x NK supports
    # with M x B queries, and (E, M, NK) with (E, M, B) episode stacks
    for seed in range(5):
        x, y, e, q = mats(seed + 120, (4, 6), (4, 5), (2, 4, 6), (2, 4, 3))
        check_op(ridge, [x, y])
        check_op(ridge, [e, q])
        # a constant query: only the support gets an adjoint
        check_op(lambda t, v: ridge(t, [v[0], t.const(y)]), [x])


def test_stacked_solve_spd_values_match_numpy_per_class():
    # one distance per (episode, class, query) against numpy's own solver
    rng = np.random.default_rng(125)
    x = rng.standard_normal((2, 5, 9))
    q = rng.standard_normal((2, 5, 4))
    tape = Tape()
    dist = autodiff.ridge_residuals(tape.leaf(x), tape.leaf(q), 3, 0.2)
    assert dist.shape == (2, 3, 4)
    for e in range(2):
        lone = autodiff.ridge_residuals(tape.leaf(x[e]), tape.leaf(q[e]), 3, 0.2)
        assert np.allclose(lone.value, dist.value[e], rtol=1e-14, atol=1e-14)
        for c in range(3):
            expected = lstsq_distances(x[e][:, 3 * c : 3 * c + 3], q[e], 0.2)
            assert np.allclose(dist.value[e, c], expected[0], atol=1e-12)


def test_ridge_residual_inside_a_class_span_has_zero_gradient():
    # S = (e1, e2), lambda1 = 0: the query (2, -3, 0) lies in the span, so
    # its residual and distance are exactly 0, and 0 is its gradient
    s = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    tape = Tape()
    support, query = tape.leaf(s), tape.leaf(np.array([[2.0], [-3.0], [0.0]]))
    dist = autodiff.ridge_residuals(support, query, 1, 0.0)
    assert dist.value[0, 0] == 0.0
    backward(tape, dist)
    assert np.array_equal(support.grad, np.zeros_like(s))
    assert np.array_equal(query.grad, np.zeros((3, 1)))


def test_subspace_overlap_gradients_and_oracle_values():
    for seed in range(5):
        x, y = mats(seed + 140, (4, 6), (3, 6))
        check_op(lambda t, v: autodiff.subspace_overlap(v[0], 2), [x])
        check_op(lambda t, v: autodiff.subspace_overlap(v[0], 3), [x])
        check_op(lambda t, v: autodiff.subspace_overlap(v[0], 6), [y])
        tape = Tape()
        for n in (2, 3, 6):
            value = autodiff.subspace_overlap(tape.leaf(x), n).item()
            k = 6 // n
            oracle = ortho_penalty_np([x[:, k * c : k * c + k] for c in range(n)])
            assert value == pytest.approx(oracle, rel=1e-12)


def test_col_slice_leaves_other_columns_with_zero_grad():
    a, w = mats(99, (2, 4), (2, 2))
    _, (g,) = analytic(
        lambda t, v: probe(autodiff.col_slice(v[0], 1, 3), w), [a])
    assert np.array_equal(g[:, 0], np.zeros(2))
    assert np.array_equal(g[:, 3], np.zeros(2))
    assert np.array_equal(g[:, 1:3], w)


def test_sum_all_and_nonlinearity_gradients():
    # the all-entry sum (probe weights of one) and the tanh and relu of
    # dense with W = I, b = 0
    eye, zero = np.eye(3), np.zeros((3, 1))
    for seed in range(5):
        (a,) = mats(seed + 60, (3, 3))
        check_op(lambda t, v: probe(
            autodiff.dense(t.const(eye), t.const(zero), v[0], "tanh"), np.ones((3, 3))), [a])
        check_op(lambda t, v: probe(
            autodiff.dense(t.const(eye), t.const(zero), v[0], "tanh")), [a])
        # keep relu inputs away from the kink
        r = a + np.sign(a) * 0.2
        check_op(lambda t, v: probe(
            autodiff.dense(t.const(eye), t.const(zero), v[0], "relu")), [r])


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
            check_op(lambda t, v: probe(node(v[0], v[1], 4)), [s, q])
            check_op(lambda t, v: probe(node(v[0], v[1], 1)), [s, q])
            check_op(lambda t, v: probe(node(v[0], v[1], 2)), [s, col])


def test_cross_entropy_gradients():
    # one column, then several, with repeated and distinct true rows; the
    # second loss reaches the distances through a dense layer, so the
    # adjoint is checked when it is not the first node backward visits
    zero = np.zeros((4, 1))
    for seed in range(5):
        rng = np.random.default_rng(seed + 80)
        col = rng.standard_normal((5, 1))
        a = rng.standard_normal((4, 3))
        m = rng.standard_normal((3, 3))
        check_op(lambda t, v: autodiff.cross_entropy(v[0], np.array([3])), [col])
        rows = np.array([2, 0, 2])
        check_op(lambda t, v: autodiff.cross_entropy(v[0], rows), [a])
        check_op(lambda t, v: autodiff.add(
            autodiff.cross_entropy(autodiff.dense(v[0], t.const(zero), v[1], "none"), rows),
            probe(v[1])), [a, m])


def test_cross_entropy_matches_the_composed_oracle_bit_for_bit():
    for seed in range(5):
        rng = np.random.default_rng(seed + 85)
        d = np.abs(rng.standard_normal((5, 7))) * 3.0
        rows = rng.integers(0, 5, size=7)
        tape = Tape()
        dist = tape.leaf(d)
        loss = autodiff.cross_entropy(dist, rows)
        backward(tape, loss)
        value, adjoint = cross_entropy_np(d, rows)
        assert np.array_equal(loss.value, value)
        assert np.array_equal(dist.grad, adjoint)


def test_solve_spd_gradients_through_gram_construction():
    # the support enters the ridge node twice, through S^T S + lambda1 I and
    # through S^T Q; lambda1 = 0 with M >= K, and M = K
    for seed in range(5):
        x, y, sq, qq = mats(seed + 90, (5, 6), (5, 4), (3, 6), (3, 2))
        check_op(lambda t, v: ridge(t, v, 2, 0.0), [x, y])
        check_op(lambda t, v: ridge(t, v, 2, 0.0), [sq, qq])


def test_solve_spd_value_matches_numpy():
    # lambda1 = 0 and M >= K: the plain least-squares residual
    rng = np.random.default_rng(123)
    s = rng.standard_normal((5, 4))
    q = rng.standard_normal((5, 3))
    tape = Tape()
    dist = autodiff.ridge_residuals(tape.leaf(s), tape.leaf(q), 1, 0.0)
    assert np.allclose(dist.value, lstsq_distances(s, q, 0.0), atol=1e-12)


# -- structural contracts ------------------------------------------------------


def test_backward_is_idempotent():
    (a,) = mats(1, (3, 2))
    tape = Tape()
    x = tape.leaf(a)
    w = tape.leaf(np.array([[0.5, -1.0, 2.0], [1.5, 0.3, -0.7]]))
    b = tape.leaf(np.zeros((2, 1)))
    loss = probe(autodiff.dense(w, b, x, "tanh"))
    backward(tape, loss)
    first = x.grad.copy()
    backward(tape, loss)
    assert np.array_equal(first, x.grad)


def test_nodes_the_loss_ignores_get_zero_grad():
    tape = Tape()
    x = tape.leaf(np.ones((2, 2)))
    unused = autodiff.scale(x, 2.0)
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
    # the support feeds a distance node and a second consumer; the adjoint
    # of that consumer reaches it first, so summing the node's support
    # adjoint into it must rewrite neither the node's grad nor that adjoint
    s, q, w, ws = mats(8, (2, 6), (2, 3), (3, 3), (2, 6))
    for name, node in DISTANCES.items():
        _, (alone, _) = analytic(lambda t, v: probe(node(v[0], v[1], 3), w), [s, q])
        tape = Tape()
        support, query = tape.leaf(s), tape.leaf(q)
        dist = node(support, query, 3)
        loss = autodiff.add(probe(dist, w), probe(support, ws))
        backward(tape, loss)
        assert np.array_equal(dist.grad, w), name
        assert np.allclose(support.grad, alone + ws, rtol=1e-14, atol=1e-14), name


def test_logsumexp_is_stable_for_large_inputs():
    # the cross-entropy's log-sum-exp of -d, where exp(-d) overflows
    tape = Tape()
    col = tape.leaf(np.array([[-1000.0], [-999.0]]))
    out = autodiff.cross_entropy(col, np.array([1]))
    expected = -999.0 + 1000.0 + np.log(1.0 + np.exp(-1.0))
    assert out.item() == pytest.approx(expected, abs=1e-12)
    big = tape.leaf(np.array([[-800.0, 800.0], [-799.0, 801.0]]))
    loss = autodiff.cross_entropy(big, np.array([0, 0]))
    assert loss.item() == pytest.approx(
        0.5 * (np.log(1.0 + np.exp(-1.0)) + np.log(1.0 + np.exp(-1.0))), abs=1e-12)
    backward(tape, loss)
    assert np.all(np.isfinite(big.grad))
    assert big.grad[1, 0] == pytest.approx(-0.5 / (1.0 + np.exp(1.0)), abs=1e-15)


def test_relu_gradient_at_zero_is_zero():
    tape = Tape()
    x = tape.leaf(np.array([[0.0, -1.0, 2.0]]))
    y = autodiff.dense(tape.leaf(np.ones((1, 1))), tape.leaf(np.zeros((1, 1))), x, "relu")
    backward(tape, probe(y, np.ones((1, 3))))
    assert np.array_equal(x.grad, np.array([[0.0, 0.0, 1.0]]))


def test_constants_get_no_adjoint():
    # the ops compute nothing for a constant operand, and backward gives it no grad
    w, b, x, q = mats(7, (3, 4), (3, 1), (4, 6), (3, 5))
    g = np.ones((3, 6))
    tape = Tape()
    wv, bv, xc, qc = tape.leaf(w), tape.leaf(b), tape.const(x), tape.const(q)
    h = autodiff.dense(wv, bv, xc, "tanh")
    assert [i for i, _ in h._backward(g)] == [wv.id, bv.id]
    for name, node in DISTANCES.items():
        dist = node(h, qc, 2)
        assert [i for i, _ in dist._backward(np.ones(dist.shape))] == [h.id], name
        ql = tape.leaf(q)
        dist = node(tape.const(h.value), ql, 2)
        assert [i for i, _ in dist._backward(np.ones(dist.shape))] == [ql.id], name
    loss = probe(autodiff.mean_cosine(h, qc, 2))
    backward(tape, loss)
    assert xc.grad is None
    assert qc.grad is None
    assert float(np.max(np.abs(wv.grad))) > 0.0
    # the same loss with x and the queries as leaves gives W and b the same grads
    tape = Tape()
    wl, bl, xl, ql = tape.leaf(w), tape.leaf(b), tape.leaf(x), tape.leaf(q)
    backward(tape, probe(autodiff.mean_cosine(autodiff.dense(wl, bl, xl, "tanh"), ql, 2)))
    assert np.array_equal(wl.grad, wv.grad)
    assert np.array_equal(bl.grad, bv.grad)
    assert float(np.max(np.abs(xl.grad))) > 0.0


def test_zero_norm_gradients_are_zero():
    # a query on its class centroid: d = 0 exactly, and that distance
    # passes no gradient back (the probe weighs only it)
    tape = Tape()
    s = tape.leaf(np.array([[1.0, 3.0, 5.0, 7.0], [2.0, 6.0, 0.0, 1.0], [0.0, 0.0, 1.0, 1.0]]))
    q = tape.leaf(np.array([[2.0, 1.0], [4.0, 0.0], [0.0, 2.0]]))
    dist = autodiff.centroid_distances(s, q, 2)
    assert dist.value[0, 0] == 0.0
    only = np.zeros((2, 2))
    only[0, 0] = 1.0
    backward(tape, probe(dist, only))
    assert np.array_equal(s.grad, np.zeros((3, 4)))
    assert np.array_equal(q.grad, np.zeros((3, 2)))
    # every distance weighted: the d = 0 entry keeps every gradient finite
    backward(tape, probe(dist))
    assert np.all(np.isfinite(s.grad)) and np.all(np.isfinite(q.grad))

    # an all-zero support column and an all-zero query column: similarity 0
    # in their entries, and a zero adjoint for each
    tape = Tape()
    s = tape.leaf(np.array([[0.0, 1.0, 2.0, -1.0], [0.0, 2.0, 1.0, 3.0]]))
    q = tape.leaf(np.array([[0.0, 3.0], [0.0, 4.0]]))
    dist = autodiff.mean_cosine(s, q, 2)
    assert np.array_equal(dist.value[:, 0], np.zeros(2))
    backward(tape, probe(dist))
    assert np.array_equal(s.grad[:, 0], np.zeros(2))
    assert np.array_equal(q.grad[:, 0], np.zeros(2))
    assert np.all(np.isfinite(s.grad)) and np.all(np.isfinite(q.grad))


def test_ops_reject_mixed_tapes():
    t1, t2 = Tape(), Tape()
    a = t1.leaf(np.ones((2, 2)))
    b = t2.leaf(np.ones((2, 2)))
    with pytest.raises(ContractError):
        autodiff.add(a, b)
    for node in DISTANCES.values():
        with pytest.raises(ContractError):
            node(a, b, 2)


def test_a_variable_outliving_its_tape_is_refused():
    # nodes hold their tape weakly; once the tape is freed, recording on
    # one of its variables fails with a named contract error
    x = Tape().leaf(np.ones((2, 2)))
    assert x.value.shape == (2, 2)
    with pytest.raises(ContractError, match="tape"):
        autodiff.scale(x, -1.0)


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
    a = tape.leaf(np.ones((2, 3)))
    b = tape.leaf(np.ones((3, 2)))
    col = tape.leaf(np.ones((3, 1)))
    with pytest.raises(ShapeError):
        autodiff.add(a, b)
    with pytest.raises(ShapeError):
        autodiff.dense(a, col, b, "none")
    with pytest.raises(ShapeError):
        autodiff.dense(a, tape.leaf(np.ones((2, 1))), a, "none")
    with pytest.raises(ContractError):
        autodiff.dense(a, tape.leaf(np.ones((2, 1))), b, "sigmoid")
    with pytest.raises(ShapeError):
        autodiff.col_slice(a, 2, 5)
    with pytest.raises(ShapeError):
        a.item()
    with pytest.raises(ShapeError):
        autodiff.subspace_overlap(a, 2)
    for node in DISTANCES.values():
        # NK = 3 columns cannot make 2 classes
        with pytest.raises(ShapeError):
            node(a, tape.leaf(np.ones((2, 4))), 2)
        # queries with the wrong rows, and a lone query matrix against a stack
        with pytest.raises(ShapeError):
            node(a, col, 1)
        with pytest.raises(ShapeError):
            node(tape.leaf(np.ones((2, 2, 3))), a, 1)
