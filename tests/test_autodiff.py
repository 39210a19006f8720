"""Tape op tests: every op's gradient against central finite differences,
the two fused regression-head nodes against numpy oracles, plus the
structural contracts (idempotent backward, no adjoint aliasing, constants
without adjoints, stabilized reductions, shape and tape-mixing errors).
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


def total(v):
    """The sum of every entry of a matrix, as 1^T V 1 with constant ones."""
    m, n = v.shape
    ones_row = v.tape.const(np.ones((1, m)))
    return autodiff.matmul(autodiff.matmul(ones_row, v), v.tape.const(np.ones((n, 1))))


def sq_norm(v):
    """The sum of squared entries of a matrix or stack, from public ops:
    column norms down to one row, that row's norm as a 1 x 1, squared."""
    while len(v.shape) > 2:
        v = autodiff.col_norms(v)
    norm = autodiff.col_norms(autodiff.transpose(autodiff.col_norms(v)))
    return autodiff.matmul(norm, norm)


def ridge(t, v, n=2, lambda1=0.5):
    """The ridge residuals of leaves v[0] (support) and v[1] (queries),
    each (class, query) distance weighted differently."""
    d = autodiff.ridge_residuals(v[0], v[1], n, lambda1)
    weights = np.random.default_rng(d.shape[-1]).standard_normal(d.shape)
    return sq_norm(autodiff.sub(d, t.const(weights)))


# -- per-op gradient fidelity -------------------------------------------------


def test_add_and_sub_gradients():
    for seed in range(5):
        a, b = mats(seed, (3, 2), (3, 2))
        check_op(lambda t, v: sq_norm(autodiff.add(v[0], v[1])), [a, b])
        check_op(lambda t, v: sq_norm(autodiff.sub(v[0], v[1])), [a, b])


def test_scale_neg_add_diag_gradients():
    for seed in range(5):
        (a,) = mats(seed + 20, (3, 3))
        check_op(lambda t, v: sq_norm(autodiff.scale(v[0], -1.7)), [a])
        check_op(lambda t, v: sq_norm(autodiff.neg(v[0])), [a])
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
            check_op(lambda t, v: sq_norm(
                autodiff.dense(v[0], v[1], v[2], act)), [w, b, x])
        # two layers chained, as the encoder records them
        w2, b2 = mats(seed + 35, (2, 3), (2, 1))
        check_op(lambda t, v: sq_norm(autodiff.dense(
            v[3], v[4], autodiff.dense(v[0], v[1], v[2], "tanh"), "none")), [w, b, x, w2, b2])


def test_add_col_gradients():
    # the bias column added to every column: dense with W = I and no activation
    eye = np.eye(3)
    for seed in range(5):
        a, c = mats(seed + 30, (3, 4), (3, 1))
        check_op(lambda t, v: sq_norm(
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


def test_transpose_and_matmul_gradients():
    for seed in range(5):
        a, b = mats(seed + 40, (2, 4), (4, 3))
        check_op(lambda t, v: sq_norm(autodiff.transpose(v[0])), [a])
        check_op(lambda t, v: sq_norm(autodiff.matmul(v[0], v[1])), [a, b])


def test_col_slice_and_blocks_gradients():
    for seed in range(5):
        a, wide, w = mats(seed + 50, (2, 4), (2, 6), (2, 3))
        check_op(lambda t, v: sq_norm(autodiff.col_slice(v[0], 1, 3)), [a])
        # two 2 x 3 class blocks; every (class, column) norm has its own
        # weight, so a misplaced column would change the loss
        check_op(lambda t, v: sq_norm(autodiff.sub(
            autodiff.col_norms(autodiff.blocks(v[0], 2)), t.const(w))), [wide])


def test_blocks_lay_class_columns_along_the_stack_axis():
    a = np.arange(12.0).reshape(2, 6)
    tape = Tape()
    stack = autodiff.blocks(tape.leaf(a), 3)
    assert stack.shape == (3, 2, 2)
    for c in range(3):
        assert np.array_equal(stack.value[c], a[:, 2 * c : 2 * c + 2])
    # a leading episode axis carries through
    episodes = np.stack([a, -a])
    stack = autodiff.blocks(tape.leaf(episodes), 3)
    assert stack.shape == (2, 3, 2, 2)
    for e in range(2):
        for c in range(3):
            assert np.array_equal(stack.value[e, c], episodes[e][:, 2 * c : 2 * c + 2])


def test_stacked_and_broadcasting_ops_gradients():
    # (2, 3, 3) stacks come from blocks of a 3 x 6 matrix
    for seed in range(5):
        x, y, r, c, m, w = mats(seed + 110, (3, 6), (3, 4), (3, 2), (3, 1), (4, 3), (2, 4))
        stack = lambda v: autodiff.blocks(v[0], 2)
        # matmul broadcasting its right operand, then its left one
        check_op(lambda t, v: sq_norm(
            autodiff.matmul(autodiff.transpose(stack(v)), v[1])), [x, y])
        check_op(lambda t, v: sq_norm(
            autodiff.matmul(v[1], stack(v))), [x, m])
        # sub broadcasting a matrix against a stack, and a column stack
        # against a matrix (both operands stretch)
        check_op(lambda t, v: sq_norm(autodiff.sub(
            v[1], autodiff.matmul(stack(v), v[2]))), [x, y[:, :2], r])
        check_op(lambda t, v: sq_norm(autodiff.sub(
            v[1], autodiff.matmul(stack(v), v[2]))), [x, r, c])
        # 3-D col_norms (an N x B result) and col_normalize
        check_op(lambda t, v: sq_norm(autodiff.sub(autodiff.col_norms(
            autodiff.matmul(autodiff.transpose(stack(v)), v[1])), t.const(w))), [x, y])
        check_op(lambda t, v: sq_norm(autodiff.matmul(
            autodiff.col_normalize(stack(v)), v[1])), [x, r])
        # a stack of 2 episodes: (2, 3, 4) supports as (2, 2, 3, 2) class
        # stacks, and (2, 3, 2) queries given a unit class axis
        e, q = mats(seed + 130, (2, 3, 4), (2, 3, 2))
        check_op(lambda t, v: sq_norm(autodiff.col_norms(autodiff.sub(
            autodiff.expand_dims(v[1], -3), autodiff.blocks(v[0], 2)))), [e, q])


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
    (a,) = mats(99, (2, 4))
    _, (g,) = analytic(
        lambda t, v: sq_norm(autodiff.col_slice(v[0], 1, 3)), [a])
    assert np.array_equal(g[:, 0], np.zeros(2))
    assert np.array_equal(g[:, 3], np.zeros(2))
    assert np.allclose(g[:, 1:3], 2.0 * a[:, 1:3])


def test_sum_all_and_nonlinearity_gradients():
    # the all-entry sum (total) and the tanh and relu of dense with W = I, b = 0
    eye, zero = np.eye(3), np.zeros((3, 1))
    for seed in range(5):
        (a,) = mats(seed + 60, (3, 3))
        check_op(lambda t, v: autodiff.matmul(total(v[0]), total(v[0])), [a])
        check_op(lambda t, v: total(
            autodiff.dense(t.const(eye), t.const(zero), v[0], "tanh")), [a])
        # keep relu inputs away from the kink
        r = a + np.sign(a) * 0.2
        check_op(lambda t, v: sq_norm(
            autodiff.dense(t.const(eye), t.const(zero), v[0], "relu")), [r])


def test_norm_and_normalize_gradients():
    for seed in range(5):
        rng = np.random.default_rng(seed + 70)
        col = rng.standard_normal((4, 1)) + 0.5
        a = rng.standard_normal((3, 4)) + 0.3
        w = rng.standard_normal((3, 4))
        check_op(lambda t, v: autodiff.col_norms(v[0]), [col])
        check_op(lambda t, v: sq_norm(v[0]), [a])
        check_op(lambda t, v: total(autodiff.col_norms(v[0])), [a])
        check_op(
            lambda t, v: sq_norm(autodiff.sub(autodiff.col_normalize(v[0]), v[1])),
            [a, w])


def test_cross_entropy_gradients():
    # one column, then several, with repeated and distinct true rows; the
    # second loss reaches the distances through a matmul, so the adjoint is
    # checked when it is not the first node backward visits
    for seed in range(5):
        rng = np.random.default_rng(seed + 80)
        col = rng.standard_normal((5, 1))
        a = rng.standard_normal((4, 3))
        m = rng.standard_normal((3, 3))
        check_op(lambda t, v: autodiff.cross_entropy(v[0], np.array([3])), [col])
        rows = np.array([2, 0, 2])
        check_op(lambda t, v: autodiff.cross_entropy(v[0], rows), [a])
        check_op(lambda t, v: autodiff.add(
            autodiff.cross_entropy(autodiff.matmul(v[0], v[1]), rows),
            sq_norm(v[1])), [a, m])


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
    loss = sq_norm(autodiff.dense(w, b, x, "tanh"))
    backward(tape, loss)
    first = x.grad.copy()
    backward(tape, loss)
    assert np.array_equal(first, x.grad)


def test_nodes_the_loss_ignores_get_zero_grad():
    tape = Tape()
    x = tape.leaf(np.ones((2, 2)))
    unused = autodiff.transpose(x)
    loss = total(x)
    backward(tape, loss)
    assert np.array_equal(unused.grad, np.zeros((2, 2)))
    assert np.array_equal(x.grad, np.ones((2, 2)))


def test_reused_variable_accumulates_without_corrupting_upstream():
    # add returns the same adjoint array for both inputs; x stores it as
    # is, so accumulating into x in place would also rewrite y.grad.
    tape = Tape()
    x = tape.leaf(np.ones((2, 2)))
    y = autodiff.add(x, x)
    loss = total(y)
    backward(tape, loss)
    assert np.array_equal(x.grad, 2.0 * np.ones((2, 2)))
    assert np.array_equal(y.grad, np.ones((2, 2)))


def test_blocks_adjoint_views_do_not_alias_the_output_grad():
    # one block: the adjoint handed to x is a view of y's grad, stored
    # first; the later accumulation into x must not rewrite y.grad
    rng = np.random.default_rng(8)
    a = rng.standard_normal((2, 3))
    tape = Tape()
    x = tape.leaf(a)
    fx = sq_norm(x)
    y = autodiff.blocks(x, 1)
    loss = autodiff.add(fx, sq_norm(y))
    backward(tape, loss)
    assert np.allclose(x.grad, 4.0 * a)
    assert np.allclose(y.grad, 2.0 * y.value)


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
    backward(tape, total(y))
    assert np.array_equal(x.grad, np.array([[0.0, 0.0, 1.0]]))


def test_constants_get_no_adjoint():
    # the ops compute nothing for a constant operand, and its grad reads zero
    w, b, x, m = mats(7, (3, 4), (3, 1), (4, 5), (3, 5))
    tape = Tape()
    wv, bv, xc, mc = tape.leaf(w), tape.leaf(b), tape.const(x), tape.const(m)
    h = autodiff.dense(wv, bv, xc, "tanh")
    shifted = autodiff.sub(h, mc)
    loss = sq_norm(autodiff.sub(autodiff.add(shifted, mc), mc))
    g = np.ones(h.shape)
    assert [i for i, _ in h._backward(g)] == [wv.id, bv.id]
    assert [i for i, _ in shifted._backward(g)] == [h.id]
    dist = autodiff.ridge_residuals(h, tape.const(x[:3]), 1, 0.5)
    assert [i for i, _ in dist._backward(np.ones(dist.shape))] == [h.id]
    backward(tape, loss)
    assert np.array_equal(xc.grad, np.zeros_like(x))
    assert np.array_equal(mc.grad, np.zeros_like(m))
    assert float(np.max(np.abs(wv.grad))) > 0.0
    # the same loss with x and the offset as leaves gives W and b the same grads
    tape = Tape()
    wl, bl, xl, ml = tape.leaf(w), tape.leaf(b), tape.leaf(x), tape.leaf(m)
    shifted = autodiff.sub(autodiff.dense(wl, bl, xl, "tanh"), ml)
    backward(tape, sq_norm(autodiff.sub(autodiff.add(shifted, ml), ml)))
    assert np.array_equal(wl.grad, wv.grad)
    assert np.array_equal(bl.grad, bv.grad)
    assert float(np.max(np.abs(xl.grad))) > 0.0


def test_zero_norm_gradients_are_zero():
    tape = Tape()
    v = tape.leaf(np.zeros((3, 1)))
    backward(tape, autodiff.col_norms(v))
    assert np.array_equal(v.grad, np.zeros((3, 1)))

    tape = Tape()
    a = tape.leaf(np.array([[0.0, 1.0], [0.0, 2.0]]))
    backward(tape, total(autodiff.col_norms(a)))
    assert np.array_equal(a.grad[:, 0], np.zeros(2))

    tape = Tape()
    b = tape.leaf(np.array([[0.0, 3.0], [0.0, 4.0]]))
    y = autodiff.col_normalize(b)
    assert np.array_equal(y.value[:, 0], np.zeros(2))
    backward(tape, total(y))
    assert np.array_equal(b.grad[:, 0], np.zeros(2))


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
        autodiff.neg(x)


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
        autodiff.sub(a, b)
    with pytest.raises(ShapeError):
        a.item()
    with pytest.raises(ShapeError):
        autodiff.blocks(a, 2)
    with pytest.raises(ShapeError):
        autodiff.subspace_overlap(a, 2)
    with pytest.raises(ShapeError):
        autodiff.matmul(autodiff.blocks(a, 3), a)
    with pytest.raises(ShapeError):
        autodiff.ridge_residuals(a, col, 1, 0.5)
    with pytest.raises(ShapeError):
        autodiff.ridge_residuals(tape.leaf(np.ones((2, 2, 3))), a, 1, 0.5)
