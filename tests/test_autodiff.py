"""Tape op tests: every op's gradient against central finite differences,
plus the structural contracts (idempotent backward, no adjoint aliasing,
stabilized reductions, shape and tape-mixing errors).
"""

import numpy as np
import pytest

from fewshot import autodiff
from fewshot.autodiff import Tape, backward
from fewshot.errors import ContractError, ShapeError

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


# -- per-op gradient fidelity -------------------------------------------------


def test_add_and_sub_gradients():
    for seed in range(5):
        a, b = mats(seed, (3, 2), (3, 2))
        check_op(lambda t, v: autodiff.frobenius_norm_sq(autodiff.add(v[0], v[1])), [a, b])
        check_op(lambda t, v: autodiff.frobenius_norm_sq(autodiff.sub(v[0], v[1])), [a, b])


def test_mul_and_div_gradients():
    for seed in range(5):
        a, b = mats(seed + 10, (2, 3), (2, 3))
        check_op(lambda t, v: autodiff.sum_all(autodiff.mul(v[0], v[1])), [a, b])
        s = np.array([[1.5 + 0.1 * seed]])
        check_op(lambda t, v: autodiff.frobenius_norm_sq(autodiff.div(v[0], v[1])), [a, s])


def test_scale_neg_add_diag_gradients():
    for seed in range(5):
        (a,) = mats(seed + 20, (3, 3))
        check_op(lambda t, v: autodiff.frobenius_norm_sq(autodiff.scale(v[0], -1.7)), [a])
        check_op(lambda t, v: autodiff.frobenius_norm_sq(autodiff.neg(v[0])), [a])
        check_op(lambda t, v: autodiff.frobenius_norm_sq(autodiff.add_diag(v[0], 0.5)), [a])


def test_add_col_gradients():
    for seed in range(5):
        a, c = mats(seed + 30, (3, 4), (3, 1))
        check_op(lambda t, v: autodiff.frobenius_norm_sq(autodiff.add_col(v[0], v[1])), [a, c])


def test_transpose_and_matmul_gradients():
    for seed in range(5):
        a, b = mats(seed + 40, (2, 4), (4, 3))
        check_op(lambda t, v: autodiff.frobenius_norm_sq(autodiff.transpose(v[0])), [a])
        check_op(lambda t, v: autodiff.frobenius_norm_sq(autodiff.matmul(v[0], v[1])), [a, b])


def test_col_slice_vstack_pick_gradients():
    for seed in range(5):
        a, b = mats(seed + 50, (2, 4), (3, 4))
        check_op(lambda t, v: autodiff.frobenius_norm_sq(autodiff.col_slice(v[0], 1, 3)), [a])
        check_op(lambda t, v: autodiff.frobenius_norm_sq(autodiff.vstack([v[0], v[1]])), [a, b])
        rows = np.array([2, 0, 1, 2])
        check_op(lambda t, v: autodiff.frobenius_norm_sq(autodiff.pick(v[1], rows)), [a, b])


def test_col_slice_leaves_other_columns_with_zero_grad():
    (a,) = mats(99, (2, 4))
    _, (g,) = analytic(
        lambda t, v: autodiff.frobenius_norm_sq(autodiff.col_slice(v[0], 1, 3)), [a])
    assert np.array_equal(g[:, 0], np.zeros(2))
    assert np.array_equal(g[:, 3], np.zeros(2))
    assert np.allclose(g[:, 1:3], 2.0 * a[:, 1:3])


def test_sum_all_and_nonlinearity_gradients():
    for seed in range(5):
        (a,) = mats(seed + 60, (3, 3))
        check_op(lambda t, v: autodiff.mul(autodiff.sum_all(v[0]), autodiff.sum_all(v[0])), [a])
        check_op(lambda t, v: autodiff.sum_all(autodiff.tanh(v[0])), [a])
        # keep relu inputs away from the kink
        r = a + np.sign(a) * 0.2
        check_op(lambda t, v: autodiff.frobenius_norm_sq(autodiff.relu(v[0])), [r])


def test_norm_and_normalize_gradients():
    for seed in range(5):
        rng = np.random.default_rng(seed + 70)
        col = rng.standard_normal((4, 1)) + 0.5
        a = rng.standard_normal((3, 4)) + 0.3
        w = rng.standard_normal((3, 4))
        check_op(lambda t, v: autodiff.sum_all(autodiff.col_norms(v[0])), [col])
        check_op(lambda t, v: autodiff.frobenius_norm_sq(v[0]), [a])
        check_op(lambda t, v: autodiff.sum_all(autodiff.col_norms(v[0])), [a])
        check_op(
            lambda t, v: autodiff.sum_all(autodiff.mul(autodiff.col_normalize(v[0]), v[1])),
            [a, w])


def test_logsumexp_gradients():
    for seed in range(5):
        rng = np.random.default_rng(seed + 80)
        col = rng.standard_normal((5, 1))
        a = rng.standard_normal((4, 3))
        check_op(lambda t, v: autodiff.lse_cols(v[0]), [col])
        check_op(lambda t, v: autodiff.sum_all(autodiff.lse_cols(v[0])), [a])


def test_solve_spd_gradients_through_gram_construction():
    # A = G^T G + 0.5 I built on the tape, so the solve adjoint is checked
    # with respect to both the matrix route and the right-hand side.
    for seed in range(5):
        g, b = mats(seed + 90, (4, 3), (3, 2))

        def build(t, v):
            gram = autodiff.add_diag(
                autodiff.matmul(autodiff.transpose(v[0]), v[0]), 0.5)
            return autodiff.frobenius_norm_sq(autodiff.solve_spd(gram, v[1]))

        check_op(build, [g, b])


def test_solve_spd_value_matches_numpy():
    rng = np.random.default_rng(123)
    s = rng.standard_normal((5, 4))
    a = s.T @ s + 0.2 * np.eye(4)
    b = rng.standard_normal((4, 2))
    tape = Tape()
    x = autodiff.solve_spd(tape.leaf(a), tape.leaf(b))
    assert np.allclose(x.value, np.linalg.solve(a, b), atol=1e-10)


# -- structural contracts ------------------------------------------------------


def test_backward_is_idempotent():
    (a,) = mats(1, (3, 2))
    tape = Tape()
    x = tape.leaf(a)
    loss = autodiff.frobenius_norm_sq(autodiff.tanh(x))
    backward(tape, loss)
    first = x.grad.copy()
    backward(tape, loss)
    assert np.array_equal(first, x.grad)


def test_nodes_the_loss_ignores_get_zero_grad():
    tape = Tape()
    x = tape.leaf(np.ones((2, 2)))
    unused = autodiff.tanh(x)
    loss = autodiff.sum_all(x)
    backward(tape, loss)
    assert np.array_equal(unused.grad, np.zeros((2, 2)))
    assert np.array_equal(x.grad, np.ones((2, 2)))


def test_reused_variable_accumulates_without_corrupting_upstream():
    # add returns the same adjoint array for both inputs; the first store
    # must copy, otherwise accumulating into x also rewrites y.grad.
    tape = Tape()
    x = tape.leaf(np.ones((2, 2)))
    y = autodiff.add(x, x)
    loss = autodiff.sum_all(y)
    backward(tape, loss)
    assert np.array_equal(x.grad, 2.0 * np.ones((2, 2)))
    assert np.array_equal(y.grad, np.ones((2, 2)))


def test_vstack_adjoint_views_do_not_alias_the_output_grad():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((2, 3))
    tape = Tape()
    x = tape.leaf(a)
    y = autodiff.vstack([x, x])
    loss = autodiff.frobenius_norm_sq(y)
    backward(tape, loss)
    assert np.allclose(x.grad, 4.0 * a)
    assert np.allclose(y.grad, 2.0 * y.value)


def test_logsumexp_is_stable_for_large_inputs():
    tape = Tape()
    col = tape.leaf(np.array([[1000.0], [999.0]]))
    out = autodiff.lse_cols(col)
    expected = 1000.0 + np.log(1.0 + np.exp(-1.0))
    assert out.item() == pytest.approx(expected, abs=1e-12)
    big = tape.leaf(np.array([[800.0, -800.0], [799.0, -801.0]]))
    vals = autodiff.lse_cols(big).value
    assert np.all(np.isfinite(vals))
    assert vals[0, 0] == pytest.approx(800.0 + np.log(1.0 + np.exp(-1.0)), abs=1e-12)


def test_relu_gradient_at_zero_is_zero():
    tape = Tape()
    x = tape.leaf(np.array([[0.0, -1.0, 2.0]]))
    backward(tape, autodiff.sum_all(autodiff.relu(x)))
    assert np.array_equal(x.grad, np.array([[0.0, 0.0, 1.0]]))


def test_zero_norm_gradients_are_zero():
    tape = Tape()
    v = tape.leaf(np.zeros((3, 1)))
    backward(tape, autodiff.sum_all(autodiff.col_norms(v)))
    assert np.array_equal(v.grad, np.zeros((3, 1)))

    tape = Tape()
    a = tape.leaf(np.array([[0.0, 1.0], [0.0, 2.0]]))
    backward(tape, autodiff.sum_all(autodiff.col_norms(a)))
    assert np.array_equal(a.grad[:, 0], np.zeros(2))

    tape = Tape()
    b = tape.leaf(np.array([[0.0, 3.0], [0.0, 4.0]]))
    y = autodiff.col_normalize(b)
    assert np.array_equal(y.value[:, 0], np.zeros(2))
    backward(tape, autodiff.sum_all(y))
    assert np.array_equal(b.grad[:, 0], np.zeros(2))


def test_ops_reject_mixed_tapes():
    t1, t2 = Tape(), Tape()
    a = t1.leaf(np.ones((2, 2)))
    b = t2.leaf(np.ones((2, 2)))
    with pytest.raises(ContractError):
        autodiff.add(a, b)


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
        autodiff.div(a, b)
    with pytest.raises(ShapeError):
        autodiff.add_diag(a, 1.0)
    with pytest.raises(ShapeError):
        autodiff.add_col(a, col)
    with pytest.raises(ShapeError):
        autodiff.col_slice(a, 2, 5)
    with pytest.raises(ShapeError):
        autodiff.sub(a, b)
    with pytest.raises(ShapeError):
        autodiff.pick(a, np.array([0, 1]))
    with pytest.raises(ContractError):
        autodiff.pick(a, np.array([0, 1, 5]))
    with pytest.raises(ShapeError):
        a.item()
    with pytest.raises(ShapeError):
        autodiff.vstack([])
