"""Dense kernel tests: shape coercion, factorization, solves, seeded RNG."""

import warnings

import numpy as np
import pytest

from fewshot import linalg
from fewshot.errors import ConditioningError, ShapeError


def test_as_matrix_coerces_scalars_and_vectors():
    assert linalg.as_matrix(3.0).shape == (1, 1)
    assert linalg.as_matrix([1.0, 2.0, 3.0]).shape == (3, 1)
    a = linalg.as_matrix([[1, 2], [3, 4]])
    assert a.shape == (2, 2)
    assert a.dtype == np.float64
    assert a.flags["C_CONTIGUOUS"]


def test_as_matrix_rejects_rank_3():
    with pytest.raises(ShapeError):
        linalg.as_matrix(np.zeros((2, 2, 2)))


def test_cholesky_returns_the_inverse_factor():
    rng = np.random.default_rng(19)
    for k in [1, *(int(v) for v in rng.integers(1, 7, size=24))]:
        s = rng.standard_normal((k + 3, k))
        a = s.T @ s + 1e-3 * np.eye(k)
        w = linalg.cholesky(a)
        # exact zeros above the diagonal, a positive diagonal
        assert np.array_equal(w, np.tril(w))
        assert np.all(np.diag(w) > 0.0)
        assert np.allclose(w @ a @ w.T, np.eye(k), atol=1e-10)
        assert np.allclose(np.linalg.inv(w), np.linalg.cholesky(a), atol=1e-10)


def test_cholesky_names_the_failing_pivot():
    a = np.diag([1.0, -1.0, 2.0])
    with pytest.raises(ConditioningError, match="index 1"):
        linalg.cholesky(a)
    with pytest.raises(ShapeError):
        linalg.cholesky(np.zeros((2, 3)))


def test_stacked_cholesky_and_solves_equal_the_per_matrix_results():
    rng = np.random.default_rng(37)
    for trial in range(12):
        n, k = (int(v) for v in rng.integers(1, 7, size=2))
        # (N, K, K) class stacks, then (E, N, K, K) episode stacks; K = 1 too
        lead = (n,) if trial % 2 == 0 else (int(rng.integers(1, 4)), n)
        k = 1 if trial >= 10 else k
        s = rng.standard_normal((*lead, k + 2, k))
        a = np.swapaxes(s, -1, -2) @ s + 1e-2 * np.eye(k)
        b = rng.standard_normal((*lead, k, 3))
        w = linalg.cholesky(a)
        x = linalg.solve_with_factor(w, b)
        for c in np.ndindex(lead):
            assert np.allclose(w[c], linalg.cholesky(a[c]), rtol=1e-14, atol=1e-14)
            assert np.allclose(x[c], linalg.solve_with_factor(linalg.cholesky(a[c]), b[c]),
                               rtol=1e-12, atol=1e-13)
            assert np.allclose(x[c], np.linalg.solve(a[c], b[c]), atol=1e-9)


def test_stacked_cholesky_names_the_failing_class():
    a = np.stack([np.eye(3), np.eye(3), np.diag([1.0, 2.0, 0.0])])
    with pytest.raises(ConditioningError, match="pivot 0.000e[+]00 at index 2 of class 3"):
        linalg.cholesky(a)
    with pytest.raises(ShapeError):
        linalg.cholesky(np.zeros((2, 2, 3)))


def test_stacked_cholesky_names_the_lowest_failing_index_first():
    # class 1 fails at index 3, class 2 already at index 1
    a = np.stack([np.diag([1.0, 2.0, 3.0, -1.0]), np.diag([1.0, -2.0, 3.0, 4.0])])
    with pytest.raises(ConditioningError, match="pivot -2.000e[+]00 at index 1 of class 2$"):
        linalg.cholesky(a)


def test_cholesky_of_an_episode_stack_names_its_episode():
    a = np.tile(np.eye(3), (3, 2, 1, 1))                      # (E, N, K, K)
    a[2, 1, 2, 2] = 0.0
    with pytest.raises(ConditioningError, match="index 2 of class 2") as info:
        linalg.cholesky(a)
    assert info.value.episode_index == 2


def test_a_failing_factorization_warns_nothing():
    # the failed pivot's NaN square root and the divisions after it stay silent
    a = np.stack([np.eye(3), np.diag([1.0, -1.0, 0.0]), np.full((3, 3), np.nan)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConditioningError, match="index 0 of class 3"):
            linalg.cholesky(a)
        with pytest.raises(ConditioningError, match="index 1 of class 2"):
            linalg.cholesky(a[:2])


def test_solve_with_factor_has_tiny_residuals():
    rng = np.random.default_rng(23)
    for _ in range(20):
        k = int(rng.integers(1, 7))
        low = np.tril(rng.standard_normal((k, k))) + 3.0 * np.eye(k)
        a = low @ low.T
        b = rng.standard_normal((k, 2))
        x = linalg.solve_with_factor(linalg.cholesky(a), b)
        assert np.allclose(a @ x, b, atol=1e-10)


def test_solve_spd_matches_numpy_solver():
    rng = np.random.default_rng(29)
    for _ in range(20):
        k = int(rng.integers(1, 8))
        s = rng.standard_normal((k + 2, k))
        a = s.T @ s + 1e-2 * np.eye(k)
        b = rng.standard_normal((k, 3))
        x = linalg.solve_with_factor(linalg.cholesky(a), b)
        assert np.allclose(x, np.linalg.solve(a, b), atol=1e-9)
        assert np.allclose(a @ x, b, atol=1e-9)


def test_solve_with_factor_reuses_the_factorization():
    rng = np.random.default_rng(31)
    k = 5
    s = rng.standard_normal((8, k))
    a = s.T @ s + 0.1 * np.eye(k)
    low = linalg.cholesky(a)
    for _ in range(3):
        b = rng.standard_normal((k, 1))
        assert np.allclose(linalg.solve_with_factor(low, b), np.linalg.solve(a, b))


def test_named_streams_are_reproducible_and_distinct():
    a1 = linalg.named_stream(42, "init").standard_normal(8)
    a2 = linalg.named_stream(42, "init").standard_normal(8)
    b = linalg.named_stream(42, "train-sampling").standard_normal(8)
    c = linalg.named_stream(43, "init").standard_normal(8)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)
    assert not np.array_equal(a1, c)


def test_named_stream_depends_on_the_whole_name():
    # names sharing a 4-byte prefix must still get distinct streams
    a = linalg.named_stream(0, "evaluation").standard_normal(4)
    b = linalg.named_stream(0, "evaluatioN").standard_normal(4)
    assert not np.array_equal(a, b)
