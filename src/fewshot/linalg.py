"""Dense rank-1/rank-2 float64 linear algebra.

Every tensor in this library is a 2-D, C-contiguous, float64 ``numpy``
array; rank-1 data is carried as an ``(n, 1)`` column.  The helpers here
enforce that convention and provide the handful of primitives the rest of
the package builds on, including a symmetric-positive-definite solver via
an explicit Cholesky factorization (no matrix is ever inverted directly).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConditioningError, ShapeError


def as_matrix(values) -> np.ndarray:
    """Coerce input to a 2-D float64 array; 1-D input becomes a column."""
    a = np.asarray(values, dtype=np.float64)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    elif a.ndim == 1:
        a = a.reshape(-1, 1)
    elif a.ndim != 2:
        raise ShapeError(f"expected rank 1 or 2, got rank {a.ndim}")
    return np.ascontiguousarray(a)


def as_column(values) -> np.ndarray:
    a = as_matrix(values)
    if a.shape[1] != 1:
        raise ShapeError(f"expected a column vector, got shape {a.shape}")
    return a


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} x {b.shape}")
    return a @ b


def transpose(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a.T)


def frobenius_norm_sq(a: np.ndarray) -> float:
    """Sum of squared entries."""
    return float(np.sum(a * a))


def cholesky(a: np.ndarray) -> np.ndarray:
    """Lower-triangular factor L with ``a = L @ L.T``.

    Written out explicitly (rather than delegated) so that a failure can
    name the offending pivot: the matrices here are tiny K x K Gram
    matrices and a non-positive pivot means the caller forgot the ridge
    term on a rank-deficient system.
    """
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"cholesky expects a square matrix, got {a.shape}")
    k = a.shape[0]
    low = np.zeros((k, k), dtype=np.float64)
    for j in range(k):
        d = a[j, j] - low[j, :j] @ low[j, :j]
        if d <= 0.0 or not math.isfinite(d):
            raise ConditioningError(
                f"matrix is not positive definite: non-positive pivot {d:.3e} "
                f"at index {j}"
            )
        low[j, j] = math.sqrt(d)
        if j + 1 < k:
            low[j + 1 :, j] = (a[j + 1 :, j] - low[j + 1 :, :j] @ low[j, :j]) / low[j, j]
    return low


def solve_lower(low: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Forward substitution: solve ``low @ x = b`` for lower-triangular low."""
    k = low.shape[0]
    x = np.array(b, dtype=np.float64, copy=True)
    for i in range(k):
        if i:
            x[i, :] -= low[i, :i] @ x[:i, :]
        x[i, :] /= low[i, i]
    return x


def solve_upper(up: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Back substitution: solve ``up @ x = b`` for upper-triangular up."""
    k = up.shape[0]
    x = np.array(b, dtype=np.float64, copy=True)
    for i in range(k - 1, -1, -1):
        if i + 1 < k:
            x[i, :] -= up[i, i + 1 :] @ x[i + 1 :, :]
        x[i, :] /= up[i, i]
    return x


def solve_with_factor(low: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``(low @ low.T) x = b`` given a precomputed Cholesky factor."""
    return solve_upper(low.T, solve_lower(low, b))


def solve_spd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``a @ x = b`` for symmetric positive definite ``a``."""
    if a.shape[0] != b.shape[0]:
        raise ShapeError(f"solve_spd dimensions disagree: {a.shape} vs {b.shape}")
    return solve_with_factor(cholesky(a), b)


# ---------------------------------------------------------------------------
# Seeded randomness.  Every stochastic operation in the library takes an
# explicit generator; `named_stream` derives independent, reproducible
# streams from one 64-bit root seed so concurrent consumers never share
# state.


def rng_from_seed(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(int(seed) & (2**64 - 1)))


def named_stream(root_seed: int, name: str) -> np.random.Generator:
    """Deterministic child generator for (root_seed, name)."""
    raw = name.encode("utf-8")
    words = [
        int.from_bytes(raw[i : i + 4], "little") for i in range(0, len(raw), 4)
    ]
    seq = np.random.SeedSequence([int(root_seed) & (2**64 - 1), len(raw), *words])
    return np.random.default_rng(seq)


def random_uniform(rng: np.random.Generator, rows: int, cols: int,
                   low: float = -1.0, high: float = 1.0) -> np.ndarray:
    return rng.uniform(low, high, size=(rows, cols))

