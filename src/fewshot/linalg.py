"""Dense float64 linear algebra over matrices and stacks of matrices.

Every tensor in this library is a C-contiguous float64 ``numpy`` array
of rank 2 or more: the last two axes are a matrix, and leading axes stack
matrices of one shape (the heads stack one matrix per class: N x rows x
cols).  Rank-1 data is carried as an ``(n, 1)`` column.  The helpers here
enforce that convention and provide the handful of primitives the rest
of the package builds on, including a symmetric-positive-definite solver
via an explicit right-looking Cholesky factorization (no matrix is ever
inverted directly) that treats a whole stack at once and loops only over
K: the regression head's one factorization per scored episode.
"""

from __future__ import annotations

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


def as_stack(values) -> np.ndarray:
    """Like ``as_matrix``, but a stack of matrices (rank 3 or more) passes."""
    a = np.asarray(values, dtype=np.float64)
    return np.ascontiguousarray(a) if a.ndim > 2 else as_matrix(a)


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product over the last two axes, broadcasting leading axes."""
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} x {b.shape}")
    return a @ b


def cholesky(a: np.ndarray) -> np.ndarray:
    """Lower-triangular factor L with ``a = L @ L.T`` of each K x K matrix.

    ``a`` is one matrix or a stack (..., K, K); the loop runs over K only,
    one rank-1 update of the trailing block per pivot (right-looking).
    Written out explicitly (rather than delegated) so that a failure can
    name the offending pivot and, in a stack, its 1-based class (position
    on the last stacked axis): the matrices here are tiny K x K Gram
    matrices and a non-positive pivot means the caller forgot the ridge
    term on a rank-deficient system.  The pivots are checked once, after
    the loop; the first failure named is the lowest pivot index, then the
    first matrix in the stack.  In a stack of episodes (E, N, K, K) the
    error's ``episode_index`` is the position on the episode axis.
    """
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ShapeError(f"cholesky expects square matrices, got {a.shape}")
    k = a.shape[-1]
    low = np.array(a, dtype=np.float64, copy=True)
    pivots = np.empty(a.shape[:-1])
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for j in range(k):
            pivots[..., j] = low[..., j, j]
            low[..., j, j] = root = np.sqrt(pivots[..., j])
            col = low[..., j + 1 :, j]
            col /= root[..., None]
            low[..., j + 1 :, j + 1 :] -= col[..., :, None] * col[..., None, :]
        bad = ~((pivots > 0.0) & np.isfinite(pivots))
    if bad.any():
        j = int(np.argmax(bad.reshape(-1, k).any(axis=0)))
        where = tuple(np.argwhere(bad[..., j])[0])
        pivot = float(pivots[where + (j,)])
        owner = f" of class {where[-1] + 1}" if where else ""
        raise ConditioningError(
            f"matrix is not positive definite: non-positive pivot {pivot:.3e} "
            f"at index {j}{owner}",
            episode_index=int(where[-2]) if len(where) > 1 else None)
    return np.tril(low)


def solve_lower(low: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Forward substitution: solve ``low @ x = b`` for lower-triangular low,
    per stacked matrix (``b`` is (..., K, B) with low's leading axes)."""
    k = low.shape[-1]
    x = np.array(b, dtype=np.float64, copy=True)
    for i in range(k):
        if i:
            x[..., i, :] -= np.matmul(low[..., i : i + 1, :i], x[..., :i, :])[..., 0, :]
        x[..., i, :] /= low[..., i, i, None]
    return x


def solve_upper(up: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Back substitution: solve ``up @ x = b`` for upper-triangular up,
    per stacked matrix (``b`` is (..., K, B) with up's leading axes)."""
    k = up.shape[-1]
    x = np.array(b, dtype=np.float64, copy=True)
    for i in range(k - 1, -1, -1):
        if i + 1 < k:
            x[..., i, :] -= np.matmul(up[..., i : i + 1, i + 1 :],
                                      x[..., i + 1 :, :])[..., 0, :]
        x[..., i, :] /= up[..., i, i, None]
    return x


def solve_with_factor(low: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``(low @ low.T) x = b`` given precomputed Cholesky factors."""
    return solve_upper(np.swapaxes(low, -1, -2), solve_lower(low, b))


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
