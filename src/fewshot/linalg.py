"""Dense float64 linear algebra over matrices and stacks of matrices.

Every tensor in this library is a C-contiguous float64 ``numpy`` array
of rank 2 or more (``cholesky``'s factor, a strided view, is the one
exception): the last two axes are a matrix, and leading axes stack
matrices of one shape (the heads stack one matrix per class: N x rows x
cols).  Rank-1 data is carried as an ``(n, 1)`` column.  The helpers here
enforce that convention and provide the handful of primitives the rest
of the package builds on, including a symmetric-positive-definite solver:
an explicit right-looking Cholesky sweep that treats a whole stack at once,
loops only over K and turns the identity into the inverse factor L^{-1} as
it factors, so a solve is two matrix products.  That K x K triangular
factor is the only matrix ever inverted; it is the regression head's one
factorization per scored episode.
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


def cholesky(a: np.ndarray) -> np.ndarray:
    """Inverse Cholesky factor W = L^{-1} of each K x K matrix, ``a = L @ L.T``.

    ``a`` is one matrix or a stack (..., K, K).  One right-looking sweep
    runs over the rows of the augmented (..., K, 2K) array [a | I] (I set
    through a strided view of its diagonal), reading a's upper triangle:
    each pivot scales its row right of itself by 1/sqrt(pivot) and takes a
    rank-1 update off the rows below (the last pivot has none), on both
    halves at once.  Row j of the left half then holds pivot j on the
    diagonal and row j of L^T right of it; the right half becomes W =
    L^{-1}, lower-triangular with exact zeros above the diagonal, returned
    as a strided view.  Written out explicitly (rather than delegated) so
    that a failure can name the offending pivot, read off the diagonal
    after the loop, and in a stack its 1-based class (position on the last
    stacked axis): a non-positive pivot of these tiny K x K Gram matrices
    means the caller forgot the ridge term on a rank-deficient system.  The
    lowest failing pivot index is named first, then the first matrix in the
    stack; in an episode stack (E, N, K, K) the error's ``episode_index``
    is the position on the episode axis.
    """
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ShapeError(f"cholesky expects square matrices, got {a.shape}")
    k = a.shape[-1]
    aug = np.zeros(a.shape[:-1] + (2 * k,))
    aug[..., :k] = a
    # the (..., 2K^2) flat view: the left half's diagonal at 0, 2K + 1, ..., the right's at k, ...
    flat = aug.reshape(a.shape[:-2] + (2 * k * k,))
    flat[..., k :: 2 * k + 1] = 1.0
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for j in range(k):
            live = slice(j + 1, k + j + 1)   # a right of the pivot, then W's first j + 1
            row = aug[..., j, live]
            row /= np.sqrt(aug[..., j, j, None])
            if j + 1 < k:
                aug[..., j + 1 :, live] -= row[..., : k - j - 1, None] * row[..., None, :]
        pivots = flat[..., :: 2 * k + 1]
        bad = ~((pivots > 0.0) & np.isfinite(pivots))
    if bad.any():
        j = int(np.argmax(bad.reshape(-1, k).any(axis=0)))
        where = tuple(np.argwhere(bad[..., j])[0])
        pivot = float(pivots[where + (j,)])
        owner = f" of class {where[-1] + 1}" if where else ""
        kind = "non-positive" if np.isfinite(pivot) else "non-finite"
        raise ConditioningError(
            f"matrix is not positive definite: {kind} pivot {pivot:.3e} "
            f"at index {j}{owner}",
            episode_index=int(where[-2]) if len(where) > 1 else None)
    return aug[..., k:]


def solve_with_factor(w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``a x = b`` given ``w = cholesky(a)``: x = W^T (W b), two
    matrix products per stacked matrix (``b`` is (..., K, B))."""
    return w.swapaxes(-1, -2) @ (w @ b)


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
