"""Distance heads: subspace-regression classification plus two baselines.

An N-way K-shot episode's embedded support arrives as one M x NK block U:
class c's K columns sit side by side, in columns (c-1)K to cK-1.  Every
head scores all N classes at once; ``autodiff.blocks`` turns U into an
(N, M, K) stack where a head needs one matrix per class, so there is no
loop over classes.

The regression head represents class c by the span of its columns S_c
(M x K).  A query embedding e is scored by the ridge regression residual

    d(e, S_c) = || e - S_c (S_c^T S_c + lam1 I)^{-1} S_c^T e ||_2

computed through the K x M ridge operator P_c = (S_c^T S_c + lam1 I)^{-1}
S_c^T (one stacked Cholesky factorization for all classes, one solve on
the M columns of S_c^T) as the column norms of Q - S_c P_c Q for all query
columns Q at once: one tape node, ``autodiff.ridge_residuals``, whose
adjoint reuses P instead of solving again.  Class posteriors are a softmax
over negated distances, and the training loss adds a pairwise
subspace-orthogonalization penalty (one node, ``autodiff.subspace_overlap``)

    sum_{i != j} ||S_i^T S_j||_F^2 / (||S_i||_F^2 ||S_j||_F^2)

over ordered pairs: the squared off-diagonal K x K blocks of V^T V, where
V is U with every class block scaled to unit Frobenius norm.  Prototype
(distance to the support mean) and cosine (mean negated cosine
similarity) heads provide baselines under the same episode protocol.

Each head writes its distance math once, as ``distance_rows`` on tape
ops.  Training differentiates it; ``distances_np`` runs the same ops on a
throwaway tape and returns the values, with no backward pass.  The ops
also take a leading episode axis: validation and evaluation score a
chunk of E episodes at once, as an (E, M, NK) support stack (``blocks``
makes it (E, N, M, K)) and (E, M, B) queries, and get (E, N, B)
distances back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff
from .autodiff import Tape, Var
from .errors import ContractError, ShapeError


@dataclass
class Hyper:
    """Episode-shape counts and the two loss hyperparameters."""

    n_way: int = 5
    k_shot: int = 5
    q_queries: int = 16
    lambda1: float = 1e-3
    lambda2: float = 1e-2

    def __post_init__(self):
        if self.n_way < 2:
            raise ContractError(f"n_way must be >= 2, got {self.n_way}")
        if self.k_shot < 1 or self.q_queries < 1:
            raise ContractError("k_shot and q_queries must be >= 1")
        for name, value in (("lambda1", self.lambda1), ("lambda2", self.lambda2)):
            if not (math.isfinite(value) and value >= 0.0):
                raise ContractError(f"{name} must be finite and nonnegative, got {value}")


def _per_class(query: Var) -> Var:
    """Queries that broadcast against the class axis of a ``blocks`` stack:
    M x B already does; (E, M, B) episode stacks get a unit class axis."""
    return query if len(query.shape) == 2 else autodiff.expand_dims(query, -3)


def ortho_penalty(support: Var, n_way: int) -> Var:
    """Ordered-pair sum of ||S_i^T S_j||_F^2 / (||S_i||_F^2 ||S_j||_F^2).

    With every class block of the M x NK support scaled to unit Frobenius
    norm (V), the (i, j) K x K block of V^T V is S_i^T S_j / (||S_i|| ||S_j||),
    so the sum is the squared Frobenius norm of V^T V without its diagonal
    blocks: the one ``autodiff.subspace_overlap`` node.
    """
    if n_way < 2:
        raise ContractError(f"penalty needs at least 2 subspaces, got {n_way}")
    return autodiff.subspace_overlap(support, n_way)


def _check_labels(labels: np.ndarray, n_way: int, count: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.intp)
    if labels.shape != (count,):
        raise ShapeError(f"expected {count} query labels, got shape {labels.shape}")
    if labels.min() < 1 or labels.max() > n_way:
        raise ContractError(
            f"query labels must lie in 1..{n_way}, got range "
            f"[{labels.min()}, {labels.max()}]")
    return labels - 1


def cross_entropy_from_distances(dist_matrix: Var, labels: np.ndarray, n_way: int) -> Var:
    """Mean over queries of d_true + logsumexp(-d), the negative log posterior.

    ``dist_matrix`` is N x B with one column per query; ``labels`` are
    1-based class indices of length B.  Recorded as one tape node.
    """
    if n_way < 2:
        raise ContractError(f"a posterior needs at least 2 classes, got {n_way}")
    n, b = dist_matrix.shape
    if n != n_way:
        raise ShapeError(f"distance matrix has {n} rows for {n_way} classes")
    return autodiff.cross_entropy(dist_matrix, _check_labels(labels, n_way, b))


# -- heads -------------------------------------------------------------------
#
# A head's ``distance_rows`` maps the M x NK support block and the M x B
# queries to an N x B distance matrix on the tape, or (E, M, NK) and
# (E, M, B) episode stacks to (E, N, B).  ``episode_loss`` returns (loss,
# that distance matrix); ``distances_np`` evaluates ``distance_rows`` on
# numpy inputs.  Both are written once, below, and bound in each head's
# class body, not inherited, because perfbench's tracer patches a head's
# methods in ``vars(cls)``; the regression head wraps the loss instead.


def episode_loss(head, support: Var, query: Var, labels,
                 hyper: Hyper) -> tuple[Var, Var]:
    """Mean negative log posterior over all queries, and the distances."""
    dist = head.distance_rows(support, query, hyper)
    return cross_entropy_from_distances(dist, labels, hyper.n_way), dist


def distances_np(head, support: np.ndarray, query: np.ndarray,
                 hyper: Hyper) -> np.ndarray:
    """Values of the head's tape ops, recorded on a throwaway tape."""
    tape = Tape()
    return head.distance_rows(tape.leaf(support), tape.leaf(query), hyper).value


class RegressionHead:
    """Classify by regression-error distance to class subspaces."""

    name = "regression"
    distances_np = distances_np

    def distance_rows(self, support: Var, query: Var, hyper: Hyper) -> Var:
        return autodiff.ridge_residuals(support, query, hyper.n_way, hyper.lambda1)

    def episode_loss(self, support: Var, query: Var, labels,
                     hyper: Hyper) -> tuple[Var, Var]:
        """The shared cross-entropy loss plus the weighted penalty."""
        loss, dist = episode_loss(self, support, query, labels, hyper)
        if hyper.lambda2 != 0.0:
            penalty = ortho_penalty(support, hyper.n_way)
            loss = autodiff.add(loss, autodiff.scale(penalty, hyper.lambda2))
        return loss, dist


class ProtoHead:
    """Classify by distance to the per-class support centroid."""

    name = "proto"
    episode_loss = episode_loss
    distances_np = distances_np

    def distance_rows(self, support: Var, query: Var, hyper: Hyper) -> Var:
        s = autodiff.blocks(support, hyper.n_way)                # N x M x K
        k = s.shape[-1]
        mean = support.tape.const(np.full((k, 1), 1.0 / k))
        centroids = autodiff.matmul(s, mean)                     # N x M x 1
        return autodiff.col_norms(autodiff.sub(_per_class(query), centroids))


class CosineHead:
    """Classify by mean cosine similarity, negated to act as a distance."""

    name = "cosine"
    episode_loss = episode_loss
    distances_np = distances_np

    def distance_rows(self, support: Var, query: Var, hyper: Hyper) -> Var:
        n = hyper.n_way
        k = support.shape[-1] // n
        sims = autodiff.matmul(autodiff.transpose(autodiff.col_normalize(support)),
                               autodiff.col_normalize(query))    # NK x B
        # Row c of the averaging matrix holds 1/K over class c's K columns.
        mean = support.tape.const(np.kron(np.eye(n), np.full((1, k), 1.0 / k)))
        return autodiff.neg(autodiff.matmul(mean, sims))


HEADS = {cls.name: cls for cls in (RegressionHead, ProtoHead, CosineHead)}


def make_head(name: str):
    try:
        return HEADS[name]()
    except KeyError:
        raise ContractError(
            f"unknown head {name!r}; expected one of {sorted(HEADS)}") from None


def predict_np(distances: np.ndarray) -> np.ndarray:
    """1-based predicted labels: argmin distance over the class axis (the
    N of N x B or E x N x B), ties to the lowest index."""
    return np.argmin(distances, axis=-2) + 1
