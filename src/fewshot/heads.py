"""Distance heads: subspace-regression classification plus two baselines.

An N-way K-shot episode's embedded support arrives as one M x NK block U:
class c's K columns sit side by side, in columns (c-1)K to cK-1.  Every
head scores all N classes at once, with no loop over classes: its
distance is one kernel with a closed-form adjoint.

The regression head represents class c by the span of its columns S_c
(M x K).  A query embedding e is scored by the ridge regression residual

    d(e, S_c) = || e - S_c (S_c^T S_c + lam1 I)^{-1} S_c^T e ||_2

computed through the K x M ridge operator P_c = (S_c^T S_c + lam1 I)^{-1}
S_c^T = W_c^T W_c S_c^T (one stacked Cholesky sweep for all classes yields
the inverse factors W_c, and the rest is two matrix products) as the
column norms of Q - S_c P_c Q for all query columns Q at once: one
kernel, ``autodiff.ridge_residuals``, whose adjoint reuses P instead of
solving again.  Class posteriors are a softmax over negated distances, and
the training loss adds a pairwise subspace-orthogonalization penalty (the
``autodiff.subspace_overlap`` kernel)

    sum_{i != j} ||S_i^T S_j||_F^2 / (||S_i||_F^2 ||S_j||_F^2)

over ordered pairs: the squared off-diagonal K x K blocks of V^T V, where
V is U with every class block scaled to unit Frobenius norm.  Prototype
(distance to the support mean, ``autodiff.centroid_distances``) and
cosine (mean negated cosine similarity, ``autodiff.mean_cosine``) heads
provide baselines under the same episode protocol.

The kernels are plain functions of arrays that return ``(value, back)``.
Each head writes its distance once, as ``distance_rows``: a call to its
kernel.  Training records an episode's whole loss as one tape node,
``episode_loss``, whose adjoint chains the distance, cross-entropy and
penalty adjoints by hand; ``distances_np`` takes the distance kernel's
value, with no tape.  The kernels also take a leading episode axis:
validation and evaluation score a chunk of E episodes at once, as an
(E, M, NK) support stack and (E, M, B) queries, and get (E, N, B)
distances back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff, linalg
from .autodiff import Var
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


def ortho_penalty(support: np.ndarray, n_way: int):
    """Ordered-pair sum of ||S_i^T S_j||_F^2 / (||S_i||_F^2 ||S_j||_F^2),
    as ``(value, back)``.

    With every class block of the M x NK support scaled to unit Frobenius
    norm (V), the (i, j) K x K block of V^T V is S_i^T S_j / (||S_i|| ||S_j||),
    so the sum is the squared Frobenius norm of V^T V without its diagonal
    blocks: the ``autodiff.subspace_overlap`` kernel.
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


def cross_entropy_from_distances(dist_matrix: np.ndarray, labels: np.ndarray, n_way: int):
    """Mean over queries of d_true + logsumexp(-d), the negative log posterior,
    as ``(1 x 1 value, back)`` (``autodiff.cross_entropy``).

    ``dist_matrix`` is N x B with one column per query; ``labels`` are
    1-based class indices of length B.
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
# queries, plain arrays, to ``(d, back)``: the N x B distance matrix, or
# (E, N, B) for (E, M, NK) and (E, M, B) episode stacks, and the kernel's
# adjoint.  ``episode_loss`` records one episode's whole loss as one tape
# node on the encoder's output and returns (loss, distances);
# ``distances_np`` is ``distance_rows``' value, with no tape.  Both are
# written once, below, and bound in each head's class body, not
# inherited, because perfbench's tracer patches a head's methods in
# ``vars(cls)``; the regression head passes its penalty weight.


def episode_loss(head, embedded: Var, labels, hyper: Hyper,
                 lambda2: float = 0.0) -> tuple[Var, np.ndarray]:
    """The mean negative log posterior over an episode's queries, plus
    ``lambda2`` times the penalty of its support unless lambda2 is 0, as one
    node on the tape of the M x (NK + B) embedding ``embedded`` (the
    support's NK columns, class by class, then the B queries), and the
    N x B distances.

    The node's adjoint chains the kernels' adjoints by hand: the support
    columns get the penalty's adjoint plus the distance's, the query
    columns the distance's.
    """
    nk = hyper.n_way * hyper.k_shot
    labels = np.asarray(labels)
    if embedded.shape[1] != nk + labels.size:
        raise ShapeError(
            f"an embedded episode needs {nk} support plus {labels.size} query "
            f"columns, {nk + labels.size} in all, got {embedded.shape[1]}")
    support = np.ascontiguousarray(embedded.value[:, :nk])
    query = np.ascontiguousarray(embedded.value[:, nk:])
    dist, dist_back = head.distance_rows(support, query, hyper)
    loss, ce_back = cross_entropy_from_distances(dist, labels, hyper.n_way)
    if lambda2 != 0.0:
        penalty, penalty_back = ortho_penalty(support, hyper.n_way)
        loss = loss + penalty * lambda2

    def back(g):
        support_grad, query_grad = dist_back(ce_back(g))
        if lambda2 != 0.0:
            support_grad = penalty_back(g * lambda2) + support_grad
        out = np.empty(embedded.shape)
        out[:, :nk] = support_grad
        out[:, nk:] = query_grad
        return [(embedded.id, out)]

    return embedded.tape.append("episode_loss", loss, back), dist


def distances_np(head, support, query, hyper: Hyper) -> np.ndarray:
    """The value of the head's distance kernel, with no tape."""
    return head.distance_rows(linalg.as_stack(support), linalg.as_stack(query), hyper)[0]


class RegressionHead:
    """Classify by regression-error distance to class subspaces."""

    name = "regression"
    distances_np = distances_np

    def distance_rows(self, support: np.ndarray, query: np.ndarray, hyper: Hyper):
        return autodiff.ridge_residuals(support, query, hyper.n_way, hyper.lambda1)

    def episode_loss(self, embedded: Var, labels,
                     hyper: Hyper) -> tuple[Var, np.ndarray]:
        """The shared cross-entropy loss plus the weighted penalty."""
        return episode_loss(self, embedded, labels, hyper, hyper.lambda2)


class ProtoHead:
    """Classify by distance to the per-class support centroid."""

    name = "proto"
    episode_loss = episode_loss
    distances_np = distances_np

    def distance_rows(self, support: np.ndarray, query: np.ndarray, hyper: Hyper):
        return autodiff.centroid_distances(support, query, hyper.n_way)


class CosineHead:
    """Classify by mean cosine similarity, negated to act as a distance."""

    name = "cosine"
    episode_loss = episode_loss
    distances_np = distances_np

    def distance_rows(self, support: np.ndarray, query: np.ndarray, hyper: Hyper):
        return autodiff.mean_cosine(support, query, hyper.n_way)


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
