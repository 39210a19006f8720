"""Distance heads: subspace-regression classification plus two baselines.

The regression head represents each class by the span of its embedded
support columns S (M x K).  A query embedding e is scored by the ridge
regression residual

    d(e, S) = || e - S (S^T S + lam1 I)^{-1} S^T e ||_2

computed in coefficient form: C = (S^T S + lam1 I)^{-1} S^T Q is a K x K
solve for all query columns Q at once, and the distance is the column
norm of Q - S C.  Class posteriors are a softmax over negated distances,
and the training loss adds a pairwise subspace-orthogonalization penalty

    sum_{i != j} ||S_i^T S_j||_F^2 / (||S_i||_F^2 ||S_j||_F^2)

over ordered pairs.  Prototype (distance to the support mean) and cosine
(mean negated cosine similarity) heads provide baselines under the same
episode protocol.

Each head writes its distance math once, as ``distance_rows`` on tape
ops.  Training differentiates it; ``distances_np`` runs the same ops on a
throwaway tape and returns the values, with no backward pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff, linalg
from .autodiff import Tape, Var
from .errors import ContractError, DegenerateSubspaceError, ShapeError


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
        if self.lambda1 < 0.0 or self.lambda2 < 0.0:
            raise ContractError("lambda1 and lambda2 must be nonnegative")


@dataclass
class ClassSubspace:
    """Per-class support matrix S, its transpose, and the ridge Gram matrix."""

    class_id: int
    s: Var        # M x K
    st: Var       # K x M
    gram: Var     # K x K, S^T S + lambda1 I


def build_subspace(support_embeds: Var, lambda1: float, class_id: int = 0) -> ClassSubspace:
    """S, S^T and S^T S + lambda1 I, recorded on the tape.

    With lambda1 > 0 the Gram matrix is positive definite for any S.  With
    lambda1 = 0 the caller guarantees S has full column rank, so M >= K is
    required; a rank-deficient S then surfaces as a conditioning error
    from the solve.
    """
    s = support_embeds
    m, k = s.shape
    if lambda1 == 0.0 and m < k:
        raise ContractError(
            f"lambda1 = 0 needs embedding dim >= shots, got M={m} < K={k}")
    st = autodiff.transpose(s)
    gram = autodiff.matmul(st, s)
    if lambda1 != 0.0:
        gram = autodiff.add_diag(gram, lambda1)
    return ClassSubspace(class_id, s, st, gram)


def build_projector_np(s: np.ndarray, lambda1: float) -> np.ndarray:
    """P = S (S^T S + lambda1 I)^{-1} S^T: the M x M projector in plain numpy.

    Nothing scores with it; it is the reference for the projection-law
    checks, since ||e - P e|| is the regression distance.
    """
    s = linalg.as_matrix(s)
    gram = s.T @ s
    if lambda1 != 0.0:
        gram = gram + lambda1 * np.eye(s.shape[1])
    return s @ linalg.solve_spd(gram, linalg.transpose(s))


def regression_distance_rows(subs: Sequence[ClassSubspace], query: Var) -> Var:
    """N x B matrix of ridge residual norms, one row per class subspace.

    Per class, C = (S^T S + lambda1 I)^{-1} S^T Q is one K x K solve for
    every query column, and the row is the column norms of Q - S C.
    """
    rows = []
    for sub in subs:
        coeff = autodiff.solve_spd(sub.gram, autodiff.matmul(sub.st, query))
        resid = autodiff.sub(query, autodiff.matmul(sub.s, coeff))
        rows.append(autodiff.col_norms(resid))
    return autodiff.vstack(rows)


def softmax_neg_np(distances: np.ndarray) -> np.ndarray:
    """exp(-d) / sum exp(-d) along axis 0, stabilized."""
    neg = -linalg.as_matrix(distances)
    m = np.max(neg, axis=0, keepdims=True)
    e = np.exp(neg - m)
    return e / np.sum(e, axis=0, keepdims=True)


def ortho_penalty(subs: Sequence[ClassSubspace]) -> Var:
    """Ordered-pair sum of ||S_i^T S_j||_F^2 / (||S_i||_F^2 ||S_j||_F^2).

    The summand is symmetric in (i, j), so the ordered sum is twice the
    unordered sum; we compute each unordered pair once and scale by 2.
    """
    if len(subs) < 2:
        raise ContractError(f"penalty needs at least 2 subspaces, got {len(subs)}")
    norms_sq = []
    for sub in subs:
        nsq = autodiff.frobenius_norm_sq(sub.s)
        if nsq.value[0, 0] == 0.0:
            raise DegenerateSubspaceError(
                f"class {sub.class_id} has an all-zero support matrix")
        norms_sq.append(nsq)
    total: Var | None = None
    for i in range(len(subs)):
        for j in range(i + 1, len(subs)):
            cross = autodiff.frobenius_norm_sq(autodiff.matmul(subs[i].st, subs[j].s))
            term = autodiff.div(cross, autodiff.mul(norms_sq[i], norms_sq[j]))
            total = term if total is None else autodiff.add(total, term)
    return autodiff.scale(total, 2.0)


def ortho_penalty_np(supports: Sequence[np.ndarray]) -> float:
    """Tape-free double-loop reference for ortho_penalty (ordered pairs)."""
    total = 0.0
    norms = [linalg.frobenius_norm_sq(s) for s in supports]
    for i, si in enumerate(supports):
        for j, sj in enumerate(supports):
            if i == j:
                continue
            total += linalg.frobenius_norm_sq(si.T @ sj) / (norms[i] * norms[j])
    return total


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
    1-based class indices of length B.
    """
    if n_way < 2:
        raise ContractError(f"a posterior needs at least 2 classes, got {n_way}")
    n, b = dist_matrix.shape
    if n != n_way:
        raise ShapeError(f"distance matrix has {n} rows for {n_way} classes")
    rows = _check_labels(labels, n_way, b)
    picked = autodiff.pick(dist_matrix, rows)
    lse = autodiff.lse_cols(autodiff.neg(dist_matrix))
    return autodiff.scale(autodiff.sum_all(autodiff.add(picked, lse)), 1.0 / b)


def episode_loss(query_embeds: Var, labels, subs: Sequence[ClassSubspace],
                 hyper: Hyper) -> tuple[Var, Var]:
    """Mean negative log posterior over all queries plus the weighted penalty.

    Returns the loss and the N x B distance matrix it was computed from.
    """
    dist = regression_distance_rows(subs, query_embeds)
    loss = cross_entropy_from_distances(dist, labels, hyper.n_way)
    if hyper.lambda2 != 0.0:
        loss = autodiff.add(loss, autodiff.scale(ortho_penalty(subs), hyper.lambda2))
    return loss, dist


# -- heads -------------------------------------------------------------------
#
# A head's ``distance_rows`` maps K-column support blocks (one per class)
# and the M x B queries to an N x B distance matrix on the tape.
# ``episode_loss`` returns (loss, that distance matrix); ``distances_np``
# evaluates ``distance_rows`` on numpy inputs.  Every head defines both of
# the latter in its own class body: perfbench's tracer patches them there.


def _subspaces(support_cols: Sequence[Var], lambda1: float) -> list[ClassSubspace]:
    return [build_subspace(s, lambda1, class_id=i + 1) for i, s in enumerate(support_cols)]


def _untaped(distance_rows, support_cols: Sequence[np.ndarray], query: np.ndarray,
             hyper: Hyper) -> np.ndarray:
    """Values of a head's tape ops, recorded on a throwaway tape."""
    tape = Tape()
    return distance_rows([tape.leaf(s) for s in support_cols], tape.leaf(query),
                         hyper).value


class RegressionHead:
    """Classify by regression-error distance to class subspaces."""

    name = "regression"

    def distance_rows(self, support_cols: Sequence[Var], query: Var,
                      hyper: Hyper) -> Var:
        return regression_distance_rows(_subspaces(support_cols, hyper.lambda1), query)

    def episode_loss(self, support_cols: Sequence[Var], query: Var,
                     labels, hyper: Hyper) -> tuple[Var, Var]:
        return episode_loss(query, labels, _subspaces(support_cols, hyper.lambda1), hyper)

    def distances_np(self, support_cols: Sequence[np.ndarray], query: np.ndarray,
                     hyper: Hyper) -> np.ndarray:
        return _untaped(self.distance_rows, support_cols, query, hyper)


class ProtoHead:
    """Classify by distance to the per-class support centroid."""

    name = "proto"

    def distance_rows(self, support_cols: Sequence[Var], query: Var,
                      hyper: Hyper) -> Var:
        rows = []
        for s in support_cols:
            k = s.shape[1]
            ones = s.tape.leaf(np.full((k, 1), 1.0 / k))
            centroid = autodiff.matmul(s, ones)
            rows.append(autodiff.col_norms(
                autodiff.add_col(query, autodiff.neg(centroid))))
        return autodiff.vstack(rows)

    def episode_loss(self, support_cols: Sequence[Var], query: Var,
                     labels, hyper: Hyper) -> tuple[Var, Var]:
        dist = self.distance_rows(support_cols, query, hyper)
        return cross_entropy_from_distances(dist, labels, hyper.n_way), dist

    def distances_np(self, support_cols: Sequence[np.ndarray], query: np.ndarray,
                     hyper: Hyper) -> np.ndarray:
        return _untaped(self.distance_rows, support_cols, query, hyper)


class CosineHead:
    """Classify by mean cosine similarity, negated to act as a distance."""

    name = "cosine"

    def distance_rows(self, support_cols: Sequence[Var], query: Var,
                      hyper: Hyper) -> Var:
        q_hat = autodiff.col_normalize(query)
        rows = []
        for s in support_cols:
            k = s.shape[1]
            s_hat = autodiff.col_normalize(s)
            sims = autodiff.matmul(autodiff.transpose(s_hat), q_hat)  # K x B
            ones = s.tape.leaf(np.full((1, k), 1.0 / k))
            rows.append(autodiff.neg(autodiff.matmul(ones, sims)))
        return autodiff.vstack(rows)

    def episode_loss(self, support_cols: Sequence[Var], query: Var,
                     labels, hyper: Hyper) -> tuple[Var, Var]:
        dist = self.distance_rows(support_cols, query, hyper)
        return cross_entropy_from_distances(dist, labels, hyper.n_way), dist

    def distances_np(self, support_cols: Sequence[np.ndarray], query: np.ndarray,
                     hyper: Hyper) -> np.ndarray:
        return _untaped(self.distance_rows, support_cols, query, hyper)


HEADS = {cls.name: cls for cls in (RegressionHead, ProtoHead, CosineHead)}


def make_head(name: str):
    try:
        return HEADS[name]()
    except KeyError:
        raise ContractError(
            f"unknown head {name!r}; expected one of {sorted(HEADS)}") from None


def predict_np(distances: np.ndarray) -> np.ndarray:
    """1-based predicted labels: argmin distance, ties to the lowest index."""
    return np.argmin(distances, axis=0) + 1
