"""Distance heads: subspace-regression classification plus two baselines,
and the numeric kernels of the episode loss.

An N-way K-shot episode's embedded support arrives as one M x NK block U:
class c's K columns sit side by side, in columns (c-1)K to cK-1.  Every
head scores all N classes at once, with no loop over classes: its
distance is one kernel with a closed-form adjoint.  The kernels are plain
functions of arrays that return ``(value, back)``, where ``back(g)`` maps
the adjoint g of the value to the adjoints of its array operands:

- ``ridge_residuals``, the regression head's distance.  Class c is the
  span of its columns S_c (M x K), and a query embedding e is scored by
  the ridge regression residual

      d(e, S_c) = || e - S_c (S_c^T S_c + lam1 I)^{-1} S_c^T e ||_2

  computed through the K x M ridge operator P_c = (S_c^T S_c + lam1 I)^{-1}
  S_c^T = W_c^T W_c S_c^T (one stacked Cholesky sweep for all classes
  yields the inverse factors W_c, and the rest is two matrix products) as
  the column norms of Q - S_c P_c Q for all query columns Q at once; the
  adjoint reuses P instead of solving again.
- ``centroid_distances`` (the prototype baseline: the distance to each
  class's support mean) and ``mean_cosine`` (the cosine baseline: the
  negated mean cosine similarity to each class's columns).
- ``cross_entropy``: the mean negative log posterior of the 1-based query
  labels under a softmax over negated distances, with a stabilized
  log-sum-exp inside.
- ``ortho_penalty``, the regression head's pairwise
  subspace-orthogonalization penalty

      sum_{i != j} ||S_i^T S_j||_F^2 / (||S_i||_F^2 ||S_j||_F^2)

  over ordered pairs: the squared off-diagonal K x K blocks of V^T V,
  where V is U with every class block scaled to unit Frobenius norm.

Each head writes its distance once, as ``distance_rows``: a call to its
kernel.  Training takes an episode's whole loss from ``episode_loss``,
which returns ``(loss, distances, back)`` with a ``back`` that chains the
distance, cross-entropy and penalty adjoints by hand; ``distances_np``
takes the distance kernel's value alone.  The distance kernels also take
a leading episode axis: validation and evaluation score a chunk of E
episodes at once, as an (E, M, NK) support stack and (E, M, B) queries,
and get (E, N, B) distances back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import ContractError, DegenerateSubspaceError, NumericalError, ShapeError


@dataclass
class Hyper:
    """Episode-shape counts and the two loss hyperparameters, checked when
    built: a message starts with the field and gives the value, as in
    "k_shot must be >= 1, got 0" or "lambda2 must be finite and nonnegative"."""

    n_way: int = 5
    k_shot: int = 5
    q_queries: int = 16
    lambda1: float = 1e-3
    lambda2: float = 1e-2

    def __post_init__(self):
        for name, floor in (("n_way", 2), ("k_shot", 1), ("q_queries", 1)):
            if getattr(self, name) < floor:
                raise ContractError(f"{name} must be >= {floor}, got {getattr(self, name)}")
        for name, value in (("lambda1", self.lambda1), ("lambda2", self.lambda2)):
            if not (math.isfinite(value) and value >= 0.0):
                raise ContractError(f"{name} must be finite and nonnegative, got {value}")


_FLOAT_MAX = np.finfo(np.float64).max


def _swap(a: np.ndarray) -> np.ndarray:
    return np.swapaxes(a, -1, -2)


def _split(shape: tuple[int, ...], n: int) -> tuple[int, ...]:
    """(..., M, N, K): the shape of an (..., M, NK) value cut into n K-column blocks."""
    *lead, m, width = shape
    if n < 1 or width % n:
        raise ShapeError(f"cannot split {width} columns into {n} equal blocks")
    return (*lead, m, n, width // n)


def _class_stack(value: np.ndarray, n: int) -> np.ndarray:
    """The (..., N, M, K) contiguous stack of an (..., M, NK) value's blocks."""
    return np.ascontiguousarray(np.swapaxes(value.reshape(_split(value.shape, n)), -3, -2))


def _check_rows(support: np.ndarray, query: np.ndarray) -> None:
    """A distance kernel's operands must match in every axis but the columns,
    and their largest square times 4 M NK, which bounds every sum of squares
    a kernel takes, must be finite: an episode too large or infinite raises
    ``NumericalError`` (in a stack, at its position on the last leading
    axis), not a wrong distance.  A nan passes, to fail as a non-finite loss."""
    if query.shape[:-1] != support.shape[:-1]:
        raise ShapeError(
            f"queries {query.shape} do not match the support's rows {support.shape}")
    lead = support.shape[:-2]
    peak = np.maximum(np.abs(support).reshape(*lead, -1).max(-1),
                      np.abs(query).reshape(*lead, -1).max(-1))
    bad = peak > np.sqrt(_FLOAT_MAX / (4.0 * support.shape[-2] * support.shape[-1]))
    if bad.any():
        where = tuple(np.argwhere(bad)[0])
        raise NumericalError(
            f"embedding overflow: largest magnitude {float(peak[where]):.3e} is too "
            "large to square in the distance",
            episode_index=int(where[-1]) if where else None)


def _residual_adjoint(r: np.ndarray, d: np.ndarray, g: np.ndarray) -> np.ndarray:
    """``r g / d``: the adjoint of residual columns r from that of their
    norms d, with the class axis of d in front of r's rows; 0 where d = 0."""
    rb = r * (g / np.where(d > 0.0, d, 1.0))[..., None, :]
    if (d == 0.0).any():
        rb = np.where((d > 0.0)[..., None, :], rb, 0.0)
    return rb


# -- the loss kernels: (value, back) -----------------------------------------


def cross_entropy(d: np.ndarray, labels):
    """Mean over the columns j of an N x B distance matrix d of
    ``d[y_j - 1, j] + logsumexp(-d[:, j])``, y the B 1-based query labels,
    as a 1 x 1 value whose ``back`` gives the adjoint
    ``(onehot - softmax(-d)) / B`` of d.  Labels of another shape raise
    ``ShapeError``, labels outside 1..N ``ContractError``.  The float
    operations follow the order of the pick, negate, log-sum-exp, add, sum
    and scale ops this kernel stands for.
    """
    n, b = d.shape
    labels = np.asarray(labels, dtype=np.intp)
    if labels.shape != (b,):
        raise ShapeError(f"expected {b} query labels, got shape {labels.shape}")
    if labels.min() < 1 or labels.max() > n:
        raise ContractError(
            f"query labels must lie in 1..{n}, got range [{labels.min()}, {labels.max()}]")
    rows = labels - 1
    cols = np.arange(b)
    neg_d = -d
    m = np.max(neg_d, axis=0, keepdims=True)
    e = np.exp(neg_d - m)
    total = np.sum(e, axis=0, keepdims=True)
    soft = e / total
    per_column = d[rows, cols].reshape(1, b) + (m + np.log(total))
    c = 1.0 / b

    def back(g):
        s = float(g[0, 0]) * c
        out = np.zeros(d.shape)
        out[rows, cols] = s
        out -= soft * s
        return out

    return np.array([[float(np.sum(per_column))]]) * c, back


def centroid_distances(support: np.ndarray, query: np.ndarray, n: int):
    """N x B distances ``||q - c||`` of the M x B queries to the means c of
    the ``n`` K-column class blocks of the M x NK support; (E, M, NK) and
    (E, M, B) episode stacks give (E, N, B).  ``back`` gives the (support,
    query) adjoints.

    With ``R = q - c`` and ``Rb = R g / d`` (0 where d = 0), the adjoint
    is ``Qb = Rb`` summed over the classes and ``Sb_c = -Rb / K`` summed
    over the queries, the same for each of class c's K columns.
    """
    _check_rows(support, query)
    s = _class_stack(support, n)                                # (..., N, M, K)
    k = s.shape[-1]
    r = query[..., None, :, :] - s @ np.full((k, 1), 1.0 / k)
    d = np.sqrt(np.sum(r * r, axis=-2))

    def back(g):
        rb = _residual_adjoint(r, d, g)
        cb = rb.sum(axis=-1) * (-1.0 / k)                      # (..., N, M)
        return np.repeat(_swap(cb), k, axis=-1), rb.sum(axis=-3)

    return d, back


def _unit_columns(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``a`` with every column scaled to unit norm (a zero column stays
    zero), and the column norms."""
    norms = np.sqrt(np.sum(a * a, axis=-2, keepdims=True))
    return a / np.where(norms > 0.0, norms, 1.0), norms


def _unit_columns_adjoint(y: np.ndarray, norms: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The adjoint of ``_unit_columns``' input: g less its component along
    each unit column y, over the norm; 0 for a zero column."""
    out = (g - y * np.sum(y * g, axis=-2, keepdims=True)) / np.where(norms > 0.0, norms, 1.0)
    return np.where(norms > 0.0, out, 0.0) if (norms == 0.0).any() else out


def mean_cosine(support: np.ndarray, query: np.ndarray, n: int):
    """N x B negated mean cosine similarities of the M x B queries to the
    columns of each of the ``n`` K-column class blocks of the M x NK
    support; (E, M, NK) and (E, M, B) episode stacks give (E, N, B).  An
    all-zero column has similarity 0 and a zero adjoint.  ``back`` gives
    the (support, query) adjoints.

    The NK x B similarities of the unit columns are averaged by an N x NK
    matrix whose row c holds 1/K over class c's K columns; the adjoint goes
    back through both products and the column normalizations.
    """
    _check_rows(support, query)
    k = _split(support.shape, n)[-1]
    ys, s_norms = _unit_columns(support)
    yq, q_norms = _unit_columns(query)
    yst = np.ascontiguousarray(_swap(ys))                       # (..., NK, M)
    sims = yst @ yq                                             # (..., NK, B)
    mean = np.kron(np.eye(n), np.full((1, k), 1.0 / k))        # N x NK

    def back(g):
        gs = _swap(mean) @ -g
        return (_unit_columns_adjoint(ys, s_norms, np.ascontiguousarray(_swap(gs @ _swap(yq)))),
                _unit_columns_adjoint(yq, q_norms, _swap(yst) @ gs))

    return -(mean @ sims), back


def ridge_residuals(support: np.ndarray, query: np.ndarray, n: int, lambda1: float):
    """N x B ridge residual norms ``||Q - S_c P_c Q||`` of the M x B queries Q
    to the ``n`` K-column class blocks S_c of the M x NK support; (E, M, NK)
    and (E, M, B) episode stacks give (E, N, B).  ``back`` gives the
    (support, query) adjoints.

    With the ridge operators ``P``, ``C = P Q``, ``R = Q - S C``, ``d`` the column norms of R and
    ``Rb = R g / d`` (0 where d = 0), the adjoint needs no second solve:
    ``W = -P Rb`` and ``T = Rb + S W`` give ``Sb = R W^T - T C^T`` and
    ``Qb = T`` summed over the classes.  With lambda1 = 0 every S_c must
    have full column rank, so M >= K is required, and a rank-deficient
    block fails the factorization with an error that names its class.
    """
    _check_rows(support, query)
    s = _class_stack(support, n)                                # (..., N, M, K)
    m, k = s.shape[-2:]
    if lambda1 == 0.0 and m < k:
        raise ContractError(
            f"lambda1 = 0 needs embedding dim >= shots, got M={m} < K={k}")
    # S^T S from a contiguous S^T, so a rank-deficient Gram matrix keeps its
    # exact zero pivot
    st = np.ascontiguousarray(_swap(s))
    gram = st @ s
    np.einsum("...ii->...i", gram)[...] += float(lambda1)      # the diagonal, in place
    p = linalg.solve_with_factor(linalg.cholesky(gram), st)    # (..., N, K, M)
    q = query[..., None, :, :]
    c = p @ q
    r = s @ c
    np.subtract(q, r, out=r)
    d = np.sqrt(np.sum(r * r, axis=-2))

    def back(g):
        rb = _residual_adjoint(r, d, g)
        w = -(p @ rb)
        t = s @ w
        t += rb
        return (np.swapaxes(r @ _swap(w) - t @ _swap(c), -3, -2).reshape(support.shape),
                t.sum(axis=-3))

    return d, back


def ortho_penalty(support: np.ndarray, n_way: int):
    """The penalty of the M x NK support cut into ``n_way`` K-column class
    blocks, as a 1 x 1 value whose ``back`` gives the adjoint ``4 g V X``
    of the support, with ``X = V^T V`` less its diagonal blocks, taken
    back through the scaling.  An all-zero block has no direction and is
    refused.
    """
    m, width = support.shape
    shape = _split(support.shape, n_way)
    av = support.reshape(shape)
    norms = np.sqrt(np.sum(av * av, axis=(0, 2), keepdims=True))
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise DegenerateSubspaceError(
            f"degenerate class subspace: class {zero[0] + 1} has an all-zero "
            "support matrix")
    y = av / norms
    v = y.reshape(m, width)
    x = np.ascontiguousarray(v.T) @ v
    own = np.arange(n_way)
    x.reshape(n_way, shape[-1], n_way, shape[-1])[own, :, own, :] = 0.0

    def back(g):
        gv = ((4.0 * float(g[0, 0])) * (v @ x)).reshape(shape)
        dots = np.sum(y * gv, axis=(0, 2), keepdims=True)
        return ((gv - y * dots) / norms).reshape(m, width)

    return np.array([[np.sum(x * x)]]), back


# -- heads -------------------------------------------------------------------
#
# A head's ``distance_rows`` maps the M x NK support block and the M x B
# queries, plain arrays, to ``(d, back)``: the N x B distance matrix, or
# (E, N, B) for (E, M, NK) and (E, M, B) episode stacks, and the kernel's
# adjoint.  ``episode_loss`` maps the encoder's output to one episode's
# whole loss, its distances and its ``back``; ``distances_np`` is
# ``distance_rows``' value alone.  Both are written once, below, and bound
# in each head's class body, not inherited, because perfbench's tracer
# patches a head's methods in ``vars(cls)``; the regression head passes
# its penalty weight.


def episode_loss(head, embedded: np.ndarray, labels, hyper: Hyper,
                 lambda2: float = 0.0):
    """The mean negative log posterior over an episode's queries, plus
    ``lambda2`` times the penalty of its support unless lambda2 is 0, of
    the M x (NK + B) embedding ``embedded`` (the support's NK columns,
    class by class, then the B queries), as ``(1 x 1 loss, N x B
    distances, back)``; ``back(g)`` is the adjoint of ``embedded``.

    ``back`` chains the kernels' adjoints by hand: the support columns get
    the penalty's adjoint plus the distance's, the query columns the
    distance's.
    """
    nk = hyper.n_way * hyper.k_shot
    labels = np.asarray(labels)
    if embedded.shape[1] != nk + labels.size:
        raise ShapeError(
            f"an embedded episode needs {nk} support plus {labels.size} query "
            f"columns, {nk + labels.size} in all, got {embedded.shape[1]}")
    support = np.ascontiguousarray(embedded[:, :nk])
    query = np.ascontiguousarray(embedded[:, nk:])
    dist, dist_back = head.distance_rows(support, query, hyper)
    loss, ce_back = cross_entropy(dist, labels)
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
        return out

    return loss, dist, back


def distances_np(head, support, query, hyper: Hyper) -> np.ndarray:
    """The value of the head's distance kernel alone."""
    return head.distance_rows(linalg.as_stack(support), linalg.as_stack(query), hyper)[0]


class RegressionHead:
    """Classify by regression-error distance to class subspaces."""

    name = "regression"
    distances_np = distances_np

    def distance_rows(self, support: np.ndarray, query: np.ndarray, hyper: Hyper):
        return ridge_residuals(support, query, hyper.n_way, hyper.lambda1)

    def episode_loss(self, embedded: np.ndarray, labels, hyper: Hyper):
        """The shared cross-entropy loss plus the weighted penalty."""
        return episode_loss(self, embedded, labels, hyper, hyper.lambda2)


class ProtoHead:
    """Classify by distance to the per-class support centroid."""

    name = "proto"
    episode_loss = episode_loss
    distances_np = distances_np

    def distance_rows(self, support: np.ndarray, query: np.ndarray, hyper: Hyper):
        return centroid_distances(support, query, hyper.n_way)


class CosineHead:
    """Classify by mean cosine similarity, negated to act as a distance."""

    name = "cosine"
    episode_loss = episode_loss
    distances_np = distances_np

    def distance_rows(self, support: np.ndarray, query: np.ndarray, hyper: Hyper):
        return mean_cosine(support, query, hyper.n_way)


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
