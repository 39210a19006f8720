"""Reverse-mode automatic differentiation on a per-episode tape, and the
numeric kernels of the episode loss.

The tape is define-by-run: each op computes its forward value eagerly and
appends a node holding a closure that maps the output adjoint to
(input id, input adjoint) pairs.  ``backward`` walks the node list once in
reverse, which is a valid topological order because inputs always precede
the ops that consume them.  A node refers to its tape only weakly, so a
tape and its nodes are freed by reference counting as soon as the tape
goes out of scope, without waiting for the cyclic garbage collector.

A training step records three kinds of node: the parameter leaf
(``Tape.leaf``), the encoder (``encoder.forward``) and one episode loss
(``heads.episode_loss``), each through ``Tape.append``; ``add`` sums a
batch's losses.

The loss is composed of plain numpy kernels, each returning ``(value,
back)`` where ``back(g)`` maps the adjoint g of the value to the adjoints
of its array operands, so the loss node chains them by hand and scoring
calls them with no tape at all:

- one distance kernel per head, each mapping an M x NK support (N classes
  of K adjacent columns) and M x B queries to an N x B distance matrix,
  or (E, M, NK) and (E, M, B) episode stacks to (E, N, B), with a
  closed-form adjoint: ridge_residuals (the distance of every query to
  every class span, through one stacked Cholesky sweep that yields the
  inverse factor, and two matrix products for the K x M ridge operator,
  which the adjoint reuses instead of solving again), centroid_distances
  (to every class mean) and mean_cosine (the negated mean cosine
  similarity to every class's columns);
- cross_entropy (a stabilized log-sum-exp inside);
- the regression head's penalty: subspace_overlap.

Adjoints are never accumulated in place: ``backward`` stores the first
one as it comes and sums later ones into a new array, so an adjoint that
is another node's adjoint (add) needs no copy.
"""
from __future__ import annotations

import weakref
from typing import Callable

import numpy as np

from . import linalg
from .errors import ContractError, DegenerateSubspaceError, ShapeError

Adjoint = Callable[[np.ndarray], list[tuple[int, np.ndarray]]]


class Var:
    """One tape node: a value plus the recipe to push adjoints backward."""

    __slots__ = ("_tape", "id", "op", "value", "grad", "_backward")

    def __init__(self, tape_ref: "weakref.ref[Tape]", node_id: int, op: str,
                 value: np.ndarray, backward: Adjoint | None):
        self._tape = tape_ref
        self.id = node_id
        self.op = op
        self.value = value
        self.grad: np.ndarray | None = None
        self._backward = backward

    @property
    def tape(self) -> "Tape":
        tape = self._tape()
        if tape is None:
            raise ContractError("the tape this variable was recorded on is gone")
        return tape

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def item(self) -> float:
        if self.value.shape != (1, 1):
            raise ShapeError(f"item() expects a 1x1 value, got {self.value.shape}")
        return float(self.value[0, 0])

    def __repr__(self) -> str:
        return f"Var(id={self.id}, op={self.op!r}, shape={self.value.shape})"


class Tape:
    """Append-only record of one forward computation."""

    __slots__ = ("nodes", "_ref", "__weakref__")

    def __init__(self):
        self.nodes: list[Var] = []
        self._ref = weakref.ref(self)

    def append(self, op: str, value: np.ndarray, backward: Adjoint | None) -> Var:
        """Record a node valued ``value`` whose ``backward`` maps its output
        adjoint to (input id, input adjoint) pairs; None for a leaf."""
        var = Var(self._ref, len(self.nodes), op, value, backward)
        self.nodes.append(var)
        return var

    def leaf(self, values) -> Var:
        """Enter a tensor whose gradient is wanted (a parameter) onto the tape."""
        return self.append("leaf", linalg.as_stack(values), None)


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
    """A distance kernel's operands must match in every axis but the columns."""
    if query.shape[:-1] != support.shape[:-1]:
        raise ShapeError(
            f"queries {query.shape} do not match the support's rows {support.shape}")


def _residual_adjoint(r: np.ndarray, d: np.ndarray, g: np.ndarray) -> np.ndarray:
    """``r g / d``: the adjoint of residual columns r from that of their
    norms d, with the class axis of d in front of r's rows; 0 where d = 0."""
    rb = r * (g / np.where(d > 0.0, d, 1.0))[..., None, :]
    if (d == 0.0).any():
        rb = np.where((d > 0.0)[..., None, :], rb, 0.0)
    return rb


# -- the tape's one structural op ---------------------------------------------


def add(a: Var, b: Var) -> Var:
    if a.shape != b.shape:
        raise ShapeError(f"add expects matching shapes, got {a.shape} and {b.shape}")
    tape = a.tape
    if b.tape is not tape:
        raise ContractError("ops cannot mix variables from different tapes")

    def back(g):
        return [(a.id, g), (b.id, g)]

    return tape.append("add", a.value + b.value, back)


# -- the loss kernels: (value, back) ------------------------------------------


def cross_entropy(d: np.ndarray, rows: np.ndarray):
    """Mean over the columns j of an N x B distance matrix d of
    ``d[rows[j], j] + logsumexp(-d[:, j])`` (``rows`` 0-based, checked by
    the caller), as a 1 x 1 value whose ``back`` gives the adjoint
    ``(onehot - softmax(-d)) / B`` of d.  The float operations follow the
    order of the pick, negate, log-sum-exp, add, sum and scale ops this
    kernel stands for.
    """
    b = d.shape[1]
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

    ``P_c = (S_c^T S_c + lambda1 I)^{-1} S_c^T`` is the K x M ridge operator
    ``L^{-T} L^{-1} S_c^T``: one stacked Cholesky sweep gives the inverse
    factor L^{-1}, and the solve on M columns is two matrix products.  With
    ``C = P Q``, ``R = Q - S C``, ``d`` the column norms of R and
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


def subspace_overlap(a: np.ndarray, n: int):
    """The sum of squares of the off-diagonal K x K blocks of ``X = V^T V``,
    V the M x NK matrix ``a`` with each of its ``n`` K-column blocks scaled
    to unit Frobenius norm, as a 1 x 1 value whose ``back`` gives the
    adjoint ``4 g V X`` of a, taken back through the scaling.  An all-zero
    block has no direction and is refused.
    """
    m, width = a.shape
    shape = _split(a.shape, n)
    av = a.reshape(shape)
    norms = np.sqrt(np.sum(av * av, axis=(0, 2), keepdims=True))
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise DegenerateSubspaceError(
            f"degenerate class subspace: class {zero[0] + 1} has an all-zero "
            "support matrix")
    y = av / norms
    v = y.reshape(m, width)
    x = np.ascontiguousarray(v.T) @ v
    own = np.arange(n)
    x.reshape(n, shape[-1], n, shape[-1])[own, :, own, :] = 0.0

    def back(g):
        gv = ((4.0 * float(g[0, 0])) * (v @ x)).reshape(shape)
        dots = np.sum(y * gv, axis=(0, 2), keepdims=True)
        return ((gv - y * dots) / norms).reshape(m, width)

    return np.array([[np.sum(x * x)]]), back


def backward(tape: Tape, loss: Var) -> None:
    """Accumulate d(loss)/d(node) into ``.grad`` for every node at or before
    ``loss`` (zeros for nodes the loss does not depend on).

    One reverse pass suffices: a node's consumers come after it on the
    tape.  Repeated calls recompute every ``.grad``, so they are idempotent.
    Gradients may share memory with one another; treat them as read-only.
    """
    if loss.tape is not tape:
        raise ContractError("loss variable does not belong to this tape")
    if loss.value.shape != (1, 1):
        raise ContractError(f"backward needs a scalar loss, got shape {loss.value.shape}")

    grads: dict[int, np.ndarray] = {loss.id: np.ones((1, 1))}
    for var in reversed(tape.nodes[: loss.id + 1]):
        g = grads.pop(var.id, None)
        if g is None:
            var.grad = np.zeros_like(var.value)
            continue
        var.grad = g
        if var._backward is None:
            continue
        for input_id, contribution in var._backward(g):
            seen = grads.get(input_id)
            # Never in place: ``seen`` may be another node's adjoint or a view of it.
            grads[input_id] = contribution if seen is None else seen + contribution
