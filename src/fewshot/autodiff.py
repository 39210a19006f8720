"""Reverse-mode automatic differentiation on a per-episode tape.

The tape is define-by-run: each op computes its forward value eagerly and
appends a node holding the input ids and a closure that maps the output
adjoint to input adjoints.  ``backward`` walks the node list once in
reverse, which is a valid topological order because inputs always precede
the ops that consume them.  A node refers to its tape only weakly, so a
tape and its nodes are freed by reference counting as soon as the tape
goes out of scope, without waiting for the cyclic garbage collector.

Values are matrices or stacks of matrices (see ``linalg``).  The op set
is exactly what the encoder, the heads and the trainer record:

- dense: one encoder layer ``act(W x + b)`` as a single node, valued by
  ``dense_np`` (which ``encoder.embed_np`` calls too);
- structure: add, scale and col_slice (the support and query columns of
  an embedded episode);
- the episode loss: cross_entropy (a stabilized log-sum-exp inside);
- one distance node per head, each mapping an M x NK support (N classes
  of K adjacent columns) and M x B queries to an N x B distance matrix,
  or (E, M, NK) and (E, M, B) episode stacks to (E, N, B), with a
  closed-form adjoint: ridge_residuals (the distance of every query to
  every class span, through one stacked Cholesky sweep that yields the
  inverse factor, and two matrix products for the K x M ridge operator,
  which the adjoint reuses instead of solving again), centroid_distances
  (to every class mean) and mean_cosine (the negated mean cosine
  similarity to every class's columns);
- the regression head's penalty: subspace_overlap.

Constants (``Tape.const``: an input batch) get no adjoint: an op with
several operands computes none for a constant one, and ``backward``
leaves a constant's ``.grad`` as None (a node the loss does not depend
on gets zeros).  Adjoints are never accumulated in place: ``backward``
stores the first one as it comes and sums later ones into a new array,
so an adjoint that is another node's adjoint (add) needs no copy.

Evaluation records the same ops on a throwaway tape and reads ``.value``;
nothing forces a backward pass.
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

    def _append(self, op: str, value: np.ndarray, backward: Adjoint | None) -> Var:
        var = Var(self._ref, len(self.nodes), op, value, backward)
        self.nodes.append(var)
        return var

    def leaf(self, values) -> Var:
        """Enter a tensor whose gradient is wanted (a parameter) onto the tape."""
        return self._append("leaf", linalg.as_stack(values), None)

    def const(self, values) -> Var:
        """Enter a tensor that gets no adjoint (see the module docstring)."""
        return self._append("const", linalg.as_stack(values), None)


def _tape_of(*vars_: Var) -> Tape:
    tape = vars_[0].tape
    for v in vars_[1:]:
        if v.tape is not tape:
            raise ContractError("ops cannot mix variables from different tapes")
    return tape


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


def _episode_tape(support: Var, query: Var) -> Tape:
    """The tape of a distance node's operands, whose rows must match."""
    tape = _tape_of(support, query)
    if query.shape[:-1] != support.shape[:-1]:
        raise ShapeError(
            f"queries {query.shape} do not match the support's rows {support.shape}")
    return tape


def _residual_adjoint(r: np.ndarray, d: np.ndarray, g: np.ndarray) -> np.ndarray:
    """``r g / d``: the adjoint of residual columns r from that of their
    norms d, with the class axis of d in front of r's rows; 0 where d = 0."""
    rb = r * (g / np.where(d > 0.0, d, 1.0))[..., None, :]
    if (d == 0.0).any():
        rb = np.where((d > 0.0)[..., None, :], rb, 0.0)
    return rb


def _live(*operands) -> list[tuple[int, np.ndarray]]:
    """(id, adjoint) for each (var, adjoint thunk) whose var is not a constant."""
    return [(v.id, adjoint()) for v, adjoint in operands if v.op != "const"]


# -- elementwise and structural ops -----------------------------------------


def add(a: Var, b: Var) -> Var:
    if a.shape != b.shape:
        raise ShapeError(f"add expects matching shapes, got {a.shape} and {b.shape}")
    tape = _tape_of(a, b)

    def back(g):
        return _live((a, lambda: g), (b, lambda: g))

    return tape._append("add", a.value + b.value, back)


def scale(a: Var, c: float) -> Var:
    c = float(c)

    def back(g):
        return [(a.id, g * c)]

    return a.tape._append("scale", a.value * c, back)


def col_slice(a: Var, start: int, stop: int) -> Var:
    if not (0 <= start < stop <= a.shape[1]):
        raise ShapeError(f"column slice [{start}:{stop}] out of range for {a.shape}")
    shape = a.shape

    def back(g):
        full = np.zeros(shape)
        full[:, start:stop] = g
        return [(a.id, full)]

    return a.tape._append("col_slice", np.ascontiguousarray(a.value[:, start:stop]), back)


# -- one encoder layer -------------------------------------------------------


def dense_np(w: np.ndarray, b: np.ndarray, x: np.ndarray, activation: str) -> np.ndarray:
    """act(W x + b), b an out x 1 column; act is "tanh", "relu" or "none"."""
    h = w @ x
    h += b
    if activation == "tanh":
        np.tanh(h, out=h)
    elif activation == "relu":
        np.maximum(h, 0.0, out=h)
    elif activation != "none":
        raise ContractError(f"unknown activation {activation!r}")
    return h


def dense(w: Var, b: Var, x: Var, activation: str) -> Var:
    """One encoder layer, ``dense_np`` as one node.  The relu gradient at
    exactly 0 is 0; a constant x (the input batch) costs no ``W^T g``."""
    if w.shape[1] != x.shape[0] or b.shape != (w.shape[0], 1):
        raise ShapeError(
            f"dense expects W (out x in), b (out x 1) and x (in x B), got "
            f"{w.shape}, {b.shape} and {x.shape}")
    tape = _tape_of(w, b, x)
    wv, xv = w.value, x.value
    out = dense_np(wv, b.value, xv, activation)

    def back(g):
        if activation == "tanh":
            g = g * (1.0 - out * out)
        elif activation == "relu":
            g = g * (out > 0.0)
        return _live((w, lambda: g @ xv.T), (b, lambda: g.sum(axis=1, keepdims=True)),
                     (x, lambda: wv.T @ g))

    return tape._append("dense", out, back)


# -- the episode loss --------------------------------------------------------


def cross_entropy(a: Var, rows: np.ndarray) -> Var:
    """Mean over the columns j of an N x B distance matrix d of
    ``d[rows[j], j] + logsumexp(-d[:, j])`` (``rows`` 0-based, checked by
    the caller), as one node with adjoint ``(onehot - softmax(-d)) / B``.
    The float operations follow the order of the pick, negate,
    log-sum-exp, add, sum and scale ops this node stands for.
    """
    d = a.value
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
        return [(a.id, out)]

    return a.tape._append("cross_entropy", np.array([[float(np.sum(per_column))]]) * c,
                          back)


# -- the distance nodes ------------------------------------------------------


def centroid_distances(support: Var, query: Var, n: int) -> Var:
    """N x B distances ``||q - c||`` of the M x B queries to the means c of
    the ``n`` K-column class blocks of the M x NK support, as one node;
    (E, M, NK) and (E, M, B) episode stacks give (E, N, B).

    With ``R = q - c`` and ``Rb = R g / d`` (0 where d = 0), the adjoint
    is ``Qb = Rb`` summed over the classes and ``Sb_c = -Rb / K`` summed
    over the queries, the same for each of class c's K columns.
    """
    tape = _episode_tape(support, query)
    s = _class_stack(support.value, n)                          # (..., N, M, K)
    k = s.shape[-1]
    r = query.value[..., None, :, :] - s @ np.full((k, 1), 1.0 / k)
    d = np.sqrt(np.sum(r * r, axis=-2))

    def back(g):
        rb = _residual_adjoint(r, d, g)
        cb = rb.sum(axis=-1) * (-1.0 / k)                      # (..., N, M)
        return _live((support, lambda: np.repeat(_swap(cb), k, axis=-1)),
                     (query, lambda: rb.sum(axis=-3)))

    return tape._append("centroid_distances", d, back)


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


def mean_cosine(support: Var, query: Var, n: int) -> Var:
    """N x B negated mean cosine similarities of the M x B queries to the
    columns of each of the ``n`` K-column class blocks of the M x NK
    support, as one node; (E, M, NK) and (E, M, B) episode stacks give
    (E, N, B).  An all-zero column has similarity 0 and a zero adjoint.

    The NK x B similarities of the unit columns are averaged by an N x NK
    matrix whose row c holds 1/K over class c's K columns; the adjoint goes
    back through both products and the column normalizations.
    """
    tape = _episode_tape(support, query)
    k = _split(support.shape, n)[-1]
    ys, s_norms = _unit_columns(support.value)
    yq, q_norms = _unit_columns(query.value)
    yst = np.ascontiguousarray(_swap(ys))                       # (..., NK, M)
    sims = yst @ yq                                             # (..., NK, B)
    mean = np.kron(np.eye(n), np.full((1, k), 1.0 / k))        # N x NK

    def back(g):
        gs = _swap(mean) @ -g
        return _live(
            (support, lambda: _unit_columns_adjoint(
                ys, s_norms, np.ascontiguousarray(_swap(gs @ _swap(yq))))),
            (query, lambda: _unit_columns_adjoint(yq, q_norms, _swap(yst) @ gs)))

    return tape._append("mean_cosine", -(mean @ sims), back)


def ridge_residuals(support: Var, query: Var, n: int, lambda1: float) -> Var:
    """N x B ridge residual norms ``||Q - S_c P_c Q||`` of the M x B queries Q
    to the ``n`` K-column class blocks S_c of the M x NK support, as one
    node; (E, M, NK) and (E, M, B) episode stacks give (E, N, B).

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
    tape = _episode_tape(support, query)
    s = _class_stack(support.value, n)                          # (..., N, M, K)
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
    q = query.value[..., None, :, :]
    c = p @ q
    r = s @ c
    np.subtract(q, r, out=r)
    d = np.sqrt(np.sum(r * r, axis=-2))

    def back(g):
        rb = _residual_adjoint(r, d, g)
        w = -(p @ rb)
        t = s @ w
        t += rb
        return _live(
            (support, lambda: np.swapaxes(r @ _swap(w) - t @ _swap(c), -3, -2)
             .reshape(support.shape)),
            (query, lambda: t.sum(axis=-3)))

    return tape._append("ridge_residuals", d, back)


def subspace_overlap(a: Var, n: int) -> Var:
    """The sum of squares of the off-diagonal K x K blocks of ``X = V^T V``,
    V the M x NK matrix ``a`` with each of its ``n`` K-column blocks scaled
    to unit Frobenius norm, as one node with adjoint ``4 g V X`` taken back
    through the scaling.  An all-zero block has no direction and is refused.
    """
    m, width = a.shape
    shape = _split(a.shape, n)
    av = a.value.reshape(shape)
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
        return [(a.id, ((gv - y * dots) / norms).reshape(m, width))]

    return a.tape._append("subspace_overlap", np.array([[np.sum(x * x)]]), back)


def backward(tape: Tape, loss: Var) -> None:
    """Accumulate d(loss)/d(node) into ``.grad`` for every node at or before
    ``loss`` (None for constants, zeros for nodes the loss does not depend on).

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
        if var.op == "const":
            continue
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
