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
- structure: add, scale, neg, sub (broadcasting), transpose and matmul
  (on the last two axes; matmul broadcasts leading ones), col_slice,
  blocks (an M x NK matrix as an (N, M, K) stack of K-column class
  blocks, or an (E, M, NK) stack of episodes as (E, N, M, K)),
  expand_dims (a unit axis, so a stack of episodes' queries broadcasts
  against their class stacks); ops that broadcast sum each adjoint back
  to their input's shape in one helper, ``_unbroadcast``;
- reductions: col_norms, col_normalize and cross_entropy (the episode
  loss, a stabilized log-sum-exp inside);
- the regression head's two nodes: ridge_residuals (the distance of every
  query to every class span, through one stacked Cholesky factorization
  and one solve for the K x M ridge operator, whose closed-form adjoint
  reuses that operator instead of solving again) and subspace_overlap
  (the orthogonalization penalty).

Constants (``Tape.const``: an input batch, a centroid or averaging matrix)
get no adjoint: an op with several operands computes none for a constant
one, and a constant's ``.grad`` reads as zeros, like an unused node's.  Adjoints are
never accumulated in place: ``backward`` stores the first one as it comes
and sums later ones into a new array, so an adjoint that is another
node's adjoint (add, sub) or a view of it (blocks) needs no copy.

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


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum an adjoint over the axes that broadcasting added or stretched."""
    if g.shape == shape:
        return g
    g = g.sum(axis=tuple(range(g.ndim - len(shape))))
    stretched = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    return g.sum(axis=stretched, keepdims=True) if stretched else g


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


def sub(a: Var, b: Var) -> Var:
    """Elementwise difference; leading and unit axes broadcast."""
    tape = _tape_of(a, b)
    try:
        value = a.value - b.value
    except ValueError:
        raise ShapeError(f"sub cannot broadcast {a.shape} with {b.shape}") from None

    def back(g):
        return _live((a, lambda: _unbroadcast(g, a.shape)),
                     (b, lambda: -_unbroadcast(g, b.shape)))

    return tape._append("sub", value, back)


def scale(a: Var, c: float) -> Var:
    c = float(c)

    def back(g):
        return [(a.id, g * c)]

    return a.tape._append("scale", a.value * c, back)


def neg(a: Var) -> Var:
    return scale(a, -1.0)


def transpose(a: Var) -> Var:
    """Swap the last two axes."""

    def back(g):
        return [(a.id, np.ascontiguousarray(_swap(g)))]

    return a.tape._append("transpose", np.ascontiguousarray(_swap(a.value)), back)


def matmul(a: Var, b: Var) -> Var:
    """Matrix product over the last two axes; leading axes broadcast."""
    value = linalg.matmul(a.value, b.value)
    tape = _tape_of(a, b)
    av, bv = a.value, b.value

    def back(g):
        return _live((a, lambda: _unbroadcast(g @ _swap(bv), av.shape)),
                     (b, lambda: _unbroadcast(_swap(av) @ g, bv.shape)))

    return tape._append("matmul", value, back)


def col_slice(a: Var, start: int, stop: int) -> Var:
    if not (0 <= start < stop <= a.shape[1]):
        raise ShapeError(f"column slice [{start}:{stop}] out of range for {a.shape}")
    shape = a.shape

    def back(g):
        full = np.zeros(shape)
        full[:, start:stop] = g
        return [(a.id, full)]

    return a.tape._append("col_slice", np.ascontiguousarray(a.value[:, start:stop]), back)


def blocks(a: Var, n: int) -> Var:
    """An M x NK matrix as an (N, M, K) stack: block c is columns cK..cK+K-1.
    Leading axes carry through: an (E, M, NK) stack gives (E, N, M, K).

    In the heads the blocks are the N classes of an episode's support.
    """
    shape = a.shape

    def back(g):
        return [(a.id, np.swapaxes(g, -3, -2).reshape(shape))]

    return a.tape._append("blocks", _class_stack(a.value, n), back)


def expand_dims(a: Var, axis: int) -> Var:
    """``a`` with a new unit axis at ``axis``, as ``np.expand_dims`` places it."""
    shape = a.shape

    def back(g):
        return [(a.id, g.reshape(shape))]

    return a.tape._append("expand_dims", np.expand_dims(a.value, axis), back)


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


# -- norms and reductions ----------------------------------------------------


def col_norms(a: Var) -> Var:
    """Euclidean norm of every column: a lone M x B matrix gives a 1 x B
    row, an (N, M, B) stack an N x B matrix, an (E, N, M, B) stack an
    (E, N, B) one.  Zero columns get zero grad."""
    av = a.value
    norms = np.sqrt(np.sum(av * av, axis=-2, keepdims=True))

    def back(g):
        safe = np.where(norms > 0.0, norms, 1.0)
        out = av * (g.reshape(norms.shape) / safe)
        if (norms == 0.0).any():
            out = np.where(norms > 0.0, out, 0.0)
        return [(a.id, out)]

    value = norms if av.ndim == 2 else norms[..., 0, :]
    return a.tape._append("col_norms", value, back)


def col_normalize(a: Var) -> Var:
    """Scale every column to unit norm (zero columns pass through as zero)."""
    av = a.value
    norms = np.sqrt(np.sum(av * av, axis=-2, keepdims=True))
    safe = np.where(norms > 0.0, norms, 1.0)
    y = av / safe

    def back(g):
        dots = np.sum(y * g, axis=-2, keepdims=True)
        out = (g - y * dots) / safe
        if (norms == 0.0).any():
            out = np.where(norms > 0.0, out, 0.0)
        return [(a.id, out)]

    return a.tape._append("col_normalize", y, back)


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


# -- the regression head's two nodes -----------------------------------------


def ridge_residuals(support: Var, query: Var, n: int, lambda1: float) -> Var:
    """N x B ridge residual norms ``||Q - S_c P_c Q||`` of the M x B queries Q
    to the ``n`` K-column class blocks S_c of the M x NK support, as one
    node; (E, M, NK) and (E, M, B) episode stacks give (E, N, B).

    ``P_c = (S_c^T S_c + lambda1 I)^{-1} S_c^T`` is the K x M ridge operator:
    one stacked Cholesky factorization and one solve on M columns.  With
    ``C = P Q``, ``R = Q - S C``, ``d`` the column norms of R and
    ``Rb = R g / d`` (0 where d = 0), the adjoint needs no second solve:
    ``W = -P Rb`` and ``T = Rb + S W`` give ``Sb = R W^T - T C^T`` and
    ``Qb = T`` summed over the classes.  With lambda1 = 0 every S_c must
    have full column rank, so M >= K is required, and a rank-deficient
    block fails the factorization with an error that names its class.
    """
    tape = _tape_of(support, query)
    if query.shape[:-1] != support.shape[:-1]:
        raise ShapeError(
            f"queries {query.shape} do not match the support's rows {support.shape}")
    s = _class_stack(support.value, n)                          # (..., N, M, K)
    m, k = s.shape[-2:]
    if lambda1 == 0.0 and m < k:
        raise ContractError(
            f"lambda1 = 0 needs embedding dim >= shots, got M={m} < K={k}")
    # S^T S from a contiguous S^T, so a rank-deficient Gram matrix keeps its
    # exact zero pivot
    st = np.ascontiguousarray(_swap(s))
    gram = st @ s
    gram += float(lambda1) * np.eye(k)
    p = linalg.solve_with_factor(linalg.cholesky(gram), st)    # (..., N, K, M)
    q = query.value[..., None, :, :]
    c = p @ q
    r = s @ c
    np.subtract(q, r, out=r)
    d = np.sqrt(np.sum(r * r, axis=-2))

    def back(g):
        rb = r * (g / np.where(d > 0.0, d, 1.0))[..., None, :]
        if (d == 0.0).any():
            rb = np.where((d > 0.0)[..., None, :], rb, 0.0)
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
    ``loss`` (zeros for constants and for nodes the loss does not depend on).

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
        if g is None or var.op == "const":
            var.grad = np.zeros_like(var.value)
            continue
        var.grad = g
        if var._backward is None:
            continue
        for input_id, contribution in var._backward(g):
            seen = grads.get(input_id)
            # Never in place: ``seen`` may be another node's adjoint or a view of it.
            grads[input_id] = contribution if seen is None else seen + contribution
