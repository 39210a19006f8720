"""Reverse-mode automatic differentiation on a per-episode tape.

The tape is define-by-run: each op computes its forward value eagerly and
appends a node holding the input ids and a closure that maps the output
adjoint to input adjoints.  ``backward`` walks the node list once in
reverse, which is a valid topological order because inputs always precede
the ops that consume them.  A node refers to its tape only weakly, so a
tape and its nodes are freed by reference counting as soon as the tape
goes out of scope, without waiting for the cyclic garbage collector.

Values are matrices or stacks of matrices (see ``linalg``).  The op set
is exactly what the encoder and the heads record:

- dense: one encoder layer ``act(W x + b)`` as a single node, valued by
  ``dense_np`` (which ``encoder.embed_np`` calls too);
- structure: add, mul, scale, neg, sub (broadcasting), add_diag,
  transpose and matmul (on the last two axes; matmul broadcasts leading
  ones), col_slice, blocks (an M x NK matrix as an (N, M, K) stack of
  K-column class blocks, or an (E, M, NK) stack of episodes as
  (E, N, M, K)), expand_dims (a unit axis, so a stack of episodes'
  queries broadcasts against their class stacks); ops that broadcast sum
  each adjoint back to their input's shape in one helper,
  ``_unbroadcast``;
- reductions: frobenius_norm_sq, col_norms, col_normalize,
  block_normalize (each class block to unit Frobenius norm), and
  cross_entropy (the episode loss, a stabilized log-sum-exp inside);
- solve_spd, a symmetric positive-definite solve per stacked matrix,
  whose adjoint uses the implicit-function rule (for ``X = A^{-1} B``:
  ``Ab = -A^{-T} G X^T``, ``Bb = A^{-T} G``), so the closed-form ridge
  coefficients stay differentiable without unrolling any iterative solver.

Constants (``Tape.const``: an input batch, a mask, an averaging matrix)
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


def mul(a: Var, b: Var) -> Var:
    """Elementwise product (the penalty applies its block mask with it)."""
    if a.shape != b.shape:
        raise ShapeError(f"mul expects matching shapes, got {a.shape} and {b.shape}")
    tape = _tape_of(a, b)
    av, bv = a.value, b.value

    def back(g):
        return _live((a, lambda: g * bv), (b, lambda: g * av))

    return tape._append("mul", av * bv, back)


def scale(a: Var, c: float) -> Var:
    c = float(c)

    def back(g):
        return [(a.id, g * c)]

    return a.tape._append("scale", a.value * c, back)


def neg(a: Var) -> Var:
    return scale(a, -1.0)


def add_diag(a: Var, c: float) -> Var:
    """Add ``c`` to the diagonal of each square matrix (the ridge term)."""
    k = a.shape[-1]
    if a.shape[-2] != k:
        raise ShapeError(f"add_diag expects square matrices, got {a.shape}")
    value = a.value + float(c) * np.eye(k)

    def back(g):
        return [(a.id, g)]

    return a.tape._append("add_diag", value, back)


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
    *lead, m, width = a.shape
    if n < 1 or width % n:
        raise ShapeError(f"cannot split {width} columns into {n} equal blocks")
    shape = a.shape

    def back(g):
        return [(a.id, np.swapaxes(g, -3, -2).reshape(shape))]

    value = np.swapaxes(a.value.reshape(*lead, m, n, width // n), -3, -2)
    return a.tape._append("blocks", np.ascontiguousarray(value), back)


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


def frobenius_norm_sq(a: Var) -> Var:
    av = a.value

    def back(g):
        return [(a.id, (2.0 * float(g[0, 0])) * av)]

    return a.tape._append("frobenius_norm_sq", np.array([[np.sum(av * av)]]), back)


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


def block_normalize(a: Var, n: int) -> Var:
    """Scale each of the ``n`` K-column blocks of an M x NK matrix to unit
    Frobenius norm.  An all-zero block has no direction and is refused."""
    m, width = a.shape
    if n < 1 or width % n:
        raise ShapeError(f"cannot split {width} columns into {n} equal blocks")
    av = a.value.reshape(m, n, width // n)
    norms = np.sqrt(np.sum(av * av, axis=(0, 2), keepdims=True))
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise DegenerateSubspaceError(
            f"degenerate class subspace: class {zero[0] + 1} has an all-zero "
            "support matrix")
    y = av / norms

    def back(g):
        g = g.reshape(av.shape)
        dots = np.sum(y * g, axis=(0, 2), keepdims=True)
        return [(a.id, ((g - y * dots) / norms).reshape(m, width))]

    return a.tape._append("block_normalize", y.reshape(m, width), back)


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


# -- linear solve ------------------------------------------------------------


def solve_spd(a: Var, b: Var) -> Var:
    """Solve A X = B for symmetric positive definite A via Cholesky.

    A is (..., K, K) and B is (..., K, B) with the same leading axes: one
    solve per stacked matrix.  The forward factorization is cached and
    reused by the adjoint solves.
    """
    tape = _tape_of(a, b)
    if a.shape[:-2] != b.shape[:-2] or a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"solve_spd dimensions disagree: {a.shape} vs {b.shape}")
    low = linalg.cholesky(a.value)
    x = linalg.solve_with_factor(low, b.value)

    def back(g):
        gb = linalg.solve_with_factor(low, g)
        return _live((a, lambda: -gb @ _swap(x)), (b, lambda: gb))

    return tape._append("solve_spd", x, back)


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
