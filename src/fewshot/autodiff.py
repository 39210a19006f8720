"""Reverse-mode automatic differentiation on a per-episode tape.

The tape is define-by-run: each op computes its forward value eagerly and
appends a node holding the input ids and a closure that maps the output
adjoint to input adjoints.  ``backward`` walks the node list once in
reverse, which is a valid topological order because inputs always precede
the ops that consume them.

The op set is exactly what the encoder and the heads record:

- structure: add, sub, mul, div (by a 1x1 scalar), scale, neg, add_diag,
  add_col (broadcast a column), transpose, matmul, col_slice, vstack,
  pick (one entry per column), sum_all;
- nonlinearities: tanh, relu;
- reductions: frobenius_norm_sq, col_norms, col_normalize, and lse_cols
  (a stabilized column-wise log-sum-exp);
- solve_spd, a symmetric positive-definite solve whose adjoint uses the
  implicit-function rule (for ``X = A^{-1} B``: ``Ab = -A^{-T} G X^T``,
  ``Bb = A^{-T} G``), so the closed-form ridge coefficients stay
  differentiable without unrolling any iterative solver.

Evaluation records the same ops on a throwaway tape and reads ``.value``;
nothing forces a backward pass.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from . import linalg
from .errors import ContractError, ShapeError

Adjoint = Callable[[np.ndarray], list[tuple[int, np.ndarray]]]


class Var:
    """One tape node: a value plus the recipe to push adjoints backward."""

    __slots__ = ("tape", "id", "op", "value", "grad", "_backward")

    def __init__(self, tape: "Tape", node_id: int, op: str, value: np.ndarray,
                 backward: Adjoint | None):
        self.tape = tape
        self.id = node_id
        self.op = op
        self.value = value
        self.grad: np.ndarray | None = None
        self._backward = backward

    @property
    def shape(self) -> tuple[int, int]:
        return self.value.shape

    def item(self) -> float:
        if self.value.shape != (1, 1):
            raise ShapeError(f"item() expects a 1x1 value, got {self.value.shape}")
        return float(self.value[0, 0])

    def __repr__(self) -> str:
        return f"Var(id={self.id}, op={self.op!r}, shape={self.value.shape})"


class Tape:
    """Append-only record of one forward computation."""

    __slots__ = ("nodes",)

    def __init__(self):
        self.nodes: list[Var] = []

    def _append(self, op: str, value: np.ndarray, backward: Adjoint | None) -> Var:
        var = Var(self, len(self.nodes), op, value, backward)
        self.nodes.append(var)
        return var

    def leaf(self, values) -> Var:
        """Enter a constant or parameter tensor onto the tape."""
        return self._append("leaf", linalg.as_matrix(values), None)


def _tape_of(*vars_: Var) -> Tape:
    tape = vars_[0].tape
    for v in vars_[1:]:
        if v.tape is not tape:
            raise ContractError("ops cannot mix variables from different tapes")
    return tape


# -- elementwise and structural ops -----------------------------------------


def add(a: Var, b: Var) -> Var:
    if a.shape != b.shape:
        raise ShapeError(f"add expects matching shapes, got {a.shape} and {b.shape}")
    tape = _tape_of(a, b)

    def back(g):
        return [(a.id, g), (b.id, g)]

    return tape._append("add", a.value + b.value, back)


def sub(a: Var, b: Var) -> Var:
    if a.shape != b.shape:
        raise ShapeError(f"sub expects matching shapes, got {a.shape} and {b.shape}")
    tape = _tape_of(a, b)

    def back(g):
        return [(a.id, g), (b.id, -g)]

    return tape._append("sub", a.value - b.value, back)


def mul(a: Var, b: Var) -> Var:
    """Elementwise product (used for scalar-by-scalar factors)."""
    if a.shape != b.shape:
        raise ShapeError(f"mul expects matching shapes, got {a.shape} and {b.shape}")
    tape = _tape_of(a, b)
    av, bv = a.value, b.value

    def back(g):
        return [(a.id, g * bv), (b.id, g * av)]

    return tape._append("mul", av * bv, back)


def div(a: Var, b: Var) -> Var:
    """Divide by a 1x1 scalar variable."""
    if b.shape != (1, 1):
        raise ShapeError(f"div expects a 1x1 divisor, got {b.shape}")
    tape = _tape_of(a, b)
    av, s = a.value, float(b.value[0, 0])

    def back(g):
        ga = g / s
        gs = np.array([[-float(np.sum(g * av)) / (s * s)]])
        return [(a.id, ga), (b.id, gs)]

    return tape._append("div", av / s, back)


def scale(a: Var, c: float) -> Var:
    c = float(c)

    def back(g):
        return [(a.id, g * c)]

    return a.tape._append("scale", a.value * c, back)


def neg(a: Var) -> Var:
    return scale(a, -1.0)


def add_diag(a: Var, c: float) -> Var:
    """Add ``c`` to the diagonal of a square matrix (the ridge term)."""
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"add_diag expects a square matrix, got {a.shape}")
    value = a.value + float(c) * np.eye(a.shape[0])

    def back(g):
        return [(a.id, g)]

    return a.tape._append("add_diag", value, back)


def add_col(a: Var, col: Var) -> Var:
    """Broadcast-add a column vector across every column of ``a``."""
    if col.shape != (a.shape[0], 1):
        raise ShapeError(f"add_col expects a {a.shape[0]}x1 column, got {col.shape}")
    tape = _tape_of(a, col)

    def back(g):
        return [(a.id, g), (col.id, g.sum(axis=1, keepdims=True))]

    return tape._append("add_col", a.value + col.value, back)


def transpose(a: Var) -> Var:
    def back(g):
        return [(a.id, np.ascontiguousarray(g.T))]

    return a.tape._append("transpose", linalg.transpose(a.value), back)


def matmul(a: Var, b: Var) -> Var:
    value = linalg.matmul(a.value, b.value)
    tape = _tape_of(a, b)
    av, bv = a.value, b.value

    def back(g):
        return [(a.id, g @ bv.T), (b.id, av.T @ g)]

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


def vstack(rows: Sequence[Var]) -> Var:
    if not rows:
        raise ShapeError("vstack needs at least one block")
    tape = _tape_of(*rows)
    heights = [r.shape[0] for r in rows]
    offsets = np.cumsum([0] + heights)
    ids = [r.id for r in rows]

    def back(g):
        return [
            (ids[i], g[offsets[i] : offsets[i + 1], :]) for i in range(len(ids))
        ]

    return tape._append("vstack", np.vstack([r.value for r in rows]), back)


def pick(a: Var, rows: np.ndarray) -> Var:
    """Gather one entry per column: out[0, j] = a[rows[j], j]."""
    rows = np.asarray(rows, dtype=np.intp)
    n, b = a.shape
    if rows.shape != (b,):
        raise ShapeError(f"pick expects {b} row indices, got shape {rows.shape}")
    if rows.min(initial=0) < 0 or rows.max(initial=0) >= n:
        raise ContractError("pick row index out of range")
    cols = np.arange(b)
    shape = a.shape

    def back(g):
        full = np.zeros(shape)
        full[rows, cols] = g[0, :]
        return [(a.id, full)]

    return a.tape._append("pick", a.value[rows, cols].reshape(1, b), back)


def sum_all(a: Var) -> Var:
    shape = a.shape

    def back(g):
        return [(a.id, np.full(shape, float(g[0, 0])))]

    return a.tape._append("sum_all", np.array([[float(np.sum(a.value))]]), back)


# -- nonlinearities ----------------------------------------------------------


def tanh(a: Var) -> Var:
    t = np.tanh(a.value)

    def back(g):
        return [(a.id, g * (1.0 - t * t))]

    return a.tape._append("tanh", t, back)


def relu(a: Var) -> Var:
    # Gradient at exactly 0 is defined as 0.
    mask = a.value > 0.0

    def back(g):
        return [(a.id, g * mask)]

    return a.tape._append("relu", a.value * mask, back)


# -- norms and reductions ----------------------------------------------------


def frobenius_norm_sq(a: Var) -> Var:
    av = a.value

    def back(g):
        return [(a.id, (2.0 * float(g[0, 0])) * av)]

    return a.tape._append(
        "frobenius_norm_sq", np.array([[linalg.frobenius_norm_sq(av)]]), back
    )


def col_norms(a: Var) -> Var:
    """Per-column Euclidean norms as a 1 x B row; zero columns get zero grad."""
    av = a.value
    norms = np.sqrt(np.sum(av * av, axis=0, keepdims=True))

    def back(g):
        safe = np.where(norms > 0.0, norms, 1.0)
        out = av * (g / safe)
        if (norms == 0.0).any():
            out = np.where(norms > 0.0, out, 0.0)
        return [(a.id, out)]

    return a.tape._append("col_norms", norms, back)


def col_normalize(a: Var) -> Var:
    """Scale every column to unit norm (zero columns pass through as zero)."""
    av = a.value
    norms = np.sqrt(np.sum(av * av, axis=0, keepdims=True))
    safe = np.where(norms > 0.0, norms, 1.0)
    y = av / safe

    def back(g):
        dots = np.sum(y * g, axis=0, keepdims=True)
        out = (g - y * dots) / safe
        if (norms == 0.0).any():
            out = np.where(norms > 0.0, out, 0.0)
        return [(a.id, out)]

    return a.tape._append("col_normalize", y, back)


def lse_cols(a: Var) -> Var:
    """Column-wise log-sum-exp of an N x B matrix, returning a 1 x B row."""
    x = a.value
    m = np.max(x, axis=0, keepdims=True)
    e = np.exp(x - m)
    total = np.sum(e, axis=0, keepdims=True)
    soft = e / total

    def back(g):
        return [(a.id, soft * g)]

    return a.tape._append("lse_cols", m + np.log(total), back)


# -- linear solve ------------------------------------------------------------


def solve_spd(a: Var, b: Var) -> Var:
    """Solve A X = B for symmetric positive definite A via Cholesky.

    The forward factorization is cached and reused by the adjoint solves.
    """
    tape = _tape_of(a, b)
    low = linalg.cholesky(a.value)
    if a.shape[0] != b.shape[0]:
        raise ShapeError(f"solve_spd dimensions disagree: {a.shape} vs {b.shape}")
    x = linalg.solve_with_factor(low, b.value)

    def back(g):
        gb = linalg.solve_with_factor(low, g)
        return [(a.id, -gb @ x.T), (b.id, gb)]

    return tape._append("solve_spd", x, back)


def backward(tape: Tape, loss: Var) -> dict[int, np.ndarray]:
    """Accumulate d(loss)/d(node) for every node at or before ``loss``.

    Returns the gradient map and populates ``.grad`` on the visited nodes
    (zeros for nodes the loss does not depend on).  Running backward twice
    rebuilds the map from scratch, so repeated calls are idempotent.
    """
    if loss.tape is not tape:
        raise ContractError("loss variable does not belong to this tape")
    if loss.value.shape != (1, 1):
        raise ContractError(f"backward needs a scalar loss, got shape {loss.value.shape}")

    grads: dict[int, np.ndarray] = {loss.id: np.ones((1, 1))}
    for var in reversed(tape.nodes[: loss.id + 1]):
        g = grads.get(var.id)
        if g is None or var._backward is None:
            continue
        for input_id, contribution in var._backward(g):
            seen = grads.get(input_id)
            if seen is None:
                # Copy on first store: closures may hand back the output
                # adjoint itself (add, add_col) or a view of it (vstack).
                grads[input_id] = np.array(contribution)
            else:
                seen += contribution
    for var in tape.nodes[: loss.id + 1]:
        g = grads.get(var.id)
        var.grad = np.zeros_like(var.value) if g is None else g
        grads[var.id] = var.grad
    return grads
