"""The embedding network f: R^D -> R^M, a small fully connected net.

All parameters live in one float64 vector, ``EncoderParams.vector``, laid
out W0, b0, W1, b1, ... (each row-major); every layer's ``weight`` and
``bias`` is a view into it.  Only this module knows that layout:
``EncoderParams`` packs it, ``with_vector`` re-views it and ``gradient``
gathers tape gradients in it, so ``train``'s optimizers are vector ops.

For training, ``attach`` enters the weights and biases onto a tape once
per episode batch so gradients accumulate on the returned handles;
``forward`` then records one ``autodiff.dense`` node per layer, and the
train step reads both its loss and its accuracy from that one embedding.
Validation and test evaluation embed each split once with ``embed_np``,
with no tape.  A layer's math, ``act(W x + b)``, exists once, as
``autodiff.dense_np``: the tape node's value and every ``embed_np`` layer
are that function, so the two routes agree exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff, linalg
from .autodiff import Tape, Var
from .errors import CheckpointError, ConfigError, ShapeError

ACTIVATIONS = ("tanh", "relu", "none")

CHECKPOINT_MAGIC = "fewshot-encoder"
CHECKPOINT_VERSION = 1


@dataclass
class Layer:
    weight: np.ndarray  # out x in
    bias: np.ndarray    # out x 1
    activation: str


class EncoderParams:
    """Dense layers whose weights and biases are views of ``vector``: the
    given layers' values packed into a new vector (the layers must chain),
    or ``vector`` itself when given (see ``with_vector``)."""

    def __init__(self, layers: list[Layer], vector: np.ndarray | None = None):
        if vector is None:
            _validate_spec([(l.weight.shape[1], l.weight.shape[0], l.activation)
                            for l in layers])
            vector = np.concatenate([np.ravel(t) for l in layers
                                     for t in (l.weight, l.bias)], dtype=np.float64)
        self.vector = vector
        self.layers = []
        pos = 0
        for layer in layers:
            n_out, n_in = layer.weight.shape
            weight = vector[pos : pos + n_out * n_in].reshape(n_out, n_in)
            bias = vector[pos + weight.size : pos + weight.size + n_out].reshape(n_out, 1)
            pos += weight.size + n_out
            self.layers.append(Layer(weight, bias, layer.activation))

    def with_vector(self, vector: np.ndarray) -> "EncoderParams":
        """The same layers with their parameters viewed from ``vector``
        (not copied), a float64 array of this ``vector``'s shape."""
        if vector.shape != self.vector.shape or vector.dtype != np.float64:
            raise ShapeError(f"parameter vector must be float64 of shape "
                             f"{self.vector.shape}, got {vector.dtype} {vector.shape}")
        return EncoderParams(self.layers, vector)

    @property
    def input_dim(self) -> int:
        return self.layers[0].weight.shape[1]

    @property
    def output_dim(self) -> int:
        return self.layers[-1].weight.shape[0]

    def copy(self) -> "EncoderParams":
        return self.with_vector(self.vector.copy())


def default_layer_spec(input_dim: int = 32, output_dim: int = 16,
                       hidden: int = 64, depth: int = 2,
                       activation: str = "relu",
                       final_activation: str = "none") -> list[tuple[int, int, str]]:
    """D -> hidden (x depth, activated) -> M (final_activation)."""
    if depth < 0:
        raise ConfigError(f"depth must be nonnegative, got {depth}")
    spec: list[tuple[int, int, str]] = []
    prev = input_dim
    for _ in range(depth):
        spec.append((prev, hidden, activation))
        prev = hidden
    spec.append((prev, output_dim, final_activation))
    return spec


def _validate_spec(spec) -> None:
    if not spec:
        raise ConfigError("layer spec is empty")
    for i, (n_in, n_out, act) in enumerate(spec):
        if n_in < 1 or n_out < 1:
            raise ConfigError(f"layer {i} has non-positive dimensions ({n_in}, {n_out})")
        if act not in ACTIVATIONS:
            raise ConfigError(f"layer {i} has unknown activation {act!r}")
        if i > 0 and spec[i - 1][1] != n_in:
            raise ConfigError(
                f"layer dimensions do not chain: layer {i - 1} emits "
                f"{spec[i - 1][1]} but layer {i} expects {n_in}")


def init_encoder(seed, spec) -> EncoderParams:
    """Initialize weights uniformly in +-sqrt(6/(in+out)), biases zero.

    ``seed`` may be an integer or an already-split numpy Generator.
    """
    _validate_spec(spec)
    rng = seed if isinstance(seed, np.random.Generator) else linalg.rng_from_seed(seed)
    layers = []
    for n_in, n_out, act in spec:
        half_width = np.sqrt(6.0 / (n_in + n_out))
        weight = rng.uniform(-half_width, half_width, size=(n_out, n_in))
        bias = np.zeros((n_out, 1))
        layers.append(Layer(weight, bias, act))
    return EncoderParams(layers)


def attach(params: EncoderParams, tape: Tape) -> list[tuple[Var, Var]]:
    """Enter every (weight, bias) pair onto the tape as leaves."""
    return [(tape.leaf(l.weight), tape.leaf(l.bias)) for l in params.layers]


def gradient(attached: list[tuple[Var, Var]]) -> np.ndarray:
    """The gradients of ``attach``'s leaves after ``autodiff.backward``,
    laid out as ``EncoderParams.vector``."""
    return np.concatenate([var.grad.ravel() for pair in attached for var in pair])


def forward(attached: list[tuple[Var, Var]], params: EncoderParams, x: Var) -> Var:
    """Record one dense node per layer; x is D x B, the result M x B."""
    h = x
    for (w_var, b_var), layer in zip(attached, params.layers):
        h = autodiff.dense(w_var, b_var, h, layer.activation)
    return h


def embed_np(params: EncoderParams, batch) -> np.ndarray:
    """Tape-free forward pass: the layer function ``forward`` records.
    Validation and evaluation embed a whole split with one call."""
    h = linalg.as_matrix(batch)
    if h.shape[0] != params.input_dim:
        raise ShapeError(
            f"batch has {h.shape[0]} rows, encoder expects {params.input_dim}")
    for layer in params.layers:
        h = autodiff.dense_np(layer.weight, layer.bias, h, layer.activation)
    return h


# -- checkpoint serialization ------------------------------------------------
#
# Text format, one logical item per line:
#   fewshot-encoder v1
#   layers <L>
#   layer <in> <out> <activation>
#   <out lines: one weight row each, <in> floats>
#   <1 line: bias, <out> floats>
#   ... repeated per layer
#
# Floats are written with repr(), which round-trips binary64 exactly.


def save_encoder(params: EncoderParams, path) -> None:
    lines = [f"{CHECKPOINT_MAGIC} v{CHECKPOINT_VERSION}", f"layers {len(params.layers)}"]
    for layer in params.layers:
        n_out, n_in = layer.weight.shape
        lines.append(f"layer {n_in} {n_out} {layer.activation}")
        for row in layer.weight:
            lines.append(" ".join(repr(float(v)) for v in row))
        lines.append(" ".join(repr(float(v)) for v in layer.bias[:, 0]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_encoder(path) -> EncoderParams:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n").rstrip("\r") for ln in fh]
    pos = 0

    def next_line() -> str:
        nonlocal pos
        while pos < len(lines) and not lines[pos].strip():
            pos += 1
        if pos >= len(lines):
            raise CheckpointError(f"{path}: truncated checkpoint")
        pos += 1
        return lines[pos - 1]

    header = next_line().split()
    if header != [CHECKPOINT_MAGIC, f"v{CHECKPOINT_VERSION}"]:
        raise CheckpointError(f"{path}: bad header {' '.join(header)!r}")
    count_parts = next_line().split()
    if len(count_parts) != 2 or count_parts[0] != "layers":
        raise CheckpointError(f"{path}: expected 'layers <count>' line")
    try:
        n_layers = int(count_parts[1])
    except ValueError:
        raise CheckpointError(f"{path}: bad layer count {count_parts[1]!r}") from None
    if n_layers < 1:
        raise CheckpointError(f"{path}: layer count must be >= 1, got {n_layers}")

    def parse_floats(text: str, expected: int, what: str) -> np.ndarray:
        parts = text.split()
        if len(parts) != expected:
            raise CheckpointError(f"{path}: {what} has {len(parts)} values, expected {expected}")
        try:
            return np.array([float(p) for p in parts])
        except ValueError:
            raise CheckpointError(f"{path}: non-numeric value in {what}") from None

    spec = []
    layers = []
    for li in range(n_layers):
        head = next_line().split()
        if len(head) != 4 or head[0] != "layer":
            raise CheckpointError(f"{path}: layer {li} header malformed")
        try:
            n_in, n_out = int(head[1]), int(head[2])
        except ValueError:
            raise CheckpointError(f"{path}: layer {li} has non-integer dimensions") from None
        spec.append((n_in, n_out, head[3]))
        try:
            _validate_spec(spec)
        except ConfigError as exc:
            raise CheckpointError(f"{path}: {exc}") from None
        weight = np.empty((n_out, n_in))
        for r in range(n_out):
            weight[r] = parse_floats(next_line(), n_in, f"layer {li} weight row {r}")
        bias = parse_floats(next_line(), n_out, f"layer {li} bias")
        layers.append(Layer(weight, bias, head[3]))
    if any(line.strip() for line in lines[pos:]):
        raise CheckpointError(f"{path}: content after the {n_layers} declared layers")
    return EncoderParams(layers)
