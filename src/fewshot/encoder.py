"""The embedding network f: R^D -> R^M, a small fully connected net.

All parameters live in one float64 vector, ``EncoderParams.vector``, laid
out W0, b0, W1, b1, ... (each row-major); every layer's ``weight`` and
``bias`` is a view into it.  Only this module knows that layout:
``EncoderParams`` packs it and ``with_vector`` re-views it, so
``train``'s Adam step is a vector op.

The layer chain exists once, as ``_chain``: it coerces the D x B batch
and returns every layer's output, ``act(W h + b)`` on the one below.
``forward`` runs it on ``params.layers`` (re-viewed only for another
vector) and returns the embedding with a ``back`` over those outputs,
which writes every layer's gradient into that layer's slices of one new
vector, so the gradient is laid out as ``params.vector`` when it is made.
``back`` scales the ``W^T g`` it computes by each hidden layer's
activation derivative in place, and never writes to the adjoint it is
given.  The train step reads both its loss and its accuracy
from that one embedding.  Validation and test evaluation embed each split
once with ``embed_np``, the chain's last output, so the two routes agree
exactly.  A sampled episode's ``x`` is C-contiguous float64, so the chain
reads it as it is, without a copy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import CheckpointError, ConfigError, ContractError, ShapeError

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
    def output_dim(self) -> int:
        return self.layers[-1].weight.shape[0]

    def copy(self) -> "EncoderParams":
        return self.with_vector(self.vector.copy())


def default_layer_spec(input_dim: int = 32, output_dim: int = 16,
                       hidden: int = 64, depth: int = 2,
                       activation: str = "relu",
                       final_activation: str = "none") -> list[tuple[int, int, str]]:
    """D -> hidden (x depth, activated) -> M (final_activation), checked; a
    size out of range is named by its ``TrainConfig`` field (``embed_dim``)."""
    for name, value, floor in (("embed_dim", output_dim, 1), ("hidden_dim", hidden, 1),
                               ("depth", depth, 0)):
        if value < floor:
            raise ConfigError(f"{name} must be >= {floor}, got {value}")
    spec: list[tuple[int, int, str]] = []
    prev = input_dim
    for _ in range(depth):
        spec.append((prev, hidden, activation))
        prev = hidden
    spec.append((prev, output_dim, final_activation))
    _validate_spec(spec)
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


def _chain(layers: list[Layer], batch) -> list[np.ndarray]:
    """``batch`` as a D x B matrix (``linalg.as_matrix``: a C-ordered
    float64 matrix is passed as itself, not copied), then each layer's
    ``act(W h + b)`` on the output below it; act is "tanh", "relu" or
    "none"."""
    outs = [linalg.as_matrix(batch)]
    if outs[0].shape[0] != layers[0].weight.shape[1]:
        raise ShapeError(f"batch has {outs[0].shape[0]} rows, encoder expects "
                         f"{layers[0].weight.shape[1]}")
    for layer in layers:
        h = layer.weight @ outs[-1]
        h += layer.bias
        if layer.activation == "tanh":
            np.tanh(h, out=h)
        elif layer.activation == "relu":
            np.maximum(h, 0.0, out=h)
        elif layer.activation != "none":
            raise ContractError(f"unknown activation {layer.activation!r}")
        outs.append(h)
    return outs


def forward(vector: np.ndarray, params: EncoderParams, x):
    """The layer chain with parameters ``vector`` (laid out as
    ``params.vector``) on the D x B batch ``x``, as ``(M x B embedding,
    back)``; ``back(g)`` is the gradient in ``vector``, of its shape.  ``x``
    gets no adjoint.

    ``back`` walks the layers in reverse: with g the adjoint of a layer's
    pre-activation, it writes ``g x^T`` and g's row sums into that layer's
    weight and bias slices of one new vector, then passes ``W^T g`` to the
    layer below.  The activation's derivative multiplies g in place once g
    is a ``W^T g`` that ``back`` made; the caller's g is never written to.
    The relu gradient at exactly 0 is 0.
    """
    layers = (params if vector is params.vector else params.with_vector(vector)).layers
    outs = _chain(layers, x)

    def back(g):
        grad = np.empty(vector.shape)
        end = grad.size
        for i in reversed(range(len(layers))):
            layer, out = layers[i], outs[i + 1]
            if layer.activation != "none":
                slope = 1.0 - out * out if layer.activation == "tanh" else out > 0.0
                g = np.multiply(g, slope, out=g if i < len(layers) - 1 else None)
            n_out, n_in = layer.weight.shape
            start = end - n_out * (n_in + 1)
            np.matmul(g, outs[i].T, out=grad[start : end - n_out].reshape(n_out, n_in))
            g.sum(axis=1, out=grad[end - n_out : end])
            if i:
                g = layer.weight.T @ g
            end = start
        return grad

    return outs[-1], back


def embed_np(params: EncoderParams, batch) -> np.ndarray:
    """``forward``'s embedding alone.  Validation and evaluation embed a
    whole split with one call."""
    return _chain(params.layers, batch)[-1]


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
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.rstrip("\n").rstrip("\r") for ln in fh]
    except UnicodeDecodeError as exc:
        raise CheckpointError(f"{path}: not UTF-8 text ({exc.reason})") from None
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
            values = np.array([float(p) for p in parts])
        except ValueError:
            raise CheckpointError(f"{path}: non-numeric value in {what}") from None
        if not np.isfinite(values).all():
            raise CheckpointError(f"{path}: non-finite value in {what}")
        return values

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
        # the rows as they parse: a header's sizes allocate nothing
        weight = np.array([parse_floats(next_line(), n_in, f"layer {li} weight row {r}")
                           for r in range(n_out)])
        bias = parse_floats(next_line(), n_out, f"layer {li} bias")
        layers.append(Layer(weight, bias, head[3]))
    if any(line.strip() for line in lines[pos:]):
        raise CheckpointError(f"{path}: content after the {n_layers} declared layers")
    return EncoderParams(layers)
