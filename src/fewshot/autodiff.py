"""The reverse sweep of a training step.

A step's loss is the parameter vector -> ``encoder.forward`` -> one
``heads.episode_loss`` per episode, each returning ``(value, back)``.  Its
``Tape`` is the list of each episode's (encoder back, loss back) pair, and
``backward`` sums the pairs' gradients.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import ContractError


class Tape:
    """One training step's (encoder back, loss back) pairs, one per episode."""

    # perfbench's tracer reads len(tape.nodes) in backward and forward's third argument x.
    __slots__ = ("nodes",)

    def __init__(self):
        self.nodes: list[tuple[Callable, Callable]] = []


def backward(tape: Tape) -> np.ndarray:
    """The gradient of the tape's summed loss: each pair's encoder back of
    its loss back of a unit adjoint, summed last episode first, as a
    reverse sweep over the episodes meets them.  The order fixes the bits
    of a batch of three or more episodes.  The sum is never in place, so
    no pair's gradient is written to.
    """
    if not tape.nodes:
        raise ContractError("backward needs at least one (encoder, loss) pair on the tape")
    one = np.ones((1, 1))
    total = None
    for encoder_back, loss_back in reversed(tape.nodes):
        grad = encoder_back(loss_back(one))
        total = grad if total is None else total + grad
    return total
