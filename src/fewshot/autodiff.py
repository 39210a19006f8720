"""The reverse sweep of a training step.

A step's loss is the parameter vector -> ``encoder.forward`` -> the
episode's ``heads.episode_loss``, each returning ``(value, back)``.  Its
``Tape`` holds the step's one (encoder back, loss back) pair, and
``backward`` runs it from a unit adjoint.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import ContractError


class Tape:
    """One training step's (encoder back, loss back) pair, in a list."""

    # perfbench's tracer reads len(tape.nodes) in backward and forward's third argument x.
    __slots__ = ("nodes",)

    def __init__(self):
        self.nodes: list[tuple[Callable, Callable]] = []


def backward(tape: Tape) -> np.ndarray:
    """The gradient of the tape's loss: its encoder back of its loss back
    of a unit adjoint."""
    if len(tape.nodes) != 1:
        raise ContractError("backward needs one (encoder back, loss back) pair on the "
                            f"tape, got {len(tape.nodes)}")
    ((encoder_back, loss_back),) = tape.nodes
    return encoder_back(loss_back(np.ones((1, 1))))
