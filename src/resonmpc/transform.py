"""Radau collocation grid on the unit scaled-time interval.

In scaled time every switch event lands on an integer: the ON semicycle
of switching interval i covers [2i, 2i+1] and the OFF semicycle
[2i+1, 2i+2].  The solver's power rule sums the ON current over this
grid's node times within each semicycle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import legendre

from .errors import ArgumentError

__all__ = [
    "CollocationGrid",
    "collocation_grid",
]


def _radau_nodes(degree: int) -> np.ndarray:
    """Right-endpoint Radau collocation nodes on (0, 1]."""
    # roots of P_d - P_{d-1} on [-1, 1], mapped to [0, 1]
    coeffs = np.zeros(degree + 1)
    coeffs[degree] = 1.0
    coeffs[degree - 1] = -1.0
    roots = np.sort(legendre.legroots(coeffs))
    nodes = (roots + 1.0) / 2.0
    nodes[-1] = 1.0
    return nodes


@dataclass(frozen=True)
class CollocationGrid:
    """Radau collocation grid on the unit scaled-time interval.

    nodes are on the reference element [0, 1]; the interval is split into
    `n_elements` equal elements.
    """

    degree: int
    n_elements: int
    nodes: np.ndarray

    @property
    def element_length(self) -> float:
        return 1.0 / self.n_elements

    def global_taus(self) -> np.ndarray:
        """All collocation times over [0, 1], including the left boundary."""
        h = self.element_length
        starts = np.arange(self.n_elements)[:, None] * h
        return np.concatenate(([0.0], (starts + self.nodes * h).ravel()))


def collocation_grid(degree: int, n_elements: int) -> CollocationGrid:
    """Build a Radau grid of `n_elements` elements of `degree` nodes each."""
    if degree < 1:
        raise ArgumentError(f"degree must be >= 1, got {degree}")
    if n_elements < 1:
        raise ArgumentError(f"n_elements must be >= 1, got {n_elements}")
    return CollocationGrid(degree=degree, n_elements=n_elements, nodes=_radau_nodes(degree))
