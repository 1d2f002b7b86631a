"""Uniform Dirichlet grids on an interval and on its Cartesian square.

Boundary values are identically zero and never stored: a grid with n
interior nodes on (a, b) has spacing h = (b - a) / (n + 1) and node j at
a + (j + 1) h.  All quadrature is the h-weighted sum over interior nodes
(h^2 on the square), consistent with zero extension to the boundary.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Grid1D:
    a: float
    b: float
    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("Grid1D needs at least 2 interior nodes")
        if not self.b > self.a:
            raise ValueError("Grid1D needs b > a")

    @property
    def h(self) -> float:
        return (self.b - self.a) / (self.n + 1)

    @property
    def nodes(self) -> np.ndarray:
        return self.a + (np.arange(self.n) + 1.0) * self.h

    def square(self) -> "Grid2D":
        return Grid2D(self)


@dataclass(frozen=True)
class Grid2D:
    """The square of a 1D grid; node (i, j) sits at (node_i, node_j).

    Values are stored as (n, n) arrays, row-major over the first index,
    and that layout is part of the serialization format.
    """

    base: Grid1D

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def h(self) -> float:
        return self.base.h


def _check_values(values, shape):
    values = np.asarray(values, dtype=float)
    if values.shape != shape:
        raise ValueError(f"expected values of shape {shape}, got {values.shape}")
    if not np.all(np.isfinite(values)):
        raise ValueError("non-finite entries in field values")
    return values


@dataclass
class Field:
    """Real-valued function on the interior nodes of a Grid1D."""

    grid: Grid1D
    values: np.ndarray

    def __post_init__(self):
        self.values = _check_values(self.values, (self.grid.n,))

    @classmethod
    def zero(cls, grid: Grid1D) -> "Field":
        return cls(grid, np.zeros(grid.n))


@dataclass
class TensorField:
    """Real-valued function on the interior nodes of a Grid2D."""

    grid: Grid2D
    values: np.ndarray

    def __post_init__(self):
        n = self.grid.n
        self.values = _check_values(self.values, (n, n))
