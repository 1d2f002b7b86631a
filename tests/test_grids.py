"""Grids, fields and the discrete inner products of the test helpers."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import inner1, inner2
from spde_control.grids import Field, Grid1D, Grid2D, TensorField


def test_grid_spacing_and_nodes():
    grid = Grid1D(0.0, 1.0, 9)
    assert grid.h == pytest.approx(0.1)
    assert grid.nodes[0] == pytest.approx(0.1)
    assert grid.nodes[-1] == pytest.approx(0.9)
    assert len(grid.nodes) == 9


def test_grid_rejects_bad_parameters():
    with pytest.raises(ValueError):
        Grid1D(0.0, 1.0, 1)
    with pytest.raises(ValueError):
        Grid1D(1.0, 0.0, 8)


def test_square_shares_base_geometry():
    grid = Grid1D(0.0, 2.0, 7)
    sq = grid.square()
    assert isinstance(sq, Grid2D)
    assert sq.n == grid.n
    assert sq.h == grid.h
    assert sq.base == grid


def test_field_shape_and_finiteness_checks():
    grid = Grid1D(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        Field(grid, np.zeros(5))
    with pytest.raises(ValueError):
        Field(grid, np.array([0.0, np.nan, 0.0, 0.0]))
    with pytest.raises(ValueError):
        TensorField(grid.square(), np.zeros((4, 5)))
    with pytest.raises(ValueError):
        TensorField(grid.square(), np.full((4, 4), np.inf))


@settings(deadline=None)
@given(st.integers(2, 30), st.floats(0.1, 10.0))
def test_inner_product_consistency(n, width):
    """The square product of outer factors splits into 1D products."""
    grid = Grid1D(0.0, width, n)
    gen = np.random.Generator(np.random.Philox(key=n))
    f = gen.normal(size=n)
    g = gen.normal(size=n)
    sq = grid.square()
    F = np.outer(f, g)
    assert inner2(sq, F, F) == pytest.approx(inner1(grid, f, f)
                                             * inner1(grid, g, g))


def test_quadrature_weight_matches_uniform_function():
    # integral of 1 over the interior nodes is h * n, approaching b - a
    grid = Grid1D(0.0, 1.0, 99)
    ones = np.ones(grid.n)
    assert inner1(grid, ones, ones) == pytest.approx(0.99)
