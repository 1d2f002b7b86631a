"""CSV round trips for fields and tensor fields."""
import numpy as np

from helpers import field_from_csv, tensor_from_csv
from spde_control.grids import Field, Grid1D, TensorField
from spde_control.serialize import field_to_csv, tensor_to_csv


def _rng():
    return np.random.Generator(np.random.Philox(key=123))


def test_field_csv_round_trip_exact():
    grid = Grid1D(0.0, 1.0, 7)
    f = Field(grid, _rng().normal(size=7) * np.pi)
    g = field_from_csv(field_to_csv(f))
    assert g.grid == grid
    assert np.array_equal(g.values, f.values)  # %.17g round-trips exactly


def test_field_csv_header_versioned():
    f = Field(Grid1D(0.0, 1.0, 3), np.ones(3))
    first = field_to_csv(f).splitlines()[0]
    assert first.startswith("# spde-control csv v1")


def test_tensor_csv_round_trip_exact():
    grid = Grid1D(-1.0, 2.0, 5).square()
    w = TensorField(grid, _rng().normal(size=(5, 5)))
    out = tensor_from_csv(tensor_to_csv(w))
    assert np.array_equal(out.values, w.values)
