"""Noise ensembles: reproducibility and distributional sanity."""
import numpy as np
import pytest

from helpers import make_scenario
from spde_control.ensemble import PathEnsemble


def test_shapes_and_for_scenario_defaults():
    scn = make_scenario(n=8, n_t=16, K=3, default_paths=12)
    ens = PathEnsemble.for_scenario(scn)
    assert ens.dW.shape == (12, 16, 3)
    assert ens.dt == pytest.approx(scn.dt)
    assert ens.seed == scn.seed


def test_generation_is_deterministic():
    a = PathEnsemble.generate(5, 6, 10, 2, 0.01)
    b = PathEnsemble.generate(5, 6, 10, 2, 0.01)
    assert np.array_equal(a.dW, b.dW)
    c = PathEnsemble.generate(6, 6, 10, 2, 0.01)
    assert not np.array_equal(a.dW, c.dW)


def test_regenerate_path_bit_exact():
    ens = PathEnsemble.generate(42, 8, 20, 2, 0.05)
    for path in (0, 3, 7):
        assert np.array_equal(ens.regenerate_path(path), ens.dW[path])


@pytest.mark.parametrize("seed", [0, 7, 2 ** 40])
def test_blocks_equal_a_per_path_philox_generator(seed):
    # one reused generator with its state reset per path draws exactly the
    # block of a fresh Philox keyed by (seed << 64) + path
    dt = 0.01
    ens = PathEnsemble.generate(seed, 20000, 3, 2, dt)
    for path in (0, 1, 19999):
        gen = np.random.Generator(np.random.Philox(key=(seed << 64) + path))
        ref = gen.standard_normal((3, 2)) * np.sqrt(dt)
        assert np.array_equal(ens.dW[path], ref)
        assert np.array_equal(ens.regenerate_path(path), ref)


@pytest.mark.parametrize("seed", [-1, 1 << 64])
def test_keys_outside_philox_range_rejected(seed):
    with pytest.raises(ValueError):
        PathEnsemble.generate(seed, 2, 3, 1, 0.01)


def test_paths_are_independent_of_ensemble_size():
    # per-path keying: path 2 is the same block whether 3 or 8 paths exist
    small = PathEnsemble.generate(7, 3, 15, 2, 0.02)
    large = PathEnsemble.generate(7, 8, 15, 2, 0.02)
    assert np.array_equal(small.dW, large.dW[:3])


def test_increment_moments():
    dt = 0.01
    ens = PathEnsemble.generate(1, 4000, 8, 1, dt)
    flat = ens.dW.ravel()
    n = flat.size
    assert abs(flat.mean()) < 4.0 * np.sqrt(dt / n)
    assert flat.var() == pytest.approx(dt, rel=0.05)
