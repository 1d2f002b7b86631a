"""Coefficient presets, control processes, config loading and validation."""
import os
from types import SimpleNamespace

import numpy as np
import pytest

from helpers import MISMATCHED, make_scenario
from spde_control import scenario
from spde_control.grids import Grid1D
from spde_control.scenario import (ConfigError, ControlSet,
                                   DeterministicControl, NoiseModel,
                                   ScenarioValidationError, SpikeControl,
                                   load_scenario, make_coefficients,
                                   sine_mode_shapes, validate_coefficients)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture(name):
    return os.path.join(FIXTURES, name)


# -- coefficient presets -----------------------------------------------------

def test_unknown_preset_rejected():
    with pytest.raises(ScenarioValidationError):
        make_coefficients("cubic", 1)


def test_unknown_parameter_rejected():
    with pytest.raises(ConfigError):
        make_coefficients("additive", 1, viscosity=2.0)


@pytest.mark.parametrize("preset", ["additive", "bilinear", "logistic-drift",
                                    "quadratic-cost"])
def test_preset_derivatives_consistent(preset):
    cs = make_coefficients(preset, 2)
    report = validate_coefficients(cs, [np.array([0.0]), np.array([0.7])])
    assert all(err < 1e-5 for err in report.values())


def test_mismatched_preset_fails_validation(monkeypatch):
    monkeypatch.setitem(scenario.PRESETS, "mismatched", MISMATCHED)
    cs = make_coefficients("mismatched", 1)
    with pytest.raises(ScenarioValidationError, match="b/b_x"):
        validate_coefficients(cs, [np.array([0.0])])


def test_sigma_returns_per_node_values():
    # the diffusion is a per-node field; the K modes enter only through the
    # scenario's profile E, as sigma_eff = sigma[..., None] * E
    cs = make_coefficients("additive", 3, noise_amp=0.5)
    out = cs.sigma(np.zeros(7), np.array([0.0]))
    assert out.shape == (7,)
    assert np.all(out == 0.5)
    x = np.random.default_rng(0).normal(size=(4, 7))
    u = np.array([0.3])
    for shapes in (False, True):
        scn = make_scenario("logistic-drift", n=7, K=3, shapes=shapes)
        E = scn.noise.mode_shapes if shapes else np.ones((7, 3))
        for per_node, eff in ((scn.coeffs.sigma, scn.sigma_eff),
                              (scn.coeffs.sigma_x, scn.sigma_x_eff),
                              (scn.coeffs.sigma_xx, scn.sigma_xx_eff)):
            assert per_node(x, u).shape == (4, 7)
            assert np.all(eff(x, u) == per_node(x, u)[..., None] * E)


# -- control sets / processes ------------------------------------------------

def test_control_set_lattice():
    finite = ControlSet("finite", points=((0.0,), (1.0,)))
    assert len(finite.lattice()) == 2
    box = ControlSet("box", low=(-1.0,), high=(1.0,), lattice_size=5)
    lat = box.lattice()
    assert len(lat) == 5
    assert lat[0][0] == -1.0 and lat[-1][0] == 1.0


def test_control_set_validation():
    with pytest.raises(ScenarioValidationError):
        ControlSet("finite", points=())
    with pytest.raises(ScenarioValidationError):
        ControlSet("box", low=(1.0,), high=(-1.0,))
    with pytest.raises(ScenarioValidationError):
        ControlSet("ring")


def test_spike_control_window():
    scn = make_scenario(n_t=10, T=1.0)
    base = DeterministicControl.constant([0.0])
    spike = SpikeControl(base, [1.0], tau=0.3, eps=0.2)
    active = [spike.active(k, scn) for k in range(10)]
    # left-closed window [0.3, 0.5): steps 3 and 4 only
    assert active == [False] * 3 + [True] * 2 + [False] * 5
    assert np.allclose(spike.evaluate(3, scn), [1.0])
    assert np.allclose(spike.evaluate(5, scn), [0.0])


def test_spike_horizon_invariant():
    base = DeterministicControl.constant([0.0])
    spike = SpikeControl(base, [1.0], tau=0.9, eps=0.2)
    with pytest.raises(ScenarioValidationError, match="tau \\+ eps"):
        spike.validate_horizon(1.0)
    with pytest.raises(ScenarioValidationError):
        SpikeControl(base, [1.0], tau=0.0, eps=0.1)


def test_grid_aligned_spike_is_active_on_its_steps_alone():
    # tau = k dt, eps = dt, as the SMP check builds a profitable spike; in
    # floating point k dt + dt can exceed (k + 1) dt (T = 0.5, n_t = 12,
    # k = 6), so a window compared in time was active on two steps
    base = DeterministicControl.constant([0.0])
    scn = make_scenario(n_t=12, T=0.5)
    spike = SpikeControl(base, [1.0], tau=6 * scn.dt, eps=scn.dt)
    assert [k for k in range(12) if spike.active(k, scn)] == [6]
    for T in (0.2, 0.3, 0.5, 0.7, 1.0):
        for n_t in range(10, 1001):
            grid = SimpleNamespace(dt=T / n_t)
            for k in (1, n_t // 2, n_t - 1):
                spike = SpikeControl(base, [1.0], tau=k * grid.dt, eps=grid.dt)
                assert [j for j in (k - 1, k, k + 1)
                        if spike.active(j, grid)] == [k], (T, n_t, k)
            wide = SpikeControl(base, [1.0], tau=grid.dt, eps=(n_t - 1) * grid.dt)
            assert [j for j in (0, 1, n_t - 1, n_t)
                    if wide.active(j, grid)] == [1, n_t - 1], (T, n_t)


def test_grid_aligned_spike_may_end_at_the_horizon():
    # tau + eps = dt + 299 dt is 0.20000000000000004 in floating point
    base = DeterministicControl.constant([0.0])
    dt = 0.2 / 300
    SpikeControl(base, [1.0], tau=dt, eps=299 * dt).validate_horizon(0.2)
    with pytest.raises(ScenarioValidationError, match="exceeds horizon"):
        SpikeControl(base, [1.0], tau=2 * dt, eps=299 * dt).validate_horizon(0.2)


def test_zero_length_spike_is_identity():
    scn = make_scenario(n_t=8, T=1.0)
    base = DeterministicControl.constant([0.25])
    spike = SpikeControl(base, [9.0], tau=0.5, eps=0.0)
    for k in range(8):
        assert np.allclose(spike.evaluate(k, scn), [0.25])


def test_block_control_table():
    u = DeterministicControl.from_blocks([(0.0,), (1.0,)], n_t=6)
    assert [u.evaluate(k, None)[0] for k in range(6)] == [0, 0, 0, 1, 1, 1]
    with pytest.raises(ScenarioValidationError):
        DeterministicControl.from_blocks([(0.0,), (1.0,), (2.0,)], n_t=7)


def test_mode_shapes_orthonormal():
    grid = Grid1D(0.0, 1.0, 32)
    shapes = sine_mode_shapes(grid, 4)
    gram = grid.h * shapes.T @ shapes
    assert np.allclose(gram, np.eye(4), atol=1e-12)
    with pytest.raises(ScenarioValidationError):
        NoiseModel(2, 2.0 * shapes[:, :2]).validate_shapes(grid)


# -- scenario invariants -----------------------------------------------------

def test_scenario_invariants():
    with pytest.raises(ScenarioValidationError):
        make_scenario(n_t=1)
    with pytest.raises(ScenarioValidationError):
        make_scenario(T=-1.0)


def test_sigma_eff_applies_shapes():
    scn = make_scenario("additive", shapes=True, noise_amp=0.3)
    x = np.zeros((5, scn.grid.n))
    eff = scn.sigma_eff(x, np.array([0.0]))
    assert np.allclose(eff, 0.3 * scn.noise.mode_shapes)


# -- config loading ----------------------------------------------------------

def test_load_scenario_round_trip():
    scn = load_scenario(fixture("bilinear.cfg"))
    assert scn.grid.n == 16
    assert scn.n_t == 64
    assert scn.T == 0.5
    assert scn.n_modes == 2
    assert scn.coeffs.name == "bilinear"
    assert scn.default_paths == 2000
    assert np.allclose(scn.base_control.evaluate(0, scn), [0.0])


def test_load_scenario_with_spike():
    scn = load_scenario(fixture("logistic_spike.cfg"))
    assert isinstance(scn.spike_control, SpikeControl)
    assert scn.spike_control.tau == pytest.approx(0.025)


def test_unknown_section_rejected(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[grid]\nn = 8\n[coefficients]\npreset = additive\n"
                   "[time]\nhorizon = 1\nsteps = 8\n[plotting]\nstyle = x\n")
    with pytest.raises(ConfigError, match="unknown config section"):
        load_scenario(cfg)


def test_unknown_key_rejected(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[grid]\nn = 8\ncolor = red\n[coefficients]\n"
                   "preset = additive\n[time]\nhorizon = 1\nsteps = 8\n")
    with pytest.raises(ConfigError, match="unknown key"):
        load_scenario(cfg)


def test_missing_section_rejected(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[grid]\nn = 8\n[time]\nhorizon = 1\nsteps = 8\n")
    with pytest.raises(ConfigError, match="missing config section"):
        load_scenario(cfg)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_scenario(tmp_path / "nope.cfg")


def test_mismatched_coefficients_rejected_at_load(tmp_path, monkeypatch):
    monkeypatch.setitem(scenario.PRESETS, "mismatched", MISMATCHED)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[grid]\nn = 8\n[coefficients]\npreset = mismatched\n"
                   "[time]\nhorizon = 1\nsteps = 8\n")
    with pytest.raises(ScenarioValidationError, match="derivative-consistency"):
        load_scenario(cfg)


def test_seed_environment_override(tmp_path, monkeypatch):
    monkeypatch.setenv("SPDE_CONTROL_SEED", "99")
    scn = load_scenario(fixture("bilinear.cfg"))
    assert scn.seed == 99
