"""Shared scenario builders and reference implementations for the test
suite."""
import numpy as np

from spde_control.forward import _finalize_cost, simulate_state
from spde_control.grids import Field, Grid1D, Grid2D, TensorField
from spde_control.operators import EllipticOperator
from spde_control.scenario import (PRESETS, ControlSet, DeterministicControl,
                                   NoiseModel, Scenario, SpikeControl,
                                   make_coefficients, sine_mode_shapes)


def make_scenario(preset="bilinear", a=0.0, b=1.0, n=16, n_t=64, T=0.5, K=2,
                  seed=7, x0_amp=1.0, base=(0.0,), spike=None, shapes=True,
                  control_points=((-0.5,), (0.5,)), default_paths=1000,
                  **params):
    """One-call scenario assembly with sensible smoke-test defaults.

    spike, when given, is a (v, tau, eps) triple wrapping the base control.
    """
    grid = Grid1D(a, b, n)
    coeffs = make_coefficients(preset, K, **params)
    noise = NoiseModel(K, sine_mode_shapes(grid, K) if shapes else None)
    x0 = Field(grid, x0_amp * np.sin(np.pi * (grid.nodes - a) / (b - a)))
    bc = DeterministicControl.constant(np.asarray(base, float))
    sc = None
    if spike is not None:
        v, tau, eps = spike
        sc = SpikeControl(bc, np.asarray(v, float), tau, eps)
    return Scenario(grid=grid, op=EllipticOperator(), coeffs=coeffs,
                    controls=ControlSet(kind="finite", points=control_points),
                    noise=noise, T=T, n_t=n_t, x0=x0, seed=seed,
                    default_paths=default_paths, base_control=bc,
                    spike_control=sc, name=preset)


def _build_mismatched(p):
    """The additive preset with its drift derivative off by 10%."""
    cs = PRESETS["additive"][0](p)
    dr = p["drift"]
    cs.b_x = lambda x, u: 1.1 * dr * np.ones_like(x)
    return cs


# a preset entry the load-time consistency check must reject; register it
# with monkeypatch.setitem(scenario.PRESETS, "mismatched", MISMATCHED)
MISMATCHED = (_build_mismatched, dict(drift=0.5, gain=1.0, noise_amp=0.2))


def cost(scn, traj, u):
    """Reference Monte Carlo cost from a stored trajectory: left-endpoint
    time quadrature of the running cost plus the terminal term."""
    acc = np.zeros(traj[0].shape[0])
    for k in range(scn.n_t):
        uk = u.evaluate(k, scn, traj[k])
        acc += scn.dt * scn.grid.h * np.sum(scn.coeffs.l(traj[k], uk), axis=-1)
    return _finalize_cost(scn, acc, traj.final)


def sweep_cost(scn, u, ens):
    """Reference streamed cost of one control: its own state sweep from
    t = 0, the running cost accumulated by a step hook."""
    acc = np.zeros(ens.n_paths)

    def hook(k, x, uk):
        acc[:] += scn.dt * scn.grid.h * np.sum(scn.coeffs.l(x, uk), axis=-1)

    traj = simulate_state(scn, u, ens, store=False, step_hook=hook)
    return _finalize_cost(scn, acc, traj.final)


def synthesize(basis, coeffs):
    """Inverse of SpectralBasis.coeffs."""
    V = basis.vectors
    if basis.is_2d:
        return (V @ np.asarray(coeffs) @ V.T) / basis.grid.h
    return (np.asarray(coeffs) @ V.T) / np.sqrt(basis.grid.h)


def field_from_csv(text):
    """Read back serialize.field_to_csv output."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    meta = dict(tok.split("=") for tok in lines[0].split() if "=" in tok)
    grid = Grid1D(float(meta["a"]), float(meta["b"]), int(meta["n"]))
    values = np.empty(grid.n)
    for ln in lines[2:]:
        row = ln.split(",")
        values[int(row[0])] = float(row[-1])
    return Field(grid, values)


def tensor_from_csv(text):
    """Read back serialize.tensor_to_csv output."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    meta = dict(tok.split("=") for tok in lines[0].split() if "=" in tok)
    grid = Grid1D(float(meta["a"]), float(meta["b"]), int(meta["n"]))
    values = np.empty((grid.n, grid.n))
    for ln in lines[2:]:
        row = ln.split(",")
        values[int(row[0]), int(row[1])] = float(row[-1])
    return TensorField(Grid2D(grid), values)
