"""Path simulation: state equation, spike-perturbed state, first and second
order response equations, and the associated product process on the square.

Time stepping is semi-implicit Euler-Maruyama, implicit only in the linear
elliptic part: (I - dt A) x_{k+1} = x_k + dt drift(x_k) + diffusion(x_k) dW_k.
All simulations of one experiment share a PathEnsemble (common random
numbers) and are vectorized over paths; reductions run in fixed order so
repeated runs are bit-identical.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .ensemble import PathEnsemble
from .operators import ImplicitStepper, sobolev_norms_batch, SpectralBasis
from .scenario import ControlProcess, Scenario, SpikeControl


class BlowUpError(RuntimeError):
    """Simulation produced non-finite values; carries the offending step."""

    def __init__(self, step: int):
        super().__init__(f"simulation blew up at step {step}")
        self.step = step


@dataclass
class Trajectory:
    """Stored path ensemble trajectory and its final value."""

    values: Optional[np.ndarray]  # (n_t+1, M, n) or (n_t+1, M, n, n)
    final: np.ndarray

    def __getitem__(self, k):
        if self.values is None:
            raise ValueError("trajectory was simulated without storage")
        return self.values[k]


def _stepper(scn: Scenario) -> ImplicitStepper:
    return ImplicitStepper(scn.grid, scn.op, scn.dt)


def _check_finite(x: np.ndarray, step: int):
    if not np.all(np.isfinite(x)):
        raise BlowUpError(step)


def _node_noise(scn: Scenario, sig: np.ndarray, dw: np.ndarray) -> np.ndarray:
    """sum_k (sig E_k) dW_k for a per-node diffusion sig (M, n) and the
    noise profile E (n, K), without the (M, n, K) per-mode array."""
    noise = (sig * scn.profile[:, 0]) * dw[:, 0, None]
    for mode in range(1, scn.n_modes):
        noise += (sig * scn.profile[:, mode]) * dw[:, mode, None]
    return noise


def _step1(stepper: ImplicitStepper, dt: float, y: np.ndarray, drift,
           noise: np.ndarray) -> np.ndarray:
    """One semi-implicit step on the interval from the explicit parts."""
    return stepper.solve1(y + dt * drift + noise)


def _step_linear(stepper: ImplicitStepper, dt: float, y: np.ndarray, terms,
                 dwk: np.ndarray) -> np.ndarray:
    """One step of the sourced linear equation with terms (a, s, phi, psi):
    drift a y + phi, per-mode diffusion s y + psi."""
    a, s, phi, psi = terms
    return _step1(stepper, dt, y, a * y + phi,
                  np.einsum("pnk,pk->pn", s * y[..., None] + psi, dwk))


def simulate_state(scn: Scenario, u: ControlProcess, ens: PathEnsemble,
                   store: bool = True, step_hook: Callable = None) -> Trajectory:
    """Simulate the controlled state over the ensemble.

    step_hook(k, x_k, u_k) is called at every left endpoint before the
    step, which lets cost-style accumulators run without trajectory
    storage.
    """
    m, n = ens.n_paths, scn.grid.n
    stepper = _stepper(scn)
    x = np.tile(scn.x0.values, (m, 1))
    values = np.empty((scn.n_t + 1, m, n)) if store else None
    if store:
        values[0] = x
    for k in range(scn.n_t):
        uk = u.evaluate(k, scn, x)
        if step_hook is not None:
            step_hook(k, x, uk)
        x = _step1(stepper, scn.dt, x, scn.coeffs.b(x, uk),
                   _node_noise(scn, scn.coeffs.sigma(x, uk), ens.dW[:, k]))
        _check_finite(x, k + 1)
        if store:
            values[k + 1] = x
    return Trajectory(values, x)


def simulate_linear(scn: Scenario, sys: Callable, ens: PathEnsemble,
                    store: bool = True, step_hook: Callable = None) -> Trajectory:
    """Simulate a sourced linear equation (zero initial condition) with the
    same semi-implicit scheme and frozen adapted coefficients.

    sys(k) is called once per step and returns (a, s, phi, psi): the drift
    multiplier (M, n), the diffusion multiplier (M, n, K) and the drift and
    diffusion sources, which need only broadcast to those shapes.
    """
    m, n = ens.n_paths, scn.grid.n
    stepper = _stepper(scn)
    y = np.zeros((m, n))
    values = np.empty((scn.n_t + 1, m, n)) if store else None
    if store:
        values[0] = y
    for k in range(scn.n_t):
        if step_hook is not None:
            step_hook(k, y)
        y = _step_linear(stepper, scn.dt, y, sys(k), ens.dW[:, k])
        _check_finite(y, k + 1)
        if store:
            values[k + 1] = y
    return Trajectory(values, y)


def tensor_drift(bx: np.ndarray, sx: np.ndarray) -> np.ndarray:
    """(M, n, n) drift multiplier of the product-space equations:
    b_x(i) + b_x(j) + <sigma_x(i), sigma_x(j)> over the noise modes."""
    return bx[:, :, None] + bx[:, None, :] + sx @ np.swapaxes(sx, 1, 2)


def tensor_noise(sx: np.ndarray, dwk: np.ndarray, Y: np.ndarray,
                 psik: Optional[np.ndarray] = None) -> np.ndarray:
    """(M, n, n) noise increment of the product-space equation,
    sum_k ((sx_k (+) sx_k) Y + psi_k) dW_k.  The multiplicative part
    collapses to (s (+) s) Y with s = sum_k sx_k dW_k, one pass over Y."""
    s = np.einsum("pnk,pk->pn", sx, dwk)
    noise = (s[:, :, None] + s[:, None, :]) * Y
    if psik is not None:
        for mode in range(dwk.shape[1]):
            noise += psik[..., mode] * dwk[:, mode, None, None]
    return noise


def simulate_tensor(scn: Scenario, xbar: Trajectory, ubar: ControlProcess,
                    ens: PathEnsemble, phi: Callable = None, psi: Callable = None,
                    store: bool = True, step_hook: Callable = None) -> Trajectory:
    """Simulate the product-space linear equation on the square.

    The elliptic part is the Kronecker-sum operator; the drift multiplier
    couples both coordinates of the reference state and the diffusion
    multiplier acts per retained noise mode.  phi/psi are per-step source
    providers k -> arrays broadcasting to (M, n, n) and (M, n, n, K);
    None, or a None return, means zero.
    """
    m, n = ens.n_paths, scn.grid.n
    stepper = _stepper(scn)
    Y = np.zeros((m, n, n))
    values = np.empty((scn.n_t + 1, m, n, n)) if store else None
    if store:
        values[0] = Y
    for k in range(scn.n_t):
        if step_hook is not None:
            step_hook(k, Y)
        x = xbar[k]
        ub = ubar.evaluate(k, scn, x)
        sx = scn.sigma_x_eff(x, ub)
        drift = tensor_drift(scn.coeffs.b_x(x, ub), sx) * Y
        phik = phi(k) if phi is not None else None
        if phik is not None:
            drift = drift + phik
        psik = psi(k) if psi is not None else None
        noise = tensor_noise(sx, ens.dW[:, k], Y, psik)
        Y = stepper.solve2(Y + scn.dt * drift + noise)
        _check_finite(Y, k + 1)
        if store:
            values[k + 1] = Y
    return Trajectory(values, Y)


# -- linearizations along a reference path ----------------------------------

def _first_variation(scn, x, ub, ue, base=None):
    """First-order response terms at one step: the linearization b_x,
    sigma_x along (x, ub), and the sources b(x, ue) - b(x, ub) and
    sigma(x, ue) - sigma(x, ub) of the spiked control ue, reusing base =
    (b(x, ub), per-node sigma(x, ub)) when given."""
    a, s = scn.coeffs.b_x(x, ub), scn.sigma_x_eff(x, ub)
    if ue is None:
        return a, s, 0.0, 0.0
    b_b, sig_b = base or (scn.coeffs.b(x, ub), scn.coeffs.sigma(x, ub))
    return (a, s, scn.coeffs.b(x, ue) - b_b,
            scn.sigma_eff(x, ue) - scn._shaped(sig_b))


def _second_variation(scn, x, ub, ue, y, a, s):
    """Second-order response terms at one step, given the first-order
    response y and the linearization (a, s) along (x, ub): quadratic
    curvature sources in y plus, on the spike window, the derivative jumps
    acting on y."""
    phi = 0.5 * scn.coeffs.b_xx(x, ub) * y ** 2
    psi = 0.5 * scn.sigma_xx_eff(x, ub) * (y ** 2)[..., None]
    if ue is not None:
        phi = phi + (scn.coeffs.b_x(x, ue) - a) * y
        psi = psi + (scn.sigma_x_eff(x, ue) - s) * y[..., None]
    return a, s, phi, psi


def _spiked(ueps: ControlProcess, k: int, scn: Scenario, x):
    """The spiked control at step k, or None off the spike window."""
    if isinstance(ueps, SpikeControl) and not ueps.active(k, scn):
        return None
    return ueps.evaluate(k, scn, x)


def first_variation_system(scn, xbar: Trajectory, ubar: ControlProcess,
                           ueps: ControlProcess) -> Callable:
    """Linearization along xbar sourced by the control perturbation, as a
    system sys(k) -> (a, s, phi, psi) for simulate_linear: the drift
    source is b(xbar, u_eps) - b(xbar, ubar) and analogously for the
    diffusion, both vanishing off the spike window."""

    def sys(k):
        x = xbar[k]
        return _first_variation(scn, x, ubar.evaluate(k, scn, x),
                                _spiked(ueps, k, scn, x))

    return sys


def probe_system(scn, xbar: Trajectory, ubar: ControlProcess,
                 phi: np.ndarray, psi: np.ndarray) -> Callable:
    """Linearization along xbar driven by deterministic probe sources
    phi (n_t, n) and psi (n_t, n, K), as a system sys(k) -> (a, s, phi_k,
    psi_k) for simulate_linear; the sources broadcast over the paths."""
    phi = np.asarray(phi, dtype=float)
    psi = np.asarray(psi, dtype=float)

    def sys(k):
        x = xbar[k]
        ub = ubar.evaluate(k, scn, x)
        return scn.coeffs.b_x(x, ub), scn.sigma_x_eff(x, ub), phi[k], psi[k]

    return sys


def spike_tensor_sources(scn, xbar: Trajectory, ubar: ControlProcess,
                         ueps: ControlProcess, y: Trajectory):
    """Source pair driving the product process of the first order response.

    Both sources combine the response with the spike-window coefficient
    increments symmetrically in the two coordinates; they vanish off the
    spike window."""

    def controls(k):
        x = xbar[k]
        ue = _spiked(ueps, k, scn, x)
        return None if ue is None else (x, ubar.evaluate(k, scn, x), ue)

    def phi(k):
        c = controls(k)
        if c is None:
            return None
        _, sx, db, ds = _first_variation(scn, *c)
        yk = y[k]
        out = yk[:, :, None] * db[:, None, :] + yk[:, None, :] * db[:, :, None]
        dsT = np.swapaxes(ds, 1, 2)
        cross = (sx * yk[..., None]) @ dsT
        out += cross + np.swapaxes(cross, 1, 2)
        out += ds @ dsT
        return out

    def psi(k):
        c = controls(k)
        if c is None:
            return None
        x, ub, ue = c
        ds, yk = scn.sigma_eff(x, ue) - scn.sigma_eff(x, ub), y[k]
        return (ds[:, :, None, :] * yk[:, None, :, None]
                + ds[:, None, :, :] * yk[:, :, None, None])

    return phi, psi


# -- cost functional --------------------------------------------------------

@dataclass
class CostEstimate:
    """Mean cost, its standard error, the per-path costs and the terminal
    state they were computed from."""

    mean: float
    se: float
    per_path: np.ndarray
    final: np.ndarray


def _finalize_cost(scn, acc: np.ndarray, x_final: np.ndarray) -> CostEstimate:
    acc = acc + scn.grid.h * np.sum(scn.coeffs.h(x_final), axis=-1)
    return CostEstimate(float(np.mean(acc)),
                        float(np.std(acc, ddof=1) / np.sqrt(len(acc))), acc,
                        x_final)


def simulate_cost(scn: Scenario, u: ControlProcess, ens: PathEnsemble) -> CostEstimate:
    """Monte Carlo cost without trajectory storage: left-endpoint time
    quadrature of the running cost, streamed along the state simulation,
    plus the terminal term, with the standard error of the mean."""
    acc = np.zeros(ens.n_paths)

    def hook(k, x, uk):
        acc[:] += scn.dt * scn.grid.h * np.sum(scn.coeffs.l(x, uk), axis=-1)

    traj = simulate_state(scn, u, ens, store=False, step_hook=hook)
    return _finalize_cost(scn, acc, traj.final)


# -- joint spike-expansion statistics ---------------------------------------

@dataclass
class ExpansionStats:
    """Sup-over-time moments of the spike expansion, with standard errors.

    Statistics: first-order response second moment, second-order response
    first moment, squared expansion residual, and the terminal moment of
    the first-order response in the Sobolev norm of order 1/4.
    """

    y_moment: float
    y_moment_se: float
    z_moment: float
    z_moment_se: float
    residual: float
    residual_se: float
    hgamma: float
    hgamma_se: float


def spike_expansion_stats(scn: Scenario, ubar: ControlProcess, v, tau: float,
                          eps: float, ens: PathEnsemble) -> ExpansionStats:
    """Lockstep simulation of the reference state, the spike-perturbed
    state and both response processes on common noise, streaming the
    moment statistics without trajectory storage."""
    m, n = ens.n_paths, scn.grid.n
    stepper = _stepper(scn)
    ueps = SpikeControl(ubar, v, tau, eps)
    ueps.validate_horizon(scn.T)
    h = scn.grid.h
    xb = np.tile(scn.x0.values, (m, 1))
    xe = xb.copy()
    y = np.zeros((m, n))
    z = np.zeros((m, n))
    y_sq = np.zeros((scn.n_t + 1, m))
    z_nrm = np.zeros((scn.n_t + 1, m))
    r_sq = np.zeros((scn.n_t + 1, m))
    for k in range(scn.n_t):
        ub = ubar.evaluate(k, scn, xb)
        ue = ueps.evaluate(k, scn, xe)
        spike = ue if ueps.active(k, scn) else None
        b_b, sig_b = scn.coeffs.b(xb, ub), scn.coeffs.sigma(xb, ub)
        lin = _first_variation(scn, xb, ub, spike, (b_b, sig_b))
        quad = _second_variation(scn, xb, ub, spike, y, lin[0], lin[1])
        dwk = ens.dW[:, k]
        xb, xe, y, z = (
            _step1(stepper, scn.dt, xb, b_b, _node_noise(scn, sig_b, dwk)),
            _step1(stepper, scn.dt, xe, scn.coeffs.b(xe, ue),
                   _node_noise(scn, scn.coeffs.sigma(xe, ue), dwk)),
            _step_linear(stepper, scn.dt, y, lin, dwk),
            _step_linear(stepper, scn.dt, z, quad, dwk))
        _check_finite(xe, k + 1)
        y_sq[k + 1] = h * np.sum(y ** 2, axis=-1)
        z_nrm[k + 1] = np.sqrt(h * np.sum(z ** 2, axis=-1))
        res = xe - xb - y - z
        r_sq[k + 1] = h * np.sum(res ** 2, axis=-1)
    basis = SpectralBasis.build(scn.grid, scn.op)
    hg = sobolev_norms_batch(y, basis, 0.25) ** 2

    def sup_stat(per_step):
        means = per_step.mean(axis=1)
        k = int(np.argmax(means))
        se = float(per_step[k].std(ddof=1) / np.sqrt(m)) if m > 1 else 0.0
        return float(means[k]), se

    ym, yse = sup_stat(y_sq)
    zm, zse = sup_stat(z_nrm)
    rm, rse = sup_stat(r_sq)
    return ExpansionStats(ym, yse, zm, zse, rm, rse, float(hg.mean()),
                          float(hg.std(ddof=1) / np.sqrt(m)) if m > 1 else 0.0)
