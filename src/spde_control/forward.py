"""Path simulation: the state equation, the spike-perturbed state, and the
linearizations along a reference pair: first and second order responses
and the product process on the square.

Time stepping is semi-implicit Euler-Maruyama, implicit only in the linear
elliptic part: (I - dt A) x_{k+1} = x_k + dt drift(x_k) + diffusion(x_k) dW_k.
Each step draws one noise field xi = dW_k E^T.  One kernel, _sourced,
marches the sourced linear equations on the interval (simulate_linear) and
the square (simulate_tensor): it folds the linearization into one per-node
multiplier per step and path chunk, takes source providers k -> arrays and
updates probes stacked on a leading axis in place, step-major.
simulate_costs walks many controls as a trie, simulating a shared prefix once.
All simulations of one experiment share a PathEnsemble (common random
numbers) and are vectorized over paths; reductions run in fixed order so
repeated runs are bit-identical.
"""
from __future__ import annotations

import functools
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

    values: Optional[np.ndarray]  # (n_t+1, M, n), or (n_t+1, J, M, n)
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


def _step1(stepper: ImplicitStepper, dt: float, y: np.ndarray, drift,
           noise) -> np.ndarray:
    """One semi-implicit step on the interval from the explicit parts."""
    return stepper.solve1(y + dt * drift + noise)


def _noise_axes(psi: np.ndarray, dw: np.ndarray, ndim: int) -> int:
    """Axes per path of a source psi on dw (L, K): ndim for a noise field
    (L, ...), ndim + 1 for a deterministic per-mode psi (..., 1, ..., K),
    probe axes leading.  Any other shape is refused."""
    shape = np.shape(psi)
    if len(shape) == ndim:
        if shape[0] != len(dw):
            raise ValueError(f"noise field of shape {shape} is not on {len(dw)} paths")
        return ndim
    if len(shape) <= ndim or shape[-ndim - 1] != 1 or shape[-1] != dw.shape[1]:
        raise ValueError(f"per-mode source of shape {shape} needs a path axis "
                         f"of 1 and {dw.shape[1]} modes")
    return ndim + 1


def _noise(psi: np.ndarray, dw: np.ndarray, ndim: int) -> np.ndarray:
    """Noise term of a source psi of ndim axes per path, on dw (L, K): psi
    itself (a noise field, e.g. omega xi), or sum_k psi_k dW_k by one GEMM
    for a deterministic per-mode psi (see _noise_axes)."""
    if _noise_axes(psi, dw, ndim) == ndim:
        return psi
    out = (dw @ psi.reshape(-1, dw.shape[1]).T).reshape(
        len(dw), *psi.shape[:-ndim - 1], *psi.shape[-ndim:-1])
    return np.moveaxis(out, 0, -ndim)


def simulate_state(scn: Scenario, u: ControlProcess, ens: PathEnsemble,
                   step_hook: Callable = None) -> Trajectory:
    """Simulate and store the controlled state over the ensemble.

    step_hook(k, x_k, u_k) is called at every left endpoint before the
    step.  Costs are computed without trajectory storage by simulate_costs.
    """
    m, n = ens.n_paths, scn.grid.n
    stepper = _stepper(scn)
    x = np.tile(scn.x0.values, (m, 1))
    values = np.empty((scn.n_t + 1, m, n))
    values[0] = x
    for k in range(scn.n_t):
        uk = u.evaluate(k, scn, x)
        if step_hook is not None:
            step_hook(k, x, uk)
        x = _step1(stepper, scn.dt, x, scn.coeffs.b(x, uk),
                   scn.coeffs.sigma(x, uk) * scn.noise_field(ens.dW[:, k]))
        _check_finite(x, k + 1)
        values[k + 1] = x
    return Trajectory(values, x)


# bytes of one (chunk, n) or (chunk, n, n) block: the sourced kernel and
# the second-order sweep stream the paths in chunks of this size
CHUNK_BYTES = 1 << 20


def path_chunks(m: int, n: int, order: int = 2) -> list:
    """Slices of the path axis whose (chunk, n, ...) float blocks, order
    space axes, hold at most CHUNK_BYTES (at least one path each)."""
    rows = max(1, CHUNK_BYTES // (8 * n ** order))
    return [slice(a, min(a + rows, m)) for a in range(0, m, rows)]


def _part(src: np.ndarray, j: int, c: slice, ndim: int) -> np.ndarray:
    """Probe j's source (if src has a probe axis, ndim + 1 axes) on the path
    chunk c: only a per-path source, ndim axes and several paths, is cut."""
    src = src[j] if np.ndim(src) > ndim else src
    return src[c] if np.ndim(src) == ndim and len(src) > 1 else src


def _line_multiplier(bx: np.ndarray, sx: np.ndarray, C, dt: float, xi,
                     out=None):
    """(M, n) multiplier g = 1 + dt b_x + sigma_x xi of a step on the
    interval (into out); C is unused (tensor_multiplier's signature)."""
    g = np.multiply(dt, bx, out=out)
    g += 1.0
    g += sx * xi
    return g


def tensor_multiplier(bx: np.ndarray, sx: np.ndarray, C: np.ndarray,
                      dt: float, xi=None, out=None):
    """(M, n, n) multiplier 1 + dt c + s (+) s of a product-space step (into
    out) from the per-node b_x, sigma_x, the noise covariance C = E E^T and
    noise field xi: c_ij = b_x,i + b_x,j + sigma_x,i sigma_x,j C_ij and s =
    sigma_x xi, formed as dt (sigma_x (x) sigma_x) C + e (+) e."""
    e = 0.5 + dt * bx + (0.0 if xi is None else sx * xi)
    G = np.multiply(dt * sx[:, :, None], sx[:, None, :], out=out)
    G *= C
    G += e[:, :, None]
    G += e[:, None, :]
    return G


def _sourced(scn: Scenario, xbar: Trajectory, ubar: ControlProcess,
             ens: PathEnsemble, phi, psi, step_hook, order: int,
             store: bool) -> Trajectory:
    """The sourced linear equation along (xbar, ubar) from zero, on the
    interval (order 1) or the square (order 2): Y <- solve(G Y + dt phi +
    noise), G the order's multiplier.  Providers are called once per step;
    (J, 1, ...) probe sources march a (J, M, ...) Y updated in place,
    otherwise Y is a new array per step.  step_hook(k, Y) sees the whole
    state before each step; the step runs on path chunks with chunk-sized
    temporaries and checks each chunk for a blow-up as it is written.
    store (order 1) keeps every step."""
    stepper = _stepper(scn)
    m, n, nd = ens.n_paths, scn.grid.n, order + 1  # nd: axes of a path state
    multiplier, solve = ((_line_multiplier, stepper.solve1) if order == 1
                         else (tensor_multiplier, stepper.solve2))
    chunks = path_chunks(m, n, order)
    block = (n,) * order
    G, rhs = np.empty((2, chunks[0].stop) + block)  # chunk buffers
    Y = np.zeros((m,) + block)
    values = None
    for k in range(scn.n_t):
        phik, psik = (None if f is None else f(k) for f in (phi, psi))
        if Y.ndim == nd and (np.ndim(phik) == nd + 1 or np.ndim(psik) == nd + 2):
            Y = np.repeat(Y[None], len(phik if np.ndim(phik) == nd + 1 else psik), 0)
        if step_hook is not None:
            step_hook(k, Y)
        x, dw = xbar[k], ens.dW[:, k]
        ub = ubar.evaluate(k, scn, x)
        sx, bx, xi = (scn.coeffs.sigma_x(x, ub), scn.coeffs.b_x(x, ub),
                      scn.noise_field(dw))
        pnd = nd if psik is None else _noise_axes(psik, dw, nd)  # before cutting
        # without a probe axis the state is rebound, so a hook may keep it
        new = Y if Y.ndim > nd else np.empty_like(Y)
        for c in chunks:
            L = c.stop - c.start
            multiplier(bx[c], sx[c], scn.noise_cov, scn.dt, xi[c], out=G[:L])
            for j, (Yj, out) in enumerate(zip(Y.reshape(-1, m, *block),
                                              new.reshape(-1, m, *block))):
                r = np.multiply(G[:L], Yj[c], out=rhs[:L])
                if phik is not None:
                    r += scn.dt * _part(phik, j, c, nd)
                if psik is not None:
                    r += _noise(_part(psik, j, c, pnd), dw[c], nd)
                out[c] = solve(r)
                _check_finite(out[c], k + 1)
        Y = new
        if store:
            if values is None:
                values = np.zeros((scn.n_t + 1,) + Y.shape)
            values[k + 1] = Y
    return Trajectory(values, Y)


def simulate_linear(scn: Scenario, xbar: Trajectory, ubar: ControlProcess,
                    ens: PathEnsemble, phi: Callable = None, psi: Callable = None,
                    store: bool = True, step_hook: Callable = None) -> Trajectory:
    """The linearization along (xbar, ubar) on the interval, _sourced's
    order 1: y <- solve1(g y + dt phi + noise), g = 1 + dt b_x + sigma_x xi.
    phi/psi are per-step source providers k -> arrays; None, or a None
    return, means zero.  phi broadcasts to (M, n); psi is a noise field
    (M, n) or per mode, (1, n, K) (see _noise); a leading probe axis,
    (J, 1, n) and (J, 1, n, K), marches a (J, M, n) y."""
    return _sourced(scn, xbar, ubar, ens, phi, psi, step_hook, 1, store)


def simulate_tensor(scn: Scenario, xbar: Trajectory, ubar: ControlProcess,
                    ens: PathEnsemble, phi: Callable = None, psi: Callable = None,
                    step_hook: Callable = None) -> Trajectory:
    """The product-space linearization along (xbar, ubar), _sourced's
    order 2, keeping only the final value: Y <- solve2(G Y + dt Phi +
    noise), G = 1 + dt c + s (+) s (tensor_multiplier).  Sources as in
    simulate_linear, on (M, n, n); a probe state is updated in place, so a
    hook copies what it keeps."""
    return _sourced(scn, xbar, ubar, ens, phi, psi, step_hook, 2, False)


# -- spike sources along a reference path ------------------------------------

def _jumps(scn, x, ub, ue, base=None):
    """Per-node jumps b(x, ue) - b(x, ub) and sigma(x, ue) - sigma(x, ub) of
    the spiked control ue at one step, reusing base = (b, sigma)(x, ub)."""
    b_b, sig_b = base or (scn.coeffs.b(x, ub), scn.coeffs.sigma(x, ub))
    return scn.coeffs.b(x, ue) - b_b, scn.coeffs.sigma(x, ue) - sig_b


def _second_variation(scn, x, ue, y, a, s, axx, sxx):
    """Second-order response sources (phi, omega) at one step, the noise
    being omega xi, given the first-order response y and (a, s, axx, sxx) =
    (b_x, sigma_x, b_xx, sigma_xx) along (x, ub): quadratic curvature
    sources in y plus, on the spike window, the derivative jumps acting on
    y."""
    phi = 0.5 * axx * y ** 2
    omega = 0.5 * sxx * y ** 2
    if ue is not None:
        phi = phi + (scn.coeffs.b_x(x, ue) - a) * y
        omega = omega + (scn.coeffs.sigma_x(x, ue) - s) * y
    return phi, omega


def _spiked(ueps: ControlProcess, k: int, scn: Scenario, x):
    """The spiked control at step k, or None off the spike window."""
    if isinstance(ueps, SpikeControl) and not ueps.active(k, scn):
        return None
    return ueps.evaluate(k, scn, x)


def _spike_jumps(scn, xbar: Trajectory, ubar: ControlProcess,
                 ueps: ControlProcess, ens: PathEnsemble) -> Callable:
    """k -> (x, ub, db, ds, ds xi) along xbar on the spike window, None off
    it; the last step is kept, so a phi/psi pair evaluates it once."""
    @functools.lru_cache(maxsize=1)
    def at(k):
        x = xbar[k]
        ue = _spiked(ueps, k, scn, x)
        if ue is None:
            return None
        ub = ubar.evaluate(k, scn, x)
        db, ds = _jumps(scn, x, ub, ue)
        return x, ub, db, ds, ds * scn.noise_field(ens.dW[:, k])

    return at


def spike_sources(scn, xbar: Trajectory, ubar: ControlProcess,
                  ueps: ControlProcess, ens: PathEnsemble):
    """Source pair (phi, psi) driving the first-order response to the
    spike in simulate_linear: b(xbar, u_eps) - b(xbar, ubar) and the noise
    field of the diffusion jump, both vanishing off the spike window."""
    at = _spike_jumps(scn, xbar, ubar, ueps, ens)

    def source(i):
        return lambda k: None if at(k) is None else at(k)[i]

    return source(2), source(4)


def spike_tensor_sources(scn, xbar: Trajectory, ubar: ControlProcess,
                         ueps: ControlProcess, y: Trajectory,
                         ens: PathEnsemble):
    """Source pair driving the product process of the first order response
    on the ensemble's noise: with the jumps (db, ds), the symmetrized y_i
    db_j + ((sigma_x y)_i ds_j + ds_i ds_j / 2) C_ij and the noise field
    y_i (ds xi)_j + (ds xi)_i y_j, both vanishing off the spike window."""
    at = _spike_jumps(scn, xbar, ubar, ueps, ens)
    C = scn.noise_cov

    def phi(k):
        c = at(k)
        if c is None:
            return None
        (x, ub, db, ds, _), yk = c, y[k]
        sy = scn.coeffs.sigma_x(x, ub) * yk
        out = yk[:, :, None] * db[:, None, :] + yk[:, None, :] * db[:, :, None]
        cross = sy[:, :, None] * ds[:, None, :] * C
        out += cross + np.swapaxes(cross, 1, 2)
        out += ds[:, :, None] * ds[:, None, :] * C
        return out

    def psi(k):
        c = at(k)
        if c is None:
            return None
        w, yk = c[4], y[k]
        return w[:, :, None] * yk[:, None, :] + yk[:, :, None] * w[:, None, :]

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


def simulate_costs(scn: Scenario, controls, ens: PathEnsemble) -> list:
    """Monte Carlo cost of each control without trajectory storage (running
    cost by left-endpoint quadrature, plus the terminal term), or the
    BlowUpError that stopped it.  One depth-first walk over the trie of the
    controls: a node's controls are grouped by the bytes of their value at
    step k, so a shared prefix is simulated once and a blow-up in it stops
    every control below it.  Exact, as a control reads at most (k, x_k)."""
    stepper = _stepper(scn)
    out = {}
    stack = [(0, np.tile(scn.x0.values, (ens.n_paths, 1)),
              np.zeros(ens.n_paths), range(len(controls)))]
    while stack:
        k, x, acc, members = stack.pop()
        if k == scn.n_t:
            out.update(dict.fromkeys(members, _finalize_cost(scn, acc, x)))
            continue
        groups = {}
        for i in members:
            uk = controls[i].evaluate(k, scn, x)
            key = (np.shape(uk), np.asarray(uk).tobytes())
            groups.setdefault(key, (uk, []))[1].append(i)
        accs = [acc] + [acc.copy() for _ in range(len(groups) - 1)]
        for (uk, group), acc_g in zip(groups.values(), accs):
            acc_g += scn.dt * scn.grid.h * np.sum(scn.coeffs.l(x, uk), axis=-1)
            x_g = _step1(stepper, scn.dt, x, scn.coeffs.b(x, uk),
                         scn.coeffs.sigma(x, uk) * scn.noise_field(ens.dW[:, k]))
            try:
                _check_finite(x_g, k + 1)
                stack.append((k + 1, x_g, acc_g, group))
            except BlowUpError as exc:
                out.update(dict.fromkeys(group, exc))
    return [out[i] for i in range(len(controls))]


def simulate_cost(scn: Scenario, u: ControlProcess, ens: PathEnsemble) -> CostEstimate:
    """The one-control case of simulate_costs; raises its BlowUpError."""
    est, = simulate_costs(scn, [u], ens)
    if isinstance(est, BlowUpError):
        raise est
    return est


# -- joint spike-expansion statistics ---------------------------------------

# the spike-expansion moments: the first-order response's second moment, the
# second-order response's first moment and the squared expansion residual
# (each a sup over time), and the terminal moment of the first-order
# response in the Sobolev norm of order 1/4
MOMENTS = ("y_moment", "z_moment", "residual", "hgamma")


def spike_expansion_stats(scn: Scenario, ubar: ControlProcess, v, tau: float,
                          eps, ens: PathEnsemble) -> tuple:
    """Lockstep simulation of the reference state and, for each spike length
    in eps, the spike-perturbed state and both response processes on common
    noise, without trajectory storage.  Each step forms the reference, its
    noise field and its linearization once for every length; a sup-over-time
    moment streams as its largest step mean (the first one reached) with
    that step's standard error.  Returns (stats, ses): MOMENTS -> one value
    per length."""
    m, n, dt, h = ens.n_paths, scn.grid.n, scn.dt, scn.grid.h
    stepper = _stepper(scn)
    spikes = [SpikeControl(ubar, v, tau, e) for e in eps]
    for sp in spikes:
        sp.validate_horizon(scn.T)
    xb = np.tile(scn.x0.values, (m, 1))
    runs = [(xb.copy(), np.zeros((m, n)), np.zeros((m, n))) for _ in spikes]
    out = np.zeros((2, len(MOMENTS), len(spikes)))  # (value, se), moment, length

    def se(per_path):
        return float(per_path.std(ddof=1) / np.sqrt(m)) if m > 1 else 0.0

    for k in range(scn.n_t):
        ub = ubar.evaluate(k, scn, xb)
        b_b, sig_b = scn.coeffs.b(xb, ub), scn.coeffs.sigma(xb, ub)
        a, s = scn.coeffs.b_x(xb, ub), scn.coeffs.sigma_x(xb, ub)
        bxx, sxx = scn.coeffs.b_xx(xb, ub), scn.coeffs.sigma_xx(xb, ub)
        xi = scn.noise_field(ens.dW[:, k])
        g = 1.0 + dt * a + s * xi
        xb_next = _step1(stepper, dt, xb, b_b, sig_b * xi)
        for j, (sp, (xe, y, z)) in enumerate(zip(spikes, runs)):
            ue = sp.evaluate(k, scn, xe)
            spike = ue if sp.active(k, scn) else None
            db, ds = (0.0, 0.0) if spike is None else _jumps(scn, xb, ub, spike,
                                                             (b_b, sig_b))
            qphi, qomega = _second_variation(scn, xb, spike, y, a, s, bxx, sxx)
            runs[j] = xe, y, z = (
                _step1(stepper, dt, xe, scn.coeffs.b(xe, ue),
                       scn.coeffs.sigma(xe, ue) * xi),
                _step1(stepper, dt, g * y, db, ds * xi),
                _step1(stepper, dt, g * z, qphi, qomega * xi))
            _check_finite(xe, k + 1)
            res = xe - xb_next - y - z
            for i, per_path in enumerate((h * np.sum(y ** 2, axis=-1),
                                          np.sqrt(h * np.sum(z ** 2, axis=-1)),
                                          h * np.sum(res ** 2, axis=-1))):
                mean = per_path.mean()
                if mean > out[0, i, j]:
                    out[:, i, j] = mean, se(per_path)
        xb = xb_next
    basis = SpectralBasis.build(scn.grid, scn.op)
    for j, (_, y, _) in enumerate(runs):
        hg = sobolev_norms_batch(y, basis, 0.25) ** 2
        out[:, -1, j] = hg.mean(), se(hg)
    return tuple(dict(zip(MOMENTS, part)) for part in out)
