"""Shared scenario builders and reference implementations for the test
suite."""
import os

import numpy as np

from spde_control.forward import _finalize_cost, simulate_state
from spde_control.grids import Field, Grid1D, Grid2D, TensorField
from spde_control.operators import (EllipticOperator, SpectralBasis,
                                    sobolev_norms_batch)
from spde_control.scenario import (PRESETS, ControlSet, DeterministicControl,
                                   NoiseModel, Scenario, SpikeControl,
                                   make_coefficients, sine_mode_shapes)


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def child_env():
    """The environment for a child Python: this one with the package
    sources first on PYTHONPATH, so the child imports the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (
        os.path.join(ROOT, "src"), env.get("PYTHONPATH"))))
    return env


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

    traj = simulate_state(scn, u, ens, step_hook=hook)
    return _finalize_cost(scn, acc, traj.final)


# -- independent references for the discrete identities ----------------------

def inner1(grid, f, g):
    """L2(interval) inner product, quadrature weight h."""
    return float(grid.h * np.sum(np.asarray(f) * np.asarray(g)))


def inner2(grid, F, G):
    """L2(square) inner product, quadrature weight h^2."""
    return float(grid.h ** 2 * np.sum(np.asarray(F) * np.asarray(G)))


def apply_operator(op, f):
    """Apply the operator to a field by its stencil; on the square it acts
    as the sum of the 1D operator in each variable (the Kronecker sum)."""
    if isinstance(f, Field):
        return Field(f.grid, _apply_1d(op, f.grid, f.values))
    base = f.grid.base
    out = _apply_1d(op, base, f.values.T).T + _apply_1d(op, base, f.values)
    return TensorField(f.grid, out)


def _apply_1d(op, grid, values):
    """Stencil application along the last axis, Dirichlet zero padding."""
    v = np.asarray(values, dtype=float)
    h2 = grid.h ** 2
    if op.kind == "laplacian":
        out = -2.0 * v
        out[..., :-1] += v[..., 1:]
        out[..., 1:] += v[..., :-1]
        return out / h2
    ah = op._interface_coeffs(grid)
    pad = np.zeros(v.shape[:-1] + (1,))
    vp = np.concatenate([pad, v, pad], axis=-1)
    flux = ah * np.diff(vp, axis=-1)  # flux at interfaces, (..., n+1)
    return np.diff(flux, axis=-1) / h2


def terminal_distance(scn, xT, moll):
    """Path-mean H^-1 distance between mollified terminals moll (M, n, n)
    and the diagonal curvature distribution, embedded through np.diag."""
    curv = np.asarray(scn.coeffs.h_xx(xT), dtype=float) / scn.grid.h
    diff = moll - np.stack([np.diag(c) for c in curv])
    basis2 = SpectralBasis.build(scn.grid.square(), scn.op)
    return float(np.mean(sobolev_norms_batch(diff, basis2, -1.0)))


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


# -- reference backward kernels: the per-target, per-probe arithmetic --------

def smoothed(Qr, target, solve):
    """solve of the conditional mean of the target: the resolvent acts on
    the coefficients Qr^T target, which Qr lifts to the paths once (the
    projector acts on the path axis, the resolvent on the space axes)."""
    return np.tensordot(Qr, solve(np.tensordot(Qr, target, axes=(0, 0))), axes=1)


def reference_adjoint1(scn, xbar, ubar, ens, step_hook=None):
    """adjoint.solve_adjoint1 with one regression per target: p and the
    (M, K, n) martingale target p dW / dt are each projected by their own
    tensordot pair.  step_hook(k, m_k, q_k) gets the lifted pairing values,
    q_k (M, n, K).  Returns the stored p (n_t+1, M, n) and q (n_t, M, n, K)."""
    from spde_control.adjoint import _step_fit
    from spde_control.forward import _stepper

    m, n, K = ens.n_paths, scn.grid.n, scn.n_modes
    fit, _ = _step_fit(scn, m)
    stepper = _stepper(scn)
    p_store = np.empty((scn.n_t + 1, m, n))
    q_store = np.empty((scn.n_t, m, n, K))
    p = p_store[scn.n_t] = scn.coeffs.h_x(xbar.final)
    for k in range(scn.n_t - 1, -1, -1):
        x = xbar[k]
        uk = ubar.evaluate(k, scn, x)
        mart = p[:, None, :] * ens.dW[:, k][:, :, None] / scn.dt
        Qr = fit(x)
        mk = smoothed(Qr, p, stepper.solve1)
        q = np.swapaxes(smoothed(Qr, mart, stepper.solve1), 1, 2)
        drift = (scn.coeffs.b_x(x, uk) * mk
                 + np.einsum("pnk,pnk->pn", scn.sigma_x_eff(x, uk), q)
                 + scn.coeffs.l_x(x, uk))
        p = p_store[k] = mk + scn.dt * drift
        q_store[k] = q
        if step_hook is not None:
            step_hook(k, mk, q)
    return p_store, q_store


def qcouple(sx, Qk):
    """sum_k (sx_k (+) sx_k) Q_k from sx (M, n, K) and Qk (M, K, n, n), one
    strided mode at a time."""
    out = (sx[:, :, 0, None] + sx[:, None, :, 0]) * Qk[:, 0]
    for k in range(1, Qk.shape[1]):
        out += (sx[:, :, k, None] + sx[:, None, :, k]) * Qk[:, k]
    return out


def lockstep_sweep2(scn, xbar, ubar, ens, pair1, Ps, store_steps, step_hook):
    """adjoint._sweep2 before path chunking, the per-path reference for both
    of its arms: every width's whole (M, n, n) P marches in lockstep from
    the terminals Ps, which end holding P_0.  The per-node arithmetic is the
    chunk arm's: one GEMM lifts [Mk | A | B] and P = G1 Mk + dt (sigma_x,i A
    + sigma_x,j B + source).  step_hook(k, Mk, Qk) gets the lifted pairing
    values, Qk (M, n, n, K).  Returns the per-width a-priori statistics, the
    squared increments, the stored steps and the diagnostics."""
    from spde_control.adjoint import _curvature, _lift_coefficients, _step_fit
    from spde_control.forward import _stepper, tensor_multiplier
    from spde_control.operators import SpectralBasis, sobolev_norms_batch

    fit, diag = _step_fit(scn, ens.n_paths)
    stepper = _stepper(scn)
    basis2 = SpectralBasis.build(scn.grid.square(), scn.op)
    m, n, K, h, dt = ens.n_paths, scn.grid.n, scn.n_modes, scn.grid.h, scn.dt
    idx = np.arange(n)
    last = len(Ps) - 1
    sup_hm1 = [float(np.mean(sobolev_norms_batch(P, basis2, -1.0) ** 2))
               for P in Ps]
    int_l2 = [0.0] * len(Ps)
    cauchy_sq = [0.0] * last
    stored = {scn.n_t: Ps[last].copy()} if scn.n_t in store_steps else {}
    max_asym = 0.0
    for k in range(scn.n_t - 1, -1, -1):
        x = xbar[k]
        uk = ubar.evaluate(k, scn, x)
        Qr = fit(x)
        design = (np.column_stack([np.ones(m), ens.dW[:, k]])[:, :, None]
                  * Qr[:, None, :]).reshape(m, -1)
        sx = scn.coeffs.sigma_x(x, uk)
        G1 = tensor_multiplier(scn.coeffs.b_x(x, uk), sx, scn.noise_cov, dt)
        diag_source = _curvature(scn, x, uk, pair1.p[k], pair1.q[k]) / h
        for i, P in enumerate(Ps):
            coef = (design.T @ P.reshape(m, -1)).reshape(K + 1, -1, n, n)
            SQ = stepper.solve2(coef[1:].swapaxes(0, 1) / dt)
            SAB = _lift_coefficients(scn.profile, stepper.solve2(coef[0]), SQ)
            Mk, A, B = np.moveaxis(
                np.dot(Qr, SAB.reshape(len(SAB), -1)).reshape(m, 3, n, n), 1, 0)
            Qk = np.tensordot(Qr, SQ, axes=1)
            rate = sx[:, :, None] * A
            rate += sx[:, None, :] * B
            rate[:, idx, idx] += diag_source
            P = Ps[i] = G1 * Mk + dt * rate
            hm1, l2 = sobolev_norms_batch(P, basis2, (-1.0, 0.0))
            sup_hm1[i] = max(sup_hm1[i], float(np.mean(hm1 ** 2)))
            int_l2[i] += dt * float(np.mean(l2 ** 2))
        max_asym = max(max_asym,
                       float(np.max(np.abs(P - np.swapaxes(P, 1, 2)))))
        if k in store_steps:
            stored[k] = P.copy()
        if step_hook is not None:
            step_hook(k, Mk, np.moveaxis(Qk, 1, 3))
        for i in range(last):
            sq = h ** 2 * np.sum((Ps[i] - Ps[i + 1]) ** 2, axis=(-2, -1))
            cauchy_sq[i] += dt * float(np.mean(sq))
    stats = [s + l2 for s, l2 in zip(sup_hm1, int_l2)]
    diag["max_asymmetry"] = max_asym
    return stats, cauchy_sq, stored, diag


def reference_sweep2(scn, xbar, ubar, ens, pair1, Ps, store_steps, step_hook):
    """lockstep_sweep2 with one regression per target: the martingale
    target is the (M, K, n, n) product P dW, each target is projected by
    its own tensordot pair, and P = Mk + dt (c Mk + qcouple + source)."""
    from spde_control.adjoint import _curvature, _step_fit
    from spde_control.forward import _stepper
    from spde_control.operators import SpectralBasis, sobolev_norms_batch

    fit, diag = _step_fit(scn, ens.n_paths)
    stepper = _stepper(scn)
    basis2 = SpectralBasis.build(scn.grid.square(), scn.op)
    h, dt = scn.grid.h, scn.dt
    idx = np.arange(scn.grid.n)
    last = len(Ps) - 1
    sup_hm1 = [float(np.mean(sobolev_norms_batch(P, basis2, -1.0) ** 2))
               for P in Ps]
    int_l2 = [0.0] * len(Ps)
    cauchy_sq = [0.0] * last
    stored = {}
    max_asym = 0.0
    for k in range(scn.n_t - 1, -1, -1):
        x = xbar[k]
        uk = ubar.evaluate(k, scn, x)
        Qr = fit(x)
        sx = scn.sigma_x_eff(x, uk)
        c = reference_tensor_drift(scn.coeffs.b_x(x, uk), sx)
        diag_source = _curvature(scn, x, uk, pair1.p[k], pair1.q[k]) / h
        dwk = ens.dW[:, k][:, :, None, None]
        for i, P in enumerate(Ps):
            Mk = smoothed(Qr, P, stepper.solve2)
            Qk = smoothed(Qr, P[:, None] * dwk,
                          lambda T: stepper.solve2(T / dt))
            rate = c * Mk
            rate += qcouple(sx, Qk)
            rate[:, idx, idx] += diag_source
            P = Ps[i] = Mk + dt * rate
            hm1, l2 = sobolev_norms_batch(P, basis2, (-1.0, 0.0))
            sup_hm1[i] = max(sup_hm1[i], float(np.mean(hm1 ** 2)))
            int_l2[i] += dt * float(np.mean(l2 ** 2))
        max_asym = max(max_asym,
                       float(np.max(np.abs(P - np.swapaxes(P, 1, 2)))))
        if k in store_steps:
            stored[k] = P.copy()
        if step_hook is not None:
            step_hook(k, Mk, np.moveaxis(Qk, 1, 3))
        for i in range(last):
            sq = h ** 2 * np.sum((Ps[i] - Ps[i + 1]) ** 2, axis=(-2, -1))
            cauchy_sq[i] += dt * float(np.mean(sq))
    stats = [s + l2 for s, l2 in zip(sup_hm1, int_l2)]
    diag["max_asymmetry"] = max_asym
    return stats, cauchy_sq, stored, diag


def reference_tensor_drift(bx, sx):
    """(M, n, n) drift multiplier b_x(i) + b_x(j) + <sigma_x(i), sigma_x(j)>
    of the product-space equations."""
    return bx[:, :, None] + bx[:, None, :] + sx @ np.swapaxes(sx, 1, 2)


def reference_tensor_noise(sx, dwk, Y, psik=None):
    """sum_k ((sx_k (+) sx_k) Y + psi_k) dW_k with the multiplicative part
    collapsed to (s (+) s) Y, s = sum_k sx_k dW_k."""
    s = np.einsum("pnk,pk->pn", sx, dwk)
    noise = (s[:, :, None] + s[:, None, :]) * Y
    if psik is not None:
        for mode in range(dwk.shape[1]):
            noise += psik[..., mode] * dwk[:, mode, None, None]
    return noise


def reference_simulate_tensor(scn, xbar, ubar, ens, phi=None, psi=None):
    """One product-space state per call: Y <- solve2(Y + dt (c Y + Phi) +
    noise), with the linearization re-derived for this state."""
    from spde_control.forward import _stepper

    stepper = _stepper(scn)
    Y = np.zeros((ens.n_paths, scn.grid.n, scn.grid.n))
    for k in range(scn.n_t):
        x = xbar[k]
        ub = ubar.evaluate(k, scn, x)
        sx = scn.sigma_x_eff(x, ub)
        drift = reference_tensor_drift(scn.coeffs.b_x(x, ub), sx) * Y
        phik = None if phi is None else phi(k)
        if phik is not None:
            drift = drift + phik
        noise = reference_tensor_noise(sx, ens.dW[:, k], Y,
                                       None if psi is None else psi(k))
        Y = stepper.solve2(Y + scn.dt * drift + noise)
    return Y


def reference_expansion_stats(scn, ubar, v, tau, eps, ens):
    """One spike length per call: the reference state re-simulated and
    re-linearized, every step's per-path moments stored and the sup taken
    afterwards (argmax's first hit).  Returns name -> (value, se)."""
    from spde_control.forward import (_check_finite, _jumps,
                                      _second_variation, _step1, _stepper)

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
        a, s = scn.coeffs.b_x(xb, ub), scn.coeffs.sigma_x(xb, ub)
        db, ds = (0.0, 0.0) if spike is None else _jumps(scn, xb, ub, spike,
                                                         (b_b, sig_b))
        qphi, qomega = _second_variation(scn, xb, spike, y, a, s,
                                         scn.coeffs.b_xx(xb, ub),
                                         scn.coeffs.sigma_xx(xb, ub))
        xi = scn.noise_field(ens.dW[:, k])
        g = 1.0 + scn.dt * a + s * xi
        xb, xe, y, z = (
            _step1(stepper, scn.dt, xb, b_b, sig_b * xi),
            _step1(stepper, scn.dt, xe, scn.coeffs.b(xe, ue),
                   scn.coeffs.sigma(xe, ue) * xi),
            _step1(stepper, scn.dt, g * y, db, ds * xi),
            _step1(stepper, scn.dt, g * z, qphi, qomega * xi))
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

    return {"y_moment": sup_stat(y_sq), "z_moment": sup_stat(z_nrm),
            "residual": sup_stat(r_sq),
            "hgamma": (float(hg.mean()),
                       float(hg.std(ddof=1) / np.sqrt(m)) if m > 1 else 0.0)}
