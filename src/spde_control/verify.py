"""Verification experiments: duality pairings for both adjoint pairs,
spike-expansion rate fits, product-process consistency, Hamiltonian gaps
and lattice scans, and brute-force cost search over block controls.

All experiments run both sides of each identity on one shared noise
ensemble (common random numbers); pairings stream through step hooks, so
no experiment stores a backward trajectory.
"""
from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field

import numpy as np

from .adjoint import _curvature, solve_adjoint1, solve_adjoint2_mollified
from .ensemble import PathEnsemble
from .forward import (BlowUpError, first_variation_system, probe_system,
                      simulate_cost, simulate_linear, simulate_state,
                      simulate_tensor, spike_expansion_stats,
                      spike_tensor_sources)
from .grids import Field
from .operators import heat_mollifier, mollified_terminal_batch
from .scenario import (ControlProcess, DeterministicControl, Scenario,
                       SpikeControl)


def _sine_matrix(n: int) -> np.ndarray:
    i = np.arange(1, n + 1)
    return np.sqrt(2.0 / (n + 1)) * np.sin(np.pi * np.outer(i, i) / (n + 1))


def make_random_probes(scn: Scenario, n_probes: int, seed: int = 0):
    """Deterministic smooth source probes (phi, psi) for the duality checks.

    Each probe is a random combination of the four lowest sine modes in
    space modulated by a smooth function of time; coefficients come from a
    counter-based generator so the probe set is reproducible from the seed
    alone.
    """
    gen = np.random.Generator(np.random.Philox(key=seed))
    n, K = scn.grid.n, scn.n_modes
    modes = _sine_matrix(n)[:, :min(4, n)]
    t = scn.times[:-1] / scn.T
    probes = []
    for _ in range(n_probes):
        cph = gen.normal(size=modes.shape[1])
        cps = gen.normal(size=(modes.shape[1], K))
        wobble = 1.0 + 0.5 * np.sin(2.0 * np.pi * (t + gen.uniform()))
        phi = wobble[:, None] * (modes @ cph)[None, :]
        psi = wobble[:, None, None] * (modes @ cps)[None, :, :]
        probes.append((phi, psi))
    return probes


# worst relative duality gap tolerated, by adjoint order
DUALITY_TOL = {1: 0.05, 2: 0.10}


@dataclass
class DualityReport:
    """Per-probe LHS/RHS of a duality pairing and the worst relative gap."""

    rows: list
    max_gap: float

    def passed(self, tol: float) -> bool:
        return self.max_gap <= tol


def _gap(lhs: float, rhs: float) -> float:
    denom = max(abs(lhs), abs(rhs))
    if denom < 1e-12:
        return 0.0
    return abs(lhs - rhs) / denom


def _duality_row(j: int, lhs_acc: np.ndarray, rhs_acc: np.ndarray) -> dict:
    """Report row of probe j from the per-path LHS and RHS pairings."""
    m = len(lhs_acc)
    lhs, rhs = float(lhs_acc.mean()), float(rhs_acc.mean())
    return {"probe": j, "lhs": lhs, "rhs": rhs, "gap": _gap(lhs, rhs),
            "lhs_se": float(lhs_acc.std(ddof=1) / np.sqrt(m)),
            "rhs_se": float(rhs_acc.std(ddof=1) / np.sqrt(m))}


def check_duality1(scn: Scenario, ubar: ControlProcess, ens: PathEnsemble,
                   probes) -> DualityReport:
    """First-order duality: for each deterministic source probe (phi, psi),
    the cost response of the sourced linearization must match the pairing
    of the sources with the adjoint pair, on common noise.
    """
    m, h, dt = ens.n_paths, scn.grid.h, scn.dt
    xbar = simulate_state(scn, ubar, ens, store=True)
    rhs_acc = np.zeros((len(probes), m))

    def backward_hook(k, p, q):
        for j, (phi, psi) in enumerate(probes):
            rhs_acc[j] += dt * h * (p @ phi[k]
                                    + np.einsum("pnk,nk->p", q, psi[k]))

    solve_adjoint1(scn, xbar, ubar, ens, store=False, step_hook=backward_hook)

    rows = []
    hx_T = scn.coeffs.h_x(xbar.final)
    for j, (phi, psi) in enumerate(probes):
        sys = probe_system(scn, xbar, ubar, phi, psi)
        lhs_acc = np.zeros(m)

        def forward_hook(k, y):
            x = xbar[k]
            uk = ubar.evaluate(k, scn, x)
            lhs_acc[:] += dt * h * np.sum(scn.coeffs.l_x(x, uk) * y, axis=-1)

        traj = simulate_linear(scn, sys, ens, store=False, step_hook=forward_hook)
        lhs_acc += h * np.sum(hx_T * traj.final, axis=-1)
        rows.append(_duality_row(j, lhs_acc, rhs_acc[j]))
    return DualityReport(rows, max(r["gap"] for r in rows))


def make_tensor_probes(scn: Scenario, n_probes: int, seed: int = 1):
    """Symmetric smooth probes (Phi (n_t, n, n), Psi (n_t, n, n, K)) on the
    square for the second-order duality check, spanned by the three lowest
    sine modes."""
    gen = np.random.Generator(np.random.Philox(key=seed))
    n, K = scn.grid.n, scn.n_modes
    modes = _sine_matrix(n)[:, :min(3, n)]
    t = scn.times[:-1] / scn.T
    probes = []
    for _ in range(n_probes):
        w = gen.normal(size=(modes.shape[1], modes.shape[1]))
        spatial = modes @ (0.5 * (w + w.T)) @ modes.T
        wobble = 1.0 + 0.5 * np.cos(2.0 * np.pi * (t + gen.uniform()))
        Phi = wobble[:, None, None] * spatial[None]
        ws = gen.normal(size=(K, modes.shape[1], modes.shape[1]))
        spat_k = np.stack([modes @ (0.5 * (wk + wk.T)) @ modes.T for wk in ws],
                          axis=-1)
        Psi = wobble[:, None, None, None] * spat_k[None]
        probes.append((Phi, Psi))
    return probes


def check_duality2(scn: Scenario, ubar: ControlProcess, ens: PathEnsemble,
                   eta: float, probes) -> DualityReport:
    """Second-order duality at mollifier width eta.

    For sourced product-space probes (Phi, Psi): the terminal pairing of
    the probe response with the mollified terminal condition, plus the
    running pairing with the curvature source, must match the running
    pairing of the probe sources with (P, Q).
    """
    m, n, h, dt = ens.n_paths, scn.grid.n, scn.grid.h, scn.dt
    xbar = simulate_state(scn, ubar, ens, store=True)
    pair1 = solve_adjoint1(scn, xbar, ubar, ens, store=True)
    rhs_acc = np.zeros((len(probes), m))
    # probe sources flattened per step, Psi mode-major to match Q's storage
    phi_flat = [Phi.reshape(len(Phi), -1) for Phi, _ in probes]
    psi_flat = [np.moveaxis(Psi, 3, 1).reshape(len(Psi), -1)
                for _, Psi in probes]

    def backward_hook(k, P, Q):
        P_flat = P.reshape(m, -1)
        Q_flat = np.moveaxis(Q, 3, 1).reshape(m, -1)
        for j in range(len(probes)):
            rhs_acc[j] += dt * h ** 2 * (P_flat @ phi_flat[j][k]
                                         + Q_flat @ psi_flat[j][k])

    solve_adjoint2_mollified(scn, xbar, ubar, ens, pair1, eta,
                             step_hook=backward_hook)

    PT = mollified_terminal_batch(xbar.final, scn.coeffs.h_xx, scn.grid, eta)
    # the curvature source does not depend on the probe: once per step
    curv = [_curvature(scn, xbar[k], ubar.evaluate(k, scn, xbar[k]),
                       pair1.p[k], pair1.q[k]) for k in range(scn.n_t)]
    idx = np.arange(n)
    rows = []
    for j, (Phi, Psi) in enumerate(probes):
        lhs_acc = np.zeros(m)

        def forward_hook(k, Y):
            # <delta_star(curv), Y> collapses to the diagonal of Y
            lhs_acc[:] += dt * h * np.sum(curv[k] * Y[:, idx, idx], axis=-1)

        traj = simulate_tensor(scn, xbar, ubar, ens,
                               phi=lambda k, Phi=Phi: Phi[k],
                               psi=lambda k, Psi=Psi: Psi[k],
                               store=False, step_hook=forward_hook)
        lhs_acc += h ** 2 * np.einsum("pij,pij->p", PT, traj.final)
        rows.append(_duality_row(j, lhs_acc, rhs_acc[j]))
    return DualityReport(rows, max(r["gap"] for r in rows))


def check_tensor_identity(scn: Scenario, ubar: ControlProcess, v, tau: float,
                          eps: float, ens: PathEnsemble) -> dict:
    """Pathwise consistency of the product process: its terminal value must
    agree with the outer square of the first-order spike response."""
    xbar = simulate_state(scn, ubar, ens, store=True)
    ueps = SpikeControl(ubar, v, tau, eps)
    ueps.validate_horizon(scn.T)
    y = simulate_linear(scn, first_variation_system(scn, xbar, ubar, ueps),
                        ens, store=True)
    phi, psi = spike_tensor_sources(scn, xbar, ubar, ueps, y)
    Y = simulate_tensor(scn, xbar, ubar, ens, phi=phi, psi=psi, store=False)
    outer = y.final[:, :, None] * y.final[:, None, :]
    h = scn.grid.h
    diff_norm = h * np.linalg.norm((Y.final - outer).reshape(len(outer), -1),
                                   axis=1)
    ref_norm = h * np.linalg.norm(outer.reshape(len(outer), -1), axis=1)
    rel = float(diff_norm.mean() / max(ref_norm.mean(), 1e-300))
    return {"relative_error": rel, "diff_norm": float(diff_norm.mean()),
            "ref_norm": float(ref_norm.mean())}


# -- spike-expansion rates ---------------------------------------------------

# least log-log slope of each spike-expansion moment against epsilon
RATE_THRESHOLDS = {"y_moment": 0.9, "z_moment": 0.9, "residual": 2.2,
                   "hgamma": 0.9}


@dataclass
class RateReport:
    """Log-log slope fits of the spike-expansion moments against epsilon."""

    eps: np.ndarray
    stats: dict            # name -> per-eps values
    ses: dict              # name -> per-eps standard errors
    slopes: dict           # name -> (slope, ci_lo, ci_hi) or None if undefined
    notes: list = field(default_factory=list)

    def passed(self, name: str):
        """Slope at least its threshold with a 95% CI that excludes 0;
        None when the slope is undefined."""
        fit = self.slopes[name]
        if fit is None:
            return None
        slope, lo, _ = fit
        return slope >= RATE_THRESHOLDS[name] and lo > 0.0


def _fit_slope(eps, vals):
    from scipy import stats as sps

    eps = np.asarray(eps)
    vals = np.asarray(vals)
    live = vals > 0.0
    if live.sum() < 3:
        return None
    x = np.log2(eps[live])
    y = np.log2(vals[live])
    res = sps.linregress(x, y)
    tcrit = sps.t.ppf(0.975, live.sum() - 2)
    return (float(res.slope), float(res.slope - tcrit * res.stderr),
            float(res.slope + tcrit * res.stderr))


def rate_experiment(scn: Scenario, ubar: ControlProcess, v, tau: float,
                    eps_fractions, n_paths: int, seed: int = None) -> RateReport:
    """Spike-expansion moments over an epsilon ladder with slope fits.

    eps_fractions are spike lengths as fractions of the horizon.  Each
    epsilon reuses the same ensemble.  If the spike value never differs
    from the base control the moments vanish identically and the slopes
    are reported as undefined rather than fitted on noise.
    """
    ens = PathEnsemble.for_scenario(scn, n_paths=n_paths, seed=seed)
    eps = np.array([f * scn.T for f in eps_fractions], dtype=float)
    names = ("y_moment", "z_moment", "residual", "hgamma")
    stats = {nm: [] for nm in names}
    ses = {nm: [] for nm in names}
    for e in eps:
        st = spike_expansion_stats(scn, ubar, v, tau, e, ens)
        for nm in names:
            stats[nm].append(getattr(st, nm))
            ses[nm].append(getattr(st, nm + "_se"))
    stats = {nm: np.array(vv) for nm, vv in stats.items()}
    ses = {nm: np.array(vv) for nm, vv in ses.items()}
    slopes, notes = {}, []
    for nm in names:
        if np.max(stats[nm]) == 0.0:
            slopes[nm] = None
            notes.append(f"{nm}: statistic vanishes, slope undefined "
                         "(spike equals base control?)")
        else:
            slopes[nm] = _fit_slope(eps, stats[nm])
            if slopes[nm] is None:
                notes.append(f"{nm}: too few positive values for a slope fit")
    return RateReport(eps, stats, ses, slopes, notes)


# -- Hamiltonian, gap, scan, brute force ------------------------------------

def hamiltonian(scn: Scenario, x: np.ndarray, u, p: np.ndarray,
                q: np.ndarray) -> np.ndarray:
    """Per-path Hamiltonian: running cost plus the adjoint pairings with
    drift and diffusion."""
    h = scn.grid.h
    return h * (np.sum(scn.coeffs.l(x, u), axis=-1)
                + np.sum(p * scn.coeffs.b(x, u), axis=-1)
                + np.einsum("pnk,pnk->p", q, scn.sigma_eff(x, u)))


def smp_gap(scn: Scenario, x: np.ndarray, u_ref, v, p: np.ndarray,
            q: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Per-path maximum-principle gap of candidate v against the reference
    control: Hamiltonian difference plus the second-order correction that
    pairs P with the outer square of the diffusion increment.  Identically
    zero when v equals the reference control."""
    ds = scn.sigma_eff(x, v) - scn.sigma_eff(x, u_ref)
    base = hamiltonian(scn, x, v, p, q) - hamiltonian(scn, x, u_ref, p, q)
    corr = 0.5 * scn.grid.h ** 2 * np.einsum("pik,pjk,pij->p", ds, ds, P)
    return base + corr


# least minimum gap at an optimum, relative to the Hamiltonian scale
SMP_TOL = -0.05


@dataclass
class SMPReport:
    """Lattice scan of the maximum-principle gap at sampled times."""

    sample_steps: list
    lattice: list
    mean_gaps: np.ndarray       # (n_steps, n_controls)
    se_gaps: np.ndarray
    p05_gaps: np.ndarray
    scale: float

    @property
    def min_mean_gap(self) -> float:
        return float(self.mean_gaps.min())

    @property
    def min_rel_gap(self) -> float:
        return self.min_mean_gap / self.scale

    def passed(self) -> bool:
        return self.min_rel_gap >= SMP_TOL


def smp_scan(scn: Scenario, ubar: ControlProcess, ens: PathEnsemble,
             eta: float, n_times: int = 8) -> SMPReport:
    """Evaluate the maximum-principle gap over the control lattice at
    interior sample times, using both adjoint pairs along the reference.

    The reported scale is the ensemble-mean Hamiltonian magnitude at the
    reference control, averaged over the sampled times; gap thresholds are
    meant to be read relative to it.
    """
    steps = np.unique(np.linspace(0, scn.n_t - 1, n_times + 2,
                                  dtype=int)[1:-1])
    xbar = simulate_state(scn, ubar, ens, store=True)
    pair1 = solve_adjoint1(scn, xbar, ubar, ens, store=True)
    pair2 = solve_adjoint2_mollified(scn, xbar, ubar, ens, pair1, eta,
                                     store_steps=set(int(s) for s in steps))
    lattice = scn.controls.lattice()
    mean_g = np.empty((len(steps), len(lattice)))
    se_g = np.empty_like(mean_g)
    p05_g = np.empty_like(mean_g)
    scale_acc = []
    m = ens.n_paths
    for si, k in enumerate(steps):
        x = xbar[int(k)]
        uk = ubar.evaluate(int(k), scn, x)
        p, q, P = pair1.p[int(k)], pair1.q[int(k)], pair2.stored_steps[int(k)]
        scale_acc.append(abs(float(np.mean(hamiltonian(scn, x, uk, p, q)))))
        for vi, v in enumerate(lattice):
            g = smp_gap(scn, x, uk, v, p, q, P)
            mean_g[si, vi] = g.mean()
            se_g[si, vi] = g.std(ddof=1) / np.sqrt(m)
            p05_g[si, vi] = np.percentile(g, 5.0)
    scale = max(float(np.mean(scale_acc)), 1e-12)
    return SMPReport([int(s) for s in steps], lattice, mean_g, se_g, p05_g,
                     scale)


@dataclass
class BruteForceReport:
    """Exhaustive cost table over piecewise-constant block controls."""

    candidates: list            # block index tuples into the lattice
    costs: np.ndarray           # (n_candidates,) mean costs (nan if excluded)
    ses: np.ndarray
    best: int
    ties: list                  # candidates within 2 paired SEs of the best
    excluded: list              # blown-up candidates
    cost_matrix: np.ndarray     # (n_candidates, M) per-path costs


def block_control_candidates(scn: Scenario, n_blocks: int):
    """All piecewise-constant controls on n_blocks equal time blocks with
    values from the control lattice; returns (index tuples, controls)."""
    lattice = scn.controls.lattice()
    combos = list(itertools.product(range(len(lattice)), repeat=n_blocks))
    controls = [DeterministicControl.from_blocks([lattice[i] for i in combo],
                                                 scn.n_t)
                for combo in combos]
    return combos, controls


def brute_force_search(scn: Scenario, candidates, ens: PathEnsemble,
                       labels=None) -> BruteForceReport:
    """Evaluate every candidate control on the shared ensemble.

    Per-path costs are kept so comparisons between candidates are paired
    (differences of common-noise costs); candidates whose simulation blows
    up are excluded with a warning.  Ties are candidates whose paired cost
    difference to the winner is within two standard errors.
    """
    m = ens.n_paths
    n_c = len(candidates)
    mat = np.full((n_c, m), np.nan)
    excluded = []
    for i, u in enumerate(candidates):
        try:
            mat[i] = simulate_cost(scn, u, ens).per_path
        except BlowUpError as exc:
            excluded.append(i)
            warnings.warn(f"candidate {i} excluded: {exc}")
    costs = mat.mean(axis=1)
    ses = mat.std(axis=1, ddof=1) / np.sqrt(m)
    valid = [i for i in range(n_c) if i not in excluded]
    if not valid:
        raise RuntimeError("all brute-force candidates blew up")
    best = min(valid, key=lambda i: costs[i])
    ties = []
    for i in valid:
        if i == best:
            continue
        d = mat[i] - mat[best]
        dse = d.std(ddof=1) / np.sqrt(m)
        if d.mean() <= 2.0 * dse:
            ties.append(i)
    return BruteForceReport(
        list(labels) if labels is not None else list(range(n_c)),
        costs, ses, best, ties, excluded, mat)


# -- independent oracles ----------------------------------------------------

def _fine_dt(scn: Scenario, safety: float = 8.0):
    """Explicit-Euler-stable fine step for the stiff linear part and the
    number of substeps per coarse step."""
    lam_max = 4.0 / scn.grid.h ** 2
    n_sub = max(4, int(np.ceil(scn.dt * lam_max * safety / 2.0)))
    return scn.dt / n_sub, n_sub


def zero_noise_oracle(scn: Scenario, ubar: ControlProcess, eta: float = None):
    """Deterministic fine-step oracle for the sigma == 0 case.

    Integrates the forward state, the backward first-order adjoint and
    (when eta is given) the backward mollified second-order equation with
    an *explicit* Euler scheme on a refined time grid -- a method and code
    path disjoint from the semi-implicit spectral stepper.  Returns the
    solutions sampled at the coarse time points.
    """
    n, n_t = scn.grid.n, scn.n_t
    A = scn.op.matrix(scn.grid)
    dtf, n_sub = _fine_dt(scn)

    # forward state on the fine grid
    x_fine = np.empty((n_t * n_sub + 1, n))
    x_fine[0] = scn.x0.values
    u_at = [np.asarray(ubar.evaluate(k, scn, None), dtype=float)
            for k in range(n_t)]
    for k in range(n_t):
        for s in range(n_sub):
            i = k * n_sub + s
            x = x_fine[i]
            x_fine[i + 1] = x + dtf * (A @ x + scn.coeffs.b(x, u_at[k]))
    x_coarse = x_fine[::n_sub].copy()

    # backward first-order adjoint
    p = scn.coeffs.h_x(x_fine[-1])
    p_coarse = np.empty((n_t + 1, n))
    p_coarse[n_t] = p
    for k in range(n_t - 1, -1, -1):
        for s in range(n_sub - 1, -1, -1):
            x = x_fine[k * n_sub + s]
            p = p + dtf * (A @ p + scn.coeffs.b_x(x, u_at[k]) * p
                           + scn.coeffs.l_x(x, u_at[k]))
        p_coarse[k] = p

    out = {"x": x_coarse, "p": p_coarse}
    if eta is None:
        return out

    # backward mollified second-order equation (q == 0 in the zero-noise
    # case, so the <sigma_xx, q> part of the source is absent)
    P = heat_mollifier(Field(scn.grid, x_fine[-1]), scn.coeffs.h_xx,
                       eta).values.copy()
    P_coarse = np.empty((n_t + 1, n, n))
    P_coarse[n_t] = P
    idx = np.arange(n)
    h = scn.grid.h
    for k in range(n_t - 1, -1, -1):
        for s in range(n_sub - 1, -1, -1):
            x = x_fine[k * n_sub + s]
            # adjoint value at this fine time: linear interpolation of the
            # coarse-sampled adjoint within the substep
            w = s / n_sub
            p_here = (1.0 - w) * p_coarse[k] + w * p_coarse[k + 1]
            bx = scn.coeffs.b_x(x, u_at[k])
            curv = scn.coeffs.l_xx(x, u_at[k]) + scn.coeffs.b_xx(x, u_at[k]) * p_here
            S = np.zeros((n, n))
            S[idx, idx] = curv / h
            P = P + dtf * (A @ P + P @ A.T + (bx[:, None] + bx[None, :]) * P + S)
        P_coarse[k] = P
    out["P"] = P_coarse
    return out


def affine_ansatz_oracle(scn: Scenario, ubar: ControlProcess):
    """Linear-ansatz oracle for affine dynamics with quadratic costs.

    For b = drift_rate x + gain u, constant sigma, quadratic running and
    terminal costs, the first-order adjoint satisfies p_t = M_t x_t + m_t
    with (M, m) solving backward matrix/vector ODEs, and q_m = M sigma_m is
    deterministic.  The ODEs are integrated by scipy's BDF solver --
    independent of the package's stepping code -- and the oracle returns
    the implied mean adjoint E[p_t] = M_t E[x_t] + m_t along with q.
    """
    from scipy.integrate import solve_ivp

    params = dict(scn.coeffs.params)
    if scn.coeffs.name != "additive":
        raise ValueError("ansatz oracle requires the affine 'additive' preset")
    dr = params["drift"]
    gn = params["gain"]
    sw = params["state_weight"]
    tw = params["term_weight"]
    xr = params["x_ref"]
    xt = params["x_target"]
    n, n_t, T = scn.grid.n, scn.n_t, scn.T
    A = scn.op.matrix(scn.grid)
    ones = np.ones(n)
    times = scn.times

    u_at = [np.asarray(ubar.evaluate(k, scn, None), dtype=float).ravel()
            for k in range(n_t)]

    def u_of_t(t):
        k = min(int(t / scn.dt), n_t - 1)
        return float(u_at[k][0])

    # backward ODEs in reversed time s = T - t
    def rhs(s, z):
        M = z[:n * n].reshape(n, n)
        m = z[n * n:]
        dM = A @ M + M @ A + 2.0 * dr * M + sw * np.eye(n)
        dm = A @ m + dr * m - sw * xr * ones + gn * u_of_t(T - s) * (M @ ones)
        return np.concatenate([dM.ravel(), dm])

    z0 = np.concatenate([(tw * np.eye(n)).ravel(), -tw * xt * ones])
    sol = solve_ivp(rhs, (0.0, T), z0, method="BDF", t_eval=T - times[::-1],
                    rtol=1e-8, atol=1e-10)
    if not sol.success:
        raise RuntimeError(f"ansatz ODE solve failed: {sol.message}")
    Ms = sol.y[:n * n].T.reshape(-1, n, n)[::-1]   # index k: M(t_k)
    ms = sol.y[n * n:].T[::-1]

    # forward mean-state ODE
    def rhs_x(t, x):
        return A @ x + dr * x + gn * u_of_t(t) * ones

    solx = solve_ivp(rhs_x, (0.0, T), scn.x0.values, method="BDF",
                     t_eval=times, rtol=1e-8, atol=1e-10)
    if not solx.success:
        raise RuntimeError(f"mean-state ODE solve failed: {solx.message}")
    xs = solx.y.T

    p = np.einsum("kij,kj->ki", Ms, xs) + ms
    amp = params["noise_amp"]
    sig = amp * scn.profile
    q = np.einsum("kij,jm->kim", Ms[:-1], sig)
    return {"x_mean": xs, "p_mean": p, "q": q, "M": Ms, "m": ms}


# largest relative error of the solvers against each oracle
ORACLE_TOL = {"zero-noise": 1e-3, "ansatz": 0.02}


@dataclass
class OracleReport:
    """Relative errors of the adjoint solvers against an oracle, as rows
    (quantity, rel_error, tolerance, status); "info" rows are not scored."""

    rows: list
    worst: float                # largest scored relative error
    tolerance: float
    ok: bool


def _oracle_report(kind: str, scored, info=()) -> OracleReport:
    tol = ORACLE_TOL[kind]
    rows = [(name, float(rel), tol, "pass" if rel <= tol else "fail")
            for name, rel in scored]
    worst = max(r[1] for r in rows)
    ok = all(r[3] == "pass" for r in rows)
    rows += [(name, float(rel), float("nan"), "info") for name, rel in info]
    return OracleReport(rows, worst, tol, ok)


def oracle_zero_noise(scn: Scenario, ubar: ControlProcess, ens: PathEnsemble,
                      eta: float) -> OracleReport:
    """Mean adjoints (p, P) of the zero-noise case against the fine-step
    oracle: sup-norm error relative to the oracle's sup norm, p over every
    step and P at four stored steps."""
    oracle = zero_noise_oracle(scn, ubar, eta=eta)
    xbar = simulate_state(scn, ubar, ens, store=True)
    pair1 = solve_adjoint1(scn, xbar, ubar, ens, method="mean")
    p_mean = pair1.p.mean(axis=1)
    scale_p = np.abs(oracle["p"]).max()
    rel_p = np.abs(p_mean - oracle["p"]).max() / scale_p
    steps = sorted({0, scn.n_t // 4, scn.n_t // 2, 3 * scn.n_t // 4})
    pair2 = solve_adjoint2_mollified(scn, xbar, ubar, ens, pair1, eta,
                                     method="mean", store_steps=steps)
    scale_P = np.abs(oracle["P"]).max()
    rel_P = max(float(np.abs(pair2.stored_steps[k].mean(axis=0)
                             - oracle["P"][k]).max()) / scale_P
                for k in steps)
    return _oracle_report("zero-noise", [("p", rel_p), ("P", rel_P)])


def oracle_ansatz(scn: Scenario, ubar: ControlProcess,
                  ens: PathEnsemble) -> OracleReport:
    """Mean first-order adjoint of the affine case against the ansatz
    oracle: worst-step L2 error relative to the oracle's largest L2 norm.
    q is pure martingale noise at per-step resolution, so its error is
    reported for reference and not scored."""
    oracle = affine_ansatz_oracle(scn, ubar)
    xbar = simulate_state(scn, ubar, ens, store=True)
    pair1 = solve_adjoint1(scn, xbar, ubar, ens)
    h = scn.grid.h
    p_mean = pair1.p.mean(axis=1)
    num = np.sqrt(h * np.sum((p_mean - oracle["p_mean"]) ** 2, axis=-1))
    den = np.sqrt(h * np.sum(oracle["p_mean"] ** 2, axis=-1)).max()
    q_mean = pair1.q.mean(axis=1)
    qn = np.sqrt(h * np.sum((q_mean - oracle["q"]) ** 2, axis=(-2, -1)))
    qd = max(np.sqrt(h * np.sum(oracle["q"] ** 2, axis=(-2, -1))).max(),
             1e-12)
    return _oracle_report("ansatz", [("p", num.max() / den)],
                          info=[("q", qn.max() / qd)])
