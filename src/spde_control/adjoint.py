"""Backward (adjoint) solvers.

Both adjoint pairs are solved by a backward sweep of the semi-implicit
scheme, with the conditional expectations at each step replaced by a
least-squares regression on spectral features of the current state
(Longstaff-Schwartz), fitted once per step.  The martingale component q is
recovered by regressing p_{k+1} dW_k / dt on the same fit.  The resolvent
acts on the few regression coefficients, which are lifted to the paths once.

The second-order pair lives on the square; its terminal condition is the
heat-kernel mollification of the diagonal curvature distribution.  A single
width (solve_adjoint2_mollified) and a vanishing-width ladder
(solve_adjoint2_limit) run one backward kernel that marches every width in
lockstep.  Both solvers expose a step hook so that pairings with forward
sources can be accumulated during the sweep without storing the backward
trajectory.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.linalg import qr

from .ensemble import PathEnsemble
from .forward import Trajectory, _stepper, tensor_drift
from .operators import (EllipticOperator, SpectralBasis,
                        mollified_terminal_batch, sobolev_norms_batch)
from .scenario import ControlProcess, Scenario

GRAM_CONDITION_LIMIT = 1e10


class RegressionError(RuntimeError):
    """Regression design became ill-conditioned; results would be noise."""


class RegressionBasis:
    """Feature map for conditional-expectation regressions.

    Features are a constant plus the leading spectral coefficients of the
    state (optionally with their pairwise products).  Columns that are
    constant across the ensemble -- e.g. at t = 0, or throughout a
    deterministic run -- carry no information and are dropped before the
    solve; the conditioning check applies to the retained columns.
    """

    def __init__(self, grid, op: EllipticOperator = EllipticOperator(),
                 n_modes: int = 8, include_pairs: bool = False):
        basis = SpectralBasis.build(grid, op)
        self.n_modes = min(n_modes, grid.n)
        self.include_pairs = include_pairs
        self._V = basis.vectors[:, :self.n_modes]
        self._sqh = np.sqrt(grid.h)

    @property
    def n_features(self) -> int:
        j = self.n_modes
        return 1 + j + (j * (j + 1)) // 2 if self.include_pairs else 1 + j

    def features(self, x: np.ndarray) -> np.ndarray:
        c = self._sqh * (x @ self._V)
        cols = [np.ones((len(x), 1)), c]
        if self.include_pairs:
            i, j = np.triu_indices(self.n_modes)
            cols.append(c[:, i] * c[:, j])
        return np.concatenate(cols, axis=1)


def _project(feats: np.ndarray):
    """Fit of the L2 projector onto the span of the feature columns.

    Columns are standardized and then passed through a rank-revealing
    (pivoted) QR; columns that are constant across the ensemble or linearly
    dependent on earlier ones -- e.g. when the state's randomness spans
    fewer directions than there are features -- carry no information and
    are pruned.  Returns an orthonormal basis Qr (M, keep) of the retained
    columns (the projection is Qr Qr^T) and their Gram condition; if that
    exceeds the limit, the regression is refused.
    """
    m = feats.shape[0]
    std = feats.std(axis=0)
    mean = feats.mean(axis=0)
    live = std > 1e-10 * (1.0 + np.abs(mean))
    live[0] = False  # constant column handled via centering
    design = np.empty((m, 1 + int(live.sum())))
    design[:, 0] = 1.0
    design[:, 1:] = (feats[:, live] - mean[live]) / std[live]
    Q, R, _ = qr(design, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    keep = int(np.sum(diag > 1e-7 * diag[0]))
    cond = (diag[0] / diag[keep - 1]) ** 2
    if cond > GRAM_CONDITION_LIMIT:
        raise RegressionError(
            f"regression Gram condition {cond:.3e} exceeds {GRAM_CONDITION_LIMIT:.0e}")
    return Q[:, :keep], cond


def _smoothed(Qr: Optional[np.ndarray], target: np.ndarray, solve):
    """solve of the conditional mean of the target: the resolvent acts on
    the coefficients Qr^T target, which Qr lifts to the paths once (the
    projector acts on the path axis, the resolvent on the space axes).
    Without a fit it solves the ensemble mean once as a (1, ...) block."""
    if Qr is None:
        return np.broadcast_to(solve(target.mean(axis=0, keepdims=True)), target.shape)
    return np.tensordot(Qr, solve(np.tensordot(Qr, target, axes=(0, 0))), axes=1)


def _step_fit(scn: Scenario, m: int, method: str,
              reg_basis: Optional[RegressionBasis]):
    """Validate the conditional-expectation method; return fit(x), the one
    regression fit of a step on the features of x (None under "mean"), and
    the diagnostics in which it books the Gram condition and retained rank.

    A basis with more than M / 20 features is refused: the regression error
    grows like F / M (Gobet, Lemor & Warin 2005).
    """
    if method not in ("regress", "mean"):
        raise ValueError(f"unknown conditional-expectation method {method!r}")
    if method == "regress" and reg_basis is None:
        reg_basis = RegressionBasis(scn.grid, scn.op)
    if reg_basis is not None and reg_basis.n_features > max(m // 20, 2):
        raise RegressionError(
            f"{reg_basis.n_features} features for {m} paths; need M >= 20 F")
    diag = {"max_gram_condition": 0.0, "method": method}

    def fit(x):
        if method == "mean":
            return None
        Qr, cond = _project(reg_basis.features(x))
        diag["max_gram_condition"] = max(diag["max_gram_condition"], cond)
        diag["min_rank"] = min(diag.get("min_rank", Qr.shape[1]), Qr.shape[1])
        return Qr

    return fit, diag


def _curvature(scn: Scenario, x: np.ndarray, uk, p: np.ndarray,
               q: np.ndarray) -> np.ndarray:
    """Curvature of the Hamiltonian along x, l_xx + b_xx p + <sigma_xx, q>,
    with the first-order pair (p, q) at the same step; shape (M, n)."""
    return (scn.coeffs.l_xx(x, uk)
            + scn.coeffs.b_xx(x, uk) * p
            + np.einsum("pnk,pnk->pn", scn.sigma_xx_eff(x, uk), q))


def _qcouple(sx: np.ndarray, Qk: np.ndarray) -> np.ndarray:
    """sum_k (sx_k (+) sx_k) Q_k: the martingale coupling of the
    second-order adjoint, from sx (M, n, K) and Qk (M, K, n, n)."""
    out = (sx[:, :, 0, None] + sx[:, None, :, 0]) * Qk[:, 0]
    for k in range(1, Qk.shape[1]):
        out += (sx[:, :, k, None] + sx[:, None, :, k]) * Qk[:, k]
    return out


@dataclass
class BackwardPair1:
    """First-order adjoint pair: p (n_t+1, M, n) and q (n_t, M, n, K)."""

    p: Optional[np.ndarray]
    q: Optional[np.ndarray]
    p0: np.ndarray
    diagnostics: dict = field(default_factory=dict)


def solve_adjoint1(scn: Scenario, xbar: Trajectory, ubar: ControlProcess,
                   ens: PathEnsemble, method: str = "regress",
                   reg_basis: RegressionBasis = None, store: bool = True,
                   step_hook: Callable = None) -> BackwardPair1:
    """Backward sweep for the first-order adjoint pair along xbar.

    step_hook(k, m_k, q_k) is called at every step with the pairing values
    at step k: the resolvent-smoothed conditional mean m_k of p_{k+1} and
    the martingale component q_k.  These (not the stored p_k, which adds
    the explicit drift terms) are what source pairings must use -- with
    them, duality against the forward scheme holds exactly up to the
    regression error.
    """
    m, n, K = ens.n_paths, scn.grid.n, scn.n_modes
    fit, diag = _step_fit(scn, m, method, reg_basis)
    stepper = _stepper(scn)
    p = scn.coeffs.h_x(xbar.final)
    p_store = np.empty((scn.n_t + 1, m, n)) if store else None
    q_store = np.empty((scn.n_t, m, n, K)) if store else None
    if store:
        p_store[scn.n_t] = p
    for k in range(scn.n_t - 1, -1, -1):
        x = xbar[k]
        uk = ubar.evaluate(k, scn, x)
        mart = p[:, None, :] * ens.dW[:, k][:, :, None] / scn.dt  # (M, K, n)
        Qr = fit(x)
        # exact discrete adjoint of the forward scheme: the resolvent hits
        # the conditional means first, then the explicit terms are added
        mk = _smoothed(Qr, p, stepper.solve1)
        q = np.swapaxes(_smoothed(Qr, mart, stepper.solve1), 1, 2)
        drift = (scn.coeffs.b_x(x, uk) * mk
                 + np.einsum("pnk,pnk->pn", scn.sigma_x_eff(x, uk), q)
                 + scn.coeffs.l_x(x, uk))
        p = mk + scn.dt * drift
        if store:
            p_store[k] = p
            q_store[k] = q
        if step_hook is not None:
            step_hook(k, mk, q)
    return BackwardPair1(p_store, q_store, p, diag)


@dataclass
class BackwardPair2:
    """Second-order adjoint on the square at mollifier width eta.

    P0 is the value at t = 0; stored_steps maps requested step indices to
    the (M, n, n) slices captured during the sweep.
    """

    eta: float
    P0: np.ndarray
    stored_steps: dict
    apriori_stat: float
    diagnostics: dict = field(default_factory=dict)


def _sweep2(scn, xbar, ubar, ens, pair1, etas, method, reg_basis,
            store_steps, step_hook):
    """Backward sweep of the mollified second-order pair with every width
    in etas marching in lockstep, so memory stays at a few (M, n, n) blocks
    per width and the squared Cauchy increments between consecutive widths
    stream step by step.  store_steps, step_hook and max_asymmetry apply to
    the last width.  Returns the per-width P_0 and a-priori statistics, the
    squared increments, the stored steps and the diagnostics.
    """
    fit, diag = _step_fit(scn, ens.n_paths, method, reg_basis)
    stepper = _stepper(scn)
    basis2 = SpectralBasis.build(scn.grid.square(), scn.op)
    h, dt = scn.grid.h, scn.dt
    idx = np.arange(scn.grid.n)
    last = len(etas) - 1
    Ps = [mollified_terminal_batch(xbar.final, scn.coeffs.h_xx, scn.grid, eta)
          for eta in etas]
    sup_hm1 = [float(np.mean(sobolev_norms_batch(P, basis2, -1.0) ** 2))
               for P in Ps]
    int_l2 = [0.0] * len(etas)
    cauchy_sq = [0.0] * last
    stored = {}
    max_asym = 0.0
    for k in range(scn.n_t - 1, -1, -1):
        x = xbar[k]
        uk = ubar.evaluate(k, scn, x)
        Qr = fit(x)
        sx = scn.sigma_x_eff(x, uk)
        c = tensor_drift(scn.coeffs.b_x(x, uk), sx)
        # the source is the diagonal embedding of the curvature
        diag_source = _curvature(scn, x, uk, pair1.p[k], pair1.q[k]) / h
        dwk = ens.dW[:, k][:, :, None, None]
        for i, P in enumerate(Ps):
            # resolvent first (exact discrete adjoint), explicit terms second
            Mk = _smoothed(Qr, P, stepper.solve2)
            Qk = _smoothed(Qr, P[:, None] * dwk, lambda T: stepper.solve2(T / dt))
            rate = c * Mk
            rate += _qcouple(sx, Qk)
            rate[:, idx, idx] += diag_source
            P = Ps[i] = Mk + dt * rate
            hm1, l2 = sobolev_norms_batch(P, basis2, (-1.0, 0.0))
            sup_hm1[i] = max(sup_hm1[i], float(np.mean(hm1 ** 2)))
            int_l2[i] += dt * float(np.mean(l2 ** 2))
        max_asym = max(max_asym, float(np.max(np.abs(P - np.swapaxes(P, 1, 2)))))
        if k in store_steps:
            stored[k] = P.copy()
        if step_hook is not None:
            step_hook(k, Mk, np.moveaxis(Qk, 1, 3))
        # time-L2 Cauchy increments over the left endpoints k = 0 .. n_t - 1
        for i in range(last):
            sq = h ** 2 * np.sum((Ps[i] - Ps[i + 1]) ** 2, axis=(-2, -1))
            cauchy_sq[i] += dt * float(np.mean(sq))
    stats = [s + l2 for s, l2 in zip(sup_hm1, int_l2)]
    diag["max_asymmetry"] = max_asym
    return Ps, stats, cauchy_sq, stored, diag


def solve_adjoint2_mollified(scn: Scenario, xbar: Trajectory, ubar: ControlProcess,
                             ens: PathEnsemble, pair1: BackwardPair1, eta: float,
                             method: str = "regress",
                             reg_basis: RegressionBasis = None,
                             store_steps=(), step_hook: Callable = None) -> BackwardPair2:
    """Backward sweep for the mollified second-order adjoint.

    The additive source is the diagonal embedding of the curvature of the
    Hamiltonian along the reference path, l_xx + b_xx p + <sigma_xx, q>,
    evaluated with the first-order pair.  step_hook(k, M_k, Q_k) receives
    the pairing values at step k -- the resolvent-smoothed conditional mean
    of P_{k+1} and the martingale component (shape (M, n, n, K)) -- which
    is what source pairings must use for exact discrete duality.

    The a-priori statistic sup_k E ||P_k||_{H^-1}^2 + E sum dt ||P_k||_{L2}^2
    is accumulated during the sweep.  This is the lockstep kernel of
    solve_adjoint2_limit run at the single width eta.
    """
    Ps, stats, _, stored, diag = _sweep2(scn, xbar, ubar, ens, pair1, [eta],
                                         method, reg_basis, store_steps,
                                         step_hook)
    return BackwardPair2(eta, Ps[0], stored, stats[0], diag)


@dataclass
class EtaLadderReport:
    """Vanishing-mollifier ladder: per-width a-priori statistics, terminal
    distances to the diagonal curvature distribution in H^-1, and Cauchy
    increments between consecutive widths in L2(time x paths; L2)."""

    etas: list
    apriori_stats: list
    terminal_distances: list
    cauchy_increments: list
    finest: BackwardPair2


def terminal_distance(scn: Scenario, xbarT: np.ndarray, eta: float) -> float:
    """H^-1 distance between the mollified terminal condition and the
    diagonal curvature distribution, averaged over paths."""
    basis2 = SpectralBasis.build(scn.grid.square(), scn.op)
    moll = mollified_terminal_batch(xbarT, scn.coeffs.h_xx, scn.grid, eta)
    curv = np.asarray(scn.coeffs.h_xx(xbarT), dtype=float)
    sharp = np.zeros(moll.shape)
    idx = np.arange(scn.grid.n)
    sharp[..., idx, idx] = curv / scn.grid.h
    return float(np.mean(sobolev_norms_batch(moll - sharp, basis2, -1.0)))


def solve_adjoint2_limit(scn: Scenario, xbar: Trajectory, ubar: ControlProcess,
                         ens: PathEnsemble, pair1: BackwardPair1, etas,
                         method: str = "regress",
                         reg_basis: RegressionBasis = None,
                         store_steps=(), step_hook: Callable = None) -> EtaLadderReport:
    """Solve the mollified pair along a decreasing ladder of widths.

    All widths run through the one lockstep kernel that also serves
    solve_adjoint2_mollified, so the finest pair equals a single-width
    solve at that width bit for bit.  Consecutive solutions are compared in
    L2([0, T] x paths; L2(square)) to certify Cauchy behaviour; the
    finest-width pair is returned as the limit representative.  step_hook
    applies to the finest sweep only.
    """
    etas = sorted(etas, reverse=True)
    if len(etas) < 2:
        raise ValueError("eta ladder needs at least two widths")
    Ps, stats, cauchy_sq, stored, diag = _sweep2(
        scn, xbar, ubar, ens, pair1, etas, method, reg_basis, store_steps,
        step_hook)
    dists = [terminal_distance(scn, xbar.final, eta) for eta in etas]
    increments = [float(np.sqrt(v)) for v in cauchy_sq]
    finest = BackwardPair2(etas[-1], Ps[-1], stored, stats[-1], diag)
    return EtaLadderReport(list(etas), stats, dists, increments, finest)
