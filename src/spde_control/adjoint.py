"""Backward (adjoint) solvers.

Both adjoint pairs are solved by a backward sweep of the semi-implicit
scheme, with the conditional expectations at each step replaced by a
least-squares regression on spectral features of the current state
(Longstaff-Schwartz), fitted once per step: the first-order sweep keeps
its fits, and the second-order sweep reuses them.  At both orders one GEMM
with the design [Qr | Qr dW_1 | ... | Qr dW_K] fits p_{k+1} and every
martingale target p_{k+1} dW_k; the resolvent acts on the few regression
coefficients (S, SQ), which are lifted to the paths once.  The first-order
pair is kept in that form and lifted one step at a time.

The second-order pair lives on the square; its terminal condition is the
heat-kernel mollification of the diagonal curvature distribution.  A single
width (solve_adjoint2_mollified) and a vanishing-width ladder
(solve_adjoint2_limit) run one backward kernel that marches every width in
lockstep, keeping P between steps in coefficient form, so no (M, n, n)
array lives but P_0 and the steps asked for.  Each step picks one of two
arms: when b_x, sigma_x and the curvature are exactly equal on every path,
P = Qr T + D, and the fit, norms and increments are taken from T and D
(coefficient arm); otherwise P is rebuilt over path chunks (chunk arm).
The asymmetry diagnostic is max |P - P^T| over the paths in either arm,
lifted as Qr (T - T^T) in the first.  The first-order and the single-width
solvers hand a step hook the coefficient form (k, Qr, S, SQ), so that
pairings with forward sources are accumulated during the sweep without
storing the backward trajectory.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.linalg import qr

from .ensemble import PathEnsemble
from .forward import Trajectory, _stepper, path_chunks, tensor_multiplier
from .operators import (EllipticOperator, SpectralBasis, add_diagonal,
                        lifted_sobolev_sums, mollified_terminal_batch,
                        sobolev_norms_batch)
from .scenario import ControlProcess, Scenario

GRAM_CONDITION_LIMIT = 1e10


class RegressionError(RuntimeError):
    """Regression design became ill-conditioned; results would be noise."""


class RegressionBasis:
    """Feature map for conditional-expectation regressions: a constant plus
    the 8 leading spectral coefficients of the state.  Columns that are
    constant across the ensemble -- e.g. at t = 0, or throughout a
    deterministic run -- carry no information and are dropped before the
    solve; the conditioning check applies to the retained columns.
    """

    def __init__(self, grid, op: EllipticOperator = EllipticOperator()):
        self._V = SpectralBasis.build(grid, op).vectors[:, :8]
        self._sqh = np.sqrt(grid.h)

    @property
    def n_features(self) -> int:
        return 1 + self._V.shape[1]

    def features(self, x: np.ndarray) -> np.ndarray:
        return np.concatenate([np.ones((len(x), 1)), self._sqh * (x @ self._V)],
                              axis=1)


def _project(feats: np.ndarray):
    """Fit of the L2 projector onto the span of the feature columns.

    Columns are standardized and then passed through a rank-revealing
    (pivoted) QR; columns that are constant across the ensemble or linearly
    dependent on earlier ones -- e.g. when the state's randomness spans
    fewer directions than there are features -- carry no information and
    are pruned.  Returns an orthonormal basis Qr (M, keep) of the retained
    columns (the projection is Qr Qr^T) and their Gram condition; if that
    exceeds the limit, the regression is refused.  When no column varies,
    Qr is the constant column -1/sqrt(M) (equal rows; the sign a Householder
    QR gives) with condition 1, and no QR runs.
    """
    m = feats.shape[0]
    std = feats.std(axis=0)
    mean = feats.mean(axis=0)
    live = std > 1e-10 * (1.0 + np.abs(mean))
    live[0] = False  # constant column handled via centering
    if not live.any():  # a deterministic state: the ensemble mean
        return np.full((m, 1), -1.0 / np.sqrt(m)), 1.0
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


def _design(Qr: np.ndarray, dWk: np.ndarray) -> np.ndarray:
    """[Qr | Qr dW_1 | ... | Qr dW_K] (M, (K + 1) keep): design^T target fits
    a target and its martingale targets in one GEMM, (K + 1, keep, ...)."""
    m = len(Qr)
    return (np.column_stack([np.ones(m), dWk])[:, :, None]
            * Qr[:, None, :]).reshape(m, -1)


def _resolve(coef: np.ndarray, solve, dt: float):
    """(S, SQ) from a (K + 1, keep, ...) fit: the resolvent of the
    conditional mean's coefficients, S = solve(coef[0]), and of the
    martingale component's, SQ = solve(coef[1:] / dt) mode-major."""
    return solve(coef[0]), solve(coef[1:].swapaxes(0, 1) / dt)


def _step_fit(scn: Scenario, m: int):
    """Return fit(x), the one regression fit of a step on the features of
    x, and the diagnostics in which it books the Gram condition and
    retained rank.

    A fit that keeps more than max(M // 20, 1) columns is refused: the
    regression error grows like F / M with F the retained columns (Gobet,
    Lemor & Warin 2005).  A deterministic state keeps only the constant column, so
    its fit is the ensemble mean at any M.
    """
    reg_basis = RegressionBasis(scn.grid, scn.op)
    diag = {"max_gram_condition": 0.0}

    def fit(x):
        Qr, cond = _project(reg_basis.features(x))
        _admit(Qr, m, diag)
        diag["max_gram_condition"] = max(diag["max_gram_condition"], cond)
        return Qr

    return fit, diag


def _admit(Qr: np.ndarray, m: int, diag: dict):
    """Refuse a fit Qr that keeps more than max(M // 20, 1) columns for m
    paths; book its retained rank in diag["min_rank"]."""
    if Qr.shape[1] > max(m // 20, 1):
        raise RegressionError(
            f"fit keeps {Qr.shape[1]} columns for {m} paths; need M >= 20 F")
    diag["min_rank"] = min(diag.get("min_rank", Qr.shape[1]), Qr.shape[1])


def _curvature(scn: Scenario, x: np.ndarray, uk, p: np.ndarray,
               q: np.ndarray) -> np.ndarray:
    """Curvature of the Hamiltonian along x, l_xx + b_xx p + <sigma_xx, q>,
    with the first-order pair (p, q) at the same step; shape (M, n)."""
    return (scn.coeffs.l_xx(x, uk)
            + scn.coeffs.b_xx(x, uk) * p
            + np.einsum("pnk,pnk->pn", scn.sigma_xx_eff(x, uk), q))


def _lift_coefficients(E, S, SQ) -> np.ndarray:
    """[S | A | B] (keep, 3, n, n), lifted by one GEMM per chunk: A_ij =
    sum_k E_ik SQ_k,ij and B_ij = sum_k E_jk SQ_k,ij, so the coupling
    sum_k (sigma_x,i E_ik + sigma_x,j E_jk) Q_k,ij is sigma_x,i A + sigma_x,j B."""
    return np.stack([S, np.einsum("ik,qkij->qij", E, SQ),
                     np.einsum("jk,qkij->qij", E, SQ)], axis=1)


def _lift1(scn: Scenario, x: np.ndarray, uk, Qr: np.ndarray, S: np.ndarray,
           SQ: np.ndarray):
    """(p_k, q_k) from step k's fit along x: the conditional mean m_k = Qr S,
    the martingale component q_k = Qr SQ (M, n, K), and p_k = m_k + dt (b_x
    m_k + <sigma_x E, q_k> + l_x) -- the resolvent hits the conditional
    means first, then the explicit terms are added (exact discrete adjoint
    of the forward scheme)."""
    mk, q = Qr @ S, np.tensordot(Qr, SQ, axes=1).swapaxes(1, 2)
    drift = (scn.coeffs.b_x(x, uk) * mk
             + np.einsum("pnk,pnk->pn", scn.sigma_x_eff(x, uk), q)
             + scn.coeffs.l_x(x, uk))
    return mk + scn.dt * drift, q


@dataclass
class BackwardPair1:
    """First-order adjoint pair in fit form: fits[k] = (Qr, S, SQ) is step
    k's regression basis Qr (M, keep) of xbar[k] and its resolved
    coefficients S (keep, n) and SQ (keep, K, n), for k < n_t (None when
    the sweep did not store); p0 is p at t = 0.  lift(scn, k, x, uk)
    rebuilds (p_k (M, n), q_k (M, n, K)) along x = xbar[k] and uk, bit for
    bit the values the sweep stepped with; the terminal p is h_x(xbar.final).
    """

    fits: Optional[list]
    p0: np.ndarray
    diagnostics: dict = field(default_factory=dict)

    def lift(self, scn: Scenario, k: int, x: np.ndarray, uk):
        p, q = _lift1(scn, x, uk, *self.fits[k])
        # the row-major layout a stored q had: einsum's summation order,
        # and so its rounding, follows the operands' strides
        return p, np.ascontiguousarray(q)


def solve_adjoint1(scn: Scenario, xbar: Trajectory, ubar: ControlProcess,
                   ens: PathEnsemble, store: bool = True,
                   step_hook: Callable = None) -> BackwardPair1:
    """Backward sweep for the first-order adjoint pair along xbar; store
    keeps every step's fit (BackwardPair1.fits).

    step_hook(k, Qr, S, SQ) is called at every step with the pairing values
    at step k in coefficient form: the resolvent-smoothed conditional mean
    of p_{k+1} is m_k = Qr S and the martingale component, mode-major
    (M, K, n), is q_k = Qr SQ, with Qr (M, keep) the step's orthonormal
    regression basis, S (keep, n) and SQ (keep, K, n).  These (not p_k,
    which adds the explicit drift terms) are what source pairings must
    use -- with them, duality against the forward scheme holds exactly up
    to the regression error; pair a source with S and SQ first and lift the
    (keep,) result with Qr.
    """
    n, K = scn.grid.n, scn.n_modes
    fit, diag = _step_fit(scn, ens.n_paths)
    stepper = _stepper(scn)
    p = scn.coeffs.h_x(xbar.final)
    fits = [None] * scn.n_t if store else None
    for k in range(scn.n_t - 1, -1, -1):
        x = xbar[k]
        Qr = fit(x)
        coef = (_design(Qr, ens.dW[:, k]).T @ p).reshape(K + 1, -1, n)
        S, SQ = _resolve(coef, stepper.solve1, scn.dt)
        p = _lift1(scn, x, ubar.evaluate(k, scn, x), Qr, S, SQ)[0]
        if store:
            fits[k] = (Qr, S, SQ)
        if step_hook is not None:
            step_hook(k, Qr, S, SQ)
    return BackwardPair1(fits, p, diag)


@dataclass
class BackwardPair2:
    """Second-order adjoint on the square at mollifier width eta.

    P0 is the value at t = 0; stored_steps maps requested step indices to
    the (M, n, n) slices captured during the sweep (n_t: the terminal).
    """

    eta: float
    P0: np.ndarray
    stored_steps: dict
    apriori_stat: float
    diagnostics: dict = field(default_factory=dict)


def _same_on_every_path(*fields) -> bool:
    """Whether each per-node field (M, n) equals its first row exactly."""
    return all(bool(np.all(f == f[:1])) for f in fields)


def _sweep2(scn, xbar, ubar, ens, pair1, etas, store_steps, step_hook):
    """Backward sweep of the mollified second-order pair from the terminals
    at the widths etas, every width marching in lockstep.  Between steps
    P_{k+1} stays in coefficient form: the fit Qr, the per-node b_x, sigma_x
    and curvature (whose diagonal embedding is the source) at step k + 1,
    and per width [S | A | B] (_lift_coefficients) from the resolved fits S
    of P and SQ of P dW.  Each step rebuilds every width's P_{k+1} once, only
    to accumulate step k's fit, the norms, the Cauchy increments between
    consecutive widths, max_asymmetry and any stored step, by one of two
    arms chosen per step:

    - the coefficient arm, when b_x, sigma_x and the curvature are exactly
      equal (==) on every path: then P_{k+1} = Qr T + D on every path, with
      T = G1 S + dt (sigma_x,i A + sigma_x,j B) (keep, n, n) per width and D
      = dt add_diagonal(0, curv, h), so the fit is (design^T Qr) T +
      (design^T 1) D, the norms are lifted_sobolev_sums, and the increments
      h^2 |T^i - T^(i+1)|^2; only max_asymmetry, the largest |Qr (T - T^T)|
      of the last width, and P_0 and the stored steps lift to the paths;
    - the chunk arm otherwise: one pass over path chunks
      (forward.path_chunks) lifts [Mk | A | B] and forms the per-path
      multiplier and source, max_asymmetry being the largest |P - P^T|.

    Step k's fit Qr is the first-order pair's, pair1.fits[k]: the column
    guard checks it again, and the diagnostics copy the pair's Gram
    condition and book the rank.  The first pass builds the terminals chunk
    by chunk and their distances to the diagonal curvature distribution;
    the last materializes P_0 of the last width, to which store_steps (n_t
    names the terminal), step_hook and max_asymmetry apply.  Returns that
    P_0, the per-width a-priori statistics, squared increments and terminal
    distances, the stored steps and diagnostics (chunk_steps counts the
    chunk-arm steps).
    """
    diag = {"max_gram_condition": pair1.diagnostics["max_gram_condition"]}
    stepper = _stepper(scn)
    basis2 = SpectralBasis.build(scn.grid.square(), scn.op)
    m, n, K, h, dt = ens.n_paths, scn.grid.n, scn.n_modes, scn.grid.h, scn.dt
    chunks = path_chunks(m, n)
    W, rows = len(etas), chunks[0].stop
    # chunk buffers, written in place by every pass
    Pc, lift = np.empty((W, rows, n, n)), np.empty((rows, 3, n, n))
    rate, G1, scratch = np.empty((3, rows, n, n))
    acc = np.zeros((4, W))  # sup H^-1^2, sum dt L2^2, distance, Cauchy^2
    stored, max_asym, lin = {}, 0.0, None  # lin: P_{k+1}, None: the terminal
    diag["chunk_steps"] = 0

    def coefficient_arm(sums, design, sink):
        """P_j = Qr T + D on every path: stats and fit from T and D."""
        nonlocal max_asym
        Qr, bx, sx, curv, SAB = lin
        g1, s = tensor_multiplier(bx[:1], sx[:1], scn.noise_cov, dt)[0], sx[0]
        T = np.stack([g1 * S + dt * (s[:, None] * A + B * s)
                      for S, A, B in (x.swapaxes(0, 1) for x in SAB)])
        D = dt * add_diagonal(np.zeros((n, n)), curv[0], h)
        col_sums = Qr.sum(axis=0)
        for i in range(W):
            sums[:2, i] = lifted_sobolev_sums(T[i], D, col_sums, m, basis2,
                                              (-1.0, 0.0))
        sums[3, :-1] = h ** 2 * np.sum((T[:-1] - T[1:]) ** 2, axis=(1, 2, 3))
        Tl = T[-1].reshape(len(Qr.T), -1)
        U = Tl - T[-1].swapaxes(1, 2).reshape(Tl.shape)
        for c in chunks:
            L = c.stop - c.start
            a = np.dot(Qr[c], U, out=scratch[:L].reshape(L, -1))
            max_asym = max(max_asym, float(np.max(np.abs(a, out=a))))
            if sink is not None:
                np.dot(Qr[c], Tl, out=sink[c].reshape(L, -1))
                sink[c] += D
        if design is None:
            return None
        # one small GEMM per width: (design^T [Qr | 1]) [T; D]
        DQ = design.T @ np.column_stack([Qr, np.ones(m)])
        return [DQ @ np.vstack([Ti.reshape(len(Ti), -1), D.reshape(1, -1)])
                for Ti in T]

    def chunk_arm(sums, design, sink):
        """Rebuild P_j of every width by chunks; stats and fit per chunk."""
        nonlocal max_asym
        coef = [0.0] * W
        for c in chunks:
            L = c.stop - c.start
            P = Pc[:, :L]
            if lin is None:
                xT = xbar.final[c]
                for i, eta in enumerate(etas):
                    P[i] = mollified_terminal_batch(xT, scn.coeffs.h_xx, scn.grid, eta)
                    sums[2, i] += np.sum(_terminal_gaps(scn, basis2, xT, P[i]))
            else:
                Qr, bx, sx, curv, SAB = lin
                tensor_multiplier(bx[c], sx[c], scn.noise_cov, dt, out=G1[:L])
                for i in range(W):
                    # resolvent first (exact discrete adjoint), then the explicit terms
                    np.dot(Qr[c], SAB[i].reshape(len(SAB[i]), -1),
                           out=lift[:L].reshape(L, -1))
                    Mk, A, B = lift[:L].swapaxes(0, 1)
                    r = np.multiply(sx[c][:, :, None], A, out=rate[:L])
                    r += np.multiply(B, sx[c][:, None, :], out=B)
                    add_diagonal(r, curv[c], h)
                    r *= dt
                    Pi = np.multiply(G1[:L], Mk, out=P[i])
                    Pi += r
                for i in range(W - 1):
                    sums[3, i] += np.sum(h ** 2 * np.sum((P[i] - P[i + 1]) ** 2,
                                                         axis=(-2, -1)))
                a = np.subtract(P[-1], np.swapaxes(P[-1], 1, 2), out=scratch[:L])
                max_asym = max(max_asym, float(np.max(np.abs(a, out=a))))
            for i in range(W):
                hm1, l2 = sobolev_norms_batch(P[i], basis2, (-1.0, 0.0))
                sums[0, i] += np.sum(hm1 ** 2)
                sums[1, i] += np.sum(l2 ** 2)
                if design is not None:
                    coef[i] += design[c].T @ P[i].reshape(L, -1)
            if sink is not None:
                sink[c] = P[-1]
        return coef

    def march(j, design):
        """Rebuild P_j of every width; accumulate stats, return the fit."""
        sums = np.zeros((4, W))  # path sums: H^-1^2, L2^2, distance, Cauchy
        sink = np.empty((m, n, n)) if j == 0 or j in store_steps else None
        if lin is not None and _same_on_every_path(*lin[1:4]):
            coef = coefficient_arm(sums, design, sink)
        else:
            if lin is not None:
                diag["chunk_steps"] += 1
            coef = chunk_arm(sums, design, sink)
        means = sums / m
        if lin is None:  # the terminal: no time step, no increment
            acc[[0, 2]] = means[[0, 2]]
        else:
            acc[0] = np.maximum(acc[0], means[0])
            acc[[1, 3]] += dt * means[[1, 3]]
        if j in store_steps:
            stored[j] = sink
        return coef, sink

    for k in range(scn.n_t - 1, -1, -1):
        x = xbar[k]
        uk = ubar.evaluate(k, scn, x)
        Qr = pair1.fits[k][0]
        _admit(Qr, m, diag)
        # one GEMM per width fits every target
        fits = [_resolve(coef.reshape(K + 1, -1, n, n), stepper.solve2, dt)
                for coef in march(k + 1, _design(Qr, ens.dW[:, k]))[0]]
        if step_hook is not None:
            step_hook(k, Qr, *fits[-1])
        SAB = [_lift_coefficients(scn.profile, S, SQ) for S, SQ in fits]
        # the source is the diagonal embedding of the curvature
        lin = (Qr, scn.coeffs.b_x(x, uk), scn.coeffs.sigma_x(x, uk),
               _curvature(scn, x, uk, *pair1.lift(scn, k, x, uk)), SAB)
    P0 = march(0, None)[1]
    diag["max_asymmetry"] = max_asym
    return (P0, (acc[0] + acc[1]).tolist(), acc[3, :-1].tolist(), acc[2].tolist(),
            stored, diag)


def solve_adjoint2_mollified(scn: Scenario, xbar: Trajectory, ubar: ControlProcess,
                             ens: PathEnsemble, pair1: BackwardPair1, eta: float,
                             store_steps=(), step_hook: Callable = None) -> BackwardPair2:
    """Backward sweep for the mollified second-order adjoint.

    The additive source is the diagonal embedding of the curvature of the
    Hamiltonian along the reference path, l_xx + b_xx p + <sigma_xx, q>,
    evaluated with the first-order pair.  step_hook(k, Qr, S, SQ) receives
    the pairing values at step k in coefficient form, as in solve_adjoint1,
    with S (keep, n, n) and SQ (keep, K, n, n): M_k = Qr S and Q_k = Qr SQ.

    The a-priori statistic sup_k E ||P_k||_{H^-1}^2 + E sum dt ||P_k||_{L2}^2
    is accumulated during the sweep.  This is the lockstep kernel of
    solve_adjoint2_limit run at the single width eta.
    """
    P0, stats, _, _, stored, diag = _sweep2(scn, xbar, ubar, ens, pair1, [eta],
                                            store_steps, step_hook)
    return BackwardPair2(eta, P0, stored, stats[0], diag)


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


def _terminal_gaps(scn: Scenario, basis2: SpectralBasis, xT: np.ndarray,
                   moll: np.ndarray) -> np.ndarray:
    """Per-path H^-1 distances between mollified terminal conditions moll
    and the diagonal curvature distribution along the terminal states xT."""
    curv = np.asarray(scn.coeffs.h_xx(xT), dtype=float)
    return sobolev_norms_batch(add_diagonal(moll.copy(), -curv, scn.grid.h),
                               basis2, -1.0)


def solve_adjoint2_limit(scn: Scenario, xbar: Trajectory, ubar: ControlProcess,
                         ens: PathEnsemble, pair1: BackwardPair1,
                         etas) -> EtaLadderReport:
    """Solve the mollified pair along a decreasing ladder of widths.

    All widths run through the one lockstep kernel that also serves
    solve_adjoint2_mollified, so the finest pair equals a single-width
    solve at that width bit for bit.  The kernel streams the paths in
    chunks: each width's terminal condition is built chunk by chunk in the
    sweep's first pass, which also takes its distance to the diagonal
    curvature distribution.  Consecutive solutions are compared in
    L2([0, T] x paths; L2(square)) to certify Cauchy behaviour; the
    finest-width pair is returned as the limit representative.
    """
    etas = sorted(etas, reverse=True)
    if len(etas) < 2:
        raise ValueError("eta ladder needs at least two widths")
    P0, stats, cauchy_sq, dists, stored, diag = _sweep2(
        scn, xbar, ubar, ens, pair1, etas, (), None)
    increments = [float(np.sqrt(v)) for v in cauchy_sq]
    finest = BackwardPair2(etas[-1], P0, stored, stats[-1], diag)
    return EtaLadderReport(list(etas), stats, dists, increments, finest)
