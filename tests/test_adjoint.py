"""Backward solvers: regression machinery, both adjoint pairs, the
vanishing-mollifier ladder, and oracle cross-checks."""
import warnings

import numpy as np
import pytest

from helpers import (MeanFeedback, lifted_pair, lockstep_sweep2, make_scenario,
                     qcouple, reference_adjoint1, reference_sweep2, smoothed,
                     storing_adjoint1, terminal_distance)
from spde_control import adjoint, forward
from spde_control.adjoint import (BackwardPair1, RegressionBasis, RegressionError,
                                  _lift_coefficients, _project, solve_adjoint1,
                                  solve_adjoint2_limit, solve_adjoint2_mollified)
from spde_control.ensemble import PathEnsemble
from spde_control.forward import simulate_state
from spde_control.grids import Field, Grid1D
from spde_control.operators import (EllipticOperator, ImplicitStepper,
                                    MollifierResolutionWarning,
                                    mollified_terminal_batch)
from spde_control.verify import affine_ansatz_oracle, zero_noise_oracle


def _solved(scn, n_paths):
    ens = PathEnsemble.for_scenario(scn, n_paths=n_paths)
    xbar = simulate_state(scn, scn.base_control, ens)
    pair1 = solve_adjoint1(scn, xbar, scn.base_control, ens)
    return ens, xbar, pair1


def _lifted(scn, n_paths):
    """The first-order pair on every step and path, p (n_t+1, M, n) and q
    (n_t, M, n, K), along the base control."""
    _, xbar, pair1 = _solved(scn, n_paths)
    return lifted_pair(scn, xbar, scn.base_control, pair1)


# -- regression machinery ----------------------------------------------------

def test_feature_count():
    scn = make_scenario(n=16)
    basis = RegressionBasis(scn.grid, scn.op)
    assert basis.n_features == 1 + 8
    x = np.zeros((7, 16))
    assert basis.features(x).shape == (7, 9)


def test_projection_recovers_functions_of_the_features():
    gen = np.random.Generator(np.random.Philox(key=4))
    feats = np.column_stack([np.ones(200), gen.normal(size=(200, 3))])
    target = 2.0 + feats[:, 1] - 0.5 * feats[:, 3]
    Qr, cond = _project(feats)
    fitted = Qr @ (Qr.T @ target)
    assert np.allclose(fitted, target, atol=1e-10)
    assert cond < 1e3


def test_projection_prunes_collinear_columns():
    gen = np.random.Generator(np.random.Philox(key=5))
    base = gen.normal(size=(300, 2))
    feats = np.column_stack([np.ones(300), base, base[:, 0] + base[:, 1],
                             np.full(300, 3.7)])
    target = base[:, 0] - base[:, 1]
    Qr, cond = _project(feats)
    # the constant, the collinear sum and the second constant are pruned
    assert Qr.shape == (300, 3)
    fitted = Qr @ (Qr.T @ target)
    assert np.allclose(fitted, target, atol=1e-10)
    assert cond < 1e3


@pytest.mark.parametrize("kind", ["laplacian", "divergence_form"])
def test_resolvent_on_coefficients_equals_resolvent_on_paths(kind):
    # the projector acts on the path axis and the resolvent on the space
    # axes: solving the coefficients and lifting once is the path solve
    gen = np.random.Generator(np.random.Philox(key=6))
    n, m, K = 8, 120, 2
    grid = Grid1D(0.0, 1.0, n)
    op = (EllipticOperator() if kind == "laplacian" else EllipticOperator(
        kind, Field(grid, 1.0 + 0.5 * np.sin(np.pi * grid.nodes))))
    stepper = ImplicitStepper(grid, op, dt=0.05)
    feats = np.column_stack([np.ones(m), gen.normal(size=(m, 4))])
    Qr, _ = _project(feats)
    for target, solve in ((gen.normal(size=(m, n)), stepper.solve1),
                          (gen.normal(size=(m, K, n)), stepper.solve1),
                          (gen.normal(size=(m, n, n)), stepper.solve2),
                          (gen.normal(size=(m, K, n, n)), stepper.solve2)):
        flat = target.reshape(m, -1)
        ref = solve((Qr @ (Qr.T @ flat)).reshape(target.shape))
        out = smoothed(Qr, target, solve)
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_too_many_features_for_the_ensemble_is_refused():
    scn = make_scenario("bilinear", n=16, n_t=8)
    ens = PathEnsemble.for_scenario(scn, n_paths=30)
    xbar = simulate_state(scn, scn.base_control, ens)
    assert RegressionBasis(scn.grid, scn.op).n_features > ens.n_paths // 20
    with pytest.raises(RegressionError, match="need M"):
        solve_adjoint1(scn, xbar, scn.base_control, ens)


@pytest.mark.parametrize("m", [2, 30, 100])
def test_noisy_first_order_solve_needs_twenty_paths_per_kept_column(m):
    # a noisy state keeps all 9 columns, or M of them if fewer: more than
    # max(M // 20, 1) either way
    scn = make_scenario("bilinear", n=8, n_t=8)
    ens = PathEnsemble.for_scenario(scn, n_paths=m)
    xbar = simulate_state(scn, scn.base_control, ens)
    with pytest.raises(RegressionError, match=rf"keeps {min(m, 9)} columns for "
                                              rf"{m} paths; need M >= 20 F"):
        solve_adjoint1(scn, xbar, scn.base_control, ens)


def test_second_order_sweeps_refuse_too_many_features():
    # the second-order sweeps reuse the first-order fits and check them
    # again: a pair fitted without the guard keeps 9 columns at the last
    # step, where the sweeps start, more than max(M // 20, 1) = 5, and both
    # sweeps refuse it
    scn = make_scenario("bilinear", n=8, n_t=8)
    ens = PathEnsemble.for_scenario(scn, n_paths=100)
    xbar = simulate_state(scn, scn.base_control, ens)
    m, n, K = ens.n_paths, scn.grid.n, scn.n_modes
    basis = RegressionBasis(scn.grid, scn.op)
    Qrs = [_project(basis.features(xbar[k]))[0] for k in range(scn.n_t)]
    assert Qrs[-1].shape[1] == 9
    pair1 = BackwardPair1(
        [(Qr, np.zeros((Qr.shape[1], n)), np.zeros((Qr.shape[1], K, n)))
         for Qr in Qrs], np.zeros((m, n)), {"max_gram_condition": 1.0})
    with pytest.raises(RegressionError, match="need M"):
        solve_adjoint1(scn, xbar, scn.base_control, ens)
    h2 = scn.grid.h ** 2
    with pytest.raises(RegressionError, match="need M"):
        solve_adjoint2_mollified(scn, xbar, scn.base_control, ens, pair1,
                                 eta=4 * h2)
    with pytest.raises(RegressionError, match="need M"):
        solve_adjoint2_limit(scn, xbar, scn.base_control, ens, pair1,
                             etas=[16 * h2, 4 * h2])


# -- first-order pair --------------------------------------------------------

def test_costless_problem_has_zero_adjoint():
    scn = make_scenario("bilinear", n=8, n_t=16, state_weight=0.0,
                        term_weight=0.0)
    p, q = _lifted(scn, 200)
    assert np.max(np.abs(p)) == 0.0
    assert np.max(np.abs(q)) == 0.0


@pytest.mark.parametrize("K, noise", [(1, "noisy"), (2, "noisy"), (2, "zero")])
def test_one_gemm_first_order_sweep_matches_per_target_reference(K, noise):
    # one GEMM fits p and every martingale target p dW_k, and the hook gets
    # the coefficients; the reference regresses each target separately and
    # hands the hook the lifted values: the two agree to rounding.  "zero"
    # is the deterministic state, whose fits keep the one constant column
    amp = dict(noise_base=0.0, noise_coupling=0.0) if noise == "zero" else {}
    scn = make_scenario("bilinear", n=8, n_t=16, K=K, shapes=K > 1, **amp)
    ens = PathEnsemble.for_scenario(scn, n_paths=300)
    xbar = simulate_state(scn, scn.base_control, ens)
    hooks, rhooks = [], []
    pair1 = solve_adjoint1(
        scn, xbar, scn.base_control, ens,
        step_hook=lambda k, Qr, S, SQ: hooks.append(
            (Qr @ S, np.moveaxis(np.tensordot(Qr, SQ, axes=1), 1, 2))))
    p, q = reference_adjoint1(
        scn, xbar, scn.base_control, ens,
        step_hook=lambda k, mk, qk: rhooks.append((mk.copy(), qk.copy())))
    if noise == "zero":
        assert pair1.diagnostics["min_rank"] == 1
    lp, lq = lifted_pair(scn, xbar, scn.base_control, pair1)
    assert _rel(lp, p) <= 1e-12 and _rel(lq, q) <= 1e-12
    assert _rel(pair1.p0, p[0]) <= 1e-12
    assert len(hooks) == len(rhooks) == scn.n_t
    for (mk, qk), (rmk, rqk) in zip(hooks, rhooks):
        assert qk.shape == rqk.shape == (300, 8, K)
        assert _rel(mk, rmk) <= 1e-12 and _rel(qk, rqk) <= 1e-12


@pytest.mark.parametrize("case", ["1-noisy", "2-noisy", "2-zero", "2-feedback"])
def test_lifted_pair_equals_storing_sweep(case):
    # the pair keeps each step's fit and lifts (p_k, q_k) through the step
    # the sweep itself takes, so every lift is the value a sweep that keeps
    # p and q on every path stores, bit for bit.  "zero" is the
    # deterministic state, whose fits keep the one constant column, and
    # "feedback" a state-feedback base control
    K, noise = int(case[0]), case[2:]
    amp = dict(noise_base=0.0, noise_coupling=0.0) if noise == "zero" else {}
    scn = make_scenario("bilinear", n=8, n_t=16, K=K, shapes=K > 1, **amp)
    ubar = MeanFeedback() if noise == "feedback" else scn.base_control
    ens = PathEnsemble.for_scenario(scn, n_paths=300)
    xbar = simulate_state(scn, ubar, ens)
    pair1 = solve_adjoint1(scn, xbar, ubar, ens)
    p, q = storing_adjoint1(scn, xbar, ubar, ens)
    ranks = [Qr.shape[1] for Qr, _, _ in pair1.fits]
    assert (max(ranks) == 1) == (noise == "zero")
    for k in range(scn.n_t):
        pk, qk = pair1.lift(scn, k, xbar[k], ubar.evaluate(k, scn, xbar[k]))
        assert np.array_equal(pk, p[k]) and np.array_equal(qk, q[k])
    assert np.array_equal(pair1.p0, p[0])


def test_zero_noise_martingale_component_is_sampling_noise():
    # with sigma == 0 the martingale component is exactly the Monte Carlo
    # residual mean(p dW)/dt, of size |p| / sqrt(M dt); check that bound
    scn = make_scenario("additive", n=8, n_t=32, noise_amp=0.0, shapes=False,
                        K=1)
    m = 4000
    p, q = _lifted(scn, m)
    bound = 4.0 * np.abs(p).max() / np.sqrt(m * scn.dt)
    assert np.max(np.abs(q)) < bound


def test_first_order_matches_zero_noise_oracle():
    scn = make_scenario("additive", a=0.0, b=2.0, n=12, n_t=256, T=0.25,
                        base=(0.5,), noise_amp=0.0, shapes=False, K=1)
    p, _ = _lifted(scn, 2)
    oracle = zero_noise_oracle(scn, scn.base_control)
    scale = np.abs(oracle["p"]).max()
    rel = np.abs(p.mean(axis=1) - oracle["p"]).max() / scale
    assert rel < 2e-3


def test_first_order_matches_affine_ansatz_oracle():
    scn = make_scenario("additive", a=0.0, b=2.0, n=16, n_t=128, T=0.5,
                        base=(0.5,), noise_amp=0.2)
    p, _ = _lifted(scn, 600)
    oracle = affine_ansatz_oracle(scn, scn.base_control)
    h = scn.grid.h
    num = np.sqrt(h * np.sum((p.mean(axis=1)
                              - oracle["p_mean"]) ** 2, axis=-1))
    den = np.sqrt(h * np.sum(oracle["p_mean"] ** 2, axis=-1)).max()
    assert num.max() / den < 0.05


def test_ansatz_oracle_requires_affine_preset():
    scn = make_scenario("bilinear", n=8, n_t=8)
    with pytest.raises(ValueError, match="affine"):
        affine_ansatz_oracle(scn, scn.base_control)


# -- second-order pair -------------------------------------------------------

def test_martingale_coupling_matches_einsum_formula():
    # the modes are contracted with E on the fit coefficients: lifting
    # [S | A | B] with one GEMM gives M_k and sigma_x,i A + sigma_x,j B, the
    # coupling sum_k (sx_k (+) sx_k) Q_k of the per-mode sx_k = sigma_x E_k
    gen = np.random.Generator(np.random.Philox(key=43))
    for K in (1, 2, 3):
        sig, E = gen.normal(size=(6, 10)), gen.normal(size=(10, K))
        Qr = gen.normal(size=(6, 4))
        S, SQ = gen.normal(size=(4, 10, 10)), gen.normal(size=(4, K, 10, 10))
        Mk, A, B = np.moveaxis(np.tensordot(Qr, _lift_coefficients(E, S, SQ),
                                            axes=1), 1, 0)
        out = sig[:, :, None] * A + sig[:, None, :] * B
        sx, Qk = sig[:, :, None] * E, np.tensordot(Qr, SQ, axes=1)
        Q = np.moveaxis(Qk, 1, 3)
        ref = (np.einsum("pik,pijk->pij", sx, Q)
               + np.einsum("pjk,pijk->pij", sx, Q))
        assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))
        assert _rel(out, qcouple(sx, Qk)) <= 1e-13
        assert _rel(Mk, np.tensordot(Qr, S, axes=1)) <= 1e-13


def test_second_order_solution_is_symmetric():
    scn = make_scenario("bilinear", n=8, n_t=32)
    ens, xbar, pair1 = _solved(scn, 200)
    pair2 = solve_adjoint2_mollified(scn, xbar, scn.base_control, ens, pair1,
                                     eta=4.0 * scn.grid.h ** 2,
                                     store_steps={0, 16})
    assert pair2.diagnostics["max_asymmetry"] < 1e-10
    assert pair2.apriori_stat > 0.0
    assert set(pair2.stored_steps) == {0, 16}
    assert pair2.stored_steps[0].shape == (200, 8, 8)
    assert np.array_equal(pair2.stored_steps[0], pair2.P0)


def test_second_order_sweep_warns_below_grid_resolution():
    # the resolution warning lives in the mollifier every solver builds its
    # terminal with, so the sweeps warn too, not just the oracle
    scn = make_scenario("bilinear", n=8, n_t=8)
    ens, xbar, pair1 = _solved(scn, 200)
    h2 = scn.grid.h ** 2
    with pytest.warns(MollifierResolutionWarning, match="below grid resolution"):
        solve_adjoint2_mollified(scn, xbar, scn.base_control, ens, pair1, h2)
    with warnings.catch_warnings():
        warnings.simplefilter("error", MollifierResolutionWarning)
        solve_adjoint2_mollified(scn, xbar, scn.base_control, ens, pair1, 4 * h2)


def test_second_order_matches_zero_noise_oracle():
    scn = make_scenario("additive", a=0.0, b=2.0, n=12, n_t=256, T=0.25,
                        base=(0.5,), noise_amp=0.0, shapes=False, K=1)
    eta = 4.0 * scn.grid.h ** 2
    ens, xbar, pair1 = _solved(scn, 2)
    pair2 = solve_adjoint2_mollified(scn, xbar, scn.base_control, ens, pair1,
                                     eta, store_steps={0, 128})
    oracle = zero_noise_oracle(scn, scn.base_control, eta=eta)
    scale = np.abs(oracle["P"]).max()
    for k in (0, 128):
        rel = np.abs(pair2.stored_steps[k].mean(axis=0)
                     - oracle["P"][k]).max() / scale
        assert rel < 1e-2


def test_ladder_finest_matches_single_width_solve():
    scn = make_scenario("bilinear", n=8, n_t=32)
    ens, xbar, pair1 = _solved(scn, 200)
    h2 = scn.grid.h ** 2
    rep = solve_adjoint2_limit(scn, xbar, scn.base_control, ens, pair1,
                               etas=[16 * h2, 4 * h2])
    single = solve_adjoint2_mollified(scn, xbar, scn.base_control, ens, pair1,
                                      eta=4 * h2)
    # one kernel serves both: the finest width is the single solve, bit for bit
    assert np.array_equal(rep.finest.P0, single.P0)
    assert rep.finest.apriori_stat == single.apriori_stat
    assert rep.finest.diagnostics == single.diagnostics
    assert len(rep.cauchy_increments) == 1
    assert rep.cauchy_increments[0] > 0.0


def _rel(out, ref):
    return float(np.max(np.abs(np.asarray(out) - np.asarray(ref)))
                 / np.max(np.abs(ref)))


def _sweep_runs(K, noise, preset="bilinear"):
    """The streamed sweep (three widths, steps {0, 5, n_t} stored, hook on)
    and the lockstep and per-target references from the same terminals,
    on the preset's scenario or, noise "zero", its deterministic version
    (whose fits keep the one constant column).  Each run is (P_0, stats,
    increments, distances, stored, hook values), the hook values lifted to
    (M, n, n) and (M, n, n, K); the streamed run appends its diagnostics."""
    amp = dict(noise_base=0.0, noise_coupling=0.0) if noise == "zero" else {}
    scn = make_scenario(preset, n=8, n_t=16, K=K, shapes=K > 1, **amp)
    ens, xbar, pair1 = _solved(scn, 300)
    ubar, h2 = scn.base_control, scn.grid.h ** 2
    etas = [16 * h2, 8 * h2, 4 * h2]
    steps = {0, 5, scn.n_t}

    def streamed():
        hooks = []
        P0, stats, cauchy_sq, dists, stored, diag = adjoint._sweep2(
            scn, xbar, ubar, ens, pair1, etas, steps,
            lambda k, Qr, S, SQ: hooks.append(
                (np.tensordot(Qr, S, axes=1),
                 np.moveaxis(np.tensordot(Qr, SQ, axes=1), 1, 3))))
        return P0, stats, np.sqrt(cauchy_sq), dists, stored, hooks, diag

    def reference(sweep):
        Ps = [mollified_terminal_batch(xbar.final, scn.coeffs.h_xx, scn.grid,
                                       eta) for eta in etas]
        dists = [terminal_distance(scn, xbar.final, P) for P in Ps]
        hooks = []
        stats, cauchy_sq, stored, _ = sweep(
            scn, xbar, ubar, ens, pair1, Ps, steps,
            lambda k, Mk, Qk: hooks.append((Mk.copy(), Qk.copy())))
        stored.setdefault(scn.n_t, mollified_terminal_batch(
            xbar.final, scn.coeffs.h_xx, scn.grid, etas[-1]))
        return Ps[-1], stats, np.sqrt(cauchy_sq), dists, stored, hooks

    return streamed, reference


def _assert_runs_agree(run, ref, equal):
    """Bit for bit when equal, else within 1e-12 relative on everything."""
    close = (np.array_equal if equal
             else lambda out, r: _rel(out, r) <= 1e-12)
    (P0, stats, incs, dists, stored, hooks) = run[:6]
    (rP0, rstats, rincs, rdists, rstored, rhooks) = ref[:6]
    assert close(P0, rP0)
    assert close(stats, rstats) and close(incs, rincs) and close(dists, rdists)
    assert set(stored) == set(rstored)
    assert all(close(stored[k], rstored[k]) for k in stored)
    assert len(hooks) == len(rhooks)
    for (Mk, Qk), (rMk, rQk) in zip(hooks, rhooks):
        assert Qk.shape == rQk.shape
        assert close(Mk, rMk) and close(Qk, rQk)


@pytest.mark.parametrize("noise", ["noisy", "zero"])
@pytest.mark.parametrize("K", [1, 2])
def test_one_gemm_sweep_matches_per_target_reference(noise, K):
    # one GEMM per width fits the P target and every martingale target; the
    # reference regresses each target separately and steps Mk + dt (c Mk +
    # ...): the two agree to rounding on everything the kernel reports
    streamed, reference = _sweep_runs(K, noise)
    run, ref = streamed(), reference(reference_sweep2)
    _assert_runs_agree(run, ref, equal=False)
    assert len(run[5]) == 16 and run[5][0][1].shape == (300, 8, 8, K)


@pytest.mark.parametrize("noise", ["noisy", "zero"])
@pytest.mark.parametrize("K", [1, 2])
def test_streamed_sweep_matches_lockstep_reference(monkeypatch, noise, K):
    # the bilinear linearization is the same on every path, so every step
    # takes the coefficient arm: the lockstep arithmetic up to rounding.
    # Forced onto the chunk arm, with one chunk holding the ensemble: the
    # lockstep arithmetic, bit for bit; ragged chunks (37 paths, the last 4)
    # move sums by rounding only
    streamed, reference = _sweep_runs(K, noise)
    lockstep = reference(lockstep_sweep2)
    run = streamed()
    assert run[6]["chunk_steps"] == 0
    _assert_runs_agree(run, lockstep, equal=False)
    monkeypatch.setattr(adjoint, "_same_on_every_path", lambda *fields: False)
    assert len(forward.path_chunks(300, 8)) == 1
    run = streamed()
    assert run[6]["chunk_steps"] == 16
    _assert_runs_agree(run, lockstep, equal=True)
    monkeypatch.setattr(forward, "CHUNK_BYTES", 37 * 8 * 8 * 8)
    assert [c.stop - c.start for c in forward.path_chunks(300, 8)] == [37] * 8 + [4]
    run = streamed()
    _assert_runs_agree(run, lockstep, equal=False)
    _assert_runs_agree(run, reference(reference_sweep2), equal=False)


def test_mixed_arm_sweep_matches_lockstep_reference():
    # logistic drift: b_x, sigma_x and the curvature vary across paths
    # except at t = 0, where the state is deterministic, so only the step
    # that builds P_0 takes the coefficient arm
    streamed, reference = _sweep_runs(2, "noisy", preset="logistic-drift")
    run = streamed()
    assert run[6]["chunk_steps"] == 15
    _assert_runs_agree(run, reference(lockstep_sweep2), equal=False)


def test_terminal_can_be_stored_as_step_n_t():
    scn = make_scenario("bilinear", n=8, n_t=16)
    ens, xbar, pair1 = _solved(scn, 200)
    eta = 4.0 * scn.grid.h ** 2
    pair2 = solve_adjoint2_mollified(scn, xbar, scn.base_control, ens, pair1,
                                     eta, store_steps={scn.n_t})
    PT = mollified_terminal_batch(xbar.final, scn.coeffs.h_xx, scn.grid, eta)
    assert set(pair2.stored_steps) == {scn.n_t}
    assert np.array_equal(pair2.stored_steps[scn.n_t], PT)


def test_deterministic_state_fits_one_column(monkeypatch):
    # without noise every fit keeps the constant column alone: the
    # conditional mean is the ensemble mean, solved as one block
    scn = make_scenario("bilinear", n=8, n_t=16, noise_base=0.0,
                        noise_coupling=0.0)
    ens = PathEnsemble.for_scenario(scn, n_paths=50)
    xbar = simulate_state(scn, scn.base_control, ens)
    sizes = []
    for name in ("solve1", "solve2"):
        orig = getattr(ImplicitStepper, name)

        def record(self, rhs, orig=orig):
            sizes.append(rhs.shape[0])
            return orig(self, rhs)

        monkeypatch.setattr(ImplicitStepper, name, record)
    pair1 = solve_adjoint1(scn, xbar, scn.base_control, ens)
    pair2 = solve_adjoint2_mollified(scn, xbar, scn.base_control, ens, pair1,
                                     eta=4.0 * scn.grid.h ** 2)
    assert len(sizes) == 4 * scn.n_t
    assert set(sizes) == {1}
    assert pair1.diagnostics["min_rank"] == pair2.diagnostics["min_rank"] == 1
    # the column is exactly constant, with no QR: every path gets the same
    # adjoints, and every second-order step takes the coefficient arm
    assert pair1.diagnostics["max_gram_condition"] == 1.0
    p, _ = lifted_pair(scn, xbar, scn.base_control, pair1)
    assert np.all(p == p[:, :1]) and np.all(pair2.P0 == pair2.P0[:1])
    assert pair2.diagnostics["chunk_steps"] == 0
    assert p.shape == (scn.n_t + 1, 50, 8)
    assert pair2.P0.shape == (50, 8, 8)


def test_regress_method_fits_once_per_step(monkeypatch):
    # one fit per step serves both orders, both targets and every width,
    # and the resolvent solves the regression coefficients, not the M paths
    scn = make_scenario("bilinear", n=8, n_t=16)
    fits, sizes = [], []
    project = adjoint._project

    def count(feats):
        fits.append(len(feats))
        return project(feats)

    monkeypatch.setattr(adjoint, "_project", count)
    orig = ImplicitStepper.solve2

    def record(self, rhs):
        sizes.append(rhs.shape[0])
        return orig(self, rhs)

    monkeypatch.setattr(ImplicitStepper, "solve2", record)
    ens, xbar, pair1 = _solved(scn, 200)
    assert len(fits) == scn.n_t
    h2 = scn.grid.h ** 2
    rep = solve_adjoint2_limit(scn, xbar, scn.base_control, ens, pair1,
                               etas=[16 * h2, 8 * h2, 4 * h2])
    assert len(fits) == scn.n_t
    assert len(sizes) == 2 * 3 * scn.n_t
    assert max(sizes) <= RegressionBasis(scn.grid, scn.op).n_features
    assert 1 <= rep.finest.diagnostics["min_rank"] <= max(sizes)
    # the second-order diagnostics book the reused fits
    assert all(rep.finest.diagnostics[key] == pair1.diagnostics[key]
               for key in ("max_gram_condition", "min_rank"))
    assert rep.finest.P0.shape == (200, 8, 8)


def test_ladder_needs_at_least_two_widths():
    scn = make_scenario("bilinear", n=8, n_t=8)
    ens, xbar, pair1 = _solved(scn, 200)
    with pytest.raises(ValueError, match="at least two"):
        solve_adjoint2_limit(scn, xbar, scn.base_control, ens, pair1,
                             etas=[scn.grid.h ** 2])


def test_terminal_distance_decreases_with_width():
    scn = make_scenario("bilinear", n=16, n_t=8)
    ens = PathEnsemble.for_scenario(scn, n_paths=30)
    xbar = simulate_state(scn, scn.base_control, ens)
    h2 = scn.grid.h ** 2
    dists = [terminal_distance(scn, xbar.final, mollified_terminal_batch(
        xbar.final, scn.coeffs.h_xx, scn.grid, c * h2)) for c in (16, 8, 4)]
    assert dists[0] > dists[1] > dists[2] > 0.0

