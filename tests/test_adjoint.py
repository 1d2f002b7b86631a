"""Backward solvers: regression machinery, both adjoint pairs, the
vanishing-mollifier ladder, and oracle cross-checks."""
import numpy as np
import pytest

from helpers import make_scenario
from spde_control import adjoint
from spde_control.adjoint import (RegressionBasis, RegressionError, _project,
                                  _qcouple, _smoothed, solve_adjoint1,
                                  solve_adjoint2_limit, solve_adjoint2_mollified,
                                  terminal_distance)
from spde_control.ensemble import PathEnsemble
from spde_control.forward import simulate_state
from spde_control.grids import Field, Grid1D
from spde_control.operators import EllipticOperator, ImplicitStepper
from spde_control.verify import affine_ansatz_oracle, zero_noise_oracle


def _solved(scn, n_paths, method="regress"):
    ens = PathEnsemble.for_scenario(scn, n_paths=n_paths)
    xbar = simulate_state(scn, scn.base_control, ens)
    pair1 = solve_adjoint1(scn, xbar, scn.base_control, ens, method=method)
    return ens, xbar, pair1


# -- regression machinery ----------------------------------------------------

def test_feature_count():
    scn = make_scenario(n=16)
    basis = RegressionBasis(scn.grid, scn.op, n_modes=4)
    assert basis.n_features == 5
    paired = RegressionBasis(scn.grid, scn.op, n_modes=4, include_pairs=True)
    assert paired.n_features == 5 + 10
    x = np.zeros((7, 16))
    assert basis.features(x).shape == (7, 5)


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
        out = _smoothed(Qr, target, solve)
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_too_many_features_for_the_ensemble_is_refused():
    scn = make_scenario("bilinear", n=16, n_t=8)
    ens = PathEnsemble.for_scenario(scn, n_paths=30)
    xbar = simulate_state(scn, scn.base_control, ens)
    basis = RegressionBasis(scn.grid, scn.op, n_modes=8, include_pairs=True)
    with pytest.raises(RegressionError, match="need M"):
        solve_adjoint1(scn, xbar, scn.base_control, ens, reg_basis=basis)


def test_second_order_sweeps_refuse_too_many_features():
    scn = make_scenario("bilinear", n=8, n_t=8)
    ens, xbar, pair1 = _solved(scn, 200)
    basis = RegressionBasis(scn.grid, scn.op, n_modes=8, include_pairs=True)
    assert basis.n_features > ens.n_paths // 20
    h2 = scn.grid.h ** 2
    with pytest.raises(RegressionError, match="need M"):
        solve_adjoint2_mollified(scn, xbar, scn.base_control, ens, pair1,
                                 eta=4 * h2, reg_basis=basis)
    with pytest.raises(RegressionError, match="need M"):
        solve_adjoint2_limit(scn, xbar, scn.base_control, ens, pair1,
                             etas=[16 * h2, 4 * h2], reg_basis=basis)


# -- first-order pair --------------------------------------------------------

def test_costless_problem_has_zero_adjoint():
    scn = make_scenario("bilinear", n=8, n_t=16, state_weight=0.0,
                        term_weight=0.0)
    _, _, pair1 = _solved(scn, 200)
    assert np.max(np.abs(pair1.p)) == 0.0
    assert np.max(np.abs(pair1.q)) == 0.0


def test_zero_noise_martingale_component_is_sampling_noise():
    # with sigma == 0 the martingale component is exactly the Monte Carlo
    # residual mean(p dW)/dt, of size |p| / sqrt(M dt); check that bound
    scn = make_scenario("additive", n=8, n_t=32, noise_amp=0.0, shapes=False,
                        K=1)
    m = 4000
    _, _, pair1 = _solved(scn, m, method="mean")
    bound = 4.0 * np.abs(pair1.p).max() / np.sqrt(m * scn.dt)
    assert np.max(np.abs(pair1.q)) < bound


def test_first_order_matches_zero_noise_oracle():
    scn = make_scenario("additive", a=0.0, b=2.0, n=12, n_t=256, T=0.25,
                        base=(0.5,), noise_amp=0.0, shapes=False, K=1)
    _, _, pair1 = _solved(scn, 2, method="mean")
    oracle = zero_noise_oracle(scn, scn.base_control)
    scale = np.abs(oracle["p"]).max()
    rel = np.abs(pair1.p.mean(axis=1) - oracle["p"]).max() / scale
    assert rel < 2e-3


def test_first_order_matches_affine_ansatz_oracle():
    scn = make_scenario("additive", a=0.0, b=2.0, n=16, n_t=128, T=0.5,
                        base=(0.5,), noise_amp=0.2)
    _, _, pair1 = _solved(scn, 600)
    oracle = affine_ansatz_oracle(scn, scn.base_control)
    h = scn.grid.h
    num = np.sqrt(h * np.sum((pair1.p.mean(axis=1)
                              - oracle["p_mean"]) ** 2, axis=-1))
    den = np.sqrt(h * np.sum(oracle["p_mean"] ** 2, axis=-1)).max()
    assert num.max() / den < 0.05


def test_ansatz_oracle_requires_affine_preset():
    scn = make_scenario("bilinear", n=8, n_t=8)
    with pytest.raises(ValueError, match="affine"):
        affine_ansatz_oracle(scn, scn.base_control)


# -- second-order pair -------------------------------------------------------

def test_martingale_coupling_matches_einsum_formula():
    gen = np.random.Generator(np.random.Philox(key=43))
    sx = gen.normal(size=(6, 10, 3))
    Qk = gen.normal(size=(6, 3, 10, 10))
    Q = np.moveaxis(Qk, 1, 3)
    ref = (np.einsum("pik,pijk->pij", sx, Q)
           + np.einsum("pjk,pijk->pij", sx, Q))
    out = _qcouple(sx, Qk)
    assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))


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


def test_second_order_matches_zero_noise_oracle():
    scn = make_scenario("additive", a=0.0, b=2.0, n=12, n_t=256, T=0.25,
                        base=(0.5,), noise_amp=0.0, shapes=False, K=1)
    eta = 4.0 * scn.grid.h ** 2
    ens, xbar, pair1 = _solved(scn, 2, method="mean")
    pair2 = solve_adjoint2_mollified(scn, xbar, scn.base_control, ens, pair1,
                                     eta, method="mean", store_steps={0, 128})
    oracle = zero_noise_oracle(scn, scn.base_control, eta=eta)
    scale = np.abs(oracle["P"]).max()
    for k in (0, 128):
        rel = np.abs(pair2.stored_steps[k].mean(axis=0)
                     - oracle["P"][k]).max() / scale
        assert rel < 1e-2


def _assert_ladder_finest_is_single_width_solve(method):
    scn = make_scenario("bilinear", n=8, n_t=32)
    ens, xbar, pair1 = _solved(scn, 200, method=method)
    h2 = scn.grid.h ** 2
    rep = solve_adjoint2_limit(scn, xbar, scn.base_control, ens, pair1,
                               etas=[16 * h2, 4 * h2], method=method,
                               store_steps={5})
    single = solve_adjoint2_mollified(scn, xbar, scn.base_control, ens, pair1,
                                      eta=4 * h2, method=method,
                                      store_steps={5})
    # one kernel serves both: the finest width is the single solve, bit for bit
    assert np.array_equal(rep.finest.P0, single.P0)
    assert np.array_equal(rep.finest.stored_steps[5], single.stored_steps[5])
    assert rep.finest.apriori_stat == single.apriori_stat
    assert (rep.finest.diagnostics["max_gram_condition"]
            == single.diagnostics["max_gram_condition"])
    assert len(rep.cauchy_increments) == 1
    assert rep.cauchy_increments[0] > 0.0


def test_ladder_finest_matches_single_width_solve():
    _assert_ladder_finest_is_single_width_solve("regress")


def test_ladder_finest_matches_single_width_solve_mean():
    _assert_ladder_finest_is_single_width_solve("mean")


def test_mean_method_solves_one_block(monkeypatch):
    # the ensemble mean is one block: the resolvent must not solve M copies
    scn = make_scenario("bilinear", n=8, n_t=16)
    ens = PathEnsemble.for_scenario(scn, n_paths=50)
    xbar = simulate_state(scn, scn.base_control, ens)
    sizes = []
    for name in ("solve1", "solve2"):
        orig = getattr(ImplicitStepper, name)

        def record(self, rhs, orig=orig):
            sizes.append(rhs.shape[0])
            return orig(self, rhs)

        monkeypatch.setattr(ImplicitStepper, name, record)
    pair1 = solve_adjoint1(scn, xbar, scn.base_control, ens, method="mean")
    pair2 = solve_adjoint2_mollified(scn, xbar, scn.base_control, ens, pair1,
                                     eta=4.0 * scn.grid.h ** 2, method="mean")
    assert len(sizes) == 4 * scn.n_t
    assert set(sizes) == {1}
    assert pair1.p.shape == (scn.n_t + 1, 50, 8)
    assert pair2.P0.shape == (50, 8, 8)


def test_regress_method_fits_once_per_step(monkeypatch):
    # one fit per step serves both targets and every width, and the
    # resolvent solves the regression coefficients, not the M paths
    scn = make_scenario("bilinear", n=8, n_t=16)
    ens, xbar, pair1 = _solved(scn, 200)
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
    h2 = scn.grid.h ** 2
    rep = solve_adjoint2_limit(scn, xbar, scn.base_control, ens, pair1,
                               etas=[16 * h2, 8 * h2, 4 * h2])
    assert len(fits) == scn.n_t
    assert len(sizes) == 2 * 3 * scn.n_t
    assert max(sizes) <= RegressionBasis(scn.grid, scn.op).n_features
    assert 1 <= rep.finest.diagnostics["min_rank"] <= max(sizes)
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
    dists = [terminal_distance(scn, xbar.final, c * h2) for c in (16, 8, 4)]
    assert dists[0] > dists[1] > dists[2] > 0.0


def test_unknown_method_rejected():
    scn = make_scenario("bilinear", n=8, n_t=8)
    ens, xbar, pair1 = _solved(scn, 200)
    with pytest.raises(ValueError, match="method"):
        solve_adjoint1(scn, xbar, scn.base_control, ens, method="krige")
    with pytest.raises(ValueError, match="method"):
        solve_adjoint2_mollified(scn, xbar, scn.base_control, ens, pair1,
                                 eta=scn.grid.h ** 2, method="krige")
    with pytest.raises(ValueError, match="method"):
        solve_adjoint2_limit(scn, xbar, scn.base_control, ens, pair1,
                             etas=[4 * scn.grid.h ** 2, scn.grid.h ** 2],
                             method="krige")
