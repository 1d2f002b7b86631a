"""Verification experiments at smoke scale: dualities, rates, gap scans,
brute force, and the slope-fitting helper."""
import warnings

import numpy as np
import pytest

from helpers import make_scenario, sweep_cost
from spde_control import adjoint, verify
from spde_control.ensemble import PathEnsemble
from spde_control.forward import BlowUpError, simulate_state
from spde_control.adjoint import (solve_adjoint1, solve_adjoint2_limit,
                                  solve_adjoint2_mollified)
from spde_control.scenario import DeterministicControl
from spde_control.verify import (DUALITY_TOL, _fit_slope, block_control_candidates,
                                 brute_force_search, check_duality1,
                                 check_duality2, check_tensor_identity,
                                 hamiltonian, make_random_probes,
                                 make_tensor_probes, rate_experiment, smp_gap,
                                 smp_scan)


def test_probe_sets_are_reproducible():
    scn = make_scenario(n=8, n_t=16)
    a = make_random_probes(scn, 3, seed=5)
    b = make_random_probes(scn, 3, seed=5)
    for (pa, sa), (pb, sb) in zip(a, b):
        assert np.array_equal(pa, pb) and np.array_equal(sa, sb)
    c = make_random_probes(scn, 3, seed=6)
    assert not np.array_equal(a[0][0], c[0][0])


def test_tensor_probes_are_symmetric():
    scn = make_scenario(n=8, n_t=16)
    for Phi, Psi in make_tensor_probes(scn, 2):
        assert np.allclose(Phi, np.swapaxes(Phi, -1, -2), atol=1e-12)
        assert np.allclose(Psi, np.swapaxes(Psi, 1, 2), atol=1e-12)


@pytest.mark.parametrize("preset", ["additive", "bilinear"])
def test_first_order_duality_smoke(preset):
    scn = make_scenario(preset, n=8, n_t=64)
    ens = PathEnsemble.for_scenario(scn, n_paths=1200)
    probes = make_random_probes(scn, 2, seed=scn.seed)
    rep = check_duality1(scn, scn.base_control, ens, probes)
    assert rep.passed(0.10)
    assert len(rep.rows) == 2
    for row in rep.rows:
        assert row["lhs_se"] > 0.0 and row["rhs_se"] > 0.0


def test_second_order_duality_smoke():
    scn = make_scenario("bilinear", n=8, n_t=64)
    ens = PathEnsemble.for_scenario(scn, n_paths=1200)
    probes = make_tensor_probes(scn, 2, seed=scn.seed)
    rep = check_duality2(scn, scn.base_control, ens, 4.0 * scn.grid.h ** 2,
                         probes)
    assert rep.passed(0.15)


def test_second_order_duality_runs_one_tensor_sweep(monkeypatch):
    # every probe marches in one product-space sweep, and the terminal the
    # backward sweep starts from is the one the terminal pairing uses
    scn = make_scenario("bilinear", n=8, n_t=16)
    ens = PathEnsemble.for_scenario(scn, n_paths=300)
    probes = make_tensor_probes(scn, 3, seed=scn.seed)
    eta = 4.0 * scn.grid.h ** 2
    calls = []
    for mod, name in ((verify, "simulate_tensor"),
                      (adjoint, "mollified_terminal_batch")):
        orig = getattr(mod, name)

        def count(*args, orig=orig, name=name, **kwargs):
            calls.append(name)
            return orig(*args, **kwargs)

        monkeypatch.setattr(mod, name, count)
    rep = check_duality2(scn, scn.base_control, ens, eta, probes)
    assert sorted(calls) == ["mollified_terminal_batch", "simulate_tensor"]
    for j, probe in enumerate(probes):
        row = check_duality2(scn, scn.base_control, ens, eta, [probe]).rows[0]
        for key in ("lhs", "rhs", "lhs_se", "rhs_se"):
            assert row[key] == pytest.approx(rep.rows[j][key], rel=1e-12)


def test_second_order_duality_on_a_path_varying_linearization():
    # logistic drift: b_x, sigma_x and the curvature vary across paths, so
    # the backward sweep rebuilds P on path chunks at every step but t = 0
    scn = make_scenario("logistic-drift", n=16, n_t=64)
    ens = PathEnsemble.for_scenario(scn, n_paths=2000)
    probes = make_tensor_probes(scn, 3, seed=scn.seed)
    rep = check_duality2(scn, scn.base_control, ens, 4.0 * scn.grid.h ** 2,
                         probes)
    assert rep.passed(DUALITY_TOL[2])


@pytest.mark.parametrize("preset", ["bilinear", "additive", "quadratic-cost",
                                    "logistic-drift"])
def test_sweeps_take_the_chunk_arm_only_on_path_varying_linearizations(
        monkeypatch, preset):
    # under deterministic controls the bilinear, additive and quadratic-cost
    # linearizations are the same on every path: no step of the duality
    # check, the SMP scan or the ladder rebuilds P on path chunks
    chunk_steps = []
    sweep = adjoint._sweep2

    def record(*args):
        out = sweep(*args)
        chunk_steps.append(out[-1]["chunk_steps"])
        return out

    monkeypatch.setattr(adjoint, "_sweep2", record)
    scn = make_scenario(preset, n=8, n_t=16)
    ens = PathEnsemble.for_scenario(scn, n_paths=300)
    h2 = scn.grid.h ** 2
    check_duality2(scn, scn.base_control, ens, 4.0 * h2,
                   make_tensor_probes(scn, 1, seed=scn.seed))
    lattice = scn.controls.lattice()
    smp_scan(scn, DeterministicControl.from_blocks(lattice, scn.n_t), ens,
             4.0 * h2)
    xbar = simulate_state(scn, scn.base_control, ens)
    pair1 = solve_adjoint1(scn, xbar, scn.base_control, ens)
    solve_adjoint2_limit(scn, xbar, scn.base_control, ens, pair1,
                         etas=[16 * h2, 4 * h2])
    assert len(chunk_steps) == 3
    if preset == "logistic-drift":
        assert all(0 < c < scn.n_t for c in chunk_steps)
    else:
        assert chunk_steps == [0, 0, 0]


def test_tensor_identity_smoke():
    scn = make_scenario("logistic-drift", n=8, n_t=128, T=0.5)
    ens = PathEnsemble.for_scenario(scn, n_paths=200)
    out = check_tensor_identity(scn, scn.base_control, [0.8], tau=0.1,
                                eps=0.1, ens=ens)
    assert out["relative_error"] < 0.10
    assert out["ref_norm"] > 0.0


def test_fit_slope_recovers_known_exponent():
    eps = np.array([2.0 ** -k for k in range(3, 8)])
    slope, lo, hi = _fit_slope(eps, 5.0 * eps ** 2)
    assert slope == pytest.approx(2.0, abs=1e-10)
    assert lo <= 2.0 <= hi
    assert _fit_slope(eps, np.zeros(5)) is None
    assert _fit_slope(eps[:2], 5.0 * eps[:2]) is None
    # a value at the rounding floor of the largest one is not fitted
    assert _fit_slope(eps[:3], [1.9e-8, 1.5e-9, 1.2e-32]) is None
    assert _fit_slope(eps[:3], [1.9e-8, 1.5e-9, 1.2e-10]) is not None


def test_rate_experiment_leaves_rounding_floor_values_out_of_the_fit():
    # bilinear's expansion residual at the shortest spike is a cancellation,
    # 1.2e-32 against 1.9e-8: fitted, it gave a slope of 40 with a CI of
    # [-228, 308]; left out, too few values remain and the slope is undefined
    scn = make_scenario("bilinear", n=16, n_t=64, K=3)
    rep = rate_experiment(scn, scn.base_control, [0.8], tau=0.1,
                          eps_fractions=[2 ** -3, 2 ** -4, 2 ** -5],
                          ens=PathEnsemble.for_scenario(scn, n_paths=300))
    vals = rep.stats["residual"]
    assert 0.0 < vals[-1] <= np.finfo(float).eps * vals.max()
    assert rep.slopes["residual"] is None
    assert "residual: too few positive values for a slope fit" in rep.notes
    assert rep.passed("residual") is None
    assert rep.slopes["y_moment"] is not None


def test_rate_experiment_reports_undefined_for_degenerate_spike():
    scn = make_scenario("additive", n=8, n_t=64, T=0.2, base=(0.3,))
    rep = rate_experiment(scn, scn.base_control, [0.3], tau=0.025,
                          eps_fractions=[2 ** -3, 2 ** -4, 2 ** -5],
                          ens=PathEnsemble.for_scenario(scn, n_paths=20))
    assert rep.slopes["y_moment"] is None
    assert any("slope undefined" in note for note in rep.notes)


def test_gap_vanishes_at_the_reference_control():
    scn = make_scenario("bilinear", n=8, n_t=32)
    ens = PathEnsemble.for_scenario(scn, n_paths=200)
    xbar = simulate_state(scn, scn.base_control, ens)
    pair1 = solve_adjoint1(scn, xbar, scn.base_control, ens)
    pair2 = solve_adjoint2_mollified(scn, xbar, scn.base_control, ens, pair1,
                                     4.0 * scn.grid.h ** 2, store_steps={10})
    k = 10
    uk = scn.base_control.evaluate(k, scn)
    g = smp_gap(scn, xbar[k], uk, uk, pair1.p[k], pair1.q[k],
                pair2.stored_steps[k])
    assert np.max(np.abs(g)) == 0.0


def test_hamiltonian_matches_direct_sum():
    scn = make_scenario("bilinear", n=4, n_t=8)
    x = np.full((2, 4), 0.3)
    u = np.array([0.5])
    p = np.full((2, 4), 0.1)
    q = np.full((2, 4, scn.n_modes), 0.2)
    h = scn.grid.h
    expect = h * (np.sum(scn.coeffs.l(x, u), axis=-1)
                  + np.sum(p * scn.coeffs.b(x, u), axis=-1)
                  + np.sum(q * scn.sigma_eff(x, u), axis=(-2, -1)))
    assert np.allclose(hamiltonian(scn, x, u, p, q), expect, rtol=1e-12)


def test_smp_scan_shapes_and_scale():
    scn = make_scenario("bilinear", n=8, n_t=32)
    ens = PathEnsemble.for_scenario(scn, n_paths=300)
    rep = smp_scan(scn, scn.base_control, ens, 4.0 * scn.grid.h ** 2)
    assert rep.mean_gaps.shape == (len(rep.sample_steps), len(rep.lattice))
    assert rep.scale > 0.0
    assert all(0 < k < scn.n_t for k in rep.sample_steps)


def test_block_candidates_enumerate_the_lattice_power():
    scn = make_scenario(n=8, n_t=32, control_points=((-1.0,), (1.0,)))
    combos, controls = block_control_candidates(scn, n_blocks=4)
    assert len(combos) == 2 ** 4
    assert len(set(combos)) == len(combos)
    assert all(len(c.points) == scn.n_t for c in controls)


def test_brute_force_picks_the_cheapest_candidate():
    # with pure control cost and no state cost the zero control must win
    scn = make_scenario("additive", n=8, n_t=32, state_weight=0.0,
                        term_weight=0.0, ctrl_weight=1.0,
                        control_points=((0.0,), (1.0,)))
    combos, controls = block_control_candidates(scn, n_blocks=2)
    ens = PathEnsemble.for_scenario(scn, n_paths=50)
    rep = brute_force_search(scn, controls, ens, labels=combos)
    assert rep.candidates[rep.best] == (0, 0)
    assert not rep.ties
    assert not rep.excluded
    assert rep.cost_matrix.shape == (4, 50)
    # costs are ordered by how many blocks apply the expensive control
    order = np.argsort(rep.costs)
    assert rep.candidates[order[0]] == (0, 0)
    assert rep.candidates[order[-1]] == (1, 1)


def test_blow_up_in_a_shared_prefix_excludes_every_candidate_below_it():
    # the huge value blows the state up in the first step it applies, so
    # the candidates opening with it all fail inside one shared block
    scn = make_scenario("bilinear", n=8, n_t=12,
                        control_points=((0.5,), (1e300,)))
    combos, controls = block_control_candidates(scn, n_blocks=3)
    ens = PathEnsemble.for_scenario(scn, n_paths=30)
    rows, excluded, texts = [], [], []
    with np.errstate(all="ignore"):
        for i, u in enumerate(controls):
            try:
                rows.append(sweep_cost(scn, u, ens).per_path)
            except BlowUpError as exc:
                rows.append(np.full(ens.n_paths, np.nan))
                excluded.append(i)
                texts.append(f"candidate {i} excluded: {exc}")
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            rep = brute_force_search(scn, controls, ens, labels=combos)
    assert rep.excluded == excluded == [i for i, c in enumerate(combos)
                                        if 1 in c]
    assert [str(w.message) for w in rec] == texts
    assert np.array_equal(rep.cost_matrix, np.array(rows), equal_nan=True)
    assert rep.best == 0


def test_zero_noise_oracle_refuses_a_blown_up_forward():
    # the explicit fine-step forward overflows from a large negative start
    # under the logistic drift; the oracle must refuse, not build P from it
    scn = make_scenario("logistic-drift", a=0.0, b=2.0, n=12, n_t=64, T=0.25,
                        noise_amp=0.0, shapes=False, K=1, x0_amp=-50)
    ens = PathEnsemble.for_scenario(scn, n_paths=4)
    with np.errstate(all="ignore"):
        with pytest.raises(ValueError):
            verify.oracle_zero_noise(scn, scn.base_control, ens,
                                     4.0 * scn.grid.h ** 2)


def test_brute_force_refuses_when_every_candidate_blows_up():
    scn = make_scenario("bilinear", n=8, n_t=16,
                        control_points=((1e300,), (-1e300,)))
    _, controls = block_control_candidates(scn, n_blocks=2)
    ens = PathEnsemble.for_scenario(scn, n_paths=10)
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(RuntimeError, match="all brute-force candidates"):
            brute_force_search(scn, controls, ens)
