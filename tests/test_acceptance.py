"""Acceptance gate: one test per top-level acceptance criterion, each
emitting a single pass/fail verdict line.

These run at full experiment scale and dominate the suite's runtime; the
per-module tests cover the same machinery at smoke scale.
"""
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from helpers import child_env, make_scenario
from spde_control.adjoint import solve_adjoint1, solve_adjoint2_limit
from spde_control.ensemble import PathEnsemble
from spde_control.forward import simulate_cost, simulate_state
from spde_control.grids import Grid1D
from spde_control.operators import (EllipticOperator, SpectralBasis,
                                    add_diagonal, diagonal,
                                    sobolev_norms_batch)
from spde_control.scenario import DeterministicControl, SpikeControl
from spde_control.verify import (DUALITY_TOL, RATE_THRESHOLDS, SMP_TOL,
                                 block_control_candidates, brute_force_search,
                                 check_duality1, check_duality2,
                                 check_tensor_identity, make_random_probes,
                                 make_tensor_probes, oracle_ansatz,
                                 oracle_zero_noise, rate_experiment, smp_scan)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

# one record per criterion; conftest echoes these after the run so they
# survive output capture
VERDICT_LINES = []


def verdict(name: str, ok: bool, statistic: float, tolerance: float):
    line = (f"ACCEPTANCE {name} {'PASS' if ok else 'FAIL'} "
            f"statistic={statistic:.6g} tolerance={tolerance:.6g}")
    VERDICT_LINES.append(line)
    print(line)
    assert ok, line


def test_01_discrete_identities():
    """Adjointness of the solvers' trace pair (diagonal, add_diagonal) and
    the negative-norm identity <A P, P>_{-1} = -|P|_0^2 on random inputs,
    with the square operator A P + P A^T built from op.matrix and both
    sides read through the solvers' SpectralBasis.coeffs and
    sobolev_norms_batch."""
    t0 = time.time()
    gen = np.random.Generator(np.random.Philox(key=2024))
    worst = 0.0
    for trial in range(200):
        n = int(gen.integers(4, 33))
        grid = Grid1D(0.0, float(gen.uniform(0.5, 3.0)), n)
        h = grid.h
        op = EllipticOperator()
        f = gen.normal(size=n)
        W = gen.normal(size=(n, n))
        lhs = h * np.sum(diagonal(W) * f)
        rhs = h ** 2 * np.sum(add_diagonal(np.zeros((n, n)), f, h) * W)
        scale = max(abs(lhs), abs(rhs), 1.0)
        worst = max(worst, abs(lhs - rhs) / scale)

        basis2 = SpectralBasis.build(grid.square(), op)
        P = gen.normal(size=(n, n))
        A = op.matrix(grid)
        AP = A @ P + P @ A.T
        lam = basis2.pair_eigenvalues()
        pairing = float(np.sum(lam ** -1.0 * basis2.coeffs(AP)
                               * basis2.coeffs(P)))
        nrm = float(sobolev_norms_batch(P, basis2, 0.0)) ** 2
        worst = max(worst, abs(pairing + nrm) / max(nrm, 1.0))
    elapsed = time.time() - t0
    verdict("discrete-identities", worst <= 1e-10 and elapsed < 10.0,
            worst, 1e-10)


def test_02_first_order_duality():
    """Cost response of sourced linearizations vs the adjoint pairing."""
    tol = DUALITY_TOL[1]
    ok, worst = True, 0.0
    for preset in ("additive", "bilinear", "logistic-drift"):
        scn = make_scenario(preset, n=32, n_t=128, T=0.5, seed=7)
        ens = PathEnsemble.for_scenario(scn, n_paths=10_000)
        probes = make_random_probes(scn, 5, seed=scn.seed)
        rep = check_duality1(scn, scn.base_control, ens, probes)
        ok &= rep.passed(tol)
        worst = max(worst, rep.max_gap)
    verdict("first-order-duality", ok, worst, tol)


def test_03_second_order_duality():
    """Mollified pairing on the square for the state-coupled noise case."""
    scn = make_scenario("bilinear", n=16, n_t=64, T=0.5, seed=7)
    ens = PathEnsemble.for_scenario(scn, n_paths=10_000)
    probes = make_tensor_probes(scn, 5, seed=scn.seed)
    rep = check_duality2(scn, scn.base_control, ens, 4.0 * scn.grid.h ** 2,
                         probes)
    tol = DUALITY_TOL[2]
    verdict("second-order-duality", rep.passed(tol), rep.max_gap, tol)


def test_04_oracle_equivalence():
    """Independent fine-step and ODE-ansatz oracles for both adjoints."""
    # deterministic case against the explicit fine-step backward solver
    scn = make_scenario("additive", a=0.0, b=2.0, n=12, n_t=2048, T=0.25,
                        base=(0.5,), noise_amp=0.0, shapes=False, K=1, seed=1)
    ens = PathEnsemble.for_scenario(scn, n_paths=4)
    fine = oracle_zero_noise(scn, scn.base_control, ens,
                             4.0 * scn.grid.h ** 2)

    # affine case against the linear-ansatz backward ODEs
    scn = make_scenario("additive", a=0.0, b=2.0, n=16, n_t=128, T=0.5,
                        base=(0.5,), noise_amp=0.2, seed=5)
    ens = PathEnsemble.for_scenario(scn, n_paths=2000)
    ansatz = oracle_ansatz(scn, scn.base_control, ens)

    # the statistic is max(rel_p, rel_P) of the fine-step comparison
    verdict("oracle-equivalence", fine.ok and ansatz.ok, fine.worst,
            fine.tolerance)


def test_05_spike_expansion_rates():
    """Fitted log-log slopes of the spike-expansion moments."""
    scn = make_scenario("logistic-drift", n=16, n_t=512, T=0.2, seed=7)
    rep = rate_experiment(scn, scn.base_control, [0.8], tau=0.025,
                          eps_fractions=[2.0 ** -k for k in range(3, 8)],
                          ens=PathEnsemble.for_scenario(scn, n_paths=4000))
    ok = True
    worst_margin = np.inf
    for name, thr in RATE_THRESHOLDS.items():
        passed = rep.passed(name)
        ok &= bool(passed)   # an undefined slope (None) fails here
        if passed is not None:
            worst_margin = min(worst_margin, rep.slopes[name][0] - thr)
    verdict("spike-expansion-rates", ok, worst_margin, 0.0)


def test_06_mollification_convergence():
    """Terminal distances strictly decrease along the width ladder and the
    a-priori statistic stays bounded across it."""
    scn = make_scenario("bilinear", n=64, n_t=64, T=0.5, seed=7)
    ens = PathEnsemble.for_scenario(scn, n_paths=200)
    xbar = simulate_state(scn, scn.base_control, ens)
    pair1 = solve_adjoint1(scn, xbar, scn.base_control, ens)
    h2 = scn.grid.h ** 2
    rep = solve_adjoint2_limit(scn, xbar, scn.base_control, ens, pair1,
                               etas=[16 * h2, 8 * h2, 4 * h2])
    decreasing = all(a > b for a, b in zip(rep.terminal_distances,
                                           rep.terminal_distances[1:]))
    growth = max(b / a - 1.0 for a, b in zip(rep.apriori_stats,
                                             rep.apriori_stats[1:]))
    verdict("mollification-convergence", decreasing and growth <= 0.10,
            growth, 0.10)


def test_07_tensor_identity():
    """Terminal product process vs the outer square of the response."""
    scn = make_scenario("logistic-drift", n=16, n_t=256, T=0.5, seed=7)
    ens = PathEnsemble.for_scenario(scn, n_paths=500)
    out = check_tensor_identity(scn, scn.base_control, [0.8], tau=0.1,
                                eps=0.1, ens=ens)
    verdict("tensor-identity", out["relative_error"] <= 0.05,
            out["relative_error"], 0.05)


def test_08_maximum_principle_end_to_end():
    """Brute-force optimum satisfies the gap condition; a perturbed control
    violates it and the violating spike strictly improves the cost."""
    ok = True
    worst_gap = np.inf
    for seed in (7, 8, 9):
        scn = make_scenario("bilinear", n=8, n_t=64, T=0.5, seed=seed,
                            control_points=((-0.5,), (0.5,)))
        combos, controls = block_control_candidates(scn, n_blocks=8)
        ens = PathEnsemble.for_scenario(scn, n_paths=2000)
        table = brute_force_search(scn, controls, ens, labels=combos)
        best = table.candidates[table.best]
        eta = 4.0 * scn.grid.h ** 2

        # necessary condition at the brute-force optimum
        scan = smp_scan(scn, controls[table.best], ens, eta)
        worst_gap = min(worst_gap, scan.min_rel_gap)
        ok &= scan.passed()

        # contrapositive: flip the first block, find a violating (t, v)
        lattice = scn.controls.lattice()
        bad = list(best)
        bad[0] = 1 - bad[0]
        ubad = DeterministicControl.from_blocks([lattice[i] for i in bad],
                                                scn.n_t)
        scan_bad = smp_scan(scn, ubad, ens, eta)
        rel = scan_bad.mean_gaps / scan_bad.scale
        si, vi = np.unravel_index(np.argmin(rel), rel.shape)
        ok &= rel[si, vi] < -0.2

        # ... and the corresponding spike strictly decreases the cost
        k = scan_bad.sample_steps[si]
        spike = SpikeControl(ubad, scan_bad.lattice[vi], tau=k * scn.dt,
                             eps=scn.dt)
        d = (simulate_cost(scn, spike, ens).per_path
             - simulate_cost(scn, ubad, ens).per_path)
        dse = d.std(ddof=1) / np.sqrt(len(d))
        ok &= d.mean() < -2.0 * dse
    verdict("maximum-principle", ok, worst_gap, SMP_TOL)


def test_09_cli_determinism(tmp_path):
    """Re-running a command with an identical manifest reproduces every
    output byte; the manifest differs only in its timestamp."""
    cfg = os.path.join(FIXTURES, "bilinear.cfg")
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        res = subprocess.run(
            [sys.executable, "-m", "spde_control.cli", "smp",
             "--scenario", cfg, "--seed", "7", "--paths", "500",
             "--out", str(out)],
            env=child_env(), capture_output=True, text=True)
        assert "VERDICT experiment=smp" in res.stdout
        outs.append(out / "smp-bilinear-s7")
    same = (outs[0] / "gaps.csv").read_bytes() == (outs[1] / "gaps.csv").read_bytes()
    m0 = [ln for ln in (outs[0] / "manifest.txt").read_text().splitlines()
          if not ln.startswith(("timestamp=", "output_dir="))]
    m1 = [ln for ln in (outs[1] / "manifest.txt").read_text().splitlines()
          if not ln.startswith(("timestamp=", "output_dir="))]
    verdict("cli-determinism", same and m0 == m1, float(same), 1.0)
