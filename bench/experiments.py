"""The benchmark's four experiments and the two workloads built from them.

``SETUPS[name](seed, scratch)`` builds an experiment's scenario (the set-up
a user pays before any experiment starts) and returns a zero-argument
``run`` callable. ``run()`` performs the experiment from its entry call to
its verdict, ensemble generation included, and returns an ``Outcome``.
``setup(workload, seed, scratch)`` does the same for every experiment of a
workload (WORKLOADS); its ``run()`` runs them in order and returns their
outcomes by experiment name.

Tolerances repeat the acceptance tests the experiments come from; sizes
(SIZES) are cut so that one experiment takes about 1.5-3.5 s on one core
and a run of the benchmark gets several of them. ``duality2`` is test_03 at
M=1000 with 2 probes, ``ladder`` is test_06 with 8 time steps, ``smp`` is
one seed of test_08 with 16 time steps and M=1000, and ``cli`` is the CLI
``simulate`` subcommand on the bilinear fixture with 20000 paths. Every
verdict passes at seeds 1-30.
"""
from __future__ import annotations

import contextlib
import csv
import io
import os
from dataclasses import dataclass

import numpy as np

from spde_control import cli
from spde_control.adjoint import solve_adjoint1, solve_adjoint2_limit
from spde_control.ensemble import PathEnsemble
from spde_control.forward import simulate_cost, simulate_state
from spde_control.grids import Field, Grid1D
from spde_control.operators import EllipticOperator
from spde_control.scenario import (ControlSet, DeterministicControl,
                                   NoiseModel, Scenario, SpikeControl,
                                   load_scenario, make_coefficients,
                                   sine_mode_shapes)
from spde_control.verify import (block_control_candidates, brute_force_search,
                                 check_duality2, make_tensor_probes, smp_scan)

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
CLI_CONFIG = os.path.join(BENCH_DIR, "bilinear.cfg")

# n grid nodes, n_t time steps, paths M, tensor probes, control blocks
SIZES = {
    "duality2": dict(n=16, n_t=64, paths=1000, probes=2),
    "ladder": dict(n=64, n_t=8, paths=200),
    "smp": dict(n=8, n_t=16, paths=1000, blocks=8),
    "cli": dict(paths=20000),
}

# Each workload groups the experiments that stress the same layers, so that
# one run of the benchmark times several of them: the machine's speed drifts
# over tens of seconds, and only a longer run averages that out.
WORKLOADS = {
    # product-space (2D) work: tensor sweeps, resolvent solves, regressions
    "second-order": ("duality2", "ladder"),
    # many short 1D sweeps, ensemble generation, CLI and serialization
    "first-order": ("smp", "cli"),
}


@dataclass
class Outcome:
    """What one experiment concluded.

    statistic is the acceptance statistic compared against the stored
    reference; margin is its signed distance to the tolerance (positive
    when the verdict passes); detail names the sub-checks that failed.
    """

    statistic: float
    tolerance: float
    margin: float
    ok: bool
    detail: str = ""


def make_scenario(n, n_t, seed):
    """Bilinear-noise scenario on [0, 1] over T = 0.5 with two sine noise
    modes and a two-point control set, as the acceptance tests build it."""
    K = 2
    grid = Grid1D(0.0, 1.0, n)
    x0 = Field(grid, np.sin(np.pi * grid.nodes))
    return Scenario(grid=grid, op=EllipticOperator(),
                    coeffs=make_coefficients("bilinear", K),
                    controls=ControlSet(kind="finite",
                                        points=((-0.5,), (0.5,))),
                    noise=NoiseModel(K, sine_mode_shapes(grid, K)),
                    T=0.5, n_t=n_t, x0=x0, seed=seed, name="bilinear",
                    base_control=DeterministicControl.constant(
                        np.asarray((0.0,))))


def setup_duality2(seed, scratch):
    size = SIZES["duality2"]
    scn = make_scenario(size["n"], size["n_t"], seed)

    def run():
        ens = PathEnsemble.for_scenario(scn, n_paths=size["paths"])
        probes = make_tensor_probes(scn, size["probes"], seed=scn.seed)
        rep = check_duality2(scn, scn.base_control, ens,
                             4.0 * scn.grid.h ** 2, probes)
        tol = 0.10
        return Outcome(rep.max_gap, tol, tol - rep.max_gap, rep.passed(tol))

    return run


def setup_smp(seed, scratch):
    size = SIZES["smp"]
    scn = make_scenario(size["n"], size["n_t"], seed)

    def run():
        combos, controls = block_control_candidates(scn,
                                                    n_blocks=size["blocks"])
        ens = PathEnsemble.for_scenario(scn, n_paths=size["paths"])
        table = brute_force_search(scn, controls, ens, labels=combos)
        best = table.candidates[table.best]
        eta = 4.0 * scn.grid.h ** 2
        # necessary condition at the brute-force optimum
        scan = smp_scan(scn, controls[table.best], ens, eta)
        rel_min = scan.min_mean_gap / scan.scale
        failed = [] if rel_min >= -0.05 else ["optimum-gap"]
        # contrapositive: flipping the first block must expose a violation
        lattice = scn.controls.lattice()
        bad = list(best)
        bad[0] = 1 - bad[0]
        ubad = DeterministicControl.from_blocks([lattice[i] for i in bad],
                                                scn.n_t)
        scan_bad = smp_scan(scn, ubad, ens, eta)
        rel = scan_bad.mean_gaps / scan_bad.scale
        si, vi = np.unravel_index(np.argmin(rel), rel.shape)
        if not rel[si, vi] < -0.2:
            failed.append("flipped-gap")
        # ... and the violating spike must strictly decrease the cost
        k = scan_bad.sample_steps[si]
        spike = SpikeControl(ubad, scan_bad.lattice[vi], tau=k * scn.dt,
                             eps=scn.dt)
        d = (simulate_cost(scn, spike, ens).per_path
             - simulate_cost(scn, ubad, ens).per_path)
        if not d.mean() < -2.0 * d.std(ddof=1) / np.sqrt(len(d)):
            failed.append("spike-cost")
        tol = -0.05
        return Outcome(rel_min, tol, rel_min - tol, not failed,
                       ",".join(failed))

    return run


def setup_ladder(seed, scratch):
    size = SIZES["ladder"]
    scn = make_scenario(size["n"], size["n_t"], seed)

    def run():
        ens = PathEnsemble.for_scenario(scn, n_paths=size["paths"])
        xbar = simulate_state(scn, scn.base_control, ens)
        pair1 = solve_adjoint1(scn, xbar, scn.base_control, ens)
        h2 = scn.grid.h ** 2
        rep = solve_adjoint2_limit(scn, xbar, scn.base_control, ens, pair1,
                                   etas=[16 * h2, 8 * h2, 4 * h2])
        decreasing = all(a > b for a, b in zip(rep.terminal_distances,
                                               rep.terminal_distances[1:]))
        growth = max(b / a - 1.0 for a, b in zip(rep.apriori_stats,
                                                 rep.apriori_stats[1:]))
        tol = 0.10
        return Outcome(growth, tol, tol - growth,
                       decreasing and growth <= tol,
                       "" if decreasing else "distances-not-decreasing")

    return run


def setup_cli(seed, scratch):
    # the CLI re-reads the config inside main(); loading it here is the
    # set-up cost a user pays for a validated scenario
    load_scenario(CLI_CONFIG)
    argv = ["simulate", "--scenario", CLI_CONFIG, "--paths",
            str(SIZES["cli"]["paths"]),
            "--seed", str(seed), "--out", scratch]

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        verdicts = [ln for ln in out.getvalue().splitlines()
                    if ln.startswith("VERDICT experiment=simulate ")]
        summary = os.path.join(scratch, f"simulate-bilinear-s{seed}",
                               "summary.csv")
        with open(summary) as fh:
            rows = {r[0]: r[1] for r in csv.reader(
                ln for ln in fh if not ln.startswith("#"))}
        cost_mean = float(rows["cost_mean"])
        failed = []
        if code != 0:
            failed.append(f"exit-{code}")
        if len(verdicts) != 1 or "status=pass" not in verdicts[0]:
            failed.append("verdict")
        elif f"statistic={cost_mean:.6g} " not in verdicts[0]:
            failed.append("verdict-statistic")
        if not np.isfinite(cost_mean):
            failed.append("cost-not-finite")
        # simulate has no tolerance, hence no margin
        return Outcome(cost_mean, float("nan"), float("nan"), not failed,
                       ",".join(failed))

    return run


SETUPS = {
    "duality2": setup_duality2,
    "ladder": setup_ladder,
    "smp": setup_smp,
    "cli": setup_cli,
}


def setup(workload, seed, scratch):
    """Set up every experiment of a workload; returns ``run``, which runs
    them in order and returns their outcomes by experiment name."""
    runs = {name: SETUPS[name](seed, scratch) for name in WORKLOADS[workload]}

    def run():
        return {name: fn() for name, fn in runs.items()}

    return run
