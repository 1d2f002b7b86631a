"""End-to-end tour: brute-force the best block control on a small lattice,
check that the optimality gap is nonnegative there, then damage the
control and watch the gap scan flag a profitable spike.

Run from the repository root:

    python3 demos/maximum_principle.py
"""
import numpy as np

from spde_control import (ControlSet, DeterministicControl, EllipticOperator,
                          Field, Grid1D, NoiseModel, PathEnsemble, Scenario,
                          SpikeControl, block_control_candidates,
                          brute_force_search, make_coefficients,
                          simulate_cost, smp_scan)
from spde_control.scenario import sine_mode_shapes
from spde_control.verify import SMP_TOL


def build_scenario():
    grid = Grid1D(0.0, 1.0, 8)
    noise = NoiseModel(2, sine_mode_shapes(grid, 2))
    x0 = Field(grid, np.sin(np.pi * grid.nodes))
    base = DeterministicControl.constant(np.array([0.0]))
    return Scenario(grid=grid, op=EllipticOperator(),
                    coeffs=make_coefficients("bilinear", 2),
                    controls=ControlSet(kind="finite",
                                        points=((-0.5,), (0.5,))),
                    noise=noise, T=0.5, n_t=64, x0=x0, seed=7,
                    default_paths=1000, base_control=base, name="demo")


def main():
    scn = build_scenario()
    ens = PathEnsemble.for_scenario(scn, n_paths=2000)
    eta = 4.0 * scn.grid.h ** 2

    combos, controls = block_control_candidates(scn, n_blocks=8)
    table = brute_force_search(scn, controls, ens, labels=combos)
    best = table.candidates[table.best]
    print(f"searched {len(controls)} block controls over a 2-point lattice")
    print(f"  best blocks {best} with cost "
          f"{table.costs[table.best]:.5f}")

    scan = smp_scan(scn, controls[table.best], ens, eta)
    print(f"  gap scan at the optimum: min gap / scale = "
          f"{scan.min_rel_gap:+.3f} (tolerance {SMP_TOL:+.2f}: "
          f"{'pass' if scan.passed() else 'fail'})")

    # flip the first block of the winner and rescan
    lattice = scn.controls.lattice()
    bad = list(best)
    bad[0] = 1 - bad[0]
    ubad = DeterministicControl.from_blocks([lattice[i] for i in bad],
                                            scn.n_t)
    scan_bad = smp_scan(scn, ubad, ens, eta)
    grid_rel = scan_bad.mean_gaps / scan_bad.scale
    si, vi = np.unravel_index(np.argmin(grid_rel), grid_rel.shape)
    k = scan_bad.sample_steps[si]
    v = scan_bad.lattice[vi]
    print(f"\nflipped block 0 -> blocks {tuple(bad)}")
    print(f"  worst gap / scale = {grid_rel[si, vi]:+.3f} at step {k}, "
          f"lattice value {v}")

    # the flagged (step, value) really does buy cost: spike there
    spike = SpikeControl(ubad, v, tau=k * scn.dt, eps=scn.dt)
    d = (simulate_cost(scn, spike, ens).per_path
         - simulate_cost(scn, ubad, ens).per_path)
    se = d.std(ddof=1) / np.sqrt(len(d))
    print(f"  one-step spike at the flagged point: "
          f"dJ = {d.mean():+.6f} +/- {se:.6f}")
    print("\na negative gap is a certificate of suboptimality, and the "
          "spike it points to improves the cost.")


if __name__ == "__main__":
    main()
