"""Backward tour: solve the first-order adjoint pair by regression, test
the discrete duality pairing against independently sourced linearizations,
then run the mollified second-order solver down a width ladder.

Run from the repository root:

    python3 demos/adjoint_duality.py
"""
import numpy as np

from spde_control import (ControlSet, DeterministicControl, EllipticOperator,
                          Field, Grid1D, NoiseModel, PathEnsemble, Scenario,
                          check_duality1, make_coefficients,
                          make_random_probes, simulate_state, solve_adjoint1,
                          solve_adjoint2_limit)
from spde_control.scenario import sine_mode_shapes


def build_scenario():
    grid = Grid1D(0.0, 1.0, 16)
    noise = NoiseModel(2, sine_mode_shapes(grid, 2))
    x0 = Field(grid, np.sin(np.pi * grid.nodes))
    base = DeterministicControl.constant(np.array([0.0]))
    return Scenario(grid=grid, op=EllipticOperator(),
                    coeffs=make_coefficients("bilinear", 2),
                    controls=ControlSet(kind="finite",
                                        points=((-0.5,), (0.5,))),
                    noise=noise, T=0.5, n_t=64, x0=x0, seed=7,
                    default_paths=2000, base_control=base, name="demo")


def main():
    scn = build_scenario()
    ens = PathEnsemble.for_scenario(scn, n_paths=2000)
    xbar = simulate_state(scn, scn.base_control, ens)

    pair1 = solve_adjoint1(scn, xbar, scn.base_control, ens)
    p0 = pair1.p0.mean(axis=0)
    print(f"first-order adjoint solved backward over {scn.n_t} steps")
    print(f"  mean p(0): max {p0.max():.4f}, min {p0.min():.4f}")

    # duality: for random running sources, the cost response of the sourced
    # linear equation must equal the adjoint pairing with the sources
    probes = make_random_probes(scn, 3, seed=scn.seed)
    rep = check_duality1(scn, scn.base_control, ens, probes)
    print("\nduality pairing against three random probes:")
    for i, row in enumerate(rep.rows):
        print(f"  probe {i}: lhs {row['lhs']:+.5f}  rhs {row['rhs']:+.5f}  "
              f"gap {row['gap']:.2%}")
    print(f"  worst gap {rep.max_gap:.2%}")

    # second-order pair along a shrinking ladder of mollifier widths
    h2 = scn.grid.h ** 2
    rep2 = solve_adjoint2_limit(scn, xbar, scn.base_control, ens, pair1,
                                etas=[16 * h2, 8 * h2, 4 * h2])
    print("\nsecond-order solves down the mollifier ladder:")
    print(f"  {'eta/h^2':>8}  {'apriori':>10}  {'terminal dist':>13}")
    for eta, stat, dist in zip(rep2.etas, rep2.apriori_stats,
                               rep2.terminal_distances):
        print(f"  {eta / h2:8.1f}  {stat:10.4f}  {dist:13.5f}")
    print(f"  Cauchy increments between rungs: "
          + ", ".join(f"{c:.3e}" for c in rep2.cauchy_increments))
    print("\nterminal distances shrink and the a-priori statistic stays "
          "bounded: the ladder is converging.")


if __name__ == "__main__":
    main()
