"""Forward tour: simulate a controlled stochastic heat equation, perturb
the control on a short window, and watch the cost and the expansion
moments react as the window shrinks.

Run from the repository root:

    python3 demos/forward_spikes.py
"""
import numpy as np

from spde_control import (ControlSet, DeterministicControl, EllipticOperator,
                          Field, Grid1D, NoiseModel, PathEnsemble, Scenario,
                          SpikeControl, make_coefficients, simulate_costs,
                          simulate_state, spike_expansion_stats)
from spde_control.scenario import sine_mode_shapes


def build_scenario():
    grid = Grid1D(0.0, 1.0, 24)
    noise = NoiseModel(2, sine_mode_shapes(grid, 2))
    x0 = Field(grid, np.sin(np.pi * grid.nodes))
    base = DeterministicControl.constant(np.array([0.0]))
    return Scenario(grid=grid, op=EllipticOperator(),
                    coeffs=make_coefficients("logistic-drift", 2),
                    controls=ControlSet(kind="finite",
                                        points=((-0.5,), (0.5,))),
                    noise=noise, T=0.4, n_t=256, x0=x0, seed=7,
                    default_paths=400, base_control=base, name="demo")


def main():
    scn = build_scenario()
    ens = PathEnsemble.for_scenario(scn, n_paths=400)

    traj = simulate_state(scn, scn.base_control, ens)
    mean_final = traj.final.mean(axis=0)
    print(f"state simulated on {scn.grid.n} nodes, {scn.n_t} steps, "
          f"{ens.n_paths} paths")
    print(f"  terminal mean profile: max {mean_final.max():.4f} "
          f"at node {int(np.argmax(mean_final))}")

    # replace the control by v on [tau, tau + eps) and shrink the window;
    # the cost response is linear in eps to leading order.  One walk prices
    # the reference and every spike, sharing the steps before tau, and one
    # sweep marches the expansion for every window length
    lengths = (0.1, 0.05, 0.025, 0.0125)
    spikes = [SpikeControl(scn.base_control, np.array([0.8]), tau=0.1,
                           eps=eps) for eps in lengths]
    base_cost, *costs = simulate_costs(scn, [scn.base_control] + spikes, ens)
    stats, _ = spike_expansion_stats(scn, scn.base_control, [0.8], tau=0.1,
                                     eps=lengths, ens=ens)
    print(f"  reference cost {base_cost.mean:.5f} +/- {base_cost.se:.5f}")

    print("\nspike response as the window shrinks (v = 0.8, tau = 0.1):")
    print(f"  {'eps':>8}  {'dJ':>10}  {'dJ/eps':>10}  {'y-moment':>10}")
    for eps, cost, y_moment in zip(lengths, costs, stats["y_moment"]):
        dj = cost.mean - base_cost.mean
        print(f"  {eps:8.4f}  {dj:10.5f}  {dj / eps:10.5f}  {y_moment:10.3e}")
    print("\ndJ/eps stabilises while the first-variation moment decays "
          "linearly: the expansion orders behave as designed.")


if __name__ == "__main__":
    main()
