"""Numerical machinery for necessary optimality conditions of controlled
semilinear stochastic heat equations: forward simulation with spike
perturbations, first and second order adjoint solvers, duality and rate
verification experiments, and a maximum-principle gap scan.
"""

__version__ = "0.1.0"

from .grids import Field, Grid1D, Grid2D, TensorField
from .operators import (EllipticOperator, ImplicitStepper,
                        MollifierResolutionWarning, SpectralBasis, add_diagonal,
                        diagonal, mollified_terminal_batch, sobolev_norms_batch)
from .scenario import (ConfigError, ControlSet, CoefficientSet,
                       DeterministicControl, NoiseModel,
                       Scenario, ScenarioValidationError, SpikeControl,
                       load_scenario, make_coefficients, validate_coefficients)
from .ensemble import PathEnsemble
from .forward import (BlowUpError, Trajectory, simulate_cost, simulate_costs,
                      simulate_linear, simulate_state, simulate_tensor,
                      spike_expansion_stats, spike_sources, spike_tensor_sources)
from .adjoint import (BackwardPair1, BackwardPair2, EtaLadderReport,
                      RegressionBasis, RegressionError, solve_adjoint1,
                      solve_adjoint2_limit, solve_adjoint2_mollified)
from .verify import (BruteForceReport, DualityReport, OracleReport,
                     RateReport, SMPReport, affine_ansatz_oracle,
                     block_control_candidates, brute_force_search,
                     check_duality1, check_duality2, check_tensor_identity,
                     hamiltonian, make_random_probes, make_tensor_probes,
                     oracle_ansatz, oracle_zero_noise, rate_experiment,
                     smp_gap, smp_scan, zero_noise_oracle)
