"""Direct-coupled coherent quantum observer for a qubit.

Model construction, optimal homodyne quadrature selection, stochastic record
simulation, minimum-variance unbiased (Kalman) filtering, and a truncated
Fock-space master-equation oracle that validates the reduced linear model.
"""

from .fock_oracle import (FockConfig, FockTruncationError, build_operators,
                          evolve, expectations, joint_initial_state,
                          reduced_mean_trajectory)
from .kalman_filter import (RiccatiSolution, error_covariance_ode, kalman_gain,
                            riccati_rhs, run_filter_ensemble, solve_riccati)
from .model_builder import (AugmentedModel, LinearModel, ObserverSpec,
                            build_augmented, closed_loop_transfer, hurwitz_check,
                            optimal_gain, output_bias, realizability_matrices,
                            steady_state_mean, symplectic_j)
from .sde_engine import (Ensemble, SimConfig, exact_lti_step, simulate_paths,
                         time_grid, two_point_law)
from .spin_algebra import (PAULI, PauliBasis, PlantSpec, plant_generator,
                           qubit_moments, theta)

__version__ = "0.1.0"
