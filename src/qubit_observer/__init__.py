"""Direct-coupled coherent quantum observer for a qubit.

Model construction, optimal homodyne quadrature selection, stochastic record
simulation, minimum-variance unbiased (Kalman) filtering, and a truncated
Fock-space master-equation oracle that validates the reduced linear model.

The package imports lazily (PEP 562): ``import qubit_observer`` loads no
numpy, and each public name loads its module on first use.  That leaves
``qubit_observer.cli`` the first word on OpenBLAS's thread count, and leaves a
library caller's own BLAS settings alone.
"""

import importlib

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_EXPORTS = {
    **dict.fromkeys(("FockConfig", "FockTruncationError", "build_operators", "evolve",
                     "expectations", "joint_initial_state", "reduced_mean_trajectory"),
                    "fock_oracle"),
    **dict.fromkeys(("RiccatiSolution", "kalman_gain", "run_filter_ensemble",
                     "solve_riccati"), "kalman_filter"),
    **dict.fromkeys(("AugmentedModel", "LinearModel", "ObserverSpec", "build_augmented",
                     "closed_loop_transfer", "hurwitz_check", "optimal_gain", "output_bias",
                     "realizability_matrices", "steady_state_mean", "symplectic_j"),
                    "model_builder"),
    **dict.fromkeys(("Ensemble", "SimConfig", "exact_lti_step", "record_chain",
                     "simulate_paths", "time_grid", "two_point_law"), "sde_engine"),
    **dict.fromkeys(("PAULI", "PlantSpec", "plant_generator", "qubit_moments", "theta"),
                    "spin_algebra"),
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
