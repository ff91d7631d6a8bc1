"""Observer construction and the reduced plant-observer linear model.

Builds the damped-oscillator observer from its Hamiltonian/coupling data,
assembles the 3-state linear model (conserved plant variable + two observer
quadratures), computes the steady-state observer mean, the output bias
vector e, and the homodyne quadrature row K that maximizes signal-to-noise,
and checks the all-pass and Hurwitz properties of the noise channel.
"""

from dataclasses import dataclass, field

import numpy as np

from .spin_algebra import PlantSpec, _frozen, qubit_moments

__all__ = [
    "ObserverSpec",
    "AugmentedModel",
    "symplectic_j",
    "observer_drift",
    "realizability_matrices",
    "build_augmented",
    "steady_state_mean",
    "output_bias",
    "optimal_gain",
    "closed_loop_transfer",
    "hurwitz_check",
]

_COND_LIMIT = 1e12


def symplectic_j() -> np.ndarray:
    """The 2x2 symplectic unit [[0, 1], [-1, 0]]."""
    return np.array([[0.0, 1.0], [-1.0, 0.0]])


_J = symplectic_j()


@dataclass(frozen=True)
class ObserverSpec:
    """Damped-oscillator observer parameters.

    omega_o : oscillator frequency (rad/s), >= 0.
    kappa : field coupling rate (1/s), > 0.
    beta : (2,) nonzero coupling direction.
    x0_mean, sigma0 : initial quadrature mean and symmetrized covariance;
        default to the vacuum-consistent (0, 0) and identity.
    """

    omega_o: float
    kappa: float
    beta: np.ndarray
    x0_mean: np.ndarray = field(default_factory=lambda: np.zeros(2))
    sigma0: np.ndarray = field(default_factory=lambda: np.eye(2))

    def __post_init__(self):
        omega_o = float(self.omega_o)
        kappa = float(self.kappa)
        beta = np.asarray(self.beta, dtype=float)
        x0 = np.asarray(self.x0_mean, dtype=float)
        s0 = np.asarray(self.sigma0, dtype=float)
        if not np.isfinite(kappa) or kappa <= 0.0:
            raise ValueError("kappa must be positive")
        if not np.isfinite(omega_o) or omega_o < 0.0:
            raise ValueError("omega_o must be >= 0")
        if beta.shape != (2,):
            raise ValueError("beta must be a real 2-vector")
        if not np.any(beta):
            raise ValueError("beta must be nonzero (zero coupling leaves nothing to measure)")
        if x0.shape != (2,):
            raise ValueError("x0_mean must be a real 2-vector")
        if s0.shape != (2, 2) or not np.allclose(s0, s0.T, atol=1e-12):
            raise ValueError("sigma0 must be 2x2 symmetric")
        if np.linalg.eigvalsh(0.5 * (s0 + s0.T)).min() < -1e-12:
            raise ValueError("sigma0 must be positive semidefinite")
        object.__setattr__(self, "omega_o", omega_o)
        object.__setattr__(self, "kappa", kappa)
        object.__setattr__(self, "beta", _frozen(beta))
        object.__setattr__(self, "x0_mean", _frozen(x0))
        object.__setattr__(self, "sigma0", _frozen(0.5 * (s0 + s0.T)))


def observer_drift(observer: ObserverSpec) -> np.ndarray:
    """Drift matrix -(kappa/2) I + 2 omega_o J of the observer quadratures."""
    return -0.5 * observer.kappa * np.eye(2) + 2.0 * observer.omega_o * _J


def realizability_matrices(r_o, w_o) -> tuple:
    """Oscillator state-space matrices from Hamiltonian and coupling data.

    Returns (a_o, b_o, c_o) with

        a_o = 2 J r_o + (1/2) J w_o^T J w_o,
        b_o = J w_o^T J,
        c_o = w_o.

    The quadratic term deliberately carries a leading J so that w_o =
    sqrt(kappa) I yields the damping -(kappa/2) I; without it the drift would
    be skew and the damped dynamics used downstream could not arise.
    """
    r_o = np.asarray(r_o, dtype=float)
    w_o = np.asarray(w_o, dtype=float)
    if r_o.shape != (2, 2) or w_o.shape != (2, 2):
        raise ValueError("r_o and w_o must be 2x2")
    if not np.allclose(r_o, r_o.T, atol=1e-12):
        raise ValueError("r_o must be symmetric")
    a_o = 2.0 * _J @ r_o + 0.5 * _J @ w_o.T @ _J @ w_o
    b_o = _J @ w_o.T @ _J
    c_o = w_o.copy()
    return a_o, b_o, c_o


@dataclass(frozen=True)
class AugmentedModel:
    """Reduced linear model: conserved scalar + observer quadratures.

    State ordering is (z_p, x_o1, x_o2).  The first row of A and B and the
    first column of C vanish, so z_p is conserved and enters the record only
    through the observer.  D is the homodyne row K.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    x0_mean: np.ndarray
    sigma0: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        B = np.asarray(self.B, dtype=float)
        C = np.asarray(self.C, dtype=float)
        D = np.asarray(self.D, dtype=float)
        x0 = np.asarray(self.x0_mean, dtype=float)
        s0 = np.asarray(self.sigma0, dtype=float)
        if A.shape != (3, 3) or B.shape != (3, 2) or C.shape != (2, 3) or D.shape != (1, 2):
            raise ValueError("augmented model has shapes A 3x3, B 3x2, C 2x3, D 1x2")
        if np.any(A[0, :]) or np.any(B[0, :]):
            raise ValueError("first row of A and B must vanish (conserved plant variable)")
        if np.any(C[:, 0]):
            raise ValueError("first column of C must vanish")
        if x0.shape != (3,):
            raise ValueError("x0_mean must be a 3-vector")
        if s0.shape != (3, 3) or not np.allclose(s0, s0.T, atol=1e-12):
            raise ValueError("sigma0 must be 3x3 symmetric")
        if np.any(s0[0, 1:]) or np.any(s0[1:, 0]):
            raise ValueError("sigma0 must be block diagonal in (z_p, x_o)")
        if np.linalg.eigvalsh(0.5 * (s0 + s0.T)).min() < -1e-10:
            raise ValueError("sigma0 must be positive semidefinite")
        for name, arr in (("A", A), ("B", B), ("C", C), ("D", D),
                          ("x0_mean", x0), ("sigma0", s0)):
            object.__setattr__(self, name, _frozen(arr))


def build_augmented(plant: PlantSpec, observer: ObserverSpec) -> AugmentedModel:
    """Assemble the reduced plant-observer model with the optimal homodyne row.

    A couples z_p into the quadratures through 2 J beta; B = [0; -sqrt(kappa) I]
    and C = [0  sqrt(kappa) I] carry the shared input noise; D = K.  Initial
    moments come from the qubit density matrix and the observer defaults.
    """
    sk = np.sqrt(observer.kappa)
    a_tilde = observer_drift(observer)
    A = np.zeros((3, 3))
    A[1:, 0] = 2.0 * _J @ observer.beta
    A[1:, 1:] = a_tilde
    B = np.zeros((3, 2))
    B[1:, :] = -sk * np.eye(2)
    C = np.zeros((2, 3))
    C[:, 1:] = sk * np.eye(2)
    D = optimal_gain(output_bias(observer))
    mean, variance = qubit_moments(plant)
    x0 = np.concatenate(([mean], observer.x0_mean))
    s0 = np.zeros((3, 3))
    s0[0, 0] = variance
    s0[1:, 1:] = observer.sigma0
    return AugmentedModel(A=A, B=B, C=C, D=D, x0_mean=x0, sigma0=s0)


def steady_state_mean(observer: ObserverSpec) -> np.ndarray:
    """Matrix mapping the conserved plant value onto the settled quadrature mean.

    Returns M with x_o_mean = M @ beta * z_p, where

        M = 4 / (kappa^2 + 16 omega_o^2) * [[kappa, 4 omega_o],
                                            [-4 omega_o, kappa]] @ J.

    Cross-checked against -2 Atilde^{-1} J beta before returning.
    """
    kappa, omega_o = observer.kappa, observer.omega_o
    M = (4.0 / (kappa**2 + 16.0 * omega_o**2)) * np.array(
        [[kappa, 4.0 * omega_o], [-4.0 * omega_o, kappa]]
    ) @ _J
    direct = -2.0 * np.linalg.solve(observer_drift(observer), _J @ observer.beta)
    if np.max(np.abs(M @ observer.beta - direct)) > 1e-12:
        raise RuntimeError("steady-state mean closed form disagrees with direct solve")
    return M


def output_bias(observer: ObserverSpec) -> np.ndarray:
    """Bias vector e = -2 sqrt(kappa) Atilde^{-1} J beta of the output field."""
    a_tilde = observer_drift(observer)
    return -2.0 * np.sqrt(observer.kappa) * np.linalg.solve(a_tilde, _J @ observer.beta)


def optimal_gain(e) -> np.ndarray:
    """Minimum-norm homodyne row K = e^T / |e|^2 with K e = 1.

    Any row u with u e = 1 satisfies |u| >= 1/|e| by Cauchy-Schwarz; this K
    attains the bound, so the record noise intensity |K|^2 is minimal.
    """
    e = np.asarray(e, dtype=float)
    if e.shape != (2,):
        raise ValueError("e must be a real 2-vector")
    nrm2 = float(np.dot(e, e))
    if nrm2 == 0.0:
        raise ValueError("degenerate coupling: output bias vector is zero")
    return (e / nrm2).reshape(1, 2)


def closed_loop_transfer(observer: ObserverSpec, s: complex) -> np.ndarray:
    """Input-output map T(s) = I - kappa (s I - Atilde)^{-1} of the noise channel.

    This is the map from input noise to the settled output field including the
    direct feedthrough, and it is all-pass: T(jw) T(jw)^dag = I for all real w.
    """
    a_tilde = observer_drift(observer)
    resolvent_arg = complex(s) * np.eye(2) - a_tilde
    if np.linalg.cond(resolvent_arg) > _COND_LIMIT:
        raise ValueError(f"resolvent singular at s = {s}")
    return np.eye(2) - observer.kappa * np.linalg.inv(resolvent_arg)


def hurwitz_check(observer: ObserverSpec) -> tuple:
    """Eigenvalues of the observer drift and whether both lie in the left half-plane.

    The drift -(kappa/2) I + 2 omega_o J has eigenvalues -kappa/2 +- 2i omega_o,
    so the check passes for every valid observer.
    """
    eigs = np.linalg.eigvals(observer_drift(observer).astype(complex))
    eigs = eigs[np.argsort(eigs.imag, kind="stable")]
    return bool(np.all(eigs.real < 0.0)), eigs
