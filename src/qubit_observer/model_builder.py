"""Observer construction and the reduced plant-observer linear model.

Builds the damped-oscillator observer from its Hamiltonian/coupling data,
defines the constant-coefficient linear model that the sampler and the
filter share, assembles its 3-state reduced form (conserved plant variable
+ two observer quadratures), computes the steady-state observer mean, the
output bias vector e, and the homodyne quadrature row K that maximizes
signal-to-noise, and checks the all-pass and Hurwitz properties of the
noise channel.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .spin_algebra import PlantSpec, _frozen, _real, _reals, qubit_moments

__all__ = [
    "ObserverSpec",
    "LinearModel",
    "AugmentedModel",
    "symplectic_j",
    "realizability_matrices",
    "build_augmented",
    "steady_state_mean",
    "output_bias",
    "optimal_gain",
    "closed_loop_transfer",
    "hurwitz_check",
]

_COND_LIMIT = 1e12
# Envelope of kappa and omega_o, from log-spaced sweeps of analyze and filter
# on the shipped default config.  Past it the numerics break: kappa above
# 1e150 overflows and below 1e-11 the resolvent is singular, and analyze's
# steady-state cross-check fails below kappa 5e-7 and its Hurwitz check fails
# by roundoff from kappa or omega_o near 2e3.  Inside it, on the default
# grids, every command ends in its own verdict; filter passes on seeds 1-3
# at each decade of kappa and at omega_o 0, 10, 15, 30 and 100.
KAPPA_RANGE = (1e-4, 1e2)
OMEGA_O_MAX = 1e2
# Envelope of |beta|, from the same sweeps with simulate added.  analyze holds
# from 1e-150 to 1e150 (1e-200 makes e vanish, 1e200 breaks K e = 1), and the
# sampler's statistics are scale-free from 1e-60 to 1e5 (at 1e-100 and 1e150
# the state overflows).  Inside it every command ends in its own verdict: on
# the default grids filter passes on seeds 1-3 at |beta| 1e-8, 1e-6, 1e-4,
# 1e-2, 0.1, 1, 10, 30, 100, 300 and 1e3.
BETA_NORM_RANGE = (1e-8, 1e3)


def symplectic_j() -> np.ndarray:
    """The 2x2 symplectic unit [[0, 1], [-1, 0]]."""
    return np.array([[0.0, 1.0], [-1.0, 0.0]])


_J = symplectic_j()


@dataclass(frozen=True)
class ObserverSpec:
    """Damped-oscillator observer parameters.

    omega_o : oscillator frequency (rad/s), in [0, OMEGA_O_MAX].
    kappa : field coupling rate (1/s), in KAPPA_RANGE.
    beta : (2,) coupling vector, |beta| in BETA_NORM_RANGE.
    x0_mean, sigma0 : initial quadrature mean and symmetrized covariance;
        default to the vacuum-consistent (0, 0) and identity.  sigma0 must
        be a quantum state's: with [q, p] = 2i, sigma0 + iJ >= 0, which the
        vacuum I meets on the boundary (Simon, Mukunda & Dutta 1994).
    """

    omega_o: float
    kappa: float
    beta: np.ndarray
    x0_mean: np.ndarray = field(default_factory=lambda: np.zeros(2))
    sigma0: np.ndarray = field(default_factory=lambda: np.eye(2))

    def __post_init__(self):
        omega_o = _real("omega_o", self.omega_o)
        kappa = _real("kappa", self.kappa)
        beta = _reals("beta", self.beta)
        x0 = _reals("x0_mean", self.x0_mean)
        s0 = _reals("sigma0", self.sigma0)
        if not KAPPA_RANGE[0] <= kappa <= KAPPA_RANGE[1]:
            raise ValueError("kappa must lie in [%g, %g]" % KAPPA_RANGE)
        if not 0.0 <= omega_o <= OMEGA_O_MAX:
            raise ValueError(f"omega_o must lie in [0, {OMEGA_O_MAX:g}]")
        if beta.shape != (2,):
            raise ValueError("beta must be a real 2-vector")
        if not BETA_NORM_RANGE[0] <= math.hypot(*beta) <= BETA_NORM_RANGE[1]:
            raise ValueError("|beta| must lie in [%g, %g]" % BETA_NORM_RANGE)
        if x0.shape != (2,):
            raise ValueError("x0_mean must be a real 2-vector")
        if s0.shape != (2, 2) or not np.allclose(s0, s0.T, atol=1e-12):
            raise ValueError("sigma0 must be 2x2 symmetric")
        s0 = 0.5 * (s0 + s0.T)
        # A 2x2 Hermitian matrix is PSD iff its trace and determinant are >= 0,
        # and det(sigma0 + iJ) = det sigma0 - 1; the tolerance covers roundoff.
        diag = s0[0, 0] * s0[1, 1]
        if s0[0, 0] + s0[1, 1] < 0.0 or diag - s0[0, 1] ** 2 < 1.0 - 1e-12 * max(1.0, diag):
            raise ValueError("sigma0 must obey the uncertainty relation sigma0 + iJ >= 0 "
                             "(the vacuum is the identity)")
        object.__setattr__(self, "omega_o", omega_o)
        object.__setattr__(self, "kappa", kappa)
        object.__setattr__(self, "beta", _frozen(beta))
        object.__setattr__(self, "x0_mean", _frozen(x0))
        object.__setattr__(self, "sigma0", _frozen(s0))


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


def _observer_blocks(observer: ObserverSpec) -> tuple:
    """(a_o, b_o, c_o) of the observer: r_o = omega_o I, w_o = sqrt(kappa) I.

    These are a_o = -(kappa/2) I + 2 omega_o J, b_o = -sqrt(kappa) I and
    c_o = sqrt(kappa) I.
    """
    eye = np.eye(2)
    return realizability_matrices(observer.omega_o * eye, np.sqrt(observer.kappa) * eye)


@dataclass(frozen=True)
class LinearModel:
    """Constant coefficients and initial moments of a linear model with homodyne rows.

        dx = A x dt + B dw,      dz = D (C x dt + dw).

    D is the (m/2) x m homodyne selection with D D^T invertible; m must be
    even.  The coefficients the filter needs are derived once, with
    gain_slope = (D C)^T (D D^T)^{-1} and gain_offset = B D^T (D D^T)^{-1}:
    the optimal gain is Sigma gain_slope + gain_offset, and the Riccati
    equation reads dSigma/dt = F Sigma + Sigma F^T - Sigma Q Sigma + R with

        F = A - gain_offset D C,  Q = gain_slope D C,  R = B B^T - gain_offset D B^T.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    x0_mean: np.ndarray
    sigma0: np.ndarray
    DC: np.ndarray = field(init=False, repr=False)
    gain_slope: np.ndarray = field(init=False, repr=False)
    gain_offset: np.ndarray = field(init=False, repr=False)
    F: np.ndarray = field(init=False, repr=False)
    Q: np.ndarray = field(init=False, repr=False)
    R: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        a = np.asarray(self.A, dtype=float)
        b = np.asarray(self.B, dtype=float)
        c = np.asarray(self.C, dtype=float)
        d = np.asarray(self.D, dtype=float)
        x0 = np.asarray(self.x0_mean, dtype=float)
        s0 = np.asarray(self.sigma0, dtype=float)
        if d.ndim != 2:
            raise ValueError("D must be a matrix")
        p, m = d.shape
        if m != 2 * p:
            raise ValueError("D must be (m/2) x m with m even")
        ddt = d @ d.T
        if np.linalg.cond(ddt) > _COND_LIMIT:
            raise ValueError("D D^T is singular or ill-conditioned")
        if x0.ndim != 1:
            raise ValueError("x0_mean must be a vector")
        n = x0.size
        if s0.shape != (n, n) or not np.allclose(s0, s0.T, atol=1e-10):
            raise ValueError("sigma0 must be n x n symmetric")
        s0 = 0.5 * (s0 + s0.T)
        if np.linalg.eigvalsh(s0).min() < -1e-10:
            raise ValueError("sigma0 must be positive semidefinite")
        if a.shape != (n, n) or b.shape != (n, m) or c.shape != (m, n):
            raise ValueError(
                f"coefficient shapes must be A {n}x{n}, B {n}x{m}, C {m}x{n}; "
                f"got {a.shape}, {b.shape}, {c.shape}"
            )
        ddt_inv = np.linalg.inv(ddt)
        dc = d @ c
        gain_slope = dc.T @ ddt_inv
        gain_offset = b @ d.T @ ddt_inv
        for name, arr in (("A", a), ("B", b), ("C", c), ("D", d),
                          ("x0_mean", x0), ("sigma0", s0), ("DC", dc),
                          ("gain_slope", gain_slope), ("gain_offset", gain_offset),
                          ("F", a - gain_offset @ dc), ("Q", gain_slope @ dc),
                          ("R", b @ b.T - gain_offset @ (d @ b.T))):
            object.__setattr__(self, name, _frozen(arr))

    @property
    def n(self) -> int:
        return self.x0_mean.size

    @property
    def m(self) -> int:
        return self.D.shape[1]


@dataclass(frozen=True)
class AugmentedModel(LinearModel):
    """Reduced linear model: conserved scalar + observer quadratures.

    State ordering is (z_p, x_o1, x_o2).  The first row of A and B and the
    first column of C vanish, so z_p is conserved and enters the record only
    through the observer.  D is the homodyne row K.
    """

    def __post_init__(self):
        super().__post_init__()
        if self.n != 3 or self.m != 2:
            raise ValueError("augmented model has shapes A 3x3, B 3x2, C 2x3, D 1x2")
        if np.any(self.A[0, :]) or np.any(self.B[0, :]):
            raise ValueError("first row of A and B must vanish (conserved plant variable)")
        if np.any(self.C[:, 0]):
            raise ValueError("first column of C must vanish")
        if np.any(self.sigma0[0, 1:]):
            raise ValueError("sigma0 must be block diagonal in (z_p, x_o)")


def build_augmented(plant: PlantSpec, observer: ObserverSpec) -> AugmentedModel:
    """Assemble the reduced plant-observer model with the optimal homodyne row.

    A couples z_p into the quadratures through 2 J beta; the observer blocks
    a_o, b_o = -sqrt(kappa) I and c_o = sqrt(kappa) I come from
    realizability_matrices, and b_o, c_o carry the shared input noise; D = K.
    Initial moments come from the qubit density matrix and the observer
    defaults.
    """
    a_o, b_o, c_o = _observer_blocks(observer)
    A = np.zeros((3, 3))
    A[1:, 0] = 2.0 * _J @ observer.beta
    A[1:, 1:] = a_o
    B = np.zeros((3, 2))
    B[1:, :] = b_o
    C = np.zeros((2, 3))
    C[:, 1:] = c_o
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

    Cross-checked against -2 a_o^{-1} J beta before returning, to 1e-12
    relative to the larger of 1 and the largest entry of that solve.
    """
    kappa, omega_o = observer.kappa, observer.omega_o
    M = (4.0 / (kappa**2 + 16.0 * omega_o**2)) * np.array(
        [[kappa, 4.0 * omega_o], [-4.0 * omega_o, kappa]]
    ) @ _J
    direct = -2.0 * np.linalg.solve(_observer_blocks(observer)[0], _J @ observer.beta)
    if np.max(np.abs(M @ observer.beta - direct)) > 1e-12 * max(1.0, np.max(np.abs(direct))):
        raise RuntimeError("steady-state mean closed form disagrees with direct solve")
    return M


def output_bias(observer: ObserverSpec) -> np.ndarray:
    """Bias vector e = -2 sqrt(kappa) a_o^{-1} J beta of the output field."""
    a_o = _observer_blocks(observer)[0]
    return -2.0 * np.sqrt(observer.kappa) * np.linalg.solve(a_o, _J @ observer.beta)


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


def closed_loop_transfer(observer: ObserverSpec, s) -> np.ndarray:
    """Input-output map T(s) = I - kappa (s I - a_o)^{-1} of the noise channel.

    This is the map from input noise to the settled output field including the
    direct feedthrough, and it is all-pass: T(jw) T(jw)^dag = I for all real w.
    ``s`` may be an array; the result then has shape s.shape + (2, 2).
    """
    s = np.asarray(s, dtype=complex)
    a_o = _observer_blocks(observer)[0]
    resolvent_arg = s[..., None, None] * np.eye(2) - a_o
    singular = np.linalg.cond(resolvent_arg) > _COND_LIMIT
    if np.any(singular):
        raise ValueError(f"resolvent singular at s = {s[singular].flat[0]}")
    return np.eye(2) - observer.kappa * np.linalg.inv(resolvent_arg)


def hurwitz_check(observer: ObserverSpec) -> tuple:
    """Eigenvalues of the observer drift and whether both lie in the left half-plane.

    The drift -(kappa/2) I + 2 omega_o J has eigenvalues -kappa/2 +- 2i omega_o,
    so the check passes for every valid observer.
    """
    eigs = np.linalg.eigvals(_observer_blocks(observer)[0].astype(complex))
    eigs = eigs[np.argsort(eigs.imag, kind="stable")]
    return bool(np.all(eigs.real < 0.0)), eigs
