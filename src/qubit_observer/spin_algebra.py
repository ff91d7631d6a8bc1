"""Exact operator algebra for the spin-1/2 plant.

Pauli matrices, the skew-symmetric map that encodes their commutators, the
drift generator induced by a Hamiltonian linear in the spin operators, and
the first two moments of the measured spin combination for a given density
matrix.  The spin algebra is finite 2x2 / 3x3 arithmetic with no
approximation beyond floating point.  The module imports nothing from the
package, so it also holds what the config, sampler, filter and oracle share:
the field rules, the one uniform time grid type that the sim, filter and
oracle sections are (_Grid), with its stride rule and its nodes
(time_grid), and the Taylor degree table that the oracle's propagator
shares with expm, the small matrix exponential of the sampler and the
filter.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PlantSpec",
    "PAULI",
    "theta",
    "plant_generator",
    "qubit_moments",
    "expm",
    "time_grid",
]


def _frozen(a: np.ndarray) -> np.ndarray:
    """Read-only copy of an array; shared by the package's frozen dataclasses."""
    a = np.array(a)
    a.setflags(write=False)
    return a


def _integer(name: str, value) -> int:
    """value as an int; ValueError unless it is an int or an integral finite
    float (bools excluded).  Every count and seed in a config obeys this rule."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        return int(value)
    raise ValueError(f"{name} must be an integer")


def _real(name: str, value) -> float:
    """value as a float; ValueError unless it is a finite int or float (bools,
    strings and null excluded).  Every real-valued config field obeys this rule."""
    if isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool):
        try:
            value = float(value)
        except OverflowError:
            value = math.inf
        if math.isfinite(value):
            return value
    raise ValueError(f"{name} must be a finite number")


def _reals(name: str, value) -> np.ndarray:
    """value as a float array; each entry is held to _real under its indexed
    name, such as beta[1] or sigma0[0][1]."""
    entries = np.array(value, dtype=object)
    out = np.empty(entries.shape)
    for idx in np.ndindex(entries.shape):
        out[idx] = _real(name + "".join(f"[{i}]" for i in idx), entries[idx])
    return out


@dataclass(frozen=True)
class _Grid:
    """Uniform time grid: nodes t_k = k dt for k = 0 to n_steps, the nearest
    integer to t_final / dt.

    dt and t_final obey _real, 0 < dt < t_final and the grid has at most 1e8
    steps; ValueError otherwise.  SimConfig, config.FilterSettings and
    FockConfig are this grid, each with its own defaults.  A stride of grid
    steps, the sampler's or the oracle's store_every, divides n_steps
    (strides).
    """

    dt: float
    t_final: float

    def __post_init__(self):
        dt = _real("dt", self.dt)
        t_final = _real("t_final", self.t_final)
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        if t_final <= dt:
            raise ValueError("t_final must exceed dt")
        if t_final / dt > 1e8:
            raise ValueError("t_final/dt exceeds the 1e8 step guard")
        object.__setattr__(self, "dt", dt)
        object.__setattr__(self, "t_final", t_final)

    @property
    def n_steps(self) -> int:
        return int(round(self.t_final / self.dt))

    def strides(self, stride, name: str = "stride") -> int:
        """n_steps // stride, the number of strides of stride grid steps;
        ValueError naming name unless stride obeys _integer and is a
        positive divisor of n_steps."""
        value = _integer(name, stride)
        if value < 1 or self.n_steps % value:
            raise ValueError(f"{name} must be a positive integer dividing n_steps = "
                             f"{self.n_steps}; got {value}")
        return self.n_steps // value


def time_grid(config: _Grid, stride: int = 1) -> np.ndarray:
    """The nodes 0, stride, 2 stride, ..., n_steps of config's grid, as times
    k dt, for a stride that divides n_steps (_Grid.strides; ValueError
    otherwise); the sampler's records, the filter's nodes and the oracle's
    stored nodes all sit there."""
    config.strides(stride)
    return np.arange(0, config.n_steps + 1, stride) * config.dt


# theta_m of Al-Mohy & Higham (SIAM J. Sci. Comput. 33(2), 2011), as tabulated
# in scipy.sparse.linalg._expm_multiply: m Taylor terms of exp(A) meet
# double-precision backward error whenever A's norm (or the alpha of expm)
# is at most theta_m.
_THETA = {
    1: 2.29e-16, 2: 2.58e-8, 3: 1.39e-5, 4: 3.40e-4, 5: 2.40e-3,
    6: 9.07e-3, 7: 2.38e-2, 8: 5.00e-2, 9: 8.96e-2, 10: 1.44e-1,
    11: 2.14e-1, 12: 3.00e-1, 13: 4.00e-1, 14: 5.14e-1, 15: 6.41e-1,
    16: 7.81e-1, 17: 9.31e-1, 18: 1.09, 19: 1.26, 20: 1.44,
    21: 1.62, 22: 1.82, 23: 2.01, 24: 2.22, 25: 2.43,
    26: 2.64, 27: 2.86, 28: 3.08, 29: 3.31, 30: 3.54,
    35: 4.7, 40: 6.0, 45: 7.2, 50: 8.5, 55: 9.9,
}
# expm's highest Taylor degree (theta 3.54); its alpha needs p <= 6
_EXPM_DEGREE = 30


def expm(a) -> np.ndarray:
    """exp(a) for a small dense real square matrix: a Taylor polynomial of
    a / 2^s squared s times (Al-Mohy & Higham, SIAM J. Matrix Anal. Appl.
    31(3), 2009).

    With d_k = |a^k|_1^(1/k) from exact powers, k <= 7, degree m (a key of
    _THETA) is accurate for s = max(0, ceil(log2(alpha_m / theta_m))), where
    alpha_m = min(d_1, max(d_p, d_(p+1)) over p >= 2 with p (p - 1) <= m + 1).
    The plan with the fewest squarings, then the lowest degree, is summed by
    Horner.  The norms of powers, not |a|_1, keep s small for a generator
    whose large entries are nearly nilpotent, such as record_chain's record
    rows.  Degrees stop at _EXPM_DEGREE: near theta_55 = 9.9 Horner's sum
    cancels terms of e^9.9 and loses 1e-13 on a rotation.  A zero matrix
    gives the identity exactly.
    """
    a = np.asarray(a, dtype=float)
    eye = np.eye(a.shape[0])
    power = a
    d = [np.abs(a).sum(axis=0).max()]
    for k in range(2, 8):
        power = power @ a
        d.append(np.abs(power).sum(axis=0).max() ** (1.0 / k))
    plans = []
    for m, theta in _THETA.items():
        if m > _EXPM_DEGREE:
            break
        alpha = min([d[0]] + [max(d[p - 1], d[p]) for p in range(2, 7) if p * (p - 1) <= m + 1])
        plans.append((math.ceil(math.log2(alpha / theta)) if alpha > theta else 0, m))
    s, m = min(plans)
    scaled = a / 2.0 ** s
    out = eye
    for k in range(m, 0, -1):
        out = eye + scaled @ out / k
    for _ in range(s):
        out = out @ out
    return out


# The three 2x2 spin matrices at time zero, read-only.
PAULI = (_frozen(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)),
         _frozen(np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)),
         _frozen(np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)))


def theta(beta) -> np.ndarray:
    """Skew map of a 3-vector: theta(b) @ g equals the cross product g x b.

    Rows are (0, b3, -b2), (-b3, 0, b1), (b2, -b1, 0); the result is read-only.
    """
    b1, b2, b3 = (float(x) for x in np.asarray(beta, dtype=float))
    return _frozen([[0.0, b3, -b2], [-b3, 0.0, b1], [b2, -b1, 0.0]])


def plant_generator(r_p) -> np.ndarray:
    """Drift matrix of the spin vector under the Hamiltonian r_p . sigma."""
    return -2.0 * theta(r_p)


@dataclass(frozen=True)
class PlantSpec:
    """Qubit plant data: Hamiltonian coefficients, readout row, initial state.

    r_p : (3,) real, coefficients of the spin Hamiltonian (rad/s scale).
    c_p : (3,) real, nonzero row defining the tracked combination c_p . sigma.
    rho_p : (2, 2) complex density matrix (Hermitian, unit trace, PSD).
    """

    r_p: np.ndarray
    c_p: np.ndarray
    rho_p: np.ndarray

    def __post_init__(self):
        r = _reals("r_p", self.r_p)
        c = _reals("c_p", self.c_p)
        rho = np.asarray(self.rho_p, dtype=complex)
        if r.shape != (3,):
            raise ValueError("r_p must be a real 3-vector")
        if c.shape != (3,):
            raise ValueError("c_p must be a real 3-vector")
        if not np.isfinite(rho).all():
            raise ValueError("rho_p must be finite")
        if not np.any(c):
            raise ValueError("c_p must be nonzero (zero row makes the tracked variable trivial)")
        if rho.shape != (2, 2):
            raise ValueError("rho_p must be 2x2")
        if not np.allclose(rho, rho.conj().T, atol=1e-12):
            raise ValueError("rho_p must be Hermitian")
        if abs(np.trace(rho).real - 1.0) > 1e-9 or abs(np.trace(rho).imag) > 1e-12:
            raise ValueError("rho_p must have unit trace")
        eigs = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
        if eigs.min() < -1e-12:
            raise ValueError(f"rho_p must be positive semidefinite (min eig {eigs.min():.3e})")
        object.__setattr__(self, "r_p", _frozen(r))
        object.__setattr__(self, "c_p", _frozen(c))
        object.__setattr__(self, "rho_p", _frozen(rho))


def qubit_moments(plant: PlantSpec) -> tuple:
    """Mean and variance of the tracked spin combination at time zero.

    mean = sum_i c_i tr(rho sigma_i); variance = |c|^2 - mean^2, clamped at
    zero when rounding produces a value in (-1e-12, 0).
    """
    mean = 0.0
    for ci, si in zip(plant.c_p, PAULI):
        tr = np.trace(plant.rho_p @ si)
        mean += float(ci) * tr.real
    variance = float(np.dot(plant.c_p, plant.c_p)) - mean * mean
    if variance < 0.0:
        if variance < -1e-12:
            raise ValueError(f"inconsistent moments: variance {variance}")
        variance = 0.0
    return float(mean), float(variance)
