"""Exact operator algebra for the spin-1/2 plant.

Pauli matrices, the skew-symmetric map that encodes their commutators, the
drift generator induced by a Hamiltonian linear in the spin operators, and
the first two moments of the measured spin combination for a given density
matrix.  Everything here is finite 2x2 / 3x3 arithmetic with no approximation
beyond floating point.  It imports nothing from the package, so it also holds
the field rules that the config, sampler and oracle dataclasses share.
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


def _checked_grid(dt, t_final) -> tuple:
    """(dt, t_final) as floats; ValueError unless both obey _real, 0 < dt <
    t_final and the grid has at most 1e8 steps.  The sim, filter and oracle
    grids share this rule."""
    dt = _real("dt", dt)
    t_final = _real("t_final", t_final)
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if t_final <= dt:
        raise ValueError("t_final must exceed dt")
    if t_final / dt > 1e8:
        raise ValueError("t_final/dt exceeds the 1e8 step guard")
    return dt, t_final


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
