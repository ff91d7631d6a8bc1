"""Exact operator algebra for the spin-1/2 plant.

Pauli matrices, the skew-symmetric map that encodes their commutators, the
drift generator induced by a Hamiltonian linear in the spin operators, and
the first two moments of the measured spin combination for a given density
matrix.  Everything here is finite 2x2 / 3x3 arithmetic with no approximation
beyond floating point.
"""

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PauliBasis",
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


_SIGMA1 = _frozen(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
_SIGMA2 = _frozen(np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex))
_SIGMA3 = _frozen(np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex))


@dataclass(frozen=True)
class PauliBasis:
    """The three 2x2 spin matrices at time zero."""

    sigma1: np.ndarray = field(default_factory=lambda: _SIGMA1)
    sigma2: np.ndarray = field(default_factory=lambda: _SIGMA2)
    sigma3: np.ndarray = field(default_factory=lambda: _SIGMA3)

    def __post_init__(self):
        eye = np.eye(2)
        for name, s in zip(("sigma1", "sigma2", "sigma3"), self.matrices()):
            s = np.asarray(s, dtype=complex)
            if s.shape != (2, 2):
                raise ValueError(f"{name} must be 2x2")
            if not np.allclose(s, s.conj().T, atol=1e-14):
                raise ValueError(f"{name} must be Hermitian")
            if abs(np.trace(s)) > 1e-14:
                raise ValueError(f"{name} must be traceless")
            if not np.allclose(s @ s, eye, atol=1e-14):
                raise ValueError(f"{name} must square to the identity")

    def matrices(self) -> tuple:
        return (self.sigma1, self.sigma2, self.sigma3)


PAULI = PauliBasis()


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
        r = np.asarray(self.r_p, dtype=float)
        c = np.asarray(self.c_p, dtype=float)
        rho = np.asarray(self.rho_p, dtype=complex)
        if r.shape != (3,):
            raise ValueError("r_p must be a real 3-vector")
        if c.shape != (3,):
            raise ValueError("c_p must be a real 3-vector")
        for name, arr in (("r_p", r), ("c_p", c), ("rho_p", rho)):
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} must be finite")
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
    for ci, si in zip(plant.c_p, PAULI.matrices()):
        tr = np.trace(plant.rho_p @ si)
        mean += float(ci) * tr.real
    variance = float(np.dot(plant.c_p, plant.c_p)) - mean * mean
    if variance < 0.0:
        if variance < -1e-12:
            raise ValueError(f"inconsistent moments: variance {variance}")
        variance = 0.0
    return float(mean), float(variance)
