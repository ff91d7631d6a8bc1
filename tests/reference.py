"""Reference oracles and helpers shared by the test modules.

Nothing in the package uses these; they are written independently of the
code paths they check.
"""

import numpy as np

from qubit_observer.spin_algebra import PAULI

# Levi-Civita symbol, 0-based: EPSILON[i, j, k] = eps_{i+1, j+1, k+1}.
EPSILON = np.zeros((3, 3, 3))
for _i, _j, _k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    EPSILON[_i, _j, _k] = 1.0
    EPSILON[_k, _j, _i] = -1.0
EPSILON.setflags(write=False)


def commutator_oracle(r_p) -> np.ndarray:
    """Brute-force counterpart of ``plant_generator``.

    Expands -i[sigma_i, sum_j r_j sigma_j] by explicit 2x2 arithmetic and
    extracts Pauli-basis coefficients with (1/2) tr(sigma_k M).  Raises if a
    commutator picks up an identity component, which would signal a bug.
    """
    r = np.asarray(r_p, dtype=float)
    sigmas = PAULI
    ham = sum(rj * sj for rj, sj in zip(r, sigmas))
    out = np.zeros((3, 3))
    for i, si in enumerate(sigmas):
        m = -1j * (si @ ham - ham @ si)
        ident = 0.5 * np.trace(m)
        if abs(ident) > 1e-12:
            raise ArithmeticError(
                f"commutator of sigma_{i + 1} has identity component {ident}"
            )
        for k, sk in enumerate(sigmas):
            coeff = 0.5 * np.trace(sk @ m)
            if abs(coeff.imag) > 1e-12:
                raise ArithmeticError(
                    f"non-real Pauli coefficient {coeff} at ({i + 1}, {k + 1})"
                )
            out[i, k] = coeff.real
    return out


def live_system(model):
    """(a, b, u) of ds = (a s + u z_p) dt + b dw for s = (x_o, integrated record)."""
    dc = (model.D @ model.C)[0]
    a = np.zeros((3, 3))
    a[:2, :2] = model.A[1:, 1:]
    a[2, :2] = dc[1:]
    u = np.array([model.A[1, 0], model.A[2, 0], dc[0]])
    b = np.vstack([model.B[1:], model.D])
    return a, b, u
