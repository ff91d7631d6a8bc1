"""Reference oracles and helpers shared by the test modules.

Nothing in the package uses these; they are written independently of the
code paths they check.
"""

import numpy as np
from scipy.linalg import expm

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


def live_step(model, h, b_live=None):
    """The sampler's exact step over length h, in its own live coordinates.

    The live state s = (x_o, integrated record) follows
    ds = (a s + u z_p) dt + b dw; returns (transition, drift, noise_cov) of
    s' = transition s + drift z_p + N(0, noise_cov), driven by the noise input
    b_live (the model's own b by default).  transition and drift come from
    expm([[a, u], [0, 0]] h), and noise_cov from Van Loan's block form
    expm([[-a, b b^T], [0, a^T]] h) = [[., F12], [0, F22]] as F22^T F12
    (IEEE TAC 23(3), 1978), so nothing here goes through sde_engine.
    """
    dc = (model.D @ model.C)[0]
    a = np.zeros((3, 3))
    a[:2, :2] = model.A[1:, 1:]
    a[2, :2] = dc[1:]
    b = np.vstack([model.B[1:], model.D]) if b_live is None else b_live
    aff = np.zeros((4, 4))
    aff[:3, :3] = a
    aff[:3, 3] = [model.A[1, 0], model.A[2, 0], dc[0]]
    step = expm(aff * h)
    van_loan = np.block([[-a, b @ b.T], [np.zeros((3, 3)), a.T]])
    blocks = expm(van_loan * h)
    noise_cov = blocks[3:, 3:].T @ blocks[:3, 3:]
    return step[:3, :3], step[:3, 3], 0.5 * (noise_cov + noise_cov.T)


def sampler_step(model, h, b_live=None):
    """The sampler's exact step over length h, read as the filter's chain.

    Returns (Phi, Psi, noise_cov): the state map of (z_p, x_o), the record
    row (z_p, x_o) -> dz, and the covariance of the noise in (x_o', dz),
    driven by the noise input b_live (the model's own by default).
    """
    transition, drift, noise_cov = live_step(model, h, b_live)
    step = np.column_stack([drift, transition[:, :2]])  # (z_p, x_o) -> (x_o', dz)
    return np.vstack([np.eye(3)[:1], step[:2]]), step[2], noise_cov


def exact_error_moments(model, times, gains, b_live=None):
    """Exact mean and covariance of the error e = (z_p, x_o) - x_hat of the
    update x_hat' = (Phi - K_k Psi) x_hat + K_k dz under the given gains.

    The joint w = (z_p, x_o, x_hat) is carried through sampler_step on the
    uniform grid ``times``, with no sampling; ``gains[k]`` (3, 1) is K over
    step k.  Returns E[e] and Cov(e) at every node.
    """
    phi, psi, noise_cov = sampler_step(model, times[1] - times[0], b_live)
    mean = np.concatenate([model.x0_mean, model.x0_mean])
    cov = np.zeros((6, 6))
    cov[:3, :3] = model.sigma0
    diff = np.hstack([np.eye(3), -np.eye(3)])
    means, covs = [diff @ mean], [diff @ cov @ diff.T]
    m = np.zeros((6, 6))
    m[:3, :3] = phi
    n = np.zeros((6, 3))
    n[1:3, :2] = np.eye(2)
    for g in np.asarray(gains)[:, :, 0]:
        m[3:, :3] = np.outer(g, psi)
        m[3:, 3:] = phi - m[3:, :3]
        n[3:, 2] = g
        mean = m @ mean
        cov = m @ cov @ m.T + n @ noise_cov @ n.T
        means.append(diff @ mean)
        covs.append(diff @ cov @ diff.T)
    return np.array(means), np.array(covs)


def stepwise_riccati(model, grid):
    """Sigma* on a grid by the Hamiltonian step restarted at every node.

    H = [[-F^T, Q], [R, F]] is built from the raw A, B, C, D; each step maps
    Sigma_k to Y X^{-1} with [X; Y] = expm(H h_k) [I; Sigma_k] (Davison &
    Maki, IEEE TAC 18(1), 1973), one solve per step, and is symmetrized.
    """
    a, b, c, d = model.A, model.B, model.C, model.D
    s_inv = np.linalg.inv(d @ d.T)
    f = a - b @ d.T @ s_inv @ d @ c
    q = c.T @ d.T @ s_inv @ d @ c
    r = b @ b.T - b @ d.T @ s_inv @ d @ b.T
    n = model.n
    ham = np.block([[-f.T, q], [r, f]])
    out = np.empty((len(grid), n, n))
    out[0] = sigma = model.sigma0
    for k, h in enumerate(np.diff(grid)):
        xy = expm(ham * h) @ np.vstack([np.eye(n), sigma])
        sigma = np.linalg.solve(xy[:n].T, xy[n:].T)
        out[k + 1] = sigma = 0.5 * (sigma + sigma.T)
    return out
