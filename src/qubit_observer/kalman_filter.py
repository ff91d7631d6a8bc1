"""Minimum-variance unbiased estimation for linear models with homodyne output.

Implements the continuous-time filter for the constant-coefficient model

    dx = A x dt + B dw,      dz = D (C x dt + dw),

where the same noise vector enters state and measurement.  The optimal gain

    G(t) = (Sigma*(t) C^T D^T + B D^T) (D D^T)^{-1}

and the covariance Riccati equation account for that process/measurement
noise correlation through the B D^T terms; unbiasedness fixes the filter
drift to A - G D C.  The filter is the optimal *linear* unbiased estimator
for any noise and initial-condition distributions with matching first and
second moments, Gaussian or not, which is exactly the regime of the
two-point-distributed plant variable.

The model (``LinearModel``, defined in ``model_builder``) forms (D D^T)^{-1}
and the Riccati coefficients F, Q, R once.  Sigma* is propagated exactly,
by the linear-fractional map of the constant Hamiltonian matrix over each
grid step; it symmetrizes after every step and aborts on non-finite values.
The records are sampled, so the filter applied to them is the discrete
Kalman filter of the exact sampled-data model, sde_engine.record_chain, the
same step the sampler takes; its covariance P_k is its error covariance at
every step length and tends to Sigma*(t_k) as the step shrinks.  Neither
covariance is projected onto the PSD cone.  riccati.csv is rendered as one
block by export.write_csv, like every CSV artifact.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .export import write_csv
from .model_builder import LinearModel
from .sde_engine import _checked_keep, record_chain
from .spin_algebra import _frozen

__all__ = [
    "LinearModel",
    "RiccatiSolution",
    "kalman_gain",
    "solve_riccati",
    "run_filter_ensemble",
    "write_riccati_csv",
]


def _sym(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + np.swapaxes(m, -1, -2))


@dataclass(frozen=True)
class RiccatiSolution:
    """Optimal error covariance and gain evaluated on a time grid."""

    times: np.ndarray
    sigma_star: np.ndarray
    gains: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "times", _frozen(np.asarray(self.times, dtype=float)))
        object.__setattr__(self, "sigma_star", _frozen(np.asarray(self.sigma_star, dtype=float)))
        object.__setattr__(self, "gains", _frozen(np.asarray(self.gains, dtype=float)))


def kalman_gain(model: LinearModel, sigma: np.ndarray) -> np.ndarray:
    """Optimal gain (Sigma C^T D^T + B D^T)(D D^T)^{-1}; Sigma may be a stack."""
    return sigma @ model.gain_slope + model.gain_offset


def _check_grid(grid) -> np.ndarray:
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2 or np.any(np.diff(grid) <= 0.0):
        raise ValueError("grid must be strictly increasing with >= 2 points")
    return grid


def _hamiltonian(model: LinearModel) -> np.ndarray:
    """The Riccati equation's constant Hamiltonian [[-F^T, Q], [R, F]]."""
    return np.block([[-model.F.T, model.Q], [model.R, model.F]])


def solve_riccati(model: LinearModel, grid) -> RiccatiSolution:
    """Propagate the covariance Riccati equation exactly over the given grid.

    With the constant Hamiltonian H = [[-F^T, Q], [R, F]], one step of length
    h maps Sigma_k to Sigma_{k+1} = Y X^{-1}, where [X; Y] = expm(H h) [I; Sigma_k]
    (Davison & Maki, IEEE TAC 18(1), 1973).  Restarting from Sigma_k at every
    step keeps X near I; expm is formed once per distinct step length.
    Stores the symmetrized covariance and the optimal gain at every node.
    Raises RuntimeError with the step and time if X is singular or the
    covariance turns non-finite.
    """
    grid = _check_grid(grid)
    n = model.n
    ham = _hamiltonian(model)
    flows = {}
    out = np.empty((grid.size, n, n))
    out[0] = sigma = model.sigma0
    with np.errstate(over="ignore", invalid="ignore"):
        for k, h in enumerate(np.diff(grid)):
            phi = flows.get(h)
            if phi is None:
                phi = flows[h] = expm(ham * h)
            xy = phi[:, :n] + phi[:, n:] @ sigma
            try:
                # Y X^{-1} is symmetric, so it is also the solution X^{-T} Y^T.
                sigma = _sym(np.linalg.solve(xy[:n].T, xy[n:].T))
                finite = np.isfinite(sigma).all()
            except np.linalg.LinAlgError:
                finite = False
            if not finite:
                raise RuntimeError(f"Riccati propagation diverged at step {k} "
                                   f"(t = {grid[k]:.6g})")
            out[k + 1] = sigma
    return RiccatiSolution(times=grid, sigma_star=out, gains=kalman_gain(model, out))


def run_filter_ensemble(model: LinearModel, times, dz, keep=None) -> tuple:
    """Kalman-filter many records sharing one grid, exactly at any step.

    ``dz[:, k]`` is each record's increment over the step from ``times[k]``,
    shaped (n_paths, n_steps) for a scalar record or (n_paths, n_steps, p).
    Over a step h, (T, W) = sde_engine.record_chain(model, h) gives
    x' = Phi x + w and dz = Psi x + v, Phi and Psi the state and record rows
    of T's state columns, and W = [[Q_d, S_d], [S_d^T, R_d]] the covariance
    of (w, v).
    The filter for that chain with correlated noise (Anderson & Moore,
    Optimal Filtering, 1979) starts from x0_mean and sigma0 and steps

        S = Psi P Psi^T + R_d,   K = (Phi P Psi^T + S_d) S^{-1},
        x_hat <- (Phi - K Psi) x_hat + K dz,   P <- Phi P Phi^T + Q_d - K S K^T.

    It is unbiased, and P_k is its exact error covariance at node k.
    Returns the estimates at the nodes ``keep`` lists (strictly increasing,
    by default all) as (n_paths, len(keep), n), P at every node as
    (n_t, n, n) and K over every step as (n_t - 1, n, p).
    """
    times = _check_grid(times)
    dz = np.asarray(dz, dtype=float)
    if dz.ndim == 2:
        dz = dz[:, :, None]
    n, p = model.n, model.D.shape[0]
    if dz.ndim != 3 or dz.shape[0] < 1 or dz.shape[1:] != (times.size - 1, p):
        raise ValueError(f"dz must hold, for each of n_paths >= 1 records, one "
                         f"{p}-vector per grid step; got shape {dz.shape}")
    keep = _checked_keep(keep, times.size)
    slot = np.full(times.size, -1)
    slot[keep] = np.arange(keep.size)
    steps = {}
    x = np.broadcast_to(model.x0_mean, (dz.shape[0], n)).copy()
    out = np.empty((dz.shape[0], keep.size, n))
    covs = np.empty((times.size, n, n))
    gains = np.empty((times.size - 1, n, p))
    covs[0] = cov = model.sigma0
    if slot[0] >= 0:
        out[:, slot[0]] = x
    for k, h in enumerate(np.diff(times)):
        if h not in steps:
            trans, w = record_chain(model, h)
            steps[h] = trans[:, :n], w
        t_x, w = steps[h]
        # M = T P T^T + W, the covariance of (x', dz) given the earlier records,
        # holds S = M_zz and K S = M_xz; P' = M_xx - K M_zx.
        joint = t_x @ cov @ t_x.T + w
        gains[k] = gain = np.linalg.solve(joint[n:, n:], joint[n:, :n]).T
        x = x @ (t_x[:n] - gain @ t_x[n:]).T + dz[:, k] @ gain.T
        covs[k + 1] = cov = _sym(joint[:n, :n] - gain @ joint[n:, :n])
        if slot[k + 1] >= 0:
            out[:, slot[k + 1]] = x
    return out, covs, gains


def write_riccati_csv(path, riccati: RiccatiSolution) -> None:
    """CSV of t, the upper triangle of Sigma* (row by row) and the gain
    entries (row by row) at every node, as one block through export.write_csv."""
    n_t, n, p = riccati.gains.shape
    upper = np.triu_indices(n)
    header = ["t"]
    header += [f"sigma_{i + 1}{j + 1}" for i, j in zip(*upper)]
    header += [f"gain_{i + 1}_{l + 1}" for i in range(n) for l in range(p)]
    write_csv(path, header, [np.column_stack([
        riccati.times, riccati.sigma_star[:, upper[0], upper[1]],
        riccati.gains.reshape(n_t, n * p)])])
