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
grid step.  error_covariance carries the covariance of the error under any
step-held gain schedule exactly, one sde_engine.exact_lti_step per step.
Both symmetrize after every step and abort on non-finite values; positive
semidefiniteness is not projected, and the ``filter`` report records the
smallest eigenvalue of Sigma* over the grid.  Record-driven filter updates
are Euler-Maruyama-consistent since dz is an increment stream.  riccati.csv
is rendered as one block by export.write_csv, like every CSV artifact.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .export import write_csv
from .model_builder import LinearModel
from .sde_engine import _checked_keep, exact_lti_step
from .spin_algebra import _frozen

__all__ = [
    "LinearModel",
    "RiccatiSolution",
    "kalman_gain",
    "solve_riccati",
    "step_maps",
    "run_filter_ensemble",
    "error_covariance",
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
    ham = np.block([[-model.F.T, model.Q], [model.R, model.F]])
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


def step_maps(model: LinearModel, riccati: RiccatiSolution) -> np.ndarray:
    """The filter's explicit step maps I + h_k (A - G_k D C), one per grid step.

    run_filter_ensemble applies map k to the estimate over the step from
    node k; the filter is stable on the grid only if no map expands.
    """
    h = np.diff(riccati.times)[:, None, None]
    return np.eye(model.n) + h * (model.A - riccati.gains[:-1] @ model.DC)


def run_filter_ensemble(model: LinearModel, riccati: RiccatiSolution,
                        times, dz, keep=None) -> np.ndarray:
    """Propagate the unbiased estimate along many records sharing one grid.

    ``times`` must be the Riccati grid; ``dz`` holds one record per row,
    (n_paths, n_steps) for a scalar record or (n_paths, n_steps, p), with
    ``dz[:, k]`` the increment over the step starting at ``times[k]``.
    x_hat(t_0) is the model's initial mean exactly; each step applies the
    drift A - G D C and injects G dz with the gain stored at the step's left
    node.  ``keep`` lists the grid nodes to return, strictly increasing; by
    default every node is kept.  Returns the estimates at those nodes as an
    (n_paths, len(keep), n) array.
    """
    times = np.asarray(times, dtype=float)
    if times.shape != riccati.times.shape or np.max(np.abs(times - riccati.times)) > 1e-12:
        raise ValueError("run_filter_ensemble: time grids do not match")
    dz = np.asarray(dz, dtype=float)
    if dz.ndim == 2:
        dz = dz[:, :, None]
    p = model.D.shape[0]
    if dz.ndim != 3 or dz.shape[0] < 1 or dz.shape[1:] != (times.size - 1, p):
        raise ValueError(f"dz must hold, for each of n_paths >= 1 records, one "
                         f"{p}-vector per grid step; got shape {dz.shape}")
    keep = _checked_keep(keep, times.size)
    slot = np.full(times.size, -1)
    slot[keep] = np.arange(keep.size)
    n_paths = dz.shape[0]
    n_steps = times.size - 1
    n = model.n
    maps = step_maps(model, riccati)
    x = np.broadcast_to(model.x0_mean, (n_paths, n)).copy()
    out = np.empty((n_paths, keep.size, n))
    if slot[0] >= 0:
        out[:, slot[0], :] = x
    for k in range(n_steps):
        x = x @ maps[k].T + dz[:, k, :] @ riccati.gains[k].T
        if slot[k + 1] >= 0:
            out[:, slot[k + 1], :] = x
    return out


def error_covariance(model: LinearModel, gains, grid) -> np.ndarray:
    """Exact error covariance of the filter under a step-held gain schedule.

    ``gains[k]`` (n, p) is held over the step from ``grid[k]``, as in
    run_filter_ensemble; a gain at the last node is not used.  Each step is
    Sigma <- T Sigma T^T + W, (T, _, W) = exact_lti_step(A - G_k D C, B - G_k D, h).
    Returns the covariance at every node, from sigma0; raises RuntimeError
    with the step and time if it turns non-finite.
    """
    grid = _check_grid(grid)
    gains = np.asarray(gains, dtype=float)
    n, p = model.n, model.D.shape[0]
    if gains.ndim != 3 or gains.shape[0] < grid.size - 1 or gains.shape[1:] != (n, p):
        raise ValueError(f"gains must hold one ({n}, {p}) gain per grid step; "
                         f"got shape {gains.shape}")
    out = np.empty((grid.size, n, n))
    out[0] = sigma = model.sigma0
    for k, (h, g) in enumerate(zip(np.diff(grid), gains)):
        transition, _, noise_cov = exact_lti_step(model.A - g @ model.DC, model.B - g @ model.D, h)
        sigma = _sym(transition @ sigma @ transition.T + noise_cov)
        if not np.isfinite(sigma).all():
            raise RuntimeError(f"error covariance diverged at step {k} (t = {grid[k]:.6g})")
        out[k + 1] = sigma
    return out


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
