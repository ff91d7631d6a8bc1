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
and the Riccati coefficients F, Q, R once.  Every covariance equation here
is integrated by one fixed-step classical RK4 helper that symmetrizes after
every step and aborts on non-finite values; positive semidefiniteness is
not projected, and the ``filter`` report records the smallest eigenvalue of
Sigma* over the grid.  Record-driven filter updates are
Euler-Maruyama-consistent since dz is an increment stream.
"""

from dataclasses import dataclass

import numpy as np

from .export import write_csv
from .model_builder import LinearModel
from .spin_algebra import _frozen

__all__ = [
    "LinearModel",
    "RiccatiSolution",
    "kalman_gain",
    "riccati_rhs",
    "solve_riccati",
    "run_filter_ensemble",
    "error_covariance_ode",
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


def riccati_rhs(model: LinearModel, sigma: np.ndarray) -> np.ndarray:
    """Covariance derivative F Sigma + Sigma F^T - Sigma Q Sigma + R, symmetrized."""
    return _sym(model.F @ sigma + sigma @ model.F.T - sigma @ model.Q @ sigma + model.R)


def _lyapunov_rhs(model: LinearModel, sigma: np.ndarray, g: np.ndarray) -> np.ndarray:
    drift = model.A - g @ model.DC
    residual_b = model.B - g @ model.D
    return _sym(drift @ sigma + sigma @ drift.T + residual_b @ residual_b.T)


def _check_grid(grid) -> np.ndarray:
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2 or np.any(np.diff(grid) <= 0.0):
        raise ValueError("grid must be strictly increasing with >= 2 points")
    return grid


def _rk4(rhs, y0: np.ndarray, grid: np.ndarray, what: str) -> np.ndarray:
    """Classical RK4 of dy/dt = rhs(t, y) from y0 over the grid.

    y is a matrix or a stack of matrices, symmetrized after every step.
    Returns the trajectory, one y per node; raises RuntimeError with the
    step and time if the iteration produces non-finite values.
    """
    out = np.empty((grid.size,) + y0.shape)
    out[0] = y = y0
    for k in range(grid.size - 1):
        t, h = grid[k], grid[k + 1] - grid[k]
        k1 = rhs(t, y)
        k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = rhs(t + h, y + h * k3)
        y = _sym(y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
        if not np.isfinite(y).all():
            raise RuntimeError(f"{what} integration diverged at step {k} (t = {t:.6g})")
        out[k + 1] = y
    return out


def solve_riccati(model: LinearModel, grid) -> RiccatiSolution:
    """Integrate the covariance Riccati equation with RK4 on the given grid.

    Stores the symmetrized covariance and the optimal gain at every node.
    Aborts with a step diagnostic if the iteration produces non-finite values.
    """
    grid = _check_grid(grid)
    sigma = _rk4(lambda _t, s: riccati_rhs(model, s), model.sigma0, grid, "Riccati")
    return RiccatiSolution(times=grid, sigma_star=sigma, gains=kalman_gain(model, sigma))


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
    keep = np.arange(times.size) if keep is None else np.asarray(keep)
    if (keep.ndim != 1 or keep.size < 1 or keep.dtype.kind not in "iu"
            or keep[0] < 0 or keep[-1] >= times.size or np.any(np.diff(keep) <= 0)):
        raise ValueError(f"keep must be strictly increasing node indices in "
                         f"[0, {times.size - 1}]; got {keep!r}")
    slot = np.full(times.size, -1)
    slot[keep] = np.arange(keep.size)
    n_paths = dz.shape[0]
    n_steps = times.size - 1
    n = model.n
    eye = np.eye(n)
    x = np.broadcast_to(model.x0_mean, (n_paths, n)).copy()
    out = np.empty((n_paths, keep.size, n))
    if slot[0] >= 0:
        out[:, slot[0], :] = x
    for k in range(n_steps):
        h = times[k + 1] - times[k]
        g = riccati.gains[k]
        step_map = eye + h * (model.A - g @ model.DC)
        x = x @ step_map.T + dz[:, k, :] @ g.T
        if slot[k + 1] >= 0:
            out[:, slot[k + 1], :] = x
    return out


def error_covariance_ode(model: LinearModel, gain, grid) -> tuple:
    """Integrate the error covariance for a gain schedule; optimal if gain is None.

    For a callable gain(t) the Lyapunov-type equation with drift A - G D C and
    diffusion (B - G D)(B - G D)^T is integrated from sigma0.  With gain=None
    the Riccati equation is co-integrated and its gain is used at every RK4
    stage, which reproduces the optimal covariance to roundoff.  Returns
    (times, covariance trajectory).
    """
    grid = _check_grid(grid)
    if gain is None:
        def pair_rhs(_t, pair):
            sigma, sigma_star = pair
            return np.stack([_lyapunov_rhs(model, sigma, kalman_gain(model, sigma_star)),
                             riccati_rhs(model, sigma_star)])

        pairs = _rk4(pair_rhs, np.stack([model.sigma0, model.sigma0]), grid, "covariance")
        return grid, pairs[:, 0]

    def rhs(t, sigma):
        return _lyapunov_rhs(model, sigma, np.asarray(gain(t), dtype=float))

    return grid, _rk4(rhs, model.sigma0, grid, "covariance")


def write_riccati_csv(path, riccati: RiccatiSolution) -> None:
    """CSV of the covariance upper triangle and gain columns over time."""
    n = riccati.sigma_star.shape[1]
    p = riccati.gains.shape[2]
    header = ["t"]
    header += [f"sigma_{i + 1}{j + 1}" for i in range(n) for j in range(i, n)]
    header += [f"gain_{i + 1}_{l + 1}" for i in range(n) for l in range(p)]

    def rows():
        for k, t in enumerate(riccati.times):
            row = [t]
            row += [riccati.sigma_star[k, i, j] for i in range(n) for j in range(i, n)]
            row += [riccati.gains[k, i, l] for i in range(n) for l in range(p)]
            yield row

    write_csv(path, header, rows())
