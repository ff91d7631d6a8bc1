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
covariance is projected onto the PSD cone.  P_k, the gains and the estimate
maps do not depend on the records, so gain_schedule forms them once per
grid; one estimate recursion then serves a whole ensemble
(run_filter_ensemble) and the sampler's blocks as they arrive (filter_paths),
which holds one chunk's noise draws plus n_paths values per kept node,
whatever the step count.  riccati.csv is rendered as one block by
export.write_csv, like every CSV artifact.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .export import write_csv
from .model_builder import AugmentedModel, LinearModel
from .sde_engine import SimConfig, _checked_keep, _kept, record_chain, sample_blocks
from .spin_algebra import _frozen

__all__ = [
    "LinearModel",
    "RiccatiSolution",
    "kalman_gain",
    "solve_riccati",
    "gain_schedule",
    "run_filter_ensemble",
    "filter_paths",
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


def gain_schedule(model: LinearModel, times) -> tuple:
    """The path-independent part of the filter on a grid, formed once.

    Over a step h, (T, W) = sde_engine.record_chain(model, h) gives
    x' = Phi x + w and dz = Psi x + v, Phi and Psi the state and record rows
    of T's state columns, and W = [[Q_d, S_d], [S_d^T, R_d]] the covariance
    of (w, v).
    The filter for that chain with correlated noise (Anderson & Moore,
    Optimal Filtering, 1979) starts from sigma0 and steps

        S = Psi P Psi^T + R_d,   K = (Phi P Psi^T + S_d) S^{-1},
        P <- Phi P Phi^T + Q_d - K S K^T,

    and its estimates follow x_hat <- (Phi - K Psi) x_hat + K dz, none of
    which depends on the record.  Returns P at every node (n_t, n, n), K over
    every step (n_t - 1, n, p) and the estimate map Phi - K Psi over every
    step (n_t - 1, n, n); record_chain is formed once per distinct step length.
    """
    times = _check_grid(times)
    n, p = model.n, model.D.shape[0]
    steps = {}
    covs = np.empty((times.size, n, n))
    gains = np.empty((times.size - 1, n, p))
    maps = np.empty((times.size - 1, n, n))
    covs[0] = cov = model.sigma0
    for k, h in enumerate(np.diff(times)):
        if h not in steps:
            trans, w = record_chain(model, h)
            steps[h] = trans[:, :n], w
        t_x, w = steps[h]
        # M = T P T^T + W, the covariance of (x', dz) given the earlier records,
        # holds S = M_zz and K S = M_xz; P' = M_xx - K M_zx.
        joint = t_x @ cov @ t_x.T + w
        gains[k] = gain = np.linalg.solve(joint[n:, n:], joint[n:, :n]).T
        maps[k] = t_x[:n] - gain @ t_x[n:]
        covs[k + 1] = cov = _sym(joint[:n, :n] - gain @ joint[n:, :n])
    return covs, gains, maps


def _node_slots(keep, n_nodes: int) -> np.ndarray:
    """slot[k] is node k's position in keep, or -1 where k is not kept."""
    slot = np.full(n_nodes, -1)
    slot[keep] = np.arange(keep.size)
    return slot


def _step_estimates(x, dz, gains, maps, slot, out) -> np.ndarray:
    """Step the estimates x, (width, n), over one grid step per entry of gains
    and maps, with dz[j], (width, p), the records' increments over step j.
    After step j, x is stored in out[:, slot[j]] where slot[j] >= 0; rows of
    x past len(out) are padding and are not stored.  Returns the last x."""
    for j, (gain, step_map) in enumerate(zip(gains, maps)):
        x = x @ step_map.T + dz[j] @ gain.T
        if slot[j] >= 0:
            out[:, slot[j]] = x[:len(out)]
    return x


def run_filter_ensemble(model: LinearModel, times, dz, keep=None) -> tuple:
    """Kalman-filter many records sharing one grid, exactly at any step.

    ``dz[:, k]`` is each record's increment over the step from ``times[k]``,
    shaped (n_paths, n_steps) for a scalar record or (n_paths, n_steps, p).
    The filter is gain_schedule's, started from x0_mean; it is unbiased, and
    P_k is its exact error covariance at node k.
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
    slot = _node_slots(keep, times.size)
    covs, gains, maps = gain_schedule(model, times)
    x = np.broadcast_to(model.x0_mean, (dz.shape[0], n)).copy()
    out = np.empty((dz.shape[0], keep.size, n))
    if slot[0] >= 0:
        out[:, slot[0]] = x
    _step_estimates(x, dz.transpose(1, 0, 2), gains, maps, slot[1:], out)
    return out, covs, gains


def filter_paths(model: AugmentedModel, config: SimConfig, schedule, keep) -> tuple:
    """Sample the model's records and filter them as they are sampled.

    Each block of sde_engine.sample_blocks is stepped through the filter of
    ``schedule``, gain_schedule(model, time_grid(config)), as it arrives:
    the record increments are the differences of the integrated record at
    adjacent nodes, bitwise simulate_paths' dz, and the sampler's padding
    column rides along so that every product spans two paths.  Only the
    nodes ``keep`` lists (strictly increasing) are stored.  Returns z_p
    (n_paths,), x_o at the kept nodes (n_paths, len(keep), 2) and the
    estimates there (n_paths, len(keep), n), bitwise what simulate_paths and
    run_filter_ensemble give for two or more paths.  Memory is one chunk's
    noise draws plus n_paths * len(keep) values, whatever the step count.
    """
    _, gains, maps = schedule
    n_t = config.n_steps + 1
    if gains.shape[0] != n_t - 1:
        raise ValueError(f"the schedule covers {gains.shape[0]} steps, the "
                         f"sampler {n_t - 1}")
    keep = _checked_keep(keep, n_t)
    slot = _node_slots(keep, n_t)
    n_paths, n = config.n_paths, model.n
    z_p = np.empty(n_paths)
    x_o = np.empty((n_paths, keep.size, 2))
    x_hat = np.empty((n_paths, keep.size, n))
    for start, stop, b0, z_vals, states in sample_blocks(model, config):
        steps = len(states) - 1
        if b0 == 0:
            z_p[start:stop] = z_vals[:stop - start]
            x = np.broadcast_to(model.x0_mean, (z_vals.size, n)).copy()
            if slot[0] >= 0:
                x_hat[start:stop, slot[0]] = x[:stop - start]
        lo, hi, rows = _kept(keep, b0, steps)
        x_o[start:stop, lo:hi] = states[rows, :2, :stop - start].transpose(2, 0, 1)
        dz = (states[1:, 2] - states[:-1, 2])[:, :, None]
        x = _step_estimates(x, dz, gains[b0:b0 + steps], maps[b0:b0 + steps],
                            slot[b0 + 1:b0 + steps + 1], x_hat[start:stop])
    return z_p, x_o, x_hat


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
