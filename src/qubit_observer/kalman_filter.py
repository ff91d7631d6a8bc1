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
and the Riccati coefficients F, Q, R once.  Every entry point takes one
step h per grid, as the sampler does: the grid must be evenly spaced, to
within the rounding of its nodes (_even_grid).  Sigma* is propagated
exactly, by the linear-fractional map of the constant Hamiltonian matrix,
in blocks of up to 64 grid steps: the powers of the one step's flow give
every covariance of a block from one batched solve, and the next block
restarts from the last.  Blocks are cut short so that |H|_2 h m <= 1, and
grids with |H|_2 h > 1/2 step one node at a time.  It symmetrizes every
covariance and aborts on non-finite values.
The records are sampled, so the filter applied to them is the discrete
Kalman filter of the exact sampled-data model, sde_engine.record_chain at
h, the same step the sampler takes; its covariance P_k is its error
covariance at every step length and tends to Sigma*(t_k) as h shrinks.
Neither covariance is projected onto the PSD cone.  P_k, the gains and the
estimate maps do not depend on the records.  The estimates are linear in
the start of a block and its record increments, so the maps and gains
compose into one transfer matrix per sampler block (64 steps), and one
batched product carries the records over the block.  gain_schedule forms
P_k, the gains and the transfers in one walk over the grid and keeps no
per-step map.  The same transfers serve a whole ensemble at once
(run_filter_ensemble) and the sampler's blocks as they arrive, each already
holding its steps' increments (filter_paths, which forms the schedule of
the sampler's own grid).  filter_paths holds one sampler block of one chunk
plus n_paths values per kept node, on top of the schedule: P_k at every
node and one transfer per block.  Which nodes are kept, and where they fall
in the blocks, is _kept_blocks' rule, for both routes.  riccati.csv is
rendered as one block by export.write_csv, like every CSV artifact.
"""

from dataclasses import dataclass

import numpy as np

from .export import write_csv
from .model_builder import AugmentedModel, LinearModel
from .sde_engine import _CHECK_EVERY, SimConfig, record_chain, sample_blocks, time_grid
from .spin_algebra import _frozen, expm

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


# The longest block of Riccati steps taken with one batched solve.
_MAX_BLOCK = 64


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


def _even_grid(grid) -> tuple:
    """The grid as a float array and its one step h = (t_n - t_0) / n.

    The filter takes one step per grid: every node must lie within
    4 eps max|grid| of t_0 + k h, the rounding of the nodes themselves, so
    np.arange(n + 1) * dt and np.linspace pass and a grid of two step
    lengths does not.  ValueError otherwise, and for fewer than 2 nodes or
    a non-finite or non-increasing one.
    """
    grid = np.asarray(grid, dtype=float)
    if (grid.ndim == 1 and grid.size >= 2 and np.isfinite(grid).all()
            and np.all(np.diff(grid) > 0.0)):
        h = (grid[-1] - grid[0]) / (grid.size - 1)
        off = np.max(np.abs(grid - (grid[0] + np.arange(grid.size) * h)))
        if off <= 4.0 * np.finfo(float).eps * np.max(np.abs(grid)):
            return grid, h
    raise ValueError("grid must be strictly increasing and evenly spaced "
                     "with >= 2 points")


def _kept_blocks(keep, n_steps: int) -> tuple:
    """Where the nodes keep lists fall in the sampler's blocks of steps.

    keep, by default every node, must be a non-empty, strictly increasing
    1-d integer sequence in [0, n_steps]: ValueError naming keep otherwise.
    Returns keep as an index array and, for each _CHECK_EVERY-step block from
    node b0 in turn, (lo, hi, rows): keep[lo:hi] are the block's kept nodes,
    so their slots are consecutive, and rows their rows in the block's
    states, whose row 0 is node b0 (the previous block's last node, so it
    counts here only when b0 is 0).
    """
    keep = np.arange(n_steps + 1) if keep is None else np.asarray(keep)
    if (keep.ndim != 1 or keep.size < 1 or keep.dtype.kind not in "iu"
            or keep[0] < 0 or keep[-1] > n_steps or np.any(np.diff(keep) <= 0)):
        raise ValueError(f"keep must be strictly increasing node indices in "
                         f"[0, {n_steps}]; got {keep!r}")
    blocks = []
    for b0 in range(0, n_steps, _CHECK_EVERY):
        n = min(_CHECK_EVERY, n_steps - b0)
        lo, hi = np.searchsorted(keep, (b0 + (b0 > 0), b0 + n + 1))
        blocks.append((lo, hi, keep[lo:hi] - b0))
    return keep, blocks


def _hamiltonian(model: LinearModel) -> np.ndarray:
    """The Riccati equation's constant Hamiltonian [[-F^T, Q], [R, F]]."""
    return np.block([[-model.F.T, model.Q], [model.R, model.F]])


def _fractional_map(xy: np.ndarray, n: int) -> np.ndarray:
    """Y X^{-1}, symmetrized, for each [X; Y] of a (m, 2n, n) stack; NaN
    from the first singular X on."""
    # Y X^{-1} is symmetric, so it is also the solution X^{-T} Y^T.
    xt, yt = xy[:, :n].swapaxes(1, 2), xy[:, n:].swapaxes(1, 2)
    try:
        return _sym(np.linalg.solve(xt, yt))
    except np.linalg.LinAlgError:
        out = np.full(yt.shape, np.nan)
        for j, (a, b) in enumerate(zip(xt, yt)):
            try:
                out[j] = _sym(np.linalg.solve(a, b))
            except np.linalg.LinAlgError:
                break
        return out


def solve_riccati(model: LinearModel, grid) -> RiccatiSolution:
    """Propagate the covariance Riccati equation exactly over the given grid.

    With the constant Hamiltonian H = [[-F^T, Q], [R, F]], the flow over j
    steps maps Sigma_k to Sigma_{k+j} = Y X^{-1}, where [X; Y] =
    expm(H h)^j [I; Sigma_k] (Davison & Maki, IEEE TAC 18(1), 1973).  The
    grid must be evenly spaced (_even_grid), so expm(H h) and its powers up
    to m = min(64, max(1, floor(1 / (|H|_2 h)))) are formed once.  The grid
    is stepped in blocks of m steps: the powers give all of a block's
    covariances from one batched solve, and the next block restarts from the
    last of them.  The bound on m keeps every power within norm e; grids
    with |H|_2 h > 1/2 step one node at a time.
    Stores the symmetrized covariance and the optimal gain at every node.
    Raises RuntimeError with the first bad step and its time if X is
    singular or the covariance turns non-finite.
    """
    grid, h = _even_grid(grid)
    n = model.n
    ham = _hamiltonian(model)
    span = max(np.linalg.norm(ham, 2) * h, 1.0 / _MAX_BLOCK)
    block = min(max(1, int(1.0 / span)), grid.size - 1)
    out = np.empty((grid.size, n, n))
    out[0] = sigma = model.sigma0
    with np.errstate(over="ignore", invalid="ignore"):
        flow = expm(ham * h)
        powers = np.array([np.linalg.matrix_power(flow, j) for j in range(1, block + 1)])
        for k in range(0, grid.size - 1, block):
            phi = powers[:grid.size - 1 - k]
            sigmas = _fractional_map(phi[:, :, :n] + phi[:, :, n:] @ sigma, n)
            bad = ~np.isfinite(sigmas).all(axis=(1, 2))
            if bad.any():
                j = k + int(bad.argmax())
                raise RuntimeError(f"Riccati propagation diverged at step {j} "
                                   f"(t = {grid[j]:.6g})")
            out[k + 1:k + 1 + len(sigmas)] = sigmas
            sigma = sigmas[-1]
    return RiccatiSolution(times=grid, sigma_star=out, gains=kalman_gain(model, out))


def gain_schedule(model: LinearModel, times, keep=None) -> tuple:
    """The path-independent part of the filter on a grid, formed in one pass.

    Over the grid's one step h (_even_grid), (T, W) =
    sde_engine.record_chain(model, h), formed once, gives
    x' = Phi x + w and dz = Psi x + v, Phi and Psi the state and record rows
    of T's state columns, and W = [[Q_d, S_d], [S_d^T, R_d]] the covariance
    of (w, v).
    The filter for that chain with correlated noise (Anderson & Moore,
    Optimal Filtering, 1979) starts from sigma0 and steps

        S = Psi P Psi^T + R_d,   K = (Phi P Psi^T + S_d) S^{-1},
        P <- Phi P Phi^T + Q_d - K S K^T,

    and its estimates follow x_hat <- (Phi - K Psi) x_hat + K dz, none of
    which depends on the record.  Over a _CHECK_EVERY-step block of s steps
    from node b0, x_hat_{b0+j} = T_j [x_hat_{b0}; dz], dz the block's s
    record increments in step order, with T_0 = [I, 0] and T_{j+1} =
    (Phi - K Psi) T_j plus K in step j's columns; the same walk forms P, K
    and T_j.  T_j is kept for each of the block's rows j (keep, checked and
    laid out by _kept_blocks) and for the block's end j = s.
    Returns keep as an index array, P at every node (n_t, n, n), K over
    every step (n_t - 1, n, p) and, per block, (lo, hi, rows, transfer):
    the block's slots lo:hi, its rows and the T_j^T stacked in row order as
    (m, n + s p, n), m = hi - lo, or hi - lo + 1 with the end last when the
    end is not kept.
    """
    times, h = _even_grid(times)
    keep, blocks = _kept_blocks(keep, times.size - 1)
    n, p = model.n, model.D.shape[0]
    trans, w = record_chain(model, h)
    t_x = trans[:, :n]
    covs = np.empty((times.size, n, n))
    gains = np.empty((times.size - 1, n, p))
    transfers = []
    covs[0] = cov = model.sigma0
    for b0, (lo, hi, rows) in zip(range(0, times.size - 1, _CHECK_EVERY), blocks):
        s = min(_CHECK_EVERY, times.size - 1 - b0)
        t = np.eye(n, n + s * p)
        stack = [t.T] if 0 in rows else []
        for j in range(s):
            # M = T P T^T + W, the covariance of (x', dz) given the earlier
            # records, holds S = M_zz and K S = M_xz; P' = M_xx - K M_zx.
            joint = t_x @ cov @ t_x.T + w
            gains[b0 + j] = gain = np.linalg.solve(joint[n:, n:], joint[n:, :n]).T
            covs[b0 + j + 1] = cov = _sym(joint[:n, :n] - gain @ joint[n:, :n])
            t = (t_x[:n] - gain @ t_x[n:]) @ t
            t[:, n + j * p:n + (j + 1) * p] = gain
            if j + 1 in rows or j == s - 1:
                stack.append(t.T)
        transfers.append((lo, hi, rows, np.array(stack)))
    return keep, covs, gains, transfers


def _step_estimates(x, dz, transfer, out) -> np.ndarray:
    """Carry the estimates x, (n_records, n), over one block of
    gain_schedule's transfers, with dz, (n_records, s p), the records'
    increments over its steps in step order, by one batched product.  Each
    record and node takes a vector-matrix product of its own, of one shape,
    so its rounding depends neither on which other nodes are kept nor on how
    many records are carried with it.  Stores the kept nodes' estimates in
    out at their slots and returns x at the block's end."""
    lo, hi, _, t = transfer
    xdz = np.empty((len(x), 1, 1, t.shape[1]))
    xdz[:, 0, 0, :x.shape[1]] = x
    xdz[:, 0, 0, x.shape[1]:] = dz
    xs = (xdz @ t)[:, :, 0]
    out[:, lo:hi] = xs[:, :hi - lo]
    return xs[:, -1]


def run_filter_ensemble(model: LinearModel, times, dz, keep=None) -> tuple:
    """Kalman-filter many records sharing one evenly spaced grid, exactly.

    ``times`` must be evenly spaced (_even_grid: ValueError otherwise), as
    simulate_paths' are at any stride.  ``dz[:, k]`` is each record's
    increment over the step from ``times[k]``, shaped (n_paths, n_steps) for
    a scalar record or (n_paths, n_steps, p).
    The filter is gain_schedule's, started from x0_mean; it is unbiased, and
    P_k is its exact error covariance at node k.  All records are carried
    over each 64-step block by one batched product (_step_estimates), so a
    record's estimates do not depend on how many are filtered with it and
    match filter_paths' bitwise.
    Returns the estimates at the nodes ``keep`` lists (strictly increasing,
    by default all) as (n_paths, len(keep), n), P at every node as
    (n_t, n, n) and K over every step as (n_t - 1, n, p).
    """
    times, _ = _even_grid(times)
    dz = np.asarray(dz, dtype=float)
    if dz.ndim == 2:
        dz = dz[:, :, None]
    n, p = model.n, model.D.shape[0]
    if dz.ndim != 3 or dz.shape[0] < 1 or dz.shape[1:] != (times.size - 1, p):
        raise ValueError(f"dz must hold, for each of n_paths >= 1 records, one "
                         f"{p}-vector per grid step; got shape {dz.shape}")
    keep, covs, gains, transfers = gain_schedule(model, times, keep)
    records = dz.reshape(len(dz), -1)
    x = np.broadcast_to(model.x0_mean, (len(dz), n))
    out = np.empty((len(dz), keep.size, n))
    for b0, transfer in zip(range(0, dz.shape[1], _CHECK_EVERY), transfers):
        x = _step_estimates(x, records[:, b0 * p:(b0 + _CHECK_EVERY) * p], transfer, out)
    return out, covs, gains


def filter_paths(model: AugmentedModel, config: SimConfig, keep) -> tuple:
    """Sample the model's records and filter them as they are sampled.

    Each block of sde_engine.sample_blocks is carried through the filter of
    gain_schedule(model, time_grid(config), keep) as it arrives, by that
    block's estimate transfer: the block's record row holds the increments
    over its steps, bitwise simulate_paths' dz.  Only the nodes ``keep``
    lists (strictly increasing) are stored.  Returns z_p (n_paths,), x_o at
    the kept nodes (n_paths, len(keep), 2), the estimates there
    (n_paths, len(keep), n), bitwise what simulate_paths with every node
    kept and run_filter_ensemble give, and P at every node (n_t, n, n).
    Memory is one sampler block of one chunk plus n_paths * len(keep)
    values, on top of the schedule's P and transfers.
    """
    keep, covs, gains, transfers = gain_schedule(model, time_grid(config), keep)
    del gains  # never read here: not held through the sampling
    n_paths, n = config.n_paths, model.n
    z_p = np.empty(n_paths)
    x_o = np.empty((n_paths, keep.size, 2))
    x_hat = np.empty((n_paths, keep.size, n))
    for start, stop, b0, z_vals, states in sample_blocks(model, config):
        nc = stop - start
        if b0 == 0:
            z_p[start:stop] = z_vals[:nc]
            x = np.broadcast_to(model.x0_mean, (nc, n))
        transfer = transfers[b0 // _CHECK_EVERY]
        lo, hi, rows, _ = transfer
        x_o[start:stop, lo:hi] = states[rows, :2, :nc].transpose(2, 0, 1)
        x = _step_estimates(x, states[1:, 2, :nc].T, transfer, x_hat[start:stop])
    return z_p, x_o, x_hat, covs


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
