"""Stochastic trajectories and homodyne records for the reduced model.

The conserved plant variable commutes with everything the homodyne detector
sees, so record statistics are classical and the model can be sampled as an
ordinary SDE: the plant value is drawn from the two-point law on the spectrum
{+|c_p|, -|c_p|} that reproduces its quantum mean and variance exactly, and
the observer quadratures are driven by unit-intensity Wiener increments.

The joint (state, integrated record) chain is discretized exactly through
the matrix exponential by record_chain, the one exact step that the sampler
and kalman_filter both take, so any step size yields the correct joint law.
Within a step the same noise increment drives the state and the record,
which is what makes the record informative for filtering.  The sampler is
one linear recursion driven by three sequential RNG streams (plant values,
initial quadratures, noise) read in path order.  It takes every step but
stores only the nodes its caller keeps, the quadratures there and the record
increments between them, so terminal statistics need memory for n_paths
terminal values plus one chunk's noise draws, not n_paths * n_steps.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .export import write_csv
from .model_builder import AugmentedModel, LinearModel
from .spin_algebra import _checked_grid, _integer

__all__ = [
    "SimConfig",
    "Ensemble",
    "time_grid",
    "exact_lti_step",
    "record_chain",
    "two_point_law",
    "simulate_paths",
    "ensemble_mean_cov",
    "write_paths_csv",
]

_CHUNK = 256
_CHECK_EVERY = 64


@dataclass(frozen=True)
class SimConfig:
    """Simulation grid, ensemble size and seed."""

    dt: float = 0.01
    t_final: float = 10.0
    n_paths: int = 2000
    seed: int = 0

    def __post_init__(self):
        dt, t_final = _checked_grid(self.dt, self.t_final)
        n_paths = _integer("n_paths", self.n_paths)
        seed = _integer("seed", self.seed)
        if n_paths < 1:
            raise ValueError("n_paths must be >= 1")
        if not 0 <= seed < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")
        object.__setattr__(self, "dt", dt)
        object.__setattr__(self, "t_final", t_final)
        object.__setattr__(self, "n_paths", n_paths)
        object.__setattr__(self, "seed", seed)

    @property
    def n_steps(self) -> int:
        return int(round(self.t_final / self.dt))


@dataclass(frozen=True)
class Ensemble:
    """Sampled paths as arrays, one row per path, all on the nodes ``times``.

    ``times`` is the simulation grid, or the sub-grid of the nodes the caller
    kept.  ``z_p[i]`` is the realized plant value of path i (constant in
    time), ``x_o[i, k]`` its observer quadratures at ``times[k]`` and
    ``dz[i, k]`` its homodyne record increment from ``times[k]`` to
    ``times[k + 1]``.  Shapes: times (n_t,), z_p (n_paths,),
    x_o (n_paths, n_t, 2), dz (n_paths, n_t - 1).
    """

    times: np.ndarray
    z_p: np.ndarray
    x_o: np.ndarray
    dz: np.ndarray


def time_grid(config: SimConfig) -> np.ndarray:
    return np.arange(config.n_steps + 1) * config.dt


def _checked_keep(keep, n_nodes: int) -> np.ndarray:
    """keep as an index array; ValueError unless it is a non-empty, strictly
    increasing 1-d integer sequence in [0, n_nodes - 1].  None keeps every node."""
    keep = np.arange(n_nodes) if keep is None else np.asarray(keep)
    if (keep.ndim != 1 or keep.size < 1 or keep.dtype.kind not in "iu"
            or keep[0] < 0 or keep[-1] >= n_nodes or np.any(np.diff(keep) <= 0)):
        raise ValueError(f"keep must be strictly increasing node indices in "
                         f"[0, {n_nodes - 1}]; got {keep!r}")
    return keep


def exact_lti_step(a, b, dt: float) -> tuple:
    """Exact one-step discretization of dx = a x dt + b dw.

    Returns (transition, noise_cov):

        transition = exp(a dt),
        noise_cov  = int_0^dt exp(a s) b b^T exp(a^T s) ds,

    noise_cov from one exponential of an affine system (Van Loan, IEEE TAC
    23(3), 1978): the vectorized Lyapunov equation S' = a S + S a^T + b b^T
    from S = 0, whose modes lambda_i + lambda_j do not grow when a is stable,
    whatever dt.  The discrete chain x_{k+1} = transition x_k + N(0, noise_cov)
    matches the continuous marginals exactly for any dt.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n = a.shape[0]
    lyap = np.zeros((n * n + 1, n * n + 1))
    lyap[:-1, :-1] = np.kron(a, np.eye(n)) + np.kron(np.eye(n), a)
    lyap[:-1, -1] = (b @ b.T).reshape(-1)
    noise_cov = expm(lyap * dt)[:-1, -1].reshape(n, n)
    return expm(a * dt), 0.5 * (noise_cov + noise_cov.T)


def record_chain(model: LinearModel, h: float) -> tuple:
    """Exact step of length h of the (state, integrated record) chain.

    s = (x, r) with dr = dz = D (C x dt + dw) follows ds = [[A, 0], [D C, 0]] s dt
    + [B; D] dw, so exact_lti_step of that system gives (transition, noise_cov)
    with s' = transition s + N(0, noise_cov): the state rows of transition map
    x to x', its record rows map x to the increment r' - r, and noise_cov is
    the joint covariance of the state and record noise over the step.  The
    sampler and the filter both step this chain.
    """
    n, p = model.n, model.D.shape[0]
    a = np.block([[model.A, np.zeros((n, p))], [model.DC, np.zeros((p, p))]])
    return exact_lti_step(a, np.vstack([model.B, model.D]), h)


def _psd_factor(cov: np.ndarray) -> np.ndarray:
    """Factor L with L L^T = cov for a symmetric PSD matrix, rank-deficiency allowed."""
    cov = 0.5 * (cov + cov.T)
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        w, v = np.linalg.eigh(cov)
        if w.min() < -1e-10:
            raise ValueError(f"covariance not PSD (min eig {w.min():.3e})") from None
        return v * np.sqrt(np.clip(w, 0.0, None))


def two_point_law(mean: float, variance: float) -> tuple:
    """Support magnitude and upper-point probability of the two-point law.

    The unique distribution on {+s, -s} with the given mean has
    s = sqrt(variance + mean^2) and P(+s) = (1 + mean/s)/2; it reproduces the
    requested variance as well.  Zero mean and variance degenerate to the
    point mass at 0.
    """
    mean = float(mean)
    variance = float(variance)
    if variance < -1e-12:
        raise ValueError("variance must be nonnegative")
    support = math.sqrt(max(variance, 0.0) + mean * mean)
    if support == 0.0:
        return 0.0, 1.0
    p_plus = min(max(0.5 * (1.0 + mean / support), 0.0), 1.0)
    return support, p_plus


def _finiteness_check(x: np.ndarray, path_ids, step: int) -> None:
    if np.isfinite(x).all():
        return
    bad = np.argwhere(~np.isfinite(x))
    j = int(bad[0, -1])
    raise RuntimeError(
        f"path {path_ids[j]} produced a non-finite state near step {step}; "
        "the model's dynamics are unstable"
    )


def simulate_paths(model: AugmentedModel, config: SimConfig, keep=None) -> Ensemble:
    """Sample trajectories and homodyne records of the reduced model.

    The live state s = (x_o, integrated record) follows one linear recursion

        s_{k+1} = T s_k + drift z_p + L eta_k,    eta_k ~ N(0, I),

    read off record_chain(model, dt) for the chain (z_p, x_o, record): T and
    drift are the live rows of its transition in the live and z_p columns,
    and L L^T is the live block of its noise covariance, so every step has
    the exact joint law of the model.
    SeedSequence(seed).spawn(3) gives three generators, read in path order:
    one uniform per path for z_p, two normals per path for x_o(0), and
    (n_steps, n_noise) normals per path for eta.  Paths are sampled _CHUNK at
    a time and stepped in blocks of _CHECK_EVERY steps; every matrix product
    spans at least two paths, so a path's values are bitwise the same whatever
    the ensemble size, and reruns are bitwise reproducible.  The conserved
    plant value never enters the propagated state, so it is constant by
    construction on every path.

    ``keep`` lists the grid nodes to return, strictly increasing, as in
    kalman_filter.run_filter_ensemble; by default every node is kept.  Every
    step is taken whatever ``keep`` is, but only the kept nodes are stored:
    x_o there, and dz as the difference of the integrated record between
    consecutive kept nodes, which on the full grid is the per-step increment.
    Memory is therefore n_paths * len(keep) values plus one _CHUNK-path
    chunk's noise draws, _CHUNK * n_steps * n_noise values, so keep=[n_steps]
    removes the n_paths * n_steps growth but not the chunk's growth in n_steps.
    """
    n_paths = config.n_paths
    n_steps = config.n_steps
    keep = _checked_keep(keep, n_steps + 1)
    times = time_grid(config)[keep]
    support, p_plus = two_point_law(model.x0_mean[0], model.sigma0[0, 0])
    mean_o = model.x0_mean[1:, None]
    factor_o = _psd_factor(model.sigma0[1:, 1:])

    # The live rows of the chain (x_o, r): z_p enters through its column.
    chain, chain_cov = record_chain(model, config.dt)
    transition, drift = chain[1:, 1:], chain[1:, 0]
    noise_factor = _psd_factor(chain_cov[1:, 1:])
    n_noise = noise_factor.shape[1]

    z_p = np.empty(n_paths)
    x_o = np.empty((n_paths, keep.size, 2))
    dz = np.empty((n_paths, keep.size - 1))
    z_rng, x0_rng, noise_rng = (np.random.default_rng(s) for s in
                                np.random.SeedSequence(config.seed).spawn(3))
    # A one-column product goes through BLAS's matrix-vector kernel, which
    # rounds differently from the matrix-matrix one; a lone path is therefore
    # padded with an idle column whose draws are zero.
    eta = np.zeros((max(min(n_paths, _CHUNK), 2), n_steps, n_noise))
    for start in range(0, n_paths, _CHUNK):
        stop = min(start + _CHUNK, n_paths)
        ids = range(start, stop)
        nc = stop - start
        width = max(nc, 2)
        z_vals = np.zeros(width)
        z_vals[:nc] = np.where(z_rng.random(nc) < p_plus, support, -support)
        x0 = np.zeros((width, 2))
        x0_rng.standard_normal(out=x0[:nc])
        eta[nc:width] = 0.0
        noise_rng.standard_normal(out=eta[:nc])
        forcing = drift[:, None] * z_vals
        block = np.empty((_CHECK_EVERY + 1, 3, width))
        noise = np.empty((_CHECK_EVERY, 3, width))
        block[0, :2] = mean_o + factor_o @ x0.T
        block[0, 2] = 0.0
        z_p[start:stop] = z_vals[:nc]
        if keep[0] == 0:
            x_o[start:stop, 0] = block[0, :2, :nc].T
        last = np.zeros(nc)  # the record at the latest kept node (node 0's is 0)

        for b0 in range(0, n_steps, _CHECK_EVERY):
            n = min(_CHECK_EVERY, n_steps - b0)
            np.matmul(noise_factor, eta[:width, b0:b0 + n].transpose(1, 2, 0), out=noise[:n])
            noise[:n] += forcing
            for j in range(n):
                np.matmul(transition, block[j], out=block[j + 1])
                block[j + 1] += noise[j]
            lo, hi = np.searchsorted(keep, (b0 + 1, b0 + n + 1))
            rows = keep[lo:hi] - b0
            if hi > lo:
                x_o[start:stop, lo:hi] = block[rows, :2, :nc].transpose(2, 0, 1)
                record = block[rows, 2, :nc]  # the integrated record at keep[lo:hi]
                if lo > 0:
                    np.subtract(record[0], last, out=dz[start:stop, lo - 1])
                dz[start:stop, lo:hi - 1] = (record[1:] - record[:-1]).T
                last = record[-1]
            _finiteness_check(block[n, :, :nc], ids, b0 + n)
            block[0] = block[n]

    for a in (times, z_p, x_o, dz):
        a.setflags(write=False)
    return Ensemble(times=times, z_p=z_p, x_o=x_o, dz=dz)


def ensemble_mean_cov(samples) -> tuple:
    """Mean vector and unbiased covariance of (n_samples, dim) data.

    Uses exactly rounded compensated sums, so the result is independent of
    the order in which paths were aggregated.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim == 1:
        samples = samples[:, None]
    n, dim = samples.shape
    mean = np.array([math.fsum(samples[:, j]) / n for j in range(dim)])
    resid = samples - mean
    cov = np.empty((dim, dim))
    for i in range(dim):
        for j in range(i, dim):
            cij = math.fsum(resid[:, i] * resid[:, j]) / max(n - 1, 1)
            cov[i, j] = cij
            cov[j, i] = cij
    return mean, cov


class _PathBlocks:
    """The rows of paths.csv as a sequence of (n_t, 6) blocks, one per path,
    each built when it is indexed."""

    def __init__(self, ens: Ensemble):
        self.ens = ens

    def __len__(self) -> int:
        return self.ens.z_p.size

    def __getitem__(self, pid: int) -> np.ndarray:
        ens = self.ens
        block = np.empty((ens.times.size, 6))
        block[:, 0] = pid
        block[:, 1] = ens.times
        block[:-1, 2] = ens.dz[pid]
        block[-1, 2] = 0.0
        block[:, 3:5] = ens.x_o[pid]
        block[:, 5] = ens.z_p[pid]
        return block


def write_paths_csv(path, ens: Ensemble) -> None:
    """Concatenated per-path CSV: path_id, t, dz, x_o_1, x_o_2, z_p_true.

    Row k of a path carries the state at t_k and the record increment over
    the step starting at t_k; the final row pads dz with 0.  The whole
    ensemble is checked for finite values first, so a bad path is named and
    no file is created.  export.write_csv then renders a lazy view with one
    block per path, so memory does not grow with n_paths: path_id and
    z_p_true are formatted once per path and t once per worker, only dz and
    x_o row by row, and the paths are split across the usable CPUs.
    """
    finite = np.isfinite(ens.x_o).all(axis=(1, 2)) & np.isfinite(ens.dz).all(axis=1)
    if not finite.all():
        raise ValueError(f"non-finite value in path {int(np.argmin(finite))}")
    write_csv(path, ("path_id", "t", "dz", "x_o_1", "x_o_2", "z_p_true"), _PathBlocks(ens))
