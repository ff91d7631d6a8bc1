"""Stochastic trajectories and homodyne records for the reduced model.

The conserved plant variable commutes with everything the homodyne detector
sees, so record statistics are classical and the model can be sampled as an
ordinary SDE: the plant value is drawn from the two-point law on the spectrum
{+|c_p|, -|c_p|} that reproduces its quantum mean and variance exactly, and
the observer quadratures are driven by unit-intensity Wiener increments.

The joint (state, record) process is discretized exactly through the matrix
exponential, so any step size yields the correct joint law.  Within a step
the same noise increment drives the state and the record, which is what
makes the record informative for filtering.  The sampler is one linear
recursion driven by three sequential RNG streams (plant values, initial
quadratures, noise) read in path order.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .model_builder import AugmentedModel

__all__ = [
    "SimConfig",
    "Ensemble",
    "time_grid",
    "exact_lti_step",
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

    dt: float
    t_final: float
    n_paths: int
    seed: int

    def __post_init__(self):
        dt = float(self.dt)
        t_final = float(self.t_final)
        n_paths = int(self.n_paths)
        seed = int(self.seed)
        if not (np.isfinite(dt) and dt > 0.0):
            raise ValueError("dt must be positive")
        if not (np.isfinite(t_final) and t_final > dt):
            raise ValueError("t_final must exceed dt")
        if t_final / dt > 1e8:
            raise ValueError("t_final/dt exceeds the 1e8 step guard")
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
        return max(1, int(round(self.t_final / self.dt)))


@dataclass(frozen=True)
class Ensemble:
    """Sampled paths as arrays, one row per path, all on the grid ``times``.

    ``z_p[i]`` is the realized plant value of path i (constant in time),
    ``x_o[i, k]`` its observer quadratures at ``times[k]`` and ``dz[i, k]``
    its homodyne record increment over the step starting at ``times[k]``.
    Shapes: times (n_t,), z_p (n_paths,), x_o (n_paths, n_t, 2),
    dz (n_paths, n_t - 1).
    """

    times: np.ndarray
    z_p: np.ndarray
    x_o: np.ndarray
    dz: np.ndarray


def time_grid(config: SimConfig) -> np.ndarray:
    return np.arange(config.n_steps + 1) * config.dt


def exact_lti_step(a, b, dt: float, u=None) -> tuple:
    """Exact one-step discretization of dx = (a x + u) dt + b dw.

    Returns (transition, drift, noise_cov):

        transition = exp(a dt),
        drift      = int_0^dt exp(a s) ds @ u            (zero if u is None),
        noise_cov  = int_0^dt exp(a s) b b^T exp(a^T s) ds,

    with the covariance integral evaluated through the block matrix
    exponential exp([[-a, b b^T], [0, a^T]] dt): the lower-right block is the
    transposed transition and noise_cov = transition @ upper-right block.
    The discrete chain x_{k+1} = transition x_k + drift + N(0, noise_cov)
    matches the continuous marginals exactly for any dt.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n = a.shape[0]
    block = np.zeros((2 * n, 2 * n))
    block[:n, :n] = -a
    block[:n, n:] = b @ b.T
    block[n:, n:] = a.T
    phi = expm(block * dt)
    transition = phi[n:, n:].T
    noise_cov = transition @ phi[:n, n:]
    noise_cov = 0.5 * (noise_cov + noise_cov.T)
    if u is None:
        drift = np.zeros(n)
    else:
        u = np.asarray(u, dtype=float)
        aff = np.zeros((n + 1, n + 1))
        aff[:n, :n] = a
        aff[:n, n] = u
        drift = expm(aff * dt)[:n, n]
    return transition, drift, noise_cov


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


def simulate_paths(model: AugmentedModel, config: SimConfig) -> Ensemble:
    """Sample trajectories and homodyne records of the reduced model.

    The live state s = (x_o, integrated record) follows one linear recursion

        s_{k+1} = T s_k + drift z_p + L eta_k,    eta_k ~ N(0, I),

    with (T, drift, L) = (exp(a dt), exact drift, chol(noise_cov)) from
    exact_lti_step, so every step has the exact joint law of the model.
    SeedSequence(seed).spawn(3) gives three generators, read in path order:
    one uniform per path for z_p, two normals per path for x_o(0), and
    (n_steps, n_noise) normals per path for eta.  Paths are sampled _CHUNK at
    a time and stepped in blocks of _CHECK_EVERY steps; every matrix product
    spans at least two paths, so a path's values are bitwise the same whatever
    the ensemble size, and reruns are bitwise reproducible.  The conserved
    plant value never enters the propagated state, so it is constant by
    construction on every path.
    """
    n_paths = config.n_paths
    n_steps = config.n_steps
    times = time_grid(config)
    support, p_plus = two_point_law(model.x0_mean[0], model.sigma0[0, 0])
    mean_o = model.x0_mean[1:, None]
    factor_o = _psd_factor(model.sigma0[1:, 1:])

    # Live subsystem: observer quadratures plus the integrated record.
    dc = model.DC[0]
    a_live = np.zeros((3, 3))
    a_live[:2, :2] = model.A[1:, 1:]
    a_live[2, :2] = dc[1:]
    u_live = np.array([model.A[1, 0], model.A[2, 0], dc[0]])
    b_live = np.vstack([model.B[1:, :], model.D])
    transition, drift, noise_cov = exact_lti_step(a_live, b_live, config.dt, u=u_live)
    noise_factor = _psd_factor(noise_cov)
    n_noise = noise_factor.shape[1]

    z_p = np.empty(n_paths)
    x_o = np.empty((n_paths, n_steps + 1, 2))
    dz = np.empty((n_paths, n_steps))
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
        x_o[start:stop, 0] = block[0, :2, :nc].T

        for b0 in range(0, n_steps, _CHECK_EVERY):
            n = min(_CHECK_EVERY, n_steps - b0)
            np.matmul(noise_factor, eta[:width, b0:b0 + n].transpose(1, 2, 0), out=noise[:n])
            noise[:n] += forcing
            for j in range(n):
                np.matmul(transition, block[j], out=block[j + 1])
                block[j + 1] += noise[j]
            x_o[start:stop, b0 + 1:b0 + n + 1] = block[1:n + 1, :2, :nc].transpose(2, 0, 1)
            np.subtract(block[1:n + 1, 2, :nc].T, block[:n, 2, :nc].T,
                        out=dz[start:stop, b0:b0 + n])
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


def write_paths_csv(path, ens: Ensemble) -> None:
    """Concatenated per-path CSV: path_id, t, dz, x_o_1, x_o_2, z_p_true.

    Row k of a path carries the state at t_k and the record increment over
    the step starting at t_k; the final row pads dz with 0.  Uses one printf
    format per row (same bytes as the generic writer, much faster for the
    millions of rows a large ensemble produces) and writes path by path.
    """
    finite = np.isfinite(ens.x_o).all(axis=(1, 2)) & np.isfinite(ens.dz).all(axis=1)
    if not finite.all():
        raise ValueError(f"non-finite value in path {int(np.argmin(finite))}")
    row_fmt = "%d,%.17g,%.17g,%.17g,%.17g,%.17g\n"
    times = ens.times.tolist()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("path_id,t,dz,x_o_1,x_o_2,z_p_true\n")
        for pid, z in enumerate(ens.z_p.tolist()):
            dz_padded = ens.dz[pid].tolist() + [0.0]
            fh.write("".join(row_fmt % (pid, t, d, x1, x2, z) for t, d, (x1, x2)
                             in zip(times, dz_padded, ens.x_o[pid].tolist())))
