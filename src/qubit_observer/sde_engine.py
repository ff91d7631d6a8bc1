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
which is what makes the record informative for filtering.  The sampler,
sample_blocks, is one linear recursion driven by seeded RNG streams (plant
values and initial quadratures in path order, noise one stream per chunk
of paths), and hands out its live states, each with the record increment
of the step that ends there, one block of _CHECK_EVERY steps of one chunk
of paths at a time.  It steps one fixed stride of grid steps: every node
when every step's record increment is needed (paths.csv, the filter), or
straight from node 0 to the last when only that node is (a simulate
without paths.csv), since the chain's law over any interval is one
exponential away.  Each block's noise is drawn just before the block is
stepped, and its consumers (simulate_paths here, kalman_filter.filter_paths)
take what they need from each block as it arrives, so the sampler's own
memory is one block of one chunk, whatever the step count.
"""

import math
from dataclasses import dataclass

import numpy as np

from .export import FLOAT_FMT, SLOT, check_finite, write_rendered
from .model_builder import AugmentedModel, LinearModel
from .spin_algebra import _Grid, _integer, expm, time_grid

__all__ = [
    "SimConfig",
    "Ensemble",
    "time_grid",
    "exact_lti_step",
    "record_chain",
    "two_point_law",
    "sample_blocks",
    "simulate_paths",
    "ensemble_mean_cov",
    "write_paths_csv",
]

_CHUNK = 256
_CHECK_EVERY = 64


@dataclass(frozen=True)
class SimConfig(_Grid):
    """Simulation grid (spin_algebra._Grid: its rule and n_steps), ensemble
    size and seed."""

    dt: float = 0.01
    t_final: float = 10.0
    n_paths: int = 2000
    seed: int = 0

    def __post_init__(self):
        super().__post_init__()
        n_paths = _integer("n_paths", self.n_paths)
        seed = _integer("seed", self.seed)
        if n_paths < 1:
            raise ValueError("n_paths must be >= 1")
        if not 0 <= seed < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")
        object.__setattr__(self, "n_paths", n_paths)
        object.__setattr__(self, "seed", seed)


@dataclass(frozen=True)
class Ensemble:
    """Sampled paths as arrays, one row per path, all on the nodes ``times``.

    ``times`` is the simulation grid, or every stride-th node of it.
    ``z_p[i]`` is the realized plant value of path i (constant in time),
    ``x_o[i, k]`` its observer quadratures at ``times[k]`` and ``dz[i, k]``
    its homodyne record increment from ``times[k]`` to ``times[k + 1]``.
    Shapes: times (n_t,), z_p (n_paths,), x_o (n_paths, n_t, 2),
    dz (n_paths, n_t - 1).
    """

    times: np.ndarray
    z_p: np.ndarray
    x_o: np.ndarray
    dz: np.ndarray


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
    """Factor L with L L^T = cov for a symmetric PSD matrix, rank-deficiency
    allowed; eigenvalues below zero by up to 1e-10 of the largest (or of 1)
    are roundoff and are clipped."""
    cov = 0.5 * (cov + cov.T)
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        w, v = np.linalg.eigh(cov)
        if w.min() < -1e-10 * max(1.0, w.max()):
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


def sample_blocks(model: AugmentedModel, config: SimConfig, stride: int = 1):
    """Sample the reduced model's paths, handing out one block of steps at a time.

    The sampler takes n_steps // stride steps of stride grid steps each from
    node 0; stride must divide n_steps (SimConfig.strides, ValueError
    otherwise).  The live state s = (x_o, dz) follows one linear recursion

        s_{k+1} = T s_k + drift z_p + L eta_k,    eta_k ~ N(0, I),

    read off record_chain(model, stride * dt) for the chain (z_p, x_o,
    record): T and drift are the live rows of its transition in the x_o and
    z_p columns, T's record column is zero, and L L^T is the live block of
    its noise covariance, so every step has the exact joint law of the model
    over stride grid steps and the record entry of s_{k+1} is the record
    increment dz over step k.
    Paths are sampled in chunks of _CHUNK, chunk c holding paths
    c * _CHUNK onward in its columns; every chunk is _CHUNK columns wide, and
    the columns past n_paths are idle (plant value 0, zero x_o(0) draws):
    they are stepped but never reported.  SeedSequence(seed).spawn(3)[:2]
    give one uniform per path for z_p and two normals per path for x_o(0),
    read in path order, and chunk c's noise comes from its own generator,
    SeedSequence(seed, spawn_key=(2, c)) (child c of spawn(3)[2]), which
    gives one (n_noise, _CHUNK) array of normals per sampler step, in step
    order, drawn a block of _CHECK_EVERY steps at a time just before the
    block is stepped.  Every matrix product has the same shape whatever
    n_paths, so a path's values are bitwise the same whatever the ensemble
    size, and reruns are bitwise reproducible.  The conserved plant value
    never enters the propagated state, so it is constant by construction on
    every path.

    For each block of each chunk, in that order, yields (start, stop, b0,
    z_vals, states): the chunk's paths start to stop - 1 are its first
    stop - start columns, z_vals (_CHUNK,) the plant values and states
    (n + 1, 3, _CHUNK) the live (x_o, dz) at the sampler's nodes b0 to
    b0 + n, grid nodes b0 * stride to (b0 + n) * stride, so states[1:, 2]
    holds the increments over the block's n steps (states[0, 2] is 0 at
    node 0).  The buffers are reused, so a block is valid only until the
    next is requested.  Each block is checked for finite values before it
    is handed out; a non-finite one raises RuntimeError naming the path and
    the grid step, (b0 + n) * stride.
    Memory is one block of one chunk, about 3 * _CHUNK * (2 _CHECK_EVERY +
    1) values with its noise, whatever the step count.
    """
    n_paths = config.n_paths
    n_steps = config.strides(stride)
    stride = int(stride)
    support, p_plus = two_point_law(model.x0_mean[0], model.sigma0[0, 0])
    mean_o = model.x0_mean[1:, None]
    factor_o = _psd_factor(model.sigma0[1:, 1:])

    # The live rows of the chain (x_o, r): z_p enters through its column, and
    # r's column is dropped, so each step's record entry is its increment.
    chain, chain_cov = record_chain(model, stride * config.dt)
    chain[:, 3] = 0.0
    transition, drift = chain[1:, 1:], chain[1:, 0, None]
    noise_factor = _psd_factor(chain_cov[1:, 1:])

    z_rng, x0_rng = (np.random.default_rng(s) for s in
                     np.random.SeedSequence(config.seed).spawn(3)[:2])
    z_vals = np.empty(_CHUNK)
    x0 = np.empty((_CHUNK, 2))
    m = min(_CHECK_EVERY, n_steps)
    eta = np.empty((m, noise_factor.shape[1], _CHUNK))
    noise = np.empty((m, 3, _CHUNK))
    block = np.empty((m + 1, 3, _CHUNK))
    for c, start in enumerate(range(0, n_paths, _CHUNK)):
        stop = min(start + _CHUNK, n_paths)
        ids = range(start, stop)
        nc = stop - start
        z_vals[nc:] = x0[nc:] = 0.0
        z_vals[:nc] = np.where(z_rng.random(nc) < p_plus, support, -support)
        x0_rng.standard_normal(out=x0[:nc])
        noise_rng = np.random.default_rng(
            np.random.SeedSequence(config.seed, spawn_key=(2, c)))
        forcing = drift * z_vals
        block[0, :2] = mean_o + factor_o @ x0.T
        block[0, 2] = 0.0

        for b0 in range(0, n_steps, _CHECK_EVERY):
            n = min(_CHECK_EVERY, n_steps - b0)
            noise_rng.standard_normal(out=eta[:n])
            np.matmul(noise_factor, eta[:n], out=noise[:n])
            noise[:n] += forcing
            for j in range(n):
                np.matmul(transition, block[j], out=block[j + 1])
                block[j + 1] += noise[j]
            _finiteness_check(block[n, :, :nc], ids, (b0 + n) * stride)
            yield start, stop, b0, z_vals, block[:n + 1]
            block[0] = block[n]


def simulate_paths(model: AugmentedModel, config: SimConfig, stride: int = 1) -> Ensemble:
    """Sample trajectories and homodyne records of the reduced model.

    The paths are sample_blocks' (see there for the recursion, the RNG
    streams and the chunking), and a path's values do not depend on how many
    paths are drawn with it.  The ensemble is returned on the nodes 0,
    stride, ..., n_steps, with dz the record increment over each stride of
    grid steps; stride must divide n_steps (SimConfig.strides, ValueError
    otherwise), by default 1, every node.  Each sampler step is
    one exact step of stride grid steps, so stride=n_steps takes one step
    per path and its x_o at n_steps, drawn from its exact law, differs in
    value from the stride-1 run's; z_p and x_o(0) are the stride-1 run's
    bitwise.  Memory is n_paths * (3 n_steps / stride + 3) values plus one
    block of one chunk.
    """
    n_paths = config.n_paths
    n_steps = config.strides(stride)
    z_p = np.empty(n_paths)
    x_o = np.empty((n_paths, n_steps + 1, 2))
    dz = np.empty((n_paths, n_steps))
    for start, stop, b0, z_vals, states in sample_blocks(model, config, stride):
        nc, n = stop - start, len(states) - 1
        if b0 == 0:
            z_p[start:stop] = z_vals[:nc]
        x_o[start:stop, b0:b0 + n + 1] = states[:, :2, :nc].transpose(2, 0, 1)
        dz[start:stop, b0:b0 + n] = states[1:, 2, :nc].T

    times = time_grid(config, stride)
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
    the step starting at t_k; the final row pads dz with 0.  The ensemble is
    checked first, in one vectorized pass: a non-finite value raises
    ValueError naming its block, the path's index, and no file is created.
    The t column is formatted once per file into a row template with a
    FLOAT_FMT slot for each of dz, x_o_1 and x_o_2; path_id and z_p_true are
    filled in once per path, and export.write_rendered splits the paths
    across the usable CPUs.  Every cell reads as format(x, FLOAT_FMT).
    """
    finite = (np.isfinite(ens.z_p) & np.isfinite(ens.dz).all(axis=1)
              & np.isfinite(ens.x_o).all(axis=(1, 2)))
    if not finite.all():
        pid = int(np.argmin(finite))
        check_finite(np.column_stack([np.append(ens.dz[pid], 0.0), ens.x_o[pid],
                                      np.full(ens.times.size, ens.z_p[pid])]), pid)
    rows = [f",{format(t, FLOAT_FMT)},{SLOT},{SLOT},{SLOT}," for t in ens.times.tolist()]
    cells = np.zeros((len(rows), 3))

    def render(pid):
        path_id = format(float(pid), FLOAT_FMT)
        z_p = format(ens.z_p[pid].item(), FLOAT_FMT)
        cells[:-1, 0] = ens.dz[pid]
        cells[:, 1:] = ens.x_o[pid]
        template = path_id + f"{z_p}\n{path_id}".join(rows) + z_p + "\n"
        return template % tuple(cells.ravel().tolist())

    write_rendered(path, ("path_id", "t", "dz", "x_o_1", "x_o_2", "z_p_true"),
                   ens.z_p.size, render)
