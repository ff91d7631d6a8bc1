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
sample_blocks, is one linear recursion driven by three sequential RNG
streams (plant values, initial quadratures, noise) read in path order, and
hands out its live states, each with the record increment of the step that
ends there, one block of steps of one chunk of paths at a time.  It steps
between the grid nodes its caller lists: every node when every step's
record increment is needed (paths.csv, the filter), otherwise node 0 and
the kept nodes alone, one exact step per gap, since the chain's law over
any interval is one exponential away.  Its consumers (simulate_paths here,
kalman_filter.filter_paths) take what they need from each block as it
arrives and store only the nodes their caller keeps, as _kept_blocks lays
them out on the sampler's own steps, so they need memory for one chunk's
noise draws, one row per sampler step, plus n_paths values per kept node,
not n_paths * n_steps.
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
    "sample_blocks",
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
    time), ``x_o[i, k]`` its observer quadratures at ``times[k]`` and, on the
    full grid, ``dz[i, k]`` its homodyne record increment over the step from
    ``times[k]``.  Shapes: times (n_t,), z_p (n_paths,), x_o (n_paths, n_t, 2),
    dz (n_paths, n_t - 1) on the full grid and (n_paths, 0) on a sub-grid.
    """

    times: np.ndarray
    z_p: np.ndarray
    x_o: np.ndarray
    dz: np.ndarray


def time_grid(config: SimConfig) -> np.ndarray:
    return np.arange(config.n_steps + 1) * config.dt


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


def _checked_nodes(nodes, n_steps: int, name: str = "keep") -> np.ndarray:
    """nodes, by default every node, as an index array; ValueError naming
    ``name`` unless it is a non-empty, strictly increasing 1-d integer
    sequence in [0, n_steps]."""
    nodes = np.arange(n_steps + 1) if nodes is None else np.asarray(nodes)
    if (nodes.ndim != 1 or nodes.size < 1 or nodes.dtype.kind not in "iu"
            or nodes[0] < 0 or nodes[-1] > n_steps or np.any(np.diff(nodes) <= 0)):
        raise ValueError(f"{name} must be strictly increasing node indices in "
                         f"[0, {n_steps}]; got {nodes!r}")
    return nodes


def _kept_blocks(keep, n_steps: int) -> tuple:
    """Where the nodes keep lists fall in the sampler's blocks of steps.

    keep, by default every node, is checked by _checked_nodes.  Returns keep
    as an index array and, for each _CHECK_EVERY-step block from node b0 in
    turn, (lo, hi, rows): keep[lo:hi] are the block's kept nodes, so their
    slots are consecutive, and rows their rows in the block's states, whose
    row 0 is node b0 (the previous block's last node, so it counts here only
    when b0 is 0).  Nodes and steps here are the sampler's own.
    """
    keep = _checked_nodes(keep, n_steps)
    blocks = []
    for b0 in range(0, n_steps, _CHECK_EVERY):
        n = min(_CHECK_EVERY, n_steps - b0)
        lo, hi = np.searchsorted(keep, (b0 + (b0 > 0), b0 + n + 1))
        blocks.append((lo, hi, keep[lo:hi] - b0))
    return keep, blocks


def sample_blocks(model: AugmentedModel, config: SimConfig, nodes=None):
    """Sample the reduced model's paths, handing out one block of steps at a time.

    The sampler steps between the grid nodes ``nodes`` lists, strictly
    increasing from node 0, by default every node.  Over a gap of g grid
    steps the live state s = (x_o, dz) follows one linear recursion

        s_{k+1} = T s_k + drift z_p + L eta_k,    eta_k ~ N(0, I),

    read off record_chain(model, g * dt) for the chain (z_p, x_o, record): T
    and drift are the live rows of its transition in the x_o and z_p
    columns, T's record column is zero, and L L^T is the live block of its
    noise covariance, so every step has the exact joint law of the model
    over its gap and the record entry of s_{k+1} is the record increment dz
    over step k.  The chain is formed once per distinct gap.
    SeedSequence(seed).spawn(3) gives three generators, read in path order:
    one uniform per path for z_p, two normals per path for x_o(0), and
    (len(nodes) - 1, n_noise) normals per path for eta, one row per step of
    the sampler.  Paths are sampled _CHUNK at a time and stepped in blocks of
    _CHECK_EVERY of the sampler's steps; every matrix product spans at least
    two paths, so a path's values are bitwise the same whatever the ensemble
    size, and reruns are bitwise reproducible.  The conserved plant value
    never enters the propagated state, so it is constant by construction on
    every path.

    For each block of each chunk, in that order, yields (start, stop, b0,
    z_vals, states): the chunk holds paths start to stop - 1, z_vals (width,)
    their plant values and states (n + 1, 3, width) the live (x_o, dz) at
    the sampler's nodes b0 to b0 + n, nodes[b0:b0 + n + 1], so states[1:, 2]
    holds the increments over the block's n steps (states[0, 2] is 0 at node
    0).  A lone path is padded to width 2 with an idle column (plant value 0,
    zero draws), which consumers may step but not report.  The buffers are
    reused, so a block is valid only until the next is requested.  Each
    block is checked for finite values before it is handed out; a
    non-finite one raises RuntimeError naming the path and the grid step.
    Memory is one chunk's noise draws, _CHUNK * (len(nodes) - 1) * n_noise
    values, plus one block.
    """
    n_paths = config.n_paths
    nodes = _checked_nodes(nodes, config.n_steps, "nodes")
    if nodes[0] != 0:
        raise ValueError(f"nodes must start at node 0; got {nodes!r}")
    gaps, gap_index = np.unique(np.diff(nodes), return_inverse=True)
    n_steps = gap_index.size
    support, p_plus = two_point_law(model.x0_mean[0], model.sigma0[0, 0])
    mean_o = model.x0_mean[1:, None]
    factor_o = _psd_factor(model.sigma0[1:, 1:])

    # The live rows of the chain (x_o, r): z_p enters through its column, and
    # r's column is dropped, so each step's record entry is its increment.
    transitions, drifts, noise_factors = [], [], []
    for g in gaps:
        chain, chain_cov = record_chain(model, g * config.dt)
        chain[:, 3] = 0.0
        transitions.append(chain[1:, 1:])
        drifts.append(chain[1:, 0])
        noise_factors.append(_psd_factor(chain_cov[1:, 1:]))
    drifts, noise_factors = np.array(drifts)[:, :, None], np.array(noise_factors)
    n_noise = noise_factors.shape[2]

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
        forcing = drifts * z_vals
        block = np.empty((_CHECK_EVERY + 1, 3, width))
        noise = np.empty((_CHECK_EVERY, 3, width))
        block[0, :2] = mean_o + factor_o @ x0.T
        block[0, 2] = 0.0

        for b0 in range(0, n_steps, _CHECK_EVERY):
            n = min(_CHECK_EVERY, n_steps - b0)
            steps = gap_index[b0:b0 + n]
            np.matmul(noise_factors[steps], eta[:width, b0:b0 + n].transpose(1, 2, 0),
                      out=noise[:n])
            noise[:n] += forcing[steps]
            for j, g in enumerate(steps.tolist()):
                np.matmul(transitions[g], block[j], out=block[j + 1])
                block[j + 1] += noise[j]
            _finiteness_check(block[n, :, :nc], ids, nodes[b0 + n])
            yield start, stop, b0, z_vals, block[:n + 1]
            block[0] = block[n]


def simulate_paths(model: AugmentedModel, config: SimConfig, keep=None) -> Ensemble:
    """Sample trajectories and homodyne records of the reduced model.

    The paths are sample_blocks' (see there for the recursion, the RNG
    streams and the chunking), and a path's values do not depend on how many
    paths are drawn with it.  ``keep`` lists the grid nodes to return,
    strictly increasing, as in kalman_filter.run_filter_ensemble; by default
    every node is kept, and dz, the sampler's per-step increments, is stored
    only then.  The sampler steps from node 0 straight to each kept node, one
    exact step per gap, so keep=[n_steps] takes one step per path and its
    x_o there, drawn from its exact law, differs in value from the full
    run's.  z_p and x_o(0) are the full run's bitwise.  Only the kept nodes'
    x_o are stored, gathered from each block as it arrives, so memory is
    n_paths * len(keep) values plus one _CHUNK-path chunk's noise draws,
    _CHUNK * len(keep) * n_noise values, whatever n_steps.
    """
    n_paths, n_steps = config.n_paths, config.n_steps
    keep = _checked_nodes(keep, n_steps)
    every = keep.size == n_steps + 1
    nodes = keep if keep[0] == 0 else np.concatenate([[0], keep])
    _, blocks = _kept_blocks(np.arange(nodes.size - keep.size, nodes.size), nodes.size - 1)
    z_p = np.empty(n_paths)
    x_o = np.empty((n_paths, keep.size, 2))
    dz = np.empty((n_paths, n_steps if every else 0))
    for start, stop, b0, z_vals, states in sample_blocks(model, config, nodes):
        nc = stop - start
        if b0 == 0:
            z_p[start:stop] = z_vals[:nc]
        lo, hi, rows = blocks[b0 // _CHECK_EVERY]
        x_o[start:stop, lo:hi] = states[rows, :2, :nc].transpose(2, 0, 1)
        if every:
            dz[start:stop, b0:b0 + len(states) - 1] = states[1:, 2, :nc].T

    times = keep * config.dt  # time_grid(config)[keep], without the whole grid
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
    the step starting at t_k; the final row pads dz with 0, so ens must hold
    every grid node (simulate_paths with keep=None): ValueError otherwise.
    The whole ensemble is checked for finite values first, so a bad path is
    named and no file is created.  export.write_csv then renders a lazy view
    with one block per path, so memory does not grow with n_paths: path_id
    and z_p_true are formatted once per path and t once per worker, only dz
    and x_o row by row, and the paths are split across the usable CPUs.
    """
    if ens.dz.shape != (ens.z_p.size, ens.times.size - 1):
        raise ValueError(f"paths.csv needs every node: dz has shape {ens.dz.shape}, not "
                         f"one increment per step {(ens.z_p.size, ens.times.size - 1)}; "
                         "simulate_paths gives it with keep=None")
    finite = np.isfinite(ens.x_o).all(axis=(1, 2)) & np.isfinite(ens.dz).all(axis=1)
    if not finite.all():
        raise ValueError(f"non-finite value in path {int(np.argmin(finite))}")
    write_csv(path, ("path_id", "t", "dz", "x_o_1", "x_o_2", "z_p_true"), _PathBlocks(ens))
