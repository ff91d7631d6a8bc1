"""Operator-level oracle on the qubit x truncated-oscillator space.

Evolves the joint density matrix under the full coupling Hamiltonian and the
cavity decay channel, then compares exact expectations against the reduced
linear model's means, which reduced_mean_trajectory gives in closed form and
which share no numerics with the sampler or the filter.  This is the arbiter
for every sign convention in the package: the conserved plant combination
must stay put, and the oscillator quadrature means must follow the reduced
drift without any sign flips.

Conventions: oscillator quadratures q = a + a^dag, p = -i(a - a^dag), so
[q, p] = 2i away from the truncation edge, matching the 2i Theta commutators
of the spin sector.  The decay operator sqrt(kappa) a reproduces the
coupling relation (L + L^dag, (L - L^dag)/i) = sqrt(kappa) (q, p).
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from .export import write_csv
from .spin_algebra import _THETA, PAULI, _frozen, _Grid, _integer, _real, time_grid

__all__ = [
    "FockConfig",
    "JointState",
    "OperatorSet",
    "ExpectationTraces",
    "FockTruncationError",
    "destroy",
    "quadratures",
    "coherent_state",
    "build_operators",
    "joint_initial_state",
    "evolve",
    "expectations",
    "reduced_mean_trajectory",
    "write_oracle_csv",
]


class FockTruncationError(RuntimeError):
    """Raised when population leaks into the top of the truncated Fock space."""


@dataclass(frozen=True)
class FockConfig(_Grid):
    """Stored-node grid (spin_algebra._Grid) and truncation level of the joint
    evolution.

    The propagation is exact; the node step store_every * dt only spaces the
    stored nodes, which are also where leakage and trace drift are checked.
    store_every must divide n_steps (_Grid.strides, ValueError otherwise),
    so the last stored node is t_final rounded to the grid, n_steps * dt.
    """

    dt: float = 1e-3
    t_final: float = 2.5
    n_trunc: int = 20
    leakage_threshold: float = 1e-6
    store_every: int = 1

    def __post_init__(self):
        super().__post_init__()
        n_trunc = _integer("n_trunc", self.n_trunc)
        if n_trunc < 4:
            raise ValueError("n_trunc must be >= 4")
        leakage_threshold = _real("leakage_threshold", self.leakage_threshold)
        if leakage_threshold <= 0.0:
            raise ValueError("leakage_threshold must be positive")
        self.strides(self.store_every, "store_every")
        object.__setattr__(self, "n_trunc", n_trunc)
        object.__setattr__(self, "leakage_threshold", leakage_threshold)
        object.__setattr__(self, "store_every", int(self.store_every))


@dataclass(frozen=True)
class JointState:
    """Density matrix on qubit (x) oscillator, dimension 2 (n_trunc + 1)."""

    rho: np.ndarray

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=complex)
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1] or rho.shape[0] % 2:
            raise ValueError("rho must be square with even dimension")
        if not np.allclose(rho, rho.conj().T, atol=1e-12):
            raise ValueError("rho must be Hermitian")
        if abs(np.trace(rho) - 1.0) > 1e-9:
            raise ValueError("rho must have unit trace")
        if np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min() < -1e-9:
            raise ValueError("rho must be positive semidefinite")
        object.__setattr__(self, "rho", _frozen(rho))


@dataclass(frozen=True)
class OperatorSet:
    """Joint-space operators: Hamiltonian, decay channel, and readouts."""

    h_total: np.ndarray
    lindblad: np.ndarray
    z_p: np.ndarray
    q: np.ndarray
    p: np.ndarray
    n_trunc: int


def destroy(n_levels: int) -> np.ndarray:
    """Truncated annihilation operator on n_levels Fock states."""
    a = np.zeros((n_levels, n_levels), dtype=complex)
    for n in range(1, n_levels):
        a[n - 1, n] = np.sqrt(n)
    return a


def quadratures(n_levels: int) -> tuple:
    """q = a + a^dag and p = -i (a - a^dag) on the truncated space."""
    a = destroy(n_levels)
    return a + a.conj().T, -1j * (a - a.conj().T)


def coherent_state(n_levels: int, alpha: complex) -> np.ndarray:
    """Truncated coherent state vector, renormalized after truncation."""
    n = np.arange(n_levels)
    log_fact = np.cumsum(np.concatenate(([0.0], np.log(np.arange(1, n_levels)))))
    amps = np.exp(n * np.log(complex(alpha)) - 0.5 * log_fact) if alpha != 0 else \
        np.concatenate(([1.0 + 0j], np.zeros(n_levels - 1, dtype=complex)))
    amps = np.asarray(amps, dtype=complex)
    return amps / np.linalg.norm(amps)


def build_operators(r_p, c_p, beta, omega_o: float, kappa: float,
                    n_trunc: int) -> OperatorSet:
    """Assemble the joint Hamiltonian, decay operator and readout operators.

    h_total = (r_p . sigma) (x) I + (c_p . sigma) (x) (beta . (q, p))
              + I (x) (omega_o/2)(q^2 + p^2);
    the decay operator is sqrt(kappa) I (x) a; z_p = (c_p . sigma) (x) I.
    beta = 0 is accepted here (it just removes the coupling term) so the
    closed-system limit can be exercised directly, and so is any r_p, so the
    oracle can show a plant Hamiltonian that moves z_p.
    """
    r_p = np.asarray(r_p, dtype=float)
    c_p = np.asarray(c_p, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if r_p.shape != (3,) or c_p.shape != (3,) or beta.shape != (2,):
        raise ValueError("r_p and c_p must be 3-vectors and beta a 2-vector")
    if kappa <= 0.0:
        raise ValueError("kappa must be positive")
    n_levels = int(n_trunc) + 1
    a = destroy(n_levels)
    q, p = quadratures(n_levels)
    eye_q = np.eye(2, dtype=complex)
    eye_o = np.eye(n_levels, dtype=complex)
    spin = sum(ci * si for ci, si in zip(c_p, PAULI))
    h_plant = sum(ri * si for ri, si in zip(r_p, PAULI))
    h_total = np.kron(h_plant, eye_o) + np.kron(spin, beta[0] * q + beta[1] * p)
    h_total = h_total + np.kron(eye_q, 0.5 * omega_o * (q @ q + p @ p))
    lindblad = np.sqrt(kappa) * np.kron(eye_q, a)
    return OperatorSet(
        h_total=_frozen(h_total),
        lindblad=_frozen(lindblad),
        z_p=_frozen(np.kron(spin, eye_o)),
        q=_frozen(np.kron(eye_q, q)),
        p=_frozen(np.kron(eye_q, p)),
        n_trunc=int(n_trunc),
    )


def joint_initial_state(rho_p, n_trunc: int, alpha: complex = 0.0) -> JointState:
    """Qubit density matrix tensored with a coherent (default vacuum) oscillator state."""
    rho_p = np.asarray(rho_p, dtype=complex)
    vec = coherent_state(int(n_trunc) + 1, alpha)
    return JointState(np.kron(rho_p, np.outer(vec, vec.conj())))


# At most this many stored nodes are propagated per block, a whole number of
# expansions: the states of one block are the only density matrices alive at
# once, so memory does not grow with the number of nodes.
_BLOCK = 25


def _row_gather(mat: np.ndarray) -> list:
    """Terms (cols, vals) with mat @ x == sum of vals[:, None] * x[cols]: the
    nonzeros of each row, padded with zeros to the longest row."""
    counts = np.count_nonzero(mat, axis=1)
    cols = np.zeros((mat.shape[0], max(1, counts.max())), dtype=np.intp)
    for i, row in enumerate(mat):
        cols[i, :counts[i]] = np.flatnonzero(row)
    vals = np.take_along_axis(mat, cols, axis=1)
    vals[np.arange(cols.shape[1]) >= counts[:, None]] = 0.0
    return list(zip(cols.T, vals.T))


def _generator(ops: OperatorSet) -> tuple:
    """(action, mu, norm) of the Lindblad generator shifted by -mu I.

    action maps a Hermitian rho to Y + Y^dag with Y = G rho + (1/2) L rho L^dag
    and G = -iH - (1/2) L^dag L - (mu/2) I, through row gathers over the
    nonzeros of G and L, so it makes no BLAS call.  mu is the mean of the
    superoperator's diagonal, and norm bounds the shifted superoperator's
    1-norm column by column: column (a, b) holds the off-diagonal entries of
    G's columns a and b, G_aa + conj(G_bb), and the products of L's columns
    a and b.
    """
    h, lind = np.asarray(ops.h_total), np.asarray(ops.lindblad)
    dim = h.shape[0]
    # einsum, not @: see expectations
    gen = -1j * h - 0.5 * np.einsum("ji,jk->ik", lind.conj(), lind)
    mu = 2.0 * np.trace(gen).real / dim + abs(np.trace(lind)) ** 2 / dim ** 2
    gen[np.diag_indices(dim)] -= 0.5 * mu
    diag = np.diagonal(gen)
    off = np.abs(gen).sum(axis=0) - np.abs(diag)
    lcol = np.abs(lind).sum(axis=0)
    norm = float(np.max(off[:, None] + off + np.abs(diag[:, None] + diag.conj())
                        + np.outer(lcol, lcol)))
    g_terms = [(cols, np.repeat(vals[:, None], dim, axis=1))
               for cols, vals in _row_gather(gen)]
    l_terms = [(rows, cols, 0.5 * np.outer(v_rows, v_cols.conj()))
               for rows, v_rows in _row_gather(lind) for cols, v_cols in _row_gather(lind)]

    def action(rho):
        y = np.zeros_like(rho)
        for rows, cols, w in l_terms:
            y += w * rho.take(rows, 0).take(cols, 1)
        for cols, w in g_terms:
            y += w * rho.take(cols, 0)
        return y + y.conj().T

    return action, mu, norm


def _taylor_plan(norm: float, mu: float, step: float) -> tuple:
    """(d, s, tau, weights) for node steps of length step.

    One expansion spans tau = d step / s and gives d nodes when s = 1, or one
    sub-step of s per node when d = 1: d <= _BLOCK and s are chosen with the
    degree m (a key of _THETA) so that tau norm <= theta_m at the fewest
    generator actions per node, m s / d.  Node j of an expansion is
    sum_p weights[p, j - 1] T_p, weights[p, j - 1] = e^{mu j tau / d} (j/d)^p,
    over the m + 1 terms T_p = (tau / p) action(T_{p-1}).  A zero generator
    takes no terms.
    """
    reach = norm * step
    if reach == 0.0:
        m, d, s = 0, _BLOCK, 1
    else:
        plans = []
        for m, theta in _THETA.items():
            d = int(min(_BLOCK, theta / reach))
            plans.append((m, d, 1) if d else (m, 1, math.ceil(reach / theta)))
        m, d, s = min(plans, key=lambda plan: plan[0] * plan[2] / plan[1])
    frac = np.arange(1, d + 1) / d
    weights = np.exp(mu * step / s * np.arange(1, d + 1)) * frac ** np.arange(m + 1)[:, None]
    return d, s, d * step / s, weights


def _expansion(action, rho: np.ndarray, tau: float, weights: np.ndarray) -> np.ndarray:
    """sum_p weights[p, j] T_p for every column j of weights, T_0 = rho and
    T_p = (tau / p) action(T_{p-1}), summed as each term is made."""
    out = weights[0][:, None, None] * rho
    term = rho
    # the weights are real: multiplying float views halves the work
    flat = out.view(float)
    for p in range(1, weights.shape[0]):
        term = action(term)
        term *= tau / p
        flat += weights[p][:, None, None] * term.view(float)
    return out


def _propagate(action, rho: np.ndarray, plan: tuple, count: int) -> np.ndarray:
    """The count states one node step apart after rho, as (count, dim, dim)."""
    d, s, tau, weights = plan
    out = np.empty((count,) + rho.shape, dtype=complex)
    for k in range(0, count, d):
        for _ in range(s - 1):
            rho = _expansion(action, rho, tau, weights)[0]
        n = min(d, count - k)
        out[k:k + n] = _expansion(action, rho, tau, weights[:, :n])
        rho = out[k + n - 1]
    return out


def evolve(state: JointState, ops: OperatorSet, config: FockConfig) -> tuple:
    """Exact propagation of rho' = -i[H, rho] + L rho L^dag - (1/2){L^dag L, rho}.

    The stored nodes are time_grid(config, config.store_every), every
    store_every steps of the grid up to t_final.  rho is carried from node
    to node by truncated Taylor series of the generator's exponential
    (Al-Mohy & Higham 2011), whose degree and scaling _taylor_plan fixes
    once for the node step store_every * dt, with the generator applied in
    matrix form to the Hermitian rho (H is taken Hermitian).  The nodes are
    propagated in blocks of whole expansions, at most _BLOCK nodes.  Each
    block is hermitized and reduced to expectation traces, whose health
    entries are checked at every node: a trace drift above 1e-8 per unit
    time raises RuntimeError, leakage into the top two Fock levels above the
    configured threshold raises FockTruncationError.  The block's last state
    starts the next block.
    Returns (times, traces) over the stored nodes, the first being state.rho.
    """
    action, mu, norm = _generator(ops)
    times = time_grid(config, config.store_every)
    plan = _taylor_plan(norm, mu, config.store_every * config.dt)
    per_block = plan[0] * (_BLOCK // plan[0])

    parts = [expectations(state.rho[None], ops)]
    rho = np.asarray(state.rho)
    for k in range(1, times.size, per_block):
        rhos = _propagate(action, rho, plan, min(per_block, times.size - k))
        rhos = 0.5 * (rhos + rhos.conj().transpose(0, 2, 1))
        part = expectations(rhos, ops)
        for t_now, drift, leak in zip(times[k:], part.trace_drift, part.leakage):
            if not drift <= 1e-8 * max(t_now, 1.0):
                raise RuntimeError(
                    f"trace drift {drift:.3e} at t = {t_now:.6g}; "
                    f"the generator does not preserve the trace"
                )
            if not leak <= config.leakage_threshold:
                raise FockTruncationError(
                    f"Fock leakage {leak:.3e} exceeds {config.leakage_threshold:.1e} "
                    f"at t = {t_now:.6g}; increase n_trunc"
                )
        parts.append(part)
        rho = rhos[-1]
    return times, ExpectationTraces(**{
        f.name: _frozen(np.concatenate([getattr(part, f.name) for part in parts]))
        for f in fields(ExpectationTraces)})


@dataclass(frozen=True)
class ExpectationTraces:
    """Real expectation traces of the joint evolution, with per-node health."""

    exp_zp: np.ndarray
    exp_zp_sq: np.ndarray
    exp_q: np.ndarray
    exp_p: np.ndarray
    leakage: np.ndarray
    trace_drift: np.ndarray


def expectations(rho_series: np.ndarray, ops: OperatorSet) -> ExpectationTraces:
    """Expectation traces tr(rho X) for the plant combination and quadratures,
    plus the leakage into the top two Fock levels (summed over the qubit) and
    |tr rho - 1| of every density matrix in the series."""
    # einsum, not @: a threaded BLAS product here leaves OpenBLAS workers
    # spinning through evolve's propagation, doubling its CPU time
    zp2 = np.einsum("ij,jk->ik", ops.z_p, ops.z_p)

    def real_trace(op, label):
        vals = np.einsum("kij,ji->k", rho_series, op)
        bad = np.abs(vals.imag) > 1e-9
        if bad.any():
            raise ValueError(f"expectation of {label} has imaginary part "
                             f"{vals.imag[bad][0]:.3e}")
        return _frozen(vals.real)

    n_levels = ops.n_trunc + 1
    diag = np.real(np.diagonal(rho_series, axis1=1, axis2=2))
    top = [n_levels - 1, n_levels - 2, 2 * n_levels - 1, 2 * n_levels - 2]
    return ExpectationTraces(
        exp_zp=real_trace(ops.z_p, "z_p"),
        exp_zp_sq=real_trace(zp2, "z_p^2"),
        exp_q=real_trace(ops.q, "q"),
        exp_p=real_trace(ops.p, "p"),
        leakage=_frozen(diag[:, top].sum(axis=1)),
        trace_drift=_frozen(np.abs(diag.sum(axis=1) - 1.0)),
    )


def reduced_mean_trajectory(omega_o: float, kappa: float, beta, z_bar: float,
                            x_o0, times) -> np.ndarray:
    """Mean quadratures of the reduced model at the given times, in closed form.

    d m/dt = Atilde m + f from m(0) = x_o0, with Atilde = -kappa/2 I + 2 omega_o J
    and f = 2 J beta z_bar, is solved by

        m(t) = m_inf + exp(-kappa t / 2) R(2 omega_o t) (m(0) - m_inf),

    where R(theta) = cos(theta) I + sin(theta) J = exp(theta J) since J^2 = -I,
    and m_inf = -Atilde^{-1} f = (kappa/2 I + 2 omega_o J) f / (kappa^2/4 + 4 omega_o^2).
    Returns the means at ``times`` (strictly increasing, nonnegative) as
    (len(times), 2).  Everything is built here from (omega_o, kappa, beta),
    independently of the model builder, the sampler and the master-equation
    propagation it is compared with.
    """
    beta = np.asarray(beta, dtype=float)
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 1 or times[0] < 0.0 or np.any(np.diff(times) <= 0.0):
        raise ValueError("times must be strictly increasing and nonnegative")
    j2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    forcing = 2.0 * (j2 @ beta) * z_bar
    settled = (0.5 * kappa * forcing + 2.0 * omega_o * (j2 @ forcing)) / (
        0.25 * kappa ** 2 + 4.0 * omega_o ** 2)
    start = np.asarray(x_o0, dtype=float) - settled
    theta = 2.0 * omega_o * times
    decay = np.exp(-0.5 * kappa * times)[:, None]
    return settled + decay * (np.cos(theta)[:, None] * start
                              + np.sin(theta)[:, None] * (j2 @ start))


def write_oracle_csv(path, times, traces: ExpectationTraces) -> None:
    """CSV columns t, exp_zp, exp_q, exp_p, leakage, as one block."""
    write_csv(path, ("t", "exp_zp", "exp_q", "exp_p", "leakage"), [np.column_stack([
        times, traces.exp_zp, traces.exp_q, traces.exp_p, traces.leakage])])
