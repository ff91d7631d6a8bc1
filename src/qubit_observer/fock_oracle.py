"""Operator-level oracle on the qubit x truncated-oscillator space.

Evolves the joint density matrix under the full coupling Hamiltonian and the
cavity decay channel, then compares exact expectations against the reduced
linear model.  This is the arbiter for every sign convention in the package:
the conserved plant combination must stay put, and the oscillator quadrature
means must follow the reduced drift without any sign flips.

Conventions: oscillator quadratures q = a + a^dag, p = -i(a - a^dag), so
[q, p] = 2i away from the truncation edge, matching the 2i Theta commutators
of the spin sector.  The decay operator sqrt(kappa) a reproduces the
coupling relation (L + L^dag, (L - L^dag)/i) = sqrt(kappa) (q, p).
"""

from dataclasses import dataclass, fields

import numpy as np
from scipy.linalg import expm

from .export import write_csv
from .spin_algebra import PAULI, _frozen

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
    "liouvillian",
    "evolve",
    "expectations",
    "reduced_mean_trajectory",
    "write_oracle_csv",
]


class FockTruncationError(RuntimeError):
    """Raised when population leaks into the top of the truncated Fock space."""


@dataclass(frozen=True)
class FockConfig:
    """Truncation level and stored-node grid of the joint evolution.

    The propagation is exact; dt * store_every only spaces the stored nodes,
    which are also where leakage and trace drift are checked.
    """

    n_trunc: int = 20
    dt: float = 1e-3
    t_final: float = 2.5
    leakage_threshold: float = 1e-6
    store_every: int = 1

    def __post_init__(self):
        if int(self.n_trunc) < 4:
            raise ValueError("n_trunc must be >= 4")
        if not (self.dt > 0.0 and np.isfinite(self.dt)):
            raise ValueError("dt must be positive")
        if not (self.t_final > 0.0 and np.isfinite(self.t_final)):
            raise ValueError("t_final must be positive")
        if int(self.store_every) < 1:
            raise ValueError("store_every must be >= 1")
        object.__setattr__(self, "n_trunc", int(self.n_trunc))
        object.__setattr__(self, "dt", float(self.dt))
        object.__setattr__(self, "t_final", float(self.t_final))
        object.__setattr__(self, "leakage_threshold", float(self.leakage_threshold))
        object.__setattr__(self, "store_every", int(self.store_every))

    @property
    def n_steps(self) -> int:
        return max(1, int(round(self.t_final / self.dt)))


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
    spin = sum(ci * si for ci, si in zip(c_p, PAULI.matrices()))
    h_plant = sum(ri * si for ri, si in zip(r_p, PAULI.matrices()))
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


def _drift_and_leakage(rhos: np.ndarray, n_trunc: int) -> tuple:
    """Per node of an (n, d, d) block: |tr rho - 1| and the population of the
    top two Fock levels, summed over the qubit."""
    n_levels = n_trunc + 1
    diag = np.real(np.diagonal(rhos, axis1=1, axis2=2))
    top = [n_levels - 1, n_levels - 2, 2 * n_levels - 1, 2 * n_levels - 2]
    return np.abs(diag.sum(axis=1) - 1.0), diag[:, top].sum(axis=1)


def liouvillian(ops: OperatorSet):
    """Sparse generator of vec(rho)' for column-stacked vec(rho).

    -i (I (x) H - H^T (x) I) + conj(L) (x) L - (1/2)(I (x) L^dag L + (L^dag L)^T (x) I),
    so that vec(A rho B) = (B^T (x) A) vec(rho) reproduces
    rho' = -i[H, rho] + L rho L^dag - (1/2){L^dag L, rho}.
    """
    from scipy import sparse

    h = sparse.csr_matrix(ops.h_total)
    lind = sparse.csr_matrix(ops.lindblad)
    ldl = lind.conj().T @ lind
    eye = sparse.identity(h.shape[0], dtype=complex, format="csr")
    gen = (-1j * (sparse.kron(eye, h) - sparse.kron(h.T, eye))
           + sparse.kron(lind.conj(), lind)
           - 0.5 * (sparse.kron(eye, ldl) + sparse.kron(ldl.T, eye)))
    return gen.tocsr()


# Stored nodes propagated per expm_multiply call: the states of one block are
# the only density matrices alive at once, so memory does not grow with n_t.
_BLOCK = 25


def evolve(state: JointState, ops: OperatorSet, config: FockConfig) -> tuple:
    """Exact propagation of rho' = -i[H, rho] + L rho L^dag - (1/2){L^dag L, rho}.

    The stored nodes are every config.store_every steps of config.dt plus the
    final step.  vec(rho) is carried from node to node by the action of the
    exponential of the sparse joint Liouvillian (scipy's expm_multiply,
    Al-Mohy & Higham 2011), in blocks of at most _BLOCK nodes.  Each block is
    hermitized and checked at every node: a trace drift above 1e-8 per unit
    time raises RuntimeError, leakage into the top two Fock levels above the
    configured threshold raises FockTruncationError.  The block is then
    reduced to expectation traces and its last state starts the next block.
    Returns (times, traces) over the stored nodes, the first being state.rho.
    """
    from scipy.sparse.linalg import expm_multiply

    gen = liouvillian(ops)
    dt = config.dt
    n_steps = config.n_steps
    stride = config.store_every
    n_full = n_steps // stride
    # (step between nodes, node count) per block; an irregular tail is its own block
    blocks = [(stride * dt, min(_BLOCK, n_full - k)) for k in range(0, n_full, _BLOCK)]
    if n_steps % stride:
        blocks.append(((n_steps - n_full * stride) * dt, 1))
    stored = list(range(0, n_steps + 1, stride))
    if stored[-1] != n_steps:
        stored.append(n_steps)
    times = np.array([k * dt for k in stored])

    dim = state.rho.shape[0]
    parts = [expectations(state.rho[None], ops)]
    vec = np.asarray(state.rho).reshape(-1, order="F")
    node = 1
    for step, count in blocks:
        vecs = expm_multiply(gen, vec, start=0.0, stop=count * step,
                             num=count + 1, endpoint=True)[1:]
        rhos = vecs.reshape(count, dim, dim).transpose(0, 2, 1)
        rhos = 0.5 * (rhos + rhos.conj().transpose(0, 2, 1))
        drift, leak = _drift_and_leakage(rhos, ops.n_trunc)
        for k in range(count):
            t_now = times[node + k]
            if not drift[k] <= 1e-8 * max(t_now, 1.0):
                raise RuntimeError(
                    f"trace drift {drift[k]:.3e} at t = {t_now:.6g}; "
                    f"the generator does not preserve the trace"
                )
            if not leak[k] <= config.leakage_threshold:
                raise FockTruncationError(
                    f"Fock leakage {leak[k]:.3e} exceeds {config.leakage_threshold:.1e} "
                    f"at t = {t_now:.6g}; increase n_trunc"
                )
        parts.append(expectations(rhos, ops))
        vec = rhos[-1].reshape(-1, order="F")
        node += count
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


def _real_trace(rho: np.ndarray, op: np.ndarray, label: str) -> float:
    val = complex(np.einsum("ij,ji->", rho, op))
    if abs(val.imag) > 1e-9:
        raise ValueError(f"expectation of {label} has imaginary part {val.imag:.3e}")
    return val.real


def expectations(rho_series: np.ndarray, ops: OperatorSet) -> ExpectationTraces:
    """Expectation traces tr(rho X) for the plant combination and quadratures,
    plus the leakage and |tr rho - 1| of every density matrix in the series."""
    # einsum, not @: a threaded BLAS product here leaves OpenBLAS workers
    # spinning through evolve's propagation, doubling its CPU time
    zp2 = np.einsum("ij,jk->ik", ops.z_p, ops.z_p)
    n_t = rho_series.shape[0]
    out = {name: np.empty(n_t) for name in ("zp", "zp2", "q", "p")}
    for k in range(n_t):
        rho = rho_series[k]
        out["zp"][k] = _real_trace(rho, ops.z_p, "z_p")
        out["zp2"][k] = _real_trace(rho, zp2, "z_p^2")
        out["q"][k] = _real_trace(rho, ops.q, "q")
        out["p"][k] = _real_trace(rho, ops.p, "p")
    drift, leak = _drift_and_leakage(rho_series, ops.n_trunc)
    return ExpectationTraces(
        exp_zp=_frozen(out["zp"]),
        exp_zp_sq=_frozen(out["zp2"]),
        exp_q=_frozen(out["q"]),
        exp_p=_frozen(out["p"]),
        leakage=_frozen(leak),
        trace_drift=_frozen(drift),
    )


def reduced_mean_trajectory(omega_o: float, kappa: float, beta, z_bar: float,
                            x_o0, times) -> np.ndarray:
    """Mean quadratures of the reduced model on a uniform grid, solved exactly.

    Integrates d m/dt = Atilde m + 2 J beta z_bar through the exact affine
    one-step propagator, independently of the master-equation integrator.
    """
    beta = np.asarray(beta, dtype=float)
    times = np.asarray(times, dtype=float)
    j2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    a_tilde = -0.5 * kappa * np.eye(2) + 2.0 * omega_o * j2
    forcing = 2.0 * (j2 @ beta) * z_bar
    steps = np.diff(times)
    if steps.size and np.max(np.abs(steps - steps[0])) > 1e-12:
        raise ValueError("reduced_mean_trajectory requires a uniform grid")
    out = np.empty((times.size, 2))
    out[0] = np.asarray(x_o0, dtype=float)
    if steps.size == 0:
        return out
    h = steps[0]
    aff = np.zeros((3, 3))
    aff[:2, :2] = a_tilde
    aff[:2, 2] = forcing
    prop = expm(aff * h)
    m = out[0]
    for k in range(1, times.size):
        m = prop[:2, :2] @ m + prop[:2, 2]
        out[k] = m
    return out


def write_oracle_csv(path, times, traces: ExpectationTraces) -> None:
    """CSV columns t, exp_zp, exp_q, exp_p, leakage."""
    def rows():
        for k, t in enumerate(times):
            yield (t, traces.exp_zp[k], traces.exp_q[k], traces.exp_p[k],
                   traces.leakage[k])

    write_csv(path, ("t", "exp_zp", "exp_q", "exp_p", "leakage"), rows())
