import numpy as np
import pytest

from dataclasses import replace

from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply

from qubit_observer.fock_oracle import (FockConfig, FockTruncationError,
                                        JointState, OperatorSet,
                                        build_operators, coherent_state,
                                        destroy, evolve, expectations,
                                        joint_initial_state, liouvillian,
                                        quadratures, reduced_mean_trajectory,
                                        write_oracle_csv)
from qubit_observer.spin_algebra import PAULI

EIGENSTATE = 0.5 * np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)  # sigma_1 -> +1
MIXED = 0.5 * np.eye(2, dtype=complex)


def test_quadrature_commutator_below_truncation():
    """[q, p] = 2i away from the top Fock level."""
    n_levels = 12
    q, p = quadratures(n_levels)
    comm = q @ p - p @ q
    block = comm[: n_levels - 1, : n_levels - 1]
    np.testing.assert_allclose(block, 2j * np.eye(n_levels - 1), atol=1e-12)


def test_coupling_operator_solves_quadrature_relation():
    """L + L^dag = sqrt(k) q and (L - L^dag)/i = sqrt(k) p, elementwise."""
    ops = build_operators(np.zeros(3), [1.0, 0.0, 0.0], [0.3, -0.4], 1.0, 4.0, 8)
    lind = np.asarray(ops.lindblad)
    np.testing.assert_allclose(lind + lind.conj().T, 2.0 * ops.q, atol=1e-12)
    np.testing.assert_allclose((lind - lind.conj().T) / 1j, 2.0 * ops.p, atol=1e-12)


def test_hamiltonian_vanishes_without_coupling_or_detuning():
    ops = build_operators(np.zeros(3), [1.0, 0.0, 0.0], [0.0, 0.0], 0.0, 4.0, 6)
    np.testing.assert_array_equal(ops.h_total, np.zeros_like(ops.h_total))


def test_qnd_commutators_vanish_exactly():
    ops = build_operators(np.zeros(3), [1.0, 0.0, 0.0], [1.0, 0.0], 1.0, 4.0, 10)
    h_comm = ops.z_p @ ops.h_total - ops.h_total @ ops.z_p
    l_comm = ops.z_p @ ops.lindblad - ops.lindblad @ ops.z_p
    assert np.abs(h_comm).max() <= 1e-12
    assert np.abs(l_comm).max() <= 1e-12


def test_free_evolution_is_identity():
    dim = 2 * 7
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = 0.6
    rho[1, 1] = 0.4
    state = JointState(rho)
    # diagonal readouts that tell every populated level apart
    readout = np.diag(np.arange(dim, dtype=complex))
    ops = OperatorSet(h_total=np.zeros((dim, dim), dtype=complex),
                      lindblad=np.zeros((dim, dim), dtype=complex),
                      z_p=readout, q=readout ** 2, p=-readout, n_trunc=6)
    times, traces = evolve(state, ops, FockConfig(n_trunc=6, dt=0.01, t_final=0.5))
    for name in ("exp_zp", "exp_zp_sq", "exp_q", "exp_p", "leakage", "trace_drift"):
        series = getattr(traces, name)
        np.testing.assert_allclose(series[-1], series[0], atol=1e-14)


def test_lossy_cavity_decay_of_coherent_state():
    """<a>(t) = alpha exp(-kappa t / 2) for the undriven damped cavity."""
    kappa = 4.0
    n_trunc = 12
    ops = build_operators(np.zeros(3), [1.0, 0.0, 0.0], [0.0, 0.0], 0.0, kappa, n_trunc)
    state = joint_initial_state(np.diag([1.0, 0.0]), n_trunc, alpha=0.5)
    times, traces = evolve(state, ops, FockConfig(n_trunc=n_trunc, dt=1e-3, t_final=1.0))
    mean_a = 0.5 * (traces.exp_q + 1j * traces.exp_p)  # q + i p = 2a
    np.testing.assert_allclose(mean_a, 0.5 * np.exp(-0.5 * kappa * times), atol=1e-8)


def test_trace_preserved_long_run():
    ops = build_operators(np.zeros(3), [1.0, 0.0, 0.0], [1.0, 0.0], 1.0, 4.0, 10)
    state = joint_initial_state(MIXED, 10)
    times, traces = evolve(state, ops, FockConfig(n_trunc=10, dt=1e-3, t_final=5.0,
                                                  store_every=100))
    assert traces.trace_drift.max() <= 1e-8 * max(times[-1], 1.0)


def test_zp_expectation_constant_for_pinned_state():
    """sigma_3 eigenstate with c_p = e_3 keeps the readout at exactly one."""
    ops = build_operators(np.zeros(3), [0.0, 0.0, 1.0], [1.0, 0.0], 1.0, 4.0, 14)
    state = joint_initial_state(np.diag([1.0, 0.0]), 14)
    times, traces = evolve(state, ops, FockConfig(n_trunc=14, dt=1e-3, t_final=1.0,
                                                  store_every=20))
    np.testing.assert_allclose(traces.exp_zp, 1.0, atol=1e-6)
    np.testing.assert_allclose(traces.exp_zp_sq, 1.0, atol=1e-6)


def test_quadrature_means_stay_zero_for_mixed_qubit():
    ops = build_operators(np.zeros(3), [1.0, 0.0, 0.0], [1.0, 0.0], 1.0, 4.0, 12)
    state = joint_initial_state(MIXED, 12)
    _, traces = evolve(state, ops, FockConfig(n_trunc=12, dt=1e-3, t_final=1.0,
                                              store_every=20))
    np.testing.assert_allclose(traces.exp_q, 0.0, atol=1e-6)
    np.testing.assert_allclose(traces.exp_p, 0.0, atol=1e-6)


def test_quadrature_means_follow_reduced_model():
    """Eigenstate driving reproduces the linear mean ODE within 1e-4."""
    ops = build_operators(np.zeros(3), [1.0, 0.0, 0.0], [1.0, 0.0], 1.0, 4.0, 20)
    state = joint_initial_state(EIGENSTATE, 20)
    times, traces = evolve(state, ops, FockConfig(n_trunc=20, dt=1e-3, t_final=2.0,
                                                  store_every=10))
    reference = reduced_mean_trajectory(1.0, 4.0, [1.0, 0.0], traces.exp_zp[0],
                                        (traces.exp_q[0], traces.exp_p[0]), times)
    deviation = np.abs(np.column_stack([traces.exp_q, traces.exp_p]) - reference)
    assert deviation.max() <= 1e-4
    # sign convention pin: the mean must approach (-0.5, -0.5), not a flip;
    # a flipped rotation or coupling sign would land O(1) away
    np.testing.assert_allclose(
        [traces.exp_q[-1], traces.exp_p[-1]], [-0.5, -0.5], atol=0.05)


def test_truncation_guard_raises():
    """Strong drive at low truncation must surface a clean leakage error."""
    ops = build_operators(np.zeros(3), [1.0, 0.0, 0.0], [1.0, 0.0], 0.0, 0.5, 4)
    state = joint_initial_state(EIGENSTATE, 4)
    with pytest.raises(FockTruncationError):
        evolve(state, ops, FockConfig(n_trunc=4, dt=1e-3, t_final=5.0))


def test_coherent_state_normalized():
    vec = coherent_state(15, 0.7)
    assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)
    vec0 = coherent_state(15, 0.0)
    np.testing.assert_array_equal(vec0[1:], np.zeros(14))


def test_joint_state_validation():
    with pytest.raises(ValueError):
        JointState(np.eye(4))  # trace 4
    bad = np.zeros((4, 4), dtype=complex)
    bad[0, 0] = 1.0
    bad[0, 1] = 0.5  # not Hermitian
    with pytest.raises(ValueError):
        JointState(bad)


def test_expectations_rejects_corrupted_state():
    ops = build_operators(np.zeros(3), [1.0, 0.0, 0.0], [1.0, 0.0], 1.0, 4.0, 4)
    dim = 2 * 5
    rho = np.zeros((1, dim, dim), dtype=complex)
    rho[0, 0, 0] = 0.5
    rho[0, 0, 1] = 0.5j  # non-Hermitian corruption
    rho[0, 1, 1] = 0.5
    with pytest.raises(ValueError):
        expectations(rho, ops)


def test_oracle_csv(tmp_path):
    ops = build_operators(np.zeros(3), [1.0, 0.0, 0.0], [1.0, 0.0], 1.0, 4.0, 8)
    state = joint_initial_state(MIXED, 8)
    times, traces = evolve(state, ops, FockConfig(n_trunc=8, dt=1e-2, t_final=0.1))
    out = tmp_path / "oracle.csv"
    write_oracle_csv(out, times, traces)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,exp_zp,exp_q,exp_p,leakage"
    assert len(lines) == 1 + times.size


def _dense_superoperator(ops: OperatorSet) -> np.ndarray:
    """Lindblad generator on column-stacked vec(rho), one basis matrix at a time."""
    h, lind = np.asarray(ops.h_total), np.asarray(ops.lindblad)
    ldl = lind.conj().T @ lind
    dim = h.shape[0]
    gen = np.empty((dim * dim, dim * dim), dtype=complex)
    for col in range(dim * dim):
        unit = np.zeros(dim * dim, dtype=complex)
        unit[col] = 1.0
        rho = unit.reshape(dim, dim, order="F")
        image = (-1j * (h @ rho - rho @ h) + lind @ rho @ lind.conj().T
                 - 0.5 * (ldl @ rho + rho @ ldl))
        gen[:, col] = image.reshape(-1, order="F")
    return gen


def _reference_traces(ops, state, times, propagate):
    """Readouts of propagate(vec(rho0), t) at each stored time."""
    dim = state.rho.shape[0]
    vec0 = np.asarray(state.rho).reshape(-1, order="F")
    rhos = np.array([propagate(vec0, t).reshape(dim, dim, order="F") for t in times])
    return expectations(0.5 * (rhos + rhos.conj().transpose(0, 2, 1)), ops)


def test_evolve_matches_dense_exponential():
    """vec/kron ordering pinned against expm of a generator built entrywise."""
    n_trunc = 5
    ops = build_operators(np.zeros(3), [0.6, 0.0, 0.8], [0.7, -0.3], 1.3, 2.0, n_trunc)
    state = joint_initial_state(EIGENSTATE, n_trunc, alpha=0.4 + 0.2j)
    gen = _dense_superoperator(ops)
    np.testing.assert_allclose(liouvillian(ops).toarray(), gen, atol=1e-14)
    times, traces = evolve(state, ops, FockConfig(n_trunc=n_trunc, dt=1e-2, t_final=0.6,
                                                  store_every=5, leakage_threshold=1e-2))
    ref = _reference_traces(ops, state, times, lambda v, t: expm(gen * t) @ v)
    for name in ("exp_zp", "exp_zp_sq", "exp_q", "exp_p", "leakage", "trace_drift"):
        np.testing.assert_allclose(getattr(traces, name), getattr(ref, name),
                                   rtol=0, atol=1e-12, err_msg=name)


def test_evolve_blocks_and_tail_match_single_shot():
    """More stored nodes than one block, and n_steps not a multiple of store_every."""
    n_trunc = 5
    ops = build_operators(np.zeros(3), [1.0, 0.0, 0.0], [1.0, 0.5], 1.0, 4.0, n_trunc)
    state = joint_initial_state(EIGENSTATE, n_trunc)
    config = FockConfig(n_trunc=n_trunc, dt=1e-2, t_final=0.63, store_every=2,
                        leakage_threshold=1e-2)
    times, traces = evolve(state, ops, config)
    stored = list(range(0, 64, 2)) + [63]
    np.testing.assert_allclose(times, np.array(stored) * 1e-2, rtol=0, atol=1e-15)
    assert times.size == 33  # block of 25, block of 6, then the 1-step tail
    single = expm_multiply(liouvillian(ops), np.asarray(state.rho).reshape(-1, order="F"),
                           start=0.0, stop=0.63, num=64, endpoint=True)
    ref = _reference_traces(ops, state, stored, lambda v, k: single[k])
    for name in ("exp_zp", "exp_zp_sq", "exp_q", "exp_p", "leakage", "trace_drift"):
        np.testing.assert_allclose(getattr(traces, name), getattr(ref, name),
                                   rtol=0, atol=1e-12, err_msg=name)


def test_non_hermitian_hamiltonian_trips_trace_drift():
    """h = 5i sigma_1 (x) I: rho(t) = e^{5 sigma_1 t} rho e^{-5 sigma_1 t} keeps its trace
    only through cancelling entries of size e^{10 t}, which roundoff cannot hold."""
    n_trunc = 4
    ops = build_operators(np.zeros(3), [1.0, 0.0, 0.0], [0.0, 0.0], 0.0, 4.0, n_trunc)
    pump = 5j * np.kron(PAULI.matrices()[0], np.eye(n_trunc + 1))
    state = joint_initial_state(np.diag([1.0, 0.0]), n_trunc)
    with pytest.raises(RuntimeError, match="trace drift"):
        evolve(state, replace(ops, h_total=pump),
               FockConfig(n_trunc=n_trunc, dt=1e-2, t_final=3.0))
