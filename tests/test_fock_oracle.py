import numpy as np
import pytest

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.linalg import expm
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import expm_multiply

from qubit_observer.fock_oracle import (FockConfig, FockTruncationError,
                                        JointState, OperatorSet,
                                        build_operators, coherent_state,
                                        destroy, evolve, expectations,
                                        joint_initial_state, quadratures,
                                        reduced_mean_trajectory, write_oracle_csv)
from qubit_observer.fock_oracle import _THETA, _generator, _taylor_plan
from qubit_observer.model_builder import BETA_NORM_RANGE, KAPPA_RANGE, OMEGA_O_MAX
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
    reference = reduced_mean_trajectory(1.0, 4.0, [1.0, 0.0], 1.0, (0.0, 0.0), times)
    deviation = np.abs(np.column_stack([traces.exp_q, traces.exp_p]) - reference)
    assert deviation.max() <= 1e-4
    # sign convention pin: the mean must approach (-0.5, -0.5), not a flip;
    # a flipped rotation or coupling sign would land O(1) away
    np.testing.assert_allclose(
        [traces.exp_q[-1], traces.exp_p[-1]], [-0.5, -0.5], atol=0.05)


def test_reduced_mean_trajectory_on_uneven_steps():
    """The closed-form means equal the affine exponential stepped node to node
    over a random grid whose steps are all distinct, and over evolve's grid of
    store_every steps; bad times are refused.  The cases are generic,
    undetuned with the weakest kappa, and the envelope's corner.

    Measured against the stepped exponential: 2.2e-16 (generic), 3.7e-12
    (undetuned-weak, settled mean 2.2e4) and 4.2e-16 (corner).
    """
    beta, z_bar, x0 = np.array([0.6, -0.8]), 0.7, [0.4, -0.1]
    random_grid = np.concatenate([[0.0], np.cumsum(
        np.random.default_rng(5).uniform(0.001, 0.2, 60))])
    times, _ = evolve(joint_initial_state(MIXED, 4),
                      build_operators(np.zeros(3), [1.0, 0.0, 0.0], [0.0, 0.0], 0.0, 1.0, 4),
                      FockConfig(n_trunc=4, dt=1e-3, t_final=0.26, store_every=10))
    for omega_o, kappa in ((1.3, 2.0), (0.0, 1e-4), (100.0, 100.0)):
        aff = np.zeros((3, 3))
        aff[:2, :2] = [[-0.5 * kappa, 2.0 * omega_o], [-2.0 * omega_o, -0.5 * kappa]]
        aff[:2, 2] = 2.0 * np.array([beta[1], -beta[0]]) * z_bar
        # the closed form rounds relative to the settled mean
        scale = max(1.0, np.max(np.abs(np.linalg.solve(aff[:2, :2], aff[:2, 2]))))
        for grid in (random_grid, times):
            means = reduced_mean_trajectory(omega_o, kappa, beta, z_bar, x0, grid)
            state = np.array([x0[0], x0[1], 1.0])
            np.testing.assert_allclose(means[0], x0, rtol=0, atol=1e-15 * scale)
            for k, h in enumerate(np.diff(grid)):
                state = expm(aff * h) @ state
                np.testing.assert_allclose(means[k + 1], state[:2], rtol=0,
                                           atol=1e-13 * scale)
    for bad in ([0.0, 0.1, 0.1], [0.0, -0.1], [-0.1, 0.0], [[0.1]], []):
        with pytest.raises(ValueError, match="times must be strictly increasing"):
            reduced_mean_trajectory(1.3, 2.0, beta, z_bar, x0, bad)


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


def _assert_matches_dense(ops, state, config):
    """evolve's traces equal those of expm of the entrywise generator at 1e-12,
    and _generator's shift and norm bound are those of that generator."""
    gen = _dense_superoperator(ops)
    _, mu, norm = _generator(ops)
    dim2 = gen.shape[0]
    assert mu == pytest.approx(np.trace(gen).real / dim2, rel=1e-12, abs=1e-12)
    exact = np.abs(gen - mu * np.eye(dim2)).sum(axis=0).max()
    assert norm >= exact * (1.0 - 1e-12)
    times, traces = evolve(state, ops, config)
    ref = _reference_traces(ops, state, times, lambda v, t: expm(gen * t) @ v)
    for name in ("exp_zp", "exp_zp_sq", "exp_q", "exp_p", "leakage", "trace_drift"):
        np.testing.assert_allclose(getattr(traces, name), getattr(ref, name),
                                   rtol=0, atol=1e-12, err_msg=name)


def test_evolve_matches_dense_exponential():
    """vec/kron ordering pinned against expm of a generator built entrywise."""
    n_trunc = 5
    ops = build_operators(np.zeros(3), [0.6, 0.0, 0.8], [0.7, -0.3], 1.3, 2.0, n_trunc)
    state = joint_initial_state(EIGENSTATE, n_trunc, alpha=0.4 + 0.2j)
    _assert_matches_dense(ops, state, FockConfig(n_trunc=n_trunc, dt=1e-2, t_final=0.6,
                                                 store_every=5, leakage_threshold=1e-2))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.floats(0.0, OMEGA_O_MAX), st.floats(*np.log10(KAPPA_RANGE)),
       st.floats(*np.log10(BETA_NORM_RANGE)), st.floats(-np.pi, np.pi),
       st.floats(-np.pi, np.pi), st.integers(0, 2 ** 32 - 1))
def test_generator_action_and_norm_bound_over_the_envelope(omega_o, log_kappa, log_radius,
                                                           angle, tilt, seed):
    """On a random Hermitian rho the matrix-form action is the entrywise
    superoperator less mu I, and norm bounds that superoperator's 1-norm."""
    n_trunc = 4
    beta = 10.0 ** log_radius * np.array([np.cos(angle), np.sin(angle)])
    ops = build_operators(np.zeros(3), [np.cos(tilt), 0.0, np.sin(tilt)], beta,
                          omega_o, 10.0 ** log_kappa, n_trunc)
    action, mu, norm = _generator(ops)
    shifted = _dense_superoperator(ops) - mu * np.eye((2 * (n_trunc + 1)) ** 2)
    assert norm >= np.abs(shifted).sum(axis=0).max() * (1.0 - 1e-12)
    rng = np.random.default_rng(seed)
    rho = rng.normal(size=(10, 10)) + 1j * rng.normal(size=(10, 10))
    rho = rho + rho.conj().T
    want = (shifted @ rho.reshape(-1, order="F")).reshape(rho.shape, order="F")
    scale = np.max(np.abs(shifted)) * np.max(np.abs(rho))
    assert np.max(np.abs(action(rho) - want)) <= 1e-14 * scale


def test_zero_generator_takes_no_taylor_terms():
    """With H = L = 0 the norm bound is 0, the plan has the zeroth term alone,
    and every node is the start, as expm of the zero superoperator gives."""
    n_trunc = 4
    zero = np.zeros((2 * (n_trunc + 1),) * 2, dtype=complex)
    ops = replace(build_operators(np.zeros(3), [1.0, 0.0, 0.0], [0.0, 0.0], 0.0, 1.0, n_trunc),
                  h_total=zero, lindblad=zero)
    _, mu, norm = _generator(ops)
    assert mu == 0.0 and norm == 0.0
    assert _taylor_plan(norm, mu, 0.04)[3].shape[0] == 1
    state = joint_initial_state(EIGENSTATE, n_trunc, alpha=0.4 + 0.2j)
    _assert_matches_dense(ops, state, FockConfig(n_trunc=n_trunc, dt=1e-2, t_final=0.64,
                                                 store_every=4, leakage_threshold=1e-2))


@pytest.mark.parametrize("n_trunc", [4, 5])
def test_node_steps_past_theta_55_are_split(n_trunc):
    """At the corner kappa = omega_o = 100, |beta| = 1e3, norm * h exceeds
    theta_55 for the node step: it is split into s equal sub-steps of one
    expansion each, and the nodes still match the dense exponential.  The
    truncation is far too small for this drive, so the leakage guard is off;
    the reference uses the same truncated generator."""
    ops = build_operators(np.zeros(3), [0.6, 0.0, 0.8], [600.0, -800.0], 100.0, 100.0, n_trunc)
    config = FockConfig(n_trunc=n_trunc, dt=1e-3, t_final=0.016, store_every=4,
                        leakage_threshold=2.0)
    _, mu, norm = _generator(ops)
    step = 4e-3
    d, s, tau, _ = _taylor_plan(norm, mu, step)
    assert norm * step > _THETA[55] and d == 1 and s > 1
    assert tau == pytest.approx(step / s) and norm * tau <= _THETA[55]
    _assert_matches_dense(ops, joint_initial_state(EIGENSTATE, n_trunc, alpha=0.3 - 0.1j),
                          config)


def test_evolve_blocks_match_single_shot():
    """More stored nodes than one block, carried from block to block."""
    n_trunc = 5
    ops = build_operators(np.zeros(3), [1.0, 0.0, 0.0], [1.0, 0.5], 1.0, 4.0, n_trunc)
    state = joint_initial_state(EIGENSTATE, n_trunc)
    config = FockConfig(n_trunc=n_trunc, dt=1e-2, t_final=0.64, store_every=2,
                        leakage_threshold=1e-2)
    times, traces = evolve(state, ops, config)
    stored = list(range(0, 65, 2))
    np.testing.assert_allclose(times, np.array(stored) * 1e-2, rtol=0, atol=1e-15)
    assert times.size == 33  # more than one block
    single = expm_multiply(csr_matrix(_dense_superoperator(ops)),
                           np.asarray(state.rho).reshape(-1, order="F"),
                           start=0.0, stop=0.64, num=65, endpoint=True)
    ref = _reference_traces(ops, state, stored, lambda v, k: single[k])
    for name in ("exp_zp", "exp_zp_sq", "exp_q", "exp_p", "leakage", "trace_drift"):
        np.testing.assert_allclose(getattr(traces, name), getattr(ref, name),
                                   rtol=0, atol=1e-12, err_msg=name)


def test_non_hermitian_hamiltonian_trips_trace_drift():
    """h = 5i sigma_1 (x) I.  evolve applies -i h rho + (-i h rho)^dag, which is
    -i[h, rho] only for a Hermitian h; here it is 5 {sigma_1, rho}, so rho(t) =
    e^{5 sigma_1 t} rho e^{5 sigma_1 t}, whose trace cosh(10 t) has left 1 by
    5.0e-3 at the first node."""
    n_trunc = 4
    ops = build_operators(np.zeros(3), [1.0, 0.0, 0.0], [0.0, 0.0], 0.0, 4.0, n_trunc)
    pump = 5j * np.kron(PAULI[0], np.eye(n_trunc + 1))
    state = joint_initial_state(np.diag([1.0, 0.0]), n_trunc)
    with pytest.raises(RuntimeError, match="trace drift 5.004e-03 at t = 0.01;"):
        evolve(state, replace(ops, h_total=pump),
               FockConfig(n_trunc=n_trunc, dt=1e-2, t_final=3.0))
