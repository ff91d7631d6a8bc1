"""Model and filter invariants over random valid observer and plant parameters."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qubit_observer.cli import _riccati_gap
from qubit_observer.config import FilterSettings
from qubit_observer.fock_oracle import FockConfig, build_operators, evolve, joint_initial_state
from qubit_observer.kalman_filter import run_filter_ensemble, solve_riccati
from qubit_observer.model_builder import (BETA_NORM_RANGE, KAPPA_RANGE, OMEGA_O_MAX,
                                          ObserverSpec, build_augmented, closed_loop_transfer,
                                          hurwitz_check, optimal_gain,
                                          output_bias, steady_state_mean)
from qubit_observer.sde_engine import SimConfig, record_chain, simulate_paths, time_grid
from qubit_observer.spin_algebra import PAULI, PlantSpec
from reference import live_step, sampler_step

SETTINGS = settings(max_examples=30, deadline=None, derandomize=True, database=None)

observers = st.builds(
    lambda omega_o, kappa, radius, angle: ObserverSpec(
        omega_o=omega_o, kappa=kappa, beta=radius * np.array([np.cos(angle), np.sin(angle)])),
    st.floats(0.0, 5.0), st.floats(0.2, 10.0), st.floats(0.1, 3.0),
    st.floats(-np.pi, np.pi))


@st.composite
def plants(draw):
    """Qubit with readout row (1, 0, 0) in a random state inside the Bloch ball."""
    bloch = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)))
    bloch /= max(1.0, float(np.linalg.norm(bloch)))
    rho = 0.5 * (np.eye(2) + np.einsum("i,ijk->jk", bloch, PAULI))
    return PlantSpec(r_p=np.zeros(3), c_p=[1.0, 0.0, 0.0], rho_p=rho)


@SETTINGS
@given(observers)
def test_gain_constraint(obs):
    e = output_bias(obs)
    assert abs(float((optimal_gain(e) @ e)[0]) - 1.0) <= 1e-14


@SETTINGS
@given(observers, st.lists(st.floats(0.0, 50.0), min_size=1, max_size=5))
def test_noise_channel_is_all_pass(obs, omegas):
    for w in omegas + [2.0 * obs.omega_o]:
        t_jw = closed_loop_transfer(obs, 1j * w)
        residual = np.linalg.norm(t_jw @ t_jw.conj().T - np.eye(2), ord=np.inf)
        assert residual <= 1e-10, (w, residual)


@SETTINGS
@given(observers)
def test_drift_eigenvalues(obs):
    is_hurwitz, eigs = hurwitz_check(obs)
    expected = -0.5 * obs.kappa + np.array([-2j, 2j]) * obs.omega_o
    assert is_hurwitz
    assert np.max(np.abs(eigs - expected)) <= 1e-12


@SETTINGS
@given(observers, plants())
def test_steady_state_mean_matches_direct_solve(obs, plant):
    """The closed form equals the settled quadratures of the reduced model."""
    model = build_augmented(plant, obs)
    direct = -np.linalg.solve(model.A[1:, 1:], model.A[1:, 0])
    settled = steady_state_mean(obs) @ obs.beta
    assert np.max(np.abs(settled - direct)) <= 1e-12 * max(1.0, np.max(np.abs(direct)))


@SETTINGS
@given(observers, plants())
def test_riccati_psd_and_plant_variance_non_increasing(obs, plant):
    """Sigma* stays PSD, and its z_p entry cannot grow: its derivative is
    -(Sigma Q Sigma)_zz with Q >= 0, as the first rows of F and R vanish."""
    model = build_augmented(plant, obs)
    sigma = solve_riccati(model, np.linspace(0.0, 1.0, 101)).sigma_star
    assert np.linalg.eigvalsh(sigma).min() >= -1e-12
    assert np.max(np.diff(sigma[:, 0, 0])) <= 0.0


envelope_observers = st.builds(
    lambda omega_o, log_kappa, log_radius, angle: ObserverSpec(
        omega_o=omega_o, kappa=10.0 ** log_kappa,
        beta=10.0 ** log_radius * np.array([np.cos(angle), np.sin(angle)])),
    st.floats(0.0, OMEGA_O_MAX), st.floats(*np.log10(KAPPA_RANGE)),
    st.floats(np.log10(BETA_NORM_RANGE[0]), np.log10(30.0)), st.floats(-np.pi, np.pi))


@SETTINGS
@given(envelope_observers, plants(), st.floats(-3.0, np.log10(0.05)), st.integers(10, 200))
def test_filter_covariance_psd_and_within_riccati_limit(obs, plant, log_dt, n_steps):
    """Over the load envelope the sampled-data filter's P stays symmetric PSD,
    and its gap to Sigma* obeys the riccati_limit rule 0.1 (|H|_2 h)^2."""
    model = build_augmented(plant, obs)
    grid = np.arange(n_steps + 1) * 10.0 ** log_dt
    _, covs, _ = run_filter_ensemble(model, grid, np.zeros((1, n_steps)))
    assert np.array_equal(covs, np.swapaxes(covs, 1, 2))
    assert np.linalg.eigvalsh(covs).min() >= -1e-12 * np.abs(covs).max()
    gap, tolerance = _riccati_gap(model, solve_riccati(model, grid), covs)
    assert gap <= tolerance


@SETTINGS
@given(st.floats(0.0, OMEGA_O_MAX), st.floats(*np.log10(KAPPA_RANGE)),
       st.floats(*np.log10(BETA_NORM_RANGE)), st.floats(-np.pi, np.pi),
       st.floats(-4.0, np.log10(0.05)))
def test_record_chain_is_the_sampler_and_filter_step(omega_o, log_kappa, log_radius,
                                                     angle, log_h):
    """record_chain's slices are the sampler's live step (transition, z_p drift,
    noise) and the filter's (Phi, Psi, W), held to the reference step built
    from its own exponentials, relative to each block's largest entry.

    Over the load envelope with h <= 0.05 the worst gap in a 400-draw sweep
    read 2.4e-13 (the noise covariance); Van Loan's block form in the
    reference loses accuracy as kappa h grows, so h stops there.
    """
    observer = ObserverSpec(omega_o=omega_o, kappa=10.0 ** log_kappa,
                            beta=10.0 ** log_radius * np.array([np.cos(angle), np.sin(angle)]))
    model = build_augmented(PlantSpec(r_p=np.zeros(3), c_p=[1.0, 0.0, 0.0],
                                      rho_p=np.eye(2) / 2), observer)
    h = 10.0 ** log_h
    chain, noise = record_chain(model, h)
    transition, drift, noise_cov = live_step(model, h)
    phi, psi, _ = sampler_step(model, h)
    embedded = np.zeros((4, 4))
    embedded[1:, 1:] = noise_cov
    for got, want in ((chain[1:, 1:], transition), (chain[1:, 0], drift),
                      (chain[:3, :3], phi), (chain[3, :3], psi), (noise, embedded)):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@SETTINGS
@given(st.floats(0.0, OMEGA_O_MAX), st.floats(*np.log10(KAPPA_RANGE)),
       st.floats(*np.log10(BETA_NORM_RANGE)), st.floats(-np.pi, np.pi), plants(),
       st.floats(-4.0, 1.0), st.floats(-4.0, 1.0))
def test_record_chain_composes_exactly(omega_o, log_kappa, log_radius, angle, plant,
                                       log_a, log_b):
    """The premise of the sampler's strides, one exact step over several
    grid steps: the exact chain over a + b is its steps over a then b, T(a + b) = T(b) T(a)
    and W(a + b) = T(b) W(a) T(b)^T + W(b), relative to each one's largest
    entry.

    In a 400-draw sweep of this envelope the worst gap read 3.1e-12 in T and
    1.5e-14 in W (medians 9e-16 and 2e-16), so the bounds are 1e-11 and
    1e-13.  The T gap is the record row's: at kappa near 1e-3 and gaps of
    several time units, T's record row, an oscillating integral of
    D C e^{As}, is 3e-4 of |D C| h.  With scipy's expm the same sweep read
    1.5e-12 in T and 2.7e-11 in W.
    """
    observer = ObserverSpec(omega_o=omega_o, kappa=10.0 ** log_kappa,
                            beta=10.0 ** log_radius * np.array([np.cos(angle), np.sin(angle)]))
    model = build_augmented(plant, observer)
    a, b = 10.0 ** log_a, 10.0 ** log_b
    (t_a, w_a), (t_b, w_b), (t_ab, w_ab) = (record_chain(model, h) for h in (a, b, a + b))
    for got, want, bound in ((t_b @ t_a, t_ab, 1e-11), (t_b @ w_a @ t_b.T + w_b, w_ab, 1e-13)):
        assert np.max(np.abs(got - want)) <= bound * np.max(np.abs(want))


def _bits(a: np.ndarray) -> tuple:
    return a.dtype, a.shape, a.tobytes()


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.floats(1e-6, 1e2), st.floats(1.0, 5000.0, exclude_min=True), st.integers(1, 64))
def test_time_grid_is_bitwise_the_former_node_formulas(dt, steps, stride):
    """The artifacts' times rest on this: on the sim, filter and oracle grids
    alike, time_grid is bitwise np.arange(n + 1) * dt at stride 1 and
    np.arange(0, n + 1, d) * dt at d, the largest divisor of n up to stride,
    and evolve's stored times are bitwise the oracle's former
    np.array([k * dt for k in stored]), stored every d-th step.  A stride
    that does not divide n is refused by time_grid on every grid, by
    simulate_paths and by FockConfig as store_every, with the same text
    after the name."""
    t_final = dt * steps
    assume(dt < t_final)
    grids = (SimConfig(dt=dt, t_final=t_final), FilterSettings(dt=dt, t_final=t_final),
             FockConfig(dt=dt, t_final=t_final, n_trunc=4))
    n = grids[0].n_steps
    d = max(k for k in range(1, stride + 1) if n % k == 0)
    for grid in grids:
        assert grid.n_steps == n
        assert _bits(time_grid(grid)) == _bits(np.arange(n + 1) * dt)
        assert _bits(time_grid(grid, d)) == _bits(np.arange(0, n + 1, d) * dt)
    # a nearly closed joint system: the propagation is cheap at any step
    ops = build_operators(np.zeros(3), [1.0, 0.0, 0.0], [0.0, 0.0], 0.0, 1e-9, 4)
    times, _ = evolve(joint_initial_state(np.eye(2) / 2, 4), ops,
                      FockConfig(dt=dt, t_final=t_final, n_trunc=4, store_every=d))
    assert _bits(times) == _bits(np.array([k * dt for k in range(0, n + 1, d)]))
    if d == stride:
        return
    rule = f" must be a positive integer dividing n_steps = {n}; got {stride}$"
    for grid in grids:
        with pytest.raises(ValueError, match="^stride" + rule):
            time_grid(grid, stride)
    model = build_augmented(PlantSpec(r_p=np.zeros(3), c_p=[1.0, 0.0, 0.0], rho_p=np.eye(2) / 2),
                            ObserverSpec(omega_o=1.0, kappa=4.0, beta=[1.0, 0.0]))
    with pytest.raises(ValueError, match="^stride" + rule):
        simulate_paths(model, grids[0], stride)
    with pytest.raises(ValueError, match="^store_every" + rule):
        FockConfig(dt=dt, t_final=t_final, n_trunc=4, store_every=stride)
