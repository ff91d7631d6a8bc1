import math
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from qubit_observer import kalman_filter
from qubit_observer.kalman_filter import (LinearModel, _even_grid, _hamiltonian,
                                          filter_paths, gain_schedule, kalman_gain,
                                          run_filter_ensemble, solve_riccati,
                                          write_riccati_csv)
from qubit_observer.model_builder import ObserverSpec, build_augmented
from qubit_observer.sde_engine import SimConfig, simulate_paths, time_grid
from qubit_observer.spin_algebra import PlantSpec
from reference import exact_error_moments, sampler_step, stepwise_riccati

ATOL = 1e-12

PLANT = PlantSpec(r_p=np.zeros(3), c_p=[1.0, 0.0, 0.0], rho_p=np.eye(2) / 2)
OBS = ObserverSpec(omega_o=1.0, kappa=4.0, beta=np.array([1.0, 0.0]))
# Non-zero initial means and a correlated sigma0: the filter error is biased.
BIASED_PLANT = PlantSpec(r_p=np.zeros(3), c_p=[0.0, 0.0, 1.0], rho_p=np.diag([0.8, 0.2]))
BIASED_OBS = ObserverSpec(omega_o=1.0, kappa=4.0, beta=np.array([0.6, 0.8]),
                          x0_mean=[0.3, -0.2], sigma0=[[2.0, 0.2], [0.2, 0.6]])


def scalar_regression_model():
    """Estimate a constant scalar from dz = x dt + dw_1."""
    return LinearModel(A=np.zeros((1, 1)), B=np.zeros((1, 2)),
                       C=np.array([[1.0], [0.0]]), D=np.array([[1.0, 0.0]]),
                       x0_mean=np.zeros(1), sigma0=np.eye(1))


def constant_model(a, b, c, d):
    """Model with the given coefficients and unit initial covariance."""
    n = np.shape(a)[0]
    return LinearModel(A=a, B=b, C=c, D=d, x0_mean=np.zeros(n), sigma0=np.eye(n))


def riccati_rhs(model, sigma):
    """Riccati right-hand side F Sigma + Sigma F^T - Sigma Q Sigma + R from the
    model's derived coefficients."""
    return model.F @ sigma + sigma @ model.F.T - sigma @ model.Q @ sigma + model.R


def hamiltonian_riccati(model, grid):
    """Exact Sigma*(t) = Y X^{-1} with [X; Y] = expm(H t) [I; Sigma0].

    H = [[-F^T, Q], [R, F]] is built from the raw A, B, C, D (Davison & Maki,
    IEEE TAC 18(1), 1973), independently of the model's derived coefficients.
    """
    a, b, c, d = model.A, model.B, model.C, model.D
    s_inv = np.linalg.inv(d @ d.T)
    f = a - b @ d.T @ s_inv @ d @ c
    q = c.T @ d.T @ s_inv @ d @ c
    r = b @ b.T - b @ d.T @ s_inv @ d @ b.T
    n = model.n
    ham = np.block([[-f.T, q], [r, f]])
    start = np.vstack([np.eye(n), model.sigma0])
    out = np.empty((len(grid), n, n))
    for k, t in enumerate(grid):
        xy = expm(ham * t) @ start
        out[k] = np.linalg.solve(xy[:n].T, xy[n:].T).T
    return out


def test_linear_model_validation():
    with pytest.raises(ValueError):  # odd noise dimension
        LinearModel(A=np.zeros((1, 1)), B=np.zeros((1, 3)), C=np.zeros((3, 1)),
                    D=np.zeros((1, 3)), x0_mean=np.zeros(1), sigma0=np.eye(1))
    with pytest.raises(ValueError):  # D D^T singular
        LinearModel(A=np.zeros((1, 1)), B=np.zeros((1, 2)), C=np.zeros((2, 1)),
                    D=np.zeros((1, 2)), x0_mean=np.zeros(1), sigma0=np.eye(1))
    with pytest.raises(ValueError):  # sigma0 not symmetric
        LinearModel(A=np.zeros((2, 2)), B=np.zeros((2, 2)), C=np.zeros((2, 2)),
                    D=np.array([[1.0, 0.0]]), x0_mean=np.zeros(2),
                    sigma0=np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(ValueError):  # coefficient shape mismatch
        LinearModel(A=np.zeros((2, 1)), B=np.zeros((1, 2)), C=np.zeros((2, 1)),
                    D=np.array([[1.0, 0.0]]), x0_mean=np.zeros(1), sigma0=np.eye(1))
    with pytest.raises(TypeError):  # coefficients are constant matrices, not callables
        LinearModel(A=lambda t: np.zeros((1, 1)), B=np.zeros((1, 2)),
                    C=np.array([[1.0], [0.0]]), D=np.array([[1.0, 0.0]]),
                    x0_mean=np.zeros(1), sigma0=np.eye(1))


def test_kalman_gain_plant_observer_cases():
    model = build_augmented(PLANT, OBS)
    np.testing.assert_allclose(kalman_gain(model, np.eye(3)),
                               np.zeros((3, 1)), atol=ATOL)
    np.testing.assert_allclose(kalman_gain(model, 2.0 * np.eye(3)),
                               np.array([[0.0], [-2.0], [-2.0]]), atol=ATOL)


def test_kalman_gain_orthonormal_reduction():
    """B = 0 with orthonormal D rows reduces the gain to Sigma C^T D^T."""
    rng = np.random.default_rng(2)
    d = np.array([[1.0, 0.0]])
    c = rng.normal(size=(2, 3))
    sigma = rng.normal(size=(3, 3))
    sigma = sigma @ sigma.T
    model = constant_model(np.zeros((3, 3)), np.zeros((3, 2)), c, d)
    np.testing.assert_allclose(
        kalman_gain(model, sigma), sigma @ c.T @ d.T, atol=1e-10)


def test_riccati_rhs_scalar_regression():
    model = scalar_regression_model()
    for s in (0.2, 1.0, 3.0):
        rhs = riccati_rhs(model, np.array([[s]]))
        np.testing.assert_allclose(rhs, [[-s * s]], atol=ATOL)


def test_riccati_rhs_lyapunov_reduction():
    """B D^T = 0 and D C = 0 leave the Lyapunov part A S + S A^T + B B^T."""
    a = np.array([[-0.4]])
    b = np.array([[1.0, 0.0]])
    d = np.array([[0.0, 1.0]])
    c = np.array([[1.0], [0.0]])
    s = np.array([[0.8]])
    np.testing.assert_allclose(
        riccati_rhs(constant_model(a, b, c, d), s), a @ s + s @ a.T + b @ b.T, atol=ATOL)


def test_riccati_rhs_matches_specialized_block_form():
    """General four-term rhs equals the specialized three-term block assembly."""
    model = build_augmented(PLANT, OBS)
    a, d = model.A, model.D
    kappa = OBS.kappa
    k_row = d
    proj = k_row.T @ np.linalg.inv(k_row @ k_row.T) @ k_row
    a_mod = a.copy()
    a_mod[1:, 1:] += kappa * proj
    q_mod = np.zeros((3, 3))
    q_mod[1:, 1:] = kappa * proj
    r_mod = np.zeros((3, 3))
    r_mod[1:, 1:] = kappa * (np.eye(2) - proj)
    rng = np.random.default_rng(4)
    for _ in range(20):
        s = rng.normal(size=(3, 3))
        s = s @ s.T
        expected = a_mod @ s + s @ a_mod.T - s @ q_mod @ s + r_mod
        np.testing.assert_allclose(
            riccati_rhs(model, s), 0.5 * (expected + expected.T), atol=1e-10)


def test_solve_riccati_scalar_closed_form():
    model = scalar_regression_model()
    grid = np.arange(0, 1001) * 1e-3
    ricc = solve_riccati(model, grid)
    np.testing.assert_allclose(ricc.sigma_star[:, 0, 0], 1.0 / (1.0 + grid), atol=1e-11)
    assert ricc.sigma_star[-1, 0, 0] == pytest.approx(0.5, abs=1e-11)
    for dt in (0.1, 0.05, 0.025):
        grid = np.arange(0, int(round(10.0 / dt)) + 1) * dt
        exact = 1.0 / (1.0 + grid)
        assert np.max(np.abs(solve_riccati(model, grid).sigma_star[:, 0, 0] - exact)) < 1e-11


def test_solve_riccati_zero_fixed_point():
    model = LinearModel(A=np.zeros((1, 1)), B=np.zeros((1, 2)),
                        C=np.array([[1.0], [0.0]]), D=np.array([[1.0, 0.0]]),
                        x0_mean=np.zeros(1), sigma0=np.zeros((1, 1)))
    ricc = solve_riccati(model, np.linspace(0.0, 2.0, 41))
    np.testing.assert_array_equal(ricc.sigma_star, np.zeros_like(ricc.sigma_star))


def test_solve_riccati_divergence_raises():
    """dSigma/dt = 2000 Sigma + 1 (Q = 0 since D C = 0) overflows near t = 0.36;
    the propagator stops with the step and time, without numpy warnings."""
    model = LinearModel(A=np.array([[1e3]]), B=np.array([[1.0, 0.0]]),
                        C=np.array([[1.0], [0.0]]), D=np.array([[0.0, 1.0]]),
                        x0_mean=np.zeros(1), sigma0=np.eye(1))
    assert not model.Q.any()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeError, match=r"diverged at step 3 \(t = 0\.3\)"):
            solve_riccati(model, np.linspace(0.0, 1.0, 11))


def test_solve_riccati_divergence_inside_a_block_names_the_step():
    """dSigma/dt = 2002 Sigma + 1 at h = 1e-4 has |H|_2 h = 0.1, so
    solve_riccati takes blocks of 9 steps.  Sigma(t) = (1 + 1/2002) e^{2002 t}
    - 1/2002 first passes half the largest double, where symmetrizing
    overflows, over step 3541 (t = 0.3541 to 0.3542), the fifth of its
    block; the message names that step, without numpy warnings."""
    model = LinearModel(A=np.array([[1001.0]]), B=np.array([[1.0, 0.0]]),
                        C=np.array([[1.0], [0.0]]), D=np.array([[0.0, 1.0]]),
                        x0_mean=np.zeros(1), sigma0=np.eye(1))
    grid = np.arange(4001) * 1e-4
    block = int(1.0 / (np.linalg.norm(_hamiltonian(model), 2) * 1e-4))
    assert block == 9 and 3541 % block == 4
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeError, match=r"diverged at step 3541 \(t = 0\.3541\)"):
            solve_riccati(model, grid)


def test_solve_riccati_singular_step_raises():
    """F = 1e3 and Sigma0 = 0 give X = e^{-1000 h}, which underflows to a
    singular 0 over a step of h = 1.5, so the first step already fails."""
    model = LinearModel(A=np.array([[1e3]]), B=np.zeros((1, 2)), C=np.zeros((2, 1)),
                        D=np.array([[1.0, 0.0]]), x0_mean=np.zeros(1),
                        sigma0=np.zeros((1, 1)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeError, match=r"diverged at step 0 \(t = 0\)"):
            solve_riccati(model, [0.0, 1.5, 3.0])


@pytest.mark.parametrize("observer", [
    {"kappa": 1e-4}, {"kappa": 4.0}, {"kappa": 100.0}, {"omega_o": 100.0},
    {"beta": [300.0, 0.0]}, {"beta": [1e3, 0.0]}],
    ids=["kappa_1e-4", "kappa_4", "kappa_100", "omega_o_100", "beta_300", "beta_1e3"])
def test_blocked_riccati_matches_stepwise_reference(observer):
    """solve_riccati's blocks against the step restarted at every node, on
    the default filter grid at the envelope's corners: within 1e-12 of
    max|Sigma*|.  Unbounded 64-step blocks drift 6.7e-11 at kappa 100.

    Measured: 8.2e-15, 6.4e-15 and 0 (|H|_2 h > 0.5 steps one node at a
    time) at the other corners.
    """
    spec = {"omega_o": 1.0, "kappa": 4.0, "beta": [1.0, 0.0], **observer}
    model = build_augmented(PLANT, ObserverSpec(**spec))
    reference = stepwise_riccati(model, FILTER_GRID)
    gap = np.max(np.abs(solve_riccati(model, FILTER_GRID).sigma_star - reference))
    assert gap <= 1e-12 * np.max(np.abs(reference))


def test_solve_riccati_takes_one_solve_per_block(monkeypatch):
    """The 10 001-node self-test grid has |H|_2 h = 1e-3, so its 10 000 steps
    take ceil(10 000 / 64) = 157 batched solves, not one per step."""
    calls = []
    solve = np.linalg.solve

    def counted(*args):
        calls.append(None)
        return solve(*args)

    monkeypatch.setattr(np.linalg, "solve", counted)
    grid = np.arange(10001) * 1e-3
    sigma = solve_riccati(scalar_regression_model(), grid).sigma_star[:, 0, 0]
    assert 0 < len(calls) <= 157
    np.testing.assert_allclose(sigma, 1.0 / (1.0 + grid), atol=1e-11)


def test_grids_with_non_finite_nodes_are_refused():
    """A NaN or infinite node fails the grid check in every filter entry point
    instead of yielding NaN estimates or a divergence at step 0, and so does
    a grid of two step lengths, since the filter takes one step per grid."""
    model = scalar_regression_model()
    for grid in ([0.0, np.nan, 2.0], [0.0, 1.0, np.inf], [-np.inf, 0.0, 1.0],
                 [0.0, 1.0, 3.0]):
        for call in (lambda: solve_riccati(model, grid),
                     lambda: gain_schedule(model, grid),
                     lambda: run_filter_ensemble(model, grid, np.zeros((2, 2)))):
            with pytest.raises(ValueError, match="grid must be strictly increasing"):
                call()


def test_the_grids_the_package_builds_are_even():
    """The grid rule accepts, with their own step, the grids of SimConfig
    (the default simulate and filter grids, the README's), a stride-5
    ensemble's nodes, linspace grids with and without an offset, the
    self-test grid and a 10^6-step grid.  A node moved by 16 eps max|grid|
    is refused, so the bound stays at the rounding of the nodes."""
    filter_config = SimConfig(dt=0.005, t_final=5.0, n_paths=1, seed=0)
    strided = simulate_paths(build_augmented(PLANT, OBS), filter_config, stride=5).times
    eps = np.finfo(float).eps
    for grid, step in ((time_grid(SimConfig(dt=0.05, t_final=10.0, n_paths=1, seed=0)), 0.05),
                       (time_grid(filter_config), 0.005),
                       (time_grid(SimConfig(dt=0.005, t_final=2.0, n_paths=1, seed=0)), 0.005),
                       (strided, 0.025), (np.linspace(0, 2, 401), 0.005),
                       (np.arange(10001) * 1e-3, 1e-3), (np.linspace(1.7, 3.7, 201), 0.01),
                       (np.arange(10 ** 6 + 1) * 0.005, 0.005)):
        _, h = _even_grid(grid)
        assert h == pytest.approx(step, rel=1e-12)
        moved = grid.copy()
        moved[1] += 16 * eps * np.max(np.abs(grid))
        with pytest.raises(ValueError, match="grid must be strictly increasing"):
            _even_grid(moved)


def test_each_schedule_forms_one_step(monkeypatch):
    """filter_paths and run_filter_ensemble form record_chain once, at the
    grid's one step, and solve_riccati forms expm once.  Rounding k dt
    makes 12 distinct step lengths on the default filter grid, and a
    schedule formed per distinct length would form 12."""
    calls = {"record_chain": [], "expm": []}
    for name, log in calls.items():
        def counted(*args, real=getattr(kalman_filter, name), log=log):
            log.append(args)
            return real(*args)
        monkeypatch.setattr(kalman_filter, name, counted)
    model = build_augmented(PLANT, OBS)
    config = SimConfig(dt=0.005, t_final=5.0, n_paths=4, seed=3)
    assert np.unique(np.diff(time_grid(config))).size == 12

    filter_paths(model, config, [config.n_steps])
    assert [h for _, h in calls["record_chain"]] == [config.dt]
    calls["record_chain"].clear()
    ens = simulate_paths(model, config, stride=5)
    run_filter_ensemble(model, ens.times, ens.dz)
    (_, h), = calls["record_chain"]
    assert abs(h - 5 * config.dt) <= np.spacing(5 * config.dt)

    solve_riccati(model, time_grid(config))
    assert len(calls["expm"]) == 1


def test_riccati_first_row_stays_zero_for_pinned_plant():
    """sigma_p0 = 0 is a fixed point of the first row/column."""
    plant = PlantSpec(r_p=np.zeros(3), c_p=[0.0, 0.0, 1.0], rho_p=np.diag([1.0, 0.0]))
    model = build_augmented(plant, OBS)
    assert model.sigma0[0, 0] == 0.0
    ricc = solve_riccati(model, np.linspace(0.0, 2.0, 201))
    np.testing.assert_allclose(ricc.sigma_star[:, 0, :], 0.0, atol=1e-12)
    np.testing.assert_allclose(ricc.sigma_star[:, :, 0], 0.0, atol=1e-12)


def test_riccati_solution_symmetric_psd():
    model = build_augmented(PLANT, OBS)
    ricc = solve_riccati(model, np.linspace(0.0, 2.0, 401))
    sym_err = np.max(np.abs(ricc.sigma_star - np.transpose(ricc.sigma_star, (0, 2, 1))))
    assert sym_err == 0.0
    assert np.linalg.eigvalsh(ricc.sigma_star).min() > -1e-8


def test_riccati_matches_exact_hamiltonian_solution():
    """The propagated Riccati solution on the filter grid against the
    single-shot exact solution."""
    model = build_augmented(PLANT, OBS)
    grid = time_grid(SimConfig(dt=0.005, t_final=5.0, n_paths=1, seed=0))
    exact = hamiltonian_riccati(model, grid)
    assert np.max(np.abs(solve_riccati(model, grid).sigma_star - exact)) < 1e-11


def test_hamiltonian_solution_scalar_closed_form():
    """The exact solution itself reproduces 1/(1+t) for scalar regression."""
    grid = np.arange(0, 10001) * 1e-3
    exact = hamiltonian_riccati(scalar_regression_model(), grid)
    assert np.max(np.abs(exact[:, 0, 0] - 1.0 / (1.0 + grid))) < 1e-14


def filter_covariance(model, grid):
    """The filter's covariance P at every node and gain K over every step."""
    _, covs, gains = run_filter_ensemble(model, grid, np.zeros((1, grid.size - 1)))
    return covs, gains


def relative_covariance_error(cov, reference):
    """Max over nodes of max|cov - reference| / max|reference|."""
    return np.max(np.max(np.abs(cov - reference), axis=(1, 2))
                  / np.max(np.abs(reference), axis=(1, 2)))


@pytest.mark.parametrize("plant,observer", [(PLANT, OBS), (BIASED_PLANT, BIASED_OBS)],
                         ids=["default", "biased"])
def test_exact_error_moments_match_riccati(plant, observer):
    """The exact moments of the sampled error are the filter's own: no bias,
    and covariance P at every node, whatever the step.

    Measured at dt 0.005 and 0.05: covariance within 3.1e-15 of P (relative),
    bias at most 2.0e-15.
    """
    model = build_augmented(plant, observer)
    for dt in (0.005, 0.05):
        grid = np.arange(int(round(5.0 / dt)) + 1) * dt
        covs, gains = filter_covariance(model, grid)
        bias, cov = exact_error_moments(model, grid, gains)
        assert relative_covariance_error(cov, covs) <= 1e-12
        assert np.max(np.abs(bias)) <= 1e-12


FILTER_GRID = np.arange(1001) * 0.005  # the filter grid of configs/default.json


@pytest.mark.parametrize("plant,observer", [(PLANT, OBS), (BIASED_PLANT, BIASED_OBS)],
                         ids=["default", "biased"])
def test_exact_error_moments_detect_independent_record_noise(plant, observer):
    """Records driven by noise independent of the state's depart from P.

    Measured: 0.405 (default) and 0.621 (biased).
    """
    model = build_augmented(plant, observer)
    covs, gains = filter_covariance(model, FILTER_GRID)
    independent = np.zeros((3, 4))
    independent[:2, :2] = model.B[1:]
    independent[2, 2:] = model.D[0]
    _, cov = exact_error_moments(model, FILTER_GRID, gains, independent)
    assert relative_covariance_error(cov, covs) > 0.1


def test_run_filter_homogeneous_flow():
    """Zero record and zero gain leave the pure drift exp(At) x0, exactly."""
    model = LinearModel(A=np.array([[-0.3]]), B=np.zeros((1, 2)),
                        C=np.zeros((2, 1)), D=np.array([[1.0, 0.0]]),
                        x0_mean=np.array([2.0]), sigma0=np.eye(1))
    grid = np.arange(0, 10001) * 1e-4
    x_hat, _, gains = run_filter_ensemble(model, grid, np.zeros((1, grid.size - 1)))
    np.testing.assert_array_equal(gains, 0.0)
    np.testing.assert_allclose(x_hat[0, :, 0], 2.0 * np.exp(-0.3 * grid), rtol=1e-12)
    assert x_hat[0, 0, 0] == 2.0


def test_run_filter_ensemble_rejects_dz_shape_mismatch():
    model = scalar_regression_model()
    grid = np.linspace(0.0, 1.0, 11)
    for bad in (np.zeros((1, 11)), np.zeros((1, 9)), np.zeros((1, 10, 2)),
                np.zeros((0, 10)), np.zeros(10), np.zeros((1, 1, 10, 1))):
        with pytest.raises(ValueError, match="dz must hold"):
            run_filter_ensemble(model, grid, bad)
    # (n_paths, n_steps) and (n_paths, n_steps, 1) are the same scalar record.
    dz = np.full((2, 10), 0.1)
    np.testing.assert_array_equal(run_filter_ensemble(model, grid, dz)[0],
                                  run_filter_ensemble(model, grid, dz[:, :, None])[0])


def test_run_filter_ensemble_keeps_requested_nodes():
    """keep returns exactly the requested slices of the full run; bad keeps
    raise, here and in filter_paths, which shares the rule."""
    model = build_augmented(PLANT, OBS)
    config = SimConfig(dt=0.01, t_final=0.5, n_paths=5, seed=3)
    ens = simulate_paths(model, config)
    full = run_filter_ensemble(model, ens.times, ens.dz)[0]
    for keep in ([0], [50], [4, 17, 50], np.arange(51)):
        np.testing.assert_array_equal(
            run_filter_ensemble(model, ens.times, ens.dz, keep=keep)[0], full[:, keep])
    for bad in ([], [3, 3], [5, 2], [-1, 4], [51], [1.0, 2.0], [[1, 2]]):
        with pytest.raises(ValueError, match=r"keep must be .* in \[0, 50\]"):
            run_filter_ensemble(model, ens.times, ens.dz, keep=bad)
        with pytest.raises(ValueError, match=r"keep must be .* in \[0, 50\]"):
            filter_paths(model, config, bad)


@pytest.mark.parametrize("n_paths", [2, 257, 600])
def test_streamed_filter_is_the_whole_ensemble_route(n_paths):
    """filter_paths, which filters each sampler block as it arrives, gives
    bitwise the estimates, x_o and z_p at the kept nodes and P at every node
    of simulate_paths followed by run_filter_ensemble.  150 steps end in a
    part block; 257 paths leave a lone path in the last chunk, 600 a part
    chunk."""
    model = build_augmented(BIASED_PLANT, BIASED_OBS)
    config = SimConfig(dt=0.02, t_final=3.0, n_paths=n_paths, seed=12)
    assert config.n_steps == 150
    keep = [0, 15, 63, 64, 65, 128, 130, 150]
    z_p, x_o, x_hat, covs = filter_paths(model, config, keep)
    ens = simulate_paths(model, config)
    whole, whole_covs, _ = run_filter_ensemble(model, ens.times, ens.dz, keep=keep)
    np.testing.assert_array_equal(z_p, ens.z_p)
    np.testing.assert_array_equal(x_o, ens.x_o[:, keep])
    np.testing.assert_array_equal(x_hat, whole)
    np.testing.assert_array_equal(covs, whole_covs)


def test_ensemble_estimates_do_not_depend_on_how_many_records_are_filtered():
    """A record's estimates are bitwise the same whether it is filtered alone,
    with one other or with hundreds."""
    model = build_augmented(BIASED_PLANT, BIASED_OBS)
    ens = simulate_paths(model, SimConfig(dt=0.02, t_final=3.0, n_paths=600, seed=12))
    full = run_filter_ensemble(model, ens.times, ens.dz)[0]
    for n in (1, 2, 300):
        np.testing.assert_array_equal(run_filter_ensemble(model, ens.times, ens.dz[:n])[0],
                                      full[:n], err_msg=f"{n} records")


def _scalar_records(n_paths, dt, t_final, seed):
    rng = np.random.default_rng(seed)
    n_steps = int(round(t_final / dt))
    times = np.arange(n_steps + 1) * dt
    z = np.empty(n_paths)
    dz = np.empty((n_paths, n_steps))
    for i in range(n_paths):
        z[i] = rng.standard_normal()
        dz[i] = z[i] * dt + math.sqrt(dt) * rng.standard_normal(n_steps)
    return times, z, dz


def test_scalar_regression_monte_carlo():
    """Estimate of a Gaussian constant: the exact posterior mean sum(dz)/(1+T)
    and covariance 1/(1+t) at every node, and a matching error variance."""
    model = scalar_regression_model()
    dt, t_final, n_paths = 1e-3, 1.0, 2000
    times, z, dz = _scalar_records(n_paths, dt, t_final, seed=31)
    x_hat, covs, _ = run_filter_ensemble(model, times, dz, keep=[times.size - 1])
    estimates = x_hat[:, 0, 0]
    np.testing.assert_allclose(estimates, dz.sum(axis=1) / (1.0 + t_final), atol=1e-12)
    np.testing.assert_allclose(covs[:, 0, 0], 1.0 / (1.0 + times), rtol=1e-12)
    errors = z - estimates
    expected_var = 1.0 / (1.0 + t_final)
    se = expected_var * math.sqrt(2.0 / (n_paths - 1))
    assert abs(errors.var(ddof=1) - expected_var) < 4 * se
    assert abs(errors.mean()) < 4 * errors.std(ddof=1) / math.sqrt(n_paths)


def test_two_row_records_follow_the_closed_form(tmp_path):
    """Two decoupled scalar regressions read through two homodyne rows (p = 2):
    each row's estimate is sum(dz)/(1+t) and P = Sigma* = diag(1/(1+t))."""
    model = LinearModel(A=np.zeros((2, 2)), B=np.zeros((2, 4)),
                        C=np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0], [0.0, 0.0]]),
                        D=np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]]),
                        x0_mean=np.zeros(2), sigma0=np.eye(2))
    times = np.arange(0, 1001) * 1e-3
    dz = np.random.default_rng(5).normal(scale=0.03, size=(4, times.size - 1, 2))
    x_hat, covs, gains = run_filter_ensemble(model, times, dz)
    sums = np.concatenate([np.zeros((4, 1, 2)), np.cumsum(dz, axis=1)], axis=1)
    exact = np.eye(2) / (1.0 + times)[:, None, None]
    assert np.max(np.abs(x_hat - sums / (1.0 + times)[:, None])) < 1e-12
    assert np.max(np.abs(covs - exact)) < 1e-12
    assert gains.shape == (times.size - 1, 2, 2)
    ricc = solve_riccati(model, times)
    assert np.max(np.abs(ricc.sigma_star - exact)) < 1e-12
    write_riccati_csv(tmp_path / "riccati.csv", ricc)
    header = (tmp_path / "riccati.csv").read_text().splitlines()[0].split(",")
    assert header[-4:] == ["gain_1_1", "gain_1_2", "gain_2_1", "gain_2_2"]


def test_run_filter_matches_ensemble_version():
    """The vectorized filter equals a plain per-record loop of its update rule."""
    model = build_augmented(PLANT, OBS)
    config = SimConfig(dt=0.01, t_final=0.5, n_paths=8, seed=44)
    ens = simulate_paths(model, config)
    batch, _, gains = run_filter_ensemble(model, ens.times, ens.dz)
    phi, psi, _ = sampler_step(model, config.dt)
    for i, dz in enumerate(ens.dz):
        x_hat = model.x0_mean.copy()
        np.testing.assert_array_equal(batch[i, 0], x_hat)
        for k in range(dz.size):
            g = gains[k, :, 0]
            x_hat = (phi - np.outer(g, psi)) @ x_hat + g * dz[k]
            np.testing.assert_allclose(batch[i, k + 1], x_hat, atol=1e-12)


def test_estimates_carry_across_block_boundaries():
    """150 steps are two full 64-step estimate transfers and a part one; the
    estimates at every node equal a plain per-step loop of the update rule
    within 1e-12, the first node exactly."""
    model = build_augmented(BIASED_PLANT, BIASED_OBS)
    config = SimConfig(dt=0.02, t_final=3.0, n_paths=3, seed=5)
    assert config.n_steps == 150
    ens = simulate_paths(model, config)
    batch, _, gains = run_filter_ensemble(model, ens.times, ens.dz)
    phi, psi, _ = sampler_step(model, config.dt)
    x_hat = np.broadcast_to(model.x0_mean, (config.n_paths, 3))
    np.testing.assert_array_equal(batch[:, 0], x_hat)
    for k in range(config.n_steps):
        g = gains[k, :, 0]
        x_hat = x_hat @ (phi - np.outer(g, psi)).T + np.outer(ens.dz[:, k], g)
        np.testing.assert_allclose(batch[:, k + 1], x_hat, rtol=0.0, atol=1e-12)


def test_filter_matches_a_per_step_loop_across_blocks():
    """150 steps of 2^-6 cross two 64-step block boundaries and end in a part
    block.  The estimates (within 1e-12) and P (within 1e-12 relative) equal
    a per-step Kalman filter built from reference.sampler_step, which does
    not go through sde_engine."""
    model = build_augmented(BIASED_PLANT, BIASED_OBS)
    h = 2.0 ** -6
    dz = np.random.default_rng(24).standard_normal((4, 150)) * np.sqrt(h)
    batch, covs, _ = run_filter_ensemble(model, np.arange(151) * h, dz)
    x_hat = np.broadcast_to(model.x0_mean, (len(dz), 3))
    cov = model.sigma0
    np.testing.assert_array_equal(batch[:, 0], x_hat)
    np.testing.assert_array_equal(covs[0], cov)
    phi, psi, noise_cov = sampler_step(model, h)
    noise = np.zeros((4, 4))
    noise[1:, 1:] = noise_cov
    t_x = np.vstack([phi, psi])
    for k in range(150):
        joint = t_x @ cov @ t_x.T + noise
        gain = joint[:3, 3] / joint[3, 3]
        cov = joint[:3, :3] - np.outer(gain, joint[3, :3])
        x_hat = x_hat @ phi.T + np.outer(dz[:, k] - x_hat @ psi, gain)
        np.testing.assert_allclose(batch[:, k + 1], x_hat, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(covs[k + 1], cov, rtol=0.0,
                                   atol=1e-12 * np.max(np.abs(cov)))


def test_error_covariance_optimal_gain_reproduces_riccati():
    """The filter's error covariance P is >= Sigma* at every node, since the
    sampled increments carry less than the continuous record, and meets it
    at second order in the step.

    Measured max|P - Sigma*|: 3.85e-6, 9.64e-7, 2.41e-7 at 401, 801 and
    1601 nodes on [0, 2].
    """
    model = build_augmented(PLANT, OBS)
    errs = []
    for n_nodes in (401, 801, 1601):
        grid = np.linspace(0.0, 2.0, n_nodes)
        excess = filter_covariance(model, grid)[0] - solve_riccati(model, grid).sigma_star
        assert np.linalg.eigvalsh(excess).min() >= -1e-13
        errs.append(np.max(np.abs(excess)))
    ratios = np.array(errs[:-1]) / np.array(errs[1:])
    assert np.all(ratios > 4.0 * 0.8) and np.all(ratios < 4.0 * 1.2)


def test_filter_gain_meets_riccati_gain_at_first_order():
    """On configs/default.json's model the filter's gain K_k over step k meets
    the continuous gain G(t_k) = Sigma*(t_k) gain_slope + gain_offset at first
    order in the step, within 2 h; a gain that drops gain_offset (the B D^T
    term, which leaves Sigma* itself unchanged) fails that bound.

    Measured max|K - G| / max|G|: 7.78e-3 at h 0.005 and 3.89e-3 at 0.0025
    (ratio 2.0); 0.73 with a zero offset.
    """
    model = build_augmented(PLANT, OBS)

    def gap(gains, reference):
        return np.max(np.abs(gains - reference)) / np.max(np.abs(reference))

    gaps = []
    for dt in (0.005, 0.0025):
        grid = np.arange(int(round(5.0 / dt)) + 1) * dt
        gains = filter_covariance(model, grid)[1]
        ricc = solve_riccati(model, grid)
        gaps.append(gap(gains, ricc.gains[:-1]))
        assert gaps[-1] <= 2.0 * dt
        assert gap(gains, ricc.sigma_star[:-1] @ model.gain_slope) > 2.0 * dt
    assert 1.8 < gaps[0] / gaps[1] < 2.2


def test_error_covariance_pure_diffusion():
    """A = 0 and C = 0: the record is pure noise, correlated with the state's
    through B D^T, so the filter takes K = B D^T (D D^T)^{-1} and P grows as
    sigma0 + R t with R = B B^T - B D^T (D D^T)^{-1} D B^T, like Sigma*."""
    b = np.array([[1.0, 0.0], [0.0, 0.5]])
    model = LinearModel(A=np.zeros((2, 2)), B=b, C=np.zeros((2, 2)),
                        D=np.array([[1.0, 0.0]]), x0_mean=np.zeros(2),
                        sigma0=np.eye(2))
    grid = np.linspace(0.0, 3.0, 31)
    covs, gains = filter_covariance(model, grid)
    np.testing.assert_allclose(gains, np.broadcast_to([[1.0], [0.0]], gains.shape), atol=1e-12)
    for k, t in enumerate(grid):
        np.testing.assert_allclose(covs[k], np.eye(2) + np.diag([0.0, 0.25]) * t, atol=1e-12)
    np.testing.assert_allclose(covs, solve_riccati(model, grid).sigma_star, atol=1e-12)


def test_error_covariance_perturbed_gains_are_worse():
    """Any other gain schedule leaves an error covariance of larger trace."""
    model = build_augmented(PLANT, OBS)
    grid = np.arange(401) * 0.005
    covs, gains = filter_covariance(model, grid)
    trace_p = np.trace(covs[-1])
    rng = np.random.default_rng(6)
    for _ in range(10):
        delta = rng.normal(scale=rng.uniform(0.02, 0.5), size=(3, 1))
        _, cov = exact_error_moments(model, grid, gains + delta)
        assert np.trace(cov[-1]) >= trace_p - 1e-12


def test_plant_observer_model_moments_and_row():
    model = build_augmented(PLANT, OBS)
    np.testing.assert_allclose(model.sigma0, np.diag([1.0, 1.0, 1.0]), atol=ATOL)
    np.testing.assert_allclose(model.D, [[-0.5, -0.5]], atol=ATOL)
    np.testing.assert_allclose(model.x0_mean, [0.0, 0.0, 0.0], atol=ATOL)


def test_specialized_gain_reduction_identity():
    """Gain reduces to (Sigma - I) [0; sqrt(k) I] K^T (K K^T)^{-1} for this model."""
    model = build_augmented(PLANT, OBS)
    k_row = model.D
    lift = np.zeros((3, 2))
    lift[1:, :] = math.sqrt(OBS.kappa) * np.eye(2)
    rng = np.random.default_rng(9)
    for _ in range(20):
        s = rng.normal(size=(3, 3))
        s = s @ s.T
        reduced = (s - np.eye(3)) @ lift @ k_row.T @ np.linalg.inv(k_row @ k_row.T)
        np.testing.assert_allclose(kalman_gain(model, s), reduced, atol=1e-10)


def test_filter_unbiased_and_covariance_consistent_quick():
    """Short Monte Carlo: bias and error covariance track the filter's P."""
    model = build_augmented(PLANT, OBS)
    config = SimConfig(dt=0.005, t_final=1.0, n_paths=600, seed=71)
    ens = simulate_paths(model, config)
    x_hat, covs, _ = run_filter_ensemble(model, ens.times, ens.dz)
    n = config.n_paths
    for idx in (40, 100, 200):
        err = np.column_stack([ens.z_p, ens.x_o[:, idx]]) - x_hat[:, idx]
        bias = err.mean(axis=0)
        se = err.std(axis=0, ddof=1) / math.sqrt(n)
        assert np.all(np.abs(bias) < 4 * se)
        emp = np.cov(err.T, ddof=1)
        for i in range(3):
            for j in range(3):
                products = err[:, i] * err[:, j]
                se_ij = products.std(ddof=1) / math.sqrt(n)
                assert abs(emp[i, j] - covs[idx, i, j]) < 4 * se_ij


def test_riccati_csv_writer(tmp_path):
    model = build_augmented(PLANT, OBS)
    ricc = solve_riccati(model, np.linspace(0.0, 0.1, 3))
    out = tmp_path / "riccati.csv"
    write_riccati_csv(out, ricc)
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("t,sigma_11,sigma_12")
    assert len(lines) == 4
