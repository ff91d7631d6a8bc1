import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from qubit_observer.kalman_filter import filter_paths, run_filter_ensemble
from qubit_observer.model_builder import (AugmentedModel, ObserverSpec,
                                          build_augmented, steady_state_mean)
from qubit_observer.sde_engine import (SimConfig, _psd_factor, ensemble_mean_cov,
                                       exact_lti_step, record_chain, sample_blocks,
                                       simulate_paths, time_grid, two_point_law,
                                       write_paths_csv)
from qubit_observer.spin_algebra import PlantSpec
from reference import live_step

MIXED = PlantSpec(r_p=np.zeros(3), c_p=[1.0, 0.0, 0.0], rho_p=np.eye(2) / 2)
PINNED = PlantSpec(r_p=np.zeros(3), c_p=[1.0, 0.0, 0.0],
                   rho_p=0.5 * np.array([[1.0, 1.0], [1.0, 1.0]]))  # z_p = +1 surely
OBS = ObserverSpec(omega_o=1.0, kappa=4.0, beta=np.array([1.0, 0.0]))


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(dt=0.0, t_final=1.0, n_paths=1, seed=0)
    with pytest.raises(ValueError):
        SimConfig(dt=0.1, t_final=0.05, n_paths=1, seed=0)
    with pytest.raises(ValueError):
        SimConfig(dt=1e-9, t_final=1e3, n_paths=1, seed=0)  # step guard
    with pytest.raises(ValueError):
        SimConfig(dt=0.1, t_final=1.0, n_paths=0, seed=0)


def test_exact_lti_step_trivial():
    transition, cov = exact_lti_step(np.zeros((2, 2)), np.eye(2), 0.25)
    np.testing.assert_allclose(transition, np.eye(2), atol=1e-14)
    np.testing.assert_allclose(cov, 0.25 * np.eye(2), atol=1e-14)


def test_exact_lti_step_scalar_decay():
    transition, _ = exact_lti_step(-2.0 * np.eye(2), np.zeros((2, 2)), 0.1)
    np.testing.assert_allclose(transition, math.exp(-0.2) * np.eye(2), atol=1e-14)


def test_exact_lti_step_covariance_against_quadrature():
    """Noise covariance vs Simpson quadrature of exp(As) B B^T exp(A^T s)."""
    rng = np.random.default_rng(1)
    a = rng.normal(size=(3, 3))
    b = rng.normal(size=(3, 2))
    dt = 0.3
    _, cov = exact_lti_step(a, b, dt)
    from scipy.linalg import expm
    n_quad = 2000
    s_grid = np.linspace(0.0, dt, n_quad + 1)
    vals = np.array([expm(a * s) @ b @ b.T @ expm(a.T * s) for s in s_grid])
    weights = np.ones(n_quad + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    quad = (dt / n_quad / 3.0) * np.einsum("k,kij->ij", weights, vals)
    np.testing.assert_allclose(cov, quad, atol=1e-9)


@pytest.mark.parametrize("kappa,dt", [(4.0, 0.05), (100.0, 0.5)])
def test_exact_lti_step_noise_cov_is_stationary_difference(kappa, dt):
    """For a stable drift the step's noise covariance is S - T S T^T, S the
    stationary covariance; kappa dt = 50 holds it to 1e-12 (relative) too."""
    from scipy.linalg import solve_continuous_lyapunov
    observer = ObserverSpec(omega_o=1.0, kappa=kappa, beta=np.array([1.0, 0.0]))
    model = build_augmented(MIXED, observer)
    a, b = model.A[1:, 1:], model.B[1:]
    stationary = solve_continuous_lyapunov(a, -b @ b.T)
    transition, cov = exact_lti_step(a, b, dt)
    expected = stationary - transition @ stationary @ transition.T
    assert np.max(np.abs(cov - expected)) <= 1e-12 * np.max(np.abs(expected))


def affine_step(a, u, dt):
    """Transition and drift of dx = (a x + u) dt over dt, read off the exact
    step of the augmented generator [[a, u], [0, 0]]."""
    n = len(u)
    aug = np.zeros((n + 1, n + 1))
    aug[:n, :n] = a
    aug[:n, n] = u
    transition, _ = exact_lti_step(aug, np.zeros((n + 1, 1)), dt)
    return transition[:n, :n], transition[:n, n]


def test_exact_affine_drift():
    a = np.array([[-1.0, 0.0], [0.0, -2.0]])
    u = np.array([3.0, 4.0])
    _, drift = affine_step(a, u, 0.5)
    expected = np.array([3.0 * (1 - math.exp(-0.5)) / 1.0, 4.0 * (1 - math.exp(-1.0)) / 2.0])
    np.testing.assert_allclose(drift, expected, atol=1e-13)


def test_em_and_exact_means_converge_first_order():
    """Euler mean recursion approaches the exact one at O(dt)."""
    model = build_augmented(PINNED, OBS)
    a_oo = model.A[1:, 1:]
    forcing = model.A[1:, 0]
    errs = []
    for dt in (0.02, 0.01, 0.005):
        n = int(round(2.0 / dt))
        transition, drift = affine_step(a_oo, forcing, dt)
        m_exact = np.zeros(2)
        m_euler = np.zeros(2)
        for _ in range(n):
            m_exact = transition @ m_exact + drift
            m_euler = m_euler + (a_oo @ m_euler + forcing) * dt
        errs.append(np.linalg.norm(m_euler - m_exact))
    ratios = np.array(errs[:-1]) / np.array(errs[1:])
    assert np.all(ratios > 1.7) and np.all(ratios < 2.3)


def test_two_point_law():
    support, p_plus = two_point_law(0.0, 1.0)
    assert support == 1.0 and p_plus == 0.5
    support, p_plus = two_point_law(1.0, 0.0)
    assert support == 1.0 and p_plus == 1.0
    support, p_plus = two_point_law(0.0, 0.0)
    assert support == 0.0
    with pytest.raises(ValueError):
        two_point_law(0.0, -1e-6)


def test_paths_pinned_plant_gives_unit_zp():
    plant = PlantSpec(r_p=np.zeros(3), c_p=[0.0, 0.0, 1.0], rho_p=np.diag([1.0, 0.0]))
    ens = simulate_paths(build_augmented(plant, OBS),
                         SimConfig(dt=0.1, t_final=0.2, n_paths=50, seed=0))
    assert np.all(ens.z_p == 1.0)


def test_paths_reproduce_zp_moments():
    """Empirical mean/variance of z_p over 1e5 paths within 4 standard errors."""
    n = 100_000
    dt = 0.1
    draws = simulate_paths(build_augmented(MIXED, OBS),
                           SimConfig(dt=dt, t_final=2 * dt, n_paths=n, seed=99)).z_p
    se_mean = 1.0 / math.sqrt(n)
    assert abs(draws.mean() - 0.0) < 4 * se_mean
    se_var = math.sqrt(2.0 / n)
    assert abs(draws.var() - 1.0) < 4 * se_var
    assert set(np.unique(draws)) == {-1.0, 1.0}


def test_paths_z_p_on_spectrum_and_constant():
    model = build_augmented(MIXED, OBS)
    config = SimConfig(dt=0.05, t_final=1.0, n_paths=64, seed=5)
    ens = simulate_paths(model, config)
    assert set(np.unique(ens.z_p)) <= {-1.0, 1.0}
    np.testing.assert_array_equal(ens.times, time_grid(config))
    assert ens.z_p.shape == (64,)
    assert ens.dz.shape == (64, config.n_steps)
    assert ens.x_o.shape == (64, config.n_steps + 1, 2)


def test_zero_input_model_keeps_zero_mean():
    """Degenerate z_p = 0 and x_o(0) = 0: the ensemble mean stays at zero."""
    model = build_augmented(MIXED, OBS)
    degenerate = AugmentedModel(A=model.A, B=model.B, C=model.C, D=model.D,
                                x0_mean=np.zeros(3), sigma0=np.zeros((3, 3)))
    config = SimConfig(dt=0.05, t_final=3.0, n_paths=400, seed=21)
    ens = simulate_paths(degenerate, config)
    assert np.all(ens.z_p == 0.0)
    mean, cov = ensemble_mean_cov(ens.x_o[:, -1])
    se = np.sqrt(np.diag(cov) / config.n_paths)
    assert np.all(np.abs(mean) < 4 * se)


def test_ensemble_mean_matches_steady_state():
    """Settled quadrature mean (-0.5, -0.5) within 4 SE over 2000 paths."""
    model = build_augmented(PINNED, OBS)
    config = SimConfig(dt=0.1, t_final=10.0, n_paths=2000, seed=11)
    ens = simulate_paths(model, config)
    mean, cov = ensemble_mean_cov(ens.x_o[:, -1])
    se = np.sqrt(np.diag(cov) / config.n_paths)
    target = steady_state_mean(OBS) @ OBS.beta
    np.testing.assert_array_less(np.abs(mean - target), 4 * se)


def test_stationary_covariance_is_identity():
    """Centered quadrature covariance solves the stationary Lyapunov equation."""
    model = build_augmented(MIXED, OBS)
    config = SimConfig(dt=0.25, t_final=10.0, n_paths=4000, seed=29)
    ens = simulate_paths(model, config)
    settled = steady_state_mean(OBS) @ OBS.beta
    centered = ens.x_o[:, -1] - np.outer(ens.z_p, settled)
    _, cov = ensemble_mean_cov(centered)
    tol = 4.0 * math.sqrt(2.0 / config.n_paths)
    np.testing.assert_allclose(cov, np.eye(2), atol=tol)


def test_record_variance_matches_gain_norm():
    """Per-step record variance approaches |K|^2 dt at steady state."""
    model = build_augmented(PINNED, OBS)
    dt = 0.002
    config = SimConfig(dt=dt, t_final=4.0, n_paths=200, seed=13)
    ens = simulate_paths(model, config)
    norm_k_sq = float((model.D @ model.D.T)[0, 0])
    window = ens.dz[:, ens.times[:-1] > 2.0]
    pooled = window - window.mean(axis=1, keepdims=True)
    ratio = pooled.var(ddof=1) / dt / norm_k_sq
    assert abs(ratio - 1.0) < 0.03


# The "scheme" id names the sampler's discretization; only the exact one exists.
@pytest.mark.parametrize("scheme", ["exact_lti"])
def test_paths_independent_of_ensemble_size(scheme):
    """A path's sample is bitwise the same whatever n_paths, and reruns repeat it.

    Every chunk is 256 columns wide, idle ones past n_paths, so every product
    has one shape: 1 and 257 paths leave one path in their last chunk, 2 and
    300 fewer than the 600-path run does.  The same holds for a stride of
    5 grid steps.
    """
    model = build_augmented(MIXED, OBS)
    for stride in (1, 5):

        def run(n_paths):
            return simulate_paths(model, SimConfig(dt=0.02, t_final=1.0, n_paths=n_paths,
                                                   seed=123), stride=stride)

        full = run(600)
        again = run(600)
        for name in ("z_p", "x_o", "dz"):
            np.testing.assert_array_equal(getattr(full, name), getattr(again, name))
        for n in (1, 2, 257, 300):
            part = run(n)
            for name in ("z_p", "x_o", "dz"):
                np.testing.assert_array_equal(getattr(part, name), getattr(full, name)[:n],
                                              err_msg=f"{name}, n_paths={n}, stride={stride}")


def _reference_noise(config, n_rows, n_noise=3):
    """Every path's noise draws, (n_paths, n_rows, n_noise), read off the
    documented stream contract: path i is column i % 256 of chunk i // 256,
    whose generator SeedSequence(seed, spawn_key=(2, i // 256)) gives one
    (n_noise, 256) array of normals per sampler step, in step order."""
    eta = np.empty((config.n_paths, n_rows, n_noise))
    for c, start in enumerate(range(0, config.n_paths, 256)):
        rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(2, c)))
        stop = min(start + 256, config.n_paths)
        for k in range(n_rows):
            eta[start:stop, k] = rng.standard_normal((n_noise, 256))[:, :stop - start].T
    return eta


def _reference_paths(model, config, transition, drift, factor, stride=1):
    """Plain per-path, per-step loop over the documented streams, n_steps //
    stride steps; each step's record increment is taken directly, without
    the record's column."""
    support, p_plus = two_point_law(model.x0_mean[0], model.sigma0[0, 0])
    z_rng, x0_rng = (np.random.default_rng(s) for s in
                     np.random.SeedSequence(config.seed).spawn(3)[:2])
    factor_o = np.linalg.cholesky(model.sigma0[1:, 1:])
    n_steps = config.n_steps // stride
    eta = _reference_noise(config, n_steps, factor.shape[1])
    z_p = np.empty(config.n_paths)
    x_o = np.empty((config.n_paths, n_steps + 1, 2))
    dz = np.empty((config.n_paths, n_steps))
    for i in range(config.n_paths):
        z_p[i] = support if z_rng.random() < p_plus else -support
        state = model.x0_mean[1:] + factor_o @ x0_rng.standard_normal(2)
        x_o[i, 0] = state
        for k in range(n_steps):
            new = transition[:, :2] @ state + drift * z_p[i] + factor @ eta[i, k]
            x_o[i, k + 1], dz[i, k] = new[:2], new[2]
            state = new[:2]
    return z_p, x_o, dz


@pytest.mark.parametrize("scheme", ["exact_lti"])  # id as above
def test_sampler_matches_reference_recursion(scheme):
    """simulate_paths is the recursion s' = T s + drift z_p + L eta on the stream
    contract; 257 paths and 130 steps cross a chunk and two block boundaries."""
    plant = PlantSpec(r_p=np.zeros(3), c_p=[0.0, 0.0, 1.0], rho_p=np.diag([0.8, 0.2]))
    observer = ObserverSpec(omega_o=1.0, kappa=4.0, beta=np.array([0.6, 0.8]),
                            x0_mean=[0.3, -0.2], sigma0=[[2.0, 0.2], [0.2, 0.6]])
    model = build_augmented(plant, observer)
    dt = 0.02
    config = SimConfig(dt=dt, t_final=2.6, n_paths=257, seed=17)
    transition, drift, cov = live_step(model, dt)
    factor = np.linalg.cholesky(cov)
    z_p, x_o, dz = _reference_paths(model, config, transition, drift, factor)
    ens = simulate_paths(model, config)
    assert set(np.unique(z_p)) == {-1.0, 1.0}
    np.testing.assert_array_equal(ens.z_p, z_p)
    np.testing.assert_allclose(ens.x_o, x_o, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(ens.dz, dz, rtol=0.0, atol=1e-12)


def test_record_increments_are_exact_over_a_long_horizon():
    """dz is each step's increment T[2, :2] x + drift[2] z_p + L[2] eta, not a
    difference of the integrated record, which grows with t and would lose
    about 2e-13 of it by t = 1000."""
    model = build_augmented(MIXED, OBS)
    config = SimConfig(dt=0.05, t_final=1000.0, n_paths=2, seed=5)
    ens = simulate_paths(model, config)
    transition, drift, cov = live_step(model, config.dt)
    eta = _reference_noise(config, config.n_steps)
    direct = (ens.x_o[:, :-1] @ transition[2, :2] + drift[2] * ens.z_p[:, None]
              + eta @ np.linalg.cholesky(cov)[2])
    np.testing.assert_allclose(ens.dz, direct, rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("n_paths,stride", [
    (257, 1), (257, 5), (257, 26), (257, 130), (1, 1), (1, 5), (1, 26), (1, 130),
], ids=["block-boundaries", "stride-5", "stride-26", "terminal", "lone-path",
        "lone-path-stride-5", "lone-path-stride-26", "lone-path-terminal"])
def test_kept_nodes_are_the_full_run_at_those_nodes(n_paths, stride):
    """A stride keeps the nodes 0, stride, ..., n_steps and one dz per
    strided step: the exact chain stepped stride grid steps at a time, one
    noise row per step, as _reference_paths rebuilds it from
    live_step(model, stride * dt).  z_p and x_o(0) are the stride-1 run's
    bitwise.  257 paths cross a chunk, and stride 1 on 130 steps crosses two
    block boundaries."""
    model = build_augmented(MIXED, OBS)
    config = SimConfig(dt=0.02, t_final=2.6, n_paths=n_paths, seed=31)
    full = simulate_paths(model, config)
    part = simulate_paths(model, config, stride=stride)
    np.testing.assert_array_equal(part.times, full.times[::stride])
    np.testing.assert_array_equal(part.z_p, full.z_p)
    np.testing.assert_array_equal(part.x_o[:, 0], full.x_o[:, 0])
    transition, drift, cov = live_step(model, stride * config.dt)
    z_p, x_o, dz = _reference_paths(model, config, transition, drift,
                                    np.linalg.cholesky(cov), stride)
    np.testing.assert_array_equal(part.z_p, z_p)
    for got, want in ((part.x_o, x_o), (part.dz, dz)):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_every_node_kept_is_the_default_run():
    """A stride of 1, given as an int or a numpy integer, is the default
    run, bitwise."""
    model = build_augmented(MIXED, OBS)
    config = SimConfig(dt=0.02, t_final=2.6, n_paths=70, seed=31)
    full = simulate_paths(model, config)
    for stride in (1, np.int64(1)):
        every = simulate_paths(model, config, stride=stride)
        for name in ("times", "z_p", "x_o", "dz"):
            np.testing.assert_array_equal(getattr(every, name), getattr(full, name))


@pytest.mark.parametrize("stride", [0, -1, 7, True, 2.5])
def test_stride_is_checked(stride):
    """A stride that is not a positive integer dividing the 130 steps is
    refused, naming stride, by simulate_paths and sample_blocks alike."""
    model = build_augmented(MIXED, OBS)
    config = SimConfig(dt=0.02, t_final=2.6, n_paths=2, seed=0)
    with pytest.raises(ValueError, match="stride must be"):
        simulate_paths(model, config, stride=stride)
    with pytest.raises(ValueError, match="stride must be"):
        next(sample_blocks(model, config, stride))


def test_strided_ensemble_writes_paths_csv_and_filters(tmp_path):
    """A strided ensemble is an ensemble on a coarser grid: paths.csv holds
    its nodes, and run_filter_ensemble filters it bitwise as filter_paths
    filters the same paths sampled on that grid."""
    model = build_augmented(MIXED, OBS)
    config = SimConfig(dt=0.02, t_final=2.6, n_paths=3, seed=4)
    ens = simulate_paths(model, config, stride=26)
    out = tmp_path / "paths.csv"
    write_paths_csv(out, ens)
    rows = np.loadtxt(out, delimiter=",", skiprows=1).reshape(3, 6, 6)
    np.testing.assert_array_equal(rows[:, :, 1], np.broadcast_to(ens.times, (3, 6)))
    np.testing.assert_array_equal(rows[:, :-1, 2], ens.dz)
    np.testing.assert_array_equal(rows[:, :, 3:5], ens.x_o)
    x_hat, covs, _ = run_filter_ensemble(model, ens.times, ens.dz)
    coarse = replace(config, dt=26 * config.dt)
    z_p, x_o, streamed, streamed_covs = filter_paths(model, coarse, np.arange(6))
    np.testing.assert_array_equal(z_p, ens.z_p)
    np.testing.assert_array_equal(x_o, ens.x_o)
    np.testing.assert_array_equal(x_hat, streamed)
    np.testing.assert_array_equal(covs, streamed_covs)


def _unstable_model():
    """The pinned plant's model with the quadratures' drift block set to +2 I."""
    model = build_augmented(PINNED, OBS)
    a = model.A.copy()
    a[1:, 1:] = 2.0 * np.eye(2)
    return AugmentedModel(A=a, B=model.B, C=model.C, D=model.D,
                          x0_mean=model.x0_mean, sigma0=model.sigma0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_unstable_run_raises():
    """A drift block of +2 I grows the state by e^(2 dt) per step until it
    overflows; the finiteness check turns that into a RuntimeError."""
    unstable = _unstable_model()
    config = SimConfig(dt=0.5, t_final=500.0, n_paths=3, seed=0)
    with pytest.raises(RuntimeError, match="non-finite state"):
        simulate_paths(unstable, config)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_unstable_run_on_a_partial_keep_raises():
    """A stride keeps the finiteness check: the +2 I drift overflows within
    ten strides of 50 time units, and the error names the path and the grid
    step of the block's end, 10 strides of 100 steps."""
    unstable = _unstable_model()
    config = SimConfig(dt=0.5, t_final=500.0, n_paths=3, seed=0)
    with pytest.raises(RuntimeError, match=r"path \d+ produced a non-finite state near step 1000"):
        simulate_paths(unstable, config, stride=100)


def test_psd_factor_tolerance_is_relative(monkeypatch):
    """The unstable model's live noise covariance over a 50-unit gap has
    eigenvalues near 1e87 and a third at roundoff, about 1e71 of either
    sign.  Given -1e-16 of the largest there, as roundoff can leave it, the
    eigenvalue route that serves where Cholesky fails accepts it, where an
    absolute tolerance refused it; -1e-6 of the largest is still refused."""
    cov = record_chain(_unstable_model(), 50.0)[1][1:, 1:]
    w, v = np.linalg.eigh(0.5 * (cov + cov.T))
    assert w[-1] > 1e86 and abs(w[0]) <= 1e-15 * w[-1]

    def fails(_):
        raise np.linalg.LinAlgError

    monkeypatch.setattr(np.linalg, "cholesky", fails)
    w[0] = -1e-16 * w[-1]
    factor = _psd_factor((v * w) @ v.T)
    assert np.max(np.abs(factor @ factor.T - cov)) <= 1e-12 * np.max(np.abs(cov))
    w[0] = -1e-6 * w[-1]
    with pytest.raises(ValueError, match="covariance not PSD"):
        _psd_factor((v * w) @ v.T)


def test_stats_only_peak_is_flat_in_the_horizon():
    """stride=n_steps takes one step per path, so the traced peak of a
    2000-path run does not grow with the step count; one chunk's noise for
    every step would add 256 * n_steps * 3 values, 11 MB at 2000 steps."""
    model = build_augmented(MIXED, OBS)
    peaks = []
    for t_final in (10.0, 100.0):
        config = SimConfig(dt=0.05, t_final=t_final, n_paths=2000, seed=3)
        tracemalloc.start()
        try:
            simulate_paths(model, config, stride=config.n_steps)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.05 * peaks[0], f"traced peaks {peaks} bytes"


def test_record_shares_noise_with_state():
    """The record is correlated with the state increments through the shared noise."""
    model = build_augmented(PINNED, OBS)
    config = SimConfig(dt=0.001, t_final=0.5, n_paths=50, seed=3)
    ens = simulate_paths(model, config)
    corrs = []
    for x_o, dz in zip(ens.x_o, ens.dz):
        dx = np.diff(x_o, axis=0) @ model.D[0] * -1.0  # -(K . dx_o)
        corrs.append(np.corrcoef(dx, dz)[0, 1])
    # dz = ... + K dw while dx_o = ... - sqrt(kappa) dw, so -K.dx_o ~ +sqrt(k) K dw
    assert np.mean(corrs) > 0.9


def test_ensemble_mean_cov_order_insensitive():
    rng = np.random.default_rng(8)
    data = rng.normal(size=(500, 3))
    mean_a, cov_a = ensemble_mean_cov(data)
    perm = rng.permutation(500)
    mean_b, cov_b = ensemble_mean_cov(data[perm])
    np.testing.assert_allclose(mean_a, mean_b, atol=1e-15)
    np.testing.assert_allclose(cov_a, cov_b, atol=1e-13)


def test_time_grid_and_csv_roundtrip(tmp_path):
    model = build_augmented(MIXED, OBS)
    config = SimConfig(dt=0.1, t_final=0.5, n_paths=2, seed=0)
    grid = time_grid(config)
    assert grid.shape == (6,) and grid[0] == 0.0
    ens = simulate_paths(model, config)
    out = tmp_path / "paths.csv"
    write_paths_csv(out, ens)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "path_id,t,dz,x_o_1,x_o_2,z_p_true"
    assert len(lines) == 1 + 2 * (config.n_steps + 1)
    first = lines[1].split(",")
    assert float(first[1]) == 0.0
    np.testing.assert_allclose(float(first[2]), ens.dz[0, 0])


def test_paths_csv_rejects_non_finite(tmp_path):
    """A NaN in path 2, in x_o or in dz, is found by export.write_csv's one
    pass over the blocks, which names block 2, path 2's, before the file is
    opened."""
    model = build_augmented(MIXED, OBS)
    ens = simulate_paths(model, SimConfig(dt=0.1, t_final=0.5, n_paths=3, seed=0))
    x_o, dz = ens.x_o.copy(), ens.dz.copy()
    x_o[2, 3, 1] = dz[2, 4] = np.nan
    out = tmp_path / "paths.csv"
    for bad in (replace(ens, x_o=x_o), replace(ens, dz=dz)):
        with pytest.raises(ValueError, match=r"non-finite value in output: nan in block 2$"):
            write_paths_csv(out, bad)
        assert list(tmp_path.iterdir()) == []
