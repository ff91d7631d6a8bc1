import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from qubit_observer.model_builder import (AugmentedModel, ObserverSpec,
                                          build_augmented, steady_state_mean)
from qubit_observer.sde_engine import (SimConfig, ensemble_mean_cov,
                                       exact_lti_step, sample_blocks,
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

    n_paths = 1 and 257 leave a one-path chunk; 2 and 300 leave narrower
    chunks than the 600-path run.
    """
    model = build_augmented(MIXED, OBS)

    def run(n_paths):
        return simulate_paths(model, SimConfig(dt=0.02, t_final=1.0, n_paths=n_paths,
                                               seed=123))

    full = run(600)
    again = run(600)
    for name in ("z_p", "x_o", "dz"):
        np.testing.assert_array_equal(getattr(full, name), getattr(again, name))
    for n in (1, 2, 257, 300):
        part = run(n)
        for name in ("z_p", "x_o", "dz"):
            np.testing.assert_array_equal(getattr(part, name), getattr(full, name)[:n],
                                          err_msg=f"{name}, n_paths={n}")


def _reference_paths(model, config, transition, drift, factor):
    """Plain per-path, per-step loop over the three documented streams; each
    step's record increment is taken directly, without the record's column."""
    support, p_plus = two_point_law(model.x0_mean[0], model.sigma0[0, 0])
    z_rng, x0_rng, noise_rng = (np.random.default_rng(s) for s in
                                np.random.SeedSequence(config.seed).spawn(3))
    factor_o = np.linalg.cholesky(model.sigma0[1:, 1:])
    n_steps = config.n_steps
    z_p = np.empty(config.n_paths)
    x_o = np.empty((config.n_paths, n_steps + 1, 2))
    dz = np.empty((config.n_paths, n_steps))
    for i in range(config.n_paths):
        z_p[i] = support if z_rng.random() < p_plus else -support
        state = model.x0_mean[1:] + factor_o @ x0_rng.standard_normal(2)
        eta = noise_rng.standard_normal((n_steps, factor.shape[1]))
        x_o[i, 0] = state
        for k in range(n_steps):
            new = transition[:, :2] @ state + drift * z_p[i] + factor @ eta[k]
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
    noise_rng = np.random.default_rng(np.random.SeedSequence(config.seed).spawn(3)[2])
    eta = noise_rng.standard_normal((config.n_paths, config.n_steps, 3))
    direct = (ens.x_o[:, :-1] @ transition[2, :2] + drift[2] * ens.z_p[:, None]
              + eta @ np.linalg.cholesky(cov)[2])
    np.testing.assert_allclose(ens.dz, direct, rtol=0.0, atol=1e-14)


def _reference_kept(model, config, keep):
    """x_o at the kept nodes by a plain per-path loop over the three
    documented streams, one exact step of live_step(model, g dt) from node 0
    to each kept node, g its gap in grid steps."""
    nodes = list(keep) if keep[0] == 0 else [0] + list(keep)
    steps = {g: live_step(model, g * config.dt) for g in set(np.diff(nodes).tolist())}
    support, p_plus = two_point_law(model.x0_mean[0], model.sigma0[0, 0])
    z_rng, x0_rng, noise_rng = (np.random.default_rng(s) for s in
                                np.random.SeedSequence(config.seed).spawn(3))
    factor_o = np.linalg.cholesky(model.sigma0[1:, 1:])
    x_o = np.empty((config.n_paths, len(nodes), 2))
    for i in range(config.n_paths):
        z_p = support if z_rng.random() < p_plus else -support
        x_o[i, 0] = model.x0_mean[1:] + factor_o @ x0_rng.standard_normal(2)
        eta = noise_rng.standard_normal((len(nodes) - 1, 3))
        for k, g in enumerate(np.diff(nodes)):
            transition, drift, cov = steps[g]
            new = (transition[:, :2] @ x_o[i, k] + drift * z_p
                   + np.linalg.cholesky(cov) @ eta[k])
            x_o[i, k + 1] = new[:2]
    return x_o[:, len(nodes) - len(keep):]


@pytest.mark.parametrize("n_paths,keep", [
    (257, [0, 63, 64, 65, 128, 130]),
    (257, [5, 64, 129, 130]),
    (257, [0, 130]),
    (1, [130]),
    (1, [0, 64, 65]),
], ids=["block-boundaries", "no-node-0", "blocks-keeping-nothing", "lone-path-terminal",
        "lone-path"])
def test_kept_nodes_are_the_full_run_at_those_nodes(n_paths, keep):
    """keep stores the kept nodes' times and the full run's z_p bitwise and no
    dz, which exists only on the full grid; x_o there is the exact chain
    stepped from node 0 straight to each kept node, one noise row per gap, as
    _reference_kept rebuilds it.  257 paths cross a chunk."""
    model = build_augmented(MIXED, OBS)
    config = SimConfig(dt=0.02, t_final=2.6, n_paths=n_paths, seed=31)
    full = simulate_paths(model, config)
    part = simulate_paths(model, config, keep=keep)
    np.testing.assert_array_equal(part.times, full.times[keep])
    np.testing.assert_array_equal(part.z_p, full.z_p)
    want = _reference_kept(model, config, keep)
    assert np.max(np.abs(part.x_o - want)) <= 1e-13 * np.max(np.abs(want))
    assert part.dz.shape == (n_paths, 0)


def test_every_node_kept_is_the_default_run():
    """All nodes listed give the default run's arrays bitwise, and all but
    node 0 (stored before the first step) its x_o there and no dz."""
    model = build_augmented(MIXED, OBS)
    config = SimConfig(dt=0.02, t_final=2.6, n_paths=70, seed=31)
    full = simulate_paths(model, config)
    every = simulate_paths(model, config, keep=np.arange(config.n_steps + 1))
    for name in ("times", "z_p", "x_o", "dz"):
        np.testing.assert_array_equal(getattr(every, name), getattr(full, name))
    tail = simulate_paths(model, config, keep=np.arange(1, config.n_steps + 1))
    np.testing.assert_array_equal(tail.x_o, full.x_o[:, 1:])
    assert tail.dz.shape == (70, 0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_unstable_run_raises():
    """A drift block of +2 I grows the state by e^(2 dt) per step until it
    overflows; the finiteness check turns that into a RuntimeError."""
    model = build_augmented(PINNED, OBS)
    a = model.A.copy()
    a[1:, 1:] = 2.0 * np.eye(2)
    unstable = AugmentedModel(A=a, B=model.B, C=model.C, D=model.D,
                              x0_mean=model.x0_mean, sigma0=model.sigma0)
    config = SimConfig(dt=0.5, t_final=500.0, n_paths=3, seed=0)
    with pytest.raises(RuntimeError, match="non-finite state"):
        simulate_paths(unstable, config)


@pytest.mark.parametrize("nodes,match", [
    ([5, 10], "nodes must start at node 0"),
    ([0, 5, 5], r"nodes must be strictly increasing node indices in \[0, 50\]"),
    ([0, 51], r"nodes must be .* in \[0, 50\]"),
])
def test_sampler_nodes_are_checked(nodes, match):
    model = build_augmented(MIXED, OBS)
    config = SimConfig(dt=0.02, t_final=1.0, n_paths=2, seed=0)
    with pytest.raises(ValueError, match=match):
        next(sample_blocks(model, config, nodes))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_unstable_run_on_a_partial_keep_raises():
    """Stepping straight between kept nodes keeps the finiteness check: the
    +2 I drift overflows within the gaps of 50 time units, and the error
    names the path and the grid step of the block's end."""
    model = build_augmented(PINNED, OBS)
    a = model.A.copy()
    a[1:, 1:] = 2.0 * np.eye(2)
    unstable = AugmentedModel(A=a, B=model.B, C=model.C, D=model.D,
                              x0_mean=model.x0_mean, sigma0=model.sigma0)
    config = SimConfig(dt=0.5, t_final=500.0, n_paths=3, seed=0)
    with pytest.raises(RuntimeError, match=r"path \d+ produced a non-finite state near step 1000"):
        simulate_paths(unstable, config, keep=[100, 500, 1000])


def test_stats_only_peak_is_flat_in_the_horizon():
    """keep=[n_steps] takes one step per path, so the traced peak of a
    2000-path run does not grow with the step count; one chunk's noise for
    every step would add 256 * n_steps * 3 values, 11 MB at 2000 steps."""
    model = build_augmented(MIXED, OBS)
    peaks = []
    for t_final in (10.0, 100.0):
        config = SimConfig(dt=0.05, t_final=t_final, n_paths=2000, seed=3)
        tracemalloc.start()
        try:
            simulate_paths(model, config, keep=[config.n_steps])
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
    model = build_augmented(MIXED, OBS)
    ens = simulate_paths(model, SimConfig(dt=0.1, t_final=0.5, n_paths=3, seed=0))
    x_o = ens.x_o.copy()
    x_o[2, 3, 1] = np.nan
    out = tmp_path / "paths.csv"
    with pytest.raises(ValueError, match="path 2"):
        write_paths_csv(out, replace(ens, x_o=x_o))
    assert not out.exists()


def test_paths_csv_rejects_an_ensemble_without_every_dz(tmp_path):
    """A partial keep stores no dz, which paths.csv needs at every node: the
    writer says so before any file is opened."""
    model = build_augmented(MIXED, OBS)
    ens = simulate_paths(model, SimConfig(dt=0.1, t_final=0.5, n_paths=3, seed=0),
                         keep=[0, 2, 5])
    out = tmp_path / "paths.csv"
    with pytest.raises(ValueError, match=r"paths\.csv needs every node: dz"):
        write_paths_csv(out, ens)
    assert list(tmp_path.iterdir()) == []
