"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run `pytest tests/test_acceptance.py -v -s` to see the lines as they pass.
Every tolerance is pinned here; nothing is deferred to later calibration.
"""

import json
import math
import time

import numpy as np
import pytest

from qubit_observer.cli import main
from qubit_observer.fock_oracle import (FockConfig, build_operators, evolve,
                                        joint_initial_state,
                                        reduced_mean_trajectory)
from qubit_observer.kalman_filter import run_filter_ensemble, solve_riccati
from qubit_observer.model_builder import (ObserverSpec, build_augmented,
                                          closed_loop_transfer, hurwitz_check,
                                          optimal_gain, output_bias)
from qubit_observer.sde_engine import SimConfig, simulate_paths, time_grid
from qubit_observer.spin_algebra import (PAULI, PlantSpec, plant_generator,
                                         qubit_moments, theta)
from reference import EPSILON, commutator_oracle, exact_error_moments

DEFAULT_PLANT = PlantSpec(r_p=np.zeros(3), c_p=[1.0, 0.0, 0.0], rho_p=np.eye(2) / 2)
DEFAULT_OBSERVER = ObserverSpec(omega_o=1.0, kappa=4.0, beta=np.array([1.0, 0.0]))
EIGENSTATE_RHO = 0.5 * np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)


def _report(num, name, ok, detail, elapsed):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {num} ({name}): {detail} [{elapsed:.2f} s]")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_1_algebraic_suite():
    """Theta identities, Pauli products/commutators, generator vs oracle; 1e-12."""
    start = time.perf_counter()
    tol = 1e-12
    worst = 0.0
    rng = np.random.default_rng(101)
    eye3 = np.eye(3)
    for _ in range(1000):
        b = rng.uniform(-1.0, 1.0, 3)
        g = rng.uniform(-1.0, 1.0, 3)
        tb, tg = theta(b), theta(g)
        worst = max(worst, np.abs(tb @ g + tg @ b).max())
        worst = max(worst, np.abs(tb @ b).max())
        worst = max(worst, np.abs(tb @ tg - (np.outer(g, b) - np.dot(b, g) * eye3)).max())
        worst = max(worst, np.abs(theta(tb @ g) - (tb @ tg - tg @ tb)).max())
    sigmas = PAULI
    for i in range(3):
        for j in range(3):
            product = sigmas[i] @ sigmas[j]
            formula = (1.0 if i == j else 0.0) * np.eye(2) + sum(
                1j * EPSILON[i, j, k] * sigmas[k] for k in range(3))
            worst = max(worst, np.abs(product - formula).max())
            comm = product - sigmas[j] @ sigmas[i]
            expected = sum(2j * EPSILON[i, j, k] * sigmas[k] for k in range(3))
            worst = max(worst, np.abs(comm - expected).max())
    for _ in range(100):
        r = rng.uniform(-2.0, 2.0, 3)
        worst = max(worst, np.abs(plant_generator(r) - commutator_oracle(r)).max())
    elapsed = time.perf_counter() - start
    _report(1, "algebraic suite", worst <= tol and elapsed < 1.0,
            f"max residual {worst:.3e} (tol {tol:.0e})", elapsed)


def test_criterion_2_qnd_invariance():
    """alpha^T Theta(alpha) = 0 exactly; oracle z_p drift <= 1e-6 over kappa*t = 10."""
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    exact_zero = True
    for _ in range(100):
        a = rng.uniform(-1.0, 1.0, 3)
        th = theta(a)
        # plain scalar evaluation keeps the paired products exactly cancelling;
        # BLAS dot may fuse multiply-adds and leave ~1e-17 residue
        for j in range(3):
            component = a[0] * th[0, j] + a[1] * th[1, j] + a[2] * th[2, j]
            exact_zero = exact_zero and component == 0.0

    kappa = 4.0
    ops = build_operators(np.zeros(3), [1.0, 0.0, 0.0], [1.0, 0.0], 1.0, kappa, 20)
    comm_h = np.abs(ops.z_p @ ops.h_total - ops.h_total @ ops.z_p).max()
    comm_l = np.abs(ops.z_p @ ops.lindblad - ops.lindblad @ ops.z_p).max()
    state = joint_initial_state(EIGENSTATE_RHO, 20)
    config = FockConfig(n_trunc=20, dt=1e-3, t_final=10.0 / kappa, store_every=25)
    _, traces = evolve(state, ops, config)
    drift = float(np.max(np.abs(traces.exp_zp - traces.exp_zp[0])))
    elapsed = time.perf_counter() - start
    ok = (exact_zero and drift <= 1e-6 and comm_h <= 1e-12 and comm_l <= 1e-12
          and elapsed < 30.0)
    _report(2, "QND invariance", ok,
            f"exact zeros {exact_zero}, z_p drift {drift:.3e} (tol 1e-06), "
            f"commutators {max(comm_h, comm_l):.1e}", elapsed)


def test_criterion_3_all_pass_and_hurwitz():
    """|T(jw) T(jw)^dag - I| <= 1e-10 over w in {0,...,50}; eigenvalues exact to 1e-12."""
    start = time.perf_counter()
    pairs = [(4.0, 1.0), (4.0, 0.0), (1.0, 0.5), (0.5, 2.0), (10.0, 3.0)]
    omega_grid = np.round(np.arange(0.0, 50.0 + 1e-9, 0.1), 10)
    worst_residual = 0.0
    worst_eig = 0.0
    hurwitz_ok = True
    for kappa, omega_o in pairs:
        obs = ObserverSpec(omega_o=omega_o, kappa=kappa, beta=np.array([1.0, 0.0]))
        for w in omega_grid:
            t_jw = closed_loop_transfer(obs, 1j * w)
            residual = np.linalg.norm(t_jw @ t_jw.conj().T - np.eye(2), ord=np.inf)
            worst_residual = max(worst_residual, float(residual))
        is_hurwitz, eigs = hurwitz_check(obs)
        hurwitz_ok = hurwitz_ok and is_hurwitz
        expected = np.array([-0.5 * kappa - 2j * omega_o, -0.5 * kappa + 2j * omega_o])
        worst_eig = max(worst_eig, float(np.max(np.abs(eigs - expected))))
    elapsed = time.perf_counter() - start
    ok = worst_residual <= 1e-10 and worst_eig <= 1e-12 and hurwitz_ok
    _report(3, "all-pass / Hurwitz", ok,
            f"max residual {worst_residual:.3e} (tol 1e-10), "
            f"max eigenvalue error {worst_eig:.3e} (tol 1e-12)", elapsed)


def test_criterion_4_gain_optimality():
    """K e = 1 to 1e-14; 1000 feasible rows no shorter; kappa scaling to 1e-12."""
    start = time.perf_counter()
    rng = np.random.default_rng(404)
    ke_worst = 0.0
    minimality_ok = True
    for kappa, omega_o, beta in [(4.0, 1.0, (1.0, 0.0)), (4.0, 0.0, (1.0, 0.0)),
                                 (0.7, 2.5, (0.3, -1.1))]:
        obs = ObserverSpec(omega_o=omega_o, kappa=kappa, beta=np.array(beta))
        e = output_bias(obs)
        k_row = optimal_gain(e)[0]
        ke_worst = max(ke_worst, abs(float(np.dot(k_row, e)) - 1.0))
        perp = np.array([-e[1], e[0]])
        for _ in range(1000):
            u = k_row + rng.uniform(-5.0, 5.0) * perp
            if np.linalg.norm(u) < np.linalg.norm(k_row) - 1e-12:
                minimality_ok = False
    scaling_worst = 0.0
    beta = np.array([0.6, -0.8])
    for kappa in (1e-3, 1e-2, 0.1, 1.0, 4.0, 16.0):
        obs = ObserverSpec(omega_o=0.0, kappa=kappa, beta=beta)
        norm_k = np.linalg.norm(optimal_gain(output_bias(obs)))
        scaling_worst = max(scaling_worst,
                            abs(norm_k - math.sqrt(kappa) / (4.0 * np.linalg.norm(beta))))
    elapsed = time.perf_counter() - start
    ok = ke_worst <= 1e-14 and minimality_ok and scaling_worst <= 1e-12
    _report(4, "gain optimality", ok,
            f"|Ke-1| {ke_worst:.2e} (tol 1e-14), minimality {minimality_ok}, "
            f"scaling error {scaling_worst:.2e} (tol 1e-12)", elapsed)


def test_criterion_5_riccati_correctness():
    """Scalar closed form to 1e-11 at dt=1e-3 on [0,10]."""
    start = time.perf_counter()
    from qubit_observer.kalman_filter import LinearModel
    model = LinearModel(A=np.zeros((1, 1)), B=np.zeros((1, 2)),
                        C=np.array([[1.0], [0.0]]), D=np.array([[1.0, 0.0]]),
                        x0_mean=np.zeros(1), sigma0=np.eye(1))
    grid = np.arange(0, 10001) * 1e-3
    ricc = solve_riccati(model, grid)
    closed_form_dev = float(np.max(np.abs(ricc.sigma_star[:, 0, 0] - 1.0 / (1.0 + grid))))
    elapsed = time.perf_counter() - start
    ok = closed_form_dev <= 1e-11 and elapsed < 5.0
    _report(5, "Riccati correctness", ok,
            f"closed-form error {closed_form_dev:.3e} (tol 1e-11)", elapsed)


def test_criterion_6_filter_statistical_suite():
    """Unbiasedness, covariance match and gain optimality at default parameters."""
    start = time.perf_counter()
    n_paths = 2500
    sim = SimConfig(dt=0.004, t_final=2.0, n_paths=n_paths, seed=2718)
    model = build_augmented(DEFAULT_PLANT, DEFAULT_OBSERVER)
    grid = time_grid(sim)
    ens = simulate_paths(model, sim)
    x_hat, covs, gains = run_filter_ensemble(model, ens.times, ens.dz)

    n_steps = grid.size - 1
    checkpoints = np.unique(np.round(np.linspace(n_steps / 10.0, n_steps, 10)).astype(int))
    max_bias_z = 0.0
    max_cov_z = 0.0
    for idx in checkpoints:
        e_k = np.column_stack([ens.z_p, ens.x_o[:, idx]]) - x_hat[:, idx]
        bias = e_k.mean(axis=0)
        se = e_k.std(axis=0, ddof=1) / math.sqrt(n_paths)
        max_bias_z = max(max_bias_z, float(np.max(np.abs(bias / se))))
        emp = np.cov(e_k.T, ddof=1)
        for i in range(3):
            for j in range(3):
                products = e_k[:, i] * e_k[:, j]
                se_ij = max(products.std(ddof=1) / math.sqrt(n_paths), 1e-300)
                z_ij = abs(emp[i, j] - covs[idx, i, j]) / se_ij
                max_cov_z = max(max_cov_z, float(z_ij))

    trace_p = float(np.trace(covs[-1]))
    rng = np.random.default_rng(606)
    min_excess = np.inf
    for _ in range(50):
        delta = rng.normal(scale=rng.uniform(0.01, 0.5), size=(3, 1))
        _, cov = exact_error_moments(model, grid, gains + delta)
        min_excess = min(min_excess, float(np.trace(cov[-1])) - trace_p)

    elapsed = time.perf_counter() - start
    ok = (max_bias_z <= 4.0 and max_cov_z <= 4.0 and min_excess >= -1e-12
          and elapsed < 120.0)
    _report(6, "filter statistical suite", ok,
            f"max bias z {max_bias_z:.2f}, max covariance z {max_cov_z:.2f} "
            f"(limit 4), min perturbed-gain excess {min_excess:.3e} (>= -1e-12)",
            elapsed)


def test_criterion_7_surrogate_oracle_agreement():
    """Master-equation quadrature means vs reduced linear model started from
    the configured moments, 1e-4."""
    start = time.perf_counter()
    plant = PlantSpec(r_p=np.zeros(3), c_p=[1.0, 0.0, 0.0], rho_p=EIGENSTATE_RHO)
    obs = DEFAULT_OBSERVER
    ops = build_operators(plant.r_p, plant.c_p, obs.beta, obs.omega_o, obs.kappa, 20)
    state = joint_initial_state(plant.rho_p, 20)
    config = FockConfig(n_trunc=20, dt=1e-3, t_final=2.5, store_every=10)
    times, traces = evolve(state, ops, config)
    reference = reduced_mean_trajectory(obs.omega_o, obs.kappa, obs.beta,
                                        qubit_moments(plant)[0], obs.x0_mean, times)
    deviation = float(np.max(np.abs(
        np.column_stack([traces.exp_q, traces.exp_p]) - reference)))
    elapsed = time.perf_counter() - start
    ok = deviation <= 1e-4 and elapsed < 60.0
    _report(7, "surrogate/oracle agreement", ok,
            f"max mean deviation {deviation:.3e} (tol 1e-04)", elapsed)


def test_criterion_8_determinism(tmp_path):
    """Every command rerun with identical config and seed is byte-identical."""
    start = time.perf_counter()
    config = {
        "plant": {
            "r_p": [0.0, 0.0, 0.0],
            "C_p": [1.0, 0.0, 0.0],
            "rho_p": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]],
        },
        "observer": {"omega_o": 1.0, "kappa": 4.0, "beta": [1.0, 0.0]},
        "sim": {"dt": 0.02, "t_final": 2.0, "n_paths": 400, "seed": 77},
        "filter": {"dt": 0.01, "t_final": 1.0},
        "oracle": {"n_trunc": 10, "dt": 0.001, "t_final": 0.3, "store_every": 10},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    artifacts = {
        "analyze": ("report.json",),
        "simulate": ("report.json", "paths.csv"),
        "filter": ("report.json", "riccati.csv"),
        "oracle": ("report.json", "oracle.csv"),
    }
    all_identical = True
    for command, files in artifacts.items():
        dirs = []
        for run in ("a", "b"):
            out = tmp_path / f"{command}_{run}"
            code = main([command, "--config", str(config_path), "--out", str(out)])
            assert code == 0, f"{command} exited with {code}"
            dirs.append(out)
        for name in files:
            identical = (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
            all_identical = all_identical and identical
    elapsed = time.perf_counter() - start
    _report(8, "determinism", all_identical,
            "all artifacts byte-identical across reruns", elapsed)
