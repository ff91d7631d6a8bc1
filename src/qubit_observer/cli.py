"""Batch front end: analyze / simulate / filter / oracle.

Every command is a pure function of (config, seed): artifacts are written
with fixed float formatting and contain no timestamps, so reruns are
byte-identical.  Exit code 0 means every embedded pass/fail check passed;
1 means a check failed, a run aborted or an artifact could not be written;
2 means the configuration was rejected or could not be read, or the output
directory could not be made.
"""

import argparse
import os
import sys
from dataclasses import replace

# Every BLAS product here is at most 17x17, or 3x3 by 3x256, so a second
# OpenBLAS thread does no work; it only spins on another core from numpy's
# import on.  OpenBLAS reads its count once, when numpy loads, so the default
# is set before the first numpy import below (the package's __init__ is lazy
# for this) and only when the user chose no count in a variable it reads.
if not any(os.environ.get(var) for var in
           ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np

from .config import ConfigError, ExperimentConfig, load_config
from .export import write_json
from .fock_oracle import (FockTruncationError, build_operators, evolve,
                          expectations, joint_initial_state,
                          reduced_mean_trajectory, write_oracle_csv)
# run_filter_ensemble is not called here: perfbench/traced_cli.py wraps it by
# this name, so the name stays.
from .kalman_filter import (_even_grid, _hamiltonian, filter_paths,
                            run_filter_ensemble, solve_riccati, write_riccati_csv)
from .model_builder import (LinearModel, build_augmented, closed_loop_transfer,
                            hurwitz_check, optimal_gain, output_bias,
                            steady_state_mean)
from .sde_engine import SimConfig, ensemble_mean_cov, simulate_paths, time_grid, write_paths_csv
from .spin_algebra import qubit_moments

ENV_OUT_DIR = "QUBIT_OBSERVER_OUT_DIR"

ALLPASS_TOL = 1e-10
GAIN_CONSTRAINT_TOL = 1e-12
ZSCORE_LIMIT = 4.0
SELF_TEST_TOL = 1e-12
ORACLE_MEAN_TOL = 1e-4
ORACLE_DRIFT_TOL = 1e-6
# The filter's P_k meets Sigma*(t_k) at second order in the step h; over the
# load envelope their relative gap reads at most 0.016 (|H|_2 h)^2.
RICCATI_GAP_FACTOR = 0.1


def _family_limit(n_tests: int) -> float:
    """|z| limit for n_tests two-sided z-tests whose Bonferroni family-wise
    false-alarm rate equals that of one two-sided ZSCORE_LIMIT test."""
    from statistics import NormalDist

    unit = NormalDist()
    return -unit.inv_cdf(unit.cdf(-ZSCORE_LIMIT) / n_tests)


def _covariance_z(x, cov, reference):
    """z-scores of the empirical covariance cov of the n rows of x against
    reference.  Entry (i, j) is the mean product of the centred columns less
    the product of the means' errors, so its squared standard error is
    var(c_i c_j, ddof=1)/n + (cov_ii cov_jj + cov_ij^2)/n^2, floored at 1e-300.
    Products are reduced along a contiguous last axis, as a 1-d var would be."""
    n, d = x.shape
    cols = np.ascontiguousarray(x.T)
    cols = cols - cols.mean(axis=1, keepdims=True)
    products = (cols[:, None, :] * cols[None, :, :]).reshape(d * d, n)
    var = (np.var(products, axis=1, ddof=1).reshape(d, d) / n
           + (np.outer(np.diag(cov), np.diag(cov)) + cov ** 2) / n ** 2)
    return (cov - reference) / np.maximum(np.sqrt(var), 1e-300)


def _check(report: dict, name: str, passed: bool, detail) -> None:
    report["checks"][name] = {"passed": bool(passed), "detail": detail}


def _finish(report: dict) -> bool:
    ok = all(c["passed"] for c in report["checks"].values())
    report["passed"] = ok
    return ok


def cmd_analyze(config: ExperimentConfig) -> dict:
    """Static analysis: bias vector, optimal quadrature, all-pass and Hurwitz checks."""
    obs = config.observer
    e = output_bias(obs)
    gain = optimal_gain(e)
    mean_map = steady_state_mean(obs)
    is_hurwitz, eigs = hurwitz_check(obs)
    expected = np.array([-0.5 * obs.kappa - 2j * obs.omega_o,
                         -0.5 * obs.kappa + 2j * obs.omega_o])
    eig_err = float(np.max(np.abs(eigs - expected)))
    omega_grid = np.round(np.arange(0.0, 50.0 + 1e-9, 0.1), 10)
    t_jw = closed_loop_transfer(obs, 1j * omega_grid)
    gram = t_jw @ np.swapaxes(t_jw.conj(), -1, -2) - np.eye(2)
    residual = float(np.max(np.abs(gram).sum(axis=-1)))
    ke = float((gain @ e)[0])

    report = {
        "command": "analyze",
        "observer": {"omega_o": obs.omega_o, "kappa": obs.kappa,
                     "beta": obs.beta.tolist()},
        "output_bias_e": e.tolist(),
        "homodyne_row_K": gain[0].tolist(),
        "norm_K": float(np.linalg.norm(gain)),
        "K_dot_e": ke,
        "steady_state_map": mean_map.tolist(),
        "x_o_settled_per_unit_zp": (mean_map @ obs.beta).tolist(),
        "drift_eigenvalues": [[z.real, z.imag] for z in eigs],
        "allpass_max_residual": residual,
        "checks": {},
    }
    _check(report, "allpass", residual <= ALLPASS_TOL,
           {"max_residual": residual, "tolerance": ALLPASS_TOL})
    _check(report, "hurwitz", is_hurwitz and eig_err <= 1e-12,
           {"eigenvalue_error": eig_err})
    _check(report, "gain_constraint", abs(ke - 1.0) <= GAIN_CONSTRAINT_TOL,
           {"K_dot_e_minus_1": ke - 1.0})
    _finish(report)
    return report


def cmd_simulate(config: ExperimentConfig) -> tuple:
    """Monte Carlo run: paths plus ensemble-vs-steady-state comparison.

    The report reads only the terminal node, so unless paths.csv is wanted
    the sampler takes one exact step per path, a stride of n_steps from
    node 0 straight to the terminal node, and the returned ensemble holds
    those two nodes alone.  Its statistics then differ in value from a run
    with paths.csv, which steps every node; z_p, and so the group counts, do
    not.
    """
    model = build_augmented(config.plant, config.observer)
    stride = 1 if "csv" in config.outputs.formats else config.sim.n_steps
    ens = simulate_paths(model, config.sim, stride)
    mean_map = steady_state_mean(config.observer) @ config.observer.beta

    terminal = ens.x_o[:, -1]
    z_true = ens.z_p
    report = {
        "command": "simulate",
        "n_paths": int(z_true.size),
        "t_final": float(ens.times[-1]),
        "seed": config.sim.seed,
        "groups": {},
        "checks": {},
    }

    z_limit, n_tests = 0.0, 0
    for label, mask in (("z_plus", z_true > 0), ("z_minus", z_true < 0)):
        count = int(mask.sum())
        if count < 2:
            continue
        mean, cov = ensemble_mean_cov(terminal[mask])
        theory = mean_map * z_true[mask][0]
        se = np.sqrt(np.diag(cov) / count)
        zscores = (mean - theory) / se
        z_limit = max(z_limit, float(np.max(np.abs(zscores))))
        n_tests += zscores.size
        report["groups"][label] = {
            "count": count,
            "empirical_mean": mean.tolist(),
            "steady_state_mean": theory.tolist(),
            "z_scores": zscores.tolist(),
        }

    centered = terminal - np.outer(z_true, mean_map)
    n = centered.shape[0]
    if n >= 2:
        _, cov = ensemble_mean_cov(centered)
        cov_z = _covariance_z(centered, cov, np.eye(2))
        z_limit = max(z_limit, float(np.max(np.abs(cov_z))))
        n_tests += cov_z.shape[0] * (cov_z.shape[0] + 1) // 2
        report["centered_terminal_covariance"] = cov.tolist()
        report["covariance_z_scores"] = cov_z.tolist()
    # n_tests counts the distinct z-scores (the covariance's upper triangle);
    # a run with none, as at one path, fails rather than passing untested.
    _check(report, "steady_state_agreement", n_tests > 0 and z_limit <= ZSCORE_LIMIT,
           {"max_abs_z": z_limit, "limit": ZSCORE_LIMIT, "n_tests": n_tests})
    _finish(report)
    return report, ens


def _filter_self_test() -> dict:
    """Closed-form scalar regression: covariance must follow 1/(1+t)."""
    model = LinearModel(A=np.zeros((1, 1)), B=np.zeros((1, 2)),
                        C=np.array([[1.0], [0.0]]), D=np.array([[1.0, 0.0]]),
                        x0_mean=np.zeros(1), sigma0=np.eye(1))
    grid = np.arange(0, 10001) * 1e-3
    ricc = solve_riccati(model, grid)
    exact = 1.0 / (1.0 + grid)
    max_dev = float(np.max(np.abs(ricc.sigma_star[:, 0, 0] - exact)))
    report = {"command": "filter", "mode": "self_test",
              "max_abs_deviation": max_dev, "checks": {}}
    _check(report, "scalar_regression_closed_form", max_dev <= SELF_TEST_TOL,
           {"max_abs_deviation": max_dev, "tolerance": SELF_TEST_TOL})
    _finish(report)
    return report


def _riccati_gap(model, ricc, cov_p) -> tuple:
    """Relative gap max_k |P_k - Sigma*(t_k)| / max|Sigma*(t_k)| and its
    tolerance RICCATI_GAP_FACTOR (|H|_2 h)^2, h the grid's one step, as
    Python floats, so the printed check reads plain numbers."""
    gap = np.max(np.abs(cov_p - ricc.sigma_star), axis=(1, 2))
    gap /= np.max(np.abs(ricc.sigma_star), axis=(1, 2))
    _, h = _even_grid(ricc.times)
    scale = float(np.linalg.norm(_hamiltonian(model), 2)) * h
    return float(gap.max()), float(RICCATI_GAP_FACTOR * scale ** 2)


def cmd_filter(config: ExperimentConfig, self_test: bool = False):
    """Riccati solve, record simulation and filter run with MC-vs-filter table.

    The simulation is regenerated on the filter grid and filtered block by
    block as it is sampled (kalman_filter.filter_paths), keeping each path
    only at the checkpoints and the terminal time, where the estimation
    errors are gated against the filter's covariance P_k; riccati_limit ties
    P_k to Sigma*.  The error statistics need sim.n_paths >= 2.
    """
    if self_test:
        return _filter_self_test(), None

    sim = replace(config.sim, dt=config.filter.dt, t_final=config.filter.t_final)
    if sim.n_paths < 2:
        raise ConfigError(f"sim.n_paths: filter needs at least 2 paths for its error "
                          f"statistics; got {sim.n_paths}")
    model = build_augmented(config.plant, config.observer)
    ricc = solve_riccati(model, time_grid(sim))

    n_paths = sim.n_paths
    n_steps = sim.n_steps
    # the checkpoints, in order, end at the terminal node
    checkpoints = np.unique(np.round(np.linspace(n_steps / 10.0, n_steps, 10)).astype(int))
    z_p, x_o, x_hat, cov_p = filter_paths(model, sim, checkpoints)
    gap, gap_tol = _riccati_gap(model, ricc, cov_p)
    table = []
    max_bias_z = 0.0
    max_cov_z = 0.0
    for slot, idx in enumerate(checkpoints):
        err = np.column_stack([z_p, x_o[:, slot]]) - x_hat[:, slot]
        mean, cov = ensemble_mean_cov(err)
        se_mean = np.maximum(np.sqrt(np.diag(cov) / n_paths), 1e-300)
        bias_z = mean / se_mean
        cov_z = _covariance_z(err, cov, cov_p[idx])
        max_bias_z = max(max_bias_z, float(np.max(np.abs(bias_z))))
        # cov_z is symmetric: each distinct entry is one test
        max_cov_z = max(max_cov_z, float(np.max(np.abs(cov_z[np.triu_indices(3)]))))
        table.append({
            "t": float(ricc.times[idx]),
            "bias_z_scores": bias_z.tolist(),
            "filter_covariance_diag": np.diag(cov_p[idx]).tolist(),
            "empirical_error_cov_diag": np.diag(cov).tolist(),
            "covariance_z_scores": cov_z.tolist(),
        })

    terminal_errors = (z_p - x_hat[:, -1, 0]).tolist()
    report = {
        "command": "filter",
        "mode": "monte_carlo",
        "n_paths": n_paths,
        "grid_dt": sim.dt,
        "t_final": float(ricc.times[-1]),
        "seed": sim.seed,
        "homodyne_row_K": model.D[0].tolist(),
        "sigma_star_terminal": ricc.sigma_star[-1].tolist(),
        "sigma_star_min_eig": float(np.linalg.eigvalsh(ricc.sigma_star).min()),
        "mc_vs_riccati": table,
        "terminal_zp_errors": terminal_errors,
        "terminal_zp_error_variance": float(np.var(terminal_errors, ddof=1)),
        "checks": {},
    }
    for name, max_z, n_tests in (("unbiasedness", max_bias_z, 3 * checkpoints.size),
                                 ("covariance_consistency", max_cov_z, 6 * checkpoints.size)):
        limit = _family_limit(n_tests)
        _check(report, name, max_z <= limit,
               {"max_abs_z": max_z, "limit": limit, "n_tests": n_tests})
    _check(report, "riccati_limit", gap <= gap_tol, {"gap": gap, "tolerance": gap_tol})
    _finish(report)
    return report, ricc


def cmd_oracle(config: ExperimentConfig) -> tuple:
    """Master-equation oracle vs reduced linear model at the mean level.

    The oscillator starts in the coherent state alpha = (x0_1 + i x0_2)/2,
    whose covariance is I, and the reference from the configured moments, so
    the first node checks the start.
    """
    plant, obs, fock = config.plant, config.observer, config.oracle
    if not np.array_equal(obs.sigma0, np.eye(2)):
        raise ConfigError(f"observer.sigma0: the oracle starts a coherent state, whose "
                          f"covariance is the identity; got {obs.sigma0.tolist()}")
    ops = build_operators(plant.r_p, plant.c_p, obs.beta, obs.omega_o, obs.kappa,
                          fock.n_trunc)
    x0 = obs.x0_mean
    state = joint_initial_state(plant.rho_p, fock.n_trunc, alpha=complex(x0[0], x0[1]) / 2)
    initial = expectations(state.rho[None], ops)
    times, traces = evolve(state, ops, fock)
    reference = reduced_mean_trajectory(obs.omega_o, obs.kappa, obs.beta,
                                        qubit_moments(plant)[0], x0, times)
    mean_dev = float(np.max(np.abs(
        np.column_stack([traces.exp_q, traces.exp_p]) - reference)))
    zp_drift = float(np.max(np.abs(traces.exp_zp - initial.exp_zp[0])))
    zp_sq_drift = float(np.max(np.abs(traces.exp_zp_sq - initial.exp_zp_sq[0])))
    report = {
        "command": "oracle",
        "n_trunc": fock.n_trunc,
        "dt": fock.dt,
        "t_final": float(times[-1]),
        "initial_exp_zp": float(traces.exp_zp[0]),
        "max_mean_deviation": mean_dev,
        "max_zp_drift": zp_drift,
        "max_zp_sq_drift": zp_sq_drift,
        "max_leakage": float(np.max(traces.leakage)),
        "max_trace_drift": float(np.max(traces.trace_drift)),
        "checks": {},
    }
    _check(report, "mean_agreement", mean_dev <= ORACLE_MEAN_TOL,
           {"max_deviation": mean_dev, "tolerance": ORACLE_MEAN_TOL})
    _check(report, "qnd_invariance", max(zp_drift, zp_sq_drift) <= ORACLE_DRIFT_TOL,
           {"max_drift": max(zp_drift, zp_sq_drift), "tolerance": ORACLE_DRIFT_TOL})
    _finish(report)
    return report, (times, traces)


def _print_checks(report: dict) -> None:
    for name, chk in report["checks"].items():
        tag = "PASS" if chk["passed"] else "FAIL"
        print(f"[{tag}] {report['command']}:{name}: {chk['detail']}")


def _resolve_out_dir(cli_out, config: ExperimentConfig) -> str:
    if cli_out:
        return cli_out
    env = os.environ.get(ENV_OUT_DIR)
    if env:
        return env
    return config.outputs.directory


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qubit-observer",
        description="Coherent quantum observer toolkit: analysis, simulation, "
                    "filtering and operator-level validation.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("analyze", "bias vector, optimal quadrature, all-pass/Hurwitz checks"),
        ("simulate", "sample homodyne records and compare with steady state"),
        ("filter", "Riccati solve plus Monte-Carlo filter validation"),
        ("oracle", "truncated-Fock master equation vs reduced model"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="JSON experiment configuration")
        cmd.add_argument("--out", default=None, help="output directory")
        cmd.add_argument("--seed", type=int, default=None, help="override sim seed")
        if name == "filter":
            cmd.add_argument("--self-test", action="store_true",
                             help="run the closed-form scalar regression check only")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    if args.seed is not None:
        try:
            config = replace(config, sim=replace(config.sim, seed=args.seed))
        except ValueError as exc:
            print(f"configuration error: sim.seed: {exc}", file=sys.stderr)
            return 2
    out_dir = _resolve_out_dir(args.out, config)
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        print(f"output error: cannot create the output directory {out_dir}: {exc}",
              file=sys.stderr)
        return 2
    want_csv = "csv" in config.outputs.formats

    try:
        if args.command == "analyze":
            report = cmd_analyze(config)
        elif args.command == "simulate":
            report, ens = cmd_simulate(config)
            if want_csv:
                write_paths_csv(os.path.join(out_dir, "paths.csv"), ens)
        elif args.command == "filter":
            report, ricc = cmd_filter(config, self_test=args.self_test)
            if ricc is not None and want_csv:
                write_riccati_csv(os.path.join(out_dir, "riccati.csv"), ricc)
        else:
            report, (times, traces) = cmd_oracle(config)
            if want_csv:
                write_oracle_csv(os.path.join(out_dir, "oracle.csv"), times, traces)
        write_json(os.path.join(out_dir, "report.json"), report)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except FockTruncationError as exc:
        print(f"oracle error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"output error: cannot write an artifact: {exc}", file=sys.stderr)
        return 1

    _print_checks(report)
    status = "PASS" if report["passed"] else "FAIL"
    print(f"{status}: report written to {os.path.join(out_dir, 'report.json')}")
    return 0 if report["passed"] else 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
