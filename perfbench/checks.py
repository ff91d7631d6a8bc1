"""Output checks for the benchmark, computed apart from the program.

Nothing here imports ``qubit_observer``: the model matrices, the steady state,
the Riccati solution and the reduced oracle means are rebuilt from the raw
JSON config with numpy and scipy, so a fault in the program cannot hide in
the check.  Every check returns a list of failure messages; an empty list
means the artifact passed.

Statistical checks use a 4 sigma gate (``Z_LIMIT``).  Deterministic checks
use fixed tolerances:

* Riccati covariance and gains: ``16 h**4`` for the RK4 step ``h``
  (1e-8 at h = 0.005, where RK4 is 9.7e-10 off the exact solution);
* oracle quadrature means: 1e-4 against the exact affine propagator;
* oracle ``exp_zp`` conservation: 1e-6;
* self-test deviation from ``1/(1+t)``: 1e-8.
"""

import csv
import math

import numpy as np
from scipy.linalg import expm, solve_continuous_lyapunov

Z_LIMIT = 4.0
ORACLE_MEAN_TOL = 1e-4
ORACLE_ZP_TOL = 1e-6
SELF_TEST_TOL = 1e-8

J = np.array([[0.0, 1.0], [-1.0, 0.0]])
PAULI = (np.array([[0, 1], [1, 0]], dtype=complex),
         np.array([[0, -1j], [1j, 0]], dtype=complex),
         np.array([[1, 0], [0, -1]], dtype=complex))
PATHS_HEADER = ["path_id", "t", "dz", "x_o_1", "x_o_2", "z_p_true"]
ORACLE_HEADER = ["t", "exp_zp", "exp_q", "exp_p", "leakage"]


def load_table(path):
    """Header and float rows of a CSV artifact."""
    with open(path, newline="", encoding="utf-8") as fh:
        header = next(csv.reader(fh))
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


# --- the model, rebuilt from the raw config ---------------------------------

def n_steps(dt, t_final):
    return max(1, int(round(t_final / dt)))


def drift(obs):
    """Observer drift -(kappa/2) I + 2 omega_o J."""
    return -0.5 * obs["kappa"] * np.eye(2) + 2.0 * obs["omega_o"] * J


def plant_moments(cfg):
    """(support |c_p|, <c_p . sigma>, P(z_p = +|c_p|)) from the density matrix."""
    c_p = np.asarray(cfg["plant"]["C_p"], dtype=float)
    pairs = np.asarray(cfg["plant"]["rho_p"], dtype=float)
    rho = pairs[..., 0] + 1j * pairs[..., 1]
    spin = sum(c * s for c, s in zip(c_p, PAULI))
    mean = float(np.trace(rho @ spin).real)
    support = float(np.linalg.norm(c_p))
    return support, mean, 0.5 * (1.0 + mean / support)


def steady_state_mean(cfg):
    """Settled quadrature mean per unit z_p: -Atilde^{-1} (2 J beta)."""
    obs = cfg["observer"]
    return -np.linalg.solve(drift(obs), 2.0 * J @ np.asarray(obs["beta"], dtype=float))


def stationary_cov(cfg):
    """Quadrature covariance S with Atilde S + S Atilde^T + kappa I = 0."""
    obs = cfg["observer"]
    return solve_continuous_lyapunov(drift(obs), -obs["kappa"] * np.eye(2))


def linear_model(cfg):
    """(A, B, C, D, sigma0) of the 3-state model in the order (z_p, x_o1, x_o2)."""
    obs = cfg["observer"]
    kappa = obs["kappa"]
    jb = J @ np.asarray(obs["beta"], dtype=float)
    a = np.zeros((3, 3))
    a[1:, 0] = 2.0 * jb
    a[1:, 1:] = drift(obs)
    b = np.zeros((3, 2))
    b[1:] = -math.sqrt(kappa) * np.eye(2)
    c = np.zeros((2, 3))
    c[:, 1:] = math.sqrt(kappa) * np.eye(2)
    e = -2.0 * math.sqrt(kappa) * np.linalg.solve(drift(obs), jb)
    d = (e / (e @ e))[None, :]
    support, mean, _ = plant_moments(cfg)
    sigma0 = np.zeros((3, 3))
    sigma0[0, 0] = support ** 2 - mean ** 2
    sigma0[1:, 1:] = np.asarray(obs.get("sigma0", np.eye(2)), dtype=float)
    return a, b, c, d, sigma0


def exact_riccati(cfg, times):
    """Riccati covariance and gains at ``times`` from the Hamiltonian solution.

    With F = A - B D^T S^-1 D C, R = C^T D^T S^-1 D C, Q = B B^T - B D^T S^-1 D B^T
    and S = D D^T, the equation Sigma' = F Sigma + Sigma F^T - Sigma R Sigma + Q
    is solved by Sigma = Y X^-1, where [X; Y]' = [[-F^T, R], [Q, F]] [X; Y],
    X(0) = I and Y(0) = Sigma0 (Davison and Maki 1973).
    """
    a, b, c, d, sigma0 = linear_model(cfg)
    n = a.shape[0]
    s_inv = np.linalg.inv(d @ d.T)
    dc = d @ c
    f = a - b @ d.T @ s_inv @ dc
    r = dc.T @ s_inv @ dc
    q = b @ b.T - b @ d.T @ s_inv @ d @ b.T
    ham = np.block([[-f.T, r], [q, f]])
    start = np.vstack([np.eye(n), sigma0])
    sigma = np.empty((len(times), n, n))
    for k, t in enumerate(times):
        xy = expm(ham * t) @ start
        s = np.linalg.solve(xy[:n].T, xy[n:].T).T
        sigma[k] = 0.5 * (s + s.T)
    gains = (sigma @ c.T @ d.T + b @ d.T) @ s_inv
    return sigma, gains


# --- statistics -------------------------------------------------------------

def _zscore_failures(label, z):
    z = np.atleast_1d(np.asarray(z, dtype=float))
    worst = float(np.max(np.abs(z)))
    if not np.isfinite(worst) or worst > Z_LIMIT:
        return [f"{label}: |z| = {worst:.3g} exceeds {Z_LIMIT}"]
    return []


def steady_state_failures(cfg, n_paths, counts, means, centered_cov):
    """Ensemble statistics of the terminal quadratures against theory.

    counts and means are keyed by the sign of z_p.  Checks that the counts add
    up and are binomial, that each group mean sits at the settled mean
    z_p * (-Atilde^{-1} 2 J beta), and that the covariance of the quadratures
    centred on that mean is the stationary covariance, all within Z_LIMIT
    standard errors (Gaussian fourth moments for the covariance).
    """
    support, _, p_plus = plant_moments(cfg)
    m_unit = steady_state_mean(cfg)
    s_cov = stationary_cov(cfg)
    fails = []
    if counts.get(1, 0) + counts.get(-1, 0) != n_paths:
        fails.append(f"group counts {counts} do not add up to {n_paths} paths")
    if 0.0 < p_plus < 1.0:
        sd = math.sqrt(n_paths * p_plus * (1.0 - p_plus))
        fails += _zscore_failures("z_p = +|c_p| count (binomial)",
                                  (counts.get(1, 0) - n_paths * p_plus) / sd)
    for sign, mean in means.items():
        n = counts[sign]
        if n < 2:
            continue
        se = np.sqrt(np.diag(s_cov) / n)
        fails += _zscore_failures(f"group z_p = {sign:+d} terminal mean",
                                  (np.asarray(mean) - sign * support * m_unit) / se)
    var = np.diag(s_cov)
    se = np.sqrt((np.outer(var, var) + s_cov ** 2) / n_paths)
    fails += _zscore_failures("centred terminal covariance",
                              (np.asarray(centered_cov) - s_cov) / se)
    return fails


def check_paths_csv(table, cfg):
    """``simulate`` paths.csv: layout, z_p column and terminal statistics."""
    header, data = table
    sim = cfg["sim"]
    steps = n_steps(sim["dt"], sim["t_final"])
    n_paths = sim["n_paths"]
    if header != PATHS_HEADER:
        return [f"paths.csv header {header} != {PATHS_HEADER}"]
    if data.shape != (n_paths * (steps + 1), 6):
        return [f"paths.csv has shape {data.shape}, expected "
                f"({n_paths * (steps + 1)}, 6)"]
    paths = data.reshape(n_paths, steps + 1, 6)
    fails = []
    if np.any(paths[:, :, 0] != np.arange(n_paths)[:, None]):
        fails.append("path_id column is not one block of rows per path")
    if np.max(np.abs(paths[:, :, 1] - np.arange(steps + 1) * sim["dt"])) > 1e-9:
        fails.append("t column is not the simulation grid")
    if np.any(paths[:, -1, 2] != 0.0):
        fails.append("final row of a path does not pad dz with 0")
    z = paths[:, :, 5]
    if np.any(z != z[:, :1]):
        fails.append("z_p_true changes along a path")
    support, _, _ = plant_moments(cfg)
    if np.max(np.abs(np.abs(z[:, 0]) - support)) > 1e-12:
        fails.append(f"z_p_true is not in {{+-{support}}}")
    if fails:
        return fails
    signs = np.sign(z[:, 0]).astype(int)
    terminal = paths[:, -1, 3:5]
    counts = {s: int(np.sum(signs == s)) for s in (1, -1)}
    means = {s: terminal[signs == s].mean(axis=0) for s in (1, -1) if counts[s]}
    centered = terminal - np.outer(z[:, 0], steady_state_mean(cfg))
    return steady_state_failures(cfg, n_paths, counts, means, np.cov(centered.T))


def check_simulate_report(report, cfg):
    """``simulate`` report.json: the stated steady state and the ensemble statistics."""
    n_paths = cfg["sim"]["n_paths"]
    if report.get("n_paths") != n_paths:
        return [f"report n_paths {report.get('n_paths')} != {n_paths}"]
    support, _, _ = plant_moments(cfg)
    m_unit = steady_state_mean(cfg)
    counts, means, fails = {}, {}, []
    for label, sign in (("z_plus", 1), ("z_minus", -1)):
        group = report["groups"].get(label)
        if group is None:
            continue
        counts[sign] = group["count"]
        means[sign] = group["empirical_mean"]
        stated = np.asarray(group["steady_state_mean"])
        if np.max(np.abs(stated - sign * support * m_unit)) > 1e-12:
            fails.append(f"{label} steady_state_mean {stated.tolist()} != "
                         f"{(sign * support * m_unit).tolist()}")
    return fails + steady_state_failures(
        cfg, n_paths, counts, means, report["centered_terminal_covariance"])


def riccati_tolerance(dt):
    """Allowed RK4 deviation from the exact Riccati solution: 16 h^4."""
    return 16.0 * dt ** 4


def check_riccati_csv(table, cfg):
    """``filter`` riccati.csv against the exact Hamiltonian solution."""
    header, data = table
    filt = cfg["filter"]
    steps = n_steps(filt["dt"], filt["t_final"])
    times = np.arange(steps + 1) * filt["dt"]
    n = 3
    upper = [(i, j) for i in range(n) for j in range(i, n)]
    want = (["t"] + [f"sigma_{i + 1}{j + 1}" for i, j in upper]
            + [f"gain_{i + 1}_1" for i in range(n)])
    if header != want:
        return [f"riccati.csv header {header} != {want}"]
    if data.shape != (steps + 1, len(want)):
        return [f"riccati.csv has shape {data.shape}, expected {(steps + 1, len(want))}"]
    if np.max(np.abs(data[:, 0] - times)) > 1e-9:
        return ["riccati.csv t column is not the filter grid"]
    sigma, gains = exact_riccati(cfg, times)
    expected = np.column_stack([sigma[:, i, j] for i, j in upper] + [gains[:, :, 0]])
    dev = float(np.max(np.abs(data[:, 1:] - expected)))
    tol = riccati_tolerance(filt["dt"])
    if not dev <= tol:
        return [f"riccati.csv deviates {dev:.3e} from the exact solution (tol {tol:.1e})"]
    return []


def check_filter_report(report, cfg):
    """Terminal z_p errors: mean 0 and variance Sigma*_zz(T), each within Z_LIMIT."""
    n_paths = cfg["sim"]["n_paths"]
    filt = cfg["filter"]
    errors = np.asarray(report["terminal_zp_errors"], dtype=float)
    if errors.shape != (n_paths,):
        return [f"terminal_zp_errors has shape {errors.shape}, expected ({n_paths},)"]
    t_end = n_steps(filt["dt"], filt["t_final"]) * filt["dt"]
    s_zz = exact_riccati(cfg, [t_end])[0][0, 0, 0]
    var = errors.var(ddof=1)
    m4 = np.mean((errors - errors.mean()) ** 4)
    return (_zscore_failures("terminal z_p error mean",
                             errors.mean() / math.sqrt(s_zz / n_paths))
            + _zscore_failures("terminal z_p error variance vs Sigma*_zz",
                               (var - s_zz) / math.sqrt(max(m4 - var ** 2, 1e-300) / n_paths)))


def check_self_test_report(report):
    """``filter --self-test``: scalar Riccati within SELF_TEST_TOL of 1/(1+t)."""
    dev = report.get("max_abs_deviation")
    if report.get("mode") != "self_test" or dev is None:
        return ["report is not a self-test report"]
    if not dev <= SELF_TEST_TOL:
        return [f"self-test deviation {dev:.3e} exceeds {SELF_TEST_TOL:.0e}"]
    return []


def check_oracle_csv(table, cfg):
    """``oracle`` oracle.csv: grid, z_p conservation, reduced means, leakage."""
    header, data = table
    orc = cfg["oracle"]
    steps = n_steps(orc["dt"], orc["t_final"])
    stored = list(range(0, steps + 1, orc.get("store_every", 1)))
    if stored[-1] != steps:
        stored.append(steps)
    times = np.asarray(stored) * orc["dt"]
    if header != ORACLE_HEADER:
        return [f"oracle.csv header {header} != {ORACLE_HEADER}"]
    if data.shape != (len(times), 5):
        return [f"oracle.csv has shape {data.shape}, expected {(len(times), 5)}"]
    if np.max(np.abs(data[:, 0] - times)) > 1e-9:
        return ["oracle.csv t column is not the stored grid"]
    _, z_bar, _ = plant_moments(cfg)
    obs = cfg["observer"]
    aff = np.zeros((3, 3))
    aff[:2, :2] = drift(obs)
    aff[:2, 2] = 2.0 * J @ np.asarray(obs["beta"], dtype=float) * z_bar
    means = np.array([expm(aff * t)[:2, 2] for t in times])
    fails = []
    zp_dev = float(np.max(np.abs(data[:, 1] - z_bar)))
    if not zp_dev <= ORACLE_ZP_TOL:
        fails.append(f"exp_zp moves {zp_dev:.3e} from tr(rho_p c_p.sigma) = {z_bar}")
    mean_dev = float(np.max(np.abs(data[:, 2:4] - means)))
    if not mean_dev <= ORACLE_MEAN_TOL:
        fails.append(f"quadrature means deviate {mean_dev:.3e} from the reduced model")
    leak = float(np.max(data[:, 4]))
    threshold = orc.get("leakage_threshold", 1e-6)
    if not (leak <= threshold and np.min(data[:, 4]) >= -1e-12):
        fails.append(f"leakage {leak:.3e} outside [0, {threshold:.0e}]")
    return fails
