"""Each benchmark check passes on real CLI output and fails on a perturbed copy.

The outputs come from small configs run through ``qubit_observer.cli.main``;
the perturbations are the smallest errors the checks are meant to catch, so a
vacuous check fails here.  Run with ``src`` on PYTHONPATH:

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import copy
import json

import pytest

import checks
from qubit_observer.cli import main

BASE = {
    "plant": {"r_p": [0.0, 0.0, 0.0], "C_p": [1.0, 0.0, 0.0],
              "rho_p": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]},
    "observer": {"omega_o": 1.0, "kappa": 4.0, "beta": [1.0, 0.0]},
    "sim": {"dt": 0.5, "t_final": 10.0, "n_paths": 1000, "seed": 7},
    "filter": {"dt": 0.005, "t_final": 1.0},
    "oracle": {"n_trunc": 20, "dt": 0.001, "t_final": 0.3, "store_every": 10},
}


def run_cli(tmp_path, command, cfg, *flags):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / command
    assert main([command, "--config", str(path), "--out", str(out), *flags]) == 0
    return out


def load_json(path):
    return json.loads(path.read_text())


@pytest.fixture(scope="module")
def simulated(tmp_path_factory):
    out = run_cli(tmp_path_factory.mktemp("sim"), "simulate", BASE)
    return checks.load_table(out / "paths.csv"), load_json(out / "report.json")


def test_paths_csv_passes_and_flipped_beta_fails(simulated):
    (header, data), _ = simulated
    assert checks.check_paths_csv((header, data), BASE) == []
    # Mirror every path's quadratures about zero mean: the settled mean
    # becomes the one for -beta while the noise is unchanged.
    flipped = data.copy()
    z = flipped[:, 5:6]
    flipped[:, 3:5] -= 2.0 * z * checks.steady_state_mean(BASE)
    assert any("terminal mean" in msg
               for msg in checks.check_paths_csv((header, flipped), BASE))


def test_paths_csv_rejects_changing_z_p(simulated):
    (header, data), _ = simulated
    broken = data.copy()
    broken[5, 5] = -broken[5, 5]
    assert checks.check_paths_csv((header, broken), BASE) == ["z_p_true changes along a path"]


def test_simulate_report_passes_and_flipped_beta_fails(simulated):
    _, report = simulated
    assert checks.check_simulate_report(report, BASE) == []
    flipped = copy.deepcopy(report)
    for group in flipped["groups"].values():
        group["empirical_mean"] = [-m for m in group["empirical_mean"]]
    assert checks.check_simulate_report(flipped, BASE)
    stated = copy.deepcopy(report)
    stated["groups"]["z_plus"]["steady_state_mean"] = [
        -m for m in stated["groups"]["z_plus"]["steady_state_mean"]]
    assert checks.check_simulate_report(stated, BASE)


def test_simulate_report_rejects_unbalanced_counts(simulated):
    _, report = simulated
    skewed = copy.deepcopy(report)
    skewed["groups"]["z_plus"]["count"] += 150
    skewed["groups"]["z_minus"]["count"] -= 150
    assert any("binomial" in msg for msg in checks.check_simulate_report(skewed, BASE))


@pytest.fixture(scope="module")
def filtered(tmp_path_factory):
    cfg = copy.deepcopy(BASE)
    cfg["sim"]["n_paths"] = 400
    out = run_cli(tmp_path_factory.mktemp("filter"), "filter", cfg)
    return cfg, checks.load_table(out / "riccati.csv"), load_json(out / "report.json")


def test_riccati_csv_passes_and_one_entry_off_fails(filtered):
    cfg, (header, data), _ = filtered
    assert checks.check_riccati_csv((header, data), cfg) == []
    off = data.copy()
    off[len(off) // 2, 4] += 1e-6
    assert checks.check_riccati_csv((header, off), cfg)


def test_filter_report_passes_and_inflated_errors_fail(filtered):
    cfg, _, report = filtered
    assert checks.check_filter_report(report, cfg) == []
    inflated = copy.deepcopy(report)
    inflated["terminal_zp_errors"] = [1.5 * e for e in report["terminal_zp_errors"]]
    assert any("variance" in msg for msg in checks.check_filter_report(inflated, cfg))


def test_self_test_report_threshold():
    assert checks.check_self_test_report({"mode": "self_test", "max_abs_deviation": 9e-9}) == []
    assert checks.check_self_test_report({"mode": "self_test", "max_abs_deviation": 2e-8})
    assert checks.check_self_test_report({"mode": "monte_carlo"})


def test_oracle_csv_passes_and_shifted_means_fail(tmp_path):
    cfg = copy.deepcopy(BASE)
    cfg["plant"]["rho_p"] = [[[0.5, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.5, 0.0]]]
    out = run_cli(tmp_path, "oracle", cfg)
    header, data = checks.load_table(out / "oracle.csv")
    assert checks.check_oracle_csv((header, data), cfg) == []
    shifted = data.copy()
    shifted[:, 2] += 1e-3
    assert any("quadrature means" in msg
               for msg in checks.check_oracle_csv((header, shifted), cfg))
    drifted = data.copy()
    drifted[-1, 1] += 1e-5
    assert any("exp_zp" in msg for msg in checks.check_oracle_csv((header, drifted), cfg))
