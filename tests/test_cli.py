import json

import numpy as np
import pytest

from dataclasses import replace
from pathlib import Path

from qubit_observer import cli
from qubit_observer.cli import main
from qubit_observer.config import ConfigError, load_config
from qubit_observer.kalman_filter import RiccatiSolution
from qubit_observer.export import dumps_json, format_value


def small_config(**overrides):
    cfg = {
        "plant": {
            "r_p": [0.0, 0.0, 0.0],
            "C_p": [1.0, 0.0, 0.0],
            "rho_p": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]],
        },
        "observer": {"omega_o": 0.0, "kappa": 4.0, "beta": [1.0, 0.0]},
        "sim": {"dt": 0.05, "t_final": 4.0, "n_paths": 60, "seed": 9,
                "scheme": "exact_lti"},
        "filter": {"dt": 0.01, "t_final": 1.0},
        "oracle": {"n_trunc": 10, "dt": 0.001, "t_final": 0.4, "store_every": 10},
        "outputs": {"directory": "out", "formats": ["csv", "json"]},
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_format_value_is_deterministic():
    assert format_value(0.1) == "0.10000000000000001"
    assert format_value(1) == "1"
    assert format_value(True) == "true"
    with pytest.raises(ValueError):
        format_value(float("nan"))


def test_dumps_json_roundtrip():
    doc = {"a": [1.0, 2.5], "b": {"c": True, "d": None, "e": "x\"y"}}
    parsed = json.loads(dumps_json(doc))
    assert parsed == {"a": [1.0, 2.5], "b": {"c": True, "d": None, "e": 'x"y'}}
    # Quotes, backslashes and control characters in keys and values.
    doc = {'k"\\\n\t': {'v\t"': 'x\ny\\"\r\x01', "plain": "ü"}}
    assert json.loads(dumps_json(doc)) == doc


def test_load_config_rejects_unknown_keys(tmp_path):
    cfg = small_config()
    cfg["plant"]["typo_key"] = 1
    with pytest.raises(ConfigError, match="plant"):
        load_config(cfg)


def test_load_config_rejects_bad_field_with_path(tmp_path):
    cfg = small_config()
    cfg["observer"]["beta"] = [0.0, 0.0]
    with pytest.raises(ConfigError, match="observer"):
        load_config(cfg)


def test_load_config_rho_pairs(tmp_path):
    cfg = small_config()
    cfg["plant"]["rho_p"] = [[0.5, 0.0], [0.0, 0.5]]  # not [re, im] pairs
    with pytest.raises(ConfigError, match="rho_p"):
        load_config(cfg)


def test_analyze_report_values(tmp_path, capsys):
    path = write_config(tmp_path, small_config())
    out = tmp_path / "out"
    assert main(["analyze", "--config", path, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    np.testing.assert_allclose(report["output_bias_e"], [0.0, -2.0], atol=1e-12)
    np.testing.assert_allclose(report["homodyne_row_K"], [0.0, -0.5], atol=1e-12)
    assert report["norm_K"] == pytest.approx(0.5, abs=1e-12)
    assert report["passed"] is True
    assert "[PASS] analyze:allpass" in capsys.readouterr().out


def test_analyze_rerun_is_byte_identical(tmp_path):
    path = write_config(tmp_path, small_config())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["analyze", "--config", path, "--out", str(out1)]) == 0
    assert main(["analyze", "--config", path, "--out", str(out2)]) == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


def test_gain_norm_monotone_in_kappa(tmp_path):
    norms = []
    for kappa in (0.01, 4.0):
        cfg = small_config()
        cfg["observer"]["kappa"] = kappa
        path = write_config(tmp_path, cfg, name=f"cfg_{kappa}.json")
        out = tmp_path / f"out_{kappa}"
        assert main(["analyze", "--config", path, "--out", str(out)]) == 0
        norms.append(json.loads((out / "report.json").read_text())["norm_K"])
    assert norms[0] < norms[1]


def test_invalid_beta_exits_with_config_error(tmp_path, capsys):
    cfg = small_config()
    cfg["observer"]["beta"] = [0.0, 0.0]
    path = write_config(tmp_path, cfg)
    assert main(["analyze", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_threads_flag_is_rejected(tmp_path, capsys):
    path = write_config(tmp_path, small_config())
    for command in ("analyze", "simulate", "filter", "oracle"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", path, "--out", str(tmp_path / "o"), "--threads", "2"])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err


def test_simulate_outputs_and_determinism(tmp_path):
    path = write_config(tmp_path, small_config())
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["simulate", "--config", path, "--out", str(out1)]) == 0
    assert main(["simulate", "--config", path, "--out", str(out2)]) == 0
    assert (out1 / "paths.csv").read_bytes() == (out2 / "paths.csv").read_bytes()
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    report = json.loads((out1 / "report.json").read_text())
    assert report["checks"]["steady_state_agreement"]["passed"] is True


def test_simulate_seed_override_changes_records(tmp_path):
    path = write_config(tmp_path, small_config())
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["simulate", "--config", path, "--out", str(out1)]) == 0
    assert main(["simulate", "--config", path, "--out", str(out2),
                 "--seed", "42"]) == 0
    assert (out1 / "paths.csv").read_bytes() != (out2 / "paths.csv").read_bytes()


def test_simulate_single_path_has_constant_zp(tmp_path):
    cfg = small_config()
    cfg["sim"]["n_paths"] = 1
    cfg["sim"]["t_final"] = 1.0
    path = write_config(tmp_path, cfg)
    out = tmp_path / "one"
    main(["simulate", "--config", path, "--out", str(out)])
    rows = (out / "paths.csv").read_text().strip().splitlines()[1:]
    z_col = {row.split(",")[-1] for row in rows}
    assert len(z_col) == 1


def test_filter_self_test(tmp_path, capsys):
    path = write_config(tmp_path, small_config())
    out = tmp_path / "f"
    assert main(["filter", "--config", path, "--out", str(out), "--self-test"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["mode"] == "self_test"
    assert report["max_abs_deviation"] <= 1e-8


def test_filter_monte_carlo_run(tmp_path):
    cfg = small_config()
    cfg["sim"]["n_paths"] = 200
    path = write_config(tmp_path, cfg)
    out = tmp_path / "fmc"
    assert main(["filter", "--config", path, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["checks"]["unbiasedness"]["passed"] is True
    assert report["checks"]["covariance_consistency"]["passed"] is True
    assert len(report["terminal_zp_errors"]) == 200
    assert (out / "riccati.csv").exists()


DEFAULT_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "default.json"


@pytest.mark.parametrize("seed", [80, 116])
def test_filter_gate_passes_seeds_with_largest_z(seed):
    """Seeds whose largest of 60 covariance z-scores exceeds 4 (4.01, 4.14) pass
    once the limit keeps the family-wise rate of a single 4-sigma test."""
    config = load_config(DEFAULT_CONFIG)
    report, _ = cli.cmd_filter(replace(config, sim=replace(config.sim, seed=seed)))
    cov = report["checks"]["covariance_consistency"]
    bias = report["checks"]["unbiasedness"]
    assert cov["detail"]["n_tests"] == 60 and bias["detail"]["n_tests"] == 30
    assert cov["detail"]["limit"] == pytest.approx(4.881, abs=1e-3)
    assert bias["detail"]["limit"] == pytest.approx(4.742, abs=1e-3)
    assert 4.0 < cov["detail"]["max_abs_z"] <= cov["detail"]["limit"]
    assert report["passed"] is True


def test_filter_gate_detects_inflated_covariance(monkeypatch):
    """A Riccati covariance 30% too large, with the true gains, still fails the gate."""
    solve = cli.solve_riccati

    def inflated(model, grid):
        ricc = solve(model, grid)
        return RiccatiSolution(times=ricc.times, sigma_star=1.3 * ricc.sigma_star,
                               gains=ricc.gains)

    monkeypatch.setattr(cli, "solve_riccati", inflated)
    report, _ = cli.cmd_filter(load_config(DEFAULT_CONFIG))
    assert report["checks"]["unbiasedness"]["passed"] is True
    assert report["checks"]["covariance_consistency"]["passed"] is False
    assert report["passed"] is False


def test_filter_pinned_plant_keeps_zero_variance(tmp_path):
    cfg = small_config()
    cfg["plant"]["C_p"] = [0.0, 0.0, 1.0]
    cfg["plant"]["rho_p"] = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    cfg["sim"]["n_paths"] = 50
    path = write_config(tmp_path, cfg)
    out = tmp_path / "fp"
    assert main(["filter", "--config", path, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["sigma_star_terminal"][0][0] == pytest.approx(0.0, abs=1e-12)
    assert report["terminal_zp_error_variance"] == pytest.approx(0.0, abs=1e-20)


def test_oracle_command(tmp_path):
    path = write_config(tmp_path, small_config())
    out = tmp_path / "orc"
    assert main(["oracle", "--config", path, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["checks"]["mean_agreement"]["passed"] is True
    assert report["checks"]["qnd_invariance"]["passed"] is True
    lines = (out / "oracle.csv").read_text().strip().splitlines()
    assert lines[0] == "t,exp_zp,exp_q,exp_p,leakage"


def test_oracle_truncation_error_surfaces(tmp_path, capsys):
    cfg = small_config()
    cfg["observer"]["kappa"] = 0.5
    cfg["oracle"] = {"n_trunc": 4, "dt": 0.001, "t_final": 5.0}
    cfg["plant"]["rho_p"] = [[[0.5, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.5, 0.0]]]
    path = write_config(tmp_path, cfg)
    assert main(["oracle", "--config", path, "--out", str(tmp_path / "o")]) == 1
    assert "increase n_trunc" in capsys.readouterr().err


def test_env_var_output_dir(tmp_path, monkeypatch):
    path = write_config(tmp_path, small_config())
    env_dir = tmp_path / "env_out"
    monkeypatch.setenv("QUBIT_OBSERVER_OUT_DIR", str(env_dir))
    assert main(["analyze", "--config", path]) == 0
    assert (env_dir / "report.json").exists()


def test_shipped_default_config_loads():
    import os
    root = os.path.join(os.path.dirname(__file__), "..", "configs")
    for name in ("default.json", "oracle_eigenstate.json"):
        cfg = load_config(os.path.join(root, name))
        assert cfg.observer.kappa == 4.0
