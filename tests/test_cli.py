import copy
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from dataclasses import replace
from pathlib import Path

from qubit_observer import cli
from qubit_observer.cli import main
from qubit_observer.config import ConfigError, FilterSettings, OutputSettings, load_config
from qubit_observer.export import dumps_json, write_csv, write_json
from qubit_observer.fock_oracle import ExpectationTraces, FockConfig, write_oracle_csv
from qubit_observer.kalman_filter import RiccatiSolution, write_riccati_csv
from qubit_observer.sde_engine import Ensemble, SimConfig, write_paths_csv
from qubit_observer.spin_algebra import _Grid

NAN = float("nan")
INF = float("inf")


def small_config(**overrides):
    cfg = {
        "plant": {
            "r_p": [0.0, 0.0, 0.0],
            "C_p": [1.0, 0.0, 0.0],
            "rho_p": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]],
        },
        "observer": {"omega_o": 0.0, "kappa": 4.0, "beta": [1.0, 0.0]},
        "sim": {"dt": 0.05, "t_final": 4.0, "n_paths": 60, "seed": 9},
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


def _reference_lines(header, rows):
    return [",".join(header)] + [",".join(format(float(v), ".17g") for v in row)
                                 for row in rows]


def test_csv_writers_match_cell_by_cell_reference(tmp_path):
    """riccati.csv, oracle.csv and paths.csv equal a per-cell 17-digit rendering,
    LF-terminated; a block holding NaN raises."""
    rng = np.random.default_rng(11)
    times = np.arange(4) * 0.1
    sigma = rng.normal(size=(4, 3, 3))
    sigma[0, 0, 1], sigma[1, 1, 1], sigma[2, 1, 2] = -0.0, 5e-324, 1e300
    gains = rng.normal(size=(4, 3, 2))
    out = tmp_path / "riccati.csv"
    write_riccati_csv(out, RiccatiSolution(times=times, sigma_star=sigma, gains=gains))
    header = (["t"] + [f"sigma_{i + 1}{j + 1}" for i in range(3) for j in range(i, 3)]
              + [f"gain_{i + 1}_{l + 1}" for i in range(3) for l in range(2)])
    rows = [[times[k]] + [sigma[k, i, j] for i in range(3) for j in range(i, 3)]
            + [gains[k, i, l] for i in range(3) for l in range(2)] for k in range(4)]
    assert out.read_bytes() == ("\n".join(_reference_lines(header, rows)) + "\n").encode()

    cols = rng.normal(size=(5, 4))
    traces = ExpectationTraces(exp_zp=cols[0], exp_zp_sq=cols[0] ** 2, exp_q=cols[1],
                               exp_p=cols[2], leakage=cols[3], trace_drift=cols[3])
    out = tmp_path / "oracle.csv"
    write_oracle_csv(out, times, traces)
    rows = [[times[k], cols[0, k], cols[1, k], cols[2, k], cols[3, k]] for k in range(4)]
    assert out.read_text().splitlines() == _reference_lines(
        ["t", "exp_zp", "exp_q", "exp_p", "leakage"], rows)

    ens = Ensemble(times=times, z_p=np.array([1.0, -1.0, 1.0]),
                   x_o=rng.normal(size=(3, 4, 2)), dz=rng.normal(size=(3, 3)))
    out = tmp_path / "paths.csv"
    write_paths_csv(out, ens)
    rows = [[pid, times[k], ens.dz[pid, k] if k < 3 else 0.0, *ens.x_o[pid, k], ens.z_p[pid]]
            for pid in range(3) for k in range(4)]
    lines = out.read_text().splitlines()
    assert lines == _reference_lines(
        ["path_id", "t", "dz", "x_o_1", "x_o_2", "z_p_true"], rows)
    assert [line.split(",")[0] for line in lines[1::4]] == ["0", "1", "2"]

    with pytest.raises(ValueError, match="non-finite value in output: nan"):
        write_csv(tmp_path / "bad.csv", ("a", "b"), [np.ones((2, 2)), [[1.0, NAN]]])
    assert not (tmp_path / "bad.csv").exists()


def _use_cpus(monkeypatch, n):
    """Make write_csv see n usable CPUs, whatever this machine has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: set(range(n)), raising=False)


def test_paths_csv_bytes_do_not_depend_on_worker_count(tmp_path, monkeypatch):
    """paths.csv from 1, 2 and 4 workers is the same file, and equals a plain
    per-row rendering; the path ids, signed zeros and a time column that
    changes between paths all survive the split."""
    rng = np.random.default_rng(5)
    times = np.arange(6) * 0.1
    x_o = rng.normal(size=(7, 6, 2))
    x_o[2, :, 0], x_o[3, :, 0] = 0.0, -0.0
    x_o[4] = x_o[3]
    dz = rng.normal(size=(7, 5))
    dz[5] = -0.0
    ens = Ensemble(times=times, z_p=np.array([1.0, -1.0, 1.0, 0.0, -0.0, 1.0, -1.0]),
                   x_o=x_o, dz=dz)
    rows = [[pid, times[k], dz[pid, k] if k < 5 else 0.0, *x_o[pid, k], ens.z_p[pid]]
            for pid in range(7) for k in range(6)]
    expected = ("\n".join(_reference_lines(
        ["path_id", "t", "dz", "x_o_1", "x_o_2", "z_p_true"], rows)) + "\n").encode()
    for cpus in (1, 2, 4):
        _use_cpus(monkeypatch, cpus)
        out = tmp_path / f"paths_{cpus}.csv"
        write_paths_csv(out, ens)
        assert out.read_bytes() == expected, cpus
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "paths_1.csv", "paths_2.csv", "paths_4.csv"]


def test_constant_column_with_signed_zeros_renders_per_row(tmp_path, monkeypatch):
    """0.0 and -0.0 compare equal but render as 0 and -0: a column mixing them
    is not constant, and a block repeating the previous one up to the sign of
    a zero is not a repeat."""
    a = np.array([[0.0, -0.0, 1.5], [-0.0, -0.0, 1.5], [0.0, -0.0, 1.5]])
    b = np.array([[-0.0, -0.0, 1.5], [-0.0, -0.0, 1.5], [0.0, 0.0, 1.5]])
    blocks = [a, a, b, a.copy()]
    for cpus in (1, 2):
        _use_cpus(monkeypatch, cpus)
        out = tmp_path / f"zeros_{cpus}.csv"
        write_csv(out, ("u", "v", "w"), blocks)
        rows = [row for block in blocks for row in block]
        assert out.read_text().splitlines() == _reference_lines(("u", "v", "w"), rows)
        assert out.read_text().splitlines()[1:4] == ["0,-0,1.5", "-0,-0,1.5", "0,-0,1.5"]


class _FailingBlocks:
    """Four blocks; indexing raises in the process named by ``fails`` once the
    finiteness pass is over, and a worker that is not meant to fail sleeps."""

    def __init__(self, fails):
        self.fails = fails
        self.parent = os.getpid()
        self.checked = set()

    def __len__(self):
        return 4

    def __getitem__(self, i):
        in_parent = os.getpid() == self.parent
        if in_parent and i not in self.checked:
            self.checked.add(i)
        elif (self.fails == "parent") == in_parent:
            raise RuntimeError("block cannot be built")
        elif not in_parent:
            time.sleep(60)
        return np.full((3, 2), float(i))


@pytest.mark.parametrize("fails", ["worker", "parent"])
def test_failed_render_removes_file_and_leaves_no_child(tmp_path, monkeypatch, fails):
    """A worker that raises, or the parent's own range raising while a worker
    runs, makes write_csv raise; the CSV is removed, no temporary file is
    left and every child is reaped."""
    _use_cpus(monkeypatch, 2)
    out = tmp_path / "table.csv"
    start = time.perf_counter()
    with pytest.raises(RuntimeError, match="worker failed" if fails == "worker" else "cannot"):
        write_csv(out, ("a", "b"), _FailingBlocks(fails))
    assert time.perf_counter() - start < 30.0
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_single_block_tables_do_not_fork(tmp_path, monkeypatch):
    """riccati.csv and oracle.csv are one block each, so write_csv never forks."""
    _use_cpus(monkeypatch, 2)

    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    write_csv(tmp_path / "one.csv", ("a", "b"), [np.arange(6.0).reshape(3, 2)])
    assert (tmp_path / "one.csv").read_text() == "a,b\n0,1\n2,3\n4,5\n"


@pytest.mark.parametrize("n", [7, 999, 2000])
def test_covariance_z_matches_per_entry_loop(n):
    """The gates' covariance z-scores equal, bit for bit, the per-entry rule
    (cov_ij - ref_ij) / max(se_ij, 1e-300), where c_i = x_i - mean(x_i) and
    se_ij^2 = var(c_i c_j, ddof=1) / n + (cov_ii cov_jj + cov_ij^2) / n^2."""
    rng = np.random.default_rng(n)
    for d in (2, 3):
        x = rng.normal(size=(n, d)) * rng.uniform(0.1, 10.0, d) + rng.normal(size=d)
        cov, ref = np.cov(x, rowvar=False), rng.normal(size=(d, d))
        expected = np.empty((d, d))
        for i in range(d):
            for j in range(d):
                c_i = x[:, i] - np.mean(x[:, i])
                c_j = x[:, j] - np.mean(x[:, j])
                var = (np.var(c_i * c_j, ddof=1) / n
                       + (cov[i, i] * cov[j, j] + cov[i, j] ** 2) / n ** 2)
                expected[i, j] = (cov[i, j] - ref[i, j]) / max(float(np.sqrt(var)), 1e-300)
        assert np.array_equal(cli._covariance_z(x, cov, ref), expected)


def test_dumps_json_roundtrip():
    doc = {"a": [1.0, 2.5], "b": {"c": True, "d": None, "e": "x\"y"}}
    parsed = json.loads(dumps_json(doc))
    assert parsed == {"a": [1.0, 2.5], "b": {"c": True, "d": None, "e": 'x"y'}}
    # Quotes, backslashes and control characters in keys and values.
    doc = {'k"\\\n\t': {'v\t"': 'x\ny\\"\r\x01', "plain": "ü"}}
    assert json.loads(dumps_json(doc)) == doc


def test_dumps_json_floats_come_back_with_their_bits():
    """Every finite float, integral values and -0.0 included, loads back as a
    float with the same bits; numpy scalars and arrays load as their Python
    values; a non-finite float raises ValueError and any other type TypeError."""
    drawn = np.frombuffer(np.random.default_rng(3).bytes(8 * 10_100), dtype=np.float64)
    values = drawn[np.isfinite(drawn)][:10_000].tolist()
    values += [-0.0, 5e-324, 1.7976931348623157e308, 5.0]
    parsed = json.loads(dumps_json(values))
    assert len(values) == 10_004 and all(type(v) is float for v in parsed)
    assert [v.hex() for v in parsed] == [v.hex() for v in values]
    doc = {"f": np.float64(-0.0), "i": np.int64(-7), "b": np.bool_(True),
           "a": [np.array([[5.0, -0.0], [5e-324, 2.5]]), np.arange(2)]}
    parsed = json.loads(dumps_json(doc))
    assert parsed == {"f": -0.0, "i": -7, "b": True,
                      "a": [[[5.0, -0.0], [5e-324, 2.5]], [0, 1]]}
    assert [type(parsed[k]) for k in "fib"] == [float, int, bool]
    assert [v.hex() for row in parsed["a"][0] for v in row] == [
        v.hex() for v in (5.0, -0.0, 5e-324, 2.5)]
    for bad in (NAN, np.float64(-INF), {"k": [np.array([1.0, INF])]}):
        with pytest.raises(ValueError, match="^non-finite value in output"):
            dumps_json(bad)
    for bad in (object(), 1j, {"k": np.array([1j])}):
        with pytest.raises(TypeError):
            dumps_json(bad)


def test_write_json_leaves_no_file_when_serialization_fails(tmp_path):
    path = tmp_path / "report.json"
    with pytest.raises(ValueError, match="non-finite"):
        write_json(path, {"ok": 1.0, "bad": [NAN]})
    assert not path.exists()


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


@pytest.mark.parametrize("section,key,value,message", [
    ("plant", "r_p", [NAN, 0.0, 0.0], "r_p[0] must be a finite number"),
    ("plant", "C_p", [NAN, 0.0, 0.0], "c_p[0] must be a finite number"),
    ("plant", "rho_p", [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [NAN, 0.0]]],
     "rho_p must be finite"),
    ("observer", "beta", [1.0, NAN], "beta[1] must be a finite number"),
    ("observer", "x0_mean", [NAN, 0.0], "x0_mean[0] must be a finite number"),
    ("observer", "x0_mean", [INF, 0.0], "x0_mean[0] must be a finite number"),
    ("observer", "sigma0", [[1.0, 0.0], [0.0, INF]], "sigma0[1][1] must be a finite number"),
], ids=["r_p", "C_p", "rho_p", "beta", "x0_mean-nan", "x0_mean-inf", "sigma0"])
def test_non_finite_number_exits_with_config_error(tmp_path, capsys, section, key, value,
                                                   message):
    """JSON admits NaN and Infinity; the specs reject them with the field path,
    down to the entry of a real-valued array."""
    cfg = small_config()
    cfg[section][key] = value
    path = write_config(tmp_path, cfg)
    assert main(["analyze", "--config", path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {section}: {message}")


@pytest.mark.parametrize("key,value,message", [
    ("sigma0", [[0.01, 0.0], [0.0, 0.01]], "sigma0 must obey the uncertainty relation"),
    ("sigma0", [[1.0, 0.2], [0.2, 0.5]], "sigma0 must obey the uncertainty relation"),
    ("kappa", 1e300, "kappa must lie in [0.0001, 100]"),
    ("kappa", 1e-300, "kappa must lie in [0.0001, 100]"),
    ("omega_o", 1e3, "omega_o must lie in [0, 100]"),
    ("beta", [1e-300, 0.0], "|beta| must lie in [1e-08, 1000]"),
    ("beta", [1e150, 0.0], "|beta| must lie in [1e-08, 1000]"),
    ("beta", [0.0, 0.0], "|beta| must lie in [1e-08, 1000]"),
], ids=["sigma0-0.01I", "sigma0-det-below-1", "kappa-huge", "kappa-tiny",
        "omega_o-huge", "beta-tiny", "beta-huge", "beta-zero"])
def test_observer_outside_its_physical_or_numeric_range_exits_2_on_every_command(
        tmp_path, capsys, key, value, message):
    """A covariance breaking sigma0 + iJ >= 0, or a kappa, omega_o or |beta|
    outside the envelope where the model's numerics hold, stops every command
    at load with the field, where it used to run or end in a traceback."""
    cfg = small_config()
    cfg["observer"][key] = value
    path = write_config(tmp_path, cfg)
    for command in ("analyze", "simulate", "filter", "oracle"):
        assert main([command, "--config", path, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: observer: {message}"), command


def test_observer_envelope_edges_and_squeezed_states_load():
    for key, value in (("kappa", 1e-4), ("kappa", 1e2), ("omega_o", 0.0), ("omega_o", 1e2),
                       ("beta", [1e-8, 0.0]), ("beta", [600.0, -800.0]),
                       ("sigma0", [[1e6, 0.0], [0.0, 1e-6]]), ("sigma0", [[2.0, 1.0], [1.0, 1.0]])):
        cfg = small_config()
        cfg["observer"][key] = value
        assert np.array_equal(getattr(load_config(cfg).observer, key), value), key


def is_finite_float(value) -> bool:
    """Whether value is a JSON number that converts to a finite float."""
    try:
        return not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):
        return False


@pytest.mark.parametrize("section,key,value", [
    ("filter", "t_final", INF),
    ("filter", "t_final", 1e12),
    ("filter", "dt", 1e-9),
    ("filter", "dt", "x"),
    ("sim", "n_paths", INF),
    ("sim", "n_paths", [1]),
    ("sim", "seed", INF),
    ("sim", "dt", None),
    ("oracle", "n_trunc", INF),
    ("oracle", "n_trunc", None),
    ("oracle", "store_every", INF),
    ("oracle", "leakage_threshold", NAN),
    ("oracle", "leakage_threshold", INF),
    ("oracle", "leakage_threshold", -1.0),
    ("outputs", "formats", 5),
    ("sim", "seed", 1.9),
    ("sim", "n_paths", 2.5),
    ("sim", "n_paths", True),
    ("oracle", "n_trunc", 20.7),
    ("oracle", "store_every", 1.5),
    ("oracle", "t_final", 0.0004),
    ("outputs", "formats", "csv"),
    ("outputs", "directory", 5),
    ("sim", "dt", True),
    ("sim", "dt", "0.05"),
    ("observer", "beta", "ab"),
    ("observer", "kappa", True),
    ("oracle", "leakage_threshold", "1e-6"),
    ("observer", "kappa", 10**400),
    ("oracle", "store_every", 3),
], ids=["filter.t_final-inf", "filter.t_final-1e12", "filter.dt-1e-9", "filter.dt-str",
        "sim.n_paths-inf", "sim.n_paths-list", "sim.seed-inf", "sim.dt-null",
        "oracle.n_trunc-inf", "oracle.n_trunc-null", "oracle.store_every-inf",
        "oracle.leakage_threshold-nan", "oracle.leakage_threshold-inf",
        "oracle.leakage_threshold-negative", "outputs.formats-int",
        "sim.seed-fraction", "sim.n_paths-fraction", "sim.n_paths-bool",
        "oracle.n_trunc-fraction", "oracle.store_every-fraction",
        "oracle.t_final-below-dt", "outputs.formats-str", "outputs.directory-int",
        "sim.dt-bool", "sim.dt-str", "observer.beta-str", "observer.kappa-bool",
        "oracle.leakage_threshold-str", "observer.kappa-huge-int",
        "oracle.store_every-non-divisor"])
def test_bad_config_value_exits_with_config_error(tmp_path, capsys, section, key, value):
    """Out-of-range, non-finite and mistyped values stop at load with exit 2
    and write nothing; an integer count, the seed, the outputs fields and a
    real-valued field given anything but a finite number are named in the
    message, and a store_every that does not divide the oracle's 400 steps
    is refused by the grid's stride rule."""
    cfg = small_config()
    cfg[section][key] = value
    path = write_config(tmp_path, cfg)
    assert main(["analyze", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()
    err = capsys.readouterr().err
    if (key, value) == ("store_every", 3):
        assert err == ("configuration error: oracle: store_every must be a positive "
                       "integer dividing n_steps = 400; got 3\n")
    assert err.startswith(f"configuration error: {section}: ") and "Traceback" not in err
    if key in ("n_paths", "seed", "n_trunc", "store_every", "formats", "directory"):
        assert err.startswith(f"configuration error: {section}: {key} must be ")
    elif not is_finite_float(value):
        assert err.startswith(f"configuration error: {section}: {key} must be a finite number")


@pytest.mark.parametrize("section,value", [("sim", 5), ("oracle", "x"), ("outputs", None)])
def test_section_that_is_not_an_object_exits_with_config_error(tmp_path, capsys,
                                                                 section, value):
    path = write_config(tmp_path, small_config(**{section: value}))
    assert main(["analyze", "--config", path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {section}: expected an object")
    assert "Traceback" not in err


def test_omitted_sections_load_documented_defaults():
    cfg = small_config()
    config = load_config({"plant": cfg["plant"], "observer": cfg["observer"]})
    assert config.sim == SimConfig() == SimConfig(dt=0.01, t_final=10.0, n_paths=2000, seed=0)
    assert config.filter == FilterSettings() == FilterSettings(dt=0.005, t_final=2.0)
    assert config.oracle == FockConfig() == FockConfig(
        n_trunc=20, dt=0.001, t_final=2.5, leakage_threshold=1e-6, store_every=1)
    assert config.outputs == OutputSettings() == OutputSettings(
        directory="out", formats=("csv", "json"))


def test_oracle_step_guard_rejects_at_load():
    """A 2.5e12-step oracle grid is refused before any state is built."""
    cfg = small_config()
    cfg["oracle"] = {"dt": 1e-12, "t_final": 2.5}
    with pytest.raises(ConfigError, match=r"^oracle: t_final/dt exceeds the 1e8 step guard"):
        load_config(cfg)


@pytest.mark.parametrize("grid,message", [
    ({"dt": 0.0, "t_final": 1.0}, "dt must be positive"),
    ({"dt": -0.01, "t_final": 1.0}, "dt must be positive"),
    ({"dt": 0.5, "t_final": 0.5}, "t_final must exceed dt"),
    ({"dt": 0.5, "t_final": 0.25}, "t_final must exceed dt"),
    ({"dt": 1e-9, "t_final": 1.0}, "t_final/dt exceeds the 1e8 step guard"),
    ({"dt": NAN, "t_final": 1.0}, "dt must be a finite number"),
    ({"dt": 0.01, "t_final": INF}, "t_final must be a finite number"),
], ids=["dt-zero", "dt-negative", "t_final-equal", "t_final-below", "step-guard",
        "dt-nan", "t_final-inf"])
@pytest.mark.parametrize("section", ["sim", "filter", "oracle"])
def test_sim_filter_and_oracle_grids_obey_one_rule(section, grid, message):
    """Each grid section is refused with the same message after its name."""
    cfg = small_config()
    cfg[section].update(grid)
    with pytest.raises(ConfigError) as info:
        load_config(cfg)
    assert str(info.value) == f"{section}: {message}"


def test_the_grid_sections_are_one_grid_type():
    config = load_config(small_config())
    for cls, section in ((SimConfig, config.sim), (FilterSettings, config.filter),
                         (FockConfig, config.oracle)):
        assert issubclass(cls, _Grid) and isinstance(section, _Grid)


def test_printed_checks_hold_no_numpy_reprs(tmp_path, capsys):
    """Every [PASS]/[FAIL] line of every command prints plain Python numbers."""
    path = write_config(tmp_path, small_config())
    for argv in (["analyze"], ["simulate"], ["filter"], ["filter", "--self-test"], ["oracle"]):
        main(argv + ["--config", path, "--out", str(tmp_path / argv[0])])
        lines = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith(("[PASS]", "[FAIL]"))]
        assert lines, argv
        for line in lines:
            assert "np." not in line, line


def test_removed_sim_scheme_key_exits_with_config_error(tmp_path, capsys):
    cfg = small_config()
    cfg["sim"]["scheme"] = "exact_lti"
    path = write_config(tmp_path, cfg)
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert "sim: unknown keys ['scheme']" in capsys.readouterr().err


def test_plant_hamiltonian_that_moves_zp_exits_with_config_error(tmp_path, capsys):
    cfg = small_config()
    cfg["plant"]["r_p"] = [0.0, 3.0, 0.0]
    with pytest.raises(ConfigError, match="plant.r_p"):
        load_config(cfg)
    path = write_config(tmp_path, cfg)
    assert main(["analyze", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert "plant.r_p" in capsys.readouterr().err
    cfg["plant"]["r_p"] = [2.0, 0.0, 0.0]  # parallel to C_p: conserves z_p
    assert np.array_equal(load_config(cfg).plant.r_p, [2.0, 0.0, 0.0])


def test_oracle_evolves_the_plant_hamiltonian():
    """build_operators takes any r_p: one that rotates z_p = sigma_1 fails the
    QND gate, one parallel to C_p leaves the eigenstate's z_p in place."""
    cfg = small_config()
    cfg["plant"]["rho_p"] = [[[0.5, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.5, 0.0]]]
    config = load_config(cfg)
    for r_p, qnd in (([0.0, 3.0, 0.0], False), ([2.0, 0.0, 0.0], True)):
        plant = replace(config.plant, r_p=np.array(r_p))
        report, _ = cli.cmd_oracle(replace(config, plant=plant))
        assert report["checks"]["qnd_invariance"]["passed"] is qnd, r_p
        assert report["passed"] is qnd, r_p


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


def test_simulate_report_does_not_depend_on_paths_csv(tmp_path):
    """Without paths.csv the sampler takes one exact step to the terminal
    node, so the statistics differ in value from the run with it; the z_p
    stream is the same, so the run's identity and group counts are equal,
    both reports pass, and each format reruns byte-identically."""
    reports = []
    for formats in (["json"], ["csv", "json"]):
        cfg = small_config()
        cfg["outputs"]["formats"] = formats
        path = write_config(tmp_path, cfg, "_".join(formats) + ".json")
        runs = []
        for rerun in ("a", "b"):
            out = tmp_path / ("_".join(formats) + rerun)
            assert main(["simulate", "--config", path, "--out", str(out)]) == 0
            assert (out / "paths.csv").exists() == ("csv" in formats)
            runs.append((out / "report.json").read_bytes())
        assert runs[0] == runs[1]
        reports.append(json.loads(runs[0]))
    for report in reports:
        assert report["checks"]["steady_state_agreement"]["passed"] is True
    stats_only, with_csv = reports
    for key in ("n_paths", "t_final", "seed"):
        assert stats_only[key] == with_csv[key]
    assert ({k: g["count"] for k, g in stats_only["groups"].items()}
            == {k: g["count"] for k, g in with_csv["groups"].items()})


def test_empty_formats_write_report_json_and_no_csv(tmp_path):
    """report.json is always written: with outputs.formats [] every command
    writes it and no CSV, and "json" in formats changes nothing."""
    reports = {}
    for formats in ([], ["json"]):
        cfg = small_config()
        cfg["outputs"]["formats"] = formats
        path = write_config(tmp_path, cfg, f"{len(formats)}.json")
        for command in ("analyze", "simulate", "filter", "oracle"):
            out = tmp_path / f"{command}{len(formats)}"
            assert main([command, "--config", path, "--out", str(out)]) == 0
            assert sorted(p.name for p in out.iterdir()) == ["report.json"]
            reports.setdefault(command, []).append((out / "report.json").read_bytes())
    for command, (empty, json_only) in reports.items():
        assert empty == json_only, command


def _traced_peak(command, config) -> tuple:
    """command(config) and its traced peak in bytes."""
    import tracemalloc

    tracemalloc.start()
    try:
        return command(config), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_stats_only_simulate_memory_is_bounded():
    """2000 paths x 800 steps: the full x_o and dz would take 38 MB, the
    stride of 800 steps its two end nodes, one dz per path and one step's
    noise draws per chunk under 2 MB."""
    cfg = small_config()
    cfg["sim"].update(dt=0.0125, t_final=10.0, n_paths=2000)
    cfg["outputs"]["formats"] = ["json"]
    config = load_config(cfg)
    assert config.sim.n_steps == 800
    (report, ens), peak = _traced_peak(cli.cmd_simulate, config)
    assert report["n_paths"] == 2000 and ens.x_o.shape == (2000, 2, 2)
    assert peak < 10e6, f"peak traced memory {peak / 1e6:.1f} MB"


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


def test_simulate_gate_counts_its_tests_and_fails_with_none(tmp_path):
    """steady_state_agreement reports in n_tests the distinct z-scores it took
    the maximum over: two per group and the covariance's upper triangle.  One
    path tests nothing, so the check fails and simulate exits 1."""
    for n_paths, n_tests, code in ((60, 7, 0), (1, 0, 1)):
        cfg = small_config(outputs={"directory": "out", "formats": ["json"]})
        cfg["sim"]["n_paths"] = n_paths
        out = tmp_path / str(n_paths)
        assert main(["simulate", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == code
        check = json.loads((out / "report.json").read_text())["checks"]["steady_state_agreement"]
        assert check["detail"]["n_tests"] == n_tests and check["passed"] is (code == 0)


def test_filter_self_test(tmp_path, capsys):
    path = write_config(tmp_path, small_config())
    out = tmp_path / "f"
    assert main(["filter", "--config", path, "--out", str(out), "--self-test"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["mode"] == "self_test"
    assert report["max_abs_deviation"] <= 1e-12


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


def test_filter_with_one_path_exits_with_config_error(tmp_path, capsys):
    """The error statistics need two paths: one path is a configuration
    error, raised before any sampling, and no report is written."""
    cfg = small_config()
    cfg["sim"]["n_paths"] = 1
    out = tmp_path / "one"
    assert main(["filter", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: sim.n_paths:")
    assert "at least 2 paths" in err and "Traceback" not in err
    assert not (out / "report.json").exists()


def test_filter_memory_is_bounded():
    """2000 paths x 1000 steps: the whole ensemble would hold 48 MB of x_o
    and dz; the streamed filter holds one 64-step block of one chunk's noise
    draws (0.4 MB), the Kalman schedule and the 10 checkpoints."""
    cfg = small_config()
    cfg["sim"]["n_paths"] = 2000
    cfg["filter"].update(dt=0.005, t_final=5.0)
    (report, _), peak = _traced_peak(cli.cmd_filter, load_config(cfg))
    assert report["n_paths"] == 2000 and len(report["mc_vs_riccati"]) == 10
    assert peak < 5e6, f"peak traced memory {peak / 1e6:.1f} MB"


def test_filter_peak_does_not_grow_with_the_horizon():
    """256 paths, filter.t_final 5 then 50 (1000 then 10000 steps): the traced
    peak of cmd_filter grows by under 215 B per added step.  One chunk's
    noise for every step would add 256 * 3 doubles (6.1 kB) per step.  What
    grows is solve_riccati's Sigma*, G and nodes (104 B per node),
    gain_schedule's P (72 B) and its one estimate transfer per 64-step block
    (25 B per step), while its K (24 B) is dropped before the sampling: this
    reads 205-208 B.  Holding K through the sampling read 221 B, and a
    sampler that held a step or node index per step read 246 B.  A first
    run is made and dropped, since the first cmd_filter of a process also
    traces about 1 MB of one-time imports that would hide the growth."""
    def run(t_final):
        cfg = small_config()
        cfg["sim"]["n_paths"] = 256
        cfg["filter"].update(dt=0.005, t_final=t_final)
        return _traced_peak(cli.cmd_filter, load_config(cfg))[1]

    run(5.0)
    peaks = [run(5.0), run(50.0)]
    per_step = (peaks[1] - peaks[0]) / 9000
    assert per_step < 215, f"traced peaks {peaks} bytes, {per_step:.0f} B per step"


DEFAULT_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "default.json"


def test_no_command_imports_scipy(tmp_path):
    """Every command runs on numpy alone: in a fresh process, running analyze,
    oracle, filter and filter --self-test on the default config, and simulate
    with and without paths.csv, through cli.main leaves no scipy module
    loaded."""
    json_only = json.loads(DEFAULT_CONFIG.read_text())
    json_only["outputs"]["formats"] = ["json"]
    json_only = write_config(tmp_path, json_only, "json_only.json")
    default = str(DEFAULT_CONFIG)
    runs = [["analyze", "--config", default], ["oracle", "--config", default],
            ["filter", "--config", default], ["filter", "--self-test", "--config", default],
            ["simulate", "--config", default], ["simulate", "--config", json_only]]
    argv = [run + ["--out", str(tmp_path / str(k))] for k, run in enumerate(runs)]
    code = ("import json, sys\n"
            "from qubit_observer.cli import main\n"
            "for args in json.loads(sys.argv[1]):\n"
            "    assert main(args) == 0, args\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", code, json.dumps(argv)], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip().splitlines()[-1] == "[]"
    assert (tmp_path / "4" / "paths.csv").exists()
    assert not (tmp_path / "5" / "paths.csv").exists()


@pytest.mark.parametrize("seed", [62, 388])
def test_filter_gate_passes_seeds_with_largest_z(seed):
    """Seeds whose largest of 60 covariance z-scores exceeds 4 (4.08, 4.29) pass
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
    """A Riccati covariance 30% too large fails riccati_limit, while the
    sampled errors still match the filter's own covariance P."""
    solve = cli.solve_riccati

    def inflated(model, grid):
        ricc = solve(model, grid)
        return RiccatiSolution(times=ricc.times, sigma_star=1.3 * ricc.sigma_star,
                               gains=ricc.gains)

    monkeypatch.setattr(cli, "solve_riccati", inflated)
    report, _ = cli.cmd_filter(load_config(DEFAULT_CONFIG))
    assert report["checks"]["unbiasedness"]["passed"] is True
    assert report["checks"]["covariance_consistency"]["passed"] is True
    assert report["checks"]["riccati_limit"]["passed"] is False
    assert report["passed"] is False


def _with_coefficient(model, name, factor):
    """A copy of model whose Riccati coefficient name is scaled by factor."""
    mutated = copy.copy(model)
    object.__setattr__(mutated, name, factor * getattr(model, name))
    return mutated


@pytest.mark.parametrize("name", ["R", "Q"])
def test_riccati_limit_detects_a_coefficient_off_by_1e_3(monkeypatch, name):
    """R or Q scaled by 1.001 in the Riccati solve alone moves Sigma* from the
    filter's P by 7.3e-4 or 7.8e-4 (relative), against riccati_limit's 7.9e-5.
    The check reads no sample, so it fails whatever the seed."""
    solve = cli.solve_riccati
    monkeypatch.setattr(cli, "solve_riccati",
                        lambda model, grid: solve(_with_coefficient(model, name, 1.001), grid))
    config = load_config(DEFAULT_CONFIG)
    for seed in (1, 2):
        sim = replace(config.sim, n_paths=100, seed=seed)
        report, _ = cli.cmd_filter(replace(config, sim=sim))
        detail = report["checks"]["riccati_limit"]["detail"]
        assert detail["tolerance"] == pytest.approx(7.91e-5, rel=1e-3)
        assert detail["gap"] > 5.0 * detail["tolerance"]
        assert report["passed"] is False


def test_filter_gate_detects_an_inflated_filter_covariance(monkeypatch):
    """The gate's reference P scaled by 1.3 fails covariance_consistency; the
    estimates are left as they are."""
    streamed = cli.filter_paths

    def inflated(*args, **kwargs):
        z_p, x_o, x_hat, covs = streamed(*args, **kwargs)
        return z_p, x_o, x_hat, 1.3 * covs

    monkeypatch.setattr(cli, "filter_paths", inflated)
    report, _ = cli.cmd_filter(load_config(DEFAULT_CONFIG))
    cov = report["checks"]["covariance_consistency"]
    assert cov["passed"] is False
    assert cov["detail"]["max_abs_z"] > 10.0


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


EIGENSTATE_RHO_PAIRS = [[[0.5, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.5, 0.0]]]


def test_oracle_strides_end_at_t_final(tmp_path):
    """store_every = 8 takes 50 strides of the 400 steps; the reference is
    evaluated at the same nodes and the last row sits at t_final."""
    cfg = small_config()
    cfg["plant"]["rho_p"] = EIGENSTATE_RHO_PAIRS
    cfg["observer"]["omega_o"] = 1.0
    cfg["oracle"]["store_every"] = 8
    path = write_config(tmp_path, cfg)
    out = tmp_path / "orc"
    assert main(["oracle", "--config", path, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["checks"]["mean_agreement"]["passed"] is True
    rows = (out / "oracle.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 51
    assert float(rows[-1].split(",")[0]) == 0.4
    assert float(rows[-1].split(",")[2]) < -0.05  # the means have moved


def test_oracle_starts_from_the_configured_observer_state(tmp_path, monkeypatch):
    """x0_mean = [1, 0] starts the oscillator in the coherent state alpha = 0.5
    and passes; the same run from vacuum fails mean_agreement at the first node."""
    cfg = small_config()
    cfg["plant"]["rho_p"] = EIGENSTATE_RHO_PAIRS
    cfg["observer"]["x0_mean"] = [1.0, 0.0]
    path = write_config(tmp_path, cfg)
    out = tmp_path / "orc"
    assert main(["oracle", "--config", path, "--out", str(out)]) == 0
    first = (out / "oracle.csv").read_text().splitlines()[1].split(",")
    assert float(first[2]) == pytest.approx(1.0, abs=1e-12)
    start = cli.joint_initial_state
    monkeypatch.setattr(cli, "joint_initial_state",
                        lambda rho_p, n_trunc, alpha=0.0: start(rho_p, n_trunc))
    report, _ = cli.cmd_oracle(load_config(cfg))
    assert report["checks"]["mean_agreement"]["passed"] is False
    assert report["max_mean_deviation"] == pytest.approx(1.0, abs=1e-12)


def test_oracle_rejects_a_non_coherent_sigma0(tmp_path, capsys):
    cfg = small_config()
    cfg["observer"]["sigma0"] = [[2.0, 0.0], [0.0, 1.0]]
    path = write_config(tmp_path, cfg)
    assert main(["oracle", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("configuration error: observer.sigma0: ")
    assert main(["analyze", "--config", path, "--out", str(tmp_path / "a")]) == 0


def test_simulate_exact_at_large_kappa_dt(tmp_path):
    """kappa = 100 with sim.dt = 0.5 samples the exact law and passes its gate."""
    cfg = small_config()
    cfg["observer"].update(kappa=100.0, omega_o=1.0)
    cfg["sim"].update(dt=0.5, t_final=10.0, n_paths=2000)
    path = write_config(tmp_path, cfg)
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "s")]) == 0


@pytest.mark.parametrize("observer", [{"omega_o": 15.0}, {"kappa": 1e-4}],
                         ids=["omega_o-15", "kappa-1e-4"])
def test_filter_passes_across_the_envelope_on_the_default_grid(tmp_path, observer):
    """The filter steps exactly, so no step length is too coarse for it:
    omega_o = 15 and kappa = 1e-4, where an Euler step would expand, pass."""
    cfg = json.loads(DEFAULT_CONFIG.read_text())
    cfg["observer"].update(observer)
    cfg["outputs"]["formats"] = ["json"]
    path = write_config(tmp_path, cfg)
    assert main(["filter", "--config", path, "--out", str(tmp_path / "f")]) == 0


def test_oracle_truncation_error_surfaces(tmp_path, capsys):
    cfg = small_config()
    cfg["observer"]["kappa"] = 0.5
    cfg["oracle"] = {"n_trunc": 4, "dt": 0.001, "t_final": 5.0}
    cfg["plant"]["rho_p"] = [[[0.5, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.5, 0.0]]]
    path = write_config(tmp_path, cfg)
    assert main(["oracle", "--config", path, "--out", str(tmp_path / "o")]) == 1
    assert "increase n_trunc" in capsys.readouterr().err


def test_missing_config_file_exits_2_naming_it(tmp_path, capsys):
    path = str(tmp_path / "absent.json")
    assert main(["analyze", "--config", path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {path}: cannot read")


def test_non_utf8_config_exits_2_naming_it(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(json.dumps(small_config()).replace("plant", "pl\xe4nt").encode("latin-1"))
    assert main(["analyze", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {path}: cannot read")
    assert "utf-8" in err


def test_out_that_names_a_file_exits_2_naming_it(tmp_path, capsys):
    path = write_config(tmp_path, small_config())
    taken = tmp_path / "taken"
    taken.write_text("not a directory")
    assert main(["analyze", "--config", path, "--out", str(taken)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"output error: cannot create the output directory {taken}")
    assert taken.read_text() == "not a directory"


def test_unwritable_artifact_exits_1_naming_it(tmp_path, capsys):
    """paths.csv taken by a directory: simulate runs, then cannot write it."""
    path = write_config(tmp_path, small_config())
    out = tmp_path / "sim"
    (out / "paths.csv").mkdir(parents=True)
    assert main(["simulate", "--config", path, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("output error: cannot write an artifact: ")
    assert str(out / "paths.csv") in err
    assert not (out / "report.json").exists()


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
