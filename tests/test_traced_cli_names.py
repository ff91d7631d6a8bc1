"""The benchmark's traced run wraps CLI names; each must exist in the CLI, and
the calls its work counters read must keep their leading parameters."""

import importlib.util
import inspect
from pathlib import Path

import qubit_observer.cli as cli

TRACED_CLI = Path(__file__).resolve().parent.parent / "perfbench" / "traced_cli.py"


def test_traced_names_exist_in_cli():
    spec = importlib.util.spec_from_file_location("traced_cli", TRACED_CLI)
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    missing = [name for name in traced.WRAPPED if not hasattr(cli, name)]
    assert not missing, f"perfbench/traced_cli.py wraps names cli lacks: {missing}"


def test_traced_counters_see_the_parameters_they_read():
    """The work counters read these leading positional parameters of each call."""
    expected = {"solve_riccati": ("model", "grid"),
                "simulate_paths": ("model", "config"),
                "evolve": ("state", "ops", "config")}
    for name, params in expected.items():
        got = tuple(inspect.signature(getattr(cli, name)).parameters)[:len(params)]
        assert got == params, f"cli.{name} leads with {got}, the counters read {params}"
