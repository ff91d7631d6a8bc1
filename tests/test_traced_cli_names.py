"""The benchmark's traced run wraps CLI names; each must exist in the CLI."""

import importlib.util
from pathlib import Path

import qubit_observer.cli as cli

TRACED_CLI = Path(__file__).resolve().parent.parent / "perfbench" / "traced_cli.py"


def test_traced_names_exist_in_cli():
    spec = importlib.util.spec_from_file_location("traced_cli", TRACED_CLI)
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    missing = [name for name in traced.WRAPPED if not hasattr(cli, name)]
    assert not missing, f"perfbench/traced_cli.py wraps names cli lacks: {missing}"
