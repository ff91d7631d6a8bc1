"""Experiment configuration: JSON schema, strict validation, field-path errors.

Each JSON section is the dataclass that holds it: its keys, defaults and
required keys are that dataclass's fields, and its validation runs on load.
Complex matrix entries are written as [re, im] pairs.  Unknown keys are
rejected so a typo cannot silently fall back to a default.
"""

import json
from dataclasses import MISSING, dataclass, field, fields, is_dataclass

import numpy as np

from .fock_oracle import FockConfig
from .model_builder import ObserverSpec
from .sde_engine import SimConfig
from .spin_algebra import PlantSpec, _Grid, plant_generator

__all__ = [
    "ConfigError",
    "FilterSettings",
    "OutputSettings",
    "ExperimentConfig",
    "load_config",
]


class ConfigError(ValueError):
    """Configuration problem, message prefixed with the offending field path."""


@dataclass(frozen=True)
class FilterSettings(_Grid):
    """Grid for the Riccati solve and the record-driven filter run, which the
    sampler runs on too: spin_algebra._Grid, like the sim and oracle grids,
    with its own defaults."""

    dt: float = 0.005
    t_final: float = 2.0


@dataclass(frozen=True)
class OutputSettings:
    """Where artifacts go and which optional ones are written.  "csv" in
    formats writes paths.csv, riccati.csv or oracle.csv; report.json is
    always written, so "json" changes nothing and an empty list writes
    report.json alone."""

    directory: str = "out"
    formats: tuple = ("csv", "json")

    def __post_init__(self):
        if not isinstance(self.directory, str):
            raise ValueError("directory must be a string")
        if not isinstance(self.formats, (list, tuple)):
            raise ValueError("formats must be a list")
        formats = tuple(self.formats)
        for fmt in formats:
            if fmt not in ("csv", "json"):
                raise ValueError(f"unknown format {fmt!r}")
        object.__setattr__(self, "formats", formats)


@dataclass(frozen=True)
class ExperimentConfig:
    plant: PlantSpec
    observer: ObserverSpec
    sim: SimConfig = field(default_factory=SimConfig)
    filter: FilterSettings = field(default_factory=FilterSettings)
    oracle: FockConfig = field(default_factory=FockConfig)
    outputs: OutputSettings = field(default_factory=OutputSettings)


# Field name -> JSON key, where the two differ.
_JSON_KEY = {"c_p": "C_p"}


def _complex_matrix(raw, path: str) -> np.ndarray:
    try:
        arr = np.asarray(raw, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(f"{path}: entries must be [re, im] pairs") from None
    if arr.ndim != 3 or arr.shape[-1] != 2:
        raise ConfigError(f"{path}: expected a matrix of [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def _section(name: str, cls, raw):
    """Build the dataclass cls from the JSON object raw; errors start with name.

    The keys are cls's fields (spelled as in _JSON_KEY), the fields without a
    default are required, and a field whose type is a dataclass is a nested
    section named by its key.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"{name}: expected an object")
    spec = {_JSON_KEY.get(f.name, f.name): f for f in fields(cls)}
    unknown = set(raw) - set(spec)
    if unknown:
        raise ConfigError(f"{name}: unknown keys {sorted(unknown)}")
    kwargs = {}
    for key, f in spec.items():
        if key in raw:
            kwargs[f.name] = (_section(key, f.type, raw[key]) if is_dataclass(f.type)
                              else raw[key])
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{name}: missing key {key!r}")
    if "rho_p" in kwargs:
        kwargs["rho_p"] = _complex_matrix(kwargs["rho_p"], f"{name}.rho_p")
    try:
        return cls(**kwargs)
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"{name}: {exc}") from None


def load_config(source) -> ExperimentConfig:
    """Build an ExperimentConfig from a JSON file path or a parsed dict."""
    if isinstance(source, dict):
        raw = source
    else:
        try:
            with open(source, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{source}: invalid JSON ({exc})") from None
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"{source}: cannot read ({exc})") from None
    config = _section("top level", ExperimentConfig, raw)
    plant = config.plant
    generator = plant_generator(plant.r_p)
    moved = float(np.linalg.norm(plant.c_p @ generator))
    if moved > 1e-12 * np.linalg.norm(plant.c_p) * np.linalg.norm(generator):
        raise ConfigError(f"plant.r_p: the plant Hamiltonian moves C_p . sigma "
                          f"(|C_p^T G(r_p)| = {moved:.3e}); the tracked variable "
                          "must be conserved")
    return config
