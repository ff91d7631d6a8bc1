"""Experiment configuration: JSON schema, strict validation, field-path errors.

Complex matrix entries are written as [re, im] pairs.  Unknown keys are
rejected so a typo cannot silently fall back to a default, and every
module-level invariant is re-validated on load.
"""

import json
from dataclasses import dataclass

import numpy as np

from .fock_oracle import FockConfig
from .model_builder import ObserverSpec
from .sde_engine import SimConfig
from .spin_algebra import PlantSpec, plant_generator

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
class FilterSettings:
    """Grid for the Riccati solve and the record-driven filter run."""

    dt: float = 0.005
    t_final: float = 2.0

    def __post_init__(self):
        if not (self.dt > 0.0 and np.isfinite(self.dt)):
            raise ValueError("dt must be positive")
        if not (self.t_final > self.dt):
            raise ValueError("t_final must exceed dt")
        object.__setattr__(self, "dt", float(self.dt))
        object.__setattr__(self, "t_final", float(self.t_final))


@dataclass(frozen=True)
class OutputSettings:
    directory: str = "out"
    formats: tuple = ("csv", "json")

    def __post_init__(self):
        formats = tuple(self.formats)
        for fmt in formats:
            if fmt not in ("csv", "json"):
                raise ValueError(f"unknown format {fmt!r}")
        object.__setattr__(self, "formats", formats)


@dataclass(frozen=True)
class ExperimentConfig:
    plant: PlantSpec
    observer: ObserverSpec
    sim: SimConfig
    filter: FilterSettings
    oracle: FockConfig
    outputs: OutputSettings


_SECTION_KEYS = {
    "plant": {"r_p", "C_p", "rho_p"},
    "observer": {"omega_o", "kappa", "beta", "x0_mean", "sigma0"},
    "sim": {"dt", "t_final", "n_paths", "seed"},
    "filter": {"dt", "t_final"},
    "oracle": {"n_trunc", "dt", "t_final", "leakage_threshold", "store_every"},
    "outputs": {"directory", "formats"},
}

_SIM_DEFAULTS = {"dt": 0.01, "t_final": 10.0, "n_paths": 2000, "seed": 0}


def _check_keys(section: dict, allowed, path: str) -> None:
    unknown = set(section) - set(allowed)
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")


def _complex_matrix(raw, path: str) -> np.ndarray:
    try:
        arr = np.asarray(raw, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(f"{path}: entries must be [re, im] pairs") from None
    if arr.ndim != 3 or arr.shape[-1] != 2:
        raise ConfigError(f"{path}: expected a matrix of [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def _build(section_name: str, ctor, kwargs):
    try:
        return ctor(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{section_name}: {exc}") from None


def load_config(source) -> ExperimentConfig:
    """Build an ExperimentConfig from a JSON file path or a parsed dict."""
    if isinstance(source, dict):
        raw = source
    else:
        with open(source, "r", encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{source}: invalid JSON ({exc})") from None
    if not isinstance(raw, dict):
        raise ConfigError("top level: expected an object")
    _check_keys(raw, _SECTION_KEYS, "top level")
    for required in ("plant", "observer"):
        if required not in raw:
            raise ConfigError(f"top level: missing required section {required!r}")

    plant_raw = dict(raw["plant"])
    _check_keys(plant_raw, _SECTION_KEYS["plant"], "plant")
    for key in ("r_p", "C_p", "rho_p"):
        if key not in plant_raw:
            raise ConfigError(f"plant: missing key {key!r}")
    plant = _build("plant", PlantSpec, {
        "r_p": plant_raw["r_p"],
        "c_p": plant_raw["C_p"],
        "rho_p": _complex_matrix(plant_raw["rho_p"], "plant.rho_p"),
    })
    generator = plant_generator(plant.r_p)
    moved = float(np.linalg.norm(plant.c_p @ generator))
    if moved > 1e-12 * np.linalg.norm(plant.c_p) * np.linalg.norm(generator):
        raise ConfigError(f"plant.r_p: the plant Hamiltonian moves C_p . sigma "
                          f"(|C_p^T G(r_p)| = {moved:.3e}); the tracked variable "
                          "must be conserved")

    obs_raw = dict(raw["observer"])
    _check_keys(obs_raw, _SECTION_KEYS["observer"], "observer")
    for key in ("omega_o", "kappa", "beta"):
        if key not in obs_raw:
            raise ConfigError(f"observer: missing key {key!r}")
    observer = _build("observer", ObserverSpec, obs_raw)

    sim_raw = dict(_SIM_DEFAULTS)
    sim_raw.update(raw.get("sim", {}))
    _check_keys(sim_raw, _SECTION_KEYS["sim"], "sim")
    sim = _build("sim", SimConfig, sim_raw)

    filt_raw = dict(raw.get("filter", {}))
    _check_keys(filt_raw, _SECTION_KEYS["filter"], "filter")
    filt = _build("filter", FilterSettings, filt_raw)

    oracle_raw = dict(raw.get("oracle", {}))
    _check_keys(oracle_raw, _SECTION_KEYS["oracle"], "oracle")
    oracle = _build("oracle", FockConfig, oracle_raw)

    out_raw = dict(raw.get("outputs", {}))
    _check_keys(out_raw, _SECTION_KEYS["outputs"], "outputs")
    outputs = _build("outputs", OutputSettings, out_raw)

    return ExperimentConfig(plant=plant, observer=observer, sim=sim,
                            filter=filt, oracle=oracle, outputs=outputs)
