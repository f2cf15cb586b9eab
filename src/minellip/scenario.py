"""Scenario configuration files.

A scenario is a single YAML document with nested sections for the plant,
the topology, the gain (explicit or synthesized), the disturbance, the
simulation settings and the output location. Matrices are arrays of row
arrays. Three bundled scenarios reproduce the reference examples shipped
with the package.
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from .errors import ConfigError, ToolkitError
from .graph import Topology
from .matkit import as_matrix, check_pd
from .protocol import PlantModel, check_gain

_DISTURBANCE_KINDS = ("none", "sinusoid", "worst_case")
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)  # libyaml's, where PyYAML has it


@dataclass(eq=False)
class SimulationSettings:
    x0: np.ndarray
    u0: np.ndarray
    t_final: float
    dt: float
    window_fraction: float


@dataclass(eq=False)
class OutputSettings:
    directory: str
    file_prefix: str


@dataclass(eq=False)
class ScenarioConfig:
    plant: PlantModel
    topology: Topology
    gain: np.ndarray | None
    synthesize: dict | None
    disturbance: dict
    simulation: SimulationSettings
    output: OutputSettings
    ellipsoid_P: np.ndarray | None = None


def _require(mapping: dict, key: str, context: str):
    if key not in mapping:
        raise ConfigError(f"missing key '{key}' in section '{context}'")
    return mapping[key]


def from_dict(data: dict) -> ScenarioConfig:
    """Validate a parsed YAML mapping into a ScenarioConfig."""
    if not isinstance(data, dict):
        raise ConfigError("scenario must be a mapping at top level")
    try:
        plant_sec = _require(data, "plant", "scenario")
        plant = PlantModel(
            A=as_matrix(_require(plant_sec, "A", "plant"), "plant.A"),
            B=as_matrix(_require(plant_sec, "B", "plant"), "plant.B"),
            E=as_matrix(_require(plant_sec, "E", "plant"), "plant.E"),
            Q=as_matrix(_require(plant_sec, "Q", "plant"), "plant.Q"),
            eta=float(_require(plant_sec, "eta", "plant")),
        )

        topo_sec = _require(data, "topology", "scenario")
        adjacency = as_matrix(_require(topo_sec, "adjacency", "topology"), "topology.adjacency")
        followers = float(_require(topo_sec, "followers", "topology"))
        if not followers.is_integer():
            raise ConfigError(f"topology.followers must be a whole number, got {followers}")
        followers = int(followers)
        if adjacency.shape[0] != followers + 1:
            raise ConfigError(
                f"topology.followers={followers} inconsistent with adjacency {adjacency.shape}"
            )
        topology = Topology(adjacency=adjacency)

        gain_sec = _require(data, "gain", "scenario")
        gain = None
        synthesize = None
        if "K" in gain_sec and "synthesize" in gain_sec:
            raise ConfigError("gain section must give either K or synthesize, not both")
        if "K" in gain_sec:
            gain = check_gain(plant, gain_sec["K"])
        elif "synthesize" in gain_sec:
            syn = gain_sec["synthesize"] or {}
            synthesize = {}
            if "gamma_grid" in syn and syn["gamma_grid"] is not None:
                grid = [float(g) for g in syn["gamma_grid"]]
                if not grid or not all(0 < g < np.inf for g in grid):  # NaN fails it too
                    raise ConfigError("gain.synthesize.gamma_grid must hold positive values, all finite")
                synthesize["gamma_grid"] = grid
            if "q0" in syn and syn["q0"] is not None:
                synthesize["q0"] = check_pd(syn["q0"], plant.n, "gain.synthesize.q0")[0]
        else:
            raise ConfigError("gain section needs K or synthesize")

        dist_sec = dict(_require(data, "disturbance", "scenario"))
        kind = _require(dist_sec, "kind", "disturbance")
        if kind not in _DISTURBANCE_KINDS:
            raise ConfigError(f"disturbance.kind must be one of {_DISTURBANCE_KINDS}, got {kind!r}")
        if kind == "sinusoid":
            amps = np.asarray(_require(dist_sec, "amplitudes", "disturbance"), dtype=float).ravel()
            if amps.shape != (plant.p,) or not np.isfinite(amps).all():
                raise ConfigError(f"disturbance.amplitudes must have length {plant.p}, all finite")
            dist_sec["amplitudes"] = [float(a) for a in amps]
            freq = float(_require(dist_sec, "angular_frequency", "disturbance"))
            if not np.isfinite(freq):
                raise ConfigError("disturbance.angular_frequency must be finite")
            dist_sec["angular_frequency"] = freq

        sim_sec = _require(data, "simulation", "scenario")
        x0 = as_matrix(_require(sim_sec, "x0", "simulation"), "simulation.x0")
        if x0.shape != (followers + 1, plant.n):
            raise ConfigError(
                f"simulation.x0 must be {(followers + 1, plant.n)}, got {x0.shape}"
            )
        u0 = np.atleast_1d(np.asarray(_require(sim_sec, "u0", "simulation"), dtype=float))
        if u0.shape != (plant.m,) or not np.isfinite(u0).all():
            raise ConfigError(f"simulation.u0 must have length {plant.m}, all finite")
        simulation = SimulationSettings(
            x0=x0,
            u0=u0,
            t_final=float(_require(sim_sec, "t_final", "simulation")),
            dt=float(_require(sim_sec, "dt", "simulation")),
            window_fraction=float(sim_sec.get("window_fraction", 0.5)),
        )
        if not 0 < simulation.dt <= simulation.t_final < np.inf:  # NaN fails it too
            raise ConfigError("simulation needs dt > 0 and t_final >= dt, both finite")
        if not 0.0 < simulation.window_fraction <= 1.0:
            raise ConfigError("simulation.window_fraction must lie in (0, 1]")

        out_sec = _require(data, "output", "scenario")
        names = [_require(out_sec, key, "output") for key in ("directory", "file_prefix")]
        if any(name in (None, "") for name in names):
            raise ConfigError("output.directory and output.file_prefix must not be null or empty")
        output = OutputSettings(*map(str, names))

        ellipsoid_P = None
        if "ellipsoid" in data and data["ellipsoid"]:
            ellipsoid_P = check_pd(_require(data["ellipsoid"], "P", "ellipsoid"),
                                   followers * plant.n, "ellipsoid.P")[0]

        return ScenarioConfig(
            plant=plant,
            topology=topology,
            gain=gain,
            synthesize=synthesize,
            disturbance=dist_sec,
            simulation=simulation,
            output=output,
            ellipsoid_P=ellipsoid_P,
        )
    except ConfigError:
        raise
    except (ToolkitError, ValueError, TypeError, KeyError) as exc:
        raise ConfigError(f"invalid scenario: {exc}") from exc


def load(path) -> ScenarioConfig:
    """Read and validate a scenario YAML file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read scenario file {path}: {exc}") from exc
    try:
        data = yaml.load(text, Loader=YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse scenario file {path}: {exc}") from exc
    return from_dict(data)


def bundled_path(name: str) -> Path:
    """Filesystem path of a bundled scenario (name without extension)."""
    resource = importlib.resources.files("minellip") / "configs" / f"{name}.yaml"
    path = Path(str(resource))
    if not path.exists():
        raise ConfigError(f"no bundled scenario named {name!r}")
    return path


def load_bundled(name: str) -> ScenarioConfig:
    return load(bundled_path(name))
