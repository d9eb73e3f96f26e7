"""twinsim: deterministic discrete-event simulator of a layered digital-twin
ecosystem (vehicle twins, edge populations, cloud governor), instantiated as
a smart-city traffic showcase."""

from .kernel import Engine, LinkSpec, CausalityError, RoutingError, link_latency
from .mobility import ConfigError, RoadNetwork, build_grid, Fleet, pairs_within
from .runner import Simulation, RunResult, run_showcase
from .scenario import ScenarioConfig, load_scenario, default_hotspot_scenario

__version__ = "0.1.0"

__all__ = [
    "Engine", "LinkSpec", "CausalityError", "RoutingError", "link_latency",
    "ConfigError", "RoadNetwork", "build_grid", "Fleet", "pairs_within",
    "Simulation", "RunResult", "run_showcase",
    "ScenarioConfig", "load_scenario", "default_hotspot_scenario",
    "__version__",
]
