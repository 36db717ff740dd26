"""Secure-key-rate lower bounds for 3-intensity decoy-state BB84 with a
heralded single photon source, plus a weak-coherent-state comparison
pipeline, a no-eavesdropper observables forecast, per-distance signal
intensity optimization, and a CSV-emitting CLI.
"""

__version__ = "0.1.0"

from .sources import CoherentSource, TriggeredSource
from .channel import ChannelParams, overall_transmittance
from .observables import (
    IntensityCounts,
    ObservedStatistics,
    forecast,
    statistics_from_counts,
)
from .bounds import (
    KeyRatePoint,
    SecurityBounds,
    compute_bounds,
    ideal_rate,
    key_rate,
)
from .config import ConfigError, SweepConfig, format_config, resolve_config

_SEARCH = ("distance_grid", "key_rate_point", "max_secure_distance", "sweep_distances")


def __getattr__(name):
    """The mu' search's names, imported with it (and numpy) on first use."""
    if name not in _SEARCH:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import optimizer
    globals()[name] = value = getattr(optimizer, name)
    return value


def __dir__():
    """The module's names, the search's among them before their first use."""
    return sorted(set(globals()) | set(_SEARCH))


__all__ = [
    "__version__",
    "CoherentSource",
    "TriggeredSource",
    "ChannelParams",
    "overall_transmittance",
    "IntensityCounts",
    "ObservedStatistics",
    "forecast",
    "statistics_from_counts",
    "KeyRatePoint",
    "SecurityBounds",
    "compute_bounds",
    "ideal_rate",
    "key_rate",
    "SweepConfig",
    "distance_grid",
    "key_rate_point",
    "max_secure_distance",
    "sweep_distances",
    "ConfigError",
    "format_config",
    "resolve_config",
]
