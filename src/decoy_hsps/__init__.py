"""Secure-key-rate lower bounds for 3-intensity decoy-state BB84 with a
heralded single photon source, plus a weak-coherent-state comparison
pipeline, a no-eavesdropper observables forecast, per-distance signal
intensity optimization, and a CSV-emitting CLI.
"""

__version__ = "0.1.0"

from .sources import (
    CoherentSource,
    HeraldedSourceParams,
    TriggeredSource,
    post_selection_probability,
)
from .channel import (
    ChannelParams,
    n_photon_click_probability,
    n_photon_error_rate,
    overall_transmittance,
)
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
    hsps_elimination_coefficient,
    ideal_rate,
    key_rate,
    y1_lower_bound,
)
from .optimizer import (
    SweepConfig,
    distance_grid,
    key_rate_point,
    max_secure_distance,
    optimal_ideal_rate,
    optimize_mu_prime,
    sweep_distances,
)
from .config import (
    ConfigError,
    format_config,
    resolve_config,
)

__all__ = [
    "__version__",
    "CoherentSource",
    "HeraldedSourceParams",
    "TriggeredSource",
    "post_selection_probability",
    "ChannelParams",
    "n_photon_click_probability",
    "n_photon_error_rate",
    "overall_transmittance",
    "IntensityCounts",
    "ObservedStatistics",
    "forecast",
    "statistics_from_counts",
    "KeyRatePoint",
    "SecurityBounds",
    "compute_bounds",
    "hsps_elimination_coefficient",
    "ideal_rate",
    "key_rate",
    "y1_lower_bound",
    "SweepConfig",
    "distance_grid",
    "key_rate_point",
    "max_secure_distance",
    "optimal_ideal_rate",
    "optimize_mu_prime",
    "sweep_distances",
    "ConfigError",
    "format_config",
    "resolve_config",
]
