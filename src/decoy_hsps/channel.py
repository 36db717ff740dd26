"""Fiber-plus-receiver transmission model.

Per-photon-number click probabilities and error rates for forecasting what
a no-eavesdropper experiment would observe. Default parameter values follow
the widely used GYS fiber-QKD experiment and are fully configurable.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from .sources import at_least_one_probability

DARK_COUNT_E_0 = 0.5  # a dark count's bit value is random


@dataclass(frozen=True)
class ChannelParams:
    """Fiber channel and receiver parameters.

    alpha_db_per_km: fiber loss coefficient (dB/km).
    distance_km: transmission distance (km).
    eta_b: receiver-side transmittance/detection efficiency, in [0, 1].
    d_b: receiver dark-count rate per pulse, in [0, 1).
    e_d: misalignment error probability, in [0, 0.5].
    e_0: error rate of dark-count-only events (random outcome, 1/2).
    """

    alpha_db_per_km: float = 0.21
    distance_km: float = 0.0
    eta_b: float = 0.045
    d_b: float = 1.7e-6
    e_d: float = 0.033
    e_0: float = DARK_COUNT_E_0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if self.alpha_db_per_km < 0:
            raise ValueError(f"alpha_db_per_km must be >= 0, got {self.alpha_db_per_km}")
        if self.distance_km < 0:
            raise ValueError(f"distance_km must be >= 0, got {self.distance_km}")
        if not 0.0 <= self.eta_b <= 1.0:
            raise ValueError(f"eta_b must be in [0, 1], got {self.eta_b}")
        if not 0.0 <= self.d_b < 1.0:
            raise ValueError(f"d_b must be in [0, 1), got {self.d_b}")
        if not 0.0 <= self.e_d <= 0.5:
            raise ValueError(f"e_d must be in [0, 0.5], got {self.e_d}")
        if not 0.0 <= self.e_0 <= 1.0:
            raise ValueError(f"e_0 must be in [0, 1], got {self.e_0}")

    def at_distance(self, distance_km: float) -> "ChannelParams":
        """Same channel evaluated at a different fiber length."""
        return replace(self, distance_km=distance_km)


def fiber_transmittance(alpha_db_per_km: float, distance_km: float) -> float:
    """Fiber transmittance 10^(-alpha*L/10)."""
    if alpha_db_per_km < 0:
        raise ValueError(f"alpha_db_per_km must be >= 0, got {alpha_db_per_km}")
    if distance_km < 0:
        raise ValueError(f"distance_km must be >= 0, got {distance_km}")
    return 10.0 ** (-alpha_db_per_km * distance_km / 10.0)


def overall_transmittance(ch: ChannelParams) -> float:
    """End-to-end transmittance: fiber loss times receiver efficiency."""
    return fiber_transmittance(ch.alpha_db_per_km, ch.distance_km) * ch.eta_b


def n_photon_click_probability(n: int, ch: ChannelParams) -> float:
    """Probability the receiver clicks on an n-photon pulse.

    Additive dark-count approximation d_b + 1 - (1-eta)^n, clamped to 1 so
    the value stays a probability.
    """
    return _click_probability(n, ch, overall_transmittance(ch))


def n_photon_error_rate(n: int, ch: ChannelParams) -> float:
    """Error rate of clicks produced by an n-photon pulse.

    Dark counts err half the time; surviving photons err with the
    misalignment probability. Undefined when no click can occur.
    """
    return _error_rate(n, ch, overall_transmittance(ch))


# The two helpers below take the overall transmittance eta, computed once
# by the caller, as the sources' signal terms do.

def _click_probability(n: int, ch: ChannelParams, eta: float) -> float:
    if n < 1:
        raise ValueError(f"photon number n must be >= 1, got {n}")
    return min(1.0, ch.d_b + at_least_one_probability(eta, n))


def _error_rate(n: int, ch: ChannelParams, eta: float) -> float:
    if n < 1:
        raise ValueError(f"photon number n must be >= 1, got {n}")
    transmitted = at_least_one_probability(eta, n)
    denom = ch.d_b + transmitted
    if denom == 0.0:
        raise ValueError(
            "n-photon error rate undefined: zero dark counts and zero transmittance "
            "mean no clicks can occur"
        )
    return (ch.e_0 * ch.d_b + ch.e_d * transmitted) / denom
