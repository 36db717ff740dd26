"""No-eavesdropper forecast of the statistics an experiment would observe,
and the same statistics built from observed counts.

One forecast serves both sources: the yields and QBERs per emitted or per
triggered pulse come from the source object's signal terms (see .sources),
as functions of source and channel parameters.

Conventions:
  Y_x   yield: click probability per *triggered* pulse of intensity x.
  tY_x  rescaled yield: clicks per *emitted* pulse, tY_x = Y_x * P_post(x).
  E_x   QBER of the clicks produced by triggered pulses of intensity x.

ObservedStatistics is built once per evaluated point, so its own __init__
checks the arguments and stores every field in one step; the generated
frozen __init__ (one object.__setattr__ per field) and a __post_init__
reading the fields back cost about twice as much.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .channel import ChannelParams, overall_transmittance
from .numerics import FLOATS
from .sources import COHERENT, triggered_source


@dataclass(frozen=True)
class IntensityCounts:
    """Raw counts observed at one intensity setting.

    Fields may be fractional (e.g. expected counts) as well as integer
    tallies: pulses emitted, pulses triggered, receiver clicks within the
    triggered windows, and optionally how many of those clicks were errors.
    """

    pulses: float
    triggered: float
    clicks: float
    errors: float | None = None

    def __post_init__(self):
        for name in ("pulses", "triggered", "clicks", "errors"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.pulses < 0 or self.triggered < 0 or self.clicks < 0:
            raise ValueError("counts must be nonnegative")
        if self.triggered > self.pulses:
            raise ValueError(
                f"triggered count {self.triggered} exceeds pulses sent {self.pulses}"
            )
        if self.clicks > self.triggered:
            raise ValueError(
                f"click count {self.clicks} exceeds triggered count {self.triggered}"
            )
        if self.errors is not None and not 0 <= self.errors <= self.clicks:
            raise ValueError(
                f"error count {self.errors} must be in [0, clicks={self.clicks}]"
            )


@dataclass(frozen=True)
class ObservedStatistics:
    """The yield/QBER bundle the bound calculations consume.

    For a weak-coherent-state run the same container is used with the
    degenerate convention P_post = 1, i.e. y_* and ty_* both hold the
    per-pulse gains Q_x. QBER fields are None when error counts were not
    observed.
    """

    y0: float
    y_mu: float
    y_mu_prime: float
    ty_mu: float
    ty_mu_prime: float
    e_mu: float | None = None
    e_mu_prime: float | None = None

    def __init__(
        self,
        y0: float,
        y_mu: float,
        y_mu_prime: float,
        ty_mu: float,
        ty_mu_prime: float,
        e_mu: float | None = None,
        e_mu_prime: float | None = None,
    ):
        if not 0.0 <= y0 <= 1.0:
            raise ValueError(f"y0 must be in [0, 1], got {y0}")
        if not 0.0 <= y_mu <= 1.0:
            raise ValueError(f"y_mu must be in [0, 1], got {y_mu}")
        if not 0.0 <= y_mu_prime <= 1.0:
            raise ValueError(f"y_mu_prime must be in [0, 1], got {y_mu_prime}")
        if not 0.0 <= ty_mu <= 1.0:
            raise ValueError(f"ty_mu must be in [0, 1], got {ty_mu}")
        if not 0.0 <= ty_mu_prime <= 1.0:
            raise ValueError(f"ty_mu_prime must be in [0, 1], got {ty_mu_prime}")
        if e_mu is not None and not 0.0 <= e_mu <= 1.0:
            raise ValueError(f"e_mu must be in [0, 1], got {e_mu}")
        if e_mu_prime is not None and not 0.0 <= e_mu_prime <= 1.0:
            raise ValueError(f"e_mu_prime must be in [0, 1], got {e_mu_prime}")
        self.__dict__.update(
            y0=y0, y_mu=y_mu, y_mu_prime=y_mu_prime, ty_mu=ty_mu, ty_mu_prime=ty_mu_prime,
            e_mu=e_mu, e_mu_prime=e_mu_prime,
        )


def forecast(src, mu: float, mu_prime: float, ch: ChannelParams) -> ObservedStatistics:
    """Bundle the full no-eavesdropper forecast of a 3-intensity run of src.

    Vacuum pulses click only through the receiver's dark counts, so the
    vacuum yield is d_b exactly. A CoherentSource has P_post = 1: its
    yields and rescaled yields both hold the per-pulse gains.
    """
    return _forecast_row(src, mu, mu_prime, overall_transmittance(ch), ch, None)


def _check_ordering(mu: float, mu_prime: float) -> None:
    if not 0 < mu < mu_prime:
        raise ValueError(
            f"intensities must satisfy 0 < mu < mu_prime, got mu={mu}, mu_prime={mu_prime}"
        )


def _forecast_row(src, mu, mu_prime, eta, ch, decoy) -> ObservedStatistics:
    """forecast at transmittance eta, from src.signal's triple decoy at mu unless None."""
    _check_ordering(mu, mu_prime)
    p_mu, ty_mu, e_mu = src.signal(FLOATS, mu, eta, ch) if decoy is None else decoy
    p_mu_prime, ty_mu_prime, e_mu_prime = src.signal(FLOATS, mu_prime, eta, ch)
    if p_mu == 0.0 or p_mu_prime == 0.0:
        raise ValueError("yield undefined: post-selection probability is zero")
    if ty_mu == 0.0 or ty_mu_prime == 0.0:
        raise ValueError("QBER undefined: forecast yield is zero")
    return ObservedStatistics(
        ch.d_b, ty_mu / p_mu, ty_mu_prime / p_mu_prime, ty_mu, ty_mu_prime, e_mu, e_mu_prime
    )


def forecast_observables(
    mu: float, mu_prime: float, eta_a: float, d_a: float, ch: ChannelParams
) -> ObservedStatistics:
    """forecast for a triggered source with trigger efficiency eta_a and dark counts d_a."""
    return forecast(triggered_source(eta_a, d_a), mu, mu_prime, ch)


def forecast_wcs_observables(mu: float, mu_prime: float, ch: ChannelParams) -> ObservedStatistics:
    """forecast for weak coherent pulses: y_* and ty_* both hold the gains."""
    return forecast(COHERENT, mu, mu_prime, ch)


def _rates_from_counts(c: IntensityCounts, label: str) -> tuple[float, float, float | None]:
    if c.pulses == 0:
        raise ValueError(f"no pulses recorded for the {label} intensity")
    if c.triggered == 0:
        raise ValueError(f"no triggered pulses for the {label} intensity")
    y = c.clicks / c.triggered
    ty = (c.triggered / c.pulses) * y
    if c.errors is None:
        return y, ty, None
    if c.clicks == 0:
        raise ValueError(f"error rate undefined: no clicks for the {label} intensity")
    return y, ty, c.errors / c.clicks


def statistics_from_counts(
    vacuum: IntensityCounts,
    decoy: IntensityCounts,
    signal: IntensityCounts,
) -> ObservedStatistics:
    """Build observed statistics from raw experiment tallies.

    Yields are clicks per triggered pulse; rescaled yields fold in the
    observed trigger fraction. QBERs are filled in only where error counts
    were recorded. Only these rates are kept, not the tallies.
    """
    y0, _, _ = _rates_from_counts(vacuum, "vacuum")
    y_mu, ty_mu, e_mu = _rates_from_counts(decoy, "decoy")
    y_mu_prime, ty_mu_prime, e_mu_prime = _rates_from_counts(signal, "signal")
    return ObservedStatistics(y0, y_mu, y_mu_prime, ty_mu, ty_mu_prime, e_mu, e_mu_prime)
