"""No-eavesdropper forecast of the statistics an experiment would observe.

Yields and QBERs for triggered heralded pulses and for weak coherent
pulses, per emitted or per triggered pulse, as functions of source and
channel parameters. Closed forms are the production path; each has a
truncated-series twin used as an independent oracle in tests.

Conventions:
  Y_x   yield: click probability per *triggered* pulse of intensity x.
  tY_x  rescaled yield: clicks per *emitted* pulse, tY_x = Y_x * P_post(x).
  E_x   QBER of the clicks produced by triggered pulses of intensity x.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelParams, overall_transmittance
from .sources import (
    SERIES_MAX_TERMS,
    SERIES_TAIL_TOL,
    HeraldedSourceParams,
    at_least_one_probability,
    post_selection_probability,
    poisson_weight,
    thermal_weight,
)


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
    counts: tuple[IntensityCounts, ...] | None = None

    def __post_init__(self):
        for name in ("y0", "y_mu", "y_mu_prime", "ty_mu", "ty_mu_prime"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        for name in ("e_mu", "e_mu_prime"):
            v = getattr(self, name)
            if v is not None and not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")


def _coincidence_sum(x: float, eta_a: float, eta: float) -> float:
    """Closed form of sum_n a_n(x) [1-(1-eta_a)^n] [1-(1-eta)^n].

    Expanding the product gives four geometric sums over the thermal
    weights a_n(x); combining them over common denominators factors the
    overall transmittance out analytically, so the both-detectors-click
    mass stays fully accurate (and exactly zero) as eta -> 0.
    """
    p = 1.0 - eta_a
    x_eta = x * eta
    return x_eta * (
        1.0 / (1.0 + x_eta)
        - p / ((1.0 + x * eta_a) * (1.0 + x * (1.0 - p * (1.0 - eta))))
    )


def _coincidence_series(x, eta_a, eta, tol=SERIES_TAIL_TOL, max_terms=SERIES_MAX_TERMS):
    if x == 0.0:
        return 0.0
    r = x / (1.0 + x)
    total = 0.0
    for n in range(1, max_terms + 1):
        a_n = thermal_weight(n, x)
        total += a_n * at_least_one_probability(eta_a, n) * at_least_one_probability(eta, n)
        if r ** (n + 1) < tol:  # exact thermal tail: sum_{m>n} a_m = r^(n+1)
            break
    return total


def _triggered_terms(x, eta_a: float, d_a: float, ch: ChannelParams, eta):
    """P_post, rescaled yield and QBER of triggered pulses of intensity x.

    eta is the channel's overall transmittance, computed once by the caller.
    The additive dark-count yield is capped at P_post, so the yield per
    triggered pulse stays a probability, as _coherent_terms caps the
    coherent gain; the QBER is the error share of the uncapped yield, NaN
    when no click can occur. x and eta may also be broadcasting numpy
    arrays; the caller then decides what numpy does on a zero yield.
    """
    coincidences = _coincidence_sum(x, eta_a, eta)
    one_x = 1.0 + x
    x_a = x * eta_a
    one_xa = 1.0 + x_a
    ty = d_a * ch.d_b / one_x + ch.d_b * eta_a * x / one_xa + coincidences
    p_post = d_a / one_x + x_a / one_xa
    err = ch.e_0 * ch.d_b * p_post + ch.e_d * coincidences
    if isinstance(ty, np.ndarray):
        return p_post, np.minimum(ty, p_post), err / ty
    return p_post, min(ty, p_post), err / ty if ty else math.nan


def simulate_rescaled_yield(src: HeraldedSourceParams, ch: ChannelParams) -> float:
    """Forecast clicks per emitted pulse of intensity x (no eavesdropper).

    Composed of double-dark coincidences, dark counts on triggered
    nonvacuum pulses, and genuine photon coincidences, capped at P_post(x)
    (one click per triggered pulse).
    """
    return _triggered_terms(src.x, src.eta_a, src.d_a, ch, overall_transmittance(ch))[1]


def simulate_rescaled_yield_series(
    src: HeraldedSourceParams, ch: ChannelParams, max_terms: int = SERIES_MAX_TERMS
) -> float:
    """Term-by-term oracle for simulate_rescaled_yield."""
    x = src.x
    eta = overall_transmittance(ch)
    total = src.d_a * ch.d_b / (1.0 + x)
    if x == 0.0:
        return total
    r = x / (1.0 + x)
    for n in range(1, max_terms + 1):
        a_n = thermal_weight(n, x)
        trig = at_least_one_probability(src.eta_a, n)
        click = ch.d_b + at_least_one_probability(eta, n)
        total += a_n * trig * click
        if (1.0 + ch.d_b) * r ** (n + 1) < SERIES_TAIL_TOL:
            break
    return total


def simulate_yield(src: HeraldedSourceParams, ch: ChannelParams) -> float:
    """Forecast clicks per triggered pulse of intensity x."""
    p_post, ty, _ = _triggered_terms(src.x, src.eta_a, src.d_a, ch, overall_transmittance(ch))
    if p_post == 0.0:
        raise ValueError("yield undefined: post-selection probability is zero")
    return ty / p_post


def simulate_qber(src: HeraldedSourceParams, ch: ChannelParams) -> float:
    """Forecast QBER of triggered pulses of intensity x.

    Error mass is e_0 per dark-count click plus e_d per photon click;
    summing the per-photon-number error model term by term collapses to
    e_0*d_b*P_post + e_d*S over the total rescaled yield.
    """
    _, ty, qber = _triggered_terms(src.x, src.eta_a, src.d_a, ch, overall_transmittance(ch))
    if ty == 0.0:
        raise ValueError("QBER undefined: forecast yield is zero")
    return qber


def simulate_qber_series(
    src: HeraldedSourceParams, ch: ChannelParams, max_terms: int = SERIES_MAX_TERMS
) -> float:
    """Term-by-term oracle for simulate_qber."""
    ty = simulate_rescaled_yield_series(src, ch, max_terms)
    if ty == 0.0:
        raise ValueError("QBER undefined: forecast yield is zero")
    eta = overall_transmittance(ch)
    p_post = post_selection_probability(src)
    err = ch.e_0 * ch.d_b * p_post
    err += ch.e_d * _coincidence_series(src.x, src.eta_a, eta, max_terms=max_terms)
    return err / ty


def _coherent_terms(mu: float, ch: ChannelParams, eta: float) -> tuple[float, float]:
    """Gain and QBER of weak coherent pulses of intensity mu.

    eta is the channel's overall transmittance, computed once by the
    caller. The additive dark-count gain d_b + 1 - e^(-eta*mu) is capped at
    1, as n_photon_click_probability caps it, so it stays a probability;
    the QBER is the error share of the uncapped gain, NaN when no click
    can occur.
    """
    if mu < 0:
        raise ValueError(f"intensity mu must be >= 0, got {mu}")
    lost = math.expm1(-eta * mu)
    q = ch.d_b - lost
    qber = (ch.e_0 * ch.d_b - ch.e_d * lost) / q if q else math.nan
    return min(1.0, q), qber


def simulate_wcs_gain(mu: float, ch: ChannelParams) -> float:
    """Forecast per-pulse gain of a weak coherent pulse: d_b + 1 - e^(-eta*mu), at most 1."""
    return _coherent_terms(mu, ch, overall_transmittance(ch))[0]


def simulate_wcs_gain_series(
    mu: float, ch: ChannelParams, max_terms: int = SERIES_MAX_TERMS
) -> float:
    """Poisson-series oracle for simulate_wcs_gain."""
    if mu < 0:
        raise ValueError(f"intensity mu must be >= 0, got {mu}")
    eta = overall_transmittance(ch)
    total = poisson_weight(0, mu) * ch.d_b
    for n in range(1, max_terms + 1):
        w = poisson_weight(n, mu)
        total += w * (ch.d_b + at_least_one_probability(eta, n))
        if n > mu and w * (1.0 + ch.d_b) / (1.0 - mu / (n + 1.0)) < SERIES_TAIL_TOL:
            break
    return total


def simulate_wcs_qber(mu: float, ch: ChannelParams) -> float:
    """Forecast QBER of weak coherent pulses of intensity mu."""
    q, qber = _coherent_terms(mu, ch, overall_transmittance(ch))
    if q == 0.0:
        raise ValueError("QBER undefined: forecast gain is zero")
    return qber


def simulate_wcs_qber_series(
    mu: float, ch: ChannelParams, max_terms: int = SERIES_MAX_TERMS
) -> float:
    """Poisson-series oracle for simulate_wcs_qber."""
    q = simulate_wcs_gain_series(mu, ch, max_terms)
    if q == 0.0:
        raise ValueError("QBER undefined: forecast gain is zero")
    eta = overall_transmittance(ch)
    err = poisson_weight(0, mu) * ch.e_0 * ch.d_b
    for n in range(1, max_terms + 1):
        w = poisson_weight(n, mu)
        err += w * (ch.e_0 * ch.d_b + ch.e_d * at_least_one_probability(eta, n))
        if n > mu and w / (1.0 - mu / (n + 1.0)) < SERIES_TAIL_TOL:
            break
    return err / q


def forecast_observables(
    mu: float,
    mu_prime: float,
    eta_a: float,
    d_a: float,
    ch: ChannelParams,
) -> ObservedStatistics:
    """Bundle the full no-eavesdropper forecast for a 3-intensity run.

    Vacuum pulses click only through the receiver's dark counts, so the
    vacuum yield is d_b exactly.
    """
    if not 0 < mu < mu_prime:
        raise ValueError(f"intensities must satisfy 0 < mu < mu_prime, got {mu}, {mu_prime}")
    HeraldedSourceParams(x=mu_prime, eta_a=eta_a, d_a=d_a)  # validates eta_a and d_a
    eta = overall_transmittance(ch)
    p_mu, ty_mu, e_mu = _triggered_terms(mu, eta_a, d_a, ch, eta)
    p_mu_prime, ty_mu_prime, e_mu_prime = _triggered_terms(mu_prime, eta_a, d_a, ch, eta)
    if p_mu == 0.0 or p_mu_prime == 0.0:
        raise ValueError("yield undefined: post-selection probability is zero")
    if ty_mu == 0.0 or ty_mu_prime == 0.0:
        raise ValueError("QBER undefined: forecast yield is zero")
    return ObservedStatistics(
        y0=ch.d_b,
        y_mu=ty_mu / p_mu,
        y_mu_prime=ty_mu_prime / p_mu_prime,
        ty_mu=ty_mu,
        ty_mu_prime=ty_mu_prime,
        e_mu=e_mu,
        e_mu_prime=e_mu_prime,
    )


def forecast_wcs_observables(mu: float, mu_prime: float, ch: ChannelParams) -> ObservedStatistics:
    """Weak-coherent-state counterpart of forecast_observables.

    Gains are per emitted pulse already, so yields and rescaled yields
    coincide (P_post = 1 convention).
    """
    if not 0 < mu < mu_prime:
        raise ValueError(f"intensities must satisfy 0 < mu < mu_prime, got {mu}, {mu_prime}")
    eta = overall_transmittance(ch)
    q_mu, e_mu = _coherent_terms(mu, ch, eta)
    q_mu_prime, e_mu_prime = _coherent_terms(mu_prime, ch, eta)
    if q_mu == 0.0 or q_mu_prime == 0.0:
        raise ValueError("QBER undefined: forecast gain is zero")
    return ObservedStatistics(
        y0=ch.d_b,
        y_mu=q_mu,
        y_mu_prime=q_mu_prime,
        ty_mu=q_mu,
        ty_mu_prime=q_mu_prime,
        e_mu=e_mu,
        e_mu_prime=e_mu_prime,
    )


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
    were recorded.
    """
    y0, _, _ = _rates_from_counts(vacuum, "vacuum")
    y_mu, ty_mu, e_mu = _rates_from_counts(decoy, "decoy")
    y_mu_prime, ty_mu_prime, e_mu_prime = _rates_from_counts(signal, "signal")
    return ObservedStatistics(
        y0=y0,
        y_mu=y_mu,
        y_mu_prime=y_mu_prime,
        ty_mu=ty_mu,
        ty_mu_prime=ty_mu_prime,
        e_mu=e_mu,
        e_mu_prime=e_mu_prime,
        counts=(vacuum, decoy, signal),
    )
