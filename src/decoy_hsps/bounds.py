"""Decoy-state security analytics for the 3-intensity protocol.

The centerpiece is the lower bound on the single-photon yield Y1 obtained
by eliminating the two-photon term between the rescaled-yield constraints
of the two nonvacuum intensities. Write u = mu/(1+mu), v = mu'/(1+mu').
Weighting the decoy constraint by (1+mu)*v^2 and the signal constraint by
(1+mu')*u^2 and subtracting gives the n-photon yield the coefficient

    [1 - (1-eta_a)^n] * (v^2 u^n - u^2 v^n)

which is positive at n=1, cancels identically at n=2, and is negative for
every n >= 3 whenever mu' > mu. Dropping the negative terms and solving
for Y1 yields the bound; the same elimination applied to Poissonian
constraints gives the weak-coherent-state (WCS) bound. Both coefficient
functions are exported so the algebra itself is machine-checked in tests.

From Y1 follow the single-photon fraction among the signal clicks, an
upper bound on the single-photon QBER (evaluated at the decoy intensity
for tightness), and the final secure key rate

    R = (tY' / 2) * { -f H2(E') + Delta1 [1 - H2(e1)] }

with the 1/2 accounting for basis sifting and f the error-correction
inefficiency. All bounds clamp into their valid ranges rather than raise,
flagging any clamp, so distance sweeps can traverse the insecure region.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelParams, _click_probability, _error_rate, overall_transmittance
from .observables import ObservedStatistics, _coherent_terms, _triggered_terms
from .sources import HeraldedSourceParams

DEFAULT_F_EC = 1.2


@dataclass(frozen=True)
class SecurityBounds:
    """Certified single-photon bounds extracted from observed statistics.

    feasible is True only when no bound had to be clamped and a nonzero
    single-photon yield could be certified; an infeasible point still
    carries safe (clamped) values so sweeps can continue through it.
    """

    y1_lower: float
    delta1: float
    e1_upper: float
    feasible: bool

    def __post_init__(self):
        if not 0.0 <= self.y1_lower <= 1.0:
            raise ValueError(f"y1_lower must be in [0, 1], got {self.y1_lower}")
        if not 0.0 <= self.delta1 <= 1.0:
            raise ValueError(f"delta1 must be in [0, 1], got {self.delta1}")
        if not 0.0 <= self.e1_upper <= 0.5:
            raise ValueError(f"e1_upper must be in [0, 0.5], got {self.e1_upper}")


@dataclass(frozen=True)
class KeyRatePoint:
    """One distance sample of a key-rate sweep.

    ideal_rate is the infinite-decoy benchmark (exact single-photon
    knowledge) at the same distance, NaN when benchmarks were disabled.
    feasible mirrors the bounds' flag and additionally records whether the
    rate itself had to be clamped to zero.
    """

    distance_km: float
    mu: float
    mu_prime: float
    key_rate: float
    ideal_rate: float
    source_kind: str
    bounds: SecurityBounds
    observables: ObservedStatistics
    feasible: bool

    def __post_init__(self):
        if self.source_kind not in ("hsps", "wcs"):
            raise ValueError(f"source_kind must be 'hsps' or 'wcs', got {self.source_kind!r}")
        if self.key_rate < 0:
            raise ValueError(f"key_rate must be >= 0, got {self.key_rate}")
        if not math.isnan(self.ideal_rate) and self.key_rate > self.ideal_rate + 1e-12:
            raise ValueError(
                f"key_rate {self.key_rate} exceeds ideal benchmark {self.ideal_rate}"
            )


def binary_entropy(p: float) -> float:
    """Binary Shannon entropy in bits, with H(0) = H(1) = 0."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must be in [0, 1], got {p}")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def _check_ordering(mu: float, mu_prime: float):
    if not 0 < mu < mu_prime:
        raise ValueError(
            f"intensities must satisfy 0 < mu < mu_prime, got mu={mu}, mu_prime={mu_prime}"
        )


# ---------------------------------------------------------------------------
# forward constraint synthesis (test oracles)

def synthesize_observables_from_yields(
    yields, x: float, eta_a: float, d_a: float
) -> float:
    """Exact forward value of the rescaled-yield constraint at intensity x.

    yields[0] is the vacuum yield Y0, yields[n] the n-photon yield; the
    result is what an experiment governed by those yields would show as
    clicks per emitted pulse. This is the oracle the Y1 bound is tested
    against.
    """
    ys = np.asarray(yields, dtype=float)
    if ys.ndim != 1 or ys.size == 0:
        raise ValueError("yields must be a nonempty 1-D sequence")
    if np.any((ys < 0.0) | (ys > 1.0)):
        raise ValueError("every yield must lie in [0, 1]")
    if x < 0:
        raise ValueError(f"intensity x must be >= 0, got {x}")
    if not 0.0 <= eta_a <= 1.0:
        raise ValueError(f"eta_a must be in [0, 1], got {eta_a}")
    if not 0.0 <= d_a <= 1.0:
        raise ValueError(f"d_a must be in [0, 1], got {d_a}")
    total = float(ys[0]) * d_a / (1.0 + x)
    if ys.size > 1 and x > 0.0:
        n = np.arange(1, ys.size)
        a_n = (x / (1.0 + x)) ** n / (1.0 + x)
        trig = 1.0 - (1.0 - eta_a) ** n
        total += float(np.dot(ys[1:], trig * a_n))
    return total


def synthesize_wcs_gain_from_yields(yields, mu: float) -> float:
    """Exact forward value of the Poissonian gain constraint at intensity mu."""
    ys = np.asarray(yields, dtype=float)
    if ys.ndim != 1 or ys.size == 0:
        raise ValueError("yields must be a nonempty 1-D sequence")
    if np.any((ys < 0.0) | (ys > 1.0)):
        raise ValueError("every yield must lie in [0, 1]")
    if mu < 0:
        raise ValueError(f"intensity mu must be >= 0, got {mu}")
    if mu == 0.0:
        return float(ys[0])
    w = np.empty(ys.size)
    w[0] = math.exp(-mu)
    if ys.size > 1:
        w[1:] = w[0] * np.cumprod(mu / np.arange(1, ys.size))
    return float(np.dot(ys, w))


# ---------------------------------------------------------------------------
# elimination coefficients (the machine-checked derivation steps)

def hsps_elimination_coefficient(n: int, mu: float, mu_prime: float, eta_a: float) -> float:
    """Coefficient of the n-photon yield after the two-constraint elimination.

    Zero at n = 2 (the elimination is built to cancel it) and strictly
    negative for n >= 3 when mu' > mu, which is what makes dropping the
    multi-photon terms a valid lower bound.
    """
    if n < 1:
        raise ValueError(f"photon number n must be >= 1, got {n}")
    _check_ordering(mu, mu_prime)
    u = mu / (1.0 + mu)
    v = mu_prime / (1.0 + mu_prime)
    return (1.0 - (1.0 - eta_a) ** n) * (v * v * u**n - u * u * v**n)


def wcs_elimination_coefficient(n: int, mu: float, mu_prime: float) -> float:
    """Poissonian counterpart of hsps_elimination_coefficient."""
    if n < 1:
        raise ValueError(f"photon number n must be >= 1, got {n}")
    _check_ordering(mu, mu_prime)
    return (mu_prime**2 * mu**n - mu**2 * mu_prime**n) / math.factorial(n)


# ---------------------------------------------------------------------------
# single-photon bounds

def _y1_hsps_raw(
    y0: float, ty_mu: float, ty_mu_prime: float,
    mu: float, mu_prime: float, eta_a: float, d_a: float,
) -> float:
    up, down = mu_prime / mu, mu / mu_prime
    one_mu, one_mu_prime = 1.0 + mu, 1.0 + mu_prime
    lead = up * one_mu ** 3 * ty_mu - down * one_mu_prime ** 3 * ty_mu_prime
    vac = y0 * d_a * (up * one_mu ** 2 - down * one_mu_prime ** 2)
    return (lead - vac) / (eta_a * (mu_prime - mu))


def y1_lower_bound_hsps(
    obs: ObservedStatistics, mu: float, mu_prime: float, eta_a: float, d_a: float
) -> float:
    """Certified lower bound on the single-photon yield, clamped to [0, 1].

    A clamp at 0 means the observed statistics cannot certify any
    single-photon counts at all.
    """
    _check_ordering(mu, mu_prime)
    if eta_a <= 0:
        raise ValueError(f"eta_a must be > 0, got {eta_a}")
    raw = _y1_hsps_raw(obs.y0, obs.ty_mu, obs.ty_mu_prime, mu, mu_prime, eta_a, d_a)
    return min(1.0, max(0.0, raw))


def _y1_wcs_raw(
    y0: float, q_mu: float, q_mu_prime: float, mu: float, mu_prime: float
) -> float:
    c_mu = q_mu * math.exp(mu)
    try:
        c_mu_prime = q_mu_prime * math.exp(mu_prime)
    except OverflowError:  # mu' above ~709: the signal term swamps the bound
        c_mu_prime = math.inf
    num = mu_prime**2 * c_mu - mu**2 * c_mu_prime - y0 * (mu_prime**2 - mu**2)
    return num / (mu * mu_prime * (mu_prime - mu))


def y1_lower_bound_wcs(
    y0: float, q_mu: float, q_mu_prime: float, mu: float, mu_prime: float
) -> float:
    """Single-photon yield lower bound from two coherent-pulse gains."""
    _check_ordering(mu, mu_prime)
    return min(1.0, max(0.0, _y1_wcs_raw(y0, q_mu, q_mu_prime, mu, mu_prime)))


def single_photon_fraction(y1: float, x: float, ty_x: float, eta_a: float) -> float:
    """Fraction of the clicks at intensity x that came from single photons.

    ty_x is the rescaled yield (clicks per emitted pulse) at that
    intensity; the single-photon share of it is y1 * eta_a * x / (1+x)^2.
    Clamped to [0, 1].
    """
    if ty_x <= 0:
        raise ValueError(f"rescaled yield must be > 0, got {ty_x}")
    return min(1.0, max(0.0, y1 * eta_a * x / (ty_x * (1.0 + x) ** 2)))


def e1_upper_bound(
    y1: float, x: float, e_x: float, ty_x: float, y0: float,
    eta_a: float, d_a: float, e_0: float = 0.5,
) -> float:
    """Upper bound on the single-photon QBER, clamped to [0, 0.5].

    Subtracts the vacuum (dark-trigger) error mass from the observed error
    mass at intensity x and attributes everything left to the certified
    single photons; evaluating at the decoy intensity gives the tighter
    estimate.
    """
    if y1 <= 0:
        raise ValueError("no certified single-photon yield to bound the QBER of")
    if x <= 0 or eta_a <= 0:
        raise ValueError(f"x and eta_a must be > 0, got x={x}, eta_a={eta_a}")
    raw = ((1.0 + x) ** 2 * e_x * ty_x - (1.0 + x) * y0 * d_a * e_0) / (y1 * eta_a * x)
    return min(0.5, max(0.0, raw))


def compute_hsps_bounds(
    obs: ObservedStatistics,
    mu: float,
    mu_prime: float,
    eta_a: float,
    d_a: float,
    e_0: float = 0.5,
    e1_intensity: str = "mu",
) -> SecurityBounds:
    """Full bound bundle for a triggered-source run.

    The single-photon fraction is evaluated at the signal intensity (it
    enters the key-rate formula there); the QBER bound at the decoy
    intensity by default, with e1_intensity="mu_prime" as a diagnostic
    alternative.
    """
    if e1_intensity not in ("mu", "mu_prime"):
        raise ValueError(f"e1_intensity must be 'mu' or 'mu_prime', got {e1_intensity!r}")
    _check_ordering(mu, mu_prime)
    if eta_a <= 0:
        raise ValueError(f"eta_a must be > 0, got {eta_a}")
    raw_y1 = _y1_hsps_raw(obs.y0, obs.ty_mu, obs.ty_mu_prime, mu, mu_prime, eta_a, d_a)
    if raw_y1 <= 0.0:
        return SecurityBounds(y1_lower=0.0, delta1=0.0, e1_upper=0.5, feasible=False)
    feasible = True
    y1 = raw_y1
    if y1 > 1.0:
        y1 = 1.0
        feasible = False

    raw_d1 = y1 * eta_a * mu_prime / (obs.ty_mu_prime * (1.0 + mu_prime) ** 2)
    delta1 = raw_d1
    if delta1 > 1.0:
        delta1 = 1.0
        feasible = False

    if e1_intensity == "mu":
        x, e_x, ty_x = mu, obs.e_mu, obs.ty_mu
    else:
        x, e_x, ty_x = mu_prime, obs.e_mu_prime, obs.ty_mu_prime
    if e_x is None:
        raise ValueError(f"QBER at the {e1_intensity} intensity is required but missing")
    raw_e1 = ((1.0 + x) ** 2 * e_x * ty_x - (1.0 + x) * obs.y0 * d_a * e_0) / (
        y1 * eta_a * x
    )
    e1 = raw_e1
    if e1 > 0.5:
        e1 = 0.5
        feasible = False
    elif e1 < 0.0:
        e1 = 0.0
        feasible = False
    return SecurityBounds(y1_lower=y1, delta1=delta1, e1_upper=e1, feasible=feasible)


def wcs_single_photon_fraction(y1: float, mu_prime: float, q_mu_prime: float) -> float:
    """Single-photon share of the coherent-pulse gain, clamped to [0, 1]."""
    if q_mu_prime <= 0:
        raise ValueError(f"gain must be > 0, got {q_mu_prime}")
    return min(1.0, max(0.0, y1 * mu_prime * math.exp(-mu_prime) / q_mu_prime))


def wcs_e1_upper_bound(
    y1: float, mu: float, e_mu: float, q_mu: float, y0: float, e_0: float = 0.5
) -> float:
    """Coherent-pulse counterpart of e1_upper_bound, clamped to [0, 0.5]."""
    if y1 <= 0:
        raise ValueError("no certified single-photon yield to bound the QBER of")
    if mu <= 0:
        raise ValueError(f"mu must be > 0, got {mu}")
    raw = (e_mu * q_mu * math.exp(mu) - e_0 * y0) / (y1 * mu)
    return min(0.5, max(0.0, raw))


def compute_wcs_bounds(
    obs: ObservedStatistics, mu: float, mu_prime: float, e_0: float = 0.5
) -> SecurityBounds:
    """Full bound bundle for a weak-coherent-state run.

    obs follows the WCS convention: y_*/ty_* hold per-pulse gains.
    """
    _check_ordering(mu, mu_prime)
    raw_y1 = _y1_wcs_raw(obs.y0, obs.ty_mu, obs.ty_mu_prime, mu, mu_prime)
    if raw_y1 <= 0.0:
        return SecurityBounds(y1_lower=0.0, delta1=0.0, e1_upper=0.5, feasible=False)
    feasible = True
    y1 = raw_y1
    if y1 > 1.0:
        y1 = 1.0
        feasible = False

    raw_d1 = y1 * mu_prime * math.exp(-mu_prime) / obs.ty_mu_prime
    delta1 = raw_d1
    if delta1 > 1.0:
        delta1 = 1.0
        feasible = False

    if obs.e_mu is None:
        raise ValueError("QBER at the decoy intensity is required but missing")
    raw_e1 = (obs.e_mu * obs.ty_mu * math.exp(mu) - e_0 * obs.y0) / (y1 * mu)
    e1 = raw_e1
    if e1 > 0.5:
        e1 = 0.5
        feasible = False
    elif e1 < 0.0:
        e1 = 0.0
        feasible = False
    return SecurityBounds(y1_lower=y1, delta1=delta1, e1_upper=e1, feasible=feasible)


# ---------------------------------------------------------------------------
# key rates

def _rate_formula(weight: float, e_signal: float, delta1: float, e1: float, f: float) -> float:
    return weight / 2.0 * (-f * binary_entropy(e_signal) + delta1 * (1.0 - binary_entropy(e1)))


def key_rate_hsps(obs: ObservedStatistics, bounds: SecurityBounds, f: float = DEFAULT_F_EC) -> float:
    """Secure key rate per emitted signal pulse, clamped at 0."""
    if f < 1.0:
        raise ValueError(f"error-correction inefficiency f must be >= 1, got {f}")
    if obs.e_mu_prime is None:
        raise ValueError("QBER at the signal intensity is required but missing")
    return max(0.0, _rate_formula(obs.ty_mu_prime, obs.e_mu_prime, bounds.delta1, bounds.e1_upper, f))


def key_rate_wcs(obs: ObservedStatistics, bounds: SecurityBounds, f: float = DEFAULT_F_EC) -> float:
    """Coherent-pulse key rate per emitted signal pulse, clamped at 0."""
    if f < 1.0:
        raise ValueError(f"error-correction inefficiency f must be >= 1, got {f}")
    if obs.e_mu_prime is None:
        raise ValueError("QBER at the signal intensity is required but missing")
    return max(0.0, _rate_formula(obs.ty_mu_prime, obs.e_mu_prime, bounds.delta1, bounds.e1_upper, f))


# ---------------------------------------------------------------------------
# infinite-decoy benchmarks (exact single-photon knowledge)

def _ideal_hsps(
    mu_prime: float, eta_a: float, d_a: float, ch: ChannelParams
) -> tuple[float, float, float, float]:
    """Signal rescaled yield and QBER, exact Delta1 and exact e1 of the benchmark."""
    eta = overall_transmittance(ch)
    y1_true = _click_probability(1, ch, eta)
    HeraldedSourceParams(x=mu_prime, eta_a=eta_a, d_a=d_a)  # validates the source
    _, ty, e_signal = _triggered_terms(mu_prime, eta_a, d_a, ch, eta)
    if ty <= 0:
        raise ValueError("forecast rescaled yield is zero; benchmark undefined")
    delta1 = min(1.0, y1_true * eta_a * mu_prime / (ty * (1.0 + mu_prime) ** 2))
    return ty, e_signal, delta1, _error_rate(1, ch, eta)


def ideal_bounds_hsps(
    mu_prime: float, eta_a: float, d_a: float, ch: ChannelParams
) -> tuple[float, float]:
    """Exact single-photon fraction and QBER for the benchmark curve."""
    return _ideal_hsps(mu_prime, eta_a, d_a, ch)[2:]


def ideal_rate_hsps(
    mu_prime: float, eta_a: float, d_a: float, ch: ChannelParams, f: float = DEFAULT_F_EC
) -> float:
    """Benchmark key rate with exactly known single-photon statistics."""
    ty, e_signal, delta1, e1 = _ideal_hsps(mu_prime, eta_a, d_a, ch)
    return max(0.0, _rate_formula(ty, e_signal, delta1, min(0.5, e1), f))


def ideal_rate_wcs(mu_prime: float, ch: ChannelParams, f: float = DEFAULT_F_EC) -> float:
    """Coherent-pulse benchmark key rate with exact single-photon knowledge."""
    eta = overall_transmittance(ch)
    y1_true = _click_probability(1, ch, eta)
    q, e_signal = _coherent_terms(mu_prime, ch, eta)
    if q <= 0:
        raise ValueError("forecast gain is zero; benchmark undefined")
    delta1 = min(1.0, y1_true * mu_prime * math.exp(-mu_prime) / q)
    e1 = _error_rate(1, ch, eta)
    return max(0.0, _rate_formula(q, e_signal, delta1, min(0.5, e1), f))
