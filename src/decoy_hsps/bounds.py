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
inefficiency. The bounds clamp into their valid ranges, flagging any
clamp, so distance sweeps can traverse the insecure region. compute_bounds
raises where no bound is defined: on a zero signal yield, since Delta1
divides by it, and on a NaN raw Y1. Without the QBER at the decoy
intensity it bounds Y1 and Delta1 and leaves e1 unset.

All of it is written once for both sources: a source object (.sources)
supplies raw Y1, the single-photon share and the e1 error mass with its
normaliser, and one text, run through a numeric namespace (.numerics),
clamps and rates them for Python floats (the scalar chain) and numpy
arrays (the mu' search). The scalar bounds return before dividing by a
non-positive raw Y1; the array rates mask it with where instead.

SecurityBounds and KeyRatePoint are built once per evaluated point, so,
like ObservedStatistics, their own __init__ checks the arguments and
stores every field in one step instead of going through the generated
frozen __init__ and a __post_init__.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import (
    DARK_COUNT_E_0, ChannelParams, _click_probability, _error_rate, overall_transmittance,
)
from .numerics import ARRAYS, FLOATS, binary_entropy
from .observables import ObservedStatistics
from .sources import COHERENT, triggered_source

DEFAULT_F_EC = 1.2


@dataclass(frozen=True)
class SecurityBounds:
    """Certified single-photon bounds extracted from observed statistics.

    feasible is True only when no bound had to be clamped and a nonzero
    single-photon yield could be certified; an infeasible point still
    carries safe (clamped) values so sweeps can continue through it.
    e1_upper is None when the QBER at the decoy intensity was not observed.
    """

    y1_lower: float
    delta1: float
    e1_upper: float | None
    feasible: bool

    def __init__(self, y1_lower: float, delta1: float, e1_upper: float | None, feasible: bool):
        if not 0.0 <= y1_lower <= 1.0:
            raise ValueError(f"y1_lower must be in [0, 1], got {y1_lower}")
        if not 0.0 <= delta1 <= 1.0:
            raise ValueError(f"delta1 must be in [0, 1], got {delta1}")
        if e1_upper is not None and not 0.0 <= e1_upper <= 0.5:
            raise ValueError(f"e1_upper must be in [0, 0.5], got {e1_upper}")
        self.__dict__.update(y1_lower=y1_lower, delta1=delta1, e1_upper=e1_upper, feasible=feasible)


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

    def __init__(
        self,
        distance_km: float,
        mu: float,
        mu_prime: float,
        key_rate: float,
        ideal_rate: float,
        source_kind: str,
        bounds: SecurityBounds,
        observables: ObservedStatistics,
        feasible: bool,
    ):
        if source_kind not in ("hsps", "wcs"):
            raise ValueError(f"source_kind must be 'hsps' or 'wcs', got {source_kind!r}")
        if not key_rate >= 0.0:
            raise ValueError(f"key_rate must be >= 0, got {key_rate}")
        # a NaN ideal_rate (benchmarks disabled) bounds nothing
        if key_rate > ideal_rate + 1e-12:
            raise ValueError(f"key_rate {key_rate} exceeds ideal benchmark {ideal_rate}")
        self.__dict__.update(
            distance_km=distance_km, mu=mu, mu_prime=mu_prime, key_rate=key_rate,
            ideal_rate=ideal_rate, source_kind=source_kind, bounds=bounds,
            observables=observables, feasible=feasible,
        )


def _check_ordering(mu: float, mu_prime: float):
    if not 0 < mu < mu_prime:
        raise ValueError(
            f"intensities must satisfy 0 < mu < mu_prime, got mu={mu}, mu_prime={mu_prime}"
        )


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

def _single_photon_bounds(xp, src, raw_y1, e1_mass, mu, mu_prime, ty_mu_prime):
    """Y1, Delta1 and e1 clamped into range, then the raw Delta1 and e1.

    Delta1 is the single-photon share at the signal intensity, where it
    enters the key rate; e1 is bounded from the error mass e1_mass at the
    decoy intensity, dividing by Y1, so raw_y1 must be positive.
    """
    y1 = xp.minimum(raw_y1, 1.0)
    raw_d1 = src.single_photon(xp, y1, mu_prime, ty_mu_prime)
    raw_e1 = e1_mass / src.e1_norm(y1, mu)
    return y1, xp.minimum(raw_d1, 1.0), xp.clip(raw_e1, 0.0, 0.5), raw_d1, raw_e1


def compute_bounds(
    src, obs: ObservedStatistics, mu: float, mu_prime: float, e_0: float = DARK_COUNT_E_0
) -> SecurityBounds:
    """Full bound bundle of a run of source src.

    feasible is False when raw Y1 is not positive or any bound had to be
    clamped. Without the QBER at the decoy intensity (obs.e_mu None),
    e1_upper is None and feasible judges Y1 and Delta1 alone.
    """
    _check_ordering(mu, mu_prime)
    if not obs.ty_mu_prime > 0.0:  # Delta1 divides by it
        raise ValueError(f"no clicks at the signal intensity mu_prime={mu_prime}; "
                         "the bounds need a positive signal yield")
    raw_y1 = src.y1_raw(FLOATS, obs.y0, obs.ty_mu, obs.ty_mu_prime, mu, mu_prime)
    if not raw_y1 > 0.0:
        if math.isnan(raw_y1):  # inf - inf once a coherent e^mu overflows; the clamp would say 0
            raise ValueError(f"Y1 bound undefined at mu={mu}, mu_prime={mu_prime}")
        return SecurityBounds(0.0, 0.0, None if obs.e_mu is None else 0.5, False)
    # a missing QBER gives a NaN error mass, so a NaN e1 that no clamp test flags
    e1_mass = (math.nan if obs.e_mu is None
               else src.e1_mass(FLOATS, mu, obs.e_mu, obs.ty_mu, obs.y0, e_0))
    y1, delta1, e1, raw_d1, raw_e1 = _single_photon_bounds(
        FLOATS, src, raw_y1, e1_mass, mu, mu_prime, obs.ty_mu_prime)
    feasible = not (raw_y1 > 1.0 or raw_d1 > 1.0 or raw_e1 > 0.5 or raw_e1 < 0.0)
    return SecurityBounds(y1, delta1, None if obs.e_mu is None else e1, feasible)


def compute_hsps_bounds(
    obs: ObservedStatistics, mu: float, mu_prime: float, eta_a: float, d_a: float,
    e_0: float = DARK_COUNT_E_0,
) -> SecurityBounds:
    """compute_bounds for a triggered-source run."""
    return compute_bounds(triggered_source(eta_a, d_a), obs, mu, mu_prime, e_0)


def compute_wcs_bounds(
    obs: ObservedStatistics, mu: float, mu_prime: float, e_0: float = DARK_COUNT_E_0
) -> SecurityBounds:
    """compute_bounds for a weak-coherent-state run; y_*/ty_* hold per-pulse gains."""
    return compute_bounds(COHERENT, obs, mu, mu_prime, e_0)


# ---------------------------------------------------------------------------
# key rates

def _rate_formula(xp, weight, e_signal, delta1, h_e1, f):
    """The rate formula R, with the single-photon entropy h_e1 = H2(e1) already taken."""
    return weight / 2.0 * (-f * xp.entropy(e_signal) + delta1 * (1.0 - h_e1))


_NO_E1 = "the key rate needs an e1 bound, and e1 needs the QBER at the decoy intensity"
_NO_SIGNAL_QBER = "QBER at the signal intensity is required but missing"


def key_rate(obs: ObservedStatistics, bounds: SecurityBounds, f: float = DEFAULT_F_EC) -> float:
    """Secure key rate per emitted signal pulse, clamped at 0."""
    if f < 1.0:
        raise ValueError(f"error-correction inefficiency f must be >= 1, got {f}")
    if obs.e_mu_prime is None:
        raise ValueError(_NO_SIGNAL_QBER)
    if bounds.e1_upper is None:
        raise ValueError(_NO_E1)
    raw = _rate_formula(FLOATS, obs.ty_mu_prime, obs.e_mu_prime, bounds.delta1,
                        binary_entropy(bounds.e1_upper), f)
    return raw if raw > 0.0 else 0.0


# The rate formula does not depend on the source.
key_rate_hsps = key_rate_wcs = key_rate


def _search_rate(src, y0, ty_mu, e1_mass, mu, mu_prime, ty, e, f):
    """The clamped key rate of compute_bounds and key_rate, on numpy arrays.

    Rows hold the decoy columns ty_mu and e1_mass (each row's scalar
    values) and src.signal's yield ty and QBER e at mu_prime, which
    broadcasts against them. Cells whose raw Y1 is not positive are masked
    to 0, so the caller decides what numpy does on them before the mask.
    """
    raw_y1 = src.y1_raw(ARRAYS, y0, ty_mu, ty, mu, mu_prime)
    _, delta1, e1, _, _ = _single_photon_bounds(ARRAYS, src, raw_y1, e1_mass, mu, mu_prime, ty)
    raw = _rate_formula(ARRAYS, ty, e, delta1, ARRAYS.entropy(e1), f)
    return np.where((raw_y1 > 0.0) & (raw > 0.0), raw, 0.0)


# ---------------------------------------------------------------------------
# infinite-decoy benchmarks (exact single-photon knowledge)

def _exact_single_photon(ch: ChannelParams, eta: float) -> tuple[float, float]:
    """True single-photon yield and entropy of its error rate, capped at 1/2."""
    return _click_probability(1, ch, eta), binary_entropy(min(0.5, _error_rate(1, ch, eta)))


def _benchmark_rate(xp, src, mu_prime, ty, e, y1, h_e1, f):
    """Rate formula at src.signal's ty and e with the exact y1 and h_e1, clamped at 0."""
    delta1 = xp.minimum(src.single_photon(xp, y1, mu_prime, ty), 1.0)
    raw = _rate_formula(xp, ty, e, delta1, h_e1, f)
    return xp.where(raw > 0.0, raw, 0.0)


def ideal_rate(src, mu_prime: float, ch: ChannelParams, f: float = DEFAULT_F_EC) -> float:
    """Benchmark key rate of src with exactly known single-photon statistics."""
    eta = overall_transmittance(ch)
    y1, h_e1 = _exact_single_photon(ch, eta)
    _, ty, e = src.signal(FLOATS, mu_prime, eta, ch)
    return _benchmark_rate(FLOATS, src, mu_prime, ty, e, y1, h_e1, f)
