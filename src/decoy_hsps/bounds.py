"""Decoy-state security analytics for the 3-intensity protocol.

The centerpiece is the lower bound on the single-photon yield Y1 obtained
by eliminating the two-photon term between the rescaled-yield constraints
sum_n P_n(x) Y_n = tY_x of the two nonvacuum intensities. Each source
states its weights in the factored form P_n(x) = g(x) * k_n * u(x)^n
(.sources); write u = u(mu), v = u(mu'). Weighting the decoy constraint
by v^2/g(mu) and the signal constraint by u^2/g(mu') and subtracting gives
the n-photon yield the coefficient

    k_n * (v^2 u^n - u^2 v^n)

which is positive at n=1, cancels identically at n=2, and is negative for
every n >= 3 whenever v > u, as it is for mu' > mu: the triggered source
has g = 1/(1+x), u = x/(1+x) and k_n = 1 - (1-eta_a)^n, the
weak-coherent-state (WCS) source g = e^(-x), u = x and k_n = 1/n!.
Dropping the negative terms and solving for Y1 yields the bound

    Y1 = (v^2 tY_mu/g(mu) - u^2 tY_mu'/g(mu') - k0 Y0 (v^2 - u^2)) / (k1 u v (v - u))

for both sources. tests/oracles.py writes both coefficients out, so the
algebra itself is machine-checked.

From Y1 follow the single-photon fraction Delta1 = P1(mu') Y1 / tY_mu'
among the signal clicks, an upper bound on the single-photon QBER
(evaluated at the decoy intensity for tightness)

    e1 = (E_mu tY_mu/g(mu) - k0 e_0 Y0) / (k1 u Y1)

and the final secure key rate

    R = (tY' / 2) * { -f H2(E') + Delta1 [1 - H2(e1)] }

with the 1/2 accounting for basis sifting and f the error-correction
inefficiency. The bounds clamp into their valid ranges, flagging any
clamp, so distance sweeps can traverse the insecure region. compute_bounds
raises where no bound is defined: on a zero signal yield, since Delta1
divides by it, and on a NaN raw Y1. Without the QBER at the decoy
intensity it bounds Y1 and Delta1 and leaves e1 unset.

All of it is written once for both sources: a source object (.sources)
supplies only its weights (g, 1/g, k0, k1, u), and one text, run through
a numeric namespace xp, derives, clamps and rates the bounds for Python
floats (the scalar chain: .numerics.FLOATS) and numpy arrays (the mu'
search passes its ARRAYS; no numpy import here). The scalar bounds return
before dividing by a non-positive raw Y1; the array rates mask it with
where instead. _point_at runs the whole chain at one row of a search,
and _positive_at gives the sign of its rate for a cut-off's judgements.

SecurityBounds and KeyRatePoint are built once per evaluated point, so,
like ObservedStatistics, their own __init__ checks the arguments and
stores every field in one step instead of going through the generated
frozen __init__ and a __post_init__.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .channel import (
    DARK_COUNT_E_0, ChannelParams, _click_probability, _error_rate, overall_transmittance,
)
from .numerics import FLOATS, binary_entropy
from .observables import ObservedStatistics, _check_ordering, _forecast_row
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


# ---------------------------------------------------------------------------
# single-photon bounds

def _raw_y1(w_mu, w_mu_prime, y0, ty_mu, ty_mu_prime):
    """Unclamped Y1 bound from the decoy and signal constraints, at the source's weights there."""
    _, inv_g, k0, k1, u = w_mu
    _, inv_g_prime, _, _, v = w_mu_prime
    u2, v2 = u**2, v**2
    num = v2 * (ty_mu * inv_g) - u2 * (ty_mu_prime * inv_g_prime) - k0 * y0 * (v2 - u2)
    return num / (k1 * u * v * (v - u))


def _e1_mass(w_mu, e_mu, ty_mu, y0, e_0):
    """Error mass of the decoy constraint less the vacuum's, over g(mu): e1's numerator."""
    _, inv_g, k0, _, _ = w_mu
    return e_mu * ty_mu * inv_g - k0 * e_0 * y0


def _delta1(y1, w, ty):
    """Share P1 * y1 of the rescaled yield ty, at the weights w of its intensity; unclamped."""
    g, _, _, k1, v = w
    return y1 * k1 * v * g / ty


def _single_photon_bounds(xp, raw_y1, e1_mass, w_mu, w_mu_prime, ty_mu_prime):
    """Y1, Delta1 and e1 clamped into range, then the raw Delta1 and e1.

    Delta1 is the single-photon share at the signal intensity, where it
    enters the key rate; e1 is bounded from the error mass e1_mass at the
    decoy intensity, dividing by P1(mu) * Y1 / g(mu), so raw_y1 must be
    positive.
    """
    y1 = xp.minimum(raw_y1, 1.0)
    raw_d1 = _delta1(y1, w_mu_prime, ty_mu_prime)
    _, _, _, k1, u = w_mu
    raw_e1 = e1_mass / (y1 * k1 * u)
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
    w_mu, w_mu_prime = src.weights(FLOATS, mu), src.weights(FLOATS, mu_prime)
    # the elimination divides by v - u, which rounding can make 0 or negative
    # (x/(1+x) at huge intensities); no bound is defined there
    raw_y1 = (_raw_y1(w_mu, w_mu_prime, obs.y0, obs.ty_mu, obs.ty_mu_prime)
              if w_mu[4] < w_mu_prime[4] else math.nan)
    if not raw_y1 > 0.0:
        if math.isnan(raw_y1):  # or inf - inf once a coherent e^mu overflows; the clamp would say 0
            raise ValueError(f"Y1 bound undefined at mu={mu}, mu_prime={mu_prime}")
        return SecurityBounds(0.0, 0.0, None if obs.e_mu is None else 0.5, False)
    # a missing QBER gives a NaN error mass, so a NaN e1 that no clamp test flags
    e1_mass = math.nan if obs.e_mu is None else _e1_mass(w_mu, obs.e_mu, obs.ty_mu, obs.y0, e_0)
    y1, delta1, e1, raw_d1, raw_e1 = _single_photon_bounds(
        FLOATS, raw_y1, e1_mass, w_mu, w_mu_prime, obs.ty_mu_prime)
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

def _signal_terms(xp, ty, e, f):
    """The rate formula's terms of the signal alone: half = tY'/2 and ec = -f H2(E')."""
    return ty / 2.0, -f * xp.entropy(e)


def _rate_formula(half, ec, delta1, h_e1):
    """The rate formula R from _signal_terms, with the single-photon entropy h_e1 = H2(e1) already taken."""
    return half * (ec + delta1 * (1.0 - h_e1))


_NO_E1 = "the key rate needs an e1 bound, and e1 needs the QBER at the decoy intensity"
_NO_SIGNAL_QBER = "QBER at the signal intensity is required but missing"


def rate_and_feasibility(
    obs: ObservedStatistics, bounds: SecurityBounds, f_ec: float
) -> tuple[float, bool]:
    """Key rate clamped at 0, and whether the point is feasible.

    A point is feasible when no bound had to be clamped and the raw rate
    formula is not negative; sweeps, figures and the counts analysis all
    report this one flag.
    """
    if obs.e_mu_prime is None:
        raise ValueError(_NO_SIGNAL_QBER)
    if bounds.e1_upper is None:
        raise ValueError(_NO_E1)
    # _signal_terms written out: the counts path makes one call fewer
    half, ec = obs.ty_mu_prime / 2.0, -f_ec * binary_entropy(obs.e_mu_prime)
    raw = _rate_formula(half, ec, bounds.delta1, binary_entropy(bounds.e1_upper))
    return raw if raw > 0.0 else 0.0, bounds.feasible and raw >= 0.0


def key_rate(obs: ObservedStatistics, bounds: SecurityBounds, f: float = DEFAULT_F_EC) -> float:
    """Secure key rate per emitted signal pulse, clamped at 0."""
    if f < 1.0:
        raise ValueError(f"error-correction inefficiency f must be >= 1, got {f}")
    return rate_and_feasibility(obs, bounds, f)[0]


# The rate formula does not depend on the source.
key_rate_hsps = key_rate_wcs = key_rate


def _search_rate(xp, w_mu, w_mu_prime, y0, ty_mu, e1_mass, ty, half, ec):
    """The clamped key rate of compute_bounds and key_rate, on arrays of namespace xp.

    Rows hold the decoy columns ty_mu and e1_mass (each row's scalar
    values) and the source's signal yield ty, its _signal_terms half and
    ec and its weights w_mu_prime at mu', which broadcast against them; the
    weights w_mu, taken on floats, are floats or columns alike. Cells whose
    raw Y1 is not positive are masked to 0, so the caller decides what
    numpy does on them before the mask.
    """
    raw_y1 = _raw_y1(w_mu, w_mu_prime, y0, ty_mu, ty)
    _, delta1, e1, _, _ = _single_photon_bounds(xp, raw_y1, e1_mass, w_mu, w_mu_prime, ty)
    raw = _rate_formula(half, ec, delta1, xp.entropy(e1))
    return xp.where((raw_y1 > 0.0) & (raw > 0.0), raw, 0.0)


def _point_at(src, mu: float, mu_prime: float, eta: float, ch: ChannelParams, decoy, f: float):
    """(observables, bounds, rate, feasible) at overall transmittance eta: the one core of every reported point.

    decoy is src.signal's triple at mu, or None to compute it here.
    """
    obs = _forecast_row(src, mu, mu_prime, eta, ch, decoy)
    bounds = compute_bounds(src, obs, mu, mu_prime, ch.e_0)
    return (obs, bounds) + rate_and_feasibility(obs, bounds, f)


def _positive_at(src, mu: float, mu_prime: float, eta: float, ch: ChannelParams, decoy, f: float) -> bool:
    """Whether _point_at's rate is positive, without building its report objects.

    Where every bound is plainly defined (mu and mu' ordered, u < v, positive
    yields and post-selection probabilities, a positive raw Y1) this is
    _search_rate's text on floats, which gives _point_at's bits. Any other
    row goes through _point_at itself, so its value or error is the chain's.
    """
    p_mu, ty_mu, e_mu = decoy
    p, ty, e = src.signal(FLOATS, mu_prime, eta, ch)
    w_mu, w = src.weights(FLOATS, mu), src.weights(FLOATS, mu_prime)
    if (0.0 < mu < mu_prime and w_mu[4] < w[4] and p_mu and p and ty_mu and ty
            and _raw_y1(w_mu, w, ch.d_b, ty_mu, ty) > 0.0):
        e1_mass = _e1_mass(w_mu, e_mu, ty_mu, ch.d_b, ch.e_0)
        return _search_rate(FLOATS, w_mu, w, ch.d_b, ty_mu, e1_mass, ty, *_signal_terms(FLOATS, ty, e, f)) > 0.0
    return _point_at(src, mu, mu_prime, eta, ch, decoy, f)[2] > 0.0


# ---------------------------------------------------------------------------
# infinite-decoy benchmarks (exact single-photon knowledge)

def _exact_single_photon(ch: ChannelParams, eta: float) -> tuple[float, float]:
    """True single-photon yield and entropy of its error rate, capped at 1/2."""
    return _click_probability(1, ch, eta), binary_entropy(min(0.5, _error_rate(1, ch, eta)))


def _benchmark_rate(xp, w, ty, half, ec, y1, h_e1):
    """Rate formula at signal ty, its _signal_terms and weights w, with exact y1 and h_e1; clamped at 0."""
    delta1 = xp.minimum(_delta1(y1, w, ty), 1.0)
    raw = _rate_formula(half, ec, delta1, h_e1)
    return xp.where(raw > 0.0, raw, 0.0)


def _ideal_rate_at(src, mu_prime: float, eta: float, ch: ChannelParams, exact, f: float) -> float:
    """ideal_rate at overall transmittance eta, given _exact_single_photon's (Y1, H(e1)) there."""
    _, ty, e = src.signal(FLOATS, mu_prime, eta, ch)
    w = src.weights(FLOATS, mu_prime)
    return _benchmark_rate(FLOATS, w, ty, *_signal_terms(FLOATS, ty, e, f), *exact)


def ideal_rate(src, mu_prime: float, ch: ChannelParams, f: float = DEFAULT_F_EC) -> float:
    """Benchmark key rate of src with exactly known single-photon statistics."""
    eta = overall_transmittance(ch)
    return _ideal_rate_at(src, mu_prime, eta, ch, _exact_single_photon(ch, eta), f)
