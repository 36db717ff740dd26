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
divides by it, and on a raw Y1 that is NaN, overflows or divides by an
underflowed zero. Without the QBER at the decoy intensity it bounds Y1 and
Delta1 and leaves e1 unset.

All of it is written once for both sources: a source object (.sources)
supplies only its weights (g, 1/g, k0, k1, u), and one text, run through
a numeric namespace xp, derives, clamps and rates the bounds for Python
floats (the scalar chain: .numerics.FLOATS) and numpy arrays (the mu'
search passes ARRAYS, a sweep's report EXACT on plain arrays; no numpy
import here). The elimination squares v with xp.square: Python's ** on
FLOATS, which raises on overflow, numpy's on ARRAYS, and Python's,
saturating at inf, on EXACT. u^2 at the decoy intensity is always
Python's, taken on floats, so a search of several decoy intensities at
once rates each as alone. The exact single-photon terms of the ideal
benchmark run on a namespace too, so a sweep takes them for every
distance in one EXACT call.
A raw Y1 that is not positive certifies nothing: compute_bounds returns
zero bounds before dividing by it, and on arrays Y1 clamps to 0 there, so
no rate is positive.

Each judgement of a point is written once as well: the clamp test, with
the clamps in _single_photon_bounds; the rate formula with its clamp at 0
and its feasibility, _rate, split from its terms of the signal alone
(_rate_terms: tY'/2 and -f H2(E'), which a search takes once for a source's
bounded and ideal rows); and the plain-case test of _row, which derives
one row of the chain from its signal terms. Where a row is plain, every
bound is plainly defined and _row's values have the chain's bits.
compute_bounds and rate_and_feasibility apply the tests on floats, after
the chain's refusals; _search_rate and _benchmark_rate rate the search's
arrays and skip the flags; _positive_at runs _row on floats to judge a
cut-off's rows, and a sweep reports its points from _row run on EXACT. A
row that is not plain goes through _point_at, the whole chain at one row,
so its values and errors are the chain's.

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

def _raw_y1(xp, w_mu, u2, w_mu_prime, y0, ty_mu, ty_mu_prime):
    """Unclamped Y1 bound from the decoy and signal constraints, at the source's weights there.

    u, taken at mu on floats, and u2, its square by Python's **, are floats
    or a joined search's columns of them, so a joined row has a lone row's
    bits; v is of namespace xp, which squares it.
    """
    _, inv_g, k0, k1, u = w_mu
    _, inv_g_prime, _, _, v = w_mu_prime
    v2 = xp.square(v)
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


def _single_photon_bounds(xp, raw_y1, e1_mass, w_mu, w_mu_prime, ty_mu_prime, judge=True):
    """Y1, Delta1 and e1 clamped into range, the raw e1, and the clamp test (None unless judge).

    Delta1 is the single-photon share at the signal intensity, where it
    enters the key rate; e1 is bounded from the error mass e1_mass at the
    decoy intensity, dividing by P1(mu) * Y1 / g(mu), so only a positive
    raw_y1 bounds e1. A raw_y1 that is not positive certifies no single
    photons: Y1 and Delta1 are 0 there, so no rate is positive. The clamp
    test holds where no bound needed its clamp; a bound that did makes the
    point infeasible. A NaN fails it, so a missing QBER enters as a zero
    error mass. A search reads no flag and passes judge False. k1, the same
    at every intensity (.sources), is read at mu' for both bounds.
    """
    y1 = xp.clip(raw_y1, 0.0, 1.0)
    g, _, _, k1, v = w_mu_prime
    y1_k1 = y1 * k1
    raw_d1 = y1_k1 * v * g / ty_mu_prime  # _delta1's, with Y1 * k1 formed once
    raw_e1 = e1_mass / (y1_k1 * w_mu[4])
    unclamped = (raw_y1 <= 1.0) & (raw_d1 <= 1.0) & (0.0 <= raw_e1) & (raw_e1 <= 0.5) if judge else None
    return y1, xp.minimum(raw_d1, 1.0), xp.clip(raw_e1, 0.0, 0.5), raw_e1, unclamped


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
    # (x/(1+x) at huge intensities); v**2 overflows at huge coherent
    # intensities, and k1 u v (v - u) underflows to 0 at vanishing ones. No
    # bound is defined there
    try:
        raw_y1 = (_raw_y1(FLOATS, w_mu, w_mu[4] ** 2, w_mu_prime, obs.y0, obs.ty_mu, obs.ty_mu_prime)
                  if w_mu[4] < w_mu_prime[4] else math.nan)
    except ArithmeticError:
        raw_y1 = math.nan
    if not raw_y1 > 0.0:
        if math.isnan(raw_y1):  # or inf - inf once a coherent e^mu overflows; the clamp would say 0
            raise ValueError(f"Y1 bound undefined at mu={mu}, mu_prime={mu_prime}")
        return SecurityBounds(0.0, 0.0, None if obs.e_mu is None else 0.5, False)
    e1_mass = 0.0 if obs.e_mu is None else _e1_mass(w_mu, obs.e_mu, obs.ty_mu, obs.y0, e_0)
    y1, delta1, e1, _, feasible = _single_photon_bounds(FLOATS, raw_y1, e1_mass, w_mu, w_mu_prime, obs.ty_mu_prime)
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

def _rate_terms(ty, h_e, f):
    """The rate formula's terms of the signal alone, tY'/2 and -f H2(E'), from tY' = ty and H2(E') = h_e.

    Every job at a signal intensity shares them, so a search takes them once
    for a source's bounded and ideal rows at a mu'.
    """
    return ty / 2.0, -f * h_e


def _rate(xp, terms, delta1, h_e1, feasible=None):
    """The rate formula R at the signal's _rate_terms clamped at 0, and whether the point stays feasible.

    R = tY'/2 * (-f H2(E') + Delta1 (1 - H2(e1))), with h_e1 = H2(e1) already
    taken; Python evaluates R in that grouping, so taking the signal's terms
    apart keeps its bits. xp.positive clamps it, a NaN R at 0. Given the
    bounds' flag feasible, the point stays feasible where it holds and
    R >= 0; a search, which reads only the rate, passes none and gets None.
    """
    half_ty, leak = terms
    raw = half_ty * (leak + delta1 * (1.0 - h_e1))
    return xp.positive(raw), None if feasible is None else feasible & (raw >= 0.0)


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
    terms = _rate_terms(obs.ty_mu_prime, binary_entropy(obs.e_mu_prime), f_ec)
    return _rate(FLOATS, terms, bounds.delta1, binary_entropy(bounds.e1_upper), bounds.feasible)


def key_rate(obs: ObservedStatistics, bounds: SecurityBounds, f: float = DEFAULT_F_EC) -> float:
    """Secure key rate per emitted signal pulse, clamped at 0."""
    if f < 1.0:
        raise ValueError(f"error-correction inefficiency f must be >= 1, got {f}")
    return rate_and_feasibility(obs, bounds, f)[0]


# The rate formula does not depend on the source.
key_rate_hsps = key_rate_wcs = key_rate


def _search_rate(xp, w_mu, u2, w_mu_prime, y0, ty_mu, e1_mass, ty, terms):
    """The clamped key rate of compute_bounds and key_rate, on arrays of namespace xp.

    Rows hold the decoy columns ty_mu and e1_mass (each row's scalar
    values) and the source's signal yield ty, its _rate_terms and its
    weights w_mu_prime at mu', which broadcast against them; the weights
    w_mu and u2 (_raw_y1's), taken on floats, are floats or columns alike.
    A cell whose raw Y1 is not positive rates 0, as compute_bounds' zero
    bounds do, so the caller decides what numpy does on it.
    """
    raw_y1 = _raw_y1(xp, w_mu, u2, w_mu_prime, y0, ty_mu, ty)
    _, delta1, e1, _, _ = _single_photon_bounds(xp, raw_y1, e1_mass, w_mu, w_mu_prime, ty, judge=False)
    return _rate(xp, terms, delta1, xp.entropy(e1))[0]


def _signal_at(xp, src, x, eta, ch):
    """src.signal's (P_post, tY, E) at intensity x, whether tY > 0 and E lies in [0, 1], and H2(E).

    Where that test fails, the scalar chain refuses the signal; on floats
    the entropy of an E outside [0, 1] raises first.
    """
    p, ty, e = src.signal(xp, x, eta, ch)
    return p, ty, e, (ty > 0.0) & (0.0 <= e) & (e <= 1.0), xp.entropy(e)


def _row(xp, src, mu: float, mu_prime, eta, ch: ChannelParams, decoy, e1_mass, f: float):
    """_point_at's terms at overall transmittance eta, on namespace xp, and whether they are plain.

    decoy is src.signal's triple at mu and e1_mass its _e1_mass. Returns
    the signal (P_post, tY', E'), plain, the bounds (Y1, Delta1, e1 and the
    clamp test) and the rate with its feasibility. A row is plain where
    every bound is plainly defined: mu and mu' ordered, u < v, positive
    post-selection probabilities, a positive yield and E' in [0, 1] at mu',
    a finite raw Y1 and a finite raw e1. A raw Y1 that is not positive, as a zero decoy
    yield makes it, clamps Y1 to 0 and so leaves raw e1 infinite or NaN.
    Where plain, every value has _point_at's bits; any other row is the
    chain's to judge, which may refuse it, and on floats the text may raise
    an ArithmeticError or ValueError before it is judged.
    """
    p_mu, ty_mu, e_mu = decoy
    p, ty, e, defined, h_e = _signal_at(xp, src, mu_prime, eta, ch)
    w_mu, w = src.weights(FLOATS, mu), src.weights(xp, mu_prime)
    raw_y1 = _raw_y1(xp, w_mu, w_mu[4] ** 2, w, ch.d_b, ty_mu, ty)
    y1, delta1, e1, raw_e1, feasible = _single_photon_bounds(xp, raw_y1, e1_mass, w_mu, w, ty)
    plain = (defined & (0.0 < mu) & (mu < mu_prime) & (w_mu[4] < w[4]) & (p_mu > 0.0) & (p > 0.0)
             & (raw_y1 < math.inf) & (-math.inf < raw_e1) & (raw_e1 < math.inf))
    rate = _rate(xp, _rate_terms(ty, h_e, f), delta1, xp.entropy(e1), feasible)
    return (p, ty, e, plain, y1, delta1, e1, feasible) + rate


def _point_at(src, mu: float, mu_prime: float, eta: float, ch: ChannelParams, decoy, f: float):
    """(observables, bounds, rate, feasible) at overall transmittance eta: the one core of every reported point.

    decoy is src.signal's triple at mu, or None to compute it here. The
    caller orders the intensities before the forecast runs; compute_bounds
    refuses them otherwise.
    """
    obs = _forecast_row(src, mu, mu_prime, eta, ch, decoy)
    bounds = compute_bounds(src, obs, mu, mu_prime, ch.e_0)
    return (obs, bounds) + rate_and_feasibility(obs, bounds, f)


def _positive_at(src, mu: float, mu_prime: float, eta: float, ch: ChannelParams, decoy, e1_mass, f: float) -> bool:
    """Whether _point_at's rate is positive, without building its report objects.

    decoy and e1_mass are _row's. A plain row reads _row's rate on floats,
    which has _point_at's bits. Any other row, or one the float text cannot
    evaluate, goes through _point_at itself, so its value or error is the
    chain's.
    """
    try:
        _, _, _, plain, _, _, _, _, rate, _ = _row(FLOATS, src, mu, mu_prime, eta, ch, decoy, e1_mass, f)
    except (ArithmeticError, ValueError):
        plain = False
    return rate > 0.0 if plain else _point_at(src, mu, mu_prime, eta, ch, decoy, f)[2] > 0.0


# ---------------------------------------------------------------------------
# infinite-decoy benchmarks (exact single-photon knowledge)

def _exact_single_photon(xp, ch: ChannelParams, eta):
    """True single-photon yield and entropy of its error rate, capped at 1/2, at overall transmittance eta.

    On namespace xp, so a sweep takes its whole eta column in one call.
    """
    return _click_probability(xp, 1, ch, eta), xp.entropy(xp.minimum(0.5, _error_rate(xp, 1, ch, eta)))


def _benchmark_rate(xp, w, ty, terms, y1, h_e1):
    """Rate formula at signal ty, its _rate_terms and weights w, with exact y1 and h_e1; clamped at 0."""
    return _rate(xp, terms, xp.minimum(_delta1(y1, w, ty), 1.0), h_e1)[0]


def _ideal_rate_at(xp, src, mu_prime, eta, ch: ChannelParams, exact, f: float):
    """ideal_rate at overall transmittance eta, given _exact_single_photon's (Y1, H(e1)) there.

    Also returns _signal_at's test of the signal at mu_prime: where it
    fails, the chain refuses the signal.
    """
    _, ty, _, defined, h_e = _signal_at(xp, src, mu_prime, eta, ch)
    return _benchmark_rate(xp, src.weights(xp, mu_prime), ty, _rate_terms(ty, h_e, f), *exact), defined


def ideal_rate(src, mu_prime: float, ch: ChannelParams, f: float = DEFAULT_F_EC) -> float:
    """Benchmark key rate of src with exactly known single-photon statistics."""
    eta = overall_transmittance(ch)
    return _ideal_rate_at(FLOATS, src, mu_prime, eta, ch, _exact_single_photon(FLOATS, ch, eta), f)[0]
