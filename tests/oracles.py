"""Independent test oracles for the closed forms of decoy_hsps.

The thermal weights and their geometric sum, truncated series over the
photon-number distributions (the closed-form forecast terms of
decoy_hsps.sources must agree with them), the triggered and Poissonian
photon-number distributions themselves, the coefficients of the n-photon
yields after the Y1 bound's elimination, and the exact forward
constraints an experiment with given n-photon yields would show (the Y1
bounds are tested against them). None of this is used by
the package. closed_form and closed_form_wcs read the package's closed
forms at the oracles' parameters.

The tests have one source axis: source_and_synthesizer gives a kind's
source object and its forward synthesizer, so a bound test runs for both
sources through the core API; draw_intensities and observed are the
randomized harnesses' one intensity draw and observed-statistics builder.

The mu' search's references take one row at a time on public names:
search_reference scans and refines one scalar rate (scalar_rate) as the
array search does each row, golden_reference is its golden section,
record_scan_reference the coarse scan's tie rule column by column, and
serial_cutoff the cut-off as a forward scan and a one-point bisection.
"""
import math
from dataclasses import replace

import numpy as np

from decoy_hsps.bounds import ideal_rate
from decoy_hsps.channel import ChannelParams, overall_transmittance
from decoy_hsps.numerics import FLOATS
from decoy_hsps.observables import ObservedStatistics
from decoy_hsps.optimizer import RATE_TIE_TOL, evaluate, key_rate_point, mu_prime_candidates, sweep_distances
from decoy_hsps.sources import (
    COHERENT,
    HeraldedSourceParams,
    TriggeredSource,
    at_least_one_probability,
    post_selection_probability,
    triggered_source,
)

# Truncation policy for series oracles: stop once the analytic geometric
# tail bound drops below SERIES_TAIL_TOL, never summing more than
# SERIES_MAX_TERMS terms.
SERIES_TAIL_TOL = 1e-15
SERIES_MAX_TERMS = 500


def hsps_elimination_coefficient(n: int, mu: float, mu_prime: float, eta_a: float) -> float:
    """Coefficient of the n-photon yield after the two-constraint elimination.

    Zero at n = 2 (the elimination is built to cancel it) and strictly
    negative for n >= 3 when mu' > mu, which is what makes dropping the
    multi-photon terms a valid lower bound.
    """
    _check_coefficient_args(n, mu, mu_prime)
    u = mu / (1.0 + mu)
    v = mu_prime / (1.0 + mu_prime)
    return (1.0 - (1.0 - eta_a) ** n) * (v * v * u**n - u * u * v**n)


def wcs_elimination_coefficient(n: int, mu: float, mu_prime: float) -> float:
    """Poissonian counterpart of hsps_elimination_coefficient."""
    _check_coefficient_args(n, mu, mu_prime)
    return (mu_prime**2 * mu**n - mu**2 * mu_prime**n) / math.factorial(n)


def _check_coefficient_args(n: int, mu: float, mu_prime: float):
    if n < 1:
        raise ValueError(f"photon number n must be >= 1, got {n}")
    if not 0 < mu < mu_prime:
        raise ValueError(
            f"intensities must satisfy 0 < mu < mu_prime, got mu={mu}, mu_prime={mu_prime}"
        )


def thermal_weight(n: int, x: float) -> float:
    """Unnormalized thermal weight x^n / (1+x)^(n+1) for n >= 1 photons.

    Evaluated in ratio form (x/(1+x))^n / (1+x) so large n cannot overflow.
    """
    if n < 1:
        raise ValueError(f"photon number n must be >= 1, got {n}")
    if x < 0:
        raise ValueError(f"intensity x must be >= 0, got {x}")
    if x == 0:
        return 0.0
    r = x / (1.0 + x)
    return r**n / (1.0 + x)


def thermal_geometric_sum(x: float, q: float) -> float:
    """Closed form of sum_{n>=1} thermal_weight(n, x) * q^n.

    Equals q*x / ((1+x) * (1+x - q*x)) for q in [0, 1]; this identity is
    the workhorse behind every closed-form yield and error-rate expression.
    """
    if x < 0:
        raise ValueError(f"intensity x must be >= 0, got {x}")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"attenuation factor q must be in [0, 1], got {q}")
    return q * x / ((1.0 + x) * (1.0 + x - q * x))


def closed_form(src: HeraldedSourceParams, ch: ChannelParams):
    """P_post, rescaled yield and QBER of TriggeredSource.signal at intensity src.x."""
    return TriggeredSource(src.eta_a, src.d_a).signal(FLOATS, src.x, overall_transmittance(ch), ch)


def closed_form_wcs(mu: float, ch: ChannelParams):
    """Gain and QBER of CoherentSource.signal at intensity mu."""
    return COHERENT.signal(FLOATS, mu, overall_transmittance(ch), ch)[1:]


def thermal_geometric_series(
    x: float,
    q: float,
    tol: float = SERIES_TAIL_TOL,
    max_terms: int = SERIES_MAX_TERMS,
) -> float:
    """Truncated-series evaluation of sum_{n>=1} thermal_weight(n, x) * q^n.

    Terms form a geometric sequence with ratio q*x/(1+x) < 1, so the exact
    remaining tail after each partial sum is known analytically; summation
    stops once that tail drops below `tol` (or at `max_terms`). Serves as
    the independent oracle for thermal_geometric_sum.
    """
    if x < 0:
        raise ValueError(f"intensity x must be >= 0, got {x}")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"attenuation factor q must be in [0, 1], got {q}")
    r = q * x / (1.0 + x)
    if r == 0.0:
        return 0.0
    term = r / (1.0 + x)
    total = 0.0
    for _ in range(max_terms):
        total += term
        tail = term * r / (1.0 - r)
        if tail < tol:
            break
        term *= r
    return total


def triggered_distribution(n: int, src: HeraldedSourceParams) -> float:
    """Photon-number distribution of the heralded mode, conditioned on a trigger.

    n = 0 carries the dark-count-triggered vacuum mass; n >= 1 carries the
    thermal weight scaled by the trigger detector's chance of seeing at
    least one of the n partner photons.
    """
    if n < 0:
        raise ValueError(f"photon number n must be >= 0, got {n}")
    p_post = post_selection_probability(src)
    if p_post == 0.0:
        raise ValueError(
            "triggered distribution undefined: post-selection probability is zero "
            f"(x*eta_a = {src.x * src.eta_a}, d_a = {src.d_a})"
        )
    if n == 0:
        return src.d_a / ((1.0 + src.x) * p_post)
    return at_least_one_probability(src.eta_a, n) * thermal_weight(n, src.x) / p_post


def poisson_weight(n: int, mu: float) -> float:
    """Poisson probability of n photons at mean mu, e^(-mu) mu^n / n!."""
    if n < 0:
        raise ValueError(f"photon number n must be >= 0, got {n}")
    if mu < 0:
        raise ValueError(f"intensity mu must be >= 0, got {mu}")
    if mu == 0.0:
        return 1.0 if n == 0 else 0.0
    if n == 0:
        return math.exp(-mu)
    return math.exp(n * math.log(mu) - mu - math.lgamma(n + 1))


def coincidence_series(x, eta_a, eta, tol=SERIES_TAIL_TOL, max_terms=SERIES_MAX_TERMS):
    """Term-by-term oracle for the both-detectors-click mass sources._coincidence_sum."""
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


def simulate_rescaled_yield_series(
    src: HeraldedSourceParams, ch: ChannelParams, max_terms: int = SERIES_MAX_TERMS
) -> float:
    """Term-by-term oracle for the rescaled yield of TriggeredSource.signal."""
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


def simulate_qber_series(
    src: HeraldedSourceParams, ch: ChannelParams, max_terms: int = SERIES_MAX_TERMS
) -> float:
    """Term-by-term oracle for the QBER of TriggeredSource.signal."""
    ty = simulate_rescaled_yield_series(src, ch, max_terms)
    if ty == 0.0:
        raise ValueError("QBER undefined: forecast yield is zero")
    eta = overall_transmittance(ch)
    p_post = post_selection_probability(src)
    err = ch.e_0 * ch.d_b * p_post
    err += ch.e_d * coincidence_series(src.x, src.eta_a, eta, max_terms=max_terms)
    return err / ty


def simulate_wcs_gain_series(
    mu: float, ch: ChannelParams, max_terms: int = SERIES_MAX_TERMS
) -> float:
    """Poisson-series oracle for the gain of CoherentSource.signal."""
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


def simulate_wcs_qber_series(
    mu: float, ch: ChannelParams, max_terms: int = SERIES_MAX_TERMS
) -> float:
    """Poisson-series oracle for the QBER of CoherentSource.signal."""
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


def source_and_synthesizer(kind, eta_a=0.8, d_a=1e-5):
    """Source kind's object and its forward synthesizer synth(yields, x), trigger terms eta_a, d_a.

    synth gives the constraint sum_n P_n(x) Y_n that the bounds read at
    intensity x: the rescaled yield of a triggered source ("hsps"), the gain
    of a coherent one ("wcs"), which ignores eta_a and d_a.
    """
    if kind == "wcs":
        return COHERENT, synthesize_wcs_gain_from_yields
    return triggered_source(eta_a, d_a), lambda ys, x: synthesize_observables_from_yields(ys, x, eta_a, d_a)


def source(cfg, kind):
    """The source object a sweep of cfg runs for source kind ("hsps" or "wcs")."""
    return source_and_synthesizer(kind, cfg.eta_a, cfg.d_a)[0]


def draw_intensities(rng):
    """A decoy and a signal intensity, 0 < mu < mu' <= 1 and at least 0.02 apart."""
    mu = rng.uniform(0.005, 0.6)
    mu_prime = min(1.0, mu + rng.uniform(0.02, 0.4))
    return mu, mu_prime


def observed(y0, ty_mu, ty_mu_prime, e_mu=None, e_mu_prime=None):
    """Observed statistics with only the fields the bounds read: Y0, both rescaled yields and the QBERs."""
    return ObservedStatistics(y0=y0, y_mu=0.0, y_mu_prime=0.0, ty_mu=ty_mu, ty_mu_prime=ty_mu_prime,
                              e_mu=e_mu, e_mu_prime=e_mu_prime)


def scalar_rate(cfg, distance, kind, ideal):
    """The scalar chain's bounded (evaluate) or ideal rate of kind at distance, as a function of mu'."""
    ch, src = cfg.channel.at_distance(distance), source(cfg, kind)
    if ideal:
        return lambda m: ideal_rate(src, m, ch, cfg.f_ec)
    return lambda m: evaluate(cfg, ch, src, m)[2]


def golden_reference(fn, a, b, tol):
    """The scalar golden-section loop, one bracket at a time."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    if b - a <= tol:
        x = 0.5 * (a + b)
        return x, fn(x)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    x = 0.5 * (a + b)
    return x, fn(x)


def search_reference(rate, cfg, refine_tol=1e-4):
    """The mu' search one row at a time: coarse scan with the tie rule, then the scalar golden section."""
    cands = mu_prime_candidates(cfg)
    best_x, best_f = cands[0], rate(cands[0])
    for x in cands[1:]:
        fx = rate(x)
        if fx > best_f + RATE_TIE_TOL:
            best_x, best_f = x, fx
    a = max(cfg.mu_prime_min, best_x - cfg.mu_prime_coarse_step)
    b = min(cfg.mu_prime_max, best_x + cfg.mu_prime_coarse_step)
    if b - a > refine_tol:
        xr, fr = golden_reference(rate, a, b, refine_tol)
        if fr > best_f + RATE_TIE_TOL or (abs(fr - best_f) <= RATE_TIE_TOL and xr < best_x):
            return xr, fr
    return best_x, best_f


def record_scan_reference(rates, cands, best_x, best_f):
    """The coarse scan's tie rule column by column: a rate above the best by more than RATE_TIE_TOL wins."""
    for j in range(rates.shape[1]):
        better = rates[:, j] > best_f + RATE_TIE_TOL
        best_x = np.where(better, cands[j], best_x)
        best_f = np.where(better, rates[:, j], best_f)
    return best_x, best_f


def serial_cutoff(cfg, kind):
    """max_secure_distance the slow way: a forward scan of a sweep, then one key_rate_point per midpoint."""
    one = replace(cfg, sources=(kind,), include_ideal=False)
    last_positive = first_zero_after = None
    for p in sweep_distances(one):
        if p.key_rate > 0.0:
            last_positive, first_zero_after = p.distance_km, None
        elif last_positive is not None and first_zero_after is None:
            first_zero_after = p.distance_km
    if last_positive is None or first_zero_after is None:
        return last_positive
    lo, hi = last_positive, first_zero_after
    while hi - lo > 0.1:
        mid = 0.5 * (lo + hi)
        if key_rate_point(one, mid, kind).key_rate > 0.0:
            lo = mid
        else:
            hi = mid
    return lo
