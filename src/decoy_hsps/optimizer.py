"""Per-distance signal-intensity optimization and distance sweeps.

The key rate at a fixed distance is a smooth, empirically unimodal
function of the signal intensity mu', so the optimizer scans a coarse
grid and then refines the best cell with a golden-section search.

A sweep makes one search for all of its distances, source kinds and
ideal benchmarks at once: each (source kind, bounded or ideal) job adds
one row per distance to a 2-D array of rows by mu' columns, and every
row runs the same coarse scan and golden-section steps in lockstep,
boolean masks standing in for the scalar branches. The coarse scan's
sequential tie rule is applied to a whole block of columns at once
(_record_scan); only a row with a rate within RATE_TIE_TOL of its block's
top, or a NaN, walks the columns one by one. A row's search never reads
another row, so stacking jobs does not move any row's mu'. Searches take
distances, not channels: a row is cfg.channel at its distance, and only
its overall transmittance enters the arrays, so a ChannelParams is built
only for the points the scalar chain evaluates.

The arrays only pick mu'; every reported rate, observable and bound is
then recomputed by the scalar evaluate_* / ideal_rate_* functions at
that mu'. Reporting straight from the arrays would move CSV values in
the last digits (numpy's exp/log/pow round differently from math's),
and a one-row array call costs about ten times a scalar evaluation.
Every evaluation is a pure function of the inputs; identical
configurations produce identical results bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .bounds import (
    KeyRatePoint,
    SecurityBounds,
    _rate_formula,
    _y1_hsps_raw,
    binary_entropy,
    compute_hsps_bounds,
    compute_wcs_bounds,
    ideal_rate_hsps,
    ideal_rate_wcs,
)
from .channel import ChannelParams, _click_probability, _error_rate, fiber_transmittance
from .observables import (
    ObservedStatistics,
    _coherent_terms,
    _triggered_terms,
    forecast_observables,
    forecast_wcs_observables,
)

SOURCE_KINDS = ("hsps", "wcs")

# Two candidate rates closer than this are a tie; the smaller mu' wins.
RATE_TIE_TOL = 1e-15

# Grids with more points than this are refused before any is built.
MAX_GRID_POINTS = 10**6

# The coarse scan evaluates at most this many (distance, mu') cells per
# call, in blocks of columns, and a search takes at most this many
# distances, so peak memory does not grow with either grid. At 2^13 cells
# a float64 temporary (64 KB) stays below glibc's default mmap threshold
# and is reused: a pass of the three figures (181 x 95 cells per sweep)
# peaked 1.9 MB above the imported package, against 3.1 MB with 2^16.
_BLOCK_CELLS = 1 << 13

# A cut-off's bisection searches the midpoints of this many of its levels
# at once, at most 2^6 - 1 = 63 rows. A search costs ~2.5 ms plus ~20 us
# per row, so the batch costs about one midpoint probed alone; the default
# 1 km grid needs 4 levels.
_BISECT_LEVELS = 6

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class SweepConfig:
    """Everything a distance sweep needs, with materialized defaults.

    mu_prime_min/max bound the signal-intensity search; the coarse grid
    steps by mu_prime_coarse_step and the refinement resolves to 1e-4.
    sources selects which pipelines run; include_ideal adds the
    infinite-decoy benchmark to every point.
    """

    channel: ChannelParams = ChannelParams()
    mu: float = 0.05
    eta_a: float = 0.8
    d_a: float = 1e-5
    f_ec: float = 1.2
    mu_prime_min: float = 0.06
    mu_prime_max: float = 1.0
    mu_prime_coarse_step: float = 0.01
    dist_start_km: float = 0.0
    dist_stop_km: float = 180.0
    dist_step_km: float = 1.0
    sources: tuple[str, ...] = SOURCE_KINDS
    include_ideal: bool = True

    def __post_init__(self):
        for name in (
            "mu", "eta_a", "d_a", "f_ec", "mu_prime_min", "mu_prime_max",
            "mu_prime_coarse_step", "dist_start_km", "dist_stop_km", "dist_step_km",
        ):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.mu <= 0:
            raise ValueError(f"mu must be > 0, got {self.mu}")
        if not 0.0 < self.eta_a <= 1.0:
            raise ValueError(f"eta_a must be in (0, 1], got {self.eta_a}")
        if not 0.0 <= self.d_a < 1.0:
            raise ValueError(f"d_a must be in [0, 1), got {self.d_a}")
        if self.f_ec < 1.0:
            raise ValueError(f"f_ec must be >= 1, got {self.f_ec}")
        if self.mu_prime_min <= self.mu:
            raise ValueError(
                f"mu_prime_min ({self.mu_prime_min}) must exceed mu ({self.mu})"
            )
        if self.mu_prime_max <= self.mu:
            raise ValueError(
                f"mu_prime_max ({self.mu_prime_max}) must exceed mu ({self.mu})"
            )
        if self.mu_prime_max < self.mu_prime_min:
            raise ValueError(
                f"mu_prime_max ({self.mu_prime_max}) must be >= mu_prime_min "
                f"({self.mu_prime_min})"
            )
        if self.mu_prime_coarse_step <= 0:
            raise ValueError(
                f"mu_prime_coarse_step must be > 0, got {self.mu_prime_coarse_step}"
            )
        if self.dist_step_km <= 0:
            raise ValueError(f"dist_step_km must be > 0, got {self.dist_step_km}")
        if self.dist_start_km < 0:
            raise ValueError(f"dist_start_km must be >= 0, got {self.dist_start_km}")
        if not self.sources:
            raise ValueError("at least one source kind must be selected")
        for kind in self.sources:
            if kind not in SOURCE_KINDS:
                raise ValueError(f"unknown source kind {kind!r}")
        _grid_count(
            "mu_prime_coarse_step", self.mu_prime_max - self.mu_prime_min,
            self.mu_prime_coarse_step,
        )
        _grid_count(
            "dist_step_km", max(0.0, self.dist_stop_km - self.dist_start_km),
            self.dist_step_km,
        )


def _grid_count(key: str, span: float, step: float) -> int:
    """Points of the grid 0, step, ... up to span, refused above MAX_GRID_POINTS."""
    cells = span / step + 1e-9
    if not cells < MAX_GRID_POINTS:
        raise ValueError(
            f"{key} = {step!r} would make {cells:.3g} grid points; "
            f"at most {MAX_GRID_POINTS} are allowed"
        )
    return int(math.floor(cells)) + 1


def distance_grid(cfg: SweepConfig) -> list[float]:
    """Grid distances start, start+step, ... up to and including stop."""
    if cfg.dist_stop_km < cfg.dist_start_km:
        return []
    span = cfg.dist_stop_km - cfg.dist_start_km
    count = _grid_count("dist_step_km", span, cfg.dist_step_km)
    return [cfg.dist_start_km + i * cfg.dist_step_km for i in range(count)]


def mu_prime_candidates(cfg: SweepConfig) -> list[float]:
    """Coarse search grid over [mu_prime_min, mu_prime_max]."""
    lo, hi, step = cfg.mu_prime_min, cfg.mu_prime_max, cfg.mu_prime_coarse_step
    count = _grid_count("mu_prime_coarse_step", hi - lo, step)
    cands = [lo + i * step for i in range(count)]
    if cands[-1] < hi - 1e-12 * max(1.0, abs(hi)):
        cands.append(hi)
    return cands


def golden_section_maximize(fn, a, b, tol: float):
    """Locate the maximum of a unimodal function on [a, b] to width tol.

    a and b are floats, or equal-shape arrays of brackets that are all
    searched in lockstep: fn then maps an array of points to an array of
    values, each element takes exactly the steps of its own scalar search,
    and an element whose bracket is narrower than tol stops moving.
    """
    if np.ndim(a) == 0 and np.ndim(b) == 0:
        x, fx = golden_section_maximize(
            lambda v: np.array([fn(float(v[0]))]),
            np.array([a], dtype=float), np.array([b], dtype=float), tol,
        )
        return float(x[0]), float(fx[0])
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    invalid = b < a
    if invalid.any():
        raise ValueError(f"invalid bracket [{a[invalid][0]}, {b[invalid][0]}]")
    width = b - a
    active = width > tol
    if active.any():
        c = b - _INVPHI * width
        d = a + _INVPHI * width
        fc, fd = fn(c), fn(d)
        while active.any():
            # fc >= fd keeps [a, d]: d takes c's place and a new c is probed;
            # otherwise [c, b] is kept and a new d is probed. A frozen row's
            # a and b never change again, so its c, fc, d, fd may go stale.
            left = fc >= fd
            b = np.where(active & left, d, b)
            a = np.where(active & ~left, c, a)
            width = b - a
            probe = np.where(left, b - _INVPHI * width, a + _INVPHI * width)
            f_probe = fn(probe)
            c, fc, d, fd = (
                np.where(left, probe, d),
                np.where(left, f_probe, fd),
                np.where(left, c, probe),
                np.where(left, fc, f_probe),
            )
            active = width > tol
    x = 0.5 * (a + b)
    return x, fn(x)


def _record_scan(rates, cands, best_x, best_f):
    """The coarse scan's tie rule applied to one block of columns.

    Taken column by column, a rate above the carried best by more than
    RATE_TIE_TOL replaces it, so ties go to the smaller mu'. A row whose
    block maximum m (first at column k) does not beat its carried best
    keeps it, since no cell beats it either. When m does beat it, and also
    beats every cell below m by more than RATE_TIE_TOL, the result is
    (cands[k], m): every record before column k is the carried best or a
    cell below m, x -> x + RATE_TIE_TOL rounds monotonically, and no later
    cell exceeds m. Only rows this leaves open (a near-tie below m, or a
    NaN) take the column loop itself.
    """
    top = rates.argmax(axis=1)
    m = rates[np.arange(rates.shape[0]), top]
    below = np.where(rates < m[:, None], rates, -np.inf).max(axis=1)
    new = m > best_f + RATE_TIE_TOL
    x = np.where(new, cands[top], best_x)
    f = np.where(new, m, best_f)
    for i in np.flatnonzero(np.isnan(m) | (new & ~(m > below + RATE_TIE_TOL))):
        xi, fi = best_x[i], best_f[i]
        for c, r in zip(cands, rates[i]):
            if r > fi + RATE_TIE_TOL:
                xi, fi = c, r
        x[i], f[i] = xi, fi
    return x, f


def maximize_over_mu_prime(rate_fn, cfg: SweepConfig, refine_tol: float = 1e-4):
    """Coarse grid scan plus golden-section refinement of every row's rate.

    rate_fn maps a 2-D array of mu' that broadcasts against (rows, 1) to
    the rates of all rows at those mu', one row per distance. Every row
    runs the scalar search in lockstep: ties within RATE_TIE_TOL resolve
    to the smaller mu', and a row's rate is never below any coarse
    candidate it examined. Returns the per-row mu' and rate arrays.
    The first call, on the first candidate alone, tells the row count
    that sizes the column blocks of the rest of the scan. Each block's
    tie rule is applied by _record_scan in a few whole-array operations;
    a row it cannot settle exactly that way (a rate within RATE_TIE_TOL
    of the block's top, or a NaN) falls back to the column-by-column rule.
    """
    cands = np.array(mu_prime_candidates(cfg))
    best_f = rate_fn(cands[None, :1])[:, 0]
    best_x = np.full(best_f.size, cands[0])
    width = max(1, _BLOCK_CELLS // max(1, best_f.size))
    for start in range(1, cands.size, width):
        block = cands[start:start + width]
        best_x, best_f = _record_scan(rate_fn(block[None, :]), block, best_x, best_f)
    a = np.maximum(cfg.mu_prime_min, best_x - cfg.mu_prime_coarse_step)
    b = np.minimum(cfg.mu_prime_max, best_x + cfg.mu_prime_coarse_step)
    refine = b - a > refine_tol
    if refine.any():
        xr, fr = golden_section_maximize(lambda x: rate_fn(x[:, None])[:, 0], a, b, refine_tol)
        take = refine & (
            (fr > best_f + RATE_TIE_TOL)
            | ((np.abs(fr - best_f) <= RATE_TIE_TOL) & (xr < best_x))
        )
        best_x = np.where(take, xr, best_x)
        best_f = np.where(take, fr, best_f)
    return best_x, best_f


def rate_and_feasibility(
    obs: ObservedStatistics, bounds: SecurityBounds, f_ec: float
) -> tuple[float, bool]:
    """Key rate clamped at 0, and whether the point is feasible.

    A point is feasible when no bound had to be clamped and the raw rate
    formula is not negative; sweeps, figures and the counts analysis all
    report this one flag.
    """
    raw = _rate_formula(obs.ty_mu_prime, obs.e_mu_prime, bounds.delta1, bounds.e1_upper, f_ec)
    return max(0.0, raw), bounds.feasible and raw >= 0.0


def evaluate_hsps(
    cfg: SweepConfig, ch: ChannelParams, mu_prime: float
) -> tuple[ObservedStatistics, SecurityBounds, float, bool]:
    """Forecast, bound, and rate one triggered-source working point."""
    obs = forecast_observables(cfg.mu, mu_prime, cfg.eta_a, cfg.d_a, ch)
    bounds = compute_hsps_bounds(obs, cfg.mu, mu_prime, cfg.eta_a, cfg.d_a, e_0=ch.e_0)
    return (obs, bounds) + rate_and_feasibility(obs, bounds, cfg.f_ec)


def evaluate_wcs(
    cfg: SweepConfig, ch: ChannelParams, mu_prime: float
) -> tuple[ObservedStatistics, SecurityBounds, float, bool]:
    """Forecast, bound, and rate one coherent-source working point."""
    obs = forecast_wcs_observables(cfg.mu, mu_prime, ch)
    bounds = compute_wcs_bounds(obs, cfg.mu, mu_prime, e_0=ch.e_0)
    return (obs, bounds) + rate_and_feasibility(obs, bounds, cfg.f_ec)


def _evaluate(cfg: SweepConfig, ch: ChannelParams, source_kind: str, mu_prime: float):
    if source_kind == "hsps":
        return evaluate_hsps(cfg, ch, mu_prime)
    return evaluate_wcs(cfg, ch, mu_prime)


def _ideal_rate(cfg: SweepConfig, ch: ChannelParams, source_kind: str, mu_prime: float) -> float:
    if source_kind == "hsps":
        return ideal_rate_hsps(mu_prime, cfg.eta_a, cfg.d_a, ch, cfg.f_ec)
    return ideal_rate_wcs(mu_prime, ch, cfg.f_ec)


# ---------------------------------------------------------------------------
# array rates: one row per distance, mu' along the columns
#
# Each builder below takes the column of a block of rows' overall
# transmittances (every other channel parameter is cfg.channel's),
# computes the mu'-independent terms of every row once, and returns
# rate(mu_prime) over arrays that broadcast against (rows, 1). The
# triggered-pulse terms come from the scalar forecast's own
# _triggered_terms, which is plain arithmetic; everything else mirrors the
# scalar forecast, bounds and rate formula operation for operation, so the
# search sees the scalar rates up to the last-place rounding of numpy's
# exp/log/pow.

def _column(values) -> np.ndarray:
    return np.array(values, dtype=float).reshape(-1, 1)


def _entropy(p):
    h = -p * np.log2(p) - (1.0 - p) * np.log2(1.0 - p)
    return np.where((p == 0.0) | (p == 1.0), 0.0, h)


def _clamped_rate(weight, e_signal, delta1, h_e1, f):
    """max(0, _rate_formula) with the single-photon entropy already taken."""
    raw = weight / 2.0 * (-f * _entropy(e_signal) + delta1 * (1.0 - h_e1))
    return np.where(raw > 0.0, raw, 0.0)


def _wcs_signal(cfg: SweepConfig, eta, mu_prime):
    """Gain, capped at 1 as in _coherent_terms, and QBER of coherent signal pulses."""
    ch = cfg.channel
    lost = np.expm1(-eta * mu_prime)
    q = ch.d_b - lost
    return np.minimum(q, 1.0), (ch.e_0 * ch.d_b - ch.e_d * lost) / q


def _hsps_rate_array(cfg: SweepConfig, eta: np.ndarray):
    mu, eta_a, d_a, e_0, y0 = cfg.mu, cfg.eta_a, cfg.d_a, cfg.channel.e_0, cfg.channel.d_b
    with np.errstate(all="ignore"):
        _, ty_mu, e_mu = _triggered_terms(mu, eta_a, d_a, cfg.channel, eta)
        # (1+mu)^2 * E_mu * tY_mu, in compute_hsps_bounds' order of operations
        e1_mass = (1.0 + mu) ** 2 * e_mu * ty_mu - (1.0 + mu) * y0 * d_a * e_0

    def rate(mu_prime):
        with np.errstate(all="ignore"):
            _, ty, e = _triggered_terms(mu_prime, eta_a, d_a, cfg.channel, eta)
            raw_y1 = _y1_hsps_raw(y0, ty_mu, ty, mu, mu_prime, eta_a, d_a)
            y1 = np.minimum(raw_y1, 1.0)
            delta1 = np.minimum(y1 * eta_a * mu_prime / (ty * (1.0 + mu_prime) ** 2), 1.0)
            e1 = np.clip(e1_mass / (y1 * eta_a * mu), 0.0, 0.5)
            r = _clamped_rate(ty, e, delta1, _entropy(e1), cfg.f_ec)
            return np.where(raw_y1 > 0.0, r, 0.0)

    return rate


def _wcs_rate_array(cfg: SweepConfig, eta: np.ndarray):
    mu, e_0, y0 = cfg.mu, cfg.channel.e_0, cfg.channel.d_b
    decoy = [_coherent_terms(mu, cfg.channel, float(e)) for e in eta[:, 0]]
    c_mu = _column([q * math.exp(mu) for q, _ in decoy])
    e1_mass = _column([e * q * math.exp(mu) - e_0 * y0 for q, e in decoy])

    def rate(mu_prime):
        with np.errstate(all="ignore"):
            q, e = _wcs_signal(cfg, eta, mu_prime)
            num = mu_prime**2 * c_mu - mu**2 * (q * np.exp(mu_prime)) - y0 * (mu_prime**2 - mu**2)
            raw_y1 = num / (mu * mu_prime * (mu_prime - mu))
            y1 = np.minimum(raw_y1, 1.0)
            delta1 = np.minimum(y1 * mu_prime * np.exp(-mu_prime) / q, 1.0)
            e1 = np.clip(e1_mass / (y1 * mu), 0.0, 0.5)
            r = _clamped_rate(q, e, delta1, _entropy(e1), cfg.f_ec)
            return np.where(raw_y1 > 0.0, r, 0.0)

    return rate


def _ideal_single_photon(ch: ChannelParams, eta: np.ndarray):
    """True single-photon yield and entropy of its (capped) error rate, per row."""
    etas = eta[:, 0].tolist()
    y1 = _column([_click_probability(1, ch, e) for e in etas])
    h_e1 = _column([binary_entropy(min(0.5, _error_rate(1, ch, e))) for e in etas])
    return y1, h_e1


def _hsps_ideal_rate_array(cfg: SweepConfig, eta: np.ndarray):
    y1, h_e1 = _ideal_single_photon(cfg.channel, eta)

    def rate(mu_prime):
        with np.errstate(all="ignore"):
            _, ty, e = _triggered_terms(mu_prime, cfg.eta_a, cfg.d_a, cfg.channel, eta)
            delta1 = np.minimum(y1 * cfg.eta_a * mu_prime / (ty * (1.0 + mu_prime) ** 2), 1.0)
            return _clamped_rate(ty, e, delta1, h_e1, cfg.f_ec)

    return rate


def _wcs_ideal_rate_array(cfg: SweepConfig, eta: np.ndarray):
    y1, h_e1 = _ideal_single_photon(cfg.channel, eta)

    def rate(mu_prime):
        with np.errstate(all="ignore"):
            q, e = _wcs_signal(cfg, eta, mu_prime)
            delta1 = np.minimum(y1 * mu_prime * np.exp(-mu_prime) / q, 1.0)
            return _clamped_rate(q, e, delta1, h_e1, cfg.f_ec)

    return rate


_RATE_ARRAYS = {
    ("hsps", False): _hsps_rate_array,
    ("wcs", False): _wcs_rate_array,
    ("hsps", True): _hsps_ideal_rate_array,
    ("wcs", True): _wcs_ideal_rate_array,
}


def _stacked_rate(blocks):
    """One rate callable over the rows of (first row, end row, rate) blocks."""
    def rate(mu_prime):
        per_row = mu_prime.shape[0] > 1
        return np.concatenate([fn(mu_prime[lo:hi] if per_row else mu_prime) for lo, hi, fn in blocks])

    return rate


def _searched_mu_primes(
    cfg: SweepConfig, distances: list[float], jobs: list[tuple[str, bool]]
) -> list[list[float]]:
    """The searched mu' at every distance for every (source kind, ideal) job.

    The rows of all jobs, job after job, go through one search, split into
    chunks of at most _BLOCK_CELLS rows; each job's array builder rates its
    own rows of a chunk. A row's search never looks at another row, so
    every row picks the mu' it would pick alone. A row is cfg.channel at
    its distance, and the search reads only its overall transmittance,
    computed as overall_transmittance does, so no ChannelParams is built.
    """
    for kind, _ in jobs:
        if kind not in SOURCE_KINDS:
            raise ValueError(f"unknown source kind {kind!r}")
    n, total = len(distances), len(distances) * len(jobs)
    ch = cfg.channel
    eta = _column([fiber_transmittance(ch.alpha_db_per_km, d) * ch.eta_b for d in distances])
    mu_primes: list[float] = []
    for start in range(0, total, _BLOCK_CELLS):
        stop = min(total, start + _BLOCK_CELLS)
        blocks = []
        for j, job in enumerate(jobs):
            lo, hi = max(start - j * n, 0), min(stop - j * n, n)
            if lo < hi:
                make_rate = _RATE_ARRAYS[job]
                blocks.append((j * n + lo - start, j * n + hi - start, make_rate(cfg, eta[lo:hi])))
        best_x, _ = maximize_over_mu_prime(_stacked_rate(blocks), cfg)
        mu_primes.extend(best_x.tolist())
    return [mu_primes[j * n:(j + 1) * n] for j in range(len(jobs))]


def _optimal_mu_primes(
    cfg: SweepConfig, distances: list[float], source_kind: str, ideal: bool = False
) -> list[float]:
    """The searched mu' at every distance, bounded rate or ideal benchmark."""
    return _searched_mu_primes(cfg, distances, [(source_kind, ideal)])[0]


def optimize_mu_prime(
    cfg: SweepConfig, distance_km: float, source_kind: str = "hsps"
) -> tuple[float, float]:
    """Best signal intensity and rate at one distance.

    When no candidate achieves a positive rate the reported mu' is the
    smallest candidate with the rate pinned at 0.
    """
    ch = cfg.channel.at_distance(distance_km)
    (mu_prime,) = _optimal_mu_primes(cfg, [distance_km], source_kind)
    return mu_prime, _evaluate(cfg, ch, source_kind, mu_prime)[2]


def optimal_ideal_rate(
    cfg: SweepConfig, distance_km: float, source_kind: str = "hsps"
) -> float:
    """Infinite-decoy benchmark rate, with its own mu' optimization."""
    ch = cfg.channel.at_distance(distance_km)
    (mu_prime,) = _optimal_mu_primes(cfg, [distance_km], source_kind, ideal=True)
    return _ideal_rate(cfg, ch, source_kind, mu_prime)


def optimize_joint_intensities(
    cfg: SweepConfig,
    distance_km: float,
    mu_values,
    source_kind: str = "hsps",
) -> tuple[float, float, float]:
    """Exhaustive-grid joint optimization over (mu, mu') at one distance.

    The sweep itself keeps mu fixed; this optional mode scans the supplied
    decoy-intensity candidates, optimizing mu' for each, and returns the
    best (mu, mu', rate). Ties resolve to the smaller mu.
    """
    mu_values = list(mu_values)
    if not mu_values:
        raise ValueError("mu_values must contain at least one candidate")
    best = None
    for mu in sorted(mu_values):
        trial = replace(
            cfg,
            mu=mu,
            mu_prime_min=max(cfg.mu_prime_min, mu + cfg.mu_prime_coarse_step),
        )
        mu_prime, rate = optimize_mu_prime(trial, distance_km, source_kind)
        if best is None or rate > best[2] + RATE_TIE_TOL:
            best = (mu, mu_prime, rate)
    return best


def _sweep_points(
    cfg: SweepConfig, distances: list[float], kinds
) -> list[KeyRatePoint]:
    """Fully evaluated samples, one per distance per source kind, distance-major.

    One search picks every mu' (bounded and, when enabled, ideal); the
    reported values are then evaluated by the scalar chain at those mu'.
    """
    channels = [cfg.channel.at_distance(d) for d in distances]
    jobs = [(kind, False) for kind in kinds]
    if cfg.include_ideal:
        jobs += [(kind, True) for kind in kinds]
    searched = _searched_mu_primes(cfg, distances, jobs)
    points = []
    for i, (distance, ch) in enumerate(zip(distances, channels)):
        for k, kind in enumerate(kinds):
            mu_prime = searched[k][i]
            obs, bounds, rate, feasible = _evaluate(cfg, ch, kind, mu_prime)
            if cfg.include_ideal:
                ideal = _ideal_rate(cfg, ch, kind, searched[len(kinds) + k][i])
            else:
                ideal = float("nan")
            points.append(KeyRatePoint(
                distance_km=distance,
                mu=cfg.mu,
                mu_prime=mu_prime,
                key_rate=rate,
                ideal_rate=ideal,
                source_kind=kind,
                bounds=bounds,
                observables=obs,
                feasible=feasible,
            ))
    return points


def key_rate_point(cfg: SweepConfig, distance_km: float, source_kind: str) -> KeyRatePoint:
    """Fully evaluated sweep sample at one distance for one source kind."""
    return _sweep_points(cfg, [distance_km], (source_kind,))[0]


def sweep_distances(cfg: SweepConfig) -> list[KeyRatePoint]:
    """One KeyRatePoint per grid distance per requested source kind."""
    return _sweep_points(cfg, distance_grid(cfg), cfg.sources)


def _bisection_tree(lo: float, hi: float, levels: int) -> list[float]:
    """Every midpoint a 0.1 km bisection of [lo, hi] can probe in its next levels."""
    if levels == 0 or not hi - lo > 0.1:
        return []
    mid = 0.5 * (lo + hi)
    return [mid] + _bisection_tree(lo, mid, levels - 1) + _bisection_tree(mid, hi, levels - 1)


def _positive_rates(cfg: SweepConfig, distances: list[float], source_kind: str) -> list[bool]:
    """Whether the optimized rate is positive at each distance, from one search."""
    mu_primes = _optimal_mu_primes(cfg, distances, source_kind)
    return [_positive(cfg, d, source_kind, m) for d, m in zip(distances, mu_primes)]


def _positive(cfg: SweepConfig, distance_km: float, source_kind: str, mu_prime: float) -> bool:
    """Whether the scalar rate at distance_km and mu_prime is positive."""
    return _evaluate(cfg, cfg.channel.at_distance(distance_km), source_kind, mu_prime)[2] > 0.0


def max_secure_distance(cfg: SweepConfig, source_kind: str = "hsps") -> float | None:
    """Largest distance with a positive optimized rate, or None.

    One search picks the mu' of every grid point; the scalar rate is then
    judged backwards from the grid end, so the result is the last positive
    grid point, or the grid end when the rate is still positive there.
    Between that point and the next one a bisection refines the cut-off
    down to 0.1 km. Every midpoint it can probe in its next
    _BISECT_LEVELS levels is searched at once, and the bisection then walks
    those results; a row's search never reads another row, so this
    returns exactly what probing one midpoint at a time would, whether or
    not the rate falls monotonically.
    """
    grid = distance_grid(cfg)
    mu_primes = _optimal_mu_primes(cfg, grid, source_kind)
    last = len(grid) - 1
    while last >= 0 and not _positive(cfg, grid[last], source_kind, mu_primes[last]):
        last -= 1
    if last < 0:
        return None
    if last == len(grid) - 1:
        return grid[last]
    lo, hi = grid[last], grid[last + 1]
    positive: dict[float, bool] = {}
    while hi - lo > 0.1:
        mid = 0.5 * (lo + hi)
        if mid not in positive:
            tree = _bisection_tree(lo, hi, _BISECT_LEVELS)
            positive.update(zip(tree, _positive_rates(cfg, tree, source_kind)))
        if positive[mid]:
            lo = mid
        else:
            hi = mid
    return lo
