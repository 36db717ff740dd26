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

A source kind names one source object (_source). The search's rates
come from the scalar chain's own source-generic core run on numpy arrays,
with each row's mu'-independent terms taken from the scalar chain. The
arrays only pick mu'; every reported rate, observable and bound is then
recomputed by the scalar chain (evaluate, ideal_rate) at that mu'.
Reporting straight from the arrays would move CSV values in the last
digits (numpy's exp/log/pow round differently from math's), and a
one-row array call costs about ten times a scalar evaluation. Every
evaluation is a pure function of the inputs; identical configurations
produce identical results bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import (
    KeyRatePoint,
    SecurityBounds,
    _benchmark_rate,
    _exact_single_photon,
    _rate_formula,
    _search_rate,
    compute_bounds,
    ideal_rate,
)
from .channel import ChannelParams, fiber_transmittance
from .numerics import ARRAYS, FLOATS, binary_entropy
from .observables import ObservedStatistics, forecast
# Not called here: bench/tracer.py patches this binding by name.
from .observables import forecast_observables  # noqa: F401
from .sources import COHERENT, triggered_source

_SOURCES = {
    "hsps": lambda cfg: triggered_source(cfg.eta_a, cfg.d_a),
    "wcs": lambda cfg: COHERENT,
}
SOURCE_KINDS = tuple(_SOURCES)

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
    """Everything a distance sweep needs: the one home of every default and range.

    mu_prime_min/max bound the signal-intensity search; mu_prime_min left
    None becomes mu + mu_prime_coarse_step. The coarse grid steps by
    mu_prime_coarse_step and the refinement resolves to 1e-4. sources
    selects which pipelines run, each kind at most once; include_ideal
    adds the infinite-decoy benchmark to every point.
    """

    channel: ChannelParams = ChannelParams()
    mu: float = 0.05
    eta_a: float = 0.8
    d_a: float = 1e-5
    f_ec: float = 1.2
    mu_prime_min: float | None = None
    mu_prime_max: float = 1.0
    mu_prime_coarse_step: float = 0.01
    dist_start_km: float = 0.0
    dist_stop_km: float = 180.0
    dist_step_km: float = 1.0
    sources: tuple[str, ...] = SOURCE_KINDS
    include_ideal: bool = True

    def __post_init__(self):
        if self.mu_prime_min is None:
            object.__setattr__(self, "mu_prime_min", self.mu + self.mu_prime_coarse_step)
        for name in (
            "mu", "eta_a", "d_a", "f_ec", "mu_prime_min", "mu_prime_max",
            "mu_prime_coarse_step", "dist_start_km", "dist_stop_km", "dist_step_km",
        ):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.mu <= 0:
            raise ValueError(f"mu must be > 0, got {self.mu}")
        triggered_source(self.eta_a, self.d_a)  # checks eta_a and d_a
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
            if self.sources.count(kind) > 1:
                raise ValueError(f"source kind {kind!r} is selected more than once")
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
    """Locate the maxima of unimodal functions on brackets [a, b] to width tol.

    a and b are equal-shape arrays of brackets that are all searched in
    lockstep: fn maps an array of points to an array of values, each
    element takes exactly the steps of its own scalar search, and an
    element whose bracket is narrower than tol stops moving.
    """
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
        with np.errstate(invalid="ignore"):  # inf - inf when a rate is infinite
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
    h_e1 = binary_entropy(bounds.e1_upper)
    raw = _rate_formula(FLOATS, obs.ty_mu_prime, obs.e_mu_prime, bounds.delta1, h_e1, f_ec)
    return raw if raw > 0.0 else 0.0, bounds.feasible and raw >= 0.0


def _source(cfg: SweepConfig, source_kind: str):
    if source_kind not in _SOURCES:
        raise ValueError(f"unknown source kind {source_kind!r}")
    return _SOURCES[source_kind](cfg)


def evaluate(
    cfg: SweepConfig, ch: ChannelParams, src, mu_prime: float
) -> tuple[ObservedStatistics, SecurityBounds, float, bool]:
    """Forecast, bound, and rate one working point of source src."""
    obs = forecast(src, cfg.mu, mu_prime, ch)
    bounds = compute_bounds(src, obs, cfg.mu, mu_prime, ch.e_0)
    return (obs, bounds) + rate_and_feasibility(obs, bounds, cfg.f_ec)


def _column(values) -> np.ndarray:
    return np.array(values, dtype=float).reshape(-1, 1)


def _rate_array(cfg: SweepConfig, src, ideal: bool, eta: np.ndarray):
    """rate(mu_prime) of the rows of a column eta of overall transmittances.

    Every other channel parameter is cfg.channel's. Each row's
    mu'-independent terms (decoy terms, or the benchmark's exact Y1 and
    entropy) are its scalar-chain values, so the search sees the scalar
    rates up to the last-place rounding of numpy's exp/log/pow.
    """
    ch, etas = cfg.channel, eta[:, 0].tolist()
    if ideal:
        y1, h_e1 = (_column(c) for c in zip(*[_exact_single_photon(ch, e) for e in etas]))
    else:
        # the decoy rescaled yield and e1 error mass of compute_bounds
        decoy = [src.signal(FLOATS, cfg.mu, e, ch) for e in etas]
        ty_mu = _column([ty for _, ty, _ in decoy])
        e1_mass = _column([src.e1_mass(FLOATS, cfg.mu, e, ty, ch.d_b, ch.e_0) for _, ty, e in decoy])

    def rate(mu_prime):
        with np.errstate(all="ignore"):
            if ideal:
                return _benchmark_rate(ARRAYS, src, mu_prime, eta, ch, y1, h_e1, cfg.f_ec)
            return _search_rate(src, ch.d_b, ty_mu, e1_mass, cfg.mu, mu_prime, eta, ch, cfg.f_ec)

    return rate


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
    chunks of at most _BLOCK_CELLS rows; each job's _rate_array rates its
    own rows of a chunk. A row's search never looks at another row, so
    every row picks the mu' it would pick alone. A row is cfg.channel at
    its distance, and the search reads only its overall transmittance,
    computed as overall_transmittance does, so no ChannelParams is built.
    """
    sources = [(_source(cfg, kind), ideal) for kind, ideal in jobs]
    n, total = len(distances), len(distances) * len(jobs)
    ch = cfg.channel
    eta = _column([fiber_transmittance(ch.alpha_db_per_km, d) * ch.eta_b for d in distances])
    mu_primes: list[float] = []
    for start in range(0, total, _BLOCK_CELLS):
        stop = min(total, start + _BLOCK_CELLS)
        blocks = []
        for j, (src, ideal) in enumerate(sources):
            lo, hi = max(start - j * n, 0), min(stop - j * n, n)
            if lo < hi:
                rate = _rate_array(cfg, src, ideal, eta[lo:hi])
                blocks.append((j * n + lo - start, j * n + hi - start, rate))
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
    return mu_prime, evaluate(cfg, ch, _source(cfg, source_kind), mu_prime)[2]


def optimal_ideal_rate(
    cfg: SweepConfig, distance_km: float, source_kind: str = "hsps"
) -> float:
    """Infinite-decoy benchmark rate, with its own mu' optimization."""
    ch = cfg.channel.at_distance(distance_km)
    (mu_prime,) = _optimal_mu_primes(cfg, [distance_km], source_kind, ideal=True)
    return ideal_rate(_source(cfg, source_kind), mu_prime, ch, cfg.f_ec)


def _sweep_points(
    cfg: SweepConfig, distances: list[float], kinds
) -> list[KeyRatePoint]:
    """Fully evaluated samples, one per distance per source kind, distance-major.

    One search picks every mu' (bounded and, when enabled, ideal); the
    reported values are then evaluated by the scalar chain at those mu'.
    """
    channels = [cfg.channel.at_distance(d) for d in distances]
    sources = [_source(cfg, kind) for kind in kinds]
    jobs = [(kind, False) for kind in kinds]
    if cfg.include_ideal:
        jobs += [(kind, True) for kind in kinds]
    searched = _searched_mu_primes(cfg, distances, jobs)
    points = []
    for i, (distance, ch) in enumerate(zip(distances, channels)):
        for k, (kind, src) in enumerate(zip(kinds, sources)):
            mu_prime = searched[k][i]
            obs, bounds, rate, feasible = evaluate(cfg, ch, src, mu_prime)
            if cfg.include_ideal:
                ideal = ideal_rate(src, searched[len(kinds) + k][i], ch, cfg.f_ec)
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


def _positive(cfg: SweepConfig, distance_km: float, src, mu_prime: float) -> bool:
    """Whether the scalar rate at distance_km and mu_prime is positive."""
    return evaluate(cfg, cfg.channel.at_distance(distance_km), src, mu_prime)[2] > 0.0


def max_secure_distance(cfg: SweepConfig, source_kind: str = "hsps") -> float | None:
    """Largest distance with a positive optimized rate, or None.

    One search picks the mu' of every grid point; the scalar rate is then
    judged backwards from the grid end, so the result is the last positive
    grid point, or the grid end when the rate is still positive there.
    Between that point and the next one a bisection refines the cut-off
    down to 0.1 km. Every midpoint it can probe in its next
    _BISECT_LEVELS levels is searched at once, and the bisection then walks
    those mu', judging the scalar rate only at the midpoints it reaches; a
    row's search never reads another row, so this returns exactly what
    probing one midpoint at a time would, whether or not the rate falls
    monotonically.
    """
    grid = distance_grid(cfg)
    src = _source(cfg, source_kind)
    mu_primes = _optimal_mu_primes(cfg, grid, source_kind)
    last = len(grid) - 1
    while last >= 0 and not _positive(cfg, grid[last], src, mu_primes[last]):
        last -= 1
    if last < 0:
        return None
    if last == len(grid) - 1:
        return grid[last]
    lo, hi = grid[last], grid[last + 1]
    searched: dict[float, float] = {}
    while hi - lo > 0.1:
        mid = 0.5 * (lo + hi)
        if mid not in searched:
            tree = _bisection_tree(lo, hi, _BISECT_LEVELS)
            searched.update(zip(tree, _optimal_mu_primes(cfg, tree, source_kind)))
        if _positive(cfg, mid, src, searched[mid]):
            lo = mid
        else:
            hi = mid
    return lo
