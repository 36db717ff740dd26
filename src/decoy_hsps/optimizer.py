"""Per-distance signal-intensity optimization and distance sweeps.

The key rate at a fixed distance is a smooth, empirically unimodal
function of the signal intensity mu', so the optimizer scans a coarse
grid and then refines the best cell with a golden-section search.
key_rate_point is the search at one distance: a sweep of that distance
alone, reporting mu', the rate and the ideal benchmark. Where no mu'
gives a positive rate, mu' is mu_prime_min and the rate 0.

A sweep builds its rows once (_Rows): per distance the overall
transmittance and the benchmark's exact single-photon terms, and per
source kind the decoy signal triple and e1 mass, all on Python floats.
One search then takes every distance, source kind and ideal benchmark at
once: each (source kind, bounded or ideal) job adds one row per distance
to a 2-D array of rows by mu' columns, and every row runs the same coarse
scan and golden-section steps in lockstep, boolean masks standing in for
the scalar branches. A source's bounded and ideal rows share one rate
callable, which evaluates the source's signal at mu' once per step. The
coarse scan's sequential tie rule is applied to a whole block of columns
at once (_record_scan); only a row with a rate within RATE_TIE_TOL of its
block's top, or a NaN, walks the columns one by one. A row's search never
reads another row, so stacking jobs does not move any row's mu'.

A cut-off (max_secure_distance) coarse-scans its distance grid, takes
the bracket after the last grid point with a positive coarse rate as the
guess of where the cut-off lies, coarse-scans every bisection midpoint
in that bracket, and refines the grid and midpoint rows in one
golden-section pass. A midpoint the guess missed gets a batch search of
its own, so the guess moves no result, only the number of rate calls.

The search's rates are the scalar chain's own source-generic core run on
numpy arrays, and they only pick mu'. Every reported rate, observable and
bound is then recomputed on floats by the scalar chain's row core (_point
and _benchmark_rate) at that mu', from the same rows, so no ChannelParams
is built per distance. Reporting straight from the arrays would move CSV
values in the last digits (numpy's exp/log/pow round differently from
math's), and a one-row array call costs about ten times a scalar
evaluation. Every evaluation is a pure function of the inputs; identical
configurations produce identical results bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bounds import (
    DEFAULT_F_EC,
    KeyRatePoint,
    _NO_E1,
    _NO_SIGNAL_QBER,
    SecurityBounds,
    _benchmark_rate,
    _exact_single_photon,
    _rate_formula,
    _search_rate,
    compute_bounds,
)
from .channel import ChannelParams, fiber_transmittance, overall_transmittance
from .numerics import ARRAYS, FLOATS, binary_entropy
from .observables import ObservedStatistics, _forecast_row
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

# The golden section refines the best coarse cell to a bracket this wide.
REFINE_TOL = 1e-4

# Grids with more points than this are refused before any is built.
MAX_GRID_POINTS = 10**6

# A rate call evaluates at most this many (distance, mu') cells: the coarse
# scan goes in blocks of columns, and a search takes at most half this
# many distances, as the golden section opens with two probes a row. So
# peak memory does not grow with either grid. At 2^13 cells
# a float64 temporary (64 KB) stays below glibc's default mmap threshold
# and is reused: a pass of the three figures (181 x 95 cells per sweep)
# peaked 1.9 MB above the imported package, against 3.1 MB with 2^16.
_BLOCK_CELLS = 1 << 13

# A cut-off searches the bisection midpoints of this many levels at once,
# at most 2^6 - 1 = 63 rows: rate calls cost about the same at 1 and at 200
# rows, so a batch costs about one midpoint probed alone. The default 1 km
# grid needs 4 levels, so its guessed bracket holds every midpoint.
_BISECT_LEVELS = 6

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class SweepConfig:
    """Everything a distance sweep needs: the one home of every default and range.

    mu_prime_min/max bound the signal-intensity search; mu_prime_min left
    None becomes mu + mu_prime_coarse_step. The coarse grid steps by
    mu_prime_coarse_step and the refinement resolves to REFINE_TOL. sources
    selects which pipelines run, each kind at most once; include_ideal
    adds the infinite-decoy benchmark to every point.
    """

    channel: ChannelParams = ChannelParams()
    mu: float = 0.05
    eta_a: float = 0.8
    d_a: float = 1e-5
    f_ec: float = DEFAULT_F_EC
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

    a and b are 1-D arrays of brackets, one per row, all searched in
    lockstep: fn maps a (rows, k) array of points to their (rows, k)
    values, each row takes exactly the steps of its own scalar search, and
    a row whose bracket is narrower than tol stops moving. The two opening
    probes of every row go to fn in one (rows, 2) call.
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
        fc, fd = fn(np.stack([c, d], axis=1)).T
        while active.any():
            # fc >= fd keeps [a, d]: d takes c's place and a new c is probed;
            # otherwise [c, b] is kept and a new d is probed. A frozen row's
            # a and b never change again, so its c, fc, d, fd may go stale.
            left = fc >= fd
            b = np.where(active & left, d, b)
            a = np.where(active & ~left, c, a)
            width = b - a
            probe = np.where(left, b - _INVPHI * width, a + _INVPHI * width)
            f_probe = fn(probe[:, None])[:, 0]
            c, fc, d, fd = (
                np.where(left, probe, d),
                np.where(left, f_probe, fd),
                np.where(left, c, probe),
                np.where(left, fc, f_probe),
            )
            active = width > tol
    x = 0.5 * (a + b)
    return x, fn(x[:, None])[:, 0]


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


def _coarse_scan(rate_fn, rows: int, cfg: SweepConfig):
    """Every row's best coarse candidate and its rate, under the tie rule.

    rate_fn maps a (1, k) array of mu' to the (rows, k) rates of all rows
    at those mu'. The candidates go in blocks of at most _BLOCK_CELLS
    cells, and column 0 seeds each row's best as the scalar scan does, a
    NaN included. Each block's tie rule is applied by _record_scan in a
    few whole-array operations; a row it cannot settle exactly that way (a
    rate within RATE_TIE_TOL of the block's top, or a NaN) falls back to
    the column-by-column rule.
    """
    cands = np.array(mu_prime_candidates(cfg))
    width = max(1, _BLOCK_CELLS // max(1, rows))
    rates = rate_fn(cands[None, :width])
    best_x, best_f = _record_scan(rates, cands[:width], np.full(rows, cands[0]), rates[:, 0])
    for start in range(width, cands.size, width):
        block = cands[start:start + width]
        best_x, best_f = _record_scan(rate_fn(block[None, :]), block, best_x, best_f)
    return best_x, best_f


def _refine(rate_fn, best_x, best_f, cfg: SweepConfig):
    """Golden-section refinement of every row's best coarse cell.

    rate_fn maps a (rows, k) array of mu' to the rates of each row at its
    own k points. A refined point replaces the coarse best only if it beats
    it by more than RATE_TIE_TOL, or ties it at a smaller mu', so a row's
    rate is never below any coarse candidate it examined.
    """
    a = np.maximum(cfg.mu_prime_min, best_x - cfg.mu_prime_coarse_step)
    b = np.minimum(cfg.mu_prime_max, best_x + cfg.mu_prime_coarse_step)
    refine = b - a > REFINE_TOL
    if refine.any():
        xr, fr = golden_section_maximize(rate_fn, a, b, REFINE_TOL)
        with np.errstate(invalid="ignore"):  # inf - inf when a rate is infinite
            take = refine & (
                (fr > best_f + RATE_TIE_TOL)
                | ((np.abs(fr - best_f) <= RATE_TIE_TOL) & (xr < best_x))
            )
        best_x = np.where(take, xr, best_x)
        best_f = np.where(take, fr, best_f)
    return best_x, best_f


def maximize_over_mu_prime(rate_fn, rows: int, cfg: SweepConfig):
    """The per-row mu' and rate arrays of _coarse_scan, then _refine.

    rate_fn maps a 2-D array of mu' that broadcasts against (rows, 1) to
    the rates of all rows at those mu', one row per distance.
    """
    best_x, best_f = _coarse_scan(rate_fn, rows, cfg)
    return _refine(rate_fn, best_x, best_f, cfg)


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
    h_e1 = binary_entropy(bounds.e1_upper)
    raw = _rate_formula(FLOATS, obs.ty_mu_prime, obs.e_mu_prime, bounds.delta1, h_e1, f_ec)
    return raw if raw > 0.0 else 0.0, bounds.feasible and raw >= 0.0


def _source(cfg: SweepConfig, source_kind: str):
    if source_kind not in _SOURCES:
        raise ValueError(f"unknown source kind {source_kind!r}")
    return _SOURCES[source_kind](cfg)


def _point(cfg: SweepConfig, ch: ChannelParams, src, eta: float, decoy, mu_prime: float):
    """evaluate at overall transmittance eta: the one core of every reported point.

    decoy is src.signal's triple at cfg.mu, or None to compute it here.
    """
    obs = _forecast_row(src, cfg.mu, mu_prime, eta, ch, decoy)
    bounds = compute_bounds(src, obs, cfg.mu, mu_prime, ch.e_0)
    return (obs, bounds) + rate_and_feasibility(obs, bounds, cfg.f_ec)


def evaluate(
    cfg: SweepConfig, ch: ChannelParams, src, mu_prime: float
) -> tuple[ObservedStatistics, SecurityBounds, float, bool]:
    """Forecast, bound, and rate one working point of source src."""
    return _point(cfg, ch, src, overall_transmittance(ch), None, mu_prime)


def _column(values) -> np.ndarray:
    return np.array(values, dtype=float).reshape(-1, 1)


class _Rows(NamedTuple):
    """Per-distance terms that a search and its report both read, each computed once.

    eta holds the transmittances, exact the benchmark's (Y1, H(e1)); decoy
    and e1_mass, per source kind, the signal triple at mu and e1 mass.
    """

    eta: list[float]
    exact: list[tuple[float, float]]
    decoy: dict[str, list[tuple[float, float, float]]]
    e1_mass: dict[str, list[float]]


def _rows(cfg: SweepConfig, distances, jobs) -> _Rows:
    """The _Rows at distances for (source kind, ideal) jobs; no ChannelParams is built."""
    ch = cfg.channel
    eta = [fiber_transmittance(ch.alpha_db_per_km, d) * ch.eta_b for d in distances]
    decoy, e1_mass = {}, {}
    for kind in dict.fromkeys(kind for kind, ideal in jobs if not ideal):
        src = _source(cfg, kind)
        decoy[kind] = [src.signal(FLOATS, cfg.mu, e, ch) for e in eta]
        e1_mass[kind] = [src.e1_mass(FLOATS, cfg.mu, e, ty, ch.d_b, ch.e_0) for _, ty, e in decoy[kind]]
    exact = [_exact_single_photon(ch, e) for e in eta] if any(ideal for _, ideal in jobs) else []
    return _Rows(eta, exact, decoy, e1_mass)


def _rate_array(cfg: SweepConfig, rows: _Rows, kind: str, segments, offset: int):
    """One rate callable over a source kind's rows, bounded and ideal alike.

    segments lists (ideal, first, end) ranges of rows, in row order, from
    the search's row offset on. A call evaluates the source's signal at mu'
    once for them all; in the coarse scan, where every row sees the same
    mu', once per distance if the segments cover the same distances. The
    search sees the scalar rates up to the last place of numpy's exp/log/pow.
    """
    ch, mu, f, src = cfg.channel, cfg.mu, cfg.f_ec, _source(cfg, kind)
    eta = _column([e for _, lo, hi in segments for e in rows.eta[lo:hi]])
    shared = all(seg[1:] == segments[0][1:] for seg in segments)
    parts, end = [], 0  # each segment's rows and mu'-independent columns
    for ideal, lo, hi in segments:
        terms = zip(*rows.exact[lo:hi]) if ideal else (
            [ty for _, ty, _ in rows.decoy[kind][lo:hi]], rows.e1_mass[kind][lo:hi])
        parts.append((end, end + hi - lo, ideal, *map(_column, terms)))
        end += hi - lo

    def rate(mu_prime):
        each = mu_prime.shape[0] > 1
        once = shared and not each
        mu_prime = mu_prime[offset:offset + end] if each else mu_prime
        with np.errstate(all="ignore"):
            _, ty, e = src.signal(ARRAYS, mu_prime, eta[:parts[0][1]] if once else eta, ch)
            out = []
            for a, b, ideal, t1, t2 in parts:
                r = slice(0, b - a) if once else slice(a, b)
                m = mu_prime[r] if each else mu_prime
                out.append(_benchmark_rate(ARRAYS, src, m, ty[r], e[r], t1, t2, f) if ideal
                           else _search_rate(src, ch.d_b, t1, t2, mu, m, ty[r], e[r], f))
        return out[0] if len(out) == 1 else np.concatenate(out)

    return rate


def _chunk_rows() -> int:
    """Rows per search: the golden section's opening call rates 2 cells a row."""
    return max(1, _BLOCK_CELLS // 2)


def _search(cfg: SweepConfig, rows: _Rows, jobs: list[tuple[str, bool]]) -> list[list[float]]:
    """The searched mu' of every row for every (source kind, ideal) job.

    The rows of all jobs, job after job, go through one search in chunks of
    at most _chunk_rows() rows; adjacent jobs of one source kind share a
    _rate_array. A row's search never looks at another row, so every row
    picks the mu' it would pick alone.
    """
    n, chunk = len(rows.eta), _chunk_rows()
    total, mu_primes = n * len(jobs), []
    for start in range(0, total, chunk):
        stop = min(total, start + chunk)
        runs = []  # (source kind, segments, first row) of consecutive jobs of one kind
        for j, (kind, ideal) in enumerate(jobs):
            lo, hi = max(start - j * n, 0), min(stop - j * n, n)
            if lo < hi:
                if not runs or runs[-1][0] != kind:
                    runs.append((kind, [], j * n + lo - start))
                runs[-1][1].append((ideal, lo, hi))
        fns = [_rate_array(cfg, rows, kind, segs, first) for kind, segs, first in runs]
        rate = fns[0] if len(fns) == 1 else lambda x: np.concatenate([fn(x) for fn in fns])
        best_x, _ = maximize_over_mu_prime(rate, stop - start, cfg)
        mu_primes.extend(best_x.tolist())
    return [mu_primes[j * n:(j + 1) * n] for j in range(len(jobs))]


def _sweep_points(
    cfg: SweepConfig, distances: list[float], kinds
) -> list[KeyRatePoint]:
    """Fully evaluated samples, one per distance per source kind, distance-major.

    One search picks every mu' (bounded and, when enabled, ideal); the
    reported values are then evaluated by the scalar chain's row core at
    those mu', from the same rows the search read.
    """
    ch = cfg.channel
    jobs = [(kind, ideal) for kind in kinds for ideal in (False, True)[:1 + cfg.include_ideal]]
    rows = _rows(cfg, distances, jobs)
    searched = dict(zip(jobs, _search(cfg, rows, jobs)))
    sources = [_source(cfg, kind) for kind in kinds]
    points = []
    for i, (distance, eta) in enumerate(zip(distances, rows.eta)):
        for kind, src in zip(kinds, sources):
            mu_prime = searched[kind, False][i]
            obs, bounds, rate, feasible = _point(cfg, ch, src, eta, rows.decoy[kind][i], mu_prime)
            if cfg.include_ideal:
                m = searched[kind, True][i]
                _, ty, e = src.signal(FLOATS, m, eta, ch)
                ideal = _benchmark_rate(FLOATS, src, m, ty, e, *rows.exact[i], cfg.f_ec)
            else:
                ideal = float("nan")
            points.append(KeyRatePoint(
                distance_km=distance, mu=cfg.mu, mu_prime=mu_prime, key_rate=rate, ideal_rate=ideal,
                source_kind=kind, bounds=bounds, observables=obs, feasible=feasible))
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


def _positive(cfg: SweepConfig, src, eta: float, decoy, mu_prime: float) -> bool:
    """Whether the scalar rate of the row (eta, decoy) at mu_prime is positive."""
    return _point(cfg, cfg.channel, src, eta, decoy, mu_prime)[2] > 0.0


def _searched_rows(cfg: SweepConfig, source_kind: str, distances) -> dict[float, tuple]:
    """Each distance's (transmittance, decoy triple, searched mu'), by distance."""
    jobs = [(source_kind, False)]
    rows = _rows(cfg, distances, jobs)
    return dict(zip(distances, zip(rows.eta, rows.decoy[source_kind], _search(cfg, rows, jobs)[0])))


def _guessed_tree(grid: list[float], coarse_rates: np.ndarray) -> list[float]:
    """Bisection midpoints of the bracket after the last positive coarse rate."""
    positive = np.flatnonzero(coarse_rates > 0.0)
    if positive.size == 0 or positive[-1] + 1 == len(grid):
        return []
    k = int(positive[-1])
    return _bisection_tree(grid[k], grid[k + 1], _BISECT_LEVELS)


def _cutoff_rows(cfg: SweepConfig, source_kind: str, grid: list[float]) -> dict[float, tuple]:
    """_searched_rows of every grid point and of the guessed midpoints.

    The grid and the _guessed_tree midpoints are coarse-scanned apart, as
    the tree depends on the grid's coarse rates, then refined together in
    one golden-section pass over their joined rows. A grid too long to
    share a chunk with a full tree is searched alone, with no guess.
    """
    jobs = [(source_kind, False)]
    if len(grid) + 2**_BISECT_LEVELS - 1 > _chunk_rows():
        return _searched_rows(cfg, source_kind, grid)

    def rate(rows):
        return _rate_array(cfg, rows, source_kind, [(False, 0, len(rows.eta))], 0)

    rows = _rows(cfg, grid, jobs)
    best_x, best_f = _coarse_scan(rate(rows), len(grid), cfg)
    tree = _guessed_tree(grid, best_f)
    if tree:
        tree_rows = _rows(cfg, tree, jobs)
        tree_x, tree_f = _coarse_scan(rate(tree_rows), len(tree), cfg)
        k = source_kind
        rows = _Rows(rows.eta + tree_rows.eta, [], {k: rows.decoy[k] + tree_rows.decoy[k]},
                     {k: rows.e1_mass[k] + tree_rows.e1_mass[k]})
        best_x, best_f = np.concatenate([best_x, tree_x]), np.concatenate([best_f, tree_f])
    mu_primes = _refine(rate(rows), best_x, best_f, cfg)[0].tolist()
    return dict(zip(grid + tree, zip(rows.eta, rows.decoy[source_kind], mu_primes)))


def max_secure_distance(cfg: SweepConfig, source_kind: str = "hsps") -> float | None:
    """Largest distance with a positive optimized rate, or None.

    The scalar rate at each grid point's searched mu' is judged backwards
    from the grid end, so the result is the last positive grid point, or
    the grid end when the rate is still positive there. Between that point
    and the next one a bisection refines the cut-off down to 0.1 km,
    judging the scalar rate only at the midpoints it reaches, from the
    rows the search read. _cutoff_rows searches the grid and the guessed
    midpoints in one pass. A midpoint it did not cover (a missed guess, a
    deeper bracket, or a grid over the chunk limit) is searched with every
    midpoint of its next _BISECT_LEVELS levels at once. A row's search
    never reads another row, so this returns exactly what probing one
    midpoint at a time would, whether or not the rate falls monotonically.
    """
    grid = distance_grid(cfg)
    src = _source(cfg, source_kind)
    searched = _cutoff_rows(cfg, source_kind, grid)
    last = len(grid) - 1
    while last >= 0 and not _positive(cfg, src, *searched[grid[last]]):
        last -= 1
    if last < 0:
        return None
    if last == len(grid) - 1:
        return grid[last]
    lo, hi = grid[last], grid[last + 1]
    while hi - lo > 0.1:
        mid = 0.5 * (lo + hi)
        if mid not in searched:
            searched.update(_searched_rows(cfg, source_kind, _bisection_tree(lo, hi, _BISECT_LEVELS)))
        if _positive(cfg, src, *searched[mid]):
            lo = mid
        else:
            hi = mid
    return lo
