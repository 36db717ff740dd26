"""Per-distance signal-intensity optimization and distance sweeps.

The key rate at a fixed distance is a smooth, empirically unimodal
function of the signal intensity mu'. A search coarse-scans a grid of
mu' and refines the best cell by a golden section, for many rows at once:
one row per (source kind, bounded or ideal) job and distance of each part
(_Part, one configuration's terms at a list of distances, each kept once
as a column). Where no mu' gives a positive rate, mu' is mu_prime_min and
the rate 0.

Three numeric namespaces run the one text of the forecast, bounds and
rate. FLOATS (.numerics) runs the scalar chain on Python floats. ARRAYS
runs the search on numpy's own functions, whose exp, log and squares
round apart from math's and Python's in the last place, so the search's
rates only pick mu'. EXACT gives FLOATS' bits on arrays (numpy's + - * /
and comparisons, which round as Python's floats do, and math's functions
and Python's square mapped over lists), so a part takes its exact
benchmark terms and each source's decoy columns in one call each, and a
sweep reports its points at the searched mu', from whole arrays.

A rate call takes each source's signal, weights and rate terms at mu'
(bounds._rate_terms: tY'/2 and -f H2(E')) once for the source's bounded
and ideal jobs, and every job's clamped rates fill one array.

A rate call evaluates at most _BLOCK_CELLS = 2^13 (row, mu') cells, so
peak memory grows with neither grid.

The contract is bit identity. A row's search never reads another row, so
neither joining parts nor cutting them into chunks moves any mu', and a
cut-off's guesses move only the number of rate calls. Every reported value
has the bits of the scalar chain (bounds._point_at and _ideal_rate_at): a
row that is not plain, or fails the screen of the value classes' tests,
goes through the chain itself, so its values and errors are the chain's.
Identical configurations give identical results bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import fields
from itertools import accumulate, chain, groupby, repeat
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .bounds import (
    KeyRatePoint,
    SecurityBounds,
    _benchmark_rate,
    _e1_mass,
    _exact_single_photon,
    _ideal_rate_at,
    _point_at,
    _positive_at,
    _rate_terms,
    _row,
    _search_rate,
)
from .channel import ChannelParams, fiber_transmittance, overall_transmittance
from .config import _SOURCES, SweepConfig, _grid_count
from .numerics import FLOATS, _exp, _log1p
from .observables import ObservedStatistics, _check_ordering
# Not called here: bench/tracer.py patches this binding by name.
from .observables import forecast_observables  # noqa: F401

# Two candidate rates closer than this are a tie; the smaller mu' wins.
RATE_TIE_TOL = 1e-15

# The golden section refines the best coarse cell to a bracket this wide.
REFINE_TOL = 1e-4

# A rate call evaluates at most this many (row, mu') cells: the coarse
# scan goes in blocks of columns, and a chunk holds at most a third this
# many rows (at least one distance's), as the golden section evaluates up
# to three points a row a call. So peak memory does not grow with either
# grid. At 2^13 cells a float64 temporary (64 KB) stays below glibc's
# default mmap threshold and is reused: a pass of the three figures (181 x
# 95 cells per sweep) peaked 1.9 MB above the imported package, against
# 3.1 MB with 2^16.
_BLOCK_CELLS = 1 << 13

# A cut-off searches the bisection midpoints of this many levels at once,
# at most 2^6 - 1 = 63 rows: rate calls cost about the same at 1 and at 200
# rows, so a batch costs about one midpoint probed alone. The default 1 km
# grid needs 4 levels, so its guessed bracket holds every midpoint.
_BISECT_LEVELS = 6

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _array_entropy(p):
    """numerics.binary_entropy's formula on an array of probabilities in [0, 1] or NaN.

    Flooring log2's argument at the least subnormal gives H(0) = H(1) = 0
    without masks, as 0 * log2(5e-324) and 1 * log2(1) are zeros; only the
    sign of a zero entropy can differ from the masked formula's. A QBER
    above 1 would read as a finite entropy, so the sources cap it at 1.
    """
    q = 1.0 - p
    return -(p * np.log2(np.maximum(p, 5e-324)) + q * np.log2(np.maximum(q, 5e-324)))


# numerics.FLOATS' twin on broadcasting arrays, for the search alone; the
# caller sets what numpy does on a zero division. The search takes the
# weights at mu on FLOATS, so every mu' here is an array. clip and positive
# are plain ufuncs (fmax takes a NaN to 0), without np.clip's Python wrapper;
# they may differ from FLOATS' only in the sign of a zero.
ARRAYS = SimpleNamespace(exp=np.exp, expm1=np.expm1, square=np.square, minimum=np.minimum,
                         clip=lambda x, lo, hi: np.minimum(np.maximum(x, lo), hi), positive=lambda x: np.fmax(x, 0.0),
                         ratio=np.divide, entropy=_array_entropy)


def _each(fn):
    """fn, a function of one float, applied to every element of an array."""
    def each(a):
        a = np.asarray(a, dtype=float)
        return np.fromiter(map(fn, a.ravel().tolist()), float, a.size).reshape(a.shape)
    return each


_log2 = _each(math.log2)


def _exact_entropy(p):
    """binary_entropy on an array, bit for bit, with math.log2 mapped over lists; NaN outside [0, 1].

    Where binary_entropy takes logs (0 < p < 1), the same expression runs on
    the logs; it is 0 at 0, -0.0 and 1, and NaN where binary_entropy raises.
    """
    inner = (0.0 < p) & (p < 1.0)
    s = np.where(inner, p, 0.5)
    q = 1.0 - s
    return np.where(inner, -s * _log2(s) - q * _log2(q), np.where((p == 0.0) | (p == 1.0), 0.0, math.nan))


def _square(x: float) -> float:
    """Python's x ** 2, saturating at inf on overflow as numpy's square does.

    numpy's square is x*x, which rounds differently from pow on about 0.1 %
    of inputs.
    """
    try:
        return x**2
    except OverflowError:
        return math.inf


# numerics.FLOATS' twin on plain arrays, bit for bit: numpy's + - * / and
# comparisons round as Python's floats do, the selections keep FLOATS'
# semantics (b < a picks b, NaN and -0.0 included; a zero divisor gives NaN),
# and math's functions and Python's square are mapped over lists. Its
# entropy is NaN outside [0, 1], where binary_entropy raises, so a row that
# is not plain leaves the array to the chain instead of stopping it. The
# report sets what numpy does on a zero division.
EXACT = SimpleNamespace(
    exp=_each(_exp), expm1=_each(math.expm1), log1p=_each(_log1p), square=_each(_square),
    minimum=lambda a, b: np.where(b < a, b, a),
    clip=lambda x, lo, hi: np.where(x > hi, hi, np.where(x < lo, lo, x)), positive=lambda x: np.where(x > 0.0, x, 0.0),
    ratio=lambda a, b: np.where(b != 0.0, a / b, math.nan), entropy=_exact_entropy, any=np.any,
)


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
    probes of every row go to fn in one (rows, 2) call; then each (rows, 3)
    call resolves two steps. A step's comparison (fc >= fd) is known at the
    top of a call, so its probe is fixed; the call carries it with both
    points the next step may need, the one for keeping [a, d] and the one
    for keeping [c, b], and that step's comparison picks one. A step that
    leaves its bracket within tol needs no probe, only its midpoint's value
    to report, so such a branch carries the midpoint instead, and a row
    past its last step has it in both. Rows that need at most n steps take
    1 + ceil(n/2) calls.
    """
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    invalid = b < a
    if invalid.any():
        raise ValueError(f"invalid bracket [{a[invalid][0]}, {b[invalid][0]}]")
    width = b - a
    active = width > tol
    if not active.any():
        x = 0.5 * (a + b)
        return x, fn(x[:, None])[:, 0]
    c = b - _INVPHI * width
    d = a + _INVPHI * width
    fc, fd = fn(np.stack([c, d], axis=1)).T
    while True:
        # fc >= fd keeps [a, d]: d takes c's place and a new c is probed;
        # otherwise [c, b] is kept and a new d is probed. bl and ar are the
        # kept bracket's ends; a frozen row keeps its a and b, so its c, fc,
        # d, fd may go stale.
        left = fc >= fd
        bl, ar = np.where(active, d, b), np.where(active, c, a)
        a, b = np.where(left, a, ar), np.where(left, bl, b)
        width = b - a
        active = width > tol
        probe = np.where(left, b - _INVPHI * width, a + _INVPHI * width)
        c, d = np.where(left, probe, d), np.where(left, c, probe)
        # the next step, either way; a row frozen by now has bl = b and
        # ar = a, so both its points are its midpoint
        bl, ar = np.where(active, d, b), np.where(active, c, a)
        width_l, width_r = bl - a, b - ar
        probe_l, probe_r = bl - _INVPHI * width_l, ar + _INVPHI * width_r
        far_l, far_r = width_l > tol, width_r > tol
        if not (far_l.all() and far_r.all()):
            probe_l = np.where(far_l, probe_l, 0.5 * (a + bl))
            probe_r = np.where(far_r, probe_r, 0.5 * (ar + b))
        f_probe, f_l, f_r = fn(np.stack([probe, probe_l, probe_r], axis=1)).T
        fc, fd = np.where(left, f_probe, fd), np.where(left, fc, f_probe)
        left = fc >= fd
        a, b = np.where(left, a, ar), np.where(left, bl, b)
        active = np.where(left, far_l, far_r)
        if not active.any():
            return 0.5 * (a + b), np.where(left, f_l, f_r)
        c, fc, d, fd = (
            np.where(left, probe_l, d),
            np.where(left, f_l, fd),
            np.where(left, c, probe_r),
            np.where(left, fc, f_r),
        )


def _record_scan(rates, cands, best_x, best_f):
    """The coarse scan's tie rule applied to one block of columns.

    Taken column by column, a rate above the carried best by more than
    RATE_TIE_TOL replaces it, so ties go to the smaller mu'. A row whose
    block maximum m (first at column k) does not beat its carried best
    keeps it, since no cell beats it either. When m does beat it, and also
    beats every cell below m by more than RATE_TIE_TOL, the result is
    (cands[k], m): every record before column k is the carried best or a
    cell below m, x -> x + RATE_TIE_TOL rounds monotonically, and no later
    cell exceeds m. So only the rows whose m beats their carried best take
    that near-tie test, and only rows it leaves open (a near-tie below m)
    take the column loop itself.
    """
    top = rates.argmax(axis=1)
    m = rates[np.arange(rates.shape[0]), top]
    new = m > best_f + RATE_TIE_TOL
    x = np.where(new, cands[top], best_x)
    f = np.where(new, m, best_f)
    rows = np.flatnonzero(new)  # only these can need the near-tie test
    if rows.size:
        block, m_new = (rates, m) if rows.size == m.size else (rates[rows], m[rows])
        below = np.where(block < m_new[:, None], block, -np.inf).max(axis=1)
        rows = rows[~(m_new > below + RATE_TIE_TOL)]
    for i in rows:
        xi, fi = best_x[i], best_f[i]
        for c, r in zip(cands, rates[i]):
            if r > fi + RATE_TIE_TOL:
                xi, fi = c, r
        x[i], f[i] = xi, fi
    return x, f


def _coarse_scan(rate_fn, rows: int, cfg: SweepConfig):
    """Every row's best coarse candidate and its rate, under the tie rule.

    rate_fn maps a (1, k) array of mu' to the (rows, k) rates of all rows
    at those mu', each finite and >= 0. The candidates go in blocks of at
    most _BLOCK_CELLS cells, and column 0 seeds each row's best as the
    scalar scan does. Each block's tie rule is applied by _record_scan in
    a few whole-array operations; a row it cannot settle exactly that way
    (a rate within RATE_TIE_TOL of the block's top) falls back to the
    column-by-column rule.
    """
    cands = np.array(mu_prime_candidates(cfg))
    width = max(1, _BLOCK_CELLS // max(1, rows))
    rates = rate_fn(cands[None, :width])
    best_x, best_f = _record_scan(rates, cands[:width], np.full(rows, cands[0]), rates[:, 0])
    for start in range(width, cands.size, width):
        block = cands[start:start + width]
        best_x, best_f = _record_scan(rate_fn(block[None, :]), block, best_x, best_f)
    return best_x, best_f


def _refine(rate_fn, best_x, best_f, cfg: SweepConfig, mu_prime_min):
    """Golden-section refinement of every row's best coarse cell, from its own mu_prime_min up.

    The rows are best_x's cells in C order, and mu_prime_min broadcasts
    against it. rate_fn maps a (rows, k) array of mu' to each row's rates at
    its own k points. A refined point replaces the coarse best only if it
    beats it by more than RATE_TIE_TOL, or ties it at a smaller mu', so a
    row's rate is never below any coarse candidate it examined.
    """
    a = np.maximum(mu_prime_min, best_x - cfg.mu_prime_coarse_step)
    b = np.minimum(cfg.mu_prime_max, best_x + cfg.mu_prime_coarse_step)
    refine = b - a > REFINE_TOL
    if refine.any():
        xr, fr = golden_section_maximize(rate_fn, a.ravel(), b.ravel(), REFINE_TOL)
        xr, fr = xr.reshape(a.shape), fr.reshape(a.shape)
        take = refine & (
            (fr > best_f + RATE_TIE_TOL)
            | ((np.abs(fr - best_f) <= RATE_TIE_TOL) & (xr < best_x))
        )
        best_x = np.where(take, xr, best_x)
        best_f = np.where(take, fr, best_f)
    return best_x, best_f


def _source(cfg: SweepConfig, source_kind: str):
    if source_kind not in _SOURCES:
        raise ValueError(f"unknown source kind {source_kind!r}")
    return _SOURCES[source_kind](cfg)


def evaluate(
    cfg: SweepConfig, ch: ChannelParams, src, mu_prime: float
) -> tuple[ObservedStatistics, SecurityBounds, float, bool]:
    """Forecast, bound, and rate one working point of source src; unordered intensities are refused first."""
    _check_ordering(cfg.mu, mu_prime)
    return _point_at(src, cfg.mu, mu_prime, overall_transmittance(ch), ch, None, cfg.f_ec)


class _Part(NamedTuple):
    """One configuration's rows at distances: terms a search and its report read, each computed once.

    cols holds each row term once, as a (rows, 1) column: eta, exact's
    (Y1, H(e1)) and, per source kind, its signal triple at mu (P_post, tY_mu,
    E_mu) and e1 mass. weights (per source kind, the source's at mu and u**2,
    _raw_y1's u2) and mu_prime_min: floats, or once _join has joined parts
    that differ in them, (rows, 1) columns and a 1-D array of rows.
    best_x and best_f: the coarse scan's best mu' and rate, (jobs, rows).
    """

    distances: list[float]
    cols: dict[str, tuple[np.ndarray, ...]]
    weights: dict[str, tuple]
    mu_prime_min: float | np.ndarray
    best_x: np.ndarray
    best_f: np.ndarray


def _part(cfg: SweepConfig, distances, jobs, shared: _Part | None = None) -> _Part:
    """cfg's coarse-scanned _Part at distances for (source kind, ideal) jobs; no ChannelParams is built.

    shared, a part of another mu at the same distances, lends eta and exact.
    The exact terms and each source kind's signal at mu take one EXACT call
    each over the eta column, so the columns have the scalar chain's bits.
    """
    ch = cfg.channel
    if shared is None:
        eta = np.array([fiber_transmittance(ch.alpha_db_per_km, d) * ch.eta_b for d in distances])[:, None]
        cols = {"eta": (eta,), "exact": _exact_single_photon(EXACT, ch, eta) if any(i for _, i in jobs) else ()}
    else:
        cols = {k: shared.cols[k] for k in ("eta", "exact")}
    best = np.empty((2, len(jobs), len(distances)))
    part = _Part(distances, cols, {}, cfg.mu_prime_min, *best)
    for kind in dict.fromkeys(kind for kind, ideal in jobs if not ideal):
        src = _source(cfg, kind)
        w = src.weights(FLOATS, cfg.mu)
        part.weights[kind] = (*w, w[4] ** 2)
        with np.errstate(all="ignore"):
            p, ty, e = src.signal(EXACT, cfg.mu, cols["eta"][0], ch)  # P_post is a float at a float mu
            cols[kind] = (np.full(ty.shape, p), ty, e, _e1_mass(w, e, ty, ch.d_b, ch.e_0))
    for c in _chunks(len(distances), jobs):
        scan = _coarse_scan(_jobs_rate(cfg, part, jobs, c), len(jobs) * (c.stop - c.start), cfg)
        best[:, :, c] = np.reshape(scan, (2, len(jobs), -1))
    return part


def _slice(part: _Part, rows: slice) -> _Part:
    """part's rows at rows; part is unjoined, so its weights and mu_prime_min are floats."""
    return part._replace(distances=part.distances[rows],
                         cols={k: tuple(c[rows] for c in v) for k, v in part.cols.items()},
                         best_x=part.best_x[:, rows], best_f=part.best_f[:, rows])


def _join(parts: list[_Part]) -> _Part:
    """What a search reads of parts, part after part, as one _Part.

    A value the parts share stays a float. A report reads distances part by
    part, so the joined part leaves them empty.
    """
    if len(parts) == 1:
        return parts[0]
    sizes = [len(p.distances) for p in parts]
    weights = {k: tuple(t[0] if len(set(t)) == 1 else np.repeat(t, sizes)[:, None]
                        for t in zip(*(p.weights[k] for p in parts))) for k in parts[0].weights}
    mu_prime_min = parts[0].mu_prime_min
    if any(p.mu_prime_min != mu_prime_min for p in parts):
        mu_prime_min = np.repeat([p.mu_prime_min for p in parts], sizes)
    cols = {k: tuple(np.concatenate(c) for c in zip(*(p.cols[k] for p in parts))) for k in parts[0].cols}
    best_x, best_f = (np.concatenate(b, axis=1) for b in zip(*((p.best_x, p.best_f) for p in parts)))
    return _Part([], cols, weights, mu_prime_min, best_x, best_f)


def _take(value, entries: slice):
    """A joined array's entries, or the float its parts share."""
    return value[entries] if isinstance(value, np.ndarray) else value


def _jobs_rate(cfg: SweepConfig, part: _Part, jobs, entries: slice):
    """One rate callable of part's rows at entries for every job, job after job.

    In the coarse scan every row sees the same (1, k) mu'; in the
    refinement the rows are the jobs' rows of entries, job after job. A
    call evaluates each source kind's signal, its weights at mu' and its
    _rate_terms once for the kind's adjacent jobs, each job slices its rows,
    and every job's rates, clamped at 0, fill one array. The search sees the
    scalar rates up to the last place of numpy's exp, log and square, and
    the sign of a zero.
    """
    ch, f, n = cfg.channel, cfg.f_ec, entries.stop - entries.start
    eta = part.cols["eta"][0][entries]
    runs = []  # per kind: its source, every job's eta, (ideal, terms) per job and weights at mu with u**2
    for kind, run in groupby(jobs, lambda job: job[0]):
        # a bounded job reads its kind's tY_mu and e1 mass, an ideal one exact's terms
        terms = [(ideal, [c[entries] for c in (part.cols["exact"] if ideal else part.cols[kind][1::2])])
                 for _, ideal in run]
        runs.append((_source(cfg, kind), np.concatenate([eta] * len(terms)), terms,
                     [_take(t, entries) for t in part.weights.get(kind, ())]))

    def rate(mu_prime):
        each, start = mu_prime.shape[0] > 1, 0
        out = np.empty((len(jobs) * n, mu_prime.shape[1]))
        with np.errstate(all="ignore"):
            for src, every_eta, terms, (*w_mu, u2) in runs:
                # refined, each job has n rows, after those of the jobs already in out
                x = mu_prime[start:start + len(terms) * n] if each else mu_prime
                _, ty, e = src.signal(ARRAYS, x, every_eta if each else eta, ch)
                signal = (ty, *_rate_terms(ty, ARRAYS.entropy(e), f), *src.weights(ARRAYS, x))
                for i, (ideal, (t1, t2)) in enumerate(terms):
                    # refined jobs read their own rows; coarse ones all read every row
                    ty_r, half_ty, leak, *w_r = ([_take(t, slice(i * n, (i + 1) * n)) for t in signal]
                                                 if each and len(terms) > 1 else signal)
                    out[start:start + n] = (
                        _benchmark_rate(ARRAYS, w_r, ty_r, (half_ty, leak), t1, t2) if ideal
                        else _search_rate(ARRAYS, w_mu, u2, w_r, ch.d_b, t1, t2, ty_r, (half_ty, leak)))
                    start += n
        return out

    return rate


def _chunks(n: int, jobs) -> list[slice]:
    """Slices of n entries whose rows of every job make at most _BLOCK_CELLS / 3, or one entry's."""
    size = max(1, _BLOCK_CELLS // (3 * len(jobs)))
    return [slice(lo, min(n, lo + size)) for lo in range(0, n, size)]


def _search(cfg: SweepConfig, parts: list[_Part], jobs) -> list[np.ndarray]:
    """The searched mu' per (job, entry) of every part, one (jobs, entries) array per part.

    _join joins the parts, and one golden-section pass in _chunks refines
    them all; a row's search never reads another row, so each picks the mu'
    it would pick alone.
    """
    joined = _join(parts)
    best_x = joined.best_x.copy()
    for c in _chunks(best_x.shape[1], jobs):
        rate = _jobs_rate(cfg, joined, jobs, c)
        best_x[:, c] = _refine(rate, best_x[:, c], joined.best_f[:, c], cfg, _take(joined.mu_prime_min, c))[0]
    return np.split(best_x, list(accumulate(len(p.distances) for p in parts[:-1])), axis=1)


def _report(cfg: SweepConfig, part: _Part, kind: str, entries: slice, mu_prime, ideal_mu_prime):
    """kind's records at part's entries (searched mu') and which of them stand, on whole arrays.

    bounds._row and _ideal_rate_at run on EXACT; ideal_mu_prime is None
    without benchmarks. A record stands where it has the scalar chain's
    bits (_row's row is plain and, with benchmarks, _ideal_rate_at's signal
    is defined) and passes the screen, so no value object is built for it.
    The caller runs the chain and the value classes on any other row, which
    may refuse it.
    """
    ch, f, mu, src = cfg.channel, cfg.f_ec, cfg.mu, _source(cfg, kind)
    eta = part.cols["eta"][0][entries, 0]
    p_mu, ty_mu, e_mu, e1_mass = [c[entries, 0] for c in part.cols[kind]]
    with np.errstate(all="ignore"):
        p, ty, e, plain, y1, delta1, e1, clamp_ok, rate, feasible = _row(
            EXACT, src, mu, mu_prime, eta, ch, (p_mu, ty_mu, e_mu), e1_mass, f)
        ideal = math.nan  # one object, so equal points compare equal
        if ideal_mu_prime is not None:
            exact = tuple(c[entries, 0] for c in part.cols["exact"])
            ideal, defined = _ideal_rate_at(EXACT, src, ideal_mu_prime, eta, ch, exact, f)
            plain = plain & defined
        y_mu, y = ty_mu / p_mu, ty / p
        # the screen: each test of ObservedStatistics, SecurityBounds and KeyRatePoint
        # that a plain row can fail. Plain implies E' in [0, 1]; the clamps put Y1 in
        # [0, 1], e1 in [0, 1/2] and the rate at >= 0, NaN at 0; ChannelParams refuses a
        # Y0 = d_b outside [0, 1), and _source a kind outside _SOURCES
        stands = plain & ~(rate > ideal + 1e-12)
        for c in (y_mu, y, ty_mu, ty, e_mu, delta1):
            stands &= (0.0 <= c) & (c <= 1.0)
    ideal = repeat(ideal) if ideal_mu_prime is None else ideal.tolist()
    values = [c.tolist() for c in (y_mu, y, e_mu, e, y1, delta1, e1, rate)]
    tail = [c.tolist() for c in (feasible, ty_mu, ty, clamp_ok)]
    return list(zip(part.distances[entries], repeat(kind), repeat(mu), mu_prime.tolist(), repeat(ch.d_b),
                    *values, ideal, *tail)), stands.tolist()


def _chain_record(cfg: SweepConfig, part: _Part, record: tuple, i: int, searched) -> tuple:
    """record, row i of part, through the scalar chain's row core and the value classes, which may refuse it."""
    distance, kind, mu, mu_prime, ideal = *record[:4], record[13]
    src, ch, f = _source(cfg, kind), cfg.channel, cfg.f_ec
    eta, *decoy = (c[i, 0].tolist() for c in part.cols["eta"] + part.cols[kind][:3])
    obs, bounds, rate, feasible = _point_at(src, mu, mu_prime, eta, ch, decoy, f)
    if cfg.include_ideal:
        exact = [c[i, 0].tolist() for c in part.cols["exact"]]
        ideal = _ideal_rate_at(FLOATS, src, float(searched[kind, True][i]), eta, ch, exact, f)[0]
    KeyRatePoint(distance, mu, mu_prime, rate, ideal, kind, bounds, obs, feasible)  # its tests alone
    return (distance, kind, mu, mu_prime, obs.y0, obs.y_mu, obs.y_mu_prime, obs.e_mu, obs.e_mu_prime,
            bounds.y1_lower, bounds.delta1, bounds.e1_upper, rate, ideal, feasible, obs.ty_mu, obs.ty_mu_prime,
            bounds.feasible)


def _records(cfgs, distances: list[float], kinds) -> list[tuple]:
    """The records of each configuration, one per distance per source kind, distance-major.

    A record is a point's 15 sweep.csv values in column order, then its
    tY_mu, tY_mu', and its bounds' own flag: what KeyRatePoint and its
    ObservedStatistics and SecurityBounds hold. Each configuration is one
    part of one search, which picks every mu' (bounded and, when enabled,
    ideal). _report then evaluates each source kind's records at those mu'
    on whole arrays, in the search's _chunks. A row that does not stand goes
    through the scalar chain and the value classes, in row order, before
    the next chunk, so every value and every error is the chain's.
    """
    jobs = [(kind, ideal) for kind in kinds for ideal in (False, True)[:1 + cfgs[0].include_ideal]]
    parts = [_part(cfgs[0], distances, jobs)]
    parts += [_part(cfg, distances, jobs, parts[0]) for cfg in cfgs[1:]]
    records = []
    for cfg, part, mu_primes in zip(cfgs, parts, _search(cfgs[0], parts, jobs)):
        searched = dict(zip(jobs, mu_primes))
        for c in _chunks(len(distances), jobs):
            reports = [_report(cfg, part, kind, c, searched[kind, False][c],
                               searched[kind, True][c] if cfg.include_ideal else None) for kind in kinds]
            chunk = chain.from_iterable(zip(*(recs for recs, _ in reports)))
            stands = chain.from_iterable(zip(*(ok for _, ok in reports)))
            for k, (record, ok) in enumerate(zip(chunk, stands)):
                records.append(record if ok else _chain_record(cfg, part, record, c.start + k // len(kinds), searched))
    return records


def _point(record: tuple) -> KeyRatePoint:
    """The KeyRatePoint of a record."""
    d, kind, mu, x, y0, y_mu, y, e_mu, e, y1, delta1, e1, rate, ideal, feasible, ty_mu, ty, clamp_ok = record
    # positional: binding nine keywords costs about half the constructor
    return KeyRatePoint(d, mu, x, rate, ideal, kind, SecurityBounds(y1, delta1, e1, clamp_ok),
                        ObservedStatistics(y0, y_mu, y, ty_mu, ty, e_mu, e), feasible)


def key_rate_point(cfg: SweepConfig, distance_km: float, source_kind: str) -> KeyRatePoint:
    """Fully evaluated sweep sample at one distance for one source kind."""
    return _point(_records((cfg,), [distance_km], (source_kind,))[0])


def sweep_records(cfg: SweepConfig, *more: SweepConfig) -> list[tuple]:
    """sweep_distances' points as records (see _records): what the CLI writes, with no value object built."""
    if any(getattr(c, f.name) != getattr(cfg, f.name) for c in more for f in fields(SweepConfig)
           if f.name not in ("mu", "mu_prime_min")):
        raise ValueError("configurations swept together may differ only in mu and mu_prime_min")
    return _records((cfg, *more), distance_grid(cfg), cfg.sources)


def sweep_distances(cfg: SweepConfig, *more: SweepConfig) -> list[KeyRatePoint]:
    """One KeyRatePoint per grid distance per requested source kind.

    The points of each configuration in more follow cfg's; they may differ
    from cfg only in mu and mu_prime_min, and one search serves them all.
    """
    return list(map(_point, sweep_records(cfg, *more)))


def _bisection_tree(lo: float, hi: float, levels: int) -> list[float]:
    """Every midpoint a 0.1 km bisection of [lo, hi] can probe in its next levels."""
    if levels == 0 or not hi - lo > 0.1:
        return []
    mid = 0.5 * (lo + hi)
    return [mid] + _bisection_tree(lo, mid, levels - 1) + _bisection_tree(mid, hi, levels - 1)


def _last_positive(coarse_rates: np.ndarray) -> int:
    """Index of the last positive coarse rate, or -1."""
    positive = np.flatnonzero(coarse_rates > 0.0)
    return int(positive[-1]) if positive.size else -1


def _seed(cfg: SweepConfig, src, grid: list[float]) -> int:
    """The last grid row whose rate at mu_prime_min is positive, or 0 if none is.

    mu_prime_min is the coarse scan's first candidate, so a positive cell
    here is a positive coarse rate up to the last digits: the decoy columns
    come from ARRAYS here, from EXACT in _part. The rows go from the grid
    end in blocks of _BLOCK_CELLS // 2, each block one signal call at mu and
    at mu_prime_min (on a leading axis), until a block has a positive cell.
    """
    ch, w_mu = cfg.channel, src.weights(FLOATS, cfg.mu)
    x = np.array([cfg.mu, cfg.mu_prime_min]).reshape(2, 1, 1)
    size = max(1, _BLOCK_CELLS // 2)
    for end in range(len(grid), 0, -size):
        lo = max(0, end - size)
        # fiber_transmittance's formula on the block's column: a guess needs no float bits
        eta = 10.0 ** (-ch.alpha_db_per_km * np.array(grid[lo:end])[:, None] / 10.0) * ch.eta_b
        with np.errstate(all="ignore"):
            _, (ty_mu, ty), (e_mu, e) = src.signal(ARRAYS, x, eta, ch)
            e1_mass = _e1_mass(w_mu, e_mu, ty_mu, ch.d_b, ch.e_0)
            rates = _search_rate(ARRAYS, w_mu, w_mu[4] ** 2, src.weights(ARRAYS, x[1]), ch.d_b, ty_mu, e1_mass, ty,
                                 _rate_terms(ty, ARRAYS.entropy(e), cfg.f_ec))
        k = _last_positive(rates[:, 0])
        if k >= 0:
            return lo + k
    return 0


def _searched_rows(cfg: SweepConfig, jobs, parts: list[_Part]) -> dict[float, tuple]:
    """One search of parts: each distance's (transmittance, decoy triple, e1 mass, searched mu')."""
    searched = {}
    for part, m in zip(parts, _search(cfg, parts, jobs)):
        eta, *decoy, e1_mass = (c[:, 0].tolist() for c in part.cols["eta"] + part.cols[jobs[0][0]])
        searched.update(zip(part.distances, zip(eta, zip(*decoy), e1_mass, m[0].tolist())))
    return searched


def max_secure_distance(cfg: SweepConfig, source_kind: str = "hsps") -> float | None:
    """Largest distance with a positive optimized rate, or None.

    The scalar rate at each grid point's searched mu' is judged backwards
    from the grid end, so the result is the last positive grid point, or
    the grid end when the rate is still positive there. Between that point
    and the next one a bisection refines the cut-off down to 0.1 km,
    judging the scalar rate only at the midpoints it reaches, from the
    rows the search read; bounds._positive_at judges without building the
    report's objects. Before any coarse scan, _seed finds the last row k'
    whose rate at mu_prime_min is positive. The grid from k' to its end
    is coarse-scanned from the end in chunks of the rows one rate call of
    every mu' candidate holds, up to the first chunk with a positive coarse
    rate, and then, if none has one, the rows below k' in such chunks. One
    search refines the rows from the last positive coarse row to the grid
    end, and the guess: every bisection midpoint of the next _BISECT_LEVELS
    levels after that row. Grid rows below them (the rest of that chunk,
    then each chunk further down) and a midpoint the guess did not cover,
    with every midpoint of its next _BISECT_LEVELS levels, are searched as
    one part each when the walk or bisection reaches them. A row's search
    never reads another row, so this returns exactly what probing one
    midpoint at a time would, whether or not the rate falls monotonically,
    and whatever k' is.
    """
    jobs = [(source_kind, False)]
    src = _source(cfg, source_kind)
    grid = distance_grid(cfg)
    if not grid:
        return None
    seed = _seed(cfg, src, grid)
    size = max(1, _BLOCK_CELLS // len(mu_prime_candidates(cfg)))
    # chunks from the grid end down to the seed row, then from the seed row down
    spans = [(max(floor, end - size), end) for floor, top in ((seed, len(grid)), (0, seed))
             for end in range(top, floor, -size)]
    chunks = (_part(cfg, grid[lo:end], jobs) for lo, end in spans)
    scanned = []  # parts from the chunk the scan stopped in to the grid end
    for part in chunks:
        scanned.insert(0, part)
        if _last_positive(part.best_f[0]) >= 0:
            break
    last = _last_positive(np.concatenate([part.best_f[0] for part in scanned]))  # a row of scanned[0], or -1
    rows = [d for part in scanned for d in part.distances]
    # the bisection midpoints of the bracket after the last positive coarse row
    tree = _bisection_tree(rows[last], rows[last + 1], _BISECT_LEVELS) if 0 <= last < len(rows) - 1 else []
    k = max(0, last)  # 0 when no rate is positive
    parts = [_slice(scanned[0], slice(k, None))] + scanned[1:]
    if tree:
        parts.append(_part(cfg, tree, jobs))
    searched = _searched_rows(cfg, jobs, parts)
    below = chain([_slice(scanned[0], slice(k))] if k else [], chunks)

    def positive(distance):
        eta, decoy, e1_mass, mu_prime = searched[distance]
        return _positive_at(src, cfg.mu, mu_prime, eta, cfg.channel, decoy, e1_mass, cfg.f_ec)

    last = len(grid) - 1
    while last >= 0:
        if grid[last] not in searched:
            searched.update(_searched_rows(cfg, jobs, [next(below)]))
        if positive(grid[last]):
            break
        last -= 1
    if last < 0:
        return None
    if last == len(grid) - 1:
        return grid[last]
    lo, hi = grid[last], grid[last + 1]
    while hi - lo > 0.1:
        mid = 0.5 * (lo + hi)
        if mid not in searched:
            missed = _bisection_tree(lo, hi, _BISECT_LEVELS)
            searched.update(_searched_rows(cfg, jobs, [_part(cfg, missed, jobs)]))
        if positive(mid):
            lo = mid
        else:
            hi = mid
    return lo
