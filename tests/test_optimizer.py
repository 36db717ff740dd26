"""The mu' search, tested through its public outputs.

sweep_distances, key_rate_point and max_secure_distance are checked
against the slow reference searches of tests/oracles.py. Counts come from
the sources' public signal method: each rate call of the search evaluates
each source's signal once on arrays (xp is ARRAYS; the report's calls on
EXACT and the scalar chain's on FLOATS are counted apart), the broadcast
shape of (mu', eta) is the call's rows and columns, a (rows, 2) mu' is
a golden-section opening, and a (2, 1, 1) mu' is a cut-off's seed. Three
private names stay as levers: _BLOCK_CELLS shrinks chunks, _last_positive
forces the cut-off's seed, walk and missed guesses, and _record_scan takes
the tie rule on synthetic tables. A cut-off's judge and a sweep's report
run one row text, bounds._row, with the scalar chain's plain-case test,
clamp test and rate clamp: the judge (bounds._positive_at, on floats) is
checked against bounds._point_at row by row, and every point of the
EDGE_SWEEPS against evaluate.
"""
import math
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np
import pytest

import decoy_hsps.bounds as bounds_module
from decoy_hsps.bounds import KeyRatePoint, SecurityBounds
import decoy_hsps.config as config_module
import decoy_hsps.optimizer as optimizer_module
from decoy_hsps.cli import main
from decoy_hsps.channel import ChannelParams, _click_probability, overall_transmittance
from decoy_hsps.config import MAX_GRID_POINTS, _grid_count, resolve_config
from decoy_hsps.numerics import FLOATS
from decoy_hsps.observables import ObservedStatistics
from decoy_hsps.sources import COHERENT, CoherentSource, TriggeredSource, _coincidence_sum, triggered_source
from decoy_hsps.optimizer import (
    ARRAYS,
    EXACT,
    RATE_TIE_TOL,
    SweepConfig,
    _record_scan,
    distance_grid,
    evaluate,
    golden_section_maximize,
    key_rate_point,
    max_secure_distance,
    mu_prime_candidates,
    sweep_distances,
)
from oracles import (
    golden_reference, record_scan_reference, scalar_rate, search_reference, serial_cutoff, source,
)

DEFAULT = SweepConfig()
HSPS = source(DEFAULT, "hsps")


def _cfg(**kwargs):
    return SweepConfig(**kwargs)


class SignalCall(NamedTuple):
    """One evaluation of a source's signal on arrays."""

    kind: str
    # (1, k) in a coarse block, (rows, k) in the golden section, and (2, 1, 1), mu
    # and mu_prime_min, in a cut-off's seed
    mu_prime: np.ndarray
    eta: np.ndarray  # the rows' transmittance column
    shape: tuple  # broadcast (rows, columns)
    signal: tuple  # signal's (P_post, tY', E')

    @property
    def opening(self):
        """Whether this is a golden section's opening call: two mu' per row."""
        return self.mu_prime.shape == (self.shape[0], 2)


@pytest.fixture
def spy(monkeypatch):
    """Every signal evaluation: the search's array calls in order, and the float and report calls per kind."""
    seen = SimpleNamespace(arrays=[], floats=Counter(), exact=Counter())
    for cls, kind in ((TriggeredSource, "hsps"), (CoherentSource, "wcs")):
        def signal(self, xp, x, eta, ch, _signal=cls.signal, _kind=kind):
            out = _signal(self, xp, x, eta, ch)
            if xp is FLOATS:
                seen.floats[_kind] += 1
            elif xp is EXACT:
                seen.exact[_kind] += 1
            else:
                seen.arrays.append(SignalCall(_kind, x, eta, np.broadcast_shapes(x.shape, eta.shape), out))
            return out
        monkeypatch.setattr(cls, "signal", signal)
    return seen


def _calls(spy, kind):
    return [c for c in spy.arrays if c.kind == kind]


def _openings(spy, kind):
    """Rows of each golden-section opening of kind, in order."""
    return [c.shape[0] for c in _calls(spy, kind) if c.opening]


def _coarse(spy, kind):
    """Shapes of kind's coarse blocks (and of one-row golden-section calls, which look alike)."""
    return [c.shape for c in _calls(spy, kind) if c.mu_prime.shape[0] == 1]


def _rate_cells(spy, jobs=1, kinds=1):
    """Cells of each rate call, whose kinds' signals come in turn.

    A coarse block's signal serves every job of its kind.
    """
    cells = [math.prod(c.shape) * (jobs if c.mu_prime.shape[0] == 1 else 1) for c in spy.arrays]
    return [sum(cells[i:i + kinds]) for i in range(0, len(cells), kinds)]


def _assert_reference(cfg, points):
    """Every point's mu', rate and ideal rate are the reference search's at its distance."""
    for p in points:
        x, f = search_reference(scalar_rate(cfg, p.distance_km, p.source_kind, False), cfg)
        assert (p.mu_prime, p.key_rate) == (x, f), (p.distance_km, p.source_kind)
        if cfg.include_ideal:
            ideal = search_reference(scalar_rate(cfg, p.distance_km, p.source_kind, True), cfg)[1]
            assert p.ideal_rate == ideal, (p.distance_km, p.source_kind)


class TestGrids:
    def test_distance_grid_inclusive(self):
        cfg = _cfg(dist_start_km=0.0, dist_stop_km=5.0, dist_step_km=1.0)
        assert distance_grid(cfg) == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]

    def test_distance_grid_empty_when_stop_before_start(self):
        cfg = _cfg(dist_start_km=10.0, dist_stop_km=5.0, dist_step_km=1.0)
        assert distance_grid(cfg) == []

    def test_mu_prime_candidates_cover_range_end(self):
        cfg = _cfg(mu_prime_min=0.06, mu_prime_max=0.105, mu_prime_coarse_step=0.01)
        cands = mu_prime_candidates(cfg)
        assert cands[0] == 0.06
        assert cands[-1] == pytest.approx(0.105)

    def test_degenerate_range_single_candidate(self):
        cfg = _cfg(mu_prime_min=0.3, mu_prime_max=0.3)
        assert mu_prime_candidates(cfg) == [0.3]
        p = key_rate_point(cfg, 30.0, "hsps")
        mu_prime, rate = p.mu_prime, p.key_rate
        assert mu_prime == 0.3
        assert rate == evaluate(cfg, cfg.channel.at_distance(30.0), HSPS, 0.3)[2]

    def test_grid_count_limit(self):
        assert _grid_count("dist_step_km", MAX_GRID_POINTS - 1.0, 1.0) == MAX_GRID_POINTS
        with pytest.raises(ValueError, match="dist_step_km"):
            _grid_count("dist_step_km", float(MAX_GRID_POINTS), 1.0)
        with pytest.raises(ValueError, match="dist_step_km"):
            _cfg(dist_step_km=1e-9)
        with pytest.raises(ValueError, match="mu_prime_coarse_step"):
            _cfg(mu_prime_coarse_step=1e-12)


class TestGoldenSection:
    def test_finds_parabola_peak(self):
        x, fx = golden_section_maximize(lambda x: -(x - 2.0) ** 2, [0.0], [5.0], 1e-6)
        assert x[0] == pytest.approx(2.0, abs=1e-5)
        assert fx[0] == pytest.approx(0.0, abs=1e-9)

    def test_degenerate_bracket(self):
        x, fx = golden_section_maximize(lambda x: x, [1.0], [1.0], 1e-4)
        assert x[0] == 1.0 and fx[0] == 1.0

    def test_invalid_bracket(self):
        with pytest.raises(ValueError):
            golden_section_maximize(lambda x: x, [2.0], [1.0], 1e-4)


class TestOptimizeMuPrime:
    def test_matches_dense_grid_argmax_at_50km(self):
        ch = DEFAULT.channel.at_distance(50.0)
        rate = lambda m: evaluate(DEFAULT, ch, HSPS, m)[2]
        n = int(round((DEFAULT.mu_prime_max - DEFAULT.mu_prime_min) / 1e-4))
        best_m, best_r = DEFAULT.mu_prime_min, rate(DEFAULT.mu_prime_min)
        for i in range(1, n + 1):
            m = DEFAULT.mu_prime_min + i * 1e-4
            r = rate(m)
            if r > best_r:
                best_m, best_r = m, r
        p = key_rate_point(DEFAULT, 50.0, "hsps")
        opt_m, opt_r = p.mu_prime, p.key_rate
        assert abs(opt_m - best_m) <= 1.01e-4
        assert opt_r >= best_r - 1e-12

    def test_dominates_hand_picked_candidates(self):
        opt_r = key_rate_point(DEFAULT, 50.0, "hsps").key_rate
        ch = DEFAULT.channel.at_distance(50.0)
        for m in (0.1, 0.3, 0.5, 0.9):
            assert opt_r >= evaluate(DEFAULT, ch, HSPS, m)[2]

    def test_regression_at_20km(self):
        p = key_rate_point(DEFAULT, 20.0, "hsps")
        mu_prime, rate = p.mu_prime, p.key_rate
        assert rate == pytest.approx(3.3562617547202195e-04, rel=1e-9)
        assert mu_prime == pytest.approx(0.2228, abs=2e-3)

    def test_no_positive_rate_reports_smallest_candidate(self):
        cfg = _cfg(channel=ChannelParams(eta_b=0.0))
        p = key_rate_point(cfg, 10.0, "hsps")
        mu_prime, rate = p.mu_prime, p.key_rate
        assert rate == 0.0
        assert mu_prime == cfg.mu_prime_min


class TestSweep:
    def test_empty_grid_gives_empty_sweep(self):
        cfg = _cfg(dist_start_km=10.0, dist_stop_km=5.0)
        assert sweep_distances(cfg) == []

    def test_point_layout_and_kinds(self):
        cfg = _cfg(dist_start_km=0.0, dist_stop_km=2.0, dist_step_km=1.0)
        points = sweep_distances(cfg)
        assert len(points) == 6
        assert [p.source_kind for p in points[:2]] == ["hsps", "wcs"]
        assert points[0].distance_km == points[1].distance_km == 0.0

    def test_deterministic(self):
        cfg = _cfg(dist_start_km=0.0, dist_stop_km=3.0, dist_step_km=1.0)
        assert sweep_distances(cfg) == sweep_distances(cfg)

    def test_rate_bounded_by_ideal(self):
        cfg = _cfg(dist_start_km=0.0, dist_stop_km=60.0, dist_step_km=20.0)
        for p in sweep_distances(cfg):
            assert p.key_rate <= p.ideal_rate + 1e-12

    def test_ideal_disabled_reports_nan(self):
        cfg = _cfg(dist_start_km=0.0, dist_stop_km=1.0, dist_step_km=1.0,
                   sources=("hsps",), include_ideal=False)
        points = sweep_distances(cfg)
        assert all(math.isnan(p.ideal_rate) for p in points)
        # every point holds the one NaN object, so equal points compare equal
        assert points == sweep_distances(cfg)

    def test_monotone_tail_after_cutoff(self):
        cfg = _cfg(dist_start_km=0.0, dist_stop_km=180.0, dist_step_km=20.0,
                   sources=("hsps",), include_ideal=False)
        rates = [p.key_rate for p in sweep_distances(cfg)]
        positive = [i for i, r in enumerate(rates) if r > 0]
        assert positive, "expected a secure region under default parameters"
        last = positive[-1]
        assert all(r == 0.0 for r in rates[last + 1:])

    def test_decoy_intensity_ordering_at_samples(self):
        for distance in (10.0, 50.0, 90.0):
            rates = []
            for mu in (0.01, 0.05, 0.10):
                cfg = _cfg(mu=mu, mu_prime_min=mu + 0.01)
                rates.append(key_rate_point(cfg, distance, "hsps").key_rate)
            assert rates[0] >= rates[1] >= rates[2] > 0

    def test_wcs_beats_hsps_at_short_distance(self):
        p_h = key_rate_point(DEFAULT, 20.0, "hsps")
        p_w = key_rate_point(DEFAULT, 20.0, "wcs")
        assert p_w.key_rate > p_h.key_rate > 0
        assert p_h.feasible and p_w.feasible


class TestMaxSecureDistance:
    def test_dead_channel_has_no_secure_distance(self):
        cfg = _cfg(channel=ChannelParams(eta_b=0.0),
                   dist_start_km=0.0, dist_stop_km=20.0, dist_step_km=10.0)
        assert max_secure_distance(cfg, "hsps") is None

    def test_cutoff_refined_between_grid_points(self):
        cfg = _cfg(dist_start_km=160.0, dist_stop_km=172.0, dist_step_km=1.0)
        cutoff = max_secure_distance(cfg, "hsps")
        assert cutoff is not None
        assert 160.0 <= cutoff < 172.0
        assert key_rate_point(cfg, cutoff, "hsps").key_rate > 0
        # refinement leaves at most 0.1 km of slack before the rate dies
        assert key_rate_point(cfg, cutoff + 0.11, "hsps").key_rate == 0.0

    def test_positive_through_grid_end_returns_end(self):
        cfg = _cfg(dist_start_km=0.0, dist_stop_km=30.0, dist_step_km=10.0)
        assert max_secure_distance(cfg, "hsps") == 30.0


CUTOFF_CASES = [
    ("c07 hsps 0.8", {}, "hsps"),
    ("c07 wcs", {}, "wcs"),
    ("c07 hsps 0.6", {"eta_a": 0.6}, "hsps"),
    ("step 0.37", {"dist_start_km": 0.3, "dist_step_km": 0.37}, "hsps"),
    ("step 7.3", {"dist_start_km": 0.3, "dist_step_km": 7.3}, "wcs"),
    ("step 13.7", {"dist_start_km": 0.3, "dist_step_km": 13.7}, "hsps"),
    ("step 60", {"dist_stop_km": 240.0, "dist_step_km": 60.0}, "hsps"),
    ("positive to the end", {"dist_stop_km": 30.0, "dist_step_km": 10.0}, "hsps"),
    ("dead channel", {"channel": ChannelParams(eta_b=0.0), "dist_stop_km": 20.0,
                      "dist_step_km": 10.0}, "hsps"),
    ("empty grid", {"dist_start_km": 10.0, "dist_stop_km": 5.0}, "hsps"),
    ("single point", {"dist_start_km": 150.0, "dist_stop_km": 150.0}, "wcs"),
    # the scan from the grid end crosses chunks of 86, 86, 86 and 8 rows
    ("step 0.05", {"dist_step_km": 0.05}, "wcs"),
    ("coarse step 0.001", {"mu_prime_coarse_step": 0.001}, "hsps"),
    ("d_b 1.7e-5 to 400 km", {"channel": ChannelParams(d_b=1.7e-5), "dist_stop_km": 400.0}, "hsps"),
    # the optimum sits on the lower mu' edge near the cut-off
    ("mu_prime_min 0.0501", {"mu_prime_min": 0.0501}, "hsps"),
]
CUTOFF_IDS = [c[0] for c in CUTOFF_CASES]


def _etas(cfg, distances):
    return sorted(overall_transmittance(cfg.channel.at_distance(d)) for d in distances)


class TestBatchedCutoff:
    @pytest.mark.parametrize("overrides, kind", [c[1:] for c in CUTOFF_CASES], ids=CUTOFF_IDS)
    def test_equals_serial_bisection(self, overrides, kind):
        cfg = _cfg(**overrides)
        assert max_secure_distance(cfg, kind) == serial_cutoff(cfg, kind)

    def test_c07_cutoffs(self):
        assert max_secure_distance(DEFAULT, "hsps") == 166.9375
        assert max_secure_distance(DEFAULT, "wcs") == 141.6875
        assert max_secure_distance(_cfg(eta_a=0.6), "hsps") == 166.0
        # the HSPS cut-offs nearest an arithmetic change: a grid past it, and
        # mu' on the lower edge of its range
        assert max_secure_distance(_cfg(dist_stop_km=400.0), "hsps") == 166.9375
        assert max_secure_distance(_cfg(mu_prime_min=0.0501), "hsps") == 167.5625

    @pytest.mark.parametrize("overrides, kind, calls, rows, scanned", [
        c[1:] + n for c, n in zip(CUTOFF_CASES[:3], [(9, 15, 15), (10, 40, 63), (9, 15, 15)])
    ], ids=CUTOFF_IDS[:3])
    def test_c07_cutoff_makes_one_refinement(self, spy, overrides, kind, calls, rows, scanned):
        cfg = _cfg(**overrides)
        cutoff = max_secure_distance(cfg, kind)
        grid = distance_grid(cfg)
        # the seed: all 181 rows at mu and mu_prime_min in 1 call; the rows from the
        # last one positive there to the grid end: 1 coarse call; the 15 guessed
        # midpoints: 1; one golden section of the grid rows from the last positive
        # coarse row to the grid end with the midpoints: 2 probes, then 10 steps two a
        # call (12 for WCS, whose rows reach inside the mu' range), the last carrying
        # the midpoints
        refined = rows + 15
        assert [c.shape for c in spy.arrays] == (
            [(2, 181, 1), (scanned, 95), (15, 95), (refined, 2)] + [(refined, 3)] * (calls - 4))
        assert spy.arrays[0].mu_prime.ravel().tolist() == [cfg.mu, cfg.mu_prime_min]
        assert max(_rate_cells(spy)) <= optimizer_module._BLOCK_CELLS
        assert spy.arrays[1].eta.ravel().tolist() == _etas(cfg, grid[-scanned:])[::-1]
        assert grid[-rows] == math.floor(cutoff)
        # the guessed midpoints are every one a 0.1 km bisection of the bracket
        # can probe: widths 1, 0.5, 0.25 and 0.125 exceed 0.1 km, four levels
        lo = math.floor(cutoff)
        assert sorted(spy.arrays[2].eta.ravel().tolist()) == _etas(cfg, [lo + i / 16 for i in range(1, 16)])

    def test_deep_bracket_falls_back_to_a_batch(self, spy):
        # the seed's last positive row is 120 km, so the scan covers 120-240 km; a 60 km
        # bracket needs 10 levels: the guessed midpoints hold 6, one batch the other 4;
        # the one search refines the grid rows from 120 km on with the guess
        cfg = _cfg(dist_stop_km=240.0, dist_step_km=60.0)
        assert max_secure_distance(cfg, "hsps") == 166.93359375
        assert spy.arrays[0].shape == (2, 5, 1)
        assert _coarse(spy, "hsps") == [(3, 95), (63, 95), (15, 95)]
        assert _openings(spy, "hsps") == [3 + 63, 15]
        midpoints = [120 + 60 * i / 64 for i in range(1, 64)]
        assert sorted(spy.arrays[2].eta.ravel().tolist()) == _etas(cfg, midpoints)

    @pytest.mark.parametrize("overrides, kind", [c[1:] for c in CUTOFF_CASES], ids=CUTOFF_IDS)
    def test_missed_guess_equals_serial_bisection(self, spy, monkeypatch, overrides, kind):
        cfg = _cfg(**overrides)
        serial = serial_cutoff(cfg, kind)
        spy.arrays.clear()
        # one row before the last positive coarse row: the guessed midpoints bisect
        # the bracket before the cut-off's
        last_positive = optimizer_module._last_positive
        monkeypatch.setattr(optimizer_module, "_last_positive", lambda rates: last_positive(rates) - 1)
        assert max_secure_distance(cfg, kind) == serial
        grid = distance_grid(cfg)
        # a grid step of at most 0.1 km leaves nothing to bisect
        bisects = serial is not None and serial != grid[-1] and cfg.dist_step_km > 0.1
        assert (len(_openings(spy, kind)) > 1) == bisects

    @pytest.mark.parametrize("block_cells, coarse, refined", [
        # scan chunks of 1 row in blocks of 50 candidates, the guessed midpoints in
        # blocks of 3; golden-section chunks of 16 rows
        (50, [[(1, 50), (1, 45)] * 15 + [(15, 3)] * 31 + [(15, 2)],
              [(1, 50), (1, 45)] * 40 + [(15, 3)] * 31 + [(15, 2)]], [[16, 14], [16, 16, 16, 7]]),
        # scan chunks of 6 rows from 180 km down to the seed's last positive row (166 km
        # for HSPS, 118 km for WCS); golden-section chunks of 200 rows
        (600, [[(6, 95)] * 2 + [(3, 95)] + [(15, 40)] * 2 + [(15, 15)],
               [(6, 95)] * 7 + [(15, 40)] * 2 + [(15, 15)]], [[30], [55]]),
    ])
    def test_chunk_limit_bounds_each_call(self, spy, monkeypatch, block_cells, coarse, refined):
        serial = [serial_cutoff(DEFAULT, kind) for kind in ("hsps", "wcs")]
        spy.arrays.clear()
        monkeypatch.setattr("decoy_hsps.optimizer._BLOCK_CELLS", block_cells)
        assert [max_secure_distance(DEFAULT, kind) for kind in ("hsps", "wcs")] == serial
        assert max(_rate_cells(spy)) <= block_cells
        assert [_coarse(spy, kind) for kind in ("hsps", "wcs")] == coarse
        openings = [_openings(spy, kind) for kind in ("hsps", "wcs")]
        assert openings == refined and max(map(max, openings)) <= block_cells // 3

    @pytest.mark.parametrize("overrides, kind", [c[1:] for c in CUTOFF_CASES], ids=CUTOFF_IDS)
    def test_missed_row_guess_equals_serial_bisection(self, monkeypatch, overrides, kind):
        cfg = _cfg(**overrides)
        serial = serial_cutoff(cfg, kind)
        # guess that each chunk's last row is positive: the scan stops at the
        # grid end's chunk, and the walk searches every row below it
        monkeypatch.setattr(optimizer_module, "_last_positive", lambda rates: len(rates) - 1)
        assert max_secure_distance(cfg, kind) == serial

    @pytest.mark.parametrize("case, seed_row, last_row, coarse, refined", [
        # one search crosses four chunks of the scan from the grid end down to the seed's
        # last positive row: 3 x 86 + 24 rows and the guess
        ("d_b 1.7e-5 to 400 km", None, False, [(86, 95)] * 3 + [(24, 95), (15, 95)], [3 * 86 + 24 + 15]),
        # the seed at the grid end: the walk passes 180 km, then searches the chunk below it
        ("c07 hsps 0.8", -1, True, [(1, 95), (1, 2)] + [(1, 3)] * 5 + [(86, 95), (15, 95)], [1, 86, 15]),
        # the seed at row 0: the walk passes 180 km, then searches the rest of the grid end's chunk
        ("c07 hsps 0.8", 0, True, [(86, 95), (1, 2)] + [(1, 3)] * 5 + [(15, 95)], [1, 85, 15]),
        # ... and then each chunk further down, until one holds the cut-off
        ("d_b 1.7e-5 to 400 km", 0, True, [(86, 95), (1, 2)] + [(1, 3)] * 5 + [(86, 95)] * 3 + [(15, 95)],
         [1, 85, 86, 86, 86, 15]),
    ])
    def test_walk_reaches_each_chunk_branch(self, spy, monkeypatch, case, seed_row, last_row, coarse, refined):
        _, overrides, kind = next(c for c in CUTOFF_CASES if c[0] == case)
        cfg = _cfg(**overrides)
        serial = serial_cutoff(cfg, kind)
        spy.arrays.clear()
        _force_guesses(monkeypatch, cfg, seed_row, last_row)
        assert max_secure_distance(cfg, kind) == serial
        assert _coarse(spy, kind) == coarse and _openings(spy, kind) == refined

    @pytest.mark.parametrize("overrides, kind", [c[1:] for c in CUTOFF_CASES], ids=CUTOFF_IDS)
    def test_any_seed_equals_serial_bisection(self, monkeypatch, overrides, kind):
        # the seed only guesses where to start the scan: forced to row 0, to the grid
        # end or to the first row past the cut-off, the cut-off stays the serial one
        cfg = _cfg(**overrides)
        serial, grid = serial_cutoff(cfg, kind), distance_grid(cfg)
        past = next((i for i, d in enumerate(grid) if serial is not None and d > serial), -1)
        for seed_row in (0, -1, past):
            with monkeypatch.context() as m:
                _force_guesses(m, cfg, seed_row)
                assert max_secure_distance(cfg, kind) == serial, seed_row


def _force_guesses(monkeypatch, cfg, seed_row=None, last_row=False):
    """Patch _last_positive: the seed's call over the whole grid returns seed_row (from
    the end when negative) unless it is None, and each later call returns the real last
    positive row or, with last_row, its part's last row."""
    real, seed = optimizer_module._last_positive, [seed_row]

    def forced(rates):
        if seed and seed.pop() is not None:
            assert len(rates) == len(distance_grid(cfg))  # the seed's one call
            return seed_row % len(rates)
        return len(rates) - 1 if last_row else real(rates)

    monkeypatch.setattr(optimizer_module, "_last_positive", forced)


@pytest.mark.parametrize("overrides, kind", [c[1:] for c in CUTOFF_CASES], ids=CUTOFF_IDS)
def test_cutoff_judge_equals_the_scalar_chain(monkeypatch, overrides, kind):
    # a cut-off judges its rows by bounds._positive_at, which builds no report object;
    # on every grid row and every midpoint between two, at the searched mu', at both
    # ends of the mu' range and at mu' = 800, it says what the scalar chain's rate says
    cfg = _cfg(**overrides, sources=(kind,), include_ideal=False)
    src, ch, step = source(cfg, kind), cfg.channel, cfg.dist_step_km
    mids = replace(cfg, dist_start_km=cfg.dist_start_km + step / 2, dist_stop_km=cfg.dist_stop_km - step / 2)
    point_at, handed, judged = bounds_module._point_at, [], 0
    monkeypatch.setattr(bounds_module, "_point_at", lambda *args: handed.append(args) or point_at(*args))
    for p in sweep_distances(cfg) + sweep_distances(mids):
        eta = overall_transmittance(ch.at_distance(p.distance_km))
        decoy = src.signal(FLOATS, cfg.mu, eta, ch)
        for mu_prime in (p.mu_prime, cfg.mu_prime_min, cfg.mu_prime_max, 800.0):
            args = (src, cfg.mu, mu_prime, eta, ch, decoy, cfg.f_ec)
            chain = point_at(*args)[2] > 0.0
            assert bounds_module._positive_at(*args) == chain, (p.distance_km, mu_prime)
            judged += 1
    # the rows at mu' = 800, outside the plain case, and only some, go through the chain
    assert 0 < len(handed) < judged or judged == 0
    assert all(args[2] == 800.0 for args in handed)


@pytest.mark.parametrize("kind", ["hsps", "wcs"])
def test_cutoff_judge_raises_the_chains_error(kind):
    # a channel with neither transmittance nor dark counts never clicks: the judge, the
    # chain and the cut-off all end with the forecast's error
    cfg = _cfg(channel=ChannelParams(eta_b=0.0, d_b=0.0), dist_stop_km=20.0, dist_step_km=10.0)
    src, ch = source(cfg, kind), cfg.channel
    args = (src, cfg.mu, cfg.mu_prime_min, 0.0, ch, src.signal(FLOATS, cfg.mu, 0.0, ch), cfg.f_ec)
    for judge in (bounds_module._point_at, bounds_module._positive_at, lambda *_: max_secure_distance(cfg, kind)):
        with pytest.raises(ValueError, match="^QBER undefined: forecast yield is zero$"):
            judge(*args)


class TestSweepConfigValidation:
    def test_mu_prime_range_must_exceed_mu(self):
        with pytest.raises(ValueError, match="mu_prime_min"):
            _cfg(mu=0.05, mu_prime_min=0.04)
        with pytest.raises(ValueError, match="mu_prime_max"):
            _cfg(mu=0.05, mu_prime_min=0.06, mu_prime_max=0.03)

    def test_other_invariants(self):
        with pytest.raises(ValueError):
            _cfg(dist_step_km=0.0)
        with pytest.raises(ValueError):
            _cfg(eta_a=0.0)
        with pytest.raises(ValueError):
            _cfg(sources=())
        with pytest.raises(ValueError):
            _cfg(sources=("laser",))
        with pytest.raises(ValueError, match="'hsps' is selected more than once"):
            _cfg(sources=("hsps", "hsps"))
        with pytest.raises(ValueError):
            _cfg(f_ec=0.5)

    def test_unknown_kind_in_a_search(self):
        with pytest.raises(ValueError, match="laser"):
            key_rate_point(DEFAULT, 0.0, "laser")
        with pytest.raises(ValueError, match="laser"):
            max_secure_distance(DEFAULT, "laser")


def test_optimal_ideal_rate_dominates_bounded_optimum():
    for distance in (0.0, 40.0, 80.0):
        p_h = key_rate_point(DEFAULT, distance, "hsps")
        p_w = key_rate_point(DEFAULT, distance, "wcs")
        assert p_h.ideal_rate >= p_h.key_rate
        assert p_w.ideal_rate >= p_w.key_rate


def test_evaluate_wcs_consistent_with_point():
    p = key_rate_point(DEFAULT, 30.0, "wcs")
    ch = DEFAULT.channel.at_distance(30.0)
    obs, bounds, rate, feasible = evaluate(DEFAULT, ch, COHERENT, p.mu_prime)
    assert rate == p.key_rate
    assert bounds == p.bounds
    assert obs == p.observables


# (overrides, sources): each default sweep, figure 1's joined sweep of three mu
# (mu as a list), and sweeps at the edges of the report's arrays
EDGE_SWEEPS = [
    ({}, "hsps,ideal"), ({}, "wcs,ideal"), ({"mu": [0.01, 0.05, 0.1]}, "hsps,ideal"),
    ({"mu": 1e-10}, "hsps,wcs,ideal"), ({"e_0": 1.0, "dist_stop_km": 1000.0}, "hsps,wcs,ideal"),
    ({"eta_a": 1e-4}, "hsps,wcs,ideal"), ({"eta_b": 0.0}, "hsps,wcs,ideal"), ({"d_b": 0.0}, "hsps,wcs,ideal"),
    ({"mu": 0.99}, "hsps,wcs,ideal"),
    ({"mu_prime_max": 800.0, "mu_prime_coarse_step": 1.0, "dist_stop_km": 10.0}, "hsps,wcs,ideal"),
    ({"alpha_db_per_km": 0.0}, "hsps,wcs,ideal"), ({"mu_prime_coarse_step": 0.5}, "hsps,wcs,ideal"),
    ({"mu": 1e-12}, "wcs"),
]


@pytest.mark.parametrize("overrides, sources", EDGE_SWEEPS, ids=[
    "hsps", "wcs", "figure 1", "mu 1e-10", "e_0 1 to 1000 km", "eta_a 1e-4", "eta_b 0", "d_b 0", "mu 0.99",
    "mu_prime_max 800", "alpha 0", "coarse step 0.5", "wcs mu 1e-12"])
def test_every_sweep_point_equals_the_scalar_chain(overrides, sources):
    # the report runs on arrays from the search's rows; evaluate and ideal_rate build
    # their own. Every point of the 1 km grid takes evaluate, as a rounding difference
    # shows on about one row in a thousand, and every 10 km the reference searches
    mus = overrides.get("mu", DEFAULT.mu)
    values = {"sources": sources, **{k: repr(v) for k, v in overrides.items() if k != "mu"}}
    cfgs = [resolve_config({**values, "mu": repr(mu)}) for mu in (mus if isinstance(mus, list) else [mus])]
    points, grid, kinds = sweep_distances(*cfgs), distance_grid(cfgs[0]), cfgs[0].sources
    n = len(grid) * len(kinds)
    assert len(points) == len(cfgs) * n
    for k, cfg in enumerate(cfgs):
        mine = points[k * n:(k + 1) * n]
        assert [p.distance_km for p in mine] == [d for d in grid for _ in kinds]
        for p in mine:
            ch = cfg.channel.at_distance(p.distance_km)
            obs, bounds, rate, feasible = evaluate(cfg, ch, source(cfg, p.source_kind), p.mu_prime)
            assert (p.observables, p.bounds, p.key_rate, p.feasible) == (obs, bounds, rate, feasible)
        # and every mu' is the reference search's, the ideal ones too
        _assert_reference(cfg, [p for p in mine if p.distance_km % 10.0 == 0.0])


def _chain_point(cfg, distance, kind):
    """The KeyRatePoint of the scalar chain at distance, at the reference searches' mu'."""
    ch, src = cfg.channel.at_distance(distance), source(cfg, kind)
    x = search_reference(scalar_rate(cfg, distance, kind, False), cfg)[0]
    ideal = search_reference(scalar_rate(cfg, distance, kind, True), cfg)[1]
    obs, bounds, rate, feasible = evaluate(cfg, ch, src, x)
    return KeyRatePoint(distance, cfg.mu, x, rate, ideal, kind, bounds, obs, feasible)


NO_CLICKS = ChannelParams(eta_b=0.0, d_b=0.0)


@pytest.mark.parametrize("cfg, chain", [
    # no dark counts and no transmission: a sweep takes the exact terms first
    (_cfg(channel=NO_CLICKS, dist_step_km=10.0),
     lambda cfg: bounds_module.ideal_rate(HSPS, 0.3, cfg.channel, cfg.f_ec)),
    (_cfg(channel=NO_CLICKS, dist_step_km=10.0, include_ideal=False),
     lambda cfg: evaluate(cfg, cfg.channel, HSPS, 0.3)),
    # a WCS rate above its benchmark by more than 1e-12 at 0 km
    (_cfg(mu=1e-12, sources=("wcs",), dist_step_km=10.0), lambda cfg: _chain_point(cfg, 0.0, "wcs")),
    # mu_prime_min 1e298, whose coherent v**2 overflows: no Y1 bound is defined
    (resolve_config({"mu_prime_max": "1e300", "mu_prime_coarse_step": "1e298", "dist_stop_km": "20"}),
     lambda cfg: evaluate(cfg, cfg.channel, COHERENT, cfg.mu_prime_min)),
], ids=["no clicks", "no clicks, no ideal", "wcs mu 1e-12", "mu' 1e298"])
def test_sweep_raises_the_chains_error(cfg, chain):
    with pytest.raises(ValueError) as refused:
        chain(cfg)
    with pytest.raises(ValueError) as swept:
        sweep_distances(cfg)
    assert str(swept.value) == str(refused.value)


def test_report_leaves_an_undefined_benchmark_signal_to_the_chain(monkeypatch):
    # with the shipped sources a benchmark's signal is undefined only where nothing
    # clicks, where the bounded row goes to the chain first; this coherent source's
    # QBER is NaN to the report alone above mu' = 0.48, between the bounded (~0.47)
    # and the ideal (~0.49) optima, so the report must leave those benchmark rows to
    # the chain, whose ideal rate the reference search gives. At 142 km the bounded
    # rate is 0 at mu_prime_min and the ideal optimum ~0.43: blind above 0.4, only the
    # benchmark row is undefined, and a zero key rate cannot exceed its benchmark
    for blind, cfg in ((0.48, _cfg(sources=("wcs",), dist_stop_km=40.0, dist_step_km=20.0)),
                       (0.4, _cfg(sources=("wcs",), dist_start_km=142.0, dist_stop_km=142.0))):
        class ReportBlind(CoherentSource):
            def signal(self, xp, x, eta, ch, blind=blind):
                p, ty, e = super().signal(xp, x, eta, ch)
                return p, ty, (np.where(x > blind, math.nan, e) if xp is EXACT else e)

        monkeypatch.setitem(config_module._SOURCES, "wcs", lambda cfg, source=ReportBlind(): source)
        _assert_reference(cfg, sweep_distances(cfg))


def _bent_source(mu, signal=None, weights=None):
    """A coherent source whose terms are bent alike on every namespace.

    signal maps (xp, x == mu, P_post, tY, E) to the bent triple; weights maps
    (xp, x > mu, g, 1/g) to the bent (g, 1/g).
    """
    class Bent(CoherentSource):
        def signal(self, xp, x, eta, ch):
            out = super().signal(xp, x, eta, ch)
            return out if signal is None else signal(xp, x == mu, *out)

        def weights(self, xp, x):
            g, inv_g, *rest = super().weights(xp, x)
            return (g, inv_g, *rest) if weights is None else (*weights(xp, x > mu, g, inv_g), *rest)

    return Bent()


# Each breaks one test that a value class makes of a sweep row, and no other, and
# expects its message. All but E' and tY_mu = 0 leave the row plain, so only the
# report's screen sends it to the chain; the tY_mu' case keeps the elimination's
# tY_mu' / g(mu') by bending 1/g(mu') too. tY_mu = 0 leaves the row's values in
# range, but raw Y1 < 0 and a negative error mass make raw e1 -inf: the row is
# not plain, and the chain refuses it.
SCREEN_BREAKS = {
    "y_mu": (dict(signal=lambda xp, at_mu, p, ty, e: (xp.where(at_mu, ty / 2.0, p), ty, e)), "y_mu must be in"),
    "y_mu_prime": (dict(signal=lambda xp, at_mu, p, ty, e: (xp.where(at_mu, p, ty / 2.0), ty, e)),
                   "y_mu_prime must be in"),
    "ty_mu": (dict(signal=lambda xp, at_mu, p, ty, e: (xp.where(at_mu, 1e4 * p, p), xp.where(at_mu, 1e4 * ty, ty), e)),
              "ty_mu must be in"),
    "ty_mu_prime": (dict(signal=lambda xp, at_mu, p, ty, e: (xp.where(at_mu, p, 1e4 * p),
                                                             xp.where(at_mu, ty, 1e4 * ty), e),
                         weights=lambda xp, at_mu_prime, g, inv_g: (g, xp.where(at_mu_prime, inv_g / 1e4, inv_g))),
                    "ty_mu_prime must be in"),
    "e_mu": (dict(signal=lambda xp, at_mu, p, ty, e: (p, ty, xp.where(at_mu, 1.5, e))), "e_mu must be in"),
    "e_mu_prime nan": (dict(signal=lambda xp, at_mu, p, ty, e: (p, ty, xp.where(at_mu, e, math.nan))),
                       "e_mu_prime must be in"),
    "delta1": (dict(weights=lambda xp, at_mu_prime, g, inv_g: (-g, inv_g)), "delta1 must be in"),
    "delta1 nan": (dict(weights=lambda xp, at_mu_prime, g, inv_g: (g * math.nan, inv_g)), "delta1 must be in"),
    "key_rate": ({}, "key_rate .* exceeds ideal benchmark"),
    "not plain": (dict(signal=lambda xp, at_mu, p, ty, e: (p, xp.where(at_mu, 0.0 * ty, ty), e)), "QBER undefined"),
}


@pytest.mark.parametrize("broken", SCREEN_BREAKS)
def test_cli_refuses_what_the_value_classes_refuse(broken, monkeypatch, tmp_path, capsys):
    # the CLI writes records without value objects, yet exits 1 with the message of the
    # value class a row breaks, as sweep_distances raises it; at mu = 1e-12 the 0 km WCS
    # rate tops its benchmark by more than 1e-12 with no source bent
    bends, message = SCREEN_BREAKS[broken]
    values = {"sources": "wcs,ideal", "dist_stop_km": "0", "mu": "1e-12" if broken == "key_rate" else "0.05"}
    monkeypatch.setitem(config_module._SOURCES, "wcs", lambda cfg: _bent_source(cfg.mu, **bends))
    with pytest.raises(ValueError, match="^" + message) as refused:
        sweep_distances(resolve_config(values))
    argv = ["sweep", "--out", str(tmp_path)] + [a for item in values.items() for a in ("--override", "%s=%s" % item)]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {refused.value}\n"


def test_figure2_builds_no_value_object(monkeypatch, tmp_path):
    # the CLI writes the report's records; only a library caller gets value objects
    built = Counter()
    for cls in (KeyRatePoint, ObservedStatistics, SecurityBounds):
        def init(self, *args, _init=cls.__init__, _name=cls.__name__):
            built[_name] += 1
            _init(self, *args)
        monkeypatch.setattr(cls, "__init__", init)
    assert main(["figure", "2", "--out", str(tmp_path)]) == 0
    assert built == Counter()
    assert len(sweep_distances(resolve_config({"mu": "0.05"}))) == 2 * 181
    assert built == Counter({"KeyRatePoint": 2 * 181, "ObservedStatistics": 2 * 181, "SecurityBounds": 2 * 181})


@pytest.mark.xfail(strict=True, reason="at mu = 1e-10 the Y1 numerator and e1's error mass cancel against "
                   "the vacuum term, so WCS rows certify more than the truth")
def test_small_mu_sweep_is_sound():
    # no feasible row may beat its benchmark and no Y1 bound may exceed the true
    # single-photon yield; at mu = 1e-10, 101 and 66 WCS rows still do
    cfg = resolve_config({"mu": "1e-10"})
    ch = cfg.channel
    points = sweep_distances(cfg)
    over_ideal = [p for p in points if p.feasible and p.key_rate > p.ideal_rate]
    over_y1 = [p for p in points
               if p.bounds.y1_lower > _click_probability(1, ch, overall_transmittance(ch.at_distance(p.distance_km)))]
    assert (len(over_ideal), len(over_y1)) == (0, 0)


def _count_exact(monkeypatch):
    calls = Counter()

    def counted_exact(*args, _exact=bounds_module._exact_single_photon):
        calls["exact"] += 1
        return _exact(*args)

    for module in (optimizer_module, bounds_module):
        monkeypatch.setattr(module, "_exact_single_photon", counted_exact)
    return calls


def test_figure2_sweep_computes_each_row_term_once(spy, monkeypatch):
    # the exact terms and decoy triples once per distance, one array signal per source
    # and rate call, and no channel per distance
    calls = _count_exact(monkeypatch)
    built = []
    at_distance = ChannelParams.at_distance
    monkeypatch.setattr(ChannelParams, "at_distance", lambda self, d: built.append(d) or at_distance(self, d))
    points = sweep_distances(_cfg(sources=("hsps", "wcs"), include_ideal=True))
    assert len(points) == 2 * 181
    assert calls["exact"] == 181 and built == []
    for kind in ("hsps", "wcs"):
        assert spy.floats[kind] == 181  # the decoy triple per distance
        assert spy.exact[kind] == 2  # the report's signal at the bounded and the ideal mu', one chunk
        assert len(_calls(spy, kind)) == 16  # rate calls
        assert _openings(spy, kind) == [2 * 181]
    assert [c.kind for c in spy.arrays] == ["hsps", "wcs"] * 16


def test_every_reported_rate_is_the_float_chains():
    # every reported rate and flag is the scalar chain's rate_and_feasibility of
    # the point's own observables and bounds, whose fields are Python floats
    points = sweep_distances(DEFAULT)
    assert len(points) == 2 * 181
    for p in points:
        obs, bounds = p.observables, p.bounds
        args = (obs.ty_mu_prime, obs.e_mu_prime, bounds.delta1, bounds.e1_upper, p.key_rate, p.ideal_rate)
        assert all(type(x) is float for x in args) and type(p.feasible) is bool
        assert (p.key_rate, p.feasible) == bounds_module.rate_and_feasibility(obs, bounds, DEFAULT.f_ec)


# ---------------------------------------------------------------------------
# several decoy intensities in one sweep: per-mu coarse scans, one refinement

FIGURE1_MUS = (0.01, 0.05, 0.1)
# np.exp differs from math.exp at 0.037 and at -0.01 (numpy 2.4), so the coherent
# source's weights at mu must come from floats; 0.28 is a third mu apart from both
ROUNDING_MUS = (0.01, 0.037, 0.28)


def _mu_cfgs(mus, **kwargs):
    return [_cfg(mu=mu, **kwargs) for mu in mus]


def _same_call(got, want, rows=slice(None)):
    """Whether got's rows took want's mu' probes and saw the same signal, bit for bit."""
    return got.mu_prime[rows].tobytes() == want.mu_prime.tobytes() and all(
        g[rows].tobytes() == w.tobytes() for g, w in zip(got.signal[1:], want.signal[1:]))


def _split_at_opening(calls):
    """A sweep's calls of one kind: its coarse blocks, then its golden section from the opening on."""
    start = [c.opening for c in calls].index(True)
    return calls[:start], calls[start:]


def _assert_joined_search_is_each_mu_alone(spy, cfgs):
    """A sweep of cfgs together equals one sweep per cfg, and each row of its one search probes as alone."""
    alone = []
    for cfg in cfgs:
        spy.arrays.clear()
        alone.append((sweep_distances(cfg), list(spy.arrays)))
    spy.arrays.clear()
    # every field of every point, mu-major: mu, mu', rates, bounds, observables, flags
    assert sweep_distances(*cfgs) == [p for points, _ in alone for p in points]
    n, jobs = len(distance_grid(cfgs[0])), 1 + cfgs[0].include_ideal
    for kind in cfgs[0].sources:
        coarse, golden = _split_at_opening(_calls(spy, kind))
        own = [_split_at_opening([c for c in calls if c.kind == kind]) for _, calls in alone]
        # each mu's own coarse scan, then one golden section as long as the longest alone
        own_coarse = [c for calls, _ in own for c in calls]
        assert len(coarse) == len(own_coarse) and all(map(_same_call, coarse, own_coarse))
        assert sum(c.opening for c in golden) == 1 and len(golden) == max(len(g) for _, g in own)
        # the joined rows are job-major, then mu-major; each row probes as alone
        for i, (_, own_golden) in enumerate(own):
            rows = np.concatenate([np.arange(n) + (j * len(cfgs) + i) * n for j in range(jobs)])
            assert all(_same_call(got, want, rows) for got, want in zip(golden, own_golden)), cfgs[i].mu


@pytest.mark.parametrize("include_ideal", [True, False], ids=["ideal", "no ideal"])
@pytest.mark.parametrize("sources", [("hsps",), ("wcs",), ("hsps", "wcs"), ("wcs", "hsps")],
                         ids=["hsps", "wcs", "hsps+wcs", "wcs+hsps"])
def test_figure1_sweep_equals_one_sweep_per_mu(spy, sources, include_ideal):
    cfgs = _mu_cfgs(FIGURE1_MUS, sources=sources, include_ideal=include_ideal)
    _assert_joined_search_is_each_mu_alone(spy, cfgs)
    rows = 3 * (1 + include_ideal) * 181
    assert [_openings(spy, kind) for kind in sources] == [[rows]] * len(sources)


@pytest.mark.parametrize("sources, include_ideal", [
    (("hsps", "wcs"), True), (("wcs",), True), (("hsps",), False)])
def test_rounding_sensitive_mus_search_as_each_mu_alone(spy, sources, include_ideal):
    cfgs = _mu_cfgs(ROUNDING_MUS, sources=sources, include_ideal=include_ideal,
                    dist_stop_km=170.0, dist_step_km=2.0)
    _assert_joined_search_is_each_mu_alone(spy, cfgs)


def test_figure1_makes_one_refinement_pass(spy, monkeypatch, tmp_path):
    # 5 coarse blocks per mu and one golden section of 1 + 6 calls, against
    # 3 x 19 calls and 3 x 181 exact terms for three sweeps
    calls = _count_exact(monkeypatch)
    assert main(["figure", "1", "--out", str(tmp_path)]) == 0
    assert len(spy.arrays) == 22 and calls["exact"] == 181
    assert len(_openings(spy, "hsps")) == 1


def test_configurations_swept_together_differ_only_in_mu():
    with pytest.raises(ValueError, match="differ only in mu and mu_prime_min"):
        sweep_distances(_cfg(mu=0.05), _cfg(mu=0.1, eta_a=0.6))
    with pytest.raises(ValueError, match="differ only"):
        sweep_distances(_cfg(), _cfg(dist_stop_km=90.0))
    # mu_prime_min may differ, derived or given
    cfgs = [_cfg(mu=0.05, dist_stop_km=30.0), _cfg(mu=0.02, mu_prime_min=0.2, dist_stop_km=30.0)]
    assert sweep_distances(*cfgs) == sweep_distances(cfgs[0]) + sweep_distances(cfgs[1])


@pytest.mark.parametrize("block_cells", [50, 1000, 1 << 13])
def test_rows_too_many_for_one_chunk_are_refined_in_chunks(spy, monkeypatch, block_cells):
    # chunks of 4, 83 and 682 entries (4 jobs each) over the 3 x 91 joined entries
    cfgs = _mu_cfgs(FIGURE1_MUS, sources=("hsps", "wcs"), dist_step_km=2.0)
    alone = [p for cfg in cfgs for p in sweep_distances(cfg)]
    monkeypatch.setattr("decoy_hsps.optimizer._BLOCK_CELLS", block_cells)
    spy.arrays.clear()
    assert sweep_distances(*cfgs) == alone
    assert len(_openings(spy, "hsps")) == -(-273 // (block_cells // 12))


@pytest.mark.parametrize("block_cells", [50, 379])
def test_chunks_split_parts_in_the_middle(spy, monkeypatch, block_cells):
    # figure 1's 3 x 181 entries in chunks of 8 or 63, across the parts' ends at 181 and 362;
    # the c07 cut-offs' 15 grid rows and 15 midpoints in chunks of 16 or 126 rows
    cfgs = _mu_cfgs(FIGURE1_MUS, sources=("hsps",))
    alone = [p for cfg in cfgs for p in sweep_distances(cfg)]
    serial = [serial_cutoff(DEFAULT, kind) for kind in ("hsps", "wcs")]
    monkeypatch.setattr("decoy_hsps.optimizer._BLOCK_CELLS", block_cells)
    spy.arrays.clear()
    assert sweep_distances(*cfgs) == alone
    size = block_cells // 6
    assert 181 % size and 362 % size
    assert _openings(spy, "hsps") == [2 * min(size, 543 - lo) for lo in range(0, 543, size)]
    assert [max_secure_distance(DEFAULT, kind) for kind in ("hsps", "wcs")] == serial


def test_search_evaluates_exp_on_arrays_only(monkeypatch):
    # the search takes every source's weights at mu on floats, so numpy's exp,
    # which differs from math's in the last place, never meets a float mu
    seen = []
    monkeypatch.setattr(ARRAYS, "exp", lambda x: seen.append(type(x)) or np.exp(x))
    sweep_distances(*_mu_cfgs(ROUNDING_MUS, sources=("wcs",), dist_step_km=10.0))
    max_secure_distance(DEFAULT, "wcs")
    assert seen and set(seen) == {np.ndarray}


# ---------------------------------------------------------------------------
# the lockstep search against the per-distance scalar search it replaces

class TestLockstepSearch:
    @pytest.mark.parametrize("kind", ["hsps", "wcs"])
    @pytest.mark.parametrize("case", ["every 5 km", "cut-off region", "one-row calls"])
    def test_mu_prime_identical_to_scalar_search(self, case, kind):
        if case == "one-row calls":
            # one-row calls report the scalar rate at the same mu'
            _assert_reference(DEFAULT, [key_rate_point(DEFAULT, float(d), kind) for d in range(0, 181, 20)])
        else:
            # every 5th default distance, or the cut-off region at 1 km, of a sweep of both kinds
            cfg = _cfg(dist_step_km=5.0) if case == "every 5 km" else _cfg(dist_start_km=160.0, dist_stop_km=170.0)
            _assert_reference(cfg, [p for p in sweep_distances(cfg) if p.source_kind == kind])

    @pytest.mark.parametrize("kind", ["hsps", "wcs"])
    @pytest.mark.parametrize("distance", [0.0, 90.0, 166.0, 175.0])
    def test_single_distance_sweep_matches_scalar_search(self, spy, kind, distance):
        # one row a job, on either side of each cut-off: one coarse block, then one
        # golden section of the bounded and the ideal row
        cfg = _cfg(dist_start_km=distance, dist_stop_km=distance, sources=(kind,))
        points = sweep_distances(cfg)
        assert [c.shape for c in spy.arrays[:2]] == [(1, 95), (2, 2)]
        assert _openings(spy, kind) == [2]
        _assert_reference(cfg, points)
        cutoff = {"hsps": 166.9375, "wcs": 141.6875}[kind]
        assert (points[0].key_rate > 0.0) == (distance <= cutoff)

    @pytest.mark.parametrize("kind", ["hsps", "wcs"])
    @pytest.mark.parametrize("mu_range", [(0.06, 0.12), (0.5, 1.0), (0.3, 0.3)])
    def test_clamped_and_degenerate_ranges_match_scalar_search(self, kind, mu_range):
        # the optimum (~0.2-0.5) lies above, below, or on the whole range, so the
        # golden section's brackets are clamped at the range's ends
        cfg = _cfg(mu_prime_min=mu_range[0], mu_prime_max=mu_range[1])
        points = [key_rate_point(cfg, d, kind) for d in (0.0, 40.0, 80.0, 120.0, 165.0)]
        _assert_reference(cfg, points)
        # up to 120 km mu' sits on the edge the optimum lies beyond
        edge = mu_range[1] if mu_range[1] < 0.2 else mu_range[0]
        assert [p.mu_prime for p in points[:4]] == [edge] * 4
        assert all(mu_range[0] <= p.mu_prime <= mu_range[1] for p in points)

    # 4 cells: one row a chunk (3 would end its coarse blocks 2 wide, which reads as an opening)
    @pytest.mark.parametrize("block_cells", [4, 50, 3 * 95 + 94])
    def test_blocks_bound_each_call_and_leave_mu_prime_unchanged(self, spy, monkeypatch, block_cells):
        cfg = _cfg(dist_step_km=5.0, sources=("hsps",), include_ideal=False)
        whole = [p.mu_prime for p in sweep_distances(cfg)]
        monkeypatch.setattr("decoy_hsps.optimizer._BLOCK_CELLS", block_cells)
        spy.arrays.clear()
        assert [p.mu_prime for p in sweep_distances(cfg)] == whole
        assert max(_rate_cells(spy)) <= block_cells
        # a sweep scans before it refines: every row at every candidate once, in
        # chunks of at most block_cells rows, then one opening per chunk
        coarse = [c.shape for c in _split_at_opening(spy.arrays)[0]]
        assert sum(map(math.prod, coarse)) == len(whole) * 95
        assert max(rows for rows, _ in coarse) <= block_cells
        assert sum(_openings(spy, "hsps")) == len(whole)

    def test_dead_channel_sweep_pins_every_row(self):
        cfg = _cfg(channel=ChannelParams(eta_b=0.0), dist_start_km=0.0,
                   dist_stop_km=40.0, dist_step_km=10.0)
        points = sweep_distances(cfg)
        assert len(points) == 10
        for p in points:
            assert p.mu_prime == cfg.mu_prime_min
            assert p.key_rate == 0.0 and p.ideal_rate == 0.0

    def test_sweep_matches_one_row_calls(self):
        cfg = _cfg(dist_start_km=0.0, dist_stop_km=170.0, dist_step_km=17.0)
        for p in sweep_distances(cfg):
            one = key_rate_point(cfg, p.distance_km, p.source_kind)
            assert (p.mu_prime, p.key_rate) == (one.mu_prime, one.key_rate)
            assert p.ideal_rate == one.ideal_rate

    @pytest.mark.parametrize("cfg", [
        DEFAULT,
        _cfg(mu_prime_min=0.06, mu_prime_max=0.12),
        _cfg(channel=ChannelParams(alpha_db_per_km=0.25, e_d=0.05)),
    ], ids=["default", "clamped range", "lossier channel"])
    @pytest.mark.parametrize("block_cells", [None, 25])
    def test_stacked_sweep_matches_scalar_search(self, monkeypatch, cfg, block_cells):
        # both sources' bounded and ideal rows in one search, in small chunks or not
        if block_cells is not None:
            monkeypatch.setattr("decoy_hsps.optimizer._BLOCK_CELLS", block_cells)
        cfg = replace(cfg, dist_step_km=10.0)
        _assert_reference(cfg, sweep_distances(cfg))


class TestStackedSearch:
    @pytest.mark.parametrize("cfg", [
        _cfg(dist_stop_km=170.0, dist_step_km=17.0),
        _cfg(dist_stop_km=170.0, dist_step_km=17.0, include_ideal=False),
        _cfg(mu_prime_min=0.5, mu_prime_max=1.0, dist_step_km=17.0),
        _cfg(channel=ChannelParams(eta_b=0.0), dist_step_km=17.0),
    ], ids=["default", "no ideal", "clamped range", "dead channel"])
    @pytest.mark.parametrize("order", [1, -1], ids=["hsps first", "wcs first"])
    def test_sweep_equals_one_sweep_per_kind_and_job(self, spy, cfg, order):
        cfg = replace(cfg, sources=cfg.sources[::order])
        points = sweep_distances(cfg)
        assert [p.source_kind for p in points[:2]] == list(cfg.sources)
        # one search, with each kind's bounded and ideal rows
        rows = (1 + cfg.include_ideal) * len(points) // 2
        assert [_openings(spy, kind) for kind in cfg.sources] == [[rows]] * 2
        for kind in cfg.sources:
            mine = [p for p in points if p.source_kind == kind]
            assert mine == sweep_distances(replace(cfg, sources=(kind,)))
            bounded = sweep_distances(replace(cfg, sources=(kind,), include_ideal=False))
            assert [p.mu_prime for p in mine] == [p.mu_prime for p in bounded]

    @pytest.mark.parametrize("block_cells", [3, 7, 25, 50, 1 << 13])
    def test_chunks_bound_each_call(self, spy, monkeypatch, block_cells):
        # chunks of up to 1, 1, 2, 4 and 682 distances, each with the rows of all 4 jobs; a
        # chunk holds at least one distance's rows, so 3 and 7 cells give 4 rows
        cfg = _cfg(dist_step_km=20.0)
        whole = sweep_distances(cfg)
        monkeypatch.setattr("decoy_hsps.optimizer._BLOCK_CELLS", block_cells)
        spy.arrays.clear()
        assert sweep_distances(cfg) == whole
        rows = 4 * max(1, block_cells // 12)
        assert max(_openings(spy, "hsps")) == min(rows, 4 * 10) // 2
        assert max(_rate_cells(spy, jobs=2, kinds=2)) <= max(block_cells, 12)
        for kind in ("hsps", "wcs"):
            coarse = [c.shape for c in _calls(spy, kind) if c.mu_prime.shape[0] == 1]
            assert sum(map(math.prod, coarse)) == 10 * 95


# ---------------------------------------------------------------------------
# the coarse scan's tie rule, on rates that are finite and >= 0

def test_rate_cores_give_finite_nonnegative_rates_on_extreme_cells():
    # the search reads no NaN: bounds' two rate cores clamp every cell, also at
    # zero, subnormal and dark-free signals whose bounds divide 0 by 0
    mu_prime = np.array([[0.06, 0.3, 1.0, 50.0, 700.0]])
    etas = [0.0, 5e-324, 1e-300, 1e-9, 0.03, 1.0]
    for ch in (DEFAULT.channel, ChannelParams(d_b=0.0), ChannelParams(d_b=0.0, e_d=0.0)):
        exact = [bounds_module._exact_single_photon(ch, e) if e or ch.d_b else (0.0, 1.0) for e in etas]
        y1, h_e1 = (np.array(c)[:, None] for c in zip(*exact))
        for kind in ("hsps", "wcs"):
            src = source(DEFAULT, kind)
            w_mu = src.weights(FLOATS, DEFAULT.mu)
            decoy = [src.signal(FLOATS, DEFAULT.mu, e, ch) for e in etas]
            ty_mu = np.array([[ty] for _, ty, _ in decoy])
            e1_mass = np.array([[bounds_module._e1_mass(w_mu, e, ty, ch.d_b, ch.e_0)] for _, ty, e in decoy])
            with np.errstate(all="ignore"):
                _, ty, e = src.signal(ARRAYS, mu_prime, np.array(etas)[:, None], ch)
                w = src.weights(ARRAYS, mu_prime)
                h_e, f = ARRAYS.entropy(e), DEFAULT.f_ec
                rates = [bounds_module._search_rate(ARRAYS, w_mu, w, ch.d_b, ty_mu, e1_mass, ty, h_e, f),
                         bounds_module._benchmark_rate(ARRAYS, w, ty, h_e, f, y1, h_e1)]
            assert ch.d_b or np.isnan(e).any()  # the dark-free channels' empty cells
            for rate in rates:
                assert rate.shape == (len(etas), mu_prime.size)
                assert np.isfinite(rate).all() and (rate >= 0.0).all(), (kind, ch)


# Offsets from a row's top rate, in units of RATE_TIE_TOL.
NEAR_TIES = (0.0, 0.5, 1.0, 2.0, 3.0)


def _scan_rows(rng, width):
    """Rate rows and carried bests that exercise every branch of the tie rule.

    Rows at 1e-6, 1 and 1e3 (where RATE_TIE_TOL is below half an ulp) have
    a top cell, cells near-tied with it on either side, and carried bests
    near it; then come all-zero rows.
    """
    tol = RATE_TIE_TOL
    rows, bests = [], []
    for scale in (1e-6, 1.0, 1e3):
        for _ in range(30):
            row = scale * rng.uniform(0.0, 1.0, width)
            top = scale * rng.uniform(1.0, 2.0)
            cols = rng.permutation(width)[:3]
            row[cols[0]] = top
            for c in cols[1:]:
                row[c] = top + rng.choice([-1.0, 1.0]) * rng.choice(NEAR_TIES) * tol
            if scale == 1e3 and width > 3:
                row[cols[-1] - 1] = np.nextafter(top, rng.choice([-np.inf, np.inf]))
            rows.append(row)
            bests.append(rng.choice([
                0.0, top, float(row.min()) - scale,
                top + rng.choice([-1.0, 1.0]) * rng.choice(NEAR_TIES) * tol,
            ]))
    for best in (0.0, 1e-16):
        rows.append(np.zeros(width))
        bests.append(best)
    return np.array(rows), np.array(bests)


class TestRecordScan:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("width", [1, 2, 7, 16])
    def test_equals_column_loop(self, seed, width):
        rng = np.random.default_rng(seed)
        rates, best_f = _scan_rows(rng, width)
        cands = 0.06 + 0.01 * np.arange(width)
        best_x = np.full(best_f.size, 0.05)
        x, f = _record_scan(rates, cands, best_x, best_f)
        ref_x, ref_f = record_scan_reference(rates, cands, best_x, best_f)
        assert x.tobytes() == ref_x.tobytes()
        assert f.tobytes() == ref_f.tobytes()

    @pytest.mark.parametrize("improving", ["none", "some", "all"])
    def test_only_improving_rows_take_the_tie_test(self, improving):
        rates, best_f = _scan_rows(np.random.default_rng(5), 9)
        top = rates.max(axis=1)
        if improving == "none":
            best_f = top + 1.0
        elif improving == "all":
            best_f = np.full(best_f.size, -1.0)
        new = top > best_f + RATE_TIE_TOL
        assert {"none": not new.any(), "some": 0 < new.sum() < new.size, "all": new.all()}[improving]
        cands = 0.06 + 0.01 * np.arange(rates.shape[1])
        best_x = np.full(best_f.size, 0.05)
        x, f = _record_scan(rates, cands, best_x, best_f)
        ref_x, ref_f = record_scan_reference(rates, cands, best_x, best_f)
        assert x.tobytes() == ref_x.tobytes()
        assert f.tobytes() == ref_f.tobytes()

    def test_exact_and_near_ties(self):
        tol = RATE_TIE_TOL
        cands = np.array([0.1, 0.2, 0.3, 0.4])
        rates = np.array([
            [0.5, 1.0, 1.0, 0.2],                    # exact tie: the first wins
            [0.5, 1.0 - 0.5 * tol, 1.0, 0.2],        # within TOL: the earlier wins
            [0.5, 1.0 - 3.0 * tol, 1.0, 0.2],        # beyond TOL: the later wins
            [1e3, np.nextafter(1e3, np.inf), 0.0, 0.0],  # TOL below half an ulp
        ])
        best_f = np.array([0.0, 0.0, 0.0, 0.0])
        x, f = _record_scan(rates, cands, np.full(4, 0.05), best_f)
        assert x.tolist() == [0.2, 0.2, 0.3, 0.2]
        assert f.tolist() == [1.0, 1.0 - 0.5 * tol, 1.0, np.nextafter(1e3, np.inf)]

    @pytest.mark.parametrize("width", [1, 3, 4, 50])
    def test_best_carried_across_blocks(self, width):
        # column 0 seeds each row's best, which then passes from block to block
        rates, _ = _scan_rows(np.random.default_rng(7), 21)
        cands = 0.1 + 0.02 * np.arange(21)
        seed = np.full(rates.shape[0], cands[0]), rates[:, 0]
        x, f = seed
        for start in range(0, 21, width):
            x, f = _record_scan(rates[:, start:start + width], cands[start:start + width], x, f)
        ref_x, ref_f = record_scan_reference(rates, cands, *seed)
        assert x.tobytes() == ref_x.tobytes()
        assert f.tobytes() == ref_f.tobytes()


class TestTransmittanceOnlyInputs:
    def test_search_transmittance_is_the_channels(self, spy):
        cfg = _cfg(channel=ChannelParams(alpha_db_per_km=0.23, eta_b=0.11), dist_step_km=7.0,
                   sources=("hsps",), include_ideal=False)
        sweep_distances(cfg)
        want = [overall_transmittance(cfg.channel.at_distance(d)) for d in distance_grid(cfg)]
        coarse = [c for c in spy.arrays if c.mu_prime.shape[0] == 1]
        assert coarse and all(c.eta.ravel().tolist() == want for c in coarse)

    def test_default_cutoff_builds_few_channels(self, monkeypatch):
        built = []
        at_distance = ChannelParams.at_distance

        def counted(self, distance_km):
            built.append(distance_km)
            return at_distance(self, distance_km)

        monkeypatch.setattr(ChannelParams, "at_distance", counted)
        assert max_secure_distance(DEFAULT, "hsps") == 166.9375
        # the 15 grid rows judged from 180 km down and the 4 midpoints the
        # bisection reaches go through the row core, which builds no channel
        assert built == []


class TestWcsGainCap:
    def test_evaluate_far_above_the_optimum_returns(self):
        # e^(-eta*mu') underflows against d_b: the uncapped gain exceeds 1
        obs, bounds, rate, feasible = evaluate(DEFAULT, DEFAULT.channel, COHERENT, 800.0)
        assert obs.y_mu_prime == obs.ty_mu_prime == 1.0
        assert 0.0 < obs.e_mu_prime < 0.5
        assert bounds.y1_lower == 0.0 and not bounds.feasible
        assert rate == 0.0 and not feasible

    def test_search_over_huge_intensities_completes(self):
        cfg = _cfg(mu_prime_min=700.0, mu_prime_max=800.0)
        p = key_rate_point(cfg, 0.0, "wcs")
        assert (p.mu_prime, p.key_rate) == (700.0, 0.0)


class TestTriggeredYieldCap:
    # heavy dark counts at both detectors: the additive yield passes 1
    CFG = _cfg(eta_a=1.0, d_a=0.5, channel=ChannelParams(alpha_db_per_km=0.0, eta_b=1.0, d_b=0.5))

    def test_evaluate_with_heavy_dark_counts_returns(self):
        ch = self.CFG.channel
        obs, bounds, rate, feasible = evaluate(self.CFG, ch, triggered_source(1.0, 0.5), 50.0)
        p_post = 0.5 / 51.0 + 50.0 / 51.0
        assert obs.y_mu_prime == 1.0 and obs.ty_mu_prime == p_post
        # the QBER stays the error share of the uncapped yield
        coincidences = _coincidence_sum(50.0, 1.0, 1.0)
        uncapped = 0.5 * 0.5 / 51.0 + 0.5 * 50.0 / 51.0 + coincidences
        assert uncapped > p_post
        assert obs.e_mu_prime == pytest.approx(
            (0.5 * 0.5 * p_post + ch.e_d * coincidences) / uncapped, rel=1e-14)
        assert rate == 0.0 and not feasible

    def test_array_path_caps_like_the_scalar_path(self):
        ch = self.CFG.channel
        xs = [0.06, 1.0, 10.0, 50.0]
        src = TriggeredSource(eta_a=1.0, d_a=0.5)
        p_arr, ty_arr, e_arr = src.signal(ARRAYS, np.array(xs)[:, None], np.array([[1.0]]), ch)
        for i, x in enumerate(xs):
            assert (p_arr[i, 0], ty_arr[i, 0], e_arr[i, 0]) == src.signal(FLOATS, x, 1.0, ch)
        assert ty_arr[-1, 0] == p_arr[-1, 0]
        assert ty_arr[0, 0] < p_arr[0, 0]

    def test_search_and_sweep_over_capped_intensities_complete(self):
        cfg = replace(self.CFG, mu_prime_min=1.0, mu_prime_max=60.0, mu_prime_coarse_step=1.0,
                      dist_stop_km=2.0)
        p = key_rate_point(cfg, 0.0, "hsps")
        assert (p.mu_prime, p.key_rate) == (1.0, 0.0)
        assert p.ideal_rate == 0.0
        assert len(sweep_distances(cfg)) == 3 * 2


# Functions of the lockstep golden-section tests, on floats and arrays alike.
GOLDEN_FUNCTIONS = {
    "parabola": lambda x: -((x - 0.3001) * (x - 0.3001)),
    "falling": lambda x: -x,  # every step keeps [a, d]
    "rising": lambda x: x,  # every step keeps [c, b]
    "flat": lambda x: 0.0 * x,  # every comparison ties
    "nan above 0.30002": lambda x: np.where(x > 0.30002, np.nan, x),  # every comparison with NaN fails
}


class TestLockstepGoldenSection:
    def test_array_brackets_equal_elementwise_scalar_calls(self):
        # brackets from 4 wide down to 0; the last function is flat, so ties
        peaks = np.array([0.3, 1.7, -0.5, 2.0, 0.9, 0.25, 0.5])
        scale = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0])
        a = np.array([0.0, 1.0, -1.0, 2.0, 0.0, 0.2, 0.0])
        b = np.array([1.0, 5.0, 0.0, 2.0, 0.95, 0.20005, 1.0])

        def fn(x):
            return scale[:, None] * -((x - peaks[:, None]) * (x - peaks[:, None]))

        x, fx = golden_section_maximize(fn, a, b, 1e-4)
        for i in range(peaks.size):
            scalar = lambda v, p=peaks[i], s=scale[i]: s * -((v - p) * (v - p))
            xi, fi = golden_section_maximize(scalar, a[i:i + 1], b[i:i + 1], 1e-4)
            expected = (float(xi[0]), float(fi[0]))
            assert (x[i], fx[i]) == expected
            assert expected == golden_reference(scalar, float(a[i]), float(b[i]), 1e-4)

    def test_invalid_array_bracket(self):
        with pytest.raises(ValueError, match="invalid bracket"):
            golden_section_maximize(lambda x: x, np.array([0.0, 2.0]), np.array([1.0, 1.0]), 1e-4)

    @pytest.mark.parametrize("name", list(GOLDEN_FUNCTIONS))
    @pytest.mark.parametrize("a, width, parity", [
        # a wide row, rows frozen from the start (widths 0, 5e-5 and 1e-4) and
        # rows that freeze after 3 and 12 of the wide row's 20 steps
        ([0.0, 0.25, 0.3, 0.2, 0.29, 0.3], [1.0, 0.0, 3e-4, 5e-5, 0.02, 1e-4], 0),
        # 3, 1 and 2 steps
        ([0.3, 0.3, 0.29995], [3e-4, 1.5e-4, 2e-4], 1),
        # nothing to step: one call of the midpoints
        ([0.3, 0.1], [0.0, 5e-5], 0),
    ], ids=["even", "odd", "frozen"])
    def test_two_steps_a_call_equal_scalar_search(self, name, a, width, parity):
        f = GOLDEN_FUNCTIONS[name]
        a = np.array(a)
        b = a + np.array(width)
        shapes = []
        x, fx = golden_section_maximize(lambda p: shapes.append(p.shape) or f(p), a, b, 1e-4)
        steps = 0
        for i in range(a.size):
            points = []
            scalar = lambda v: points.append(v) or float(f(np.float64(v)))
            xr, fr = golden_reference(scalar, float(a[i]), float(b[i]), 1e-4)
            assert x[i] == xr and (fx[i] == fr or math.isnan(fx[i]) and math.isnan(fr))
            steps = max(steps, len(points) - 3)  # 2 opening probes, one a step, the midpoint
        assert steps % 2 == parity
        calls = 1 + -(-steps // 2)
        assert shapes == ([(a.size, 2)] + [(a.size, 3)] * (calls - 1) if steps else [(a.size, 1)])


def test_array_entropy_equals_masked_formula():
    p = np.concatenate([[0.0, 1.0, 5e-324, 1.0 - 2.0**-53, 0.5, np.nan],
                        np.random.default_rng(5).uniform(0.0, 1.0, 1000)])
    with np.errstate(all="ignore"):
        h = -p * np.log2(p) - (1.0 - p) * np.log2(1.0 - p)
        masked = np.where((p == 0.0) | (p == 1.0), 0.0, h)
    got = ARRAYS.entropy(p)
    assert ((got == masked) | np.isnan(got) & np.isnan(masked)).all()
    assert got[:2].tolist() == [0.0, 0.0] and math.isnan(got[5])
