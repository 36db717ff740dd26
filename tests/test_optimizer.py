import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import decoy_hsps.bounds as bounds_module
import decoy_hsps.optimizer as optimizer_module
from decoy_hsps.bounds import ideal_rate
from decoy_hsps.cli import main
from decoy_hsps.channel import ChannelParams, overall_transmittance
from decoy_hsps.config import MAX_GRID_POINTS, _grid_count
from decoy_hsps.numerics import FLOATS
from decoy_hsps.sources import CoherentSource, TriggeredSource, _coincidence_sum
from decoy_hsps.optimizer import (
    ARRAYS,
    RATE_TIE_TOL,
    SweepConfig,
    _BISECT_LEVELS,
    _array_entropy,
    _bisection_tree,
    _record_scan,
    _source,
    distance_grid,
    evaluate,
    golden_section_maximize,
    key_rate_point,
    max_secure_distance,
    mu_prime_candidates,
    sweep_distances,
)
from oracles import reference_jobs_rate

DEFAULT = SweepConfig()
HSPS = _source(DEFAULT, "hsps")
WCS = _source(DEFAULT, "wcs")


def _cfg(**kwargs):
    return SweepConfig(**kwargs)


def _searched_mu_primes(cfg, distances, jobs):
    """The searched mu' at every distance for every (source kind, ideal) job."""
    return _searched_parts([cfg], distances, jobs)[0]


def _searched_parts(cfgs, distances, jobs):
    """One search of one part per configuration, as a sweep of them all makes it."""
    parts = [optimizer_module._scan(cfg, r, jobs) for cfg, r in zip(cfgs, _mu_rows(cfgs, distances, jobs))]
    return [mu_primes.tolist() for mu_primes in optimizer_module._search(cfgs[0], parts, jobs)]


def _mu_rows(cfgs, distances, jobs):
    """Each configuration's rows, as a sweep of them all builds them."""
    rows = [optimizer_module._rows(cfgs[0], distances, jobs)]
    return rows + [optimizer_module._rows(cfg, distances, jobs, rows[0]) for cfg in cfgs[1:]]


def _maximize(rate_fn, rows, cfg):
    """_coarse_scan, then _refine from cfg's mu_prime_min: one configuration's search of rate_fn."""
    best_x, best_f = optimizer_module._coarse_scan(rate_fn, rows, cfg)
    return optimizer_module._refine(rate_fn, best_x, best_f, cfg, cfg.mu_prime_min)


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


def _serial_cutoff(cfg, kind):
    """Forward grid scan, then a bisection that probes one midpoint per search."""
    grid = distance_grid(cfg)
    channels = [cfg.channel.at_distance(d) for d in grid]
    mu_primes = _searched_mu_primes(cfg, grid, [(kind, False)])[0]
    src = _source(cfg, kind)
    last_positive = None
    first_zero_after = None
    for distance, ch, mu_prime in zip(grid, channels, mu_primes):
        if evaluate(cfg, ch, src, mu_prime)[2] > 0.0:
            last_positive = distance
            first_zero_after = None
        elif last_positive is not None and first_zero_after is None:
            first_zero_after = distance
    if last_positive is None:
        return None
    if first_zero_after is None:
        return last_positive
    lo, hi = last_positive, first_zero_after
    while hi - lo > 0.1:
        mid = 0.5 * (lo + hi)
        if key_rate_point(cfg, mid, kind).key_rate > 0.0:
            lo = mid
        else:
            hi = mid
    return lo


def _spy_cutoff_search(monkeypatch):
    """Record every rate call's cells, every refinement's rows and every search's part sizes."""
    cells, refined, searches = [], [], []
    rate_array = optimizer_module._rate_array
    refine = optimizer_module._refine
    search = optimizer_module._search

    def counted_rate_array(*args):
        rate = rate_array(*args)

        def counted(mu_prime):
            rates = rate(mu_prime)
            cells.append(rates.size)
            return rates

        return counted

    def counted_refine(rate_fn, best_x, best_f, cfg, mu_prime_min):
        refined.append(best_x.size)
        return refine(rate_fn, best_x, best_f, cfg, mu_prime_min)

    def counted_search(cfg, parts, jobs):
        searches.append([len(rows.eta) for rows, _, _ in parts])
        return search(cfg, parts, jobs)

    monkeypatch.setattr(optimizer_module, "_rate_array", counted_rate_array)
    monkeypatch.setattr(optimizer_module, "_refine", counted_refine)
    monkeypatch.setattr(optimizer_module, "_search", counted_search)
    return cells, refined, searches


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


class TestBatchedCutoff:
    @pytest.mark.parametrize("overrides, kind", [c[1:] for c in CUTOFF_CASES],
                             ids=[c[0] for c in CUTOFF_CASES])
    def test_equals_serial_bisection(self, overrides, kind):
        cfg = _cfg(**overrides)
        assert max_secure_distance(cfg, kind) == _serial_cutoff(cfg, kind)

    def test_c07_cutoffs(self):
        assert max_secure_distance(DEFAULT, "hsps") == 166.9375
        assert max_secure_distance(DEFAULT, "wcs") == 141.6875
        assert max_secure_distance(_cfg(eta_a=0.6), "hsps") == 166.0
        # the HSPS cut-offs nearest an arithmetic change: a grid past it, and
        # mu' on the lower edge of its range
        assert max_secure_distance(_cfg(dist_stop_km=400.0), "hsps") == 166.9375
        assert max_secure_distance(_cfg(mu_prime_min=0.0501), "hsps") == 167.5625

    @pytest.mark.parametrize("overrides, kind, calls, rows", [
        c[1:] + n for c, n in zip(CUTOFF_CASES[:3], [(8, 15), (9, 40), (8, 15)])
    ], ids=[c[0] for c in CUTOFF_CASES[:3]])
    def test_c07_cutoff_makes_one_refinement(self, monkeypatch, overrides, kind, calls, rows):
        cells, refined, searches = _spy_cutoff_search(monkeypatch)
        cfg = _cfg(**overrides)
        cutoff = max_secure_distance(cfg, kind)
        # the grid end's 86 rows: 1 coarse call; tree: 1; joint golden section: 2
        # probes, then 10 steps two a call (12 for WCS, whose rows reach inside the
        # mu' range), the last call carrying the midpoints
        assert len(cells) == calls
        assert max(cells) <= optimizer_module._BLOCK_CELLS
        # one search of two parts: the grid rows from the last positive coarse
        # row to the grid end, and that row's 15 guessed midpoints
        assert searches == [[rows, 15]] and refined == [rows + 15]
        assert distance_grid(cfg)[-rows] == math.floor(cutoff)

    def test_deep_bracket_falls_back_to_a_batch(self, monkeypatch):
        cells, refined, searches = _spy_cutoff_search(monkeypatch)
        # a 60 km bracket needs 10 levels: the guessed tree holds 6, one batch the other 4;
        # the one search refines the grid rows from 120 km on
        max_secure_distance(_cfg(dist_stop_km=240.0, dist_step_km=60.0), "hsps")
        assert refined == [3 + 63, 15]
        assert searches == [[3, 63], [15]]

    @pytest.mark.parametrize("overrides, kind", [c[1:] for c in CUTOFF_CASES],
                             ids=[c[0] for c in CUTOFF_CASES])
    def test_missed_guess_equals_serial_bisection(self, monkeypatch, overrides, kind):
        cfg = _cfg(**overrides)
        serial = _serial_cutoff(cfg, kind)
        guess = optimizer_module._guessed_tree
        # the bracket one grid step before the guessed one
        monkeypatch.setattr(optimizer_module, "_guessed_tree",
                            lambda grid, rates: guess(grid, np.append(rates[1:], 0.0)))
        _, _, searches = _spy_cutoff_search(monkeypatch)
        assert max_secure_distance(cfg, kind) == serial
        grid = distance_grid(cfg)
        # a grid step of at most 0.1 km leaves nothing to bisect
        bisects = serial is not None and serial != grid[-1] and cfg.dist_step_km > 0.1
        assert (len(searches) > 1) == bisects

    @pytest.mark.parametrize("block_cells, searches, refined", [
        # scan chunks of 1 row; golden-section chunks of 16 rows
        (50, [[1] * 15 + [15], [1] * 40 + [15]], [16, 14, 16, 16, 16, 7]),
        # scan chunks of 6 rows from 180 km down; golden-section chunks of 200 rows
        (600, [[3, 6, 6, 15], [4] + [6] * 6 + [15]], [30, 55]),
    ])
    def test_chunk_limit_bounds_each_call(self, monkeypatch, block_cells, searches, refined):
        serial = [_serial_cutoff(DEFAULT, kind) for kind in ("hsps", "wcs")]
        monkeypatch.setattr("decoy_hsps.optimizer._BLOCK_CELLS", block_cells)
        cells, refined_rows, searched = _spy_cutoff_search(monkeypatch)
        assert [max_secure_distance(DEFAULT, kind) for kind in ("hsps", "wcs")] == serial
        assert max(cells) <= block_cells
        assert searched == searches
        assert refined_rows == refined and max(refined_rows) <= block_cells // 3

    @pytest.mark.parametrize("overrides, kind", [c[1:] for c in CUTOFF_CASES],
                             ids=[c[0] for c in CUTOFF_CASES])
    def test_missed_row_guess_equals_serial_bisection(self, monkeypatch, overrides, kind):
        cfg = _cfg(**overrides)
        serial = _serial_cutoff(cfg, kind)
        # guess that each chunk's last row is positive: the scan stops at the
        # grid end's chunk, and the walk searches every row below it
        monkeypatch.setattr(optimizer_module, "_last_positive", lambda rates: len(rates) - 1)
        assert max_secure_distance(cfg, kind) == serial

    @pytest.mark.parametrize("case, guess_last_row, searches", [
        # one search crosses four chunks of the scan from the grid end
        ("d_b 1.7e-5 to 400 km", False, [[24, 86, 86, 86, 15]]),
        # the walk passes 180 km, then searches the rest of the grid end's chunk
        ("c07 hsps 0.8", True, [[1], [85], [15]]),
        # ... and then each chunk further down, until one holds the cut-off
        ("d_b 1.7e-5 to 400 km", True, [[1], [85], [86], [86], [86], [15]]),
    ])
    def test_walk_reaches_each_chunk_branch(self, monkeypatch, case, guess_last_row, searches):
        _, overrides, kind = next(c for c in CUTOFF_CASES if c[0] == case)
        cfg = _cfg(**overrides)
        serial = _serial_cutoff(cfg, kind)
        if guess_last_row:
            monkeypatch.setattr(optimizer_module, "_last_positive", lambda rates: len(rates) - 1)
        _, _, searched = _spy_cutoff_search(monkeypatch)
        assert max_secure_distance(cfg, kind) == serial
        assert searched == searches

    def test_bisection_tree_holds_the_serial_midpoints(self):
        tree = _bisection_tree(166.0, 167.0, _BISECT_LEVELS)
        # widths 1, 0.5, 0.25 and 0.125 exceed 0.1 km: four full levels
        assert len(tree) == 15 == len(set(tree))
        assert tree[0] == 166.5 and tree[1] == 166.25 and tree[-1] == 0.5 * (166.875 + 167.0)
        assert len(_bisection_tree(0.0, 60.0, _BISECT_LEVELS)) == 63
        assert _bisection_tree(0.0, 0.1, _BISECT_LEVELS) == []


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


def test_optimal_ideal_rate_dominates_bounded_optimum():
    for distance in (0.0, 40.0, 80.0):
        p_h = key_rate_point(DEFAULT, distance, "hsps")
        p_w = key_rate_point(DEFAULT, distance, "wcs")
        assert p_h.ideal_rate >= p_h.key_rate
        assert p_w.ideal_rate >= p_w.key_rate


def test_evaluate_wcs_consistent_with_point():
    p = key_rate_point(DEFAULT, 30.0, "wcs")
    ch = DEFAULT.channel.at_distance(30.0)
    obs, bounds, rate, feasible = evaluate(DEFAULT, ch, WCS, p.mu_prime)
    assert rate == p.key_rate
    assert bounds == p.bounds
    assert obs == p.observables


@pytest.mark.parametrize("kind", ["hsps", "wcs"])
def test_every_sweep_point_equals_the_scalar_chain(kind):
    # the report reads the search's rows; evaluate and ideal_rate build their own
    cfg = _cfg(sources=(kind,))
    src, grid = _source(cfg, kind), distance_grid(cfg)
    ideal_mu_primes = _searched_mu_primes(cfg, grid, [(kind, True)])[0]
    points = sweep_distances(cfg)
    assert [p.distance_km for p in points] == grid and len(grid) == 181
    for p, ideal_mu_prime in zip(points, ideal_mu_primes):
        ch = cfg.channel.at_distance(p.distance_km)
        obs, bounds, rate, feasible = evaluate(cfg, ch, src, p.mu_prime)
        assert (p.observables, p.bounds, p.key_rate, p.feasible) == (obs, bounds, rate, feasible)
        assert p.ideal_rate == ideal_rate(src, ideal_mu_prime, ch, cfg.f_ec)


def test_figure2_sweep_computes_each_row_term_once(monkeypatch):
    # the exact terms and decoy triples once per distance, one array signal per source
    # and rate call, and no channel per distance
    calls = Counter()

    def spy(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    for cls, kind in ((TriggeredSource, "hsps"), (CoherentSource, "wcs")):
        def signal(self, xp, *args, _signal=cls.signal, _kind=kind):
            calls[_kind, "FLOATS" if xp is FLOATS else "ARRAYS"] += 1
            return _signal(self, xp, *args)
        monkeypatch.setattr(cls, "signal", signal)
    for module in (optimizer_module, bounds_module):
        monkeypatch.setattr(module, "_exact_single_photon", spy("exact", module._exact_single_photon))
    monkeypatch.setattr(ChannelParams, "at_distance", spy("at_distance", ChannelParams.at_distance))
    coarse, refine = optimizer_module._coarse_scan, optimizer_module._refine
    monkeypatch.setattr(optimizer_module, "_coarse_scan", lambda fn, *args: coarse(spy("rate calls", fn), *args))
    monkeypatch.setattr(optimizer_module, "_refine", lambda fn, *args: refine(spy("rate calls", fn), *args))
    points = sweep_distances(_cfg(sources=("hsps", "wcs"), include_ideal=True))
    assert len(points) == 2 * 181
    assert calls["rate calls"] == 16
    assert calls["exact"] == 181 and calls["at_distance"] == 0
    for kind in ("hsps", "wcs"):
        assert calls[kind, "FLOATS"] == 3 * 181  # decoy, signal and ideal signal per distance
        assert calls[kind, "ARRAYS"] == calls["rate calls"]


def test_default_sweep_rates_each_reported_point_once_on_floats(monkeypatch):
    # every reported rate is the scalar chain's rate_and_feasibility, once per
    # point and on floats; the search's array rates go through bounds._search_rate
    calls = []

    def spy(obs, bounds, f_ec):
        result = rate(obs, bounds, f_ec)
        calls.append((obs, bounds, f_ec, result))
        return result

    rate = optimizer_module.rate_and_feasibility
    monkeypatch.setattr(optimizer_module, "rate_and_feasibility", spy)
    points = sweep_distances(DEFAULT)
    assert len(calls) == len(points) == 2 * 181
    for (obs, bounds, f_ec, (key_rate, feasible)), p in zip(calls, points):
        args = (obs.ty_mu_prime, obs.e_mu_prime, bounds.delta1, bounds.e1_upper, f_ec, key_rate)
        assert all(type(x) is float for x in args)
        assert (key_rate, feasible) == (p.key_rate, p.feasible)


# ---------------------------------------------------------------------------
# several decoy intensities in one sweep: per-mu coarse scans, one refinement

FIGURE1_MUS = (0.01, 0.05, 0.1)
# np.exp differs from math.exp at 0.037 and at -0.01 (numpy 2.4), so the coherent
# source's weights at mu must come from floats; 0.28 is a third mu apart from both
ROUNDING_MUS = (0.01, 0.037, 0.28)


def _count_search(monkeypatch):
    """Count golden-section passes, refinements, rate calls and exact terms."""
    calls = Counter()
    coarse, refine = optimizer_module._coarse_scan, optimizer_module._refine
    golden = optimizer_module.golden_section_maximize

    def counted(fn):
        def rate(mu_prime):
            calls["rate calls"] += 1
            return fn(mu_prime)
        return rate

    def counted_golden(*args):
        calls["golden"] += 1
        return golden(*args)

    def counted_refine(fn, *args):
        calls["refine"] += 1
        return refine(counted(fn), *args)

    def counted_exact(*args, _exact=bounds_module._exact_single_photon):
        calls["exact"] += 1
        return _exact(*args)

    monkeypatch.setattr(optimizer_module, "_coarse_scan", lambda fn, *args: coarse(counted(fn), *args))
    monkeypatch.setattr(optimizer_module, "_refine", counted_refine)
    monkeypatch.setattr(optimizer_module, "golden_section_maximize", counted_golden)
    for module in (optimizer_module, bounds_module):
        monkeypatch.setattr(module, "_exact_single_photon", counted_exact)
    return calls


def _mu_cfgs(mus, **kwargs):
    return [_cfg(mu=mu, **kwargs) for mu in mus]


def test_figure1_sweep_equals_one_sweep_per_mu(monkeypatch):
    cfgs = _mu_cfgs(FIGURE1_MUS, sources=("hsps",))
    alone = [p for cfg in cfgs for p in sweep_distances(cfg)]
    calls = _count_search(monkeypatch)
    together = sweep_distances(*cfgs)
    assert len(together) == 3 * 181 and calls["refine"] == calls["golden"] == 1
    # every field of every point, mu-major: mu, mu', rates, bounds, observables, flags
    assert together == alone
    assert [p.mu for p in together] == [mu for mu in FIGURE1_MUS for _ in range(181)]


@pytest.mark.parametrize("sources, include_ideal", [
    (("hsps", "wcs"), True), (("wcs",), True), (("hsps",), False)])
def test_rounding_sensitive_mus_search_as_each_mu_alone(monkeypatch, sources, include_ideal):
    cfgs = _mu_cfgs(ROUNDING_MUS, sources=sources, include_ideal=include_ideal,
                    dist_stop_km=170.0, dist_step_km=2.0)
    jobs = [(k, ideal) for k in sources for ideal in (False, True)[:1 + include_ideal]]
    distances = distance_grid(cfgs[0])
    alone = [_searched_mu_primes(cfg, distances, jobs) for cfg in cfgs]
    calls = _count_search(monkeypatch)
    assert _searched_parts(cfgs, distances, jobs) == alone
    assert calls["refine"] == 1
    points = sweep_distances(*cfgs)
    assert [p.mu_prime for p in points] == [
        p.mu_prime for cfg in cfgs for p in sweep_distances(cfg)]


@pytest.mark.parametrize("sources", [("hsps", "wcs"), ("wcs",)])
def test_one_refinement_rates_every_row_as_its_own_search(monkeypatch, sources):
    # the picked mu' can survive a last-place change of the rates; the rates must not change
    cfgs = _mu_cfgs(ROUNDING_MUS, sources=sources, dist_stop_km=170.0, dist_step_km=2.0)
    jobs, distances = [(k, ideal) for k in sources for ideal in (False, True)], distance_grid(cfgs[0])
    rows = _mu_rows(cfgs, distances, jobs)
    refined, refine = [], optimizer_module._refine
    monkeypatch.setattr(optimizer_module, "_refine", lambda fn, *args: refined.append(fn) or refine(fn, *args))
    _searched_parts(cfgs, distances, jobs)
    shape = (len(jobs), len(cfgs), len(distances), 2)
    probe = np.random.default_rng(3).uniform(0.29, 1.0, shape)
    (joint,) = refined
    got = joint(probe.reshape(-1, 2)).reshape(shape)
    for c, (cfg, r) in enumerate(zip(cfgs, rows)):
        own = optimizer_module._jobs_rate(cfg, r, jobs, slice(0, len(distances)))(probe[:, c].reshape(-1, 2))
        assert own.tobytes() == got[:, c].reshape(-1, 2).tobytes(), cfg.mu


def test_figure1_makes_one_refinement_pass(monkeypatch, tmp_path):
    # 5 coarse blocks per mu and one golden section of 1 + 6 calls, against
    # 3 x 19 calls and 3 x 181 exact terms for three sweeps
    calls = _count_search(monkeypatch)
    assert main(["figure", "1", "--out", str(tmp_path)]) == 0
    assert calls["golden"] == 1 and calls["rate calls"] == 22 and calls["exact"] == 181


def test_configurations_swept_together_differ_only_in_mu():
    with pytest.raises(ValueError, match="differ only in mu and mu_prime_min"):
        sweep_distances(_cfg(mu=0.05), _cfg(mu=0.1, eta_a=0.6))
    with pytest.raises(ValueError, match="differ only"):
        sweep_distances(_cfg(), _cfg(dist_stop_km=90.0))
    # mu_prime_min may differ, derived or given
    cfgs = [_cfg(mu=0.05, dist_stop_km=30.0), _cfg(mu=0.02, mu_prime_min=0.2, dist_stop_km=30.0)]
    assert sweep_distances(*cfgs) == sweep_distances(cfgs[0]) + sweep_distances(cfgs[1])


@pytest.mark.parametrize("block_cells", [50, 1000, 1 << 13])
def test_rows_too_many_for_one_chunk_are_refined_in_chunks(monkeypatch, block_cells):
    # chunks of 4, 83 and 682 entries (4 jobs each) over the 3 x 91 joined entries
    cfgs = _mu_cfgs(FIGURE1_MUS, sources=("hsps", "wcs"), dist_step_km=2.0)
    alone = [p for cfg in cfgs for p in sweep_distances(cfg)]
    monkeypatch.setattr("decoy_hsps.optimizer._BLOCK_CELLS", block_cells)
    calls = _count_search(monkeypatch)
    assert sweep_distances(*cfgs) == alone
    assert calls["golden"] == -(-273 // (block_cells // 12))


@pytest.mark.parametrize("block_cells", [50, 379])
def test_chunks_split_parts_in_the_middle(monkeypatch, block_cells):
    # figure 1's 3 x 181 entries in chunks of 8 or 63; 181 + 15 entries in chunks of 16 or 126
    cfgs = _mu_cfgs(FIGURE1_MUS, sources=("hsps",))
    jobs, distances = [("hsps", False), ("hsps", True)], distance_grid(cfgs[0])
    alone = [_searched_mu_primes(cfg, distances, jobs) for cfg in cfgs]
    serial = [_serial_cutoff(DEFAULT, kind) for kind in ("hsps", "wcs")]
    monkeypatch.setattr("decoy_hsps.optimizer._BLOCK_CELLS", block_cells)
    assert any(c.start < 181 < c.stop for c in optimizer_module._chunks(3 * 181, jobs))
    assert any(c.start < 181 < c.stop for c in optimizer_module._chunks(181 + 15, jobs[:1]))
    assert _searched_parts(cfgs, distances, jobs) == alone
    assert [max_secure_distance(DEFAULT, kind) for kind in ("hsps", "wcs")] == serial


# ---------------------------------------------------------------------------
# lockstep search against the per-distance scalar search it replaces

def _golden_reference(fn, a, b, tol):
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


def _search_reference(rate, cfg, refine_tol=1e-4):
    """Coarse scan with the tie rule, then the scalar golden section."""
    cands = mu_prime_candidates(cfg)
    best_x, best_f = cands[0], rate(cands[0])
    for x in cands[1:]:
        fx = rate(x)
        if fx > best_f + RATE_TIE_TOL:
            best_x, best_f = x, fx
    a = max(cfg.mu_prime_min, best_x - cfg.mu_prime_coarse_step)
    b = min(cfg.mu_prime_max, best_x + cfg.mu_prime_coarse_step)
    if b - a > refine_tol:
        xr, fr = _golden_reference(rate, a, b, refine_tol)
        if fr > best_f + RATE_TIE_TOL or (abs(fr - best_f) <= RATE_TIE_TOL and xr < best_x):
            return xr, fr
    return best_x, best_f


def _scalar_rate(cfg, ch, kind, ideal):
    src = _source(cfg, kind)
    if ideal:
        return lambda m: ideal_rate(src, m, ch, cfg.f_ec)
    return lambda m: evaluate(cfg, ch, src, m)[2]


# Every 5th default distance, plus the cut-off region at 1 km.
LOCKSTEP_DISTANCES = sorted(set(distance_grid(DEFAULT)[::5]) | {160.0 + i for i in range(11)})


class TestLockstepSearch:
    @pytest.mark.parametrize("kind", ["hsps", "wcs"])
    @pytest.mark.parametrize("ideal", [False, True], ids=["bounded", "ideal"])
    def test_mu_prime_identical_to_scalar_search(self, kind, ideal):
        channels = [DEFAULT.channel.at_distance(d) for d in LOCKSTEP_DISTANCES]
        lockstep = _searched_mu_primes(DEFAULT, LOCKSTEP_DISTANCES, [(kind, ideal)])[0]
        for distance, ch, mu_prime in zip(LOCKSTEP_DISTANCES, channels, lockstep):
            ref_x, ref_f = _search_reference(_scalar_rate(DEFAULT, ch, kind, ideal), DEFAULT)
            assert mu_prime == ref_x, distance
            if distance % 20 == 0:
                # one-row calls report the scalar rate at the same mu'
                p = key_rate_point(DEFAULT, distance, kind)
                if ideal:
                    assert p.ideal_rate == ref_f
                else:
                    assert (p.mu_prime, p.key_rate) == (ref_x, ref_f)

    @pytest.mark.parametrize("kind", ["hsps", "wcs"])
    @pytest.mark.parametrize("mu_range", [(0.06, 0.12), (0.5, 1.0), (0.3, 0.3)])
    def test_clamped_and_degenerate_ranges_match_scalar_search(self, kind, mu_range):
        # the optimum (~0.2-0.5) lies above, below, or on the whole range
        cfg = _cfg(mu_prime_min=mu_range[0], mu_prime_max=mu_range[1])
        distances = [0.0, 40.0, 80.0, 120.0, 165.0]
        channels = [cfg.channel.at_distance(d) for d in distances]
        lockstep = _searched_mu_primes(cfg, distances, [(kind, False)])[0]
        for ch, mu_prime in zip(channels, lockstep):
            assert mu_prime == _search_reference(_scalar_rate(cfg, ch, kind, False), cfg)[0]
            assert mu_range[0] <= mu_prime <= mu_range[1]

    def test_brackets_clamped_at_both_ends(self):
        # rows peak below the range, above it and inside it; the last row
        # rises by less than RATE_TIE_TOL across the range, so it ties
        cfg = _cfg(mu_prime_min=0.2, mu_prime_max=0.6, mu_prime_coarse_step=0.03)
        peaks = np.array([0.05, 0.9, 0.4137, 0.0])
        scale = np.array([1.0, 1.0, 1.0, 0.0])
        tilt = np.array([0.0, 0.0, 0.0, 1e-17])

        def toy(m, p, s, t):
            return s * -((m - p) * (m - p)) + t * m

        x, f = _maximize(
            lambda m: toy(m, peaks[:, None], scale[:, None], tilt[:, None]), peaks.size, cfg)
        for i, row in enumerate(zip(peaks, scale, tilt)):
            assert (x[i], f[i]) == _search_reference(lambda m: toy(m, *row), cfg)
        assert x[0] == cfg.mu_prime_min and x[3] == cfg.mu_prime_min
        assert abs(x[1] - cfg.mu_prime_max) < 1e-4
        assert abs(x[2] - 0.4137) < 1e-4

    def test_empty_and_single_row(self):
        cfg = DEFAULT
        rate = lambda m: np.zeros((0, 1)) * m
        x, f = _maximize(rate, 0, cfg)
        assert x.shape == f.shape == (0,)
        assert _searched_mu_primes(cfg, [], [("hsps", False)])[0] == []
        assert max_secure_distance(_cfg(dist_start_km=10.0, dist_stop_km=5.0), "hsps") is None
        ch = cfg.channel.at_distance(50.0)
        assert _searched_mu_primes(cfg, [50.0], [("wcs", False)])[0] == [
            _search_reference(_scalar_rate(cfg, ch, "wcs", False), cfg)[0]]

    @pytest.mark.parametrize("block_cells", [3, 50, 3 * 95 + 94])
    def test_blocks_bound_each_call_and_leave_mu_prime_unchanged(self, monkeypatch, block_cells):
        distances = LOCKSTEP_DISTANCES
        whole = _searched_mu_primes(DEFAULT, distances, [("hsps", False)])[0]
        searches, cells = _spy_chunks(monkeypatch)
        monkeypatch.setattr("decoy_hsps.optimizer._BLOCK_CELLS", block_cells)
        assert _searched_mu_primes(DEFAULT, distances, [("hsps", False)])[0] == whole
        assert sum(searches) == len(distances) and max(searches) <= block_cells
        assert max(cells) <= block_cells

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


def _spy_chunks(monkeypatch):
    """Record every coarse-scanned chunk's rows and every search rate call's cells."""
    searches, cells = [], []
    coarse, refine = optimizer_module._coarse_scan, optimizer_module._refine

    def counted(rate_fn):
        def rate(mu_prime):
            rates = rate_fn(mu_prime)
            cells.append(rates.size)
            return rates
        return rate

    def counted_coarse(rate_fn, rows, cfg):
        searches.append(rows)
        return coarse(counted(rate_fn), rows, cfg)

    monkeypatch.setattr(optimizer_module, "_coarse_scan", counted_coarse)
    monkeypatch.setattr(optimizer_module, "_refine", lambda fn, *args: refine(counted(fn), *args))
    return searches, cells


# Every (source kind, bounded or ideal) job a sweep can stack.
STACK_JOBS = [("hsps", False), ("wcs", False), ("hsps", True), ("wcs", True)]


class TestStackedSearch:
    @pytest.mark.parametrize("cfg", [
        DEFAULT,
        _cfg(mu_prime_min=0.5, mu_prime_max=1.0),
        _cfg(channel=ChannelParams(eta_b=0.0)),
    ], ids=["default", "clamped range", "dead channel"])
    def test_mu_prime_identical_to_per_kind_searches(self, cfg):
        distances = LOCKSTEP_DISTANCES
        stacked = _searched_mu_primes(cfg, distances, STACK_JOBS)
        assert stacked == [_searched_mu_primes(cfg, distances, [job])[0] for job in STACK_JOBS]

    @pytest.mark.parametrize("sources, include_ideal", [
        (("hsps", "wcs"), True),
        (("hsps", "wcs"), False),
        (("wcs",), True),
        (("hsps",), False),
    ])
    def test_sweep_makes_one_search_with_per_kind_mu_prime(self, monkeypatch, sources, include_ideal):
        cfg = _cfg(dist_start_km=0.0, dist_stop_km=170.0, dist_step_km=17.0,
                   sources=sources, include_ideal=include_ideal)
        searches, search = [], optimizer_module._search
        monkeypatch.setattr(optimizer_module, "_search", lambda *args: searches.append(1) or search(*args))
        points = sweep_distances(cfg)
        assert len(searches) == 1
        channels = [cfg.channel.at_distance(d) for d in distance_grid(cfg)]
        for kind in sources:
            mine = [p for p in points if p.source_kind == kind]
            mu_primes = _searched_mu_primes(cfg, distance_grid(cfg), [(kind, False)])[0]
            assert [p.mu_prime for p in mine] == mu_primes
            if include_ideal:
                ideal_mu_primes = _searched_mu_primes(cfg, distance_grid(cfg), [(kind, True)])[0]
                assert [p.ideal_rate for p in mine] == [
                    ideal_rate(_source(cfg, kind), m, ch, cfg.f_ec)
                    for ch, m in zip(channels, ideal_mu_primes)]
            else:
                assert all(math.isnan(p.ideal_rate) for p in mine)

    @pytest.mark.parametrize("block_cells", [3, 7, 25, 50])
    def test_chunks_bound_each_search_and_call(self, monkeypatch, block_cells):
        # chunks of 1, 1, 2 and 4 distances, each with the rows of all 4 jobs; a
        # chunk holds at least one distance's rows, so 3 and 7 cells give 4 rows
        distances = list(range(0, 200, 20))
        whole = _searched_mu_primes(DEFAULT, distances, STACK_JOBS)
        searches, cells = _spy_chunks(monkeypatch)
        monkeypatch.setattr("decoy_hsps.optimizer._BLOCK_CELLS", block_cells)
        assert _searched_mu_primes(DEFAULT, distances, STACK_JOBS) == whole
        assert sum(searches) == len(distances) * len(STACK_JOBS)
        rows = len(STACK_JOBS) * max(1, block_cells // (3 * len(STACK_JOBS)))
        assert max(searches) == rows <= max(block_cells, 3 * len(STACK_JOBS)) // 3
        assert max(cells) <= max(block_cells, 3 * rows)

    @pytest.mark.parametrize("block_cells", [3, 7, 25, 50, 1 << 13])
    def test_sweep_job_order_matches_per_job_searches(self, monkeypatch, block_cells):
        # a sweep stacks a source's bounded rows next to its ideal rows; small
        # chunks split the two at different distances or hold one alone
        distances = list(range(0, 200, 20))
        grouped = [("hsps", False), ("hsps", True), ("wcs", False), ("wcs", True)]
        alone = [_searched_mu_primes(DEFAULT, distances, [job])[0] for job in grouped]
        monkeypatch.setattr("decoy_hsps.optimizer._BLOCK_CELLS", block_cells)
        assert _searched_mu_primes(DEFAULT, distances, grouped) == alone

    def test_unknown_kind_and_no_channels(self):
        with pytest.raises(ValueError, match="laser"):
            _searched_mu_primes(DEFAULT, [0.0], [("hsps", False), ("laser", False)])
        assert _searched_mu_primes(DEFAULT, [], STACK_JOBS) == [[], [], [], []]


# one kind, both kinds, kinds apart (STACK_JOBS) and grouped, with and without the ideal job
RATE_JOBS = [[("hsps", False)], [("wcs", False)], [("hsps", False), ("hsps", True)],
             [("wcs", False), ("wcs", True)], STACK_JOBS,
             [("hsps", False), ("hsps", True), ("wcs", False), ("wcs", True)]]


@pytest.mark.parametrize("mus", [(0.05,), FIGURE1_MUS], ids=["one mu", "figure 1"])
@pytest.mark.parametrize("jobs", RATE_JOBS, ids=str)
def test_rate_callable_equals_each_job_evaluated_alone(jobs, mus):
    # a source's bounded and ideal rows share its signal terms; no rate may move by a bit
    cfgs = _mu_cfgs(mus, dist_step_km=3.0)
    rows = optimizer_module._join(_mu_rows(cfgs, distance_grid(cfgs[0]), jobs))
    n = rows.cols["eta"][0].shape[0]
    rng = np.random.default_rng(len(jobs) + len(mus))
    cands = np.array(mu_prime_candidates(cfgs[0]))[None, :]
    for entries in (slice(0, n), slice(7, n - 5), slice(n - 1, n)):
        rate = optimizer_module._jobs_rate(cfgs[0], rows, jobs, entries)
        reference = reference_jobs_rate(cfgs[0], rows, jobs, entries)
        rows_searched = len(jobs) * (entries.stop - entries.start)
        probes = [cands[:, :11], cands[:, 11:],  # coarse blocks
                  rng.uniform(0.011, 1.0, (rows_searched, 3)), rng.uniform(0.011, 1.0, (rows_searched, 2))]
        for mu_prime in probes:
            got, want = rate(mu_prime), reference(mu_prime)
            assert got.shape == (rows_searched, mu_prime.shape[1])
            assert np.array_equal(got, want), (entries, mu_prime.shape)


def _record_scan_reference(rates, cands, best_x, best_f):
    """The coarse scan's column loop that _record_scan replaces."""
    for j in range(rates.shape[1]):
        better = rates[:, j] > best_f + RATE_TIE_TOL
        best_x = np.where(better, cands[j], best_x)
        best_f = np.where(better, rates[:, j], best_f)
    return best_x, best_f


# Offsets from a row's top rate, in units of RATE_TIE_TOL.
NEAR_TIES = (0.0, 0.5, 1.0, 2.0, 3.0)


def _scan_rows(rng, width):
    """Rate rows and carried bests that exercise every branch of the tie rule.

    Rows at 1e-6, 1 and 1e3 (where RATE_TIE_TOL is below half an ulp) have
    a top cell, cells near-tied with it on either side, and carried bests
    near it; then come all-zero rows and rows with NaN or infinite cells.
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
    for best in (0.0, 1e-16, np.nan):
        rows.append(np.zeros(width))
        bests.append(best)
    for special in (np.nan, np.inf, -np.inf):
        for best in (0.5, np.nan, np.inf, -np.inf):
            row = rng.uniform(0.0, 1.0, width)
            row[rng.integers(width)] = special
            rows.append(row)
            bests.append(best)
    rows.append(np.full(width, -np.inf))
    bests.append(-np.inf)
    return np.array(rows), np.array(bests)


def _table_rate(table, cfg):
    """Rates of a (rows, candidates) table at the coarse candidate nearest each mu'."""
    lo, step, last = cfg.mu_prime_min, cfg.mu_prime_coarse_step, table.shape[1] - 1

    def rate(mu_prime):
        col = np.clip(np.rint((mu_prime - lo) / step), 0, last).astype(int)
        return np.take_along_axis(table, np.broadcast_to(col, (table.shape[0], col.shape[1])), axis=1)

    def row_rate(i):
        # a Python float, so the scalar reference takes inf - inf without a warning
        return lambda x: float(table[i, int(np.clip(np.rint((x - lo) / step), 0, last))])

    return rate, row_rate


def _same(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


class TestRecordScan:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("width", [1, 2, 7, 16])
    def test_equals_column_loop(self, seed, width):
        rng = np.random.default_rng(seed)
        rates, best_f = _scan_rows(rng, width)
        cands = 0.06 + 0.01 * np.arange(width)
        best_x = np.full(best_f.size, 0.05)
        x, f = _record_scan(rates, cands, best_x, best_f)
        ref_x, ref_f = _record_scan_reference(rates, cands, best_x, best_f)
        assert x.tobytes() == ref_x.tobytes()
        assert f.tobytes() == ref_f.tobytes()

    @pytest.mark.parametrize("improving", ["none", "some", "all"])
    def test_only_improving_rows_take_the_tie_test(self, improving):
        # _scan_rows has NaN, infinite and near-tied cells; a NaN top never improves,
        # so all rows improve only without NaN rows
        rates, best_f = _scan_rows(np.random.default_rng(5), 9)
        top = rates.max(axis=1)
        if improving == "none":
            best_f = np.nanmax(rates, axis=1) + 1.0
        elif improving == "all":
            keep = ~np.isnan(top) & (top > -np.inf)
            rates, top, best_f = rates[keep], top[keep], np.full(keep.sum(), -np.inf)
        new = top > best_f + RATE_TIE_TOL
        assert {"none": not new.any(), "some": 0 < new.sum() < new.size, "all": new.all()}[improving]
        assert np.isnan(rates).any() or improving == "all"
        cands = 0.06 + 0.01 * np.arange(rates.shape[1])
        best_x = np.full(best_f.size, 0.05)
        x, f = _record_scan(rates, cands, best_x, best_f)
        ref_x, ref_f = _record_scan_reference(rates, cands, best_x, best_f)
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

    @pytest.mark.parametrize("block_cells", [3, 50])
    def test_best_carried_across_blocks(self, monkeypatch, block_cells):
        # 12 rows: 3 cells give 1-column blocks, 50 give 4-column blocks
        cfg = _cfg(mu_prime_min=0.1, mu_prime_max=0.5, mu_prime_coarse_step=0.02)
        width = len(mu_prime_candidates(cfg))
        rows, _ = _scan_rows(np.random.default_rng(7), width)
        monkeypatch.setattr("decoy_hsps.optimizer._BLOCK_CELLS", block_cells)
        for start in range(0, rows.shape[0], 12):
            table = rows[start:start + 12]
            rate, row_rate = _table_rate(table, cfg)
            x, f = _maximize(rate, table.shape[0], cfg)
            for i in range(table.shape[0]):
                ref_x, ref_f = _search_reference(row_rate(i), cfg)
                assert x[i] == ref_x and _same(f[i], ref_f), start + i


    @pytest.mark.parametrize("block_cells", [3, 50])
    def test_nan_first_column_seeds_the_best(self, monkeypatch, block_cells):
        # 3 cells give blocks of column 0 alone; 50 give 12-column blocks
        cfg = _cfg(mu_prime_min=0.1, mu_prime_max=0.5, mu_prime_coarse_step=0.02)
        table = np.random.default_rng(11).uniform(0.0, 1.0, (4, len(mu_prime_candidates(cfg))))
        table[:2, 0] = np.nan
        table[1, 9] = 2.0
        table[2, 5] = np.nan
        monkeypatch.setattr("decoy_hsps.optimizer._BLOCK_CELLS", block_cells)
        rate, row_rate = _table_rate(table, cfg)
        x, f = _maximize(rate, table.shape[0], cfg)
        for i in range(table.shape[0]):
            ref_x, ref_f = _search_reference(row_rate(i), cfg)
            assert x[i] == ref_x and _same(f[i], ref_f), i
        assert x[:2].tolist() == [cfg.mu_prime_min] * 2 and np.isnan(f[:2]).all()


class TestTransmittanceOnlyInputs:
    def test_search_transmittance_is_the_channels(self, monkeypatch):
        cfg = _cfg(channel=ChannelParams(alpha_db_per_km=0.23, eta_b=0.11))
        distances = distance_grid(cfg)[::7] + _bisection_tree(100.0, 101.0, 4)
        seen = []

        build_rows = optimizer_module._rows

        def spy(cfg, distances, jobs):
            rows = build_rows(cfg, distances, jobs)
            seen.extend(rows.eta)
            return rows

        monkeypatch.setattr(optimizer_module, "_rows", spy)
        _searched_mu_primes(cfg, distances, [("hsps", False)])
        assert seen == [overall_transmittance(cfg.channel.at_distance(d)) for d in distances]

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

    @pytest.mark.parametrize("cfg", [
        DEFAULT,
        _cfg(mu_prime_min=0.06, mu_prime_max=0.12),
        _cfg(channel=ChannelParams(alpha_db_per_km=0.25, e_d=0.05)),
    ], ids=["default", "clamped range", "lossier channel"])
    @pytest.mark.parametrize("block_cells", [None, 25])
    def test_searches_from_distances_match_scalar_search(self, monkeypatch, cfg, block_cells):
        if block_cells is not None:
            monkeypatch.setattr("decoy_hsps.optimizer._BLOCK_CELLS", block_cells)
        distances = LOCKSTEP_DISTANCES[::2]
        stacked = _searched_mu_primes(cfg, distances, STACK_JOBS)
        for (kind, ideal), found in zip(STACK_JOBS, stacked):
            assert found == _searched_mu_primes(cfg, distances, [(kind, ideal)])[0]
            expected = [
                _search_reference(_scalar_rate(cfg, cfg.channel.at_distance(d), kind, ideal), cfg)[0]
                for d in distances
            ]
            assert found == expected, (kind, ideal)


class TestWcsGainCap:
    def test_evaluate_far_above_the_optimum_returns(self):
        # e^(-eta*mu') underflows against d_b: the uncapped gain exceeds 1
        obs, bounds, rate, feasible = evaluate(DEFAULT, DEFAULT.channel, WCS, 800.0)
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
        obs, bounds, rate, feasible = evaluate(self.CFG, ch, _source(self.CFG, "hsps"), 50.0)
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
            assert expected == _golden_reference(scalar, float(a[i]), float(b[i]), 1e-4)

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
            xr, fr = _golden_reference(scalar, float(a[i]), float(b[i]), 1e-4)
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
    got = _array_entropy(p)
    assert ((got == masked) | np.isnan(got) & np.isnan(masked)).all()
    assert got[:2].tolist() == [0.0, 0.0] and math.isnan(got[5])
