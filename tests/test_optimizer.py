import math
from dataclasses import replace

import numpy as np
import pytest

import decoy_hsps.optimizer as optimizer_module
from decoy_hsps.bounds import ideal_rate
from decoy_hsps.channel import ChannelParams, overall_transmittance
from decoy_hsps.numerics import ARRAYS, FLOATS
from decoy_hsps.sources import TriggeredSource, _coincidence_sum
from decoy_hsps.optimizer import (
    MAX_GRID_POINTS,
    RATE_TIE_TOL,
    SweepConfig,
    _BISECT_LEVELS,
    _bisection_tree,
    _grid_count,
    _optimal_mu_primes,
    _record_scan,
    _searched_mu_primes,
    _source,
    distance_grid,
    evaluate,
    golden_section_maximize,
    key_rate_point,
    max_secure_distance,
    maximize_over_mu_prime,
    mu_prime_candidates,
    optimal_ideal_rate,
    optimize_mu_prime,
    sweep_distances,
)

DEFAULT = SweepConfig()
HSPS = _source(DEFAULT, "hsps")
WCS = _source(DEFAULT, "wcs")


def _cfg(**kwargs):
    return SweepConfig(**kwargs)


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
        mu_prime, rate = optimize_mu_prime(cfg, 30.0, "hsps")
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
        opt_m, opt_r = optimize_mu_prime(DEFAULT, 50.0, "hsps")
        assert abs(opt_m - best_m) <= 1.01e-4
        assert opt_r >= best_r - 1e-12

    def test_dominates_hand_picked_candidates(self):
        _, opt_r = optimize_mu_prime(DEFAULT, 50.0, "hsps")
        ch = DEFAULT.channel.at_distance(50.0)
        for m in (0.1, 0.3, 0.5, 0.9):
            assert opt_r >= evaluate(DEFAULT, ch, HSPS, m)[2]

    def test_regression_at_20km(self):
        mu_prime, rate = optimize_mu_prime(DEFAULT, 20.0, "hsps")
        assert rate == pytest.approx(3.3562617547202195e-04, rel=1e-9)
        assert mu_prime == pytest.approx(0.2228, abs=2e-3)

    def test_no_positive_rate_reports_smallest_candidate(self):
        cfg = _cfg(channel=ChannelParams(eta_b=0.0))
        mu_prime, rate = optimize_mu_prime(cfg, 10.0, "hsps")
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
                rates.append(optimize_mu_prime(cfg, distance, "hsps")[1])
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
        assert optimize_mu_prime(cfg, cutoff, "hsps")[1] > 0
        # refinement leaves at most 0.1 km of slack before the rate dies
        assert optimize_mu_prime(cfg, cutoff + 0.11, "hsps")[1] == 0.0

    def test_positive_through_grid_end_returns_end(self):
        cfg = _cfg(dist_start_km=0.0, dist_stop_km=30.0, dist_step_km=10.0)
        assert max_secure_distance(cfg, "hsps") == 30.0


def _serial_cutoff(cfg, kind):
    """Forward grid scan, then a bisection that probes one midpoint per search."""
    grid = distance_grid(cfg)
    channels = [cfg.channel.at_distance(d) for d in grid]
    mu_primes = _optimal_mu_primes(cfg, grid, kind)
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
        if optimize_mu_prime(cfg, mid, kind)[1] > 0.0:
            lo = mid
        else:
            hi = mid
    return lo


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

    @pytest.mark.parametrize("overrides, searches", [
        ({}, 2),
        # a 60 km bracket needs 10 levels: two batches of at most 6
        ({"dist_stop_km": 240.0, "dist_step_km": 60.0}, 3),
    ])
    def test_searches_per_cutoff(self, monkeypatch, overrides, searches):
        rows = []

        def spy(rate_fn, cfg):
            x, f = maximize_over_mu_prime(rate_fn, cfg)
            rows.append(x.size)
            return x, f

        monkeypatch.setattr("decoy_hsps.optimizer.maximize_over_mu_prime", spy)
        cfg = _cfg(**overrides)
        max_secure_distance(cfg, "hsps")
        assert len(rows) == searches
        assert rows[0] == len(distance_grid(cfg))
        assert max(rows[1:]) <= 2**_BISECT_LEVELS - 1

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
        assert optimal_ideal_rate(DEFAULT, distance, "hsps") >= optimize_mu_prime(DEFAULT, distance, "hsps")[1]
        assert optimal_ideal_rate(DEFAULT, distance, "wcs") >= optimize_mu_prime(DEFAULT, distance, "wcs")[1]


def test_evaluate_wcs_consistent_with_point():
    p = key_rate_point(DEFAULT, 30.0, "wcs")
    ch = DEFAULT.channel.at_distance(30.0)
    obs, bounds, rate, feasible = evaluate(DEFAULT, ch, WCS, p.mu_prime)
    assert rate == p.key_rate
    assert bounds == p.bounds
    assert obs == p.observables


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
        lockstep = _optimal_mu_primes(DEFAULT, LOCKSTEP_DISTANCES, kind, ideal)
        for distance, ch, mu_prime in zip(LOCKSTEP_DISTANCES, channels, lockstep):
            ref_x, ref_f = _search_reference(_scalar_rate(DEFAULT, ch, kind, ideal), DEFAULT)
            assert mu_prime == ref_x, distance
            if distance % 20 == 0:
                # one-row calls report the scalar rate at the same mu'
                if ideal:
                    assert optimal_ideal_rate(DEFAULT, distance, kind) == ref_f
                else:
                    assert optimize_mu_prime(DEFAULT, distance, kind) == (ref_x, ref_f)

    @pytest.mark.parametrize("kind", ["hsps", "wcs"])
    @pytest.mark.parametrize("mu_range", [(0.06, 0.12), (0.5, 1.0), (0.3, 0.3)])
    def test_clamped_and_degenerate_ranges_match_scalar_search(self, kind, mu_range):
        # the optimum (~0.2-0.5) lies above, below, or on the whole range
        cfg = _cfg(mu_prime_min=mu_range[0], mu_prime_max=mu_range[1])
        distances = [0.0, 40.0, 80.0, 120.0, 165.0]
        channels = [cfg.channel.at_distance(d) for d in distances]
        lockstep = _optimal_mu_primes(cfg, distances, kind)
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

        x, f = maximize_over_mu_prime(
            lambda m: toy(m, peaks[:, None], scale[:, None], tilt[:, None]), cfg)
        for i, row in enumerate(zip(peaks, scale, tilt)):
            assert (x[i], f[i]) == _search_reference(lambda m: toy(m, *row), cfg)
        assert x[0] == cfg.mu_prime_min and x[3] == cfg.mu_prime_min
        assert abs(x[1] - cfg.mu_prime_max) < 1e-4
        assert abs(x[2] - 0.4137) < 1e-4

    def test_empty_and_single_row(self):
        cfg = DEFAULT
        rate = lambda m: np.zeros((0, 1)) * m
        x, f = maximize_over_mu_prime(rate, cfg)
        assert x.shape == f.shape == (0,)
        assert _optimal_mu_primes(cfg, [], "hsps") == []
        assert max_secure_distance(_cfg(dist_start_km=10.0, dist_stop_km=5.0), "hsps") is None
        ch = cfg.channel.at_distance(50.0)
        assert _optimal_mu_primes(cfg, [50.0], "wcs") == [
            _search_reference(_scalar_rate(cfg, ch, "wcs", False), cfg)[0]]

    @pytest.mark.parametrize("block_cells", [3, 50, 3 * 95 + 94])
    def test_blocks_bound_each_call_and_leave_mu_prime_unchanged(self, monkeypatch, block_cells):
        distances = LOCKSTEP_DISTANCES
        whole = _optimal_mu_primes(DEFAULT, distances, "hsps")
        searches, cells = [], []

        def spy(rate_fn, cfg):
            def counted(mu_prime):
                rates = rate_fn(mu_prime)
                cells.append(rates.size)
                return rates

            x, f = maximize_over_mu_prime(counted, cfg)
            searches.append(x.size)
            return x, f

        monkeypatch.setattr("decoy_hsps.optimizer._BLOCK_CELLS", block_cells)
        monkeypatch.setattr("decoy_hsps.optimizer.maximize_over_mu_prime", spy)
        assert _optimal_mu_primes(DEFAULT, distances, "hsps") == whole
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
            assert (p.mu_prime, p.key_rate) == optimize_mu_prime(cfg, p.distance_km, p.source_kind)
            assert p.ideal_rate == optimal_ideal_rate(cfg, p.distance_km, p.source_kind)


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
        assert stacked == [_optimal_mu_primes(cfg, distances, kind, ideal) for kind, ideal in STACK_JOBS]

    @pytest.mark.parametrize("sources, include_ideal", [
        (("hsps", "wcs"), True),
        (("hsps", "wcs"), False),
        (("wcs",), True),
        (("hsps",), False),
    ])
    def test_sweep_makes_one_search_with_per_kind_mu_prime(self, monkeypatch, sources, include_ideal):
        cfg = _cfg(dist_start_km=0.0, dist_stop_km=170.0, dist_step_km=17.0,
                   sources=sources, include_ideal=include_ideal)
        searches = []

        def spy(rate_fn, cfg):
            searches.append(1)
            return maximize_over_mu_prime(rate_fn, cfg)

        monkeypatch.setattr("decoy_hsps.optimizer.maximize_over_mu_prime", spy)
        points = sweep_distances(cfg)
        assert len(searches) == 1
        channels = [cfg.channel.at_distance(d) for d in distance_grid(cfg)]
        for kind in sources:
            mine = [p for p in points if p.source_kind == kind]
            assert [p.mu_prime for p in mine] == _optimal_mu_primes(cfg, distance_grid(cfg), kind)
            if include_ideal:
                ideal_mu_primes = _optimal_mu_primes(cfg, distance_grid(cfg), kind, ideal=True)
                assert [p.ideal_rate for p in mine] == [
                    ideal_rate(_source(cfg, kind), m, ch, cfg.f_ec)
                    for ch, m in zip(channels, ideal_mu_primes)]
            else:
                assert all(math.isnan(p.ideal_rate) for p in mine)

    @pytest.mark.parametrize("block_cells", [3, 7, 25])
    def test_chunks_bound_each_search_and_call(self, monkeypatch, block_cells):
        # 10 rows per job, so chunks of 7 and 25 rows straddle two or three jobs
        distances = list(range(0, 200, 20))
        whole = _searched_mu_primes(DEFAULT, distances, STACK_JOBS)
        searches, cells = [], []

        def spy(rate_fn, cfg):
            def counted(mu_prime):
                rates = rate_fn(mu_prime)
                cells.append(rates.size)
                return rates

            x, f = maximize_over_mu_prime(counted, cfg)
            searches.append(x.size)
            return x, f

        monkeypatch.setattr("decoy_hsps.optimizer._BLOCK_CELLS", block_cells)
        monkeypatch.setattr("decoy_hsps.optimizer.maximize_over_mu_prime", spy)
        assert _searched_mu_primes(DEFAULT, distances, STACK_JOBS) == whole
        assert sum(searches) == len(distances) * len(STACK_JOBS)
        assert max(searches) <= block_cells and max(cells) <= block_cells

    def test_unknown_kind_and_no_channels(self):
        with pytest.raises(ValueError, match="laser"):
            _searched_mu_primes(DEFAULT, [0.0], [("hsps", False), ("laser", False)])
        assert _searched_mu_primes(DEFAULT, [], STACK_JOBS) == [[], [], [], []]


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
            x, f = maximize_over_mu_prime(rate, cfg)
            for i in range(table.shape[0]):
                ref_x, ref_f = _search_reference(row_rate(i), cfg)
                assert x[i] == ref_x and _same(f[i], ref_f), start + i


class TestTransmittanceOnlyInputs:
    def test_search_transmittance_is_the_channels(self, monkeypatch):
        cfg = _cfg(channel=ChannelParams(alpha_db_per_km=0.23, eta_b=0.11))
        distances = distance_grid(cfg)[::7] + _bisection_tree(100.0, 101.0, 4)
        seen = []

        def spy(cfg, src, ideal, eta):
            seen.extend(eta[:, 0].tolist())
            return lambda mu_prime: np.zeros((eta.shape[0], np.shape(mu_prime)[1]))

        monkeypatch.setattr(optimizer_module, "_rate_array", spy)
        _optimal_mu_primes(cfg, distances, "hsps")
        assert seen == [overall_transmittance(cfg.channel.at_distance(d)) for d in distances]

    def test_default_cutoff_builds_few_channels(self, monkeypatch):
        built = []
        at_distance = ChannelParams.at_distance

        def counted(self, distance_km):
            built.append(distance_km)
            return at_distance(self, distance_km)

        monkeypatch.setattr(ChannelParams, "at_distance", counted)
        assert max_secure_distance(DEFAULT, "hsps") == 166.9375
        # 15 grid rows judged from 180 km down, then the 4 midpoints the bisection reaches
        assert len(built) <= 19

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
            assert found == _optimal_mu_primes(cfg, distances, kind, ideal)
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
        assert optimize_mu_prime(cfg, 0.0, "wcs") == (700.0, 0.0)


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
        assert optimize_mu_prime(cfg, 0.0, "hsps") == (1.0, 0.0)
        assert optimal_ideal_rate(cfg, 0.0, "hsps") == 0.0
        assert len(sweep_distances(cfg)) == 3 * 2


class TestLockstepGoldenSection:
    def test_array_brackets_equal_elementwise_scalar_calls(self):
        # brackets from 4 wide down to 0; the last function is flat, so ties
        peaks = np.array([0.3, 1.7, -0.5, 2.0, 0.9, 0.25, 0.5])
        scale = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0])
        a = np.array([0.0, 1.0, -1.0, 2.0, 0.0, 0.2, 0.0])
        b = np.array([1.0, 5.0, 0.0, 2.0, 0.95, 0.20005, 1.0])

        def fn(x):
            return scale * -((x - peaks) * (x - peaks))

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
