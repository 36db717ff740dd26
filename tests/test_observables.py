import math

import numpy as np
import pytest

from decoy_hsps.channel import ChannelParams
from decoy_hsps.observables import (
    IntensityCounts,
    ObservedStatistics,
    forecast_observables,
    forecast_wcs_observables,
    simulate_qber,
    simulate_qber_series,
    simulate_rescaled_yield,
    simulate_rescaled_yield_series,
    simulate_wcs_gain,
    simulate_wcs_gain_series,
    simulate_wcs_qber,
    simulate_wcs_qber_series,
    simulate_yield,
    statistics_from_counts,
)
from decoy_hsps.sources import HeraldedSourceParams, post_selection_probability

GYS = ChannelParams()


def _random_setup(rng):
    """Random source/channel draw kept away from degenerate corners so the
    1e-12 closed-form/series comparisons are meaningful."""
    src = HeraldedSourceParams(
        x=rng.uniform(0.05, 1.0),
        eta_a=rng.uniform(0.5, 1.0),
        d_a=rng.uniform(0.0, 1e-3),
    )
    ch = ChannelParams(
        alpha_db_per_km=0.21,
        distance_km=rng.uniform(0.0, 150.0),
        eta_b=rng.uniform(0.01, 0.5),
        d_b=rng.uniform(0.0, 1e-4),
        e_d=rng.uniform(0.0, 0.1),
    )
    return src, ch


class TestRescaledYield:
    def test_vacuum_intensity_limit(self):
        src = HeraldedSourceParams(x=0.0, eta_a=0.8, d_a=1e-5)
        assert simulate_rescaled_yield(src, GYS) == pytest.approx(1e-5 * GYS.d_b, rel=1e-14)

    def test_closed_form_matches_series_at_reference_point(self):
        src = HeraldedSourceParams(x=0.1, eta_a=0.8, d_a=1e-5)
        ch = ChannelParams(alpha_db_per_km=0.0, eta_b=1e-3, d_b=1.7e-6)
        closed = simulate_rescaled_yield(src, ch)
        series = simulate_rescaled_yield_series(src, ch, max_terms=200)
        assert closed == pytest.approx(series, rel=1e-12)

    def test_closed_form_matches_series_random(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            src, ch = _random_setup(rng)
            assert simulate_rescaled_yield(src, ch) == pytest.approx(
                simulate_rescaled_yield_series(src, ch), rel=1e-12
            )

    def test_perfect_system_equals_post_selection(self):
        src = HeraldedSourceParams(x=0.05, eta_a=1.0, d_a=0.0)
        ch = ChannelParams(alpha_db_per_km=0.0, eta_b=1.0, d_b=0.0)
        assert simulate_rescaled_yield(src, ch) == pytest.approx(0.05 / 1.05, rel=1e-13)


class TestYield:
    def test_perfect_system(self):
        src = HeraldedSourceParams(x=0.05, eta_a=1.0, d_a=0.0)
        ch = ChannelParams(alpha_db_per_km=0.0, eta_b=1.0, d_b=0.0)
        assert simulate_yield(src, ch) == pytest.approx(1.0, rel=1e-13)

    def test_vacuum_yield_is_dark_count_rate(self):
        src = HeraldedSourceParams(x=0.0, eta_a=0.8, d_a=1e-5)
        assert simulate_yield(src, GYS) == pytest.approx(GYS.d_b, rel=1e-13)

    def test_rescaling_identity(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            src, ch = _random_setup(rng)
            y = simulate_yield(src, ch)
            ty = simulate_rescaled_yield(src, ch)
            assert y * post_selection_probability(src) == pytest.approx(ty, rel=1e-15)

    def test_undefined_without_triggers(self):
        src = HeraldedSourceParams(x=0.0, eta_a=0.8, d_a=0.0)
        with pytest.raises(ValueError):
            simulate_yield(src, GYS)

    def test_capped_at_one_click_per_triggered_pulse(self):
        # additive dark counts at both detectors pass one click per trigger
        src = HeraldedSourceParams(x=50.0, eta_a=1.0, d_a=0.5)
        ch = ChannelParams(alpha_db_per_km=0.0, eta_b=1.0, d_b=0.5)
        assert simulate_rescaled_yield_series(src, ch) > post_selection_probability(src)
        assert simulate_yield(src, ch) == 1.0
        assert simulate_rescaled_yield(src, ch) == pytest.approx(
            post_selection_probability(src), rel=1e-15)
        obs = forecast_observables(0.05, 50.0, 1.0, 0.5, ch)
        assert obs.y_mu_prime == 1.0
        assert obs.e_mu_prime == simulate_qber(src, ch)


class TestQber:
    def test_dark_counts_only(self):
        src = HeraldedSourceParams(x=0.05, eta_a=0.8, d_a=1e-5)
        ch = ChannelParams(eta_b=0.0, d_b=1e-5)
        assert simulate_qber(src, ch) == pytest.approx(0.5, rel=1e-12)

    def test_noise_free_gives_misalignment(self):
        src = HeraldedSourceParams(x=0.05, eta_a=0.8, d_a=0.0)
        ch = ChannelParams(d_b=0.0, e_d=0.033, distance_km=40.0)
        assert simulate_qber(src, ch) == pytest.approx(0.033, rel=1e-12)

    def test_reference_point_between_misalignment_and_half(self):
        src = HeraldedSourceParams(x=0.05, eta_a=0.8, d_a=1e-5)
        ch = GYS.at_distance(100.0)
        e = simulate_qber(src, ch)
        assert GYS.e_d < e < 0.5
        assert e == pytest.approx(simulate_qber_series(src, ch), rel=1e-12)

    def test_closed_form_matches_series_random(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            src, ch = _random_setup(rng)
            assert simulate_qber(src, ch) == pytest.approx(
                simulate_qber_series(src, ch), rel=1e-12
            )

    def test_approaches_half_at_long_distance(self):
        src = HeraldedSourceParams(x=0.05, eta_a=0.8, d_a=1e-5)
        assert simulate_qber(src, GYS.at_distance(400.0)) == pytest.approx(0.5, abs=1e-3)


class TestWcs:
    def test_gain_trivials(self):
        assert simulate_wcs_gain(0.0, GYS) == GYS.d_b
        ch = ChannelParams(alpha_db_per_km=0.0, eta_b=1.0, d_b=0.0)
        assert simulate_wcs_gain(0.05, ch) == pytest.approx(1.0 - np.exp(-0.05), rel=1e-12)

    def test_gain_matches_series(self):
        rng = np.random.default_rng(19)
        for _ in range(30):
            _, ch = _random_setup(rng)
            mu = rng.uniform(0.01, 1.0)
            assert simulate_wcs_gain(mu, ch) == pytest.approx(
                simulate_wcs_gain_series(mu, ch), rel=1e-12
            )

    def test_qber_trivials(self):
        assert simulate_wcs_qber(0.0, GYS) == pytest.approx(0.5, rel=1e-14)
        ch = ChannelParams(d_b=0.0, e_d=0.033, distance_km=25.0)
        assert simulate_wcs_qber(0.05, ch) == pytest.approx(0.033, rel=1e-12)

    def test_qber_matches_series_at_50km(self):
        ch = GYS.at_distance(50.0)
        assert simulate_wcs_qber(0.05, ch) == pytest.approx(
            simulate_wcs_qber_series(0.05, ch), rel=1e-12
        )

    def test_gain_capped_at_one_when_every_pulse_clicks(self):
        # d_b + 1 - e^(-eta*mu) passes 1 once e^(-eta*mu) < d_b
        ch = ChannelParams(alpha_db_per_km=0.0, eta_b=1.0)
        assert simulate_wcs_gain(50.0, ch) == 1.0
        assert simulate_wcs_qber(50.0, ch) == pytest.approx(
            (ch.e_0 * ch.d_b + ch.e_d) / (1.0 + ch.d_b), rel=1e-12
        )
        obs = forecast_wcs_observables(0.05, 50.0, ch)
        assert obs.y_mu_prime == obs.ty_mu_prime == 1.0


class TestForecast:
    def test_vacuum_entry(self):
        obs = forecast_observables(0.05, 0.3, 0.8, 1e-5, GYS.at_distance(20.0))
        assert obs.y0 == GYS.d_b

    def test_invariants_over_random_draws(self):
        rng = np.random.default_rng(23)
        for _ in range(1000):
            src, ch = _random_setup(rng)
            mu = rng.uniform(0.005, 0.5)
            mu_prime = mu + rng.uniform(0.01, 0.5)
            obs = forecast_observables(mu, mu_prime, src.eta_a, src.d_a, ch)
            for v in (obs.y0, obs.y_mu, obs.y_mu_prime, obs.ty_mu, obs.ty_mu_prime):
                assert 0.0 <= v <= 1.0
            assert 0.0 <= obs.e_mu <= 0.5 + 1e-12
            assert 0.0 <= obs.e_mu_prime <= 0.5 + 1e-12
            decoy = HeraldedSourceParams(x=mu, eta_a=src.eta_a, d_a=src.d_a)
            signal = HeraldedSourceParams(x=mu_prime, eta_a=src.eta_a, d_a=src.d_a)
            assert obs.ty_mu == pytest.approx(
                obs.y_mu * post_selection_probability(decoy), rel=1e-14
            )
            assert obs.ty_mu_prime == pytest.approx(
                obs.y_mu_prime * post_selection_probability(signal), rel=1e-14
            )

    def test_more_intensity_more_clicks(self):
        ch = GYS.at_distance(30.0)
        obs = forecast_observables(0.05, 0.3, 0.8, 1e-5, ch)
        assert obs.ty_mu_prime > obs.ty_mu

    def test_yield_decreases_and_qber_increases_with_distance(self):
        for mu in (0.01, 0.05, 0.10):
            ys, es = [], []
            for d in range(0, 160, 10):
                src = HeraldedSourceParams(x=mu, eta_a=0.8, d_a=1e-5)
                ch = GYS.at_distance(float(d))
                ys.append(simulate_yield(src, ch))
                es.append(simulate_qber(src, ch))
            assert all(b < a for a, b in zip(ys, ys[1:]))
            assert all(b > a for a, b in zip(es, es[1:]))

    def test_rejects_bad_ordering(self):
        with pytest.raises(ValueError):
            forecast_observables(0.3, 0.05, 0.8, 1e-5, GYS)

    def test_wcs_forecast_uses_gain_convention(self):
        ch = GYS.at_distance(20.0)
        obs = forecast_wcs_observables(0.05, 0.4, ch)
        assert obs.y_mu == obs.ty_mu == simulate_wcs_gain(0.05, ch)
        assert obs.e_mu == simulate_wcs_qber(0.05, ch)


class TestStatisticsFromCounts:
    def test_direct_ratios(self):
        vac = IntensityCounts(pulses=10**6, triggered=10, clicks=0)
        dec = IntensityCounts(pulses=10**6, triggered=4 * 10**4, clicks=400)
        sig = IntensityCounts(pulses=10**6, triggered=2 * 10**5, clicks=4000)
        stats = statistics_from_counts(vac, dec, sig)
        assert stats.y_mu == pytest.approx(0.01, rel=1e-14)
        assert stats.ty_mu == pytest.approx(4e-4, rel=1e-14)
        assert stats.e_mu is None

    def test_no_triggered_pulses_is_an_error(self):
        vac = IntensityCounts(pulses=100, triggered=0, clicks=0)
        dec = IntensityCounts(pulses=100, triggered=10, clicks=1)
        with pytest.raises(ValueError, match="no triggered pulses"):
            statistics_from_counts(vac, dec, dec)

    def test_expectation_round_trip(self):
        # expected counts from the forecast reproduce the forecast exactly
        ch = GYS.at_distance(35.0)
        mu, mu_prime, eta_a, d_a = 0.05, 0.25, 0.8, 1e-5
        obs = forecast_observables(mu, mu_prime, eta_a, d_a, ch)

        def expected_counts(x, y, e):
            if x == 0.0:
                p_post = d_a
            else:
                p_post = post_selection_probability(HeraldedSourceParams(x, eta_a, d_a))
            nt = p_post
            nc = nt * y
            return IntensityCounts(pulses=1.0, triggered=nt, clicks=nc,
                                   errors=None if e is None else nc * e)

        stats = statistics_from_counts(
            expected_counts(0.0, obs.y0, None),
            expected_counts(mu, obs.y_mu, obs.e_mu),
            expected_counts(mu_prime, obs.y_mu_prime, obs.e_mu_prime),
        )
        assert stats.y0 == pytest.approx(obs.y0, rel=1e-12)
        assert stats.y_mu == pytest.approx(obs.y_mu, rel=1e-12)
        assert stats.ty_mu == pytest.approx(obs.ty_mu, rel=1e-12)
        assert stats.y_mu_prime == pytest.approx(obs.y_mu_prime, rel=1e-12)
        assert stats.ty_mu_prime == pytest.approx(obs.ty_mu_prime, rel=1e-12)
        assert stats.e_mu == pytest.approx(obs.e_mu, rel=1e-12)

    def test_counts_validation(self):
        with pytest.raises(ValueError):
            IntensityCounts(pulses=10, triggered=11, clicks=0)
        with pytest.raises(ValueError):
            IntensityCounts(pulses=10, triggered=5, clicks=6)
        with pytest.raises(ValueError):
            IntensityCounts(pulses=10, triggered=5, clicks=2, errors=3)

    @pytest.mark.parametrize("field", ["pulses", "triggered", "clicks", "errors"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_count_names_its_field(self, field, value):
        counts = dict(pulses=10.0, triggered=5.0, clicks=2.0, errors=1.0)
        counts[field] = value
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            IntensityCounts(**counts)


class TestObservedStatisticsValidation:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ObservedStatistics(y0=1.5, y_mu=0, y_mu_prime=0, ty_mu=0, ty_mu_prime=0)
        with pytest.raises(ValueError):
            ObservedStatistics(y0=0, y_mu=0, y_mu_prime=0, ty_mu=0, ty_mu_prime=0, e_mu=-0.1)


def test_qber_undefined_when_nothing_clicks():
    src = HeraldedSourceParams(x=0.05, eta_a=0.8, d_a=1e-5)
    dead = ChannelParams(eta_b=0.0, d_b=0.0)
    with pytest.raises(ValueError, match="yield is zero"):
        simulate_qber(src, dead)
    with pytest.raises(ValueError, match="gain is zero"):
        simulate_wcs_qber(0.05, dead)
