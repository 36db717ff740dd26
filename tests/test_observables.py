import math

import numpy as np
import pytest

from decoy_hsps.channel import ChannelParams
from decoy_hsps.observables import IntensityCounts, forecast, statistics_from_counts
from decoy_hsps.sources import COHERENT, HeraldedSourceParams, post_selection_probability, triggered_source
from oracles import (
    closed_form,
    closed_form_wcs,
    simulate_qber_series,
    simulate_rescaled_yield_series,
    simulate_wcs_qber_series,
    source_and_synthesizer,
)

GYS = ChannelParams()
BOTH = pytest.mark.parametrize("kind", ["hsps", "wcs"])


def _yield(src, ch):
    p_post, ty, _ = closed_form(src, ch)
    return ty / p_post


def _random_setup(rng):
    """Random source/channel draw from c05's box, away from degenerate corners."""
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
        assert closed_form(src, GYS)[1] == pytest.approx(1e-5 * GYS.d_b, rel=1e-14)

    def test_closed_form_matches_series_at_reference_point(self):
        src = HeraldedSourceParams(x=0.1, eta_a=0.8, d_a=1e-5)
        ch = ChannelParams(alpha_db_per_km=0.0, eta_b=1e-3, d_b=1.7e-6)
        closed = closed_form(src, ch)[1]
        series = simulate_rescaled_yield_series(src, ch, max_terms=200)
        assert closed == pytest.approx(series, rel=1e-12)

    def test_perfect_system_equals_post_selection(self):
        src = HeraldedSourceParams(x=0.05, eta_a=1.0, d_a=0.0)
        ch = ChannelParams(alpha_db_per_km=0.0, eta_b=1.0, d_b=0.0)
        assert closed_form(src, ch)[1] == pytest.approx(0.05 / 1.05, rel=1e-13)


class TestYield:
    def test_perfect_system(self):
        src = HeraldedSourceParams(x=0.05, eta_a=1.0, d_a=0.0)
        ch = ChannelParams(alpha_db_per_km=0.0, eta_b=1.0, d_b=0.0)
        assert _yield(src, ch) == pytest.approx(1.0, rel=1e-13)

    def test_vacuum_yield_is_dark_count_rate(self):
        src = HeraldedSourceParams(x=0.0, eta_a=0.8, d_a=1e-5)
        assert _yield(src, GYS) == pytest.approx(GYS.d_b, rel=1e-13)

    def test_rescaling_identity(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            src, ch = _random_setup(rng)
            y = _yield(src, ch)
            ty = closed_form(src, ch)[1]
            assert y * post_selection_probability(src) == pytest.approx(ty, rel=1e-15)

    def test_capped_at_one_click_per_triggered_pulse(self):
        # additive dark counts at both detectors pass one click per trigger
        src = HeraldedSourceParams(x=50.0, eta_a=1.0, d_a=0.5)
        ch = ChannelParams(alpha_db_per_km=0.0, eta_b=1.0, d_b=0.5)
        assert simulate_rescaled_yield_series(src, ch) > post_selection_probability(src)
        assert _yield(src, ch) == 1.0
        assert closed_form(src, ch)[1] == pytest.approx(
            post_selection_probability(src), rel=1e-15)
        obs = forecast(triggered_source(1.0, 0.5), 0.05, 50.0, ch)
        assert obs.y_mu_prime == 1.0
        assert obs.e_mu_prime == closed_form(src, ch)[2]


class TestQber:
    def test_dark_counts_only(self):
        src = HeraldedSourceParams(x=0.05, eta_a=0.8, d_a=1e-5)
        ch = ChannelParams(eta_b=0.0, d_b=1e-5)
        assert closed_form(src, ch)[2] == pytest.approx(0.5, rel=1e-12)

    def test_noise_free_gives_misalignment(self):
        src = HeraldedSourceParams(x=0.05, eta_a=0.8, d_a=0.0)
        ch = ChannelParams(d_b=0.0, e_d=0.033, distance_km=40.0)
        assert closed_form(src, ch)[2] == pytest.approx(0.033, rel=1e-12)

    def test_reference_point_between_misalignment_and_half(self):
        src = HeraldedSourceParams(x=0.05, eta_a=0.8, d_a=1e-5)
        ch = GYS.at_distance(100.0)
        e = closed_form(src, ch)[2]
        assert GYS.e_d < e < 0.5
        assert e == pytest.approx(simulate_qber_series(src, ch), rel=1e-12)

    def test_approaches_half_at_long_distance(self):
        src = HeraldedSourceParams(x=0.05, eta_a=0.8, d_a=1e-5)
        assert closed_form(src, GYS.at_distance(400.0))[2] == pytest.approx(0.5, abs=1e-3)


class TestWcs:
    def test_gain_trivials(self):
        assert closed_form_wcs(0.0, GYS)[0] == GYS.d_b
        ch = ChannelParams(alpha_db_per_km=0.0, eta_b=1.0, d_b=0.0)
        assert closed_form_wcs(0.05, ch)[0] == pytest.approx(1.0 - np.exp(-0.05), rel=1e-12)

    def test_qber_trivials(self):
        assert closed_form_wcs(0.0, GYS)[1] == pytest.approx(0.5, rel=1e-14)
        ch = ChannelParams(d_b=0.0, e_d=0.033, distance_km=25.0)
        assert closed_form_wcs(0.05, ch)[1] == pytest.approx(0.033, rel=1e-12)

    def test_qber_matches_series_at_50km(self):
        ch = GYS.at_distance(50.0)
        assert closed_form_wcs(0.05, ch)[1] == pytest.approx(
            simulate_wcs_qber_series(0.05, ch), rel=1e-12
        )

    def test_gain_capped_at_one_when_every_pulse_clicks(self):
        # d_b + 1 - e^(-eta*mu) passes 1 once e^(-eta*mu) < d_b
        ch = ChannelParams(alpha_db_per_km=0.0, eta_b=1.0)
        assert closed_form_wcs(50.0, ch)[0] == 1.0
        assert closed_form_wcs(50.0, ch)[1] == pytest.approx(
            (ch.e_0 * ch.d_b + ch.e_d) / (1.0 + ch.d_b), rel=1e-12
        )
        obs = forecast(COHERENT, 0.05, 50.0, ch)
        assert obs.y_mu_prime == obs.ty_mu_prime == 1.0


class TestForecast:
    @BOTH
    def test_vacuum_entry(self, kind):
        obs = forecast(source_and_synthesizer(kind)[0], 0.05, 0.3, GYS.at_distance(20.0))
        assert obs.y0 == GYS.d_b

    @BOTH
    def test_more_intensity_more_clicks(self, kind):
        obs = forecast(source_and_synthesizer(kind)[0], 0.05, 0.3, GYS.at_distance(30.0))
        assert obs.ty_mu_prime > obs.ty_mu

    def test_invariants_over_random_draws(self):
        rng = np.random.default_rng(23)
        for _ in range(1000):
            src, ch = _random_setup(rng)
            mu = rng.uniform(0.005, 0.5)
            mu_prime = mu + rng.uniform(0.01, 0.5)
            obs = forecast(triggered_source(src.eta_a, src.d_a), mu, mu_prime, ch)
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

    def test_yield_decreases_and_qber_increases_with_distance(self):
        for mu in (0.01, 0.05, 0.10):
            ys, es = [], []
            for d in range(0, 160, 10):
                src = HeraldedSourceParams(x=mu, eta_a=0.8, d_a=1e-5)
                ch = GYS.at_distance(float(d))
                ys.append(_yield(src, ch))
                es.append(closed_form(src, ch)[2])
            assert all(b < a for a, b in zip(ys, ys[1:]))
            assert all(b > a for a, b in zip(es, es[1:]))

    def test_wcs_forecast_uses_gain_convention(self):
        ch = GYS.at_distance(20.0)
        obs = forecast(COHERENT, 0.05, 0.4, ch)
        assert obs.y_mu == obs.ty_mu == closed_form_wcs(0.05, ch)[0]
        assert obs.e_mu == closed_form_wcs(0.05, ch)[1]


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
        obs = forecast(triggered_source(eta_a, d_a), mu, mu_prime, ch)

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


@BOTH
def test_qber_undefined_when_nothing_clicks(kind):
    with pytest.raises(ValueError, match="yield is zero"):
        forecast(source_and_synthesizer(kind)[0], 0.05, 0.3, ChannelParams(eta_b=0.0, d_b=0.0))
