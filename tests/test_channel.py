import pytest

from decoy_hsps.channel import (
    ChannelParams,
    fiber_transmittance,
    n_photon_click_probability,
    n_photon_error_rate,
    overall_transmittance,
)

GYS = ChannelParams()  # defaults are the GYS values


class TestFiberTransmittance:
    def test_zero_distance(self):
        assert fiber_transmittance(0.21, 0.0) == 1.0

    def test_hand_value(self):
        assert fiber_transmittance(0.21, 100.0) == pytest.approx(10.0**-2.1, rel=1e-14)

    def test_exponential_composition(self):
        half = fiber_transmittance(0.21, 50.0)
        assert half * half == pytest.approx(fiber_transmittance(0.21, 100.0), rel=1e-12)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            fiber_transmittance(-0.1, 10.0)
        with pytest.raises(ValueError):
            fiber_transmittance(0.2, -1.0)


class TestOverallTransmittance:
    def test_zero_distance_is_receiver_efficiency(self):
        assert overall_transmittance(GYS.at_distance(0.0)) == 0.045

    def test_hand_value_at_100km(self):
        eta = overall_transmittance(GYS.at_distance(100.0))
        assert eta == pytest.approx(10.0**-2.1 * 0.045, rel=1e-12)

    def test_dead_receiver(self):
        ch = ChannelParams(eta_b=0.0, distance_km=10.0)
        assert overall_transmittance(ch) == 0.0

    def test_strictly_decreasing_in_distance(self):
        values = [overall_transmittance(GYS.at_distance(d)) for d in range(0, 200, 10)]
        assert all(b < a for a, b in zip(values, values[1:]))


class TestClickProbability:
    def test_hand_value(self):
        ch = ChannelParams(alpha_db_per_km=0.0, eta_b=0.01, d_b=1.7e-6)
        assert n_photon_click_probability(1, ch) == pytest.approx(0.0100017, rel=1e-12)

    def test_perfect_channel(self):
        ch = ChannelParams(alpha_db_per_km=0.0, eta_b=1.0, d_b=0.0)
        assert n_photon_click_probability(1, ch) == 1.0

    def test_two_photons_half_loss(self):
        ch = ChannelParams(alpha_db_per_km=0.0, eta_b=0.5, d_b=0.0)
        assert n_photon_click_probability(2, ch) == pytest.approx(0.75, rel=1e-14)

    def test_clamped_to_one(self):
        ch = ChannelParams(alpha_db_per_km=0.0, eta_b=1.0, d_b=0.3)
        assert n_photon_click_probability(1, ch) == 1.0

    def test_nondecreasing_in_n_and_eta(self):
        ch = ChannelParams(alpha_db_per_km=0.0, eta_b=0.2, d_b=1e-6)
        by_n = [n_photon_click_probability(n, ch) for n in range(1, 30)]
        assert all(b >= a for a, b in zip(by_n, by_n[1:]))
        by_eta = [
            n_photon_click_probability(2, ChannelParams(alpha_db_per_km=0.0, eta_b=e, d_b=1e-6))
            for e in [0.0, 0.1, 0.3, 0.7, 1.0]
        ]
        assert all(b >= a for a, b in zip(by_eta, by_eta[1:]))

    def test_rejects_zero_photons(self):
        with pytest.raises(ValueError):
            n_photon_click_probability(0, GYS)


class TestErrorRate:
    def test_dark_counts_only(self):
        ch = ChannelParams(eta_b=0.0, d_b=1e-5)
        assert n_photon_error_rate(1, ch) == pytest.approx(0.5, rel=1e-14)

    def test_no_dark_counts_gives_misalignment(self):
        ch = ChannelParams(d_b=0.0, e_d=0.033, distance_km=30.0)
        assert n_photon_error_rate(1, ch) == pytest.approx(0.033, rel=1e-12)

    def test_hand_value_gys_100km(self):
        # eta here equals the overall transmittance rounded as 3.5745e-4
        eta = 3.5745e-4
        ch = ChannelParams(alpha_db_per_km=0.0, eta_b=eta, d_b=1.7e-6, e_d=0.033)
        expected = (0.5 * 1.7e-6 + 0.033 * eta) / (1.7e-6 + eta)
        assert n_photon_error_rate(1, ch) == pytest.approx(expected, rel=1e-14)
        assert expected == pytest.approx(0.03521049700682167, rel=1e-12)

    def test_undefined_without_clicks(self):
        ch = ChannelParams(eta_b=0.0, d_b=0.0)
        with pytest.raises(ValueError, match="no clicks"):
            n_photon_error_rate(1, ch)

    def test_monotone_approach_to_many_photon_limit(self):
        ch = GYS.at_distance(100.0)
        limit = (ch.e_0 * ch.d_b + ch.e_d) / (ch.d_b + 1.0)
        rates = [n_photon_error_rate(n, ch) for n in range(1, 60)]
        # dark counts dominate at n=1; each extra photon dilutes them
        assert all(b <= a for a, b in zip(rates, rates[1:]))
        gaps = [abs(r - limit) for r in rates]
        assert all(b <= a for a, b in zip(gaps, gaps[1:]))
        # the limit is only reached once n ~ 1/eta photons survive the loss
        assert n_photon_error_rate(200_000, ch) == pytest.approx(limit, rel=1e-3)


class TestChannelValidation:
    def test_at_distance_preserves_other_fields(self):
        moved = GYS.at_distance(42.0)
        assert moved.distance_km == 42.0
        assert moved.eta_b == GYS.eta_b
        assert moved.alpha_db_per_km == GYS.alpha_db_per_km
