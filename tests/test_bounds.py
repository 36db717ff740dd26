import math
import re
import time
from dataclasses import replace

import numpy as np
import pytest

from decoy_hsps.bounds import (
    KeyRatePoint,
    SecurityBounds,
    _delta1,
    _e1_mass,
    _raw_y1,
    _single_photon_bounds,
    binary_entropy,
    compute_bounds,
    compute_hsps_bounds,
    compute_wcs_bounds,
    ideal_rate,
    key_rate,
    key_rate_hsps,
    key_rate_wcs,
    rate_and_feasibility,
)
from decoy_hsps.channel import (
    ChannelParams, n_photon_click_probability, n_photon_error_rate, overall_transmittance,
)
from decoy_hsps.numerics import FLOATS
from decoy_hsps.observables import (
    IntensityCounts,
    ObservedStatistics,
    forecast,
    forecast_observables,
    forecast_wcs_observables,
    statistics_from_counts,
)
from decoy_hsps.optimizer import SweepConfig, sweep_distances
from decoy_hsps.sources import COHERENT, HeraldedSourceParams, TriggeredSource, _coincidence_sum
from oracles import (
    closed_form,
    coincidence_series,
    hsps_elimination_coefficient,
    simulate_rescaled_yield_series,
    synthesize_observables_from_yields,
    synthesize_wcs_gain_from_yields,
    wcs_elimination_coefficient,
)

GYS = ChannelParams()


def _obs_from_ty(y0, ty_mu, ty_mu_prime, e_mu=None, e_mu_prime=None):
    """Observed statistics where only the bound-relevant fields matter."""
    return ObservedStatistics(
        y0=y0, y_mu=0.0, y_mu_prime=0.0,
        ty_mu=ty_mu, ty_mu_prime=ty_mu_prime,
        e_mu=e_mu, e_mu_prime=e_mu_prime,
    )


def _e1_upper(src, y1, x, e_x, ty_x, y0, e_0=0.5):
    """The clamped e1 bound at Y1 = y1 from the decoy terms at intensity x."""
    w = src.weights(FLOATS, x)
    mass = _e1_mass(w, e_x, ty_x, y0, e_0)
    return _single_photon_bounds(FLOATS, y1, mass, w, src.weights(FLOATS, 2.0 * x), 1.0)[2]


def _draw_intensities(rng):
    mu = rng.uniform(0.005, 0.6)
    mu_prime = min(1.0, mu + rng.uniform(0.02, 0.4))
    return mu, mu_prime


class TestBinaryEntropy:
    def test_known_values(self):
        assert binary_entropy(0.5) == 1.0
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        expected = -0.11 * math.log2(0.11) - 0.89 * math.log2(0.89)
        assert binary_entropy(0.11) == pytest.approx(expected, rel=1e-14)
        assert expected == pytest.approx(0.499915958164528, rel=1e-12)

    def test_symmetry_and_maximum(self):
        for p in (0.01, 0.1, 0.3, 0.47):
            assert binary_entropy(p) == pytest.approx(binary_entropy(1 - p), rel=1e-12)
            assert binary_entropy(p) < 1.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            binary_entropy(-0.01)
        with pytest.raises(ValueError):
            binary_entropy(1.01)


class TestEliminationCoefficients:
    def test_single_photon_coefficient_positive(self):
        assert hsps_elimination_coefficient(1, 0.05, 0.1, 0.8) > 0
        assert wcs_elimination_coefficient(1, 0.05, 0.1) > 0

    def test_two_photon_cancellation(self):
        rng = np.random.default_rng(29)
        for _ in range(300):
            mu, mu_prime = _draw_intensities(rng)
            eta_a = rng.uniform(0.05, 1.0)
            assert abs(hsps_elimination_coefficient(2, mu, mu_prime, eta_a)) <= 1e-14
            assert abs(wcs_elimination_coefficient(2, mu, mu_prime)) <= 1e-14

    def test_multi_photon_coefficients_negative(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            mu, mu_prime = _draw_intensities(rng)
            eta_a = rng.uniform(0.05, 1.0)
            for n in range(3, 51):
                assert hsps_elimination_coefficient(n, mu, mu_prime, eta_a) < 0
                assert wcs_elimination_coefficient(n, mu, mu_prime) < 0

    @pytest.mark.parametrize("kind", ["hsps", "wcs"])
    def test_dropping_three_or_more_photons_is_tight(self, kind):
        # on sequences of at most two photons the elimination drops nothing: the
        # bound is Y1 itself, and the decoy constraint then implies the true Y2
        rng = np.random.default_rng(37)
        for _ in range(2000):
            yields = [rng.random(), rng.uniform(1e-3, 1.0), rng.random()]
            mu, mu_prime = _draw_intensities(rng)
            if kind == "hsps":
                eta_a, d_a = rng.uniform(0.05, 1.0), rng.uniform(0.0, 1e-3)
                src, k2 = TriggeredSource(eta_a, d_a), 1.0 - (1.0 - eta_a) ** 2
                ty = [synthesize_observables_from_yields(yields, x, eta_a, d_a) for x in (mu, mu_prime)]
            else:
                src, k2 = COHERENT, 0.5
                ty = [synthesize_wcs_gain_from_yields(yields, x) for x in (mu, mu_prime)]
            w_mu = src.weights(FLOATS, mu)
            y1 = _raw_y1(w_mu, src.weights(FLOATS, mu_prime), yields[0], *ty)
            _, inv_g, k0, k1, u = w_mu
            y2 = (ty[0] * inv_g - k0 * yields[0] - k1 * u * y1) / (k2 * u**2)
            assert y1 == pytest.approx(yields[1], rel=1e-9)
            assert 0.0 <= y2 <= 1.0 and y2 == pytest.approx(yields[2], abs=1e-9)

    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            hsps_elimination_coefficient(3, 0.2, 0.1, 0.8)
        with pytest.raises(ValueError):
            wcs_elimination_coefficient(3, 0.2, 0.1)


class TestSynthesizeObservables:
    def test_all_zero_yields(self):
        assert synthesize_observables_from_yields(np.zeros(20), 0.1, 0.8, 1e-5) == 0.0

    def test_single_photon_only(self):
        y1, x, eta_a = 0.37, 0.12, 0.8
        yields = np.zeros(10)
        yields[1] = y1
        expected = y1 * eta_a * x / (1 + x) ** 2
        got = synthesize_observables_from_yields(yields, x, eta_a, 0.0)
        assert got == pytest.approx(expected, rel=1e-14)

    def test_all_ones_with_unit_dark_rate_recovers_trigger_probability(self):
        # Y_n = 1 everywhere turns the constraint into the total trigger mass
        x, eta_a = 0.3, 0.7
        yields = np.ones(400)
        got = synthesize_observables_from_yields(yields, x, eta_a, 1.0)
        expected = 1.0 / (1 + x) + eta_a * x / (1 + eta_a * x)
        assert got == pytest.approx(expected, rel=1e-10)

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            synthesize_observables_from_yields([1.5], 0.1, 0.8, 0.0)
        with pytest.raises(ValueError):
            synthesize_observables_from_yields([], 0.1, 0.8, 0.0)

    def test_wcs_counterpart(self):
        assert synthesize_wcs_gain_from_yields(np.zeros(5), 0.1) == 0.0
        yields = np.zeros(8)
        yields[1] = 0.25
        got = synthesize_wcs_gain_from_yields(yields, 0.3)
        assert got == pytest.approx(0.25 * 0.3 * math.exp(-0.3), rel=1e-13)
        assert synthesize_wcs_gain_from_yields(np.ones(60), 0.4) == pytest.approx(1.0, rel=1e-12)


class TestY1LowerBoundHsps:
    def test_tight_when_no_multi_photons(self):
        mu, mu_prime, eta_a, d_a = 0.05, 0.1, 0.8, 1e-5
        yields = np.zeros(5)
        yields[0] = 2e-6
        yields[1] = 1e-3
        obs = _obs_from_ty(
            y0=yields[0],
            ty_mu=synthesize_observables_from_yields(yields, mu, eta_a, d_a),
            ty_mu_prime=synthesize_observables_from_yields(yields, mu_prime, eta_a, d_a),
        )
        bound = compute_bounds(TriggeredSource(eta_a, d_a), obs, mu, mu_prime).y1_lower
        assert bound == pytest.approx(1e-3, rel=1e-9)

    def test_sound_on_random_yield_sequences(self):
        rng = np.random.default_rng(37)
        for _ in range(2000):
            yields = rng.random(51)
            mu, mu_prime = _draw_intensities(rng)
            eta_a = rng.uniform(0.05, 1.0)
            d_a = rng.uniform(0.0, 1e-3)
            obs = _obs_from_ty(
                y0=yields[0],
                ty_mu=synthesize_observables_from_yields(yields, mu, eta_a, d_a),
                ty_mu_prime=synthesize_observables_from_yields(yields, mu_prime, eta_a, d_a),
            )
            bound = compute_bounds(TriggeredSource(eta_a, d_a), obs, mu, mu_prime).y1_lower
            assert bound <= yields[1] + 1e-12

    def test_all_zero_observables(self):
        # a zero signal yield is refused whatever the decoy, before raw Y1 is formed
        with pytest.raises(ValueError, match="^no clicks at the signal intensity mu_prime=0.1;"):
            compute_bounds(TriggeredSource(0.8, 1e-5), _obs_from_ty(0.0, 0.0, 0.0), 0.05, 0.1)
        obs = _obs_from_ty(0.0, 0.0, 1e-3)
        assert compute_bounds(TriggeredSource(0.8, 1e-5), obs, 0.05, 0.1).y1_lower == 0.0

    def test_ordering_error(self):
        obs = _obs_from_ty(0.0, 0.01, 0.02)
        with pytest.raises(ValueError):
            compute_bounds(TriggeredSource(0.8, 1e-5), obs, 0.1, 0.05)


@pytest.mark.parametrize("src", [TriggeredSource(0.8, 1e-5), COHERENT], ids=["hsps", "wcs"])
@pytest.mark.parametrize("mu, mu_prime", [(0.5, 0.1), (0.1, 0.1), (0.0, 0.1), (-0.1, 0.1)])
def test_forecast_and_bounds_refuse_bad_ordering_with_one_message(src, mu, mu_prime):
    message = f"intensities must satisfy 0 < mu < mu_prime, got mu={mu}, mu_prime={mu_prime}"
    with pytest.raises(ValueError) as exc:
        forecast(src, mu, mu_prime, GYS.at_distance(20.0))
    assert str(exc.value) == message
    with pytest.raises(ValueError) as exc:
        compute_bounds(src, _obs_from_ty(1e-6, 0.01, 0.02, 0.05, 0.03), mu, mu_prime)
    assert str(exc.value) == message


class TestSinglePhotonFraction:
    @staticmethod
    def _delta1(yields, x, eta_a, ty_x):
        """compute_bounds' Delta1 at signal intensity x with rescaled yield ty_x.

        The decoy at x/2 is synthesized from yields with Y_n = 0 for n >= 3,
        so the elimination recovers Y1 = yields[1]: the two-photon term
        cancels and the trigger has no dark counts.
        """
        ty_mu = synthesize_observables_from_yields(yields, x / 2.0, eta_a, 0.0)
        obs = _obs_from_ty(yields[0], ty_mu, ty_x)
        return compute_bounds(TriggeredSource(eta_a, 0.0), obs, x / 2.0, x).delta1

    def test_zero_yield(self):
        assert self._delta1([0.0, 0.0], 0.1, 0.8, 0.01) == 0.0

    def test_pure_single_photon_clicks(self):
        y1, x, eta_a = 1e-3, 0.1, 0.8
        ty = y1 * eta_a * x / (1 + x) ** 2
        assert self._delta1([0.0, y1], x, eta_a, ty) == pytest.approx(1.0, rel=1e-12)

    def test_half_single_photon_case(self):
        y1, x, eta_a = 1e-3, 0.1, 0.8
        ty = 2.0 * y1 * eta_a * x / (1 + x) ** 2
        # as many two-photon clicks as single-photon ones at x
        y2 = y1 * eta_a * (1 + x) / (x * (1 - (1 - eta_a) ** 2))
        assert self._delta1([0.0, y1, y2], x, eta_a, ty) == pytest.approx(0.5, rel=1e-12)

    def test_zero_denominator(self):
        with pytest.raises(ValueError):
            self._delta1([0.0, 1e-3], 0.1, 0.8, 0.0)


class TestE1UpperBound:
    def test_exact_on_error_free_single_photon_channel(self):
        # only misalignment errors, no dark counts anywhere, no multi-photons
        mu, eta_a, e_d, y1 = 0.05, 0.8, 0.033, 1e-3
        ty_mu = y1 * eta_a * mu / (1 + mu) ** 2
        e_mu = e_d
        bound = _e1_upper(TriggeredSource(eta_a, 0.0), y1, mu, e_mu, ty_mu, y0=0.0)
        assert bound == pytest.approx(e_d, rel=1e-9)

    def test_zero_error_mass(self):
        assert _e1_upper(TriggeredSource(0.8, 0.0), 1e-3, 0.05, 0.0, 1e-4, y0=0.0) == 0.0

    def test_dominates_true_single_photon_error(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            ch = ChannelParams(
                distance_km=rng.uniform(0.0, 120.0),
                eta_b=rng.uniform(0.01, 0.3),
                d_b=rng.uniform(1e-7, 1e-4),
                e_d=rng.uniform(0.005, 0.1),
            )
            mu, mu_prime = 0.05, 0.3
            eta_a = rng.uniform(0.5, 1.0)
            d_a = rng.uniform(0.0, 1e-3)
            obs = forecast_observables(mu, mu_prime, eta_a, d_a, ch)
            bounds = compute_hsps_bounds(obs, mu, mu_prime, eta_a, d_a)
            if bounds.y1_lower == 0.0:
                continue
            assert bounds.e1_upper >= n_photon_error_rate(1, ch) - 1e-12


class TestComputeHspsBounds:
    @pytest.mark.parametrize("mu, mu_prime", [(1e17, 2e17), (1e20, 1e300)])
    def test_intensities_whose_u_rounds_equal_are_an_error(self, mu, mu_prime):
        # x/(1+x) rounds to 1 at both, so the elimination would divide by zero
        obs = _obs_from_ty(1e-6, 0.5, 0.6, e_mu=0.02)
        message = re.escape(f"Y1 bound undefined at mu={mu}, mu_prime={mu_prime}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            compute_bounds(TriggeredSource(0.8, 1e-5), obs, mu, mu_prime)

    def test_feasible_in_secure_region(self):
        obs = forecast_observables(0.05, 0.3, 0.8, 1e-5, GYS.at_distance(20.0))
        b = compute_hsps_bounds(obs, 0.05, 0.3, 0.8, 1e-5)
        assert b.feasible
        assert 0 < b.y1_lower < 1
        assert 0 < b.delta1 < 1
        assert 0 < b.e1_upper < 0.5

    def test_negative_numerator_flags_infeasible(self):
        obs = _obs_from_ty(0.0, 1e-6, 0.5, e_mu=0.01, e_mu_prime=0.01)
        b = compute_hsps_bounds(obs, 0.05, 0.1, 0.8, 1e-5)
        assert b.y1_lower == 0.0
        assert not b.feasible

    def test_y1_clamped_to_one_flags_infeasible(self):
        obs = _obs_from_ty(0.0, 0.1, 0.1, e_mu=0.01, e_mu_prime=0.01)
        b = compute_hsps_bounds(obs, 0.05, 0.1, 0.8, 0.0)
        assert b.y1_lower == 1.0
        assert not b.feasible

    def test_excess_qber_clamps_e1_and_flags(self):
        obs = _obs_from_ty(0.0, 0.002, 0.004, e_mu=0.5, e_mu_prime=0.5)
        b = compute_hsps_bounds(obs, 0.05, 0.1, 0.8, 0.0)
        assert b.y1_lower > 0
        assert b.e1_upper == 0.5
        assert not b.feasible

    def test_negative_e1_clamps_and_flags(self):
        obs = _obs_from_ty(1.0, 0.01, 0.02, e_mu=0.0, e_mu_prime=0.0)
        b = compute_hsps_bounds(obs, 0.05, 0.1, 0.8, 0.001)
        assert 0 < b.y1_lower < 1
        assert b.e1_upper == 0.0
        assert not b.feasible

    def test_zero_signal_yield_is_named_error(self):
        obs = _obs_from_ty(0.0, 1e-3, 0.0, e_mu=0.03)
        with pytest.raises(ValueError, match="signal intensity mu_prime=0.5"):
            compute_hsps_bounds(obs, 0.1, 0.5, 0.8, 1e-5)


class TestKeyRateHsps:
    def test_perfect_single_photon_protocol(self):
        obs = _obs_from_ty(0.0, 0.01, 0.02, e_mu=0.0, e_mu_prime=0.0)
        bounds = SecurityBounds(y1_lower=1.0, delta1=1.0, e1_upper=0.0, feasible=True)
        assert key_rate_hsps(obs, bounds) == pytest.approx(0.02 / 2.0, rel=1e-14)

    def test_error_correction_cost_clamps_to_zero(self):
        obs = _obs_from_ty(0.0, 0.01, 0.02, e_mu=0.5, e_mu_prime=0.5)
        bounds = SecurityBounds(y1_lower=1e-3, delta1=0.9, e1_upper=0.2, feasible=True)
        assert key_rate_hsps(obs, bounds) == 0.0

    def test_rejects_sub_unity_f(self):
        obs = _obs_from_ty(0.0, 0.01, 0.02, e_mu=0.0, e_mu_prime=0.0)
        bounds = SecurityBounds(1.0, 1.0, 0.0, True)
        with pytest.raises(ValueError):
            key_rate_hsps(obs, bounds, f=0.9)


class TestIdealBenchmarks:
    def test_true_single_photon_yield_without_dark_counts(self):
        ch = ChannelParams(d_b=0.0, distance_km=50.0)
        eta = 0.045 * 10 ** (-0.21 * 50.0 / 10.0)
        assert n_photon_click_probability(1, ch) == pytest.approx(eta, rel=1e-12)

    def test_delta1_two_evaluations_agree_at_zero_distance(self):
        ch = GYS.at_distance(0.0)
        mu_prime, eta_a, d_a = 0.3, 0.8, 1e-5
        src = HeraldedSourceParams(x=mu_prime, eta_a=eta_a, d_a=d_a)
        # the benchmark's Delta1: exact Y1 over the closed-form rescaled yield
        delta1 = min(1.0, _delta1(n_photon_click_probability(1, ch),
                                  TriggeredSource(eta_a, d_a).weights(FLOATS, mu_prime),
                                  closed_form(src, ch)[1]))
        # direct single-photon term share of the series evaluation
        ty_series = simulate_rescaled_yield_series(src, ch)
        single = (
            (mu_prime / (1 + mu_prime) ** 2)
            * eta_a
            * n_photon_click_probability(1, ch)
        )
        assert delta1 == pytest.approx(single / ty_series, rel=1e-12)

    @pytest.mark.parametrize("distance", [0.0, 25.0, 50.0, 100.0, 140.0])
    def test_ideal_rate_dominates_bounded_rate(self, distance):
        ch = GYS.at_distance(distance)
        mu, mu_prime, eta_a, d_a = 0.05, 0.25, 0.8, 1e-5
        obs = forecast_observables(mu, mu_prime, eta_a, d_a, ch)
        bounds = compute_hsps_bounds(obs, mu, mu_prime, eta_a, d_a)
        rate = key_rate_hsps(obs, bounds)
        assert ideal_rate(TriggeredSource(eta_a, d_a), mu_prime, ch) >= rate - 1e-15

    @pytest.mark.parametrize("distance", [0.0, 25.0, 50.0, 100.0])
    def test_wcs_ideal_rate_dominates_bounded_rate(self, distance):
        ch = GYS.at_distance(distance)
        mu, mu_prime = 0.05, 0.4
        obs = forecast_wcs_observables(mu, mu_prime, ch)
        bounds = compute_wcs_bounds(obs, mu, mu_prime)
        rate = key_rate_wcs(obs, bounds)
        assert ideal_rate(COHERENT, mu_prime, ch) >= rate - 1e-15


class TestY1LowerBoundWcs:
    def test_tight_when_no_multi_photons(self):
        mu, mu_prime = 0.05, 0.1
        yields = np.zeros(5)
        yields[0] = 2e-6
        yields[1] = 1e-3
        q_mu = synthesize_wcs_gain_from_yields(yields, mu)
        q_mu_prime = synthesize_wcs_gain_from_yields(yields, mu_prime)
        bound = compute_bounds(
            COHERENT, _obs_from_ty(yields[0], q_mu, q_mu_prime), mu, mu_prime).y1_lower
        assert bound == pytest.approx(1e-3, rel=1e-9)

    def test_sound_on_random_yield_sequences(self):
        rng = np.random.default_rng(43)
        for _ in range(2000):
            yields = rng.random(51)
            mu, mu_prime = _draw_intensities(rng)
            q_mu = synthesize_wcs_gain_from_yields(yields, mu)
            q_mu_prime = synthesize_wcs_gain_from_yields(yields, mu_prime)
            bound = compute_bounds(
                COHERENT, _obs_from_ty(yields[0], q_mu, q_mu_prime), mu, mu_prime).y1_lower
            assert bound <= yields[1] + 1e-12

    def test_all_zero_gains(self):
        # a zero signal gain is refused whatever the decoy, before raw Y1 is formed
        with pytest.raises(ValueError, match="^no clicks at the signal intensity mu_prime=0.1;"):
            compute_bounds(COHERENT, _obs_from_ty(0.0, 0.0, 0.0), 0.05, 0.1)
        assert compute_bounds(COHERENT, _obs_from_ty(0.0, 0.0, 1e-3), 0.05, 0.1).y1_lower == 0.0

    @pytest.mark.parametrize("mu, mu_prime", [
        (710.0, 800.0),  # e^mu and e^mu' both saturate at inf
        (700.0, 700.01),  # e^mu is finite, mu'^2 * q_mu * e^mu is not
    ])
    def test_overflowing_decoy_term_is_an_error_not_zero(self, mu, mu_prime):
        # the raw bound is inf - inf, which no clamp may turn into a number
        obs = _obs_from_ty(1e-6, 0.5, 0.6, e_mu=0.02)
        message = f"^Y1 bound undefined at mu={mu}, mu_prime={mu_prime}$"
        with pytest.raises(ValueError, match=message):  # with and without the decoy QBER
            compute_bounds(COHERENT, replace(obs, e_mu=None), mu, mu_prime)
        with pytest.raises(ValueError, match=message):
            compute_wcs_bounds(obs, mu, mu_prime)

    def test_ordering_error(self):
        with pytest.raises(ValueError):
            compute_bounds(COHERENT, _obs_from_ty(0.0, 0.01, 0.02), 0.1, 0.05)


class TestWcsBoundsAndRate:
    def test_single_photon_fraction_and_e1(self):
        q = 0.25 * 0.4 * math.exp(-0.4)
        # a decoy at 0.2 with Y_n = 0 for n >= 2 makes the elimination recover Y1 = 0.25
        q_mu = synthesize_wcs_gain_from_yields([0.0, 0.25], 0.2)
        delta1 = compute_bounds(COHERENT, _obs_from_ty(0.0, q_mu, q), 0.2, 0.4).delta1
        assert delta1 == pytest.approx(1.0, rel=1e-12)
        assert _e1_upper(COHERENT, 1e-3, 0.05, 0.0, 1e-4, 0.0) == 0.0

    def test_perfect_single_photon_protocol(self):
        obs = ObservedStatistics(y0=0.0, y_mu=0.01, y_mu_prime=0.02,
                                 ty_mu=0.01, ty_mu_prime=0.02,
                                 e_mu=0.0, e_mu_prime=0.0)
        bounds = SecurityBounds(1.0, 1.0, 0.0, True)
        assert key_rate_wcs(obs, bounds) == pytest.approx(0.01, rel=1e-14)

    def test_bounds_feasible_in_secure_region(self):
        ch = GYS.at_distance(20.0)
        obs = forecast_wcs_observables(0.05, 0.5, ch)
        b = compute_wcs_bounds(obs, 0.05, 0.5)
        assert b.feasible
        rate = key_rate_wcs(obs, b)
        assert rate > 0

    def test_e1_and_qber_dominate_truth(self):
        rng = np.random.default_rng(47)
        for _ in range(100):
            ch = ChannelParams(
                distance_km=rng.uniform(0.0, 100.0),
                eta_b=rng.uniform(0.01, 0.3),
                d_b=rng.uniform(1e-7, 1e-4),
                e_d=rng.uniform(0.005, 0.1),
            )
            mu, mu_prime = 0.05, 0.4
            obs = forecast_wcs_observables(mu, mu_prime, ch)
            bounds = compute_wcs_bounds(obs, mu, mu_prime)
            if bounds.y1_lower == 0.0:
                continue
            assert bounds.e1_upper >= n_photon_error_rate(1, ch) - 1e-12

    def test_zero_signal_gain_is_named_error(self):
        obs = _obs_from_ty(0.0, 1e-3, 0.0, e_mu=0.03)
        with pytest.raises(ValueError, match="signal intensity mu_prime=0.5"):
            compute_wcs_bounds(obs, 0.1, 0.5)


class TestE1AndDelta1Soundness:
    """The c01 harness for the other two bounds, with error rates drawn too.

    Wherever a Y1 is certified, e1_upper may not lie below the true e1 and
    Delta1 not above the true single-photon share of the signal clicks.
    """

    @pytest.mark.parametrize("kind, seed", [("hsps", 61), ("wcs", 67)])
    def test_sound_on_random_yields_and_error_rates(self, kind, seed):
        rng = np.random.default_rng(seed)
        start = time.perf_counter()
        certified = 0
        for _ in range(5000):
            yields = rng.random(51)
            errors = rng.uniform(0.0, 0.5, 51)
            mu, mu_prime = _draw_intensities(rng)
            if kind == "hsps":
                eta_a, d_a = rng.uniform(0.05, 1.0), rng.uniform(0.0, 1e-3)
                src = TriggeredSource(eta_a, d_a)

                def synth(ys, x):
                    return synthesize_observables_from_yields(ys, x, eta_a, d_a)
            else:
                src, synth = COHERENT, synthesize_wcs_gain_from_yields
            ty_mu, ty_mu_prime = synth(yields, mu), synth(yields, mu_prime)
            # the error masses are the constraints of the yields Y_n * e_n
            e_mu = synth(yields * errors, mu) / ty_mu
            obs = _obs_from_ty(yields[0], ty_mu, ty_mu_prime, e_mu=e_mu)
            b = compute_bounds(src, obs, mu, mu_prime, e_0=errors[0])
            if b.y1_lower > 0.0:
                certified += 1
                assert b.e1_upper >= errors[1]
                assert b.delta1 <= synth([0.0, yields[1]], mu_prime) / ty_mu_prime
        elapsed = time.perf_counter() - start
        assert certified > 2000
        assert elapsed < 5.0


class TestMissingDecoyQber:
    @pytest.mark.parametrize("kind, seed", [("hsps", 53), ("wcs", 59)])
    def test_changes_only_e1(self, kind, seed):
        rng = np.random.default_rng(seed)
        certified = 0
        for _ in range(2000):
            mu, mu_prime = _draw_intensities(rng)
            if kind == "hsps":
                src = TriggeredSource(rng.uniform(0.05, 1.0), rng.uniform(0.0, 1e-3))
            else:
                src = COHERENT
            counts = []
            for _ in range(3):
                pulses = 10.0 ** rng.uniform(4.0, 10.0)
                triggered = pulses if kind == "wcs" else pulses * rng.uniform(0.01, 0.5)
                clicks = triggered * 10.0 ** rng.uniform(-6.0, -1.0)
                counts.append(IntensityCounts(pulses, triggered, clicks,
                                              clicks * rng.uniform(0.0, 0.5)))
            vacuum, decoy, signal = counts
            b = compute_bounds(src, statistics_from_counts(vacuum, decoy, signal), mu, mu_prime)
            without = statistics_from_counts(vacuum, replace(decoy, errors=None), signal)
            b_none = compute_bounds(src, without, mu, mu_prime)
            assert (b_none.y1_lower, b_none.delta1, b_none.e1_upper) == (b.y1_lower, b.delta1, None)
            # only the e1 clamps drop out of the judgement
            assert b_none.feasible or not b.feasible
            certified += b.y1_lower > 0.0
        assert 0 < certified < 2000

    def test_rates_refuse_bounds_without_e1(self):
        obs = _obs_from_ty(0.0, 0.01, 0.02, e_mu_prime=0.02)
        bounds = compute_bounds(TriggeredSource(0.8, 1e-5), obs, 0.05, 0.1)
        assert bounds.y1_lower > 0.0 and bounds.e1_upper is None
        with pytest.raises(ValueError, match="QBER at the decoy intensity"):
            key_rate(obs, bounds)
        with pytest.raises(ValueError, match="QBER at the decoy intensity"):
            rate_and_feasibility(obs, bounds, 1.2)

    def test_rates_refuse_a_missing_signal_qber_by_name(self):
        # the same named error from both, not a TypeError from binary_entropy(None)
        obs = _obs_from_ty(0.0, 0.01, 0.02, e_mu=0.01)
        bounds = compute_bounds(TriggeredSource(0.8, 1e-5), obs, 0.05, 0.1)
        assert bounds.e1_upper is not None
        message = "^QBER at the signal intensity is required but missing$"
        with pytest.raises(ValueError, match=message):
            key_rate(obs, bounds)
        with pytest.raises(ValueError, match=message):
            rate_and_feasibility(obs, bounds, 1.2)


class TestTriggerEfficiencyFloor:
    CFG = SweepConfig(eta_a=TriggeredSource.ETA_A_MIN, sources=("hsps",), include_ideal=False)

    def test_sweep_at_the_floor_stays_below_true_y1(self):
        points = sweep_distances(self.CFG)
        assert len(points) == 181
        for p in points:
            true_y1 = n_photon_click_probability(1, self.CFG.channel.at_distance(p.distance_km))
            assert p.bounds.y1_lower <= true_y1, p.distance_km

    def test_closed_form_matches_the_series_at_the_floor(self):
        eta_a, ch = TriggeredSource.ETA_A_MIN, self.CFG.channel
        for d in (0.0, 50.0, 100.0, 180.0):
            eta = overall_transmittance(ch.at_distance(d))
            for x in (0.01, 0.05, 0.1, 0.3, 0.5, 1.0):
                series = coincidence_series(x, eta_a, eta)
                assert abs(_coincidence_sum(x, eta_a, eta) - series) <= 1e-11 * series, (d, x)


class TestDataClassValidation:
    def test_security_bounds_ranges(self):
        with pytest.raises(ValueError):
            SecurityBounds(y1_lower=-0.1, delta1=0.0, e1_upper=0.0, feasible=True)
        with pytest.raises(ValueError):
            SecurityBounds(y1_lower=0.0, delta1=1.1, e1_upper=0.0, feasible=True)
        with pytest.raises(ValueError):
            SecurityBounds(y1_lower=0.0, delta1=0.0, e1_upper=0.6, feasible=True)

    def test_key_rate_point_invariants(self):
        obs = ObservedStatistics(y0=0.0, y_mu=0.0, y_mu_prime=0.0, ty_mu=0.0, ty_mu_prime=0.0)
        bounds = SecurityBounds(0.0, 0.0, 0.5, False)
        with pytest.raises(ValueError, match="exceeds ideal"):
            KeyRatePoint(10.0, 0.05, 0.3, key_rate=1e-3, ideal_rate=1e-4,
                         source_kind="hsps", bounds=bounds, observables=obs, feasible=False)
        with pytest.raises(ValueError):
            KeyRatePoint(10.0, 0.05, 0.3, key_rate=-1e-3, ideal_rate=1.0,
                         source_kind="hsps", bounds=bounds, observables=obs, feasible=False)
        with pytest.raises(ValueError):
            KeyRatePoint(10.0, 0.05, 0.3, key_rate=0.0, ideal_rate=1.0,
                         source_kind="laser", bounds=bounds, observables=obs, feasible=False)
        # NaN benchmark means "not computed" and is always acceptable
        p = KeyRatePoint(10.0, 0.05, 0.3, key_rate=1e-3, ideal_rate=float("nan"),
                         source_kind="hsps", bounds=bounds, observables=obs, feasible=False)
        assert math.isnan(p.ideal_rate)
