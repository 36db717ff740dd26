import math
import re
import time
from dataclasses import replace

import numpy as np
import pytest

from decoy_hsps.bounds import (
    SecurityBounds,
    _delta1,
    _e1_mass,
    _row,
    binary_entropy,
    compute_bounds,
    ideal_rate,
    key_rate,
    rate_and_feasibility,
)
from decoy_hsps.channel import (
    ChannelParams, n_photon_click_probability, n_photon_error_rate, overall_transmittance,
)
from decoy_hsps.numerics import FLOATS
from decoy_hsps.observables import IntensityCounts, forecast, statistics_from_counts
from decoy_hsps.optimizer import EXACT, SweepConfig, sweep_distances
from decoy_hsps.sources import COHERENT, HeraldedSourceParams, TriggeredSource, _coincidence_sum
from oracles import (
    coincidence_series,
    draw_intensities,
    hsps_elimination_coefficient,
    observed,
    simulate_rescaled_yield_series,
    simulate_wcs_gain_series,
    source_and_synthesizer,
    synthesize_observables_from_yields,
    synthesize_wcs_gain_from_yields,
    wcs_elimination_coefficient,
)

GYS = ChannelParams()
BOTH = pytest.mark.parametrize("kind", ["hsps", "wcs"])


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
    """The coherent source's coefficients; c03 checks the triggered source's."""

    def test_single_photon_coefficient_positive(self):
        assert hsps_elimination_coefficient(1, 0.05, 0.1, 0.8) > 0
        assert wcs_elimination_coefficient(1, 0.05, 0.1) > 0

    def test_two_photon_cancellation(self):
        rng = np.random.default_rng(29)
        for _ in range(300):
            assert abs(wcs_elimination_coefficient(2, *draw_intensities(rng))) <= 1e-14

    def test_multi_photon_coefficients_negative(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            mu, mu_prime = draw_intensities(rng)
            for n in range(3, 51):
                assert wcs_elimination_coefficient(n, mu, mu_prime) < 0

    @BOTH
    def test_dropping_three_or_more_photons_is_tight(self, kind):
        # on sequences of at most two photons the elimination drops nothing: the
        # bound is Y1 itself, and the decoy constraint then implies the true Y2
        rng = np.random.default_rng(37)
        for _ in range(2000):
            yields = [rng.random(), rng.uniform(1e-3, 1.0), rng.random()]
            mu, mu_prime = draw_intensities(rng)
            src, synth = source_and_synthesizer(kind, rng.uniform(0.05, 1.0), rng.uniform(0.0, 1e-3))
            obs = observed(yields[0], synth(yields, mu), synth(yields, mu_prime))
            y1 = compute_bounds(src, obs, mu, mu_prime).y1_lower
            y2 = (obs.ty_mu - synth([yields[0], y1], mu)) / synth([0.0, 0.0, 1.0], mu)
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


class TestY1LowerBound:
    @BOTH
    def test_tight_when_no_multi_photons(self, kind):
        mu, mu_prime = 0.05, 0.1
        src, synth = source_and_synthesizer(kind)
        yields = [2e-6, 1e-3, 0.0, 0.0, 0.0]
        obs = observed(yields[0], synth(yields, mu), synth(yields, mu_prime))
        assert compute_bounds(src, obs, mu, mu_prime).y1_lower == pytest.approx(1e-3, rel=1e-9)

    @pytest.mark.parametrize("mu, mu_prime", [(1e17, 2e17), (1e20, 1e300), (1e-322, 0.06)])
    def test_intensities_whose_u_rounds_equal_are_an_error(self, mu, mu_prime):
        # x/(1+x) rounds to 1 at both, or k1 u v (v - u) underflows at the tiny mu, so
        # the elimination would divide by zero
        obs = observed(1e-6, 0.5, 0.6, e_mu=0.02)
        message = re.escape(f"Y1 bound undefined at mu={mu}, mu_prime={mu_prime}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            compute_bounds(TriggeredSource(0.8, 1e-5), obs, mu, mu_prime)

    @pytest.mark.parametrize("mu, mu_prime", [
        (710.0, 800.0),  # e^mu and e^mu' both saturate at inf
        (700.0, 700.01),  # e^mu is finite, mu'^2 * q_mu * e^mu is not
        (0.1, 1e300),  # mu'^2 overflows
    ])
    def test_overflowing_decoy_term_is_an_error_not_zero(self, mu, mu_prime):
        # the raw bound is inf - inf, which no clamp may turn into a number
        obs = observed(1e-6, 0.5, 0.6, e_mu=0.02)
        message = "^" + re.escape(f"Y1 bound undefined at mu={mu}, mu_prime={mu_prime}") + "$"
        for e_mu in (0.02, None):  # with and without the decoy QBER
            with pytest.raises(ValueError, match=message):
                compute_bounds(COHERENT, replace(obs, e_mu=e_mu), mu, mu_prime)


@pytest.mark.parametrize("src", [TriggeredSource(0.8, 1e-5), COHERENT], ids=["hsps", "wcs"])
@pytest.mark.parametrize("mu, mu_prime", [(0.5, 0.1), (0.1, 0.1), (0.0, 0.1), (-0.1, 0.1)])
def test_forecast_and_bounds_refuse_bad_ordering_with_one_message(src, mu, mu_prime):
    message = f"intensities must satisfy 0 < mu < mu_prime, got mu={mu}, mu_prime={mu_prime}"
    with pytest.raises(ValueError) as exc:
        forecast(src, mu, mu_prime, GYS.at_distance(20.0))
    assert str(exc.value) == message
    with pytest.raises(ValueError) as exc:
        compute_bounds(src, observed(1e-6, 0.01, 0.02, 0.05, 0.03), mu, mu_prime)
    assert str(exc.value) == message


class _GivenSource:
    """A source whose signal at mu' and weights at mu and mu' are given outright."""

    def __init__(self, signal, w_mu, w_mu_prime):
        self.given = signal, w_mu, w_mu_prime

    def signal(self, xp, x, eta, ch):
        return self.given[0]

    def weights(self, xp, x):
        # a row takes the weights at mu on floats and those at mu' on its own namespace
        return self.given[1] if xp is FLOATS else self.given[2]


def _plain_row(mu=0.1, mu_prime=0.5, ch=GYS, **given):
    """bounds._row's plain flag on EXACT at a coherent row at 20 km, with the given terms in place of its own.

    given may name the decoy's p_mu, ty_mu and e_mu, the signal's p, ty and
    e at mu', and the weights' u and v.
    """
    eta = overall_transmittance(GYS.at_distance(20.0))
    real = zip(("p_mu", "ty_mu", "e_mu", "p", "ty", "e"),
               COHERENT.signal(FLOATS, 0.1, eta, GYS) + COHERENT.signal(FLOATS, 0.5, eta, GYS))
    t = {k: np.float64(v) for k, v in {**dict(real), "u": 0.1, "v": 0.5, **given}.items()}
    w_mu, w_mu_prime = (tuple(map(np.float64, COHERENT.weights(FLOATS, x)[:4])) for x in (0.1, 0.5))
    src = _GivenSource((t["p"], t["ty"], t["e"]), w_mu + (t["u"],), w_mu_prime + (t["v"],))
    with np.errstate(all="ignore"):
        e1_mass = _e1_mass(w_mu + (t["u"],), t["e_mu"], t["ty_mu"], ch.d_b, ch.e_0)
        row = _row(EXACT, src, mu, np.float64(mu_prime), eta, ch, (t["p_mu"], t["ty_mu"], t["e_mu"]), e1_mass, 1.2)
    return bool(row[3])


@pytest.mark.parametrize("broken", [
    dict(mu=-0.1), dict(mu_prime=0.05), dict(v=0.05), dict(p_mu=0.0), dict(p=0.0), dict(ty=0.0),
    dict(e=-0.01), dict(e=1.01),
    # k1 u v (v - u) underflows to 0 under a positive numerator: raw Y1 is inf, raw e1 0
    dict(ch=ChannelParams(d_b=0.0), e_mu=0.0, u=1e-110, v=4e-110),
    # a negative raw Y1 clamps Y1 to 0, so raw e1 is the error mass over 0
    dict(e_mu=0.0, ty_mu=1e-12), dict(e_mu=1.0, ty_mu=0.75 * GYS.d_b * math.exp(-0.1)),
], ids=["mu not positive", "mu' not above mu", "u not below v", "no trigger at mu", "no trigger at mu'",
        "no clicks at mu'", "E' below 0", "E' above 1", "raw Y1 inf", "raw e1 -inf", "raw e1 inf"])
def test_row_is_plain_only_where_every_bound_is_plainly_defined(broken):
    # each case breaks one condition of the plain-case test and leaves the others
    # holding; the shipped sources, or the text itself, imply several of them
    assert _plain_row()
    assert not _plain_row(**broken)


class TestSinglePhotonFraction:
    @staticmethod
    def _delta1(kind, yields, x, ty_x=None):
        """compute_bounds' Delta1 at signal intensity x, with signal yield ty_x (by default yields').

        The decoy at x/2 is synthesized from yields with Y_n = 0 for n >= 3,
        so the elimination recovers Y1 = yields[1]: the two-photon term
        cancels and the trigger has no dark counts.
        """
        src, synth = source_and_synthesizer(kind, d_a=0.0)
        obs = observed(yields[0], synth(yields, x / 2.0), synth(yields, x) if ty_x is None else ty_x)
        return compute_bounds(src, obs, x / 2.0, x).delta1

    @BOTH
    def test_zero_yield(self, kind):
        assert self._delta1(kind, [0.0, 0.0], 0.1, ty_x=0.01) == 0.0

    @BOTH
    def test_pure_single_photon_clicks(self, kind):
        assert self._delta1(kind, [0.0, 1e-3], 0.1) == pytest.approx(1.0, rel=1e-12)

    @BOTH
    def test_half_single_photon_case(self, kind):
        # as many two-photon clicks as single-photon ones at x
        y1, x = 1e-3, 0.1
        _, synth = source_and_synthesizer(kind, d_a=0.0)
        y2 = y1 * synth([0.0, 1.0], x) / synth([0.0, 0.0, 1.0], x)
        assert self._delta1(kind, [0.0, y1, y2], x) == pytest.approx(0.5, rel=1e-12)


class TestE1UpperBound:
    @BOTH
    @pytest.mark.parametrize("e_mu", [0.033, 0.0])
    def test_exact_on_single_photon_clicks(self, kind, e_mu):
        # no dark counts anywhere and no multi-photons: the decoy QBER is e1 itself
        mu, mu_prime, y1 = 0.05, 0.1, 1e-3
        src, synth = source_and_synthesizer(kind, d_a=0.0)
        obs = observed(0.0, synth([0.0, y1], mu), synth([0.0, y1], mu_prime), e_mu=e_mu)
        assert compute_bounds(src, obs, mu, mu_prime).e1_upper == pytest.approx(e_mu, rel=1e-9)

    @pytest.mark.parametrize("kind, seed", [("hsps", 41), ("wcs", 47)])
    def test_dominates_true_single_photon_error(self, kind, seed):
        rng = np.random.default_rng(seed)
        for _ in range(200):
            ch = ChannelParams(
                distance_km=rng.uniform(0.0, 120.0),
                eta_b=rng.uniform(0.01, 0.3),
                d_b=rng.uniform(1e-7, 1e-4),
                e_d=rng.uniform(0.005, 0.1),
            )
            mu, mu_prime = 0.05, 0.3
            src, _ = source_and_synthesizer(kind, rng.uniform(0.5, 1.0), rng.uniform(0.0, 1e-3))
            bounds = compute_bounds(src, forecast(src, mu, mu_prime, ch), mu, mu_prime)
            if bounds.y1_lower == 0.0:
                continue
            assert bounds.e1_upper >= n_photon_error_rate(1, ch) - 1e-12


class TestComputeBounds:
    @BOTH
    def test_feasible_in_secure_region(self, kind):
        src, _ = source_and_synthesizer(kind)
        obs = forecast(src, 0.05, 0.3, GYS.at_distance(20.0))
        b = compute_bounds(src, obs, 0.05, 0.3)
        assert b.feasible
        assert 0 < b.y1_lower < 1
        assert 0 < b.delta1 < 1
        assert 0 < b.e1_upper < 0.5
        assert key_rate(obs, b) > 0

    @BOTH
    @pytest.mark.parametrize("ty_mu, ty_mu_prime", [(0.0, 1e-3), (1e-6, 0.5)])
    def test_negative_numerator_certifies_nothing(self, kind, ty_mu, ty_mu_prime):
        b = compute_bounds(source_and_synthesizer(kind)[0],
                           observed(0.0, ty_mu, ty_mu_prime, e_mu=0.01, e_mu_prime=0.01), 0.05, 0.1)
        assert (b.y1_lower, b.delta1, b.e1_upper, b.feasible) == (0.0, 0.0, 0.5, False)

    @BOTH
    def test_y1_clamped_to_one_flags_infeasible(self, kind):
        obs = observed(0.0, 0.1, 0.1, e_mu=0.01, e_mu_prime=0.01)
        b = compute_bounds(source_and_synthesizer(kind, d_a=0.0)[0], obs, 0.05, 0.1)
        assert b.y1_lower == 1.0
        assert not b.feasible

    @BOTH
    def test_excess_qber_clamps_e1_and_flags(self, kind):
        obs = observed(0.0, 0.002, 0.004, e_mu=0.5, e_mu_prime=0.5)
        b = compute_bounds(source_and_synthesizer(kind, d_a=0.0)[0], obs, 0.05, 0.1)
        assert b.y1_lower > 0
        assert b.e1_upper == 0.5
        assert not b.feasible

    @BOTH
    def test_negative_e1_clamps_and_flags(self, kind):
        # error-free clicks, so the vacuum's errors (e_0 Y0) exceed the decoy's
        src, synth = source_and_synthesizer(kind, d_a=0.001)
        yields = [1.0, 1e-3]
        obs = observed(1.0, synth(yields, 0.05), synth(yields, 0.1), e_mu=0.0, e_mu_prime=0.0)
        b = compute_bounds(src, obs, 0.05, 0.1)
        assert 0 < b.y1_lower < 1
        assert b.e1_upper == 0.0
        assert not b.feasible

    @BOTH
    @pytest.mark.parametrize("ty_mu, mu, mu_prime", [(0.0, 0.05, 0.1), (1e-3, 0.1, 0.5)])
    def test_zero_signal_yield_is_named_error(self, kind, ty_mu, mu, mu_prime):
        # refused whatever the decoy, before raw Y1 is formed
        with pytest.raises(ValueError, match=f"^no clicks at the signal intensity mu_prime={mu_prime};"):
            compute_bounds(source_and_synthesizer(kind)[0], observed(0.0, ty_mu, 0.0, e_mu=0.03),
                           mu, mu_prime)


class TestKeyRate:
    """The rate formula reads no source, so each case holds for both."""

    def test_perfect_single_photon_protocol(self):
        obs = observed(0.0, 0.01, 0.02, e_mu=0.0, e_mu_prime=0.0)
        bounds = SecurityBounds(y1_lower=1.0, delta1=1.0, e1_upper=0.0, feasible=True)
        assert key_rate(obs, bounds) == pytest.approx(0.02 / 2.0, rel=1e-14)

    def test_error_correction_cost_clamps_to_zero(self):
        obs = observed(0.0, 0.01, 0.02, e_mu=0.5, e_mu_prime=0.5)
        bounds = SecurityBounds(y1_lower=1e-3, delta1=0.9, e1_upper=0.2, feasible=True)
        assert key_rate(obs, bounds) == 0.0

    def test_rejects_sub_unity_f(self):
        obs = observed(0.0, 0.01, 0.02, e_mu=0.0, e_mu_prime=0.0)
        bounds = SecurityBounds(1.0, 1.0, 0.0, True)
        with pytest.raises(ValueError):
            key_rate(obs, bounds, f=0.9)


class TestIdealBenchmarks:
    def test_true_single_photon_yield_without_dark_counts(self):
        ch = ChannelParams(d_b=0.0, distance_km=50.0)
        eta = 0.045 * 10 ** (-0.21 * 50.0 / 10.0)
        assert n_photon_click_probability(1, ch) == pytest.approx(eta, rel=1e-12)

    @BOTH
    def test_delta1_two_evaluations_agree_at_zero_distance(self, kind):
        ch, mu_prime = GYS.at_distance(0.0), 0.3
        src, synth = source_and_synthesizer(kind)
        y1 = n_photon_click_probability(1, ch)
        # the benchmark's Delta1: exact Y1 over the closed-form rescaled yield
        ty = src.signal(FLOATS, mu_prime, overall_transmittance(ch), ch)[1]
        delta1 = min(1.0, _delta1(y1, src.weights(FLOATS, mu_prime), ty))
        # the single-photon term's share of the series evaluation
        series = (simulate_wcs_gain_series(mu_prime, ch) if kind == "wcs" else
                  simulate_rescaled_yield_series(HeraldedSourceParams(mu_prime, 0.8, 1e-5), ch))
        assert delta1 == pytest.approx(synth([0.0, y1], mu_prime) / series, rel=1e-12)

    @BOTH
    @pytest.mark.parametrize("distance", [0.0, 25.0, 50.0, 100.0, 140.0])
    def test_ideal_rate_dominates_bounded_rate(self, kind, distance):
        ch = GYS.at_distance(distance)
        mu, mu_prime = 0.05, 0.3
        src, _ = source_and_synthesizer(kind)
        obs = forecast(src, mu, mu_prime, ch)
        rate = key_rate(obs, compute_bounds(src, obs, mu, mu_prime))
        assert ideal_rate(src, mu_prime, ch) >= rate - 1e-15


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
            mu, mu_prime = draw_intensities(rng)
            src, synth = source_and_synthesizer(kind, rng.uniform(0.05, 1.0), rng.uniform(0.0, 1e-3))
            ty_mu, ty_mu_prime = synth(yields, mu), synth(yields, mu_prime)
            # the error masses are the constraints of the yields Y_n * e_n
            e_mu = synth(yields * errors, mu) / ty_mu
            obs = observed(yields[0], ty_mu, ty_mu_prime, e_mu=e_mu)
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
            mu, mu_prime = draw_intensities(rng)
            src, _ = source_and_synthesizer(kind, rng.uniform(0.05, 1.0), rng.uniform(0.0, 1e-3))
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

    @BOTH
    def test_rates_refuse_bounds_without_e1(self, kind):
        obs = observed(0.0, 0.01, 0.02, e_mu_prime=0.02)
        bounds = compute_bounds(source_and_synthesizer(kind)[0], obs, 0.05, 0.1)
        assert bounds.y1_lower > 0.0 and bounds.e1_upper is None
        with pytest.raises(ValueError, match="QBER at the decoy intensity"):
            key_rate(obs, bounds)
        with pytest.raises(ValueError, match="QBER at the decoy intensity"):
            rate_and_feasibility(obs, bounds, 1.2)

    @BOTH
    def test_rates_refuse_a_missing_signal_qber_by_name(self, kind):
        # the same named error from both, not a TypeError from binary_entropy(None)
        obs = observed(0.0, 0.01, 0.02, e_mu=0.01)
        bounds = compute_bounds(source_and_synthesizer(kind)[0], obs, 0.05, 0.1)
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
