import math

import numpy as np
import pytest

from decoy_hsps.sources import (
    HeraldedSourceParams,
    TriggeredSource,
    post_selection_probability,
    triggered_source,
)
from oracles import (
    poisson_weight,
    thermal_geometric_series,
    thermal_geometric_sum,
    thermal_weight,
    triggered_distribution,
)


class TestThermalWeight:
    def test_vacuum_intensity(self):
        assert thermal_weight(1, 0.0) == 0.0

    def test_hand_values(self):
        assert thermal_weight(1, 0.05) == pytest.approx(0.05 / 1.05**2, rel=1e-14)
        assert thermal_weight(3, 1.0) == pytest.approx(1.0 / 16.0, rel=1e-14)

    def test_rejects_invalid_inputs(self):
        with pytest.raises(ValueError):
            thermal_weight(0, 0.1)
        with pytest.raises(ValueError):
            thermal_weight(-1, 0.1)
        with pytest.raises(ValueError):
            thermal_weight(1, -0.1)

    @pytest.mark.parametrize("x", [0.01, 0.05, 0.5, 1.0, 2.0])
    def test_total_mass_is_geometric(self, x):
        # sum_{n>=1} a_n(x) = x/(1+x)
        total = sum(thermal_weight(n, x) for n in range(1, 400))
        assert total == pytest.approx(x / (1.0 + x), rel=1e-12)


class TestGeometricIdentity:
    def test_closed_form_matches_series(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            x = rng.uniform(0.0, 2.0)
            q = rng.uniform(0.0, 1.0)
            closed = thermal_geometric_sum(x, q)
            series = thermal_geometric_series(x, q)
            assert closed == pytest.approx(series, rel=1e-12, abs=1e-15)

    def test_full_attenuation_edge(self):
        assert thermal_geometric_sum(0.3, 1.0) == pytest.approx(0.3 / 1.3, rel=1e-14)
        assert thermal_geometric_sum(0.3, 0.0) == 0.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            thermal_geometric_sum(0.3, 1.5)
        with pytest.raises(ValueError):
            thermal_geometric_sum(-0.1, 0.5)


class TestPostSelection:
    def test_vacuum_pulse_triggers_only_via_dark_count(self):
        src = HeraldedSourceParams(x=0.0, eta_a=0.8, d_a=1e-5)
        assert post_selection_probability(src) == pytest.approx(1e-5, rel=1e-14)

    def test_hand_value(self):
        src = HeraldedSourceParams(x=0.05, eta_a=0.8, d_a=1e-5)
        expected = 1e-5 / 1.05 + 0.04 / 1.04
        assert post_selection_probability(src) == pytest.approx(expected, rel=1e-14)

    def test_perfect_detector(self):
        src = HeraldedSourceParams(x=0.05, eta_a=1.0, d_a=0.0)
        assert post_selection_probability(src) == pytest.approx(0.05 / 1.05, rel=1e-14)

    def test_matches_truncated_series(self):
        # P_post = d_a/(1+x) + sum_n a_n(x) [1 - (1-eta_a)^n]
        src = HeraldedSourceParams(x=0.3, eta_a=0.55, d_a=2e-4)
        series = src.d_a / (1.0 + src.x) + sum(
            thermal_weight(n, src.x) * (1.0 - (1.0 - src.eta_a) ** n)
            for n in range(1, 300)
        )
        assert post_selection_probability(src) == pytest.approx(series, rel=1e-12)

    def test_strictly_increasing_in_intensity(self):
        values = [
            post_selection_probability(HeraldedSourceParams(x=x, eta_a=0.4, d_a=1e-5))
            for x in np.linspace(0.0, 2.0, 40)
        ]
        assert all(b > a for a, b in zip(values, values[1:]))


class TestTriggeredDistribution:
    def test_vacuum_source_all_mass_at_zero(self):
        src = HeraldedSourceParams(x=0.0, eta_a=0.8, d_a=1e-5)
        assert triggered_distribution(0, src) == pytest.approx(1.0, rel=1e-14)

    def test_normalization(self):
        src = HeraldedSourceParams(x=0.1, eta_a=0.6, d_a=1e-5)
        total = sum(triggered_distribution(n, src) for n in range(0, 201))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_single_photon_mass_composition(self):
        src = HeraldedSourceParams(x=0.05, eta_a=0.8, d_a=1e-5)
        expected = 0.8 * (0.05 / 1.05**2) / (1e-5 / 1.05 + 0.04 / 1.04)
        assert triggered_distribution(1, src) == pytest.approx(expected, rel=1e-12)

    def test_undefined_when_never_triggers(self):
        src = HeraldedSourceParams(x=0.0, eta_a=0.8, d_a=0.0)
        with pytest.raises(ValueError, match="post-selection"):
            triggered_distribution(0, src)

    def test_rejects_negative_photon_number(self):
        src = HeraldedSourceParams(x=0.1, eta_a=0.8, d_a=1e-5)
        with pytest.raises(ValueError):
            triggered_distribution(-1, src)


class TestPoissonWeight:
    def test_trivial_values(self):
        assert poisson_weight(0, 0.0) == 1.0
        assert poisson_weight(3, 0.0) == 0.0

    def test_hand_value(self):
        assert poisson_weight(1, 0.05) == pytest.approx(0.05 * math.exp(-0.05), rel=1e-12)

    def test_normalization(self):
        total = sum(poisson_weight(n, 0.5) for n in range(0, 51))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_rejects_invalid_inputs(self):
        with pytest.raises(ValueError):
            poisson_weight(-1, 0.5)
        with pytest.raises(ValueError):
            poisson_weight(1, -0.5)


@pytest.mark.parametrize("x", [0.05, 0.1, 0.3, 0.5, 0.8])
def test_thermal_multi_photon_tail_exceeds_poissonian(x):
    # same mean photon number, compare mass at n >= 2
    thermal_tail = sum(thermal_weight(n, x) for n in range(2, 400))
    poisson_tail = sum(poisson_weight(n, x) for n in range(2, 200))
    assert thermal_tail > poisson_tail


def test_thermal_tail_excess_crosses_over_near_unit_intensity():
    # x^2/(1+x)^2 vs 1-e^-x(1+x) swap order around x ~ 0.85, so the
    # multi-photon excess only holds for the intensities the protocol uses
    thermal = lambda x: x**2 / (1 + x) ** 2
    poisson = lambda x: 1 - math.exp(-x) * (1 + x)
    assert thermal(0.8) > poisson(0.8)
    assert thermal(1.0) < poisson(1.0)


class TestParamValidation:
    def test_heralded_params(self):
        with pytest.raises(ValueError):
            HeraldedSourceParams(x=-0.1, eta_a=0.8, d_a=0.0)
        with pytest.raises(ValueError):
            HeraldedSourceParams(x=0.1, eta_a=1.2, d_a=0.0)
        with pytest.raises(ValueError):
            HeraldedSourceParams(x=0.1, eta_a=0.8, d_a=1.0)

    def test_triggered_source(self):
        for eta_a, d_a in ((0.0, 1e-5), (1.2, 1e-5), (0.8, -1e-5), (0.8, 1.0)):
            with pytest.raises(ValueError):
                TriggeredSource(eta_a=eta_a, d_a=d_a)
        assert triggered_source(0.8, 1e-5) == TriggeredSource(eta_a=0.8, d_a=1e-5)
        assert triggered_source(0.8, 1e-5) is triggered_source(0.8, 1e-5)
