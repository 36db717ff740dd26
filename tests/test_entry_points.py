"""The six per-source entry points return the core's results exactly.

compute_{hsps,wcs}_bounds, key_rate_{hsps,wcs}, forecast_observables and
forecast_wcs_observables are one-line entry points onto compute_bounds,
key_rate and forecast, kept for the benchmark in bench/. Every other test
calls the core; tests/test_package.py keeps it that way.
"""
import pytest

from decoy_hsps.bounds import (
    compute_bounds,
    compute_hsps_bounds,
    compute_wcs_bounds,
    key_rate,
    key_rate_hsps,
    key_rate_wcs,
)
from decoy_hsps.channel import ChannelParams
from decoy_hsps.observables import forecast, forecast_observables, forecast_wcs_observables
from decoy_hsps.sources import COHERENT, triggered_source


@pytest.mark.parametrize("distance", [0.0, 60.0, 150.0, 250.0])
def test_entry_points_return_the_cores_results(distance):
    # positive rates at 0 and 60 km, zero rates beyond, and a clamped coherent e1 at 250 km
    ch = ChannelParams().at_distance(distance)
    mu, mu_prime, eta_a, d_a, e_0, f = 0.05, 0.4, 0.7, 2e-5, 0.4, 1.3
    src = triggered_source(eta_a, d_a)
    obs = forecast(src, mu, mu_prime, ch)
    assert forecast_observables(mu, mu_prime, eta_a, d_a, ch) == obs
    bounds = compute_bounds(src, obs, mu, mu_prime, e_0)
    assert compute_hsps_bounds(obs, mu, mu_prime, eta_a, d_a, e_0) == bounds
    assert key_rate_hsps(obs, bounds, f) == key_rate(obs, bounds, f)

    obs = forecast(COHERENT, mu, mu_prime, ch)
    assert forecast_wcs_observables(mu, mu_prime, ch) == obs
    bounds = compute_bounds(COHERENT, obs, mu, mu_prime, e_0)
    assert compute_wcs_bounds(obs, mu, mu_prime, e_0) == bounds
    assert key_rate_wcs(obs, bounds, f) == key_rate(obs, bounds, f)
