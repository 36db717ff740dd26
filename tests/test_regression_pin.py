"""Exact regression pin of the scalar chain.

tests/data/scalar_chain_pin.json holds the repr of every ObservedStatistics
and SecurityBounds field, the rate, the feasibility and the ideal rate of
400 seeded (distance, mu') working points, and the statistics, bounds and
key rate of 200 seeded count sets, as computed before the bounds, forecast
and rates were rewritten as one source-generic core. Both paths use only
math, not numpy, so the pinned values do not depend on numpy's rounding;
any change to them is a change of the core's arithmetic.

Rows are [inputs..., outputs...]; outputs are either the pinned reprs or
the one name of the exception the inputs raised.
"""
import json
from pathlib import Path

import pytest

from decoy_hsps.bounds import (
    compute_hsps_bounds,
    compute_wcs_bounds,
    ideal_rate,
    key_rate_hsps,
    key_rate_wcs,
)
from decoy_hsps.channel import ChannelParams
from decoy_hsps.observables import IntensityCounts, statistics_from_counts
from decoy_hsps.optimizer import SweepConfig, _source, evaluate

PIN = json.loads((Path(__file__).parent / "data" / "scalar_chain_pin.json").read_text())
OBS_FIELDS = ("y0", "y_mu", "y_mu_prime", "ty_mu", "ty_mu_prime", "e_mu", "e_mu_prime")
BOUND_FIELDS = ("y1_lower", "delta1", "e1_upper", "feasible")


def _value(text):
    return None if text == "None" else float(text)


def _fields(obj, names):
    return [repr(getattr(obj, name)) for name in names]


def _point(kind, *numbers):
    distance, mu, mu_prime, eta_a, d_a, f_ec, alpha, eta_b, d_b, e_d, e_0 = map(float, numbers)
    channel = ChannelParams(alpha_db_per_km=alpha, eta_b=eta_b, d_b=d_b, e_d=e_d, e_0=e_0)
    cfg = SweepConfig(channel=channel, mu=mu, eta_a=eta_a, d_a=d_a, f_ec=f_ec,
                      mu_prime_min=mu_prime, mu_prime_max=mu_prime)
    ch = channel.at_distance(distance)
    src = _source(cfg, kind)
    try:
        obs, bounds, rate, feasible = evaluate(cfg, ch, src, mu_prime)
        ideal = ideal_rate(src, mu_prime, ch, f_ec)
    except (ValueError, ArithmeticError) as exc:
        return [type(exc).__name__]
    return _fields(obs, OBS_FIELDS) + _fields(bounds, BOUND_FIELDS) + [
        repr(rate), repr(feasible), repr(ideal)]


def _count_set(kind, *fields):
    mu, mu_prime, eta_a, d_a, f_ec, e_0 = map(float, fields[:6])
    values = [_value(v) for v in fields[6:]]
    sets = [IntensityCounts(*values[i:i + 4]) for i in range(0, 12, 4)]
    try:
        stats = statistics_from_counts(*sets)
        if kind == "hsps":
            bounds = compute_hsps_bounds(stats, mu, mu_prime, eta_a, d_a, e_0=e_0)
            rate = key_rate_hsps(stats, bounds, f_ec)
        else:
            bounds = compute_wcs_bounds(stats, mu, mu_prime, e_0=e_0)
            rate = key_rate_wcs(stats, bounds, f_ec)
    except (ValueError, ArithmeticError) as exc:
        return [type(exc).__name__]
    return _fields(stats, OBS_FIELDS) + _fields(bounds, BOUND_FIELDS) + [repr(rate)]


def test_pin_covers_both_sources_and_clamps():
    for key, inputs in (("points", 12), ("counts", 19)):
        rows = PIN[key]
        assert {row[0] for row in rows} == {"hsps", "wcs"}
        feasible = [row[inputs + 10] for row in rows if len(row) > inputs + 1]
        assert feasible.count("True") > 50 and feasible.count("False") > 50


@pytest.mark.parametrize("kind", ["hsps", "wcs"])
def test_working_points_match_pin(kind):
    rows = [row for row in PIN["points"] if row[0] == kind]
    assert len(rows) == 200
    for row in rows:
        assert _point(*row[:12]) == row[12:], row[:12]


@pytest.mark.parametrize("kind", ["hsps", "wcs"])
def test_count_sets_match_pin(kind):
    rows = [row for row in PIN["counts"] if row[0] == kind]
    assert len(rows) == 100
    for row in rows:
        assert _count_set(*row[:19]) == row[19:], row[:19]
