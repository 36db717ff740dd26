"""Acceptance gate: one test per criterion, each at its stated tolerance.

Every test prints a [PASS] line on success (visible with `pytest -s` or
`-rA`); a failing criterion fails its test. Randomized harnesses use
seeded generators, with intensity pairs drawn a finite gap apart so the
elimination denominators stay far above floating-point noise while still
ranging over 0 < mu < mu' <= 1.
"""
import time

import numpy as np
import pytest

import decoy_hsps as dh
from decoy_hsps.cli import main
from decoy_hsps.optimizer import evaluate
from decoy_hsps.sources import (
    COHERENT, HeraldedSourceParams, TriggeredSource, post_selection_probability, triggered_source,
)
from oracles import (
    closed_form,
    closed_form_wcs,
    draw_intensities,
    hsps_elimination_coefficient,
    observed,
    simulate_qber_series,
    simulate_rescaled_yield_series,
    simulate_wcs_gain_series,
    simulate_wcs_qber_series,
    synthesize_observables_from_yields,
    synthesize_wcs_gain_from_yields,
    thermal_weight,
)
from points_csv import read_points_csv


def _report(cid: int, text: str) -> None:
    print(f"[PASS] criterion {cid}: {text}")


def test_c01_hsps_bound_soundness():
    rng = np.random.default_rng(2026)
    start = time.perf_counter()
    for _ in range(10_000):
        yields = rng.random(51)
        mu, mu_prime = draw_intensities(rng)
        eta_a = rng.uniform(0.05, 1.0)
        d_a = rng.uniform(0.0, 1e-3)
        obs = observed(
            yields[0],
            synthesize_observables_from_yields(yields, mu, eta_a, d_a),
            synthesize_observables_from_yields(yields, mu_prime, eta_a, d_a),
        )
        bound = dh.compute_bounds(TriggeredSource(eta_a, d_a), obs, mu, mu_prime).y1_lower
        assert bound <= yields[1] + 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(1, f"10,000 HSPS soundness trials, bound <= Y1 + 1e-12, in {elapsed:.2f} s")


def test_c02_hsps_bound_tightness():
    rng = np.random.default_rng(2027)
    worst = 0.0
    for _ in range(10_000):
        yields = np.zeros(51)
        yields[0] = rng.random()
        yields[1] = rng.uniform(1e-3, 1.0)
        mu, mu_prime = draw_intensities(rng)
        eta_a = rng.uniform(0.05, 1.0)
        d_a = rng.uniform(0.0, 1e-3)
        obs = observed(
            yields[0],
            synthesize_observables_from_yields(yields, mu, eta_a, d_a),
            synthesize_observables_from_yields(yields, mu_prime, eta_a, d_a),
        )
        bound = dh.compute_bounds(TriggeredSource(eta_a, d_a), obs, mu, mu_prime).y1_lower
        rel = abs(bound - yields[1]) / yields[1]
        worst = max(worst, rel)
        assert rel <= 1e-9
    _report(2, f"single-photon-only sequences recovered exactly, worst rel err {worst:.2e}")


def test_c03_elimination_coefficient_algebra():
    rng = np.random.default_rng(2028)
    for _ in range(1000):
        mu, mu_prime = draw_intensities(rng)
        eta_a = rng.uniform(0.05, 1.0)
        assert abs(hsps_elimination_coefficient(2, mu, mu_prime, eta_a)) <= 1e-14
        for n in range(3, 51):
            assert hsps_elimination_coefficient(n, mu, mu_prime, eta_a) < 0.0
    _report(3, "n=2 coefficient cancels to 1e-14 and n=3..50 coefficients are negative")


def test_c04_wcs_bound_soundness_and_tightness():
    rng = np.random.default_rng(2029)
    for _ in range(10_000):
        yields = rng.random(51)
        mu, mu_prime = draw_intensities(rng)
        q_mu = synthesize_wcs_gain_from_yields(yields, mu)
        q_mu_prime = synthesize_wcs_gain_from_yields(yields, mu_prime)
        bound = dh.compute_bounds(COHERENT, observed(yields[0], q_mu, q_mu_prime), mu, mu_prime).y1_lower
        assert bound <= yields[1] + 1e-12
    worst = 0.0
    for _ in range(10_000):
        yields = np.zeros(51)
        yields[0] = rng.random()
        yields[1] = rng.uniform(1e-3, 1.0)
        mu, mu_prime = draw_intensities(rng)
        q_mu = synthesize_wcs_gain_from_yields(yields, mu)
        q_mu_prime = synthesize_wcs_gain_from_yields(yields, mu_prime)
        bound = dh.compute_bounds(COHERENT, observed(yields[0], q_mu, q_mu_prime), mu, mu_prime).y1_lower
        rel = abs(bound - yields[1]) / yields[1]
        worst = max(worst, rel)
        assert rel <= 1e-9
    _report(4, f"Poissonian bound sound and tight, worst tightness rel err {worst:.2e}")


def test_c05_series_and_closed_forms_agree():
    # parameters kept away from vanishing trigger rates so 1e-12 relative
    # comparisons are meaningful; truncation tails are certified < 1e-15
    rng = np.random.default_rng(2030)
    for _ in range(100):
        x = rng.uniform(0.05, 1.0)
        eta_a = rng.uniform(0.5, 1.0)
        d_a = rng.uniform(0.0, 1e-3)
        src = HeraldedSourceParams(x=x, eta_a=eta_a, d_a=d_a)
        ch = dh.ChannelParams(
            distance_km=rng.uniform(0.0, 150.0),
            eta_b=rng.uniform(0.01, 0.5),
            d_b=rng.uniform(0.0, 1e-4),
            e_d=rng.uniform(0.0, 0.1),
        )
        assert closed_form(src, ch)[1] == pytest.approx(
            simulate_rescaled_yield_series(src, ch), rel=1e-12
        )
        assert closed_form(src, ch)[2] == pytest.approx(
            simulate_qber_series(src, ch), rel=1e-12
        )
        p_post_series = d_a / (1.0 + x) + sum(
            thermal_weight(n, x) * (1.0 - (1.0 - eta_a) ** n) for n in range(1, 300)
        )
        assert post_selection_probability(src) == pytest.approx(p_post_series, rel=1e-12)
        mu = rng.uniform(0.01, 1.0)
        assert closed_form_wcs(mu, ch)[0] == pytest.approx(
            simulate_wcs_gain_series(mu, ch), rel=1e-12
        )
        assert closed_form_wcs(mu, ch)[1] == pytest.approx(
            simulate_wcs_qber_series(mu, ch), rel=1e-12
        )
    _report(5, "closed forms match truncated series to 1e-12 on 100 random points")


def test_c06_decoy_intensity_curves_ordered_and_near_ideal():
    base = dh.resolve_config()
    distances = dh.distance_grid(base)
    ideal = {d: dh.key_rate_point(base, d, "hsps").ideal_rate for d in distances}
    curves = {}
    for mu in (0.01, 0.05, 0.10):
        cfg = dh.resolve_config({"mu": repr(mu), "sources": "hsps"})
        curves[mu] = {d: dh.key_rate_point(cfg, d, "hsps").key_rate for d in distances}
    common = [
        d for d in distances
        if curves[0.01][d] > 0 and curves[0.05][d] > 0 and curves[0.10][d] > 0
    ]
    assert common and max(common) > 100.0
    for d in common:
        assert ideal[d] >= curves[0.01][d] >= curves[0.05][d] >= curves[0.10][d]
    ratio = ideal[50.0] / curves[0.01][50.0]
    assert ratio < 3.0
    _report(6, f"ideal >= mu=0.01 >= 0.05 >= 0.10 over {len(common)} distances; "
               f"ideal/R(0.01) = {ratio:.2f} at 50 km")


def test_c07_source_comparison_cutoffs():
    cfg08 = dh.resolve_config({"sources": "hsps,wcs"})
    cutoff_hsps_08 = dh.max_secure_distance(cfg08, "hsps")
    cutoff_wcs = dh.max_secure_distance(cfg08, "wcs")
    cfg06 = dh.resolve_config({"eta_a": "0.6", "sources": "hsps"})
    cutoff_hsps_06 = dh.max_secure_distance(cfg06, "hsps")
    assert cutoff_hsps_08 is not None and cutoff_wcs is not None and cutoff_hsps_06 is not None
    assert cutoff_hsps_08 > cutoff_wcs
    assert cutoff_hsps_06 > cutoff_wcs
    assert cutoff_hsps_08 >= cutoff_hsps_06
    rate_hsps_20 = dh.key_rate_point(cfg08, 20.0, "hsps").key_rate
    rate_wcs_20 = dh.key_rate_point(cfg08, 20.0, "wcs").key_rate
    assert rate_wcs_20 > rate_hsps_20 > 0
    _report(7, f"cutoffs: triggered {cutoff_hsps_08:.1f} km (0.8) / {cutoff_hsps_06:.1f} km (0.6) "
               f"vs coherent {cutoff_wcs:.1f} km; coherent rate higher at 20 km")


def test_c08_optimizer_matches_dense_grid():
    cfg = dh.resolve_config()
    step = 1e-4
    n_cells = int(round((cfg.mu_prime_max - cfg.mu_prime_min) / step))
    src = triggered_source(cfg.eta_a, cfg.d_a)
    for distance in (0.0, 15.0, 30.0, 45.0, 60.0, 75.0, 90.0, 105.0, 120.0, 135.0):
        ch = cfg.channel.at_distance(distance)
        rate = lambda m: evaluate(cfg, ch, src, m)[2]
        best_m, best_r = cfg.mu_prime_min, rate(cfg.mu_prime_min)
        for i in range(1, n_cells + 1):
            m = cfg.mu_prime_min + i * step
            r = rate(m)
            if r > best_r:
                best_m, best_r = m, r
        point = dh.key_rate_point(cfg, distance, "hsps")
        opt_m, opt_r = point.mu_prime, point.key_rate
        assert abs(opt_m - best_m) <= 1.01e-4
        assert opt_r >= best_r - 1e-10
        for hand_picked in (0.1, 0.3, 0.5, 0.7):
            assert opt_r >= rate(hand_picked)
    _report(8, "refined optimum within one 1e-4 cell of dense-grid argmax at 10 distances")


def test_c09_figure2_performance(tmp_path):
    start = time.perf_counter()
    assert main(["figure", "2", "--out", str(tmp_path / "timed")]) == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    points = read_points_csv(tmp_path / "timed" / "figure2_points.csv")
    assert len(points) == 2 * 181  # both sources over 0..180 km at 1 km steps
    _report(9, f"full source-comparison run (0-180 km, both sources + benchmarks) in {elapsed:.2f} s")


def test_c10_deterministic_csv_output(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["figure", "2", "--out", str(out1)]) == 0
    assert main(["figure", "2", "--out", str(out2)]) == 0
    for name in ("figure2.csv", "figure2_points.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    _report(10, "consecutive identical runs produce byte-identical CSVs")
