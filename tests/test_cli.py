import csv
import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import decoy_hsps.cli as cli_module
from decoy_hsps.channel import ChannelParams
from decoy_hsps.cli import CSV_COLUMNS, emit_csv, main
from decoy_hsps.config import format_config, resolve_config
from decoy_hsps.observables import forecast
from decoy_hsps.optimizer import SweepConfig, sweep_distances
from decoy_hsps.sources import HeraldedSourceParams, post_selection_probability, triggered_source
from points_csv import point_records, read_points_csv
from test_optimizer import EDGE_SWEEPS

SMALL_GRID = ["--override", "dist_stop_km=4", "--override", "dist_step_km=2"]
# brackets the coherent-source cut-off (~142 km at the defaults)
WCS_CUTOFF_GRID = ["--override", "dist_start_km=130", "--override", "dist_stop_km=150",
                   "--override", "dist_step_km=5"]
# each wide column's points-CSV rows (mu, source_kind) and rate: figure 1's
# ideal curve is mu 0.01's, each other column its own mu's or source's
WIDE_COLUMNS = {
    1: {"log10_rate_ideal": (0.01, "hsps", "ideal_rate"),
        **{f"log10_rate_mu_{mu:g}": (mu, "hsps", "key_rate") for mu in (0.01, 0.05, 0.1)}},
    2: {f"log10_rate_{kind}{suffix}": (0.05, kind, rate)
        for kind in ("hsps", "wcs") for suffix, rate in (("_ideal", "ideal_rate"), ("", "key_rate"))},
}
WIDE_COLUMNS[3] = WIDE_COLUMNS[2]


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestSweepCommand:
    def test_writes_csv_and_manifest(self, tmp_path):
        out = tmp_path / "run"
        assert main(["sweep", "--out", str(out)] + SMALL_GRID) == 0
        rows = _rows(out / "sweep.csv")
        assert tuple(rows[0]) == CSV_COLUMNS
        assert len(rows) == 1 + 3 * 2  # 3 distances x (hsps, wcs)
        manifest = json.loads((out / "run_manifest.json").read_text())
        for name in manifest["artifacts"]:
            assert (out / name).exists()
        assert manifest["config"]["dist_stop_km"] == 4.0

    def test_override_reflected_in_manifest(self, tmp_path):
        out = tmp_path / "run"
        code = main(["sweep", "--out", str(out), "--override", "alpha_db_per_km=0.25"] + SMALL_GRID)
        assert code == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["config"]["alpha_db_per_km"] == 0.25

    def test_config_file_and_flag_precedence(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("mu = 0.04\ndist_stop_km = 2\ndist_step_km = 1\nsources = hsps\n")
        out = tmp_path / "run"
        code = main(["sweep", "--config", str(cfg_file), "--out", str(out),
                     "--override", "mu=0.06"])
        assert code == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["config"]["mu"] == 0.06  # flag beats file
        assert manifest["config"]["sources"] == "hsps"

    @pytest.mark.parametrize("overrides", [["e_0=1", "dist_stop_km=1000"], ["eta_b=0", "e_0=1"]],
                             ids=["far", "dead channel"])
    def test_every_dark_count_an_error_runs(self, tmp_path, overrides):
        # with no coincidences the triggered source's error mass at e_0 = 1
        # rounds an ulp above its yield; the QBER stays capped at 1
        out = tmp_path / "run"
        assert main(["sweep", "--out", str(out)] + [a for o in overrides for a in ("--override", o)]) == 0
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert all(float(r[e]) <= 1.0 for r in rows for e in ("E_mu", "E_mu_prime"))
        assert all(float(r["key_rate"]) <= float(r["ideal_rate"]) for r in rows)
        if "eta_b=0" in overrides:
            assert all(float(r["key_rate"]) == 0.0 and r["feasible_flag"] == "0" for r in rows)
        else:
            assert float(rows[0]["key_rate"]) > 0.0 and float(rows[-1]["E_mu_prime"]) == 1.0

    def test_deterministic_output(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["sweep", "--out", str(out1)] + SMALL_GRID) == 0
        assert main(["sweep", "--out", str(out2)] + SMALL_GRID) == 0
        assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()


class TestCsvFormat:
    def test_empty_points_gives_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv([], path)
        rows = _rows(path)
        assert rows == [list(CSV_COLUMNS)]
        assert len(CSV_COLUMNS) == 15

    def test_round_trip_preserves_values_exactly(self, tmp_path):
        cfg = SweepConfig(dist_start_km=0.0, dist_stop_km=2.0, dist_step_km=1.0)
        points = sweep_distances(cfg)
        path = tmp_path / "points.csv"
        emit_csv(point_records(points), path)
        records = read_points_csv(path)
        assert len(records) == len(points)
        for rec, p in zip(records, points):
            assert rec["distance_km"] == p.distance_km
            assert rec["source_kind"] == p.source_kind
            assert rec["mu"] == p.mu
            assert rec["mu_prime_opt"] == p.mu_prime
            assert rec["Y0"] == p.observables.y0
            assert rec["Y_mu"] == p.observables.y_mu
            assert rec["Y_mu_prime"] == p.observables.y_mu_prime
            assert rec["E_mu"] == p.observables.e_mu
            assert rec["E_mu_prime"] == p.observables.e_mu_prime
            assert rec["Y1_lower"] == p.bounds.y1_lower
            assert rec["delta1"] == p.bounds.delta1
            assert rec["e1_upper"] == p.bounds.e1_upper
            assert rec["key_rate"] == p.key_rate
            assert rec["ideal_rate"] == p.ideal_rate
            assert rec["feasible_flag"] == p.feasible

    @staticmethod
    def _reference(path, header, rows):
        """The csv.writer layout the fixed-format writers reproduce."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)

    def test_points_bytes_match_csv_writer(self, tmp_path, capsys):
        grid = dict(dist_start_km=0.0, dist_stop_km=180.0, dist_step_km=45.0)
        points = (sweep_distances(SweepConfig(**grid))
                  + sweep_distances(SweepConfig(include_ideal=False, **grid)))
        no_qber = replace(points[0].observables, e_mu=None, e_mu_prime=None)
        points.append(replace(points[0], observables=no_qber))
        assert any(math.isnan(p.ideal_rate) for p in points)
        assert {p.feasible for p in points} == {True, False}

        def fmt(v):
            return format(float("nan") if v is None else v, ".17e")

        rows = []
        for p in points:
            o, b = p.observables, p.bounds
            numbers = (p.mu, p.mu_prime, o.y0, o.y_mu, o.y_mu_prime, o.e_mu, o.e_mu_prime,
                       b.y1_lower, b.delta1, b.e1_upper, p.key_rate, p.ideal_rate)
            rows.append([fmt(p.distance_km), p.source_kind] + [fmt(v) for v in numbers]
                        + ["1" if p.feasible else "0"])
        emit_csv(point_records(points), tmp_path / "points.csv")
        self._reference(tmp_path / "ref.csv", CSV_COLUMNS, rows)
        assert (tmp_path / "points.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        # the CLI writes the library's bytes for every edge sweep, and exits 1 with the
        # library's error where it refuses one (figure 1's sweeps: the figure tests)
        refused = [({"eta_b": 0.0, "d_b": 0.0, "dist_step_km": 10.0}, "hsps,wcs,ideal"),
                   ({"eta_b": 0.0, "d_b": 0.0, "dist_step_km": 10.0}, "hsps,wcs"),
                   ({"mu": 1e-12, "dist_step_km": 10.0}, "wcs,ideal"),
                   ({"mu_prime_max": 1e300, "mu_prime_coarse_step": 1e298, "dist_stop_km": 20.0}, "hsps,wcs,ideal")]
        refusals = 0
        for k, (overrides, sources) in enumerate(EDGE_SWEEPS + refused):
            if isinstance(overrides.get("mu"), list):
                continue
            values = {"sources": sources, **{key: repr(v) for key, v in overrides.items()}}
            out = tmp_path / f"sweep{k}"
            argv = ["sweep", "--out", str(out)] + [a for item in values.items() for a in ("--override", "%s=%s" % item)]
            try:
                library = sweep_distances(resolve_config(values))
            except ValueError as exc:
                assert (main(argv), capsys.readouterr().err) == (1, f"error: {exc}\n"), values
                refusals += 1
                continue
            assert main(argv) == 0, values
            emit_csv(point_records(library), tmp_path / "library.csv")
            assert (out / "sweep.csv").read_bytes() == (tmp_path / "library.csv").read_bytes(), values
        assert refusals == len(refused)

    def test_wide_bytes_match_csv_writer(self, tmp_path):
        header = ["distance_km", "log10_rate_hsps_ideal", "log10_rate_hsps"]
        # -0.0 == 0.0, but the two are written apart; -inf and nan take Python's own format
        rows = [[0.0, -2.5, -3.25], [170.0, float("-inf"), float("-inf")],
                [1e-300, float("nan"), -0.0], [-0.0, -2.5, 0.0]]
        emit_csv(rows, tmp_path / "wide.csv", header)
        self._reference(tmp_path / "ref.csv", header,
                        [[format(v, ".17e") for v in row] for row in rows])
        assert (tmp_path / "wide.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @staticmethod
    def _unlike_python_format(tmp_path, values):
        """Each (value, line) that emit_csv writes of values under a one-column header and that is
        not Python's "%.17e" of the value."""
        emit_csv([(v,) for v in values], tmp_path / "numbers.csv", ["value"])
        lines = (tmp_path / "numbers.csv").read_text().split("\n")
        assert lines[0] == "value" and lines[-1] == "" and len(lines) == len(values) + 2
        return [(v, line) for v, line in zip(values, lines[1:]) if line != "%.17e" % v]

    def test_numbers_match_python_format(self, tmp_path):
        # the writer formats numbers on arrays; each line must be Python's "%.17e" of its value,
        # on random doubles and where the array path must decline or round with care
        rng = np.random.default_rng(28)
        tens = [10.0**k for k in range(-99, 100)] + [float("1e%d" % k) for k in range(-99, 100)]
        # the doubles nearest 19-digit decimal midpoints (D + 1/2) * 10**(E - 17)
        midpoints = [float("%d5e%d" % (d, e - 18)) for d, e in
                     zip(rng.integers(10**17, 10**18, 5000).tolist(), rng.integers(-99, 99, 5000).tolist())]
        # odd m / 8 in [1e15, 1.125e15] is exact, and its 18 digits end on a tie
        ties = (rng.integers(4 * 10**15, 4.5 * 10**15, 5000) * 2 + 1) / 8
        edges = [5e-324, 2.2250738585072014e-308, 1e-99, 1e99, 0.0, math.inf, math.nan]
        near = np.array(tens + midpoints + edges)
        near = np.concatenate([near, np.nextafter(near, -np.inf), np.nextafter(near, np.inf), ties])
        values = rng.integers(0, 2**64, 200_000, dtype=np.uint64).view(np.float64).tolist()
        values += near.tolist() + (-near).tolist() + [math.log10(r) for r in rng.uniform(1e-30, 1, 1000)]
        assert self._unlike_python_format(tmp_path, values) == []

    @pytest.mark.parametrize("nudge", [-1e-9, 1e-9], ids=["log low", "log high"])
    def test_numbers_match_python_format_past_a_misjudged_exponent(self, tmp_path, monkeypatch, nudge):
        # the writer takes a number's exponent from numpy's log, which need not be correctly
        # rounded; where the exponent lands on the wrong side of an integer, near each power of
        # ten, the writer must still give Python's "%.17e" of every number
        log = np.log
        monkeypatch.setattr(np, "log", lambda x: log(x) + nudge)
        tens = np.array([10.0**k for k in range(-99, 100)] + [float("1e%d" % k) for k in range(-99, 100)])
        values = np.concatenate([tens, np.nextafter(tens, 0), np.nextafter(tens, np.inf),
                                 tens * (1 - 1e-10), tens * (1 + 1e-10)])
        assert self._unlike_python_format(tmp_path, np.concatenate([values, -values]).tolist()) == []

    def test_writer_streams(self, tmp_path):
        # 10,000 sweep records are written a block of rows at a time: 0.48 MB at peak, where a
        # writer that transposes the whole file holds 2.1 MB and one that formats it all at once 3.8 MB
        records = point_records(sweep_distances(SweepConfig()))
        records = (records * (10_000 // len(records) + 1))[:10_000]
        tracemalloc.start()
        try:
            emit_csv(records, tmp_path / "big.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6
        assert (tmp_path / "big.csv").read_text().count("\n") == 1 + len(records)


class TestFigureCommand:
    def test_figure1_has_four_series_columns(self, tmp_path):
        out = tmp_path / "fig1"
        assert main(["figure", "1", "--out", str(out)] + SMALL_GRID) == 0
        rows = _rows(out / "figure1.csv")
        assert rows[0] == [
            "distance_km",
            "log10_rate_ideal",
            "log10_rate_mu_0.01",
            "log10_rate_mu_0.05",
            "log10_rate_mu_0.1",
        ]
        assert len(rows) == 1 + 3
        assert (out / "figure1_points.csv").exists()

    def test_figure2_series_layout(self, tmp_path):
        out = tmp_path / "fig2"
        assert main(["figure", "2", "--out", str(out)] + SMALL_GRID) == 0
        rows = _rows(out / "figure2.csv")
        assert rows[0] == [
            "distance_km",
            "log10_rate_hsps_ideal",
            "log10_rate_hsps",
            "log10_rate_wcs_ideal",
            "log10_rate_wcs",
        ]
        points = read_points_csv(out / "figure2_points.csv")
        assert {r["source_kind"] for r in points} == {"hsps", "wcs"}

    def test_figure2_hsps_cutoff_exceeds_wcs_cutoff(self, tmp_path):
        out = tmp_path / "fig2cut"
        assert main(["figure", "2", "--out", str(out)] + WCS_CUTOFF_GRID) == 0
        rows = _rows(out / "figure2.csv")
        header, data = rows[0], rows[1:]
        hsps_col, wcs_col = header.index("log10_rate_hsps"), header.index("log10_rate_wcs")
        hsps_last = max(float(r[0]) for r in data if float(r[hsps_col]) > float("-inf"))
        wcs_last = max(float(r[0]) for r in data if float(r[wcs_col]) > float("-inf"))
        assert hsps_last > wcs_last

    def test_figure3_uses_weaker_trigger_detector(self, tmp_path):
        out = tmp_path / "fig3"
        assert main(["figure", "3", "--out", str(out)] + SMALL_GRID) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["config"]["eta_a"] == 0.6

    def test_invalid_figure_number(self, tmp_path):
        assert main(["figure", "7", "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("number, override", [
        ("2", "sources=hsps"),
        ("1", "mu=0.2"),
        ("1", "sources=hsps,wcs"),
        ("1", "mu_prime_min=0.2"),
        ("3", "sources=wcs"),
    ])
    def test_override_of_a_fixed_key_is_refused(self, tmp_path, capsys, number, override):
        out = tmp_path / "fig"
        assert main(["figure", number, "--out", str(out), "--override", override] + SMALL_GRID) == 1
        key = override.partition("=")[0]
        assert capsys.readouterr().err == (
            f"error: --override {key} is not allowed: figure {number} fixes '{key}'\n")
        assert not out.exists()

    def test_preset_keys_still_yield_to_overrides_and_replace_the_file(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("sources = hsps\neta_a = 0.5\n")
        out = tmp_path / "fig2"
        assert main(["figure", "2", "--config", str(cfg_file), "--out", str(out),
                     "--override", "mu=0.04"] + SMALL_GRID) == 0
        config = json.loads((out / "run_manifest.json").read_text())["config"]
        assert (config["mu"], config["eta_a"], config["sources"]) == (0.04, 0.8, "hsps,wcs,ideal")

    def test_figure1_reads_the_user_values_once(self, tmp_path, monkeypatch):
        calls = []
        for name in ("parse_config_file", "parse_override"):
            parse = getattr(cli_module, name)
            monkeypatch.setattr(cli_module, name,
                                lambda arg, name=name, parse=parse: calls.append(name) or parse(arg))
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("f_ec = 1.2\n")
        out = tmp_path / "fig1"
        assert main(["figure", "1", "--config", str(cfg_file), "--out", str(out)] + SMALL_GRID) == 0
        # three configurations, one per decoy intensity, from one parse of each user value
        assert sorted(calls) == ["parse_config_file", "parse_override", "parse_override"]
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert (manifest["config"]["f_ec"], manifest["config"]["dist_stop_km"]) == (1.2, 4.0)

    def test_figure1_manifest_records_its_decoy_intensities(self, tmp_path):
        out = tmp_path / "fig1"
        assert main(["figure", "1", "--out", str(out)] + SMALL_GRID) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        # each decoy intensity's search starts at its own mu + mu_prime_coarse_step
        assert manifest["intensities"] == {
            "mu": [0.01, 0.05, 0.1], "mu_prime_min": [mu + 0.01 for mu in (0.01, 0.05, 0.1)]}
        # config stays the resolved configuration of the last of the three sweeps
        assert manifest["config"]["mu"] == 0.1

    @pytest.mark.parametrize("number, mu_prime_min", [(1, 0.11), (2, 0.05 + 0.01), (3, 0.05 + 0.01)])
    def test_manifest_config_reproduces_the_figure(self, tmp_path, number, mu_prime_min):
        # figure 1's manifest records mu 0.1's mu_prime_min 0.11; fed back, it
        # must not start the mu 0.01 and 0.05 searches there
        first, second = tmp_path / "first", tmp_path / "second"
        assert main(["figure", str(number), "--out", str(first)]) == 0
        manifest = json.loads((first / "run_manifest.json").read_text())
        assert manifest["config"]["mu_prime_min"] == mu_prime_min
        config_file = tmp_path / f"figure{number}.cfg"
        config_file.write_text(format_config(resolve_config(manifest["config"])))
        assert main(["figure", str(number), "--config", str(config_file), "--out", str(second)]) == 0
        for name in (f"figure{number}.csv", f"figure{number}_points.csv"):
            assert (second / name).read_bytes() == (first / name).read_bytes()

    @pytest.mark.parametrize("grid", [SMALL_GRID, WCS_CUTOFF_GRID], ids=["small", "wcs-cutoff"])
    @pytest.mark.parametrize("number", [1, 2, 3])
    def test_wide_csv_is_the_pivot_of_the_points_csv(self, tmp_path, number, grid):
        out = tmp_path / "fig"
        assert main(["figure", str(number), "--out", str(out)] + grid) == 0
        points = read_points_csv(out / f"figure{number}_points.csv")
        by_key = {(r["mu"], r["source_kind"], r["distance_km"]): r for r in points}
        rows = _rows(out / f"figure{number}.csv")
        header, data = rows[0], [[float(cell) for cell in row] for row in rows[1:]]
        assert header == ["distance_km"] + list(WIDE_COLUMNS[number])
        distances = sorted({r["distance_km"] for r in points})
        assert [row[0] for row in data] == distances
        assert len(by_key) == len(points) == len(distances) * len(set(
            (mu, kind) for mu, kind, _ in WIDE_COLUMNS[number].values()))
        for row in data:
            for cell, (mu, kind, rate) in zip(row[1:], WIDE_COLUMNS[number].values()):
                value = by_key[mu, kind, row[0]][rate]
                assert cell == (math.log10(value) if value > 0.0 else -math.inf)
        # past the coherent source's cut-off its rates are zero
        assert (-math.inf in [c for row in data for c in row]) == (grid is WCS_CUTOFF_GRID and number > 1)

    def test_figure1_points_equal_one_sweep_per_mu(self, tmp_path):
        # and figures 2 and 3 one sweep each: each figure's CLI bytes are the writer's on the library's points
        sweeps = {1: [SweepConfig(mu=mu, sources=("hsps",)) for mu in (0.01, 0.05, 0.1)],
                  2: [SweepConfig(mu=0.05)], 3: [SweepConfig(mu=0.05, eta_a=0.6)]}
        for number, cfgs in sweeps.items():
            out = tmp_path / f"fig{number}"
            assert main(["figure", str(number), "--out", str(out)]) == 0
            emit_csv(point_records([p for cfg in cfgs for p in sweep_distances(cfg)]), tmp_path / "alone.csv")
            assert (out / f"figure{number}_points.csv").read_bytes() == (tmp_path / "alone.csv").read_bytes()

    @pytest.mark.parametrize("command", [["sweep"], ["figure", "2"], ["figure", "3"]])
    def test_runs_at_the_configured_mu_record_no_intensities(self, tmp_path, command):
        out = tmp_path / "run"
        assert main(command + ["--out", str(out)] + SMALL_GRID) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert list(manifest) == ["tool", "version", "timestamp", "config", "artifacts"]


class TestBoundsCommand:
    def _counts_args(self, distance=20.0, mu=0.05, mu_prime=0.3, eta_a=0.8, d_a=1e-5,
                     e_signal=None):
        ch = ChannelParams().at_distance(distance)
        obs = forecast(triggered_source(eta_a, d_a), mu, mu_prime, ch)
        pulses = 1.0

        def fmt(x, y, e):
            p_post = d_a if x == 0.0 else post_selection_probability(
                HeraldedSourceParams(x, eta_a, d_a)
            )
            triggered = pulses * p_post
            clicks = triggered * y
            parts = [repr(pulses), repr(triggered), repr(clicks)]
            if e is not None:
                parts.append(repr(clicks * e))
            return ",".join(parts)

        return obs, [
            "--vacuum", fmt(0.0, obs.y0, None),
            "--decoy", fmt(mu, obs.y_mu, obs.e_mu),
            "--signal", fmt(mu_prime, obs.y_mu_prime,
                            obs.e_mu_prime if e_signal is None else e_signal),
            "--mu", repr(mu), "--mu-prime", repr(mu_prime),
        ]

    def test_full_bound_bundle(self, tmp_path, capsys):
        obs, args = self._counts_args()
        out = tmp_path / "bounds"
        assert main(["bounds", "--out", str(out)] + args) == 0
        printed = capsys.readouterr().out
        result = json.loads(printed[: printed.index("wrote")])
        assert result["y1_lower"] > 0
        assert 0 < result["delta1"] <= 1
        assert 0 <= result["e1_upper"] < 0.5
        assert result["key_rate"] > 0
        assert result["feasible"] is True
        saved = json.loads((out / "bounds.json").read_text())
        assert saved == result

    def test_negative_rate_is_infeasible_without_clamped_bounds(self, tmp_path, capsys):
        # a signal QBER of 0.3 drives the rate formula negative, while the
        # bounds come from the decoy side and need no clamp
        _, args = self._counts_args(e_signal=0.3)
        assert main(["bounds", "--out", str(tmp_path / "bounds")] + args) == 0
        printed = capsys.readouterr().out
        result = json.loads(printed[: printed.index("wrote")])
        assert 0 < result["y1_lower"] < 1 and 0 < result["delta1"] < 1
        assert 0 < result["e1_upper"] < 0.5
        assert result["key_rate"] == 0.0
        assert result["feasible"] is False

    def test_without_error_counts_reports_partial(self, tmp_path, capsys):
        ch = ChannelParams().at_distance(20.0)
        obs = forecast(triggered_source(0.8, 1e-5), 0.05, 0.3, ch)
        out = tmp_path / "bounds"
        code = main([
            "bounds", "--out", str(out),
            "--vacuum", "1.0,1e-05,1.7e-11",
            "--decoy", f"1.0,0.0384,{repr(0.0384 * obs.y_mu)}",
            "--signal", f"1.0,0.1935,{repr(0.1935 * obs.y_mu_prime)}",
            "--mu", "0.05", "--mu-prime", "0.3",
        ])
        assert code == 0
        printed = capsys.readouterr().out
        result = json.loads(printed[: printed.index("wrote")])
        assert result["y1_lower"] > 0
        assert result["e1_upper"] is None
        assert result["key_rate"] is None

    # the bounds example of the ROADMAP, with and without its error counts
    EXAMPLE = {"--vacuum": "1e6,1e6,2", "--decoy": "1e6,1e5,100,3",
               "--signal": "1e6,3e5,600,20", "--mu": "0.1", "--mu-prime": "0.5"}
    NO_ERRORS = dict(EXAMPLE, **{"--decoy": "1e6,1e5,100", "--signal": "1e6,3e5,600"})
    BOUNDS_KEYS = ["mu", "mu_prime", "eta_a", "d_a", "y0", "y_mu", "y_mu_prime", "ty_mu",
                   "ty_mu_prime", "e_mu", "e_mu_prime", "y1_lower", "delta1", "e1_upper",
                   "key_rate", "feasible"]

    @pytest.mark.parametrize("counts, unset", [
        (EXAMPLE, []),
        (NO_ERRORS, ["e_mu", "e_mu_prime", "e1_upper", "key_rate", "feasible"]),
    ], ids=["with errors", "without errors"])
    def test_bounds_json_keys_in_order(self, tmp_path, counts, unset):
        out = tmp_path / "run"
        assert main(["bounds", "--out", str(out)] + [x for item in counts.items() for x in item]) == 0
        result = json.loads((out / "bounds.json").read_text())
        assert list(result) == self.BOUNDS_KEYS
        assert [k for k, v in result.items() if v is None] == unset

    def test_vacuum_error_count_is_accepted(self, tmp_path):
        # a vacuum with no clicks and an error count of 0 bounds as one without it
        results = []
        for vacuum in ("1e6,1e6,0,0", "1e6,1e6,0"):
            out = tmp_path / vacuum
            counts = dict(self.EXAMPLE, **{"--vacuum": vacuum})
            assert main(["bounds", "--out", str(out)] + [x for item in counts.items() for x in item]) == 0
            results.append((out / "bounds.json").read_bytes())
        assert results[0] == results[1]

    def test_nonpositive_y1_gives_zero_delta1_without_error_counts(self, tmp_path):
        # A decoy yield this low certifies no single photons. Y1 and Delta1 are
        # 0.0 with or without error counts; before one bounds path served
        # both, this run printed "y1_lower": 0.0 with "delta1": null.
        counts = dict(self.NO_ERRORS, **{"--decoy": "1e6,1e5,1", "--signal": "1e6,3e5,6000"})
        out = tmp_path / "run"
        assert main(["bounds", "--out", str(out)] + [x for item in counts.items() for x in item]) == 0
        result = json.loads((out / "bounds.json").read_text())
        assert (result["y1_lower"], result["delta1"]) == (0.0, 0.0)
        assert [k for k, v in result.items() if v is None] == [
            "e_mu", "e_mu_prime", "e1_upper", "key_rate", "feasible"]

    @pytest.mark.parametrize("mu_args, mu", [(["--mu", "0.1"], 0.1), ([], 0.05)])
    def test_manifest_records_the_intensities_analysed(self, tmp_path, mu_args, mu):
        out = tmp_path / "run"
        args = {k: v for k, v in self.EXAMPLE.items() if k != "--mu"}
        argv = ["bounds", "--out", str(out)] + [x for item in args.items() for x in item]
        assert main(argv + mu_args) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["intensities"] == {"mu": mu, "mu_prime": 0.5}
        assert manifest["config"]["mu"] == 0.05

    def test_bad_counts_shape_is_validation_error(self, tmp_path):
        assert main([
            "bounds", "--out", str(tmp_path),
            "--vacuum", "1,2",
            "--decoy", "1,1,1",
            "--signal", "1,1,1",
            "--mu-prime", "0.3",
        ]) == 1

    def test_inconsistent_counts_rejected(self, tmp_path):
        assert main([
            "bounds", "--out", str(tmp_path),
            "--vacuum", "10,20,1",  # triggered > pulses
            "--decoy", "10,5,1",
            "--signal", "10,5,1",
            "--mu-prime", "0.3",
        ]) == 1

    def test_intensity_ordering_enforced(self, tmp_path, capsys):
        assert main([
            "bounds", "--out", str(tmp_path),
            "--vacuum", "10,5,1",
            "--decoy", "10,5,1",
            "--signal", "10,5,1",
            "--mu", "0.3", "--mu-prime", "0.1",
        ]) == 1
        # the core's message, which forecast and compute_bounds also raise
        assert capsys.readouterr().err == (
            "error: intensities must satisfy 0 < mu < mu_prime, got mu=0.3, mu_prime=0.1\n")


class TestParser:
    def test_main_builds_its_parser_once_and_build_parser_a_fresh_one(self, tmp_path, monkeypatch):
        built, init = [], cli_module._Parser.__init__
        monkeypatch.setattr(cli_module._Parser, "__init__",
                            lambda self, *args, **kwargs: built.append(self) or init(self, *args, **kwargs))
        cli_module._parser.cache_clear()
        assert main(["sweep", "--out", str(tmp_path)] + SMALL_GRID) == 0
        once = len(built)  # the parser and its subcommands' parsers
        assert once > 0 and main(["sweep", "--out", str(tmp_path)] + SMALL_GRID) == 0
        assert len(built) == once
        assert cli_module.build_parser() is not cli_module._parser() and len(built) == 2 * once

    def test_one_call_leaves_no_value_to_the_next(self, tmp_path):
        # --override appends to its default list, which every call must see empty
        first, second = tmp_path / "first", tmp_path / "second"
        assert main(["sweep", "--out", str(first), "--override", "mu=0.1"] + SMALL_GRID) == 0
        assert main(["sweep", "--out", str(second), "--override", "dist_stop_km=4"]) == 0
        config = json.loads((second / "run_manifest.json").read_text())["config"]
        assert (config["mu"], config["dist_step_km"]) == (0.05, 1.0)


class TestExitCodes:
    def test_missing_config_file(self, tmp_path):
        assert main(["sweep", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)]) == 1

    def test_unknown_override_key(self, tmp_path):
        assert main(["sweep", "--out", str(tmp_path), "--override", "bogus=1"]) == 1

    def test_invalid_config_value(self, tmp_path):
        assert main(["sweep", "--out", str(tmp_path), "--override", "eta_b=2.0"]) == 1

    def test_out_dir_collides_with_file(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("file, not a directory")
        code = main(["sweep", "--out", str(blocker)] + SMALL_GRID)
        assert code == 2

    def test_missing_subcommand(self):
        assert main([]) == 1

    def test_nan_f_ec_rejected(self, tmp_path, capsys):
        self._assert_rejected(tmp_path, capsys, "f_ec=nan", "f_ec")

    def test_infinite_mu_prime_max_rejected(self, tmp_path, capsys):
        self._assert_rejected(tmp_path, capsys, "mu_prime_max=inf", "mu_prime_max")

    def test_nan_fiber_loss_rejected(self, tmp_path, capsys):
        self._assert_rejected(tmp_path, capsys, "alpha_db_per_km=nan", "alpha_db_per_km")

    def test_oversized_distance_grid_rejected(self, tmp_path, capsys):
        self._assert_rejected(tmp_path, capsys, "dist_step_km=1e-9", "dist_step_km")

    def test_oversized_mu_prime_grid_rejected(self, tmp_path, capsys):
        self._assert_rejected(tmp_path, capsys, "mu_prime_coarse_step=1e-12", "mu_prime_coarse_step")

    def test_reversed_distance_range_rejected(self, tmp_path, capsys):
        self._assert_rejected(tmp_path, capsys, "dist_start_km=10 dist_stop_km=5", "dist_stop_km")

    @pytest.mark.parametrize("mu", ["700", "710"])
    def test_overflowing_decoy_intensity_rejected(self, tmp_path, capsys, mu):
        # mu'^2 * q_mu * e^mu overflows in the coherent source's Y1 bound
        self._assert_rejected(
            tmp_path, capsys, f"mu={mu} mu_prime_max=800 sources=wcs dist_stop_km=2",
            f"Y1 bound undefined at mu={mu}.0")

    def test_large_decoy_intensity_runs_for_triggered_source(self, tmp_path):
        # the triggered source's bound has no e^mu term to overflow
        out = tmp_path / "run"
        assert main(["sweep", "--out", str(out)] + [
            arg for item in ("mu=710", "mu_prime_max=800", "sources=hsps", "dist_stop_km=2")
            for arg in ("--override", item)]) == 0
        assert (out / "sweep.csv").exists()

    def test_huge_signal_intensity_certifies_nothing(self, tmp_path, capsys):
        # the triggered source's weights at mu' = 1e200 are finite (u(mu') rounds
        # to 1), so the Y1 bound is a large negative number and clamps to 0
        assert main([
            "bounds", "--out", str(tmp_path),
            "--vacuum", "10,5,1",
            "--decoy", "10,5,1",
            "--signal", "10,5,1",
            "--mu-prime", "1e200",
        ]) == 0
        assert capsys.readouterr().err == ""
        result = json.loads((tmp_path / "bounds.json").read_text())
        assert (result["y1_lower"], result["delta1"], result["feasible"]) == (0.0, 0.0, None)

    def test_zero_signal_clicks_is_one_line_error(self, tmp_path, capsys):
        # Delta1 divides by the signal yield
        out = tmp_path / "run"
        assert main([
            "bounds", "--out", str(out),
            "--vacuum", "1e6,1e6,2",
            "--decoy", "1e6,1e5,100,3",
            "--signal", "1e6,3e5,0",
            "--mu", "0.1", "--mu-prime", "0.5",
        ]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "ZeroDivisionError" not in err and "mu_prime=0.5" in err
        assert not (out / "bounds.json").exists()

    def test_zero_signal_clicks_without_error_counts_is_the_same_error(self, tmp_path, capsys):
        # Before one bounds path served both, this run exited 0 and printed
        # "y1_lower": 0.00207968715 with "delta1": null.
        out = tmp_path / "run"
        assert main([
            "bounds", "--out", str(out),
            "--vacuum", "1e6,1e6,2",
            "--decoy", "1e6,1e5,100",
            "--signal", "1e6,3e5,0",
            "--mu", "0.1", "--mu-prime", "0.5",
        ]) == 1
        assert capsys.readouterr().err == (
            "error: no clicks at the signal intensity mu_prime=0.5; "
            "the bounds need a positive signal yield\n")
        assert not (out / "bounds.json").exists()

    def test_zero_signal_clicks_with_a_dark_decoy_is_the_same_error(self, tmp_path, capsys):
        # The signal yield used to be tested only once raw Y1 was positive, so
        # this run exited 0 and printed "y1_lower": 0.0 with "delta1": 0.0.
        out = tmp_path / "run"
        assert main([
            "bounds", "--out", str(out),
            "--vacuum", "1e6,1e6,2",
            "--decoy", "1e6,1e5,0",
            "--signal", "1e6,3e5,0",
            "--mu", "0.1", "--mu-prime", "0.5",
        ]) == 1
        assert capsys.readouterr().err == (
            "error: no clicks at the signal intensity mu_prime=0.5; "
            "the bounds need a positive signal yield\n")
        assert not (out / "bounds.json").exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--vacuum", "nan,1,0", "--vacuum: pulses must be finite, got nan"),
        ("--vacuum", "1e400,1,0", "--vacuum: pulses must be finite, got inf"),
        ("--signal", "1,1,1,inf", "--signal: errors must be finite, got inf"),
        ("--mu", "nan", "--mu must be finite, got nan"),
        ("--mu-prime", "inf", "--mu-prime must be finite, got inf"),
    ])
    def test_non_finite_bounds_input_is_one_line_error(self, tmp_path, capsys, flag, value,
                                                       message):
        args = {"--vacuum": "1,1,0", "--decoy": "1,1,1,0", "--signal": "1,1,1,0",
                "--mu": "0.1", "--mu-prime": "0.5"}
        args[flag] = value
        out = tmp_path / "run"
        argv = ["bounds", "--out", str(out)] + [x for item in args.items() for x in item]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"
        assert not (out / "bounds.json").exists()

    @pytest.mark.parametrize("eta_a", ["1e-05", "1e-16", "1e-300"])
    @pytest.mark.parametrize("command", ["sweep", "bounds"])
    def test_trigger_efficiency_below_floor_is_one_line_error(self, tmp_path, capsys, command, eta_a):
        # below TriggeredSource.ETA_A_MIN rounding lifts the Y1 bound above the true Y1
        out = tmp_path / "run"
        counts = ["--vacuum", "1e6,1e6,2", "--decoy", "1e6,1e5,100,3", "--signal", "1e6,3e5,600,20",
                  "--mu", "0.1", "--mu-prime", "0.5"]
        argv = [command, "--out", str(out), "--override", f"eta_a={eta_a}"]
        assert main(argv + (counts if command == "bounds" else SMALL_GRID)) == 1
        assert capsys.readouterr().err == f"error: eta_a must be in [0.0001, 1], got {float(eta_a)}\n"
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("step", ["1e-300", "inf", "2"])
    @pytest.mark.parametrize("command", [["sweep"], ["figure", "1"]])
    def test_coarse_step_that_spoils_the_default_mu_prime_min_names_the_step(
            self, tmp_path, capsys, command, step):
        # mu_prime_min defaults to mu + mu_prime_coarse_step, and only the step was set,
        # so the error names the step: too small to move mu, or past mu_prime_max
        out = tmp_path / "run"
        assert main(command + ["--out", str(out), "--override", f"mu_prime_coarse_step={step}"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: mu_prime_coarse_step ")
        assert "mu_prime_min (" not in err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("overrides, key", [
        ("mu_prime_coarse_step=1e-300 mu_prime_min=0.05", "mu_prime_min (0.05)"),
        ("mu_prime_coarse_step=2 mu_prime_min=2", "mu_prime_max (1.0) must be >= mu_prime_min (2.0)"),
    ])
    def test_a_set_mu_prime_min_is_still_named(self, tmp_path, capsys, overrides, key):
        self._assert_rejected(tmp_path, capsys, overrides, key)

    @staticmethod
    def _assert_rejected(tmp_path, capsys, overrides, key):
        out = tmp_path / "run"
        flags = [arg for item in overrides.split() for arg in ("--override", item)]
        assert main(["sweep", "--out", str(out)] + flags) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ") and key in err
        assert not (out / "sweep.csv").exists()
