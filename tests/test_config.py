import json

import pytest

from decoy_hsps.config import (
    CONFIG_KEYS,
    ConfigError,
    config_as_dict,
    format_config,
    make_manifest,
    parse_config_text,
    parse_override,
    resolve_config,
    write_manifest,
)
from decoy_hsps.optimizer import SweepConfig


class TestDefaults:
    def test_empty_input_materializes_all_defaults(self):
        cfg = resolve_config()
        values = config_as_dict(cfg)
        assert set(values) == set(CONFIG_KEYS)
        assert values["alpha_db_per_km"] == 0.21
        assert values["eta_b"] == 0.045
        assert values["d_b"] == 1.7e-6
        assert values["e_d"] == 0.033
        assert values["eta_a"] == 0.8
        assert values["d_a"] == 1e-5
        assert values["mu"] == 0.05
        assert values["f_ec"] == 1.2
        assert values["sources"] == "hsps,wcs,ideal"
        # auto lower bound sits one coarse step above mu
        assert values["mu_prime_min"] == pytest.approx(0.06)

    def test_library_and_cli_share_every_default(self):
        assert SweepConfig() == resolve_config()

    def test_auto_mu_prime_min_is_one_step_above_mu(self):
        assert SweepConfig(mu=0.1).mu_prime_min == 0.1 + 0.01
        assert SweepConfig(mu=0.1, mu_prime_coarse_step=0.02).mu_prime_min == 0.1 + 0.02

    def test_explicit_mu_prime_min_wins_over_auto(self):
        cfg = resolve_config({"mu_prime_min": "0.2"})
        assert cfg.mu_prime_min == 0.2


class TestParsing:
    def test_key_value_lines_with_comments(self):
        values = parse_config_text("# comment\nmu = 0.1\n\nalpha_db_per_km = 0.25 # inline\n")
        assert values == {"mu": "0.1", "alpha_db_per_km": "0.25"}

    def test_unknown_key_names_offender_and_line(self):
        with pytest.raises(ConfigError, match=r"<config>:2: unknown configuration key 'bogus'"):
            parse_config_text("mu = 0.1\nbogus = 3\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("mu = 0.1\nmu = 0.2\n")

    def test_malformed_line_reports_position(self):
        with pytest.raises(ConfigError, match=r"<config>:1"):
            parse_config_text("just some words\n")

    def test_empty_value_rejected(self):
        with pytest.raises(ConfigError, match="empty value"):
            parse_config_text("mu =\n")

    def test_non_numeric_value_rejected_at_resolve(self):
        with pytest.raises(ConfigError, match="must be a number"):
            resolve_config({"mu": "abc"})

    def test_override_parsing(self):
        assert parse_override("alpha_db_per_km=0.25") == ("alpha_db_per_km", "0.25")
        with pytest.raises(ConfigError):
            parse_override("alpha_db_per_km")
        with pytest.raises(ConfigError, match="unknown configuration key"):
            parse_override("nope=1")


class TestSources:
    def test_source_selection_variants(self):
        cfg = resolve_config({"sources": "hsps"})
        assert cfg.sources == ("hsps",) and not cfg.include_ideal
        cfg = resolve_config({"sources": "wcs,ideal"})
        assert cfg.sources == ("wcs",) and cfg.include_ideal
        cfg = resolve_config({"sources": "wcs,hsps"})
        assert cfg.sources == ("hsps", "wcs")

    def test_bad_source_token(self):
        with pytest.raises(ConfigError, match="unknown source 'laser'"):
            resolve_config({"sources": "laser"})

    def test_ideal_alone_is_not_enough(self):
        with pytest.raises(ConfigError, match="at least one"):
            resolve_config({"sources": "ideal"})


class TestValidation:
    def test_mu_prime_min_not_above_mu_names_both_values(self):
        with pytest.raises(ConfigError, match=r"0\.04.*0\.05"):
            resolve_config({"mu_prime_min": "0.04"})

    def test_channel_invariant_cited(self):
        with pytest.raises(ConfigError, match="eta_b"):
            resolve_config({"eta_b": "1.4"})

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="unknown configuration key 'bogus'"):
            resolve_config({"bogus": "1"})


class TestRoundTrip:
    @pytest.mark.parametrize(
        "raw",
        [
            {},
            {"alpha_db_per_km": "0.25", "sources": "wcs,ideal"},
            {"mu": "0.07", "mu_prime_min": "0.11", "dist_step_km": "2.5"},
        ],
    )
    def test_format_then_parse_reproduces_config(self, raw):
        cfg = resolve_config(raw)
        text = format_config(cfg)
        reparsed = resolve_config(parse_config_text(text))
        assert reparsed == cfg

    def test_manifest_config_resolves_to_same_sweep(self):
        cfg = resolve_config({"mu": "0.03", "eta_a": "0.6"})
        manifest = make_manifest(cfg, ["sweep.csv"], version="0.0.0")
        assert resolve_config(manifest["config"]) == cfg


class TestManifest:
    def test_written_manifest_is_valid_json(self, tmp_path):
        cfg = resolve_config()
        manifest = make_manifest(cfg, ["a.csv", "b.csv"], version="1.2.3")
        path = tmp_path / "run_manifest.json"
        write_manifest(manifest, path)
        data = json.loads(path.read_text())
        assert data["tool"] == "decoy-hsps"
        assert data["version"] == "1.2.3"
        assert data["artifacts"] == ["a.csv", "b.csv"]
        assert set(data["config"]) == set(CONFIG_KEYS)
        assert "timestamp" in data
