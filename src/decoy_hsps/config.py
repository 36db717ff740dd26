"""Configuration handling for the CLI: a flat key = value text format.

Precedence is command-line overrides > config file > built-in defaults.
The resolved configuration always materializes every key, round-trips
losslessly through format_config/parse_config_text, and is recorded in
the run manifest next to the produced artifacts.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from .channel import ChannelParams
from .optimizer import SweepConfig

CONFIG_KEYS = (
    "alpha_db_per_km",
    "eta_b",
    "d_b",
    "e_d",
    "e_0",
    "eta_a",
    "d_a",
    "mu",
    "mu_prime_min",
    "mu_prime_max",
    "mu_prime_coarse_step",
    "f_ec",
    "dist_start_km",
    "dist_stop_km",
    "dist_step_km",
    "sources",
)

# mu_prime_min defaults to mu + mu_prime_coarse_step when not given.
DEFAULTS = {
    "alpha_db_per_km": 0.21,
    "eta_b": 0.045,
    "d_b": 1.7e-6,
    "e_d": 0.033,
    "e_0": 0.5,
    "eta_a": 0.8,
    "d_a": 1e-5,
    "mu": 0.05,
    "mu_prime_min": None,
    "mu_prime_max": 1.0,
    "mu_prime_coarse_step": 0.01,
    "f_ec": 1.2,
    "dist_start_km": 0.0,
    "dist_stop_km": 180.0,
    "dist_step_km": 1.0,
    "sources": "hsps,wcs,ideal",
}

_SOURCE_TOKENS = ("hsps", "wcs", "ideal")


class ConfigError(ValueError):
    """Invalid configuration input (bad syntax, unknown key, bad value)."""


def parse_config_text(text: str, origin: str = "<config>") -> dict[str, str]:
    """Parse flat `key = value` lines into a raw string mapping.

    Blank lines and `#` comments are ignored. Unknown or duplicate keys
    and malformed lines raise ConfigError naming the offender and line.
    """
    values: dict[str, str] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(
                f"{origin}:{lineno}: expected 'key = value', got {raw_line.strip()!r}"
            )
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{origin}:{lineno}: unknown configuration key {key!r}")
        if key in values:
            raise ConfigError(f"{origin}:{lineno}: duplicate configuration key {key!r}")
        if not value:
            raise ConfigError(f"{origin}:{lineno}: empty value for key {key!r}")
        values[key] = value
    return values


def parse_config_file(path: str | Path) -> dict[str, str]:
    path = Path(path)
    try:
        text = path.read_text()
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    return parse_config_text(text, origin=str(path))


def parse_override(item: str) -> tuple[str, str]:
    """Parse one --override KEY=VALUE occurrence."""
    if "=" not in item:
        raise ConfigError(f"override must look like key=value, got {item!r}")
    key, _, value = item.partition("=")
    key = key.strip()
    value = value.strip()
    if key not in CONFIG_KEYS:
        raise ConfigError(f"unknown configuration key {key!r} in override")
    if not value:
        raise ConfigError(f"empty value for key {key!r} in override")
    return key, value


def _to_float(key: str, raw) -> float:
    try:
        return float(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"value for {key!r} must be a number, got {raw!r}")


def _parse_sources(raw: str) -> tuple[tuple[str, ...], bool]:
    tokens = [t.strip() for t in str(raw).split(",") if t.strip()]
    for t in tokens:
        if t not in _SOURCE_TOKENS:
            raise ConfigError(
                f"unknown source {t!r} in sources (expected a comma-separated "
                f"subset of {', '.join(_SOURCE_TOKENS)})"
            )
    kinds = tuple(k for k in ("hsps", "wcs") if k in tokens)
    if not kinds:
        raise ConfigError("sources must select at least one of hsps, wcs")
    return kinds, "ideal" in tokens


def resolve_config(
    file_values: dict[str, str] | None = None,
    overrides: dict[str, str] | None = None,
) -> SweepConfig:
    """Merge defaults, config file, and overrides into a SweepConfig."""
    merged: dict[str, object] = dict(DEFAULTS)
    merged.update(file_values or {})
    merged.update(overrides or {})

    numeric = {k: _to_float(k, merged[k]) for k in CONFIG_KEYS
               if k not in ("sources", "mu_prime_min")}
    if merged["mu_prime_min"] is None:
        mu_prime_min = numeric["mu"] + numeric["mu_prime_coarse_step"]
    else:
        mu_prime_min = _to_float("mu_prime_min", merged["mu_prime_min"])
    kinds, include_ideal = _parse_sources(merged["sources"])
    if numeric["dist_stop_km"] < numeric["dist_start_km"]:
        # SweepConfig allows it (an empty grid); a run of no distances is a mistake
        raise ConfigError(
            f"dist_stop_km ({numeric['dist_stop_km']}) must be >= "
            f"dist_start_km ({numeric['dist_start_km']})"
        )

    try:
        channel = ChannelParams(
            alpha_db_per_km=numeric["alpha_db_per_km"],
            distance_km=0.0,
            eta_b=numeric["eta_b"],
            d_b=numeric["d_b"],
            e_d=numeric["e_d"],
            e_0=numeric["e_0"],
        )
        return SweepConfig(
            channel=channel,
            mu=numeric["mu"],
            eta_a=numeric["eta_a"],
            d_a=numeric["d_a"],
            f_ec=numeric["f_ec"],
            mu_prime_min=mu_prime_min,
            mu_prime_max=numeric["mu_prime_max"],
            mu_prime_coarse_step=numeric["mu_prime_coarse_step"],
            dist_start_km=numeric["dist_start_km"],
            dist_stop_km=numeric["dist_stop_km"],
            dist_step_km=numeric["dist_step_km"],
            sources=kinds,
            include_ideal=include_ideal,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def config_as_dict(cfg: SweepConfig) -> dict[str, object]:
    """The 16 configuration keys of a resolved SweepConfig."""
    tokens = list(cfg.sources) + (["ideal"] if cfg.include_ideal else [])
    return {
        "alpha_db_per_km": cfg.channel.alpha_db_per_km,
        "eta_b": cfg.channel.eta_b,
        "d_b": cfg.channel.d_b,
        "e_d": cfg.channel.e_d,
        "e_0": cfg.channel.e_0,
        "eta_a": cfg.eta_a,
        "d_a": cfg.d_a,
        "mu": cfg.mu,
        "mu_prime_min": cfg.mu_prime_min,
        "mu_prime_max": cfg.mu_prime_max,
        "mu_prime_coarse_step": cfg.mu_prime_coarse_step,
        "f_ec": cfg.f_ec,
        "dist_start_km": cfg.dist_start_km,
        "dist_stop_km": cfg.dist_stop_km,
        "dist_step_km": cfg.dist_step_km,
        "sources": ",".join(tokens),
    }


def format_config(cfg: SweepConfig) -> str:
    """Render a resolved configuration in the flat text format.

    Floats are written with repr so parsing the result reproduces the
    configuration exactly.
    """
    values = config_as_dict(cfg)
    lines = ["# decoy-hsps sweep configuration"]
    for key in CONFIG_KEYS:
        value = values[key]
        lines.append(f"{key} = {value!r}" if isinstance(value, float) else f"{key} = {value}")
    return "\n".join(lines) + "\n"


@dataclass
class RunManifest:
    """Record of one CLI run: resolved config, tool version, artifacts."""

    version: str
    timestamp: str
    config: dict[str, object]
    artifacts: list[str] = field(default_factory=list)

    def as_dict(self) -> dict[str, object]:
        return {
            "tool": "decoy-hsps",
            "version": self.version,
            "timestamp": self.timestamp,
            "config": self.config,
            "artifacts": list(self.artifacts),
        }


def make_manifest(cfg: SweepConfig, artifacts: list[str], version: str) -> RunManifest:
    return RunManifest(
        version=version,
        timestamp=datetime.now(timezone.utc).isoformat(),
        config=config_as_dict(cfg),
        artifacts=list(artifacts),
    )


def write_manifest(manifest: RunManifest, path: str | Path) -> None:
    Path(path).write_text(json.dumps(manifest.as_dict(), indent=2) + "\n")
