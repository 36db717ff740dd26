"""Configuration handling for the CLI: a flat key = value text format.

SweepConfig (with ChannelParams for the channel keys) owns every default
and range; this module only maps the flat keys onto it. resolve_config
takes one key -> value mapping, refuses unknown keys by name, and leaves
absent keys at SweepConfig's defaults, so the library's SweepConfig() and
an empty CLI configuration are the same. The CLI layers file, preset and
flag values into that mapping. A resolved configuration materializes
every key, round-trips losslessly through format_config/parse_config_text,
and is recorded in the run manifest next to the produced artifacts.
"""
from __future__ import annotations

import json
from collections.abc import Mapping
from datetime import datetime, timezone
from pathlib import Path

from .channel import ChannelParams
from .optimizer import SOURCE_KINDS, SweepConfig

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
# Every key but sources is a number: first the ChannelParams fields other
# than distance_km, then SweepConfig fields. sources sets SweepConfig's
# sources and include_ideal.
_NUMBER_KEYS = CONFIG_KEYS[:-1]
_CHANNEL_KEYS = CONFIG_KEYS[:5]

_SOURCE_TOKENS = SOURCE_KINDS + ("ideal",)


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
    kinds = tuple(k for k in SOURCE_KINDS if k in tokens)
    if not kinds:
        raise ConfigError(f"sources must select at least one of {', '.join(SOURCE_KINDS)}")
    return kinds, "ideal" in tokens


def resolve_config(values: Mapping[str, object] | None = None) -> SweepConfig:
    """The SweepConfig of a key -> value mapping; absent keys keep their defaults."""
    values = values or {}
    for key in values:
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown configuration key {key!r}")
    kwargs = {k: _to_float(k, values[k]) for k in _NUMBER_KEYS if k in values}
    if "sources" in values:
        kwargs["sources"], kwargs["include_ideal"] = _parse_sources(values["sources"])
    channel = {k: kwargs.pop(k) for k in _CHANNEL_KEYS if k in kwargs}
    try:
        cfg = SweepConfig(channel=ChannelParams(**channel), **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if cfg.dist_stop_km < cfg.dist_start_km:
        # SweepConfig allows it (an empty grid); a run of no distances is a mistake
        raise ConfigError(
            f"dist_stop_km ({cfg.dist_stop_km}) must be >= dist_start_km ({cfg.dist_start_km})"
        )
    return cfg


def config_as_dict(cfg: SweepConfig) -> dict[str, object]:
    """The 16 configuration keys of a resolved SweepConfig."""
    values = {k: getattr(cfg.channel if k in _CHANNEL_KEYS else cfg, k) for k in _NUMBER_KEYS}
    values["sources"] = ",".join(list(cfg.sources) + (["ideal"] if cfg.include_ideal else []))
    return values


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


def make_manifest(cfg: SweepConfig, artifacts: list[str], version: str) -> dict[str, object]:
    """Record of one CLI run: resolved config, tool version, artifacts."""
    return {
        "tool": "decoy-hsps",
        "version": version,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "config": config_as_dict(cfg),
        "artifacts": list(artifacts),
    }


def write_manifest(manifest: dict[str, object], path: str | Path) -> None:
    Path(path).write_text(json.dumps(manifest, indent=2) + "\n")
