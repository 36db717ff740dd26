"""Command-line entry point.

Subcommands:
  sweep      key-rate distance sweep, written as sweep.csv
  figure N   preset comparison scenarios (1: decoy-intensity comparison,
             2: triggered vs coherent source, 3: same with a weaker
             trigger detector), written as plot-ready log10 CSV series
  bounds     one-shot security-bound computation from observed counts

Every run writes run_manifest.json recording the resolved configuration
and the artifacts produced. Exit codes: 0 success, 1 validation or
numerical error (one "error: ..." line on stderr), 2 I/O error.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

from . import __version__
from .bounds import compute_hsps_bounds, single_photon_fraction, y1_lower_bound
from .config import (
    ConfigError,
    make_manifest,
    parse_config_file,
    parse_override,
    resolve_config,
    write_manifest,
)
from .observables import IntensityCounts, statistics_from_counts
from .optimizer import SweepConfig, rate_and_feasibility, sweep_distances
from .sources import triggered_source

CSV_COLUMNS = (
    "distance_km",
    "source_kind",
    "mu",
    "mu_prime_opt",
    "Y0",
    "Y_mu",
    "Y_mu_prime",
    "E_mu",
    "E_mu_prime",
    "Y1_lower",
    "delta1",
    "e1_upper",
    "key_rate",
    "ideal_rate",
    "feasible_flag",
)

_FIGURE1_MUS = (0.01, 0.05, 0.10)


def _csv_line(cells) -> str:
    return ",".join(cells) + "\n"


# Every number is written as "%.17e", which round-trips a float64 and
# never needs CSV quoting, so each row is one format operation; a missing
# QBER is written as nan.
_POINT_ROW = _csv_line(["%.17e", "%s"] + ["%.17e"] * 12 + ["%d"])


def emit_csv(points, path: str | Path) -> None:
    """Write sweep points as CSV, one fixed-format row per point."""
    with open(path, "w", newline="") as fh:
        fh.write(_csv_line(CSV_COLUMNS))
        for p in points:
            o, b = p.observables, p.bounds
            fh.write(_POINT_ROW % (
                p.distance_km,
                p.source_kind,
                p.mu,
                p.mu_prime,
                o.y0,
                o.y_mu,
                o.y_mu_prime,
                math.nan if o.e_mu is None else o.e_mu,
                math.nan if o.e_mu_prime is None else o.e_mu_prime,
                b.y1_lower,
                b.delta1,
                b.e1_upper,
                p.key_rate,
                p.ideal_rate,
                p.feasible,
            ))


def read_points_csv(path: str | Path) -> list[dict]:
    """Parse a CSV written by emit_csv back into typed records."""
    records = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader))
        if header != CSV_COLUMNS:
            raise ValueError(f"unexpected CSV header in {path}: {header}")
        for row in reader:
            rec: dict = dict(zip(CSV_COLUMNS, row))
            for key in CSV_COLUMNS:
                if key == "source_kind":
                    continue
                if key == "feasible_flag":
                    rec[key] = bool(int(rec[key]))
                else:
                    rec[key] = float(rec[key])
            records.append(rec)
    return records


def _log10_or_neg_inf(rate: float) -> float:
    return math.log10(rate) if rate > 0.0 else float("-inf")


def _write_wide_csv(path: Path, header: list[str], rows: list[list[float]]) -> None:
    row_format = _csv_line(["%.17e"] * len(header))
    with open(path, "w", newline="") as fh:
        fh.write(_csv_line(header))
        for row in rows:
            fh.write(row_format % tuple(row))


class _Parser(argparse.ArgumentParser):
    # Usage mistakes are validation errors (exit code 1), not argparse's 2.
    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="decoy-hsps",
        description=(
            "Secure-key-rate lower bounds for 3-intensity decoy-state BB84 "
            "with a heralded single photon source."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", metavar="PATH", help="flat 'key = value' configuration file")
        p.add_argument("--out", metavar="DIR", default=".", help="output directory (created if missing)")
        p.add_argument(
            "--override",
            metavar="KEY=VALUE",
            action="append",
            default=[],
            help="override one configuration key; repeatable",
        )

    p_sweep = sub.add_parser("sweep", help="run a key-rate distance sweep and write sweep.csv")
    add_common(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_fig = sub.add_parser("figure", help="write plot-ready CSV series for a preset scenario")
    p_fig.add_argument("number", type=int, choices=(1, 2, 3), help="preset scenario number")
    add_common(p_fig)
    p_fig.set_defaults(func=_cmd_figure)

    p_bounds = sub.add_parser("bounds", help="compute security bounds from observed counts")
    add_common(p_bounds)
    p_bounds.add_argument(
        "--vacuum", required=True, metavar="N,NT,CLICKS[,ERRORS]",
        help="counts for the vacuum intensity: pulses,triggered,clicks[,errors]",
    )
    p_bounds.add_argument(
        "--decoy", required=True, metavar="N,NT,CLICKS[,ERRORS]",
        help="counts for the decoy intensity mu",
    )
    p_bounds.add_argument(
        "--signal", required=True, metavar="N,NT,CLICKS[,ERRORS]",
        help="counts for the signal intensity mu'",
    )
    p_bounds.add_argument("--mu", type=float, default=None, help="decoy intensity (default: configured mu)")
    p_bounds.add_argument("--mu-prime", dest="mu_prime", type=float, required=True, help="signal intensity")
    p_bounds.set_defaults(func=_cmd_bounds)
    return parser


def _user_values(args) -> tuple[dict[str, str], dict[str, str]]:
    file_values = parse_config_file(args.config) if args.config else {}
    cli_values = {}
    for item in args.override:
        key, value = parse_override(item)
        cli_values[key] = value
    return file_values, cli_values


def _build_config(args, preset: dict[str, str] | None = None, forced: dict[str, str] | None = None) -> SweepConfig:
    file_values, cli_values = _user_values(args)
    merged: dict[str, str] = {}
    merged.update(file_values)
    merged.update(preset or {})
    merged.update(cli_values)
    merged.update(forced or {})
    return resolve_config(merged)


def _ensure_outdir(out: str) -> Path:
    outdir = Path(out)
    outdir.mkdir(parents=True, exist_ok=True)
    return outdir


def _finish(outdir: Path, cfg: SweepConfig, artifacts: list[str]) -> int:
    manifest = make_manifest(cfg, artifacts, version=__version__)
    write_manifest(manifest, outdir / "run_manifest.json")
    for name in artifacts + ["run_manifest.json"]:
        print(f"wrote {outdir / name}")
    return 0


def _cmd_sweep(args) -> int:
    cfg = _build_config(args)
    outdir = _ensure_outdir(args.out)
    points = sweep_distances(cfg)
    emit_csv(points, outdir / "sweep.csv")
    return _finish(outdir, cfg, ["sweep.csv"])


def _cmd_figure(args) -> int:
    outdir = _ensure_outdir(args.out)
    if args.number == 1:
        preset = {"eta_a": "0.8", "d_a": "1e-05"}
        sweeps = []
        cfg = None
        for mu in _FIGURE1_MUS:
            cfg = _build_config(args, preset, forced={"mu": repr(mu), "sources": "hsps,ideal"})
            sweeps.append(sweep_distances(cfg))
        header = ["distance_km", "log10_rate_ideal"] + [
            f"log10_rate_mu_{mu:g}" for mu in _FIGURE1_MUS
        ]
        rows = []
        for i, p in enumerate(sweeps[0]):
            rows.append(
                [p.distance_km, _log10_or_neg_inf(p.ideal_rate)]
                + [_log10_or_neg_inf(s[i].key_rate) for s in sweeps]
            )
        all_points = [p for s in sweeps for p in s]
    else:
        eta_a = "0.8" if args.number == 2 else "0.6"
        preset = {"mu": "0.05", "eta_a": eta_a, "d_a": "1e-05"}
        cfg = _build_config(args, preset, forced={"sources": "hsps,wcs,ideal"})
        points = sweep_distances(cfg)
        hsps = [p for p in points if p.source_kind == "hsps"]
        wcs = [p for p in points if p.source_kind == "wcs"]
        header = [
            "distance_km",
            "log10_rate_hsps_ideal",
            "log10_rate_hsps",
            "log10_rate_wcs_ideal",
            "log10_rate_wcs",
        ]
        rows = [
            [
                h.distance_km,
                _log10_or_neg_inf(h.ideal_rate),
                _log10_or_neg_inf(h.key_rate),
                _log10_or_neg_inf(w.ideal_rate),
                _log10_or_neg_inf(w.key_rate),
            ]
            for h, w in zip(hsps, wcs)
        ]
        all_points = points
    wide_name = f"figure{args.number}.csv"
    points_name = f"figure{args.number}_points.csv"
    _write_wide_csv(outdir / wide_name, header, rows)
    emit_csv(all_points, outdir / points_name)
    return _finish(outdir, cfg, [wide_name, points_name])


def _parse_counts(label: str, raw: str) -> IntensityCounts:
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) not in (3, 4):
        raise ConfigError(
            f"--{label} expects N,NT,CLICKS or N,NT,CLICKS,ERRORS, got {raw!r}"
        )
    try:
        numbers = [float(p) for p in parts]
    except ValueError:
        raise ConfigError(f"--{label} values must be numbers, got {raw!r}")
    try:
        return IntensityCounts(
            pulses=numbers[0],
            triggered=numbers[1],
            clicks=numbers[2],
            errors=numbers[3] if len(numbers) == 4 else None,
        )
    except ValueError as exc:
        raise ConfigError(f"--{label}: {exc}") from exc


def _cmd_bounds(args) -> int:
    cfg = _build_config(args)
    mu = args.mu if args.mu is not None else cfg.mu
    mu_prime = args.mu_prime
    for flag, value in (("--mu", mu), ("--mu-prime", mu_prime)):
        if not math.isfinite(value):
            raise ConfigError(f"{flag} must be finite, got {value}")
    if not 0 < mu < mu_prime:
        raise ConfigError(f"intensities must satisfy 0 < mu < mu_prime, got {mu}, {mu_prime}")
    stats = statistics_from_counts(
        vacuum=_parse_counts("vacuum", args.vacuum),
        decoy=_parse_counts("decoy", args.decoy),
        signal=_parse_counts("signal", args.signal),
    )
    result = {
        "mu": mu,
        "mu_prime": mu_prime,
        "eta_a": cfg.eta_a,
        "d_a": cfg.d_a,
        "y0": stats.y0,
        "y_mu": stats.y_mu,
        "y_mu_prime": stats.y_mu_prime,
        "ty_mu": stats.ty_mu,
        "ty_mu_prime": stats.ty_mu_prime,
        "e_mu": stats.e_mu,
        "e_mu_prime": stats.e_mu_prime,
        "y1_lower": None,
        "delta1": None,
        "e1_upper": None,
        "key_rate": None,
        "feasible": None,
    }
    if stats.e_mu is not None:
        bounds = compute_hsps_bounds(stats, mu, mu_prime, cfg.eta_a, cfg.d_a, e_0=cfg.channel.e_0)
        result["y1_lower"] = bounds.y1_lower
        result["delta1"] = bounds.delta1
        result["e1_upper"] = bounds.e1_upper
        result["feasible"] = bounds.feasible
        if stats.e_mu_prime is not None:
            result["key_rate"], result["feasible"] = rate_and_feasibility(stats, bounds, cfg.f_ec)
    else:
        src = triggered_source(cfg.eta_a, cfg.d_a)
        y1 = y1_lower_bound(src, stats, mu, mu_prime)
        result["y1_lower"] = y1
        if y1 > 0 and stats.ty_mu_prime > 0:
            result["delta1"] = single_photon_fraction(src, y1, mu_prime, stats.ty_mu_prime)
    print(json.dumps(result, indent=2))
    outdir = _ensure_outdir(args.out)
    (outdir / "bounds.json").write_text(json.dumps(result, indent=2) + "\n")
    return _finish(outdir, cfg, ["bounds.json"])


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:
        # overflow or division by zero in the numerics at extreme inputs
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
