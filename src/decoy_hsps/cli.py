"""Command-line entry point.

Subcommands:
  sweep      key-rate distance sweep, written as sweep.csv
  figure N   preset comparison scenarios (1: decoy-intensity comparison,
             2: triggered vs coherent source, 3: same with a weaker
             trigger detector), written as plot-ready log10 CSV series
  bounds     one-shot security-bound computation from observed counts

Every run writes run_manifest.json recording the resolved configuration
and the artifacts produced; bounds and figure 1, which run at intensities
other than the configured mu, record those under "intensities". Exit
codes: 0 success, 1 validation or numerical error (one "error: ..." line
on stderr), 2 I/O error.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict
from itertools import islice
from pathlib import Path

from . import __version__
from .bounds import compute_bounds, rate_and_feasibility
from .config import (
    ConfigError,
    SweepConfig,
    make_manifest,
    parse_config_file,
    parse_override,
    resolve_config,
    write_manifest,
)
from .observables import IntensityCounts, statistics_from_counts
from .optimizer import sweep_records
from .sources import triggered_source

# numpy loads after .optimizer: compiled from source before numpy's import, that
# module's peak memory is reused by numpy's rather than added to it
import numpy as np  # noqa: E402

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

# Each figure: its preset keys, the sources it fixes, the decoy intensities
# it sweeps together (None: the configured mu) and the wide CSV's columns
# after distance_km, each (name, sweep, source, rate attribute).
_SOURCE_COMPARISON = (
    ("log10_rate_hsps_ideal", 0, "hsps", "ideal_rate"),
    ("log10_rate_hsps", 0, "hsps", "key_rate"),
    ("log10_rate_wcs_ideal", 0, "wcs", "ideal_rate"),
    ("log10_rate_wcs", 0, "wcs", "key_rate"),
)
_FIGURES = {
    1: ({"eta_a": "0.8", "d_a": "1e-05"}, "hsps,ideal", (0.01, 0.05, 0.10), (
        ("log10_rate_ideal", 0, "hsps", "ideal_rate"),
        ("log10_rate_mu_0.01", 0, "hsps", "key_rate"),
        ("log10_rate_mu_0.05", 1, "hsps", "key_rate"),
        ("log10_rate_mu_0.1", 2, "hsps", "key_rate"),
    )),
    2: ({"mu": "0.05", "eta_a": "0.8", "d_a": "1e-05"}, "hsps,wcs,ideal", (None,), _SOURCE_COMPARISON),
    3: ({"mu": "0.05", "eta_a": "0.6", "d_a": "1e-05"}, "hsps,wcs,ideal", (None,), _SOURCE_COMPARISON),
}


def _csv_line(cells) -> str:
    return ",".join(cells) + "\n"


# Every number is written as "%.17e", which round-trips a float64 and never
# needs CSV quoting. emit_csv takes rows in blocks of at most _BLOCK_CELLS
# numbers, formats each block's numbers at once on arrays (_e17), its other
# cells by their _CELL format, and joins each row of ready-made cells, so a
# file of any length is written in flat memory.
_CELL = {"source_kind": "%s", "feasible_flag": "%d"}
_BLOCK_CELLS = 1 << 11
# 10**k as a double-double for k = 17 - E, E = floor(log10|v|) for
# 1e-99 <= |v| < 1e99; _SPLIT is Veltkamp's 2**27 + 1. The kernel works in
# float64 and takes E from log, loops the search has already loaded: log10
# and int64 arithmetic would map ~0.38 MB more of numpy into a figure run.
_POW10_MIN, _POW10_MAX = -82, 117
_SPLIT = 134217729.0
_LOG10_E = 1 / math.log(10)


def _split(x):
    """x as high + low, each of at most 26 significant bits, so that their products are exact."""
    c = _SPLIT * x
    high = c - (c - x)
    return high, x - high


def _words(shape, *columns):
    """4-byte words over shape, byte j of each being columns[j] broadcast to shape."""
    words = np.empty((*shape, 4), np.uint8)
    for j, column in enumerate(columns):
        words[..., j] = column
    return words.view(np.uint32).ravel()


@functools.cache
def _e17_tables():
    """10**k as hi + lo, each correctly rounded from integers, with hi split; and the 4-byte
    texts of 0000..9999, of a significand's first two digits "X.Y" and of each k's "e-XX"."""
    hi = np.empty(_POW10_MAX - _POW10_MIN + 1)
    lo = np.empty_like(hi)
    for i, k in enumerate(range(_POW10_MIN, _POW10_MAX + 1)):
        num, den = 10 ** max(k, 0), 10 ** max(-k, 0)
        hi[i] = num / den
        hi_num, hi_den = hi[i].as_integer_ratio()
        lo[i] = (num * hi_den - hi_num * den) / (den * hi_den)
    digit = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    quads = _words((10,) * 4, digit[:, None, None, None], digit[:, None, None], digit[:, None], digit)
    leads = _words((10, 10), digit[:, None], ord("."), digit, 0)
    minus, plus = (_words((10, 10), ord("e"), sign, digit[:, None], digit) for sign in b"-+")
    # by 10**k's index: E from 99 down to -100, which is never certified
    exponents = np.concatenate((plus[::-1], minus[1:], minus[:1]))
    return (*_split(hi), lo), quads, leads, exponents


def _word_column(cells, col):
    """Bytes col..col + 3 of each row of a C-ordered uint8 array, as one writable uint32 each."""
    return np.ndarray(len(cells), np.uint32, cells, col, cells.strides[:1])


def _halves(x, unit):
    """x // unit and x % unit of integer-valued floats, exact below 2**53 for a power of ten unit."""
    q = np.floor(x / unit)
    return q, x - q * unit


def _significands(values):
    """Each value's 18-digit significand D = high * 10**8 + low, the index of 10**(17 - E), and
    where both are certified.

    A value with 1e-99 <= |v| < 1e99 is a candidate. With E =
    floor(log10|v|) and hi + lo = 10**(17 - E), y = |v| * 10**(17 - E) is
    Dekker's exact product |v| * hi = y_hi + y_lo (y_hi an integer above
    2**53) plus |v| * lo, within 1e-13 of the true y. So when floor(y) >=
    10**17 (E is not one too high) and y's fraction is more than 1e-6 from
    1/2, y rounded to an integer D is the correctly rounded significand,
    and D < 10**18 says that E was not one too low and the rounding carried
    into no new digit. Both tests and the split of D are exact in floats:
    y_hi - 10**n is exact or far from 0, and the rest are integers below 2**53.
    """
    with np.errstate(all="ignore"):
        a = np.abs(values)
        ok = (a >= 1e-99) & (a < 1e99)
        a = np.where(ok, a, 1.0)  # no 0, inf or nan reaches log or a cast
        k = (17 - _POW10_MIN - np.floor(np.log(a) * _LOG10_E)).astype(np.intp)  # 10**(17 - E)'s index
        hi_hi, hi_lo, lo = (table.take(k) for table in _e17_tables()[0])
        a_hi, a_lo = _split(a)
        y_hi = a * (hi_hi + hi_lo)
        y_lo = ((a_hi * hi_hi - y_hi) + a_hi * hi_lo + a_lo * hi_hi) + a_lo * hi_lo + a * lo
        y_int = np.floor(y_lo)
        ok &= ((y_hi - 1e17) + y_int >= 0) & (np.abs(y_lo - y_int - 0.5) > 1e-6)
        y_lo = np.floor(y_lo + 0.5)
        ok &= (y_hi - 1e18) + y_lo < 0
        # y_hi / 1e8 may round up to the next integer; one carry then settles low + y_lo
        high, low = _halves(np.where(ok, y_hi, 1e17), 1e8)
        carry, low = _halves(low + y_lo, 1e8)
    return high + carry, low, k, ok


def _e17(values) -> list[bytes]:
    """"%.17e" % v for each v of a float64 array, formatted on arrays.

    A value whose significand and exponent _significands certifies is
    written from them: "X.Y" + 16 digits + "e-XX", shifted right by a minus
    sign. Every other value (0, a subnormal, |v| outside [1e-99, 1e99),
    inf, nan, a fraction too near 1/2 or a misjudged exponent) is Python's
    own "%.17e", so the texts equal it exactly.
    """
    _, quads, leads, exponents = _e17_tables()
    high, low, k, ok = _significands(values)
    lead, high = _halves(high, 1e8)
    cells = np.zeros((len(k), 24), np.uint8)  # a NUL past a 23-character text
    _word_column(cells, 0)[:] = leads.take(lead.astype(np.intp))
    for col, quad in zip((3, 7, 11, 15), (*_halves(high, 1e4), *_halves(low, 1e4))):
        _word_column(cells, col)[:] = quads.take(quad.astype(np.intp))
    _word_column(cells, 19)[:] = exponents.take(k)
    neg = np.flatnonzero(np.signbit(values))
    if len(neg):
        cells[neg, 1:] = cells[neg, :-1]
        cells[neg, 0] = ord("-")
    texts = cells.view("S24").ravel().tolist()
    slow = np.flatnonzero(~ok)
    for i, v in zip(slow.tolist(), values[slow].tolist()):
        texts[i] = b"%.17e" % v
    return texts


def emit_csv(rows, path: str | Path, header=CSV_COLUMNS) -> None:
    """Write rows as CSV under header, one line of each row's first len(header) cells.

    Under CSV_COLUMNS the rows are sweep records (optimizer.sweep_records),
    which the CLI writes without building a value object; a figure's wide
    CSV passes its own header and rows of floats.
    """
    numbers = [j for j, name in enumerate(header) if name not in _CELL]
    rows, block_rows = iter(rows), max(1, _BLOCK_CELLS // max(len(numbers), 1))
    with open(path, "wb") as fh:
        fh.write(_csv_line(header).encode())
        while block := list(islice(rows, block_rows)):
            columns = list(zip(*block))[:len(header)]
            texts = _e17(np.array([columns[j] for j in numbers], np.float64).ravel())
            for j, name in enumerate(header):
                if name in _CELL:
                    columns[j] = [(_CELL[name] % cell).encode() for cell in columns[j]]
            for i, j in enumerate(numbers):
                columns[j] = texts[i * len(block):(i + 1) * len(block)]
            fh.write(b"\n".join(map(b",".join, zip(*columns))))
            fh.write(b"\n")


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
    p_fig.add_argument("number", type=int, choices=tuple(_FIGURES), help="preset scenario number")
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


def _build_configs(args, preset: dict[str, str] | None = None, forced=({},)) -> list[SweepConfig]:
    """One configuration per dict of forced: file, preset, flag and then forced values.

    The --config file and the overrides are parsed once for them all; a
    forced None keeps the key's default.
    """
    file_values = parse_config_file(args.config) if args.config else {}
    cli_values = dict(parse_override(item) for item in args.override)
    configs = []
    for values in forced:
        for key in values:
            if key in cli_values:
                raise ConfigError(f"--override {key} is not allowed: figure {args.number} fixes {key!r}")
        merged = {**file_values, **(preset or {}), **cli_values, **values}
        configs.append(resolve_config({key: value for key, value in merged.items() if value is not None}))
    return configs


def _ensure_outdir(out: str) -> Path:
    outdir = Path(out)
    outdir.mkdir(parents=True, exist_ok=True)
    return outdir


def _finish(outdir: Path, cfg: SweepConfig, artifacts: list[str], intensities: dict | None = None) -> int:
    manifest = make_manifest(cfg, artifacts, version=__version__)
    if intensities is not None:
        manifest["intensities"] = intensities
    write_manifest(manifest, outdir / "run_manifest.json")
    for name in artifacts + ["run_manifest.json"]:
        print(f"wrote {outdir / name}")
    return 0


def _cmd_sweep(args) -> int:
    cfg, = _build_configs(args)
    outdir = _ensure_outdir(args.out)
    emit_csv(sweep_records(cfg), outdir / "sweep.csv")
    return _finish(outdir, cfg, ["sweep.csv"])


def _cmd_figure(args) -> int:
    preset, sources, mus, columns = _FIGURES[args.number]
    # a swept mu searches from its own default mu_prime_min, mu + mu_prime_coarse_step
    forced = [{} if mu is None else {"mu": repr(mu), "mu_prime_min": None} for mu in mus]
    cfgs = _build_configs(args, preset, [{**f, "sources": sources} for f in forced])
    records = sweep_records(*cfgs)
    # records come configuration-major, then by distance, then by source in cfg.sources order
    kinds = cfgs[0].sources
    n, step = len(records) // len(cfgs), len(kinds)
    series = [
        [math.log10(r[j]) if r[j] > 0.0 else -math.inf for r in records[k * n + kinds.index(source):(k + 1) * n:step]]
        for _, k, source, rate in columns for j in [CSV_COLUMNS.index(rate)]
    ]
    rows = [(r[0], *cells) for r, cells in zip(records[:n:step], zip(*series))]
    intensities = None
    if mus != (None,):
        intensities = {"mu": list(mus), "mu_prime_min": [c.mu_prime_min for c in cfgs]}
    wide_name = f"figure{args.number}.csv"
    points_name = f"figure{args.number}_points.csv"
    outdir = _ensure_outdir(args.out)
    emit_csv(rows, outdir / wide_name, ["distance_km"] + [c[0] for c in columns])
    emit_csv(records, outdir / points_name)
    return _finish(outdir, cfgs[-1], [wide_name, points_name], intensities)


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
    cfg, = _build_configs(args)
    mu = args.mu if args.mu is not None else cfg.mu
    mu_prime = args.mu_prime
    for flag, value in (("--mu", mu), ("--mu-prime", mu_prime)):
        if not math.isfinite(value):
            raise ConfigError(f"{flag} must be finite, got {value}")
    stats = statistics_from_counts(
        vacuum=_parse_counts("vacuum", args.vacuum),
        decoy=_parse_counts("decoy", args.decoy),
        signal=_parse_counts("signal", args.signal),
    )
    src = triggered_source(cfg.eta_a, cfg.d_a)
    bounds = compute_bounds(src, stats, mu, mu_prime, cfg.channel.e_0)
    result = {
        "mu": mu, "mu_prime": mu_prime, "eta_a": cfg.eta_a, "d_a": cfg.d_a, **asdict(stats),
        "y1_lower": bounds.y1_lower, "delta1": bounds.delta1, "e1_upper": bounds.e1_upper,
        "key_rate": None, "feasible": None,
    }
    # without the decoy QBER there is no e1 bound, so no feasibility either
    if bounds.e1_upper is not None:
        result["feasible"] = bounds.feasible
        if stats.e_mu_prime is not None:
            result["key_rate"], result["feasible"] = rate_and_feasibility(stats, bounds, cfg.f_ec)
    print(json.dumps(result, indent=2))
    outdir = _ensure_outdir(args.out)
    (outdir / "bounds.json").write_text(json.dumps(result, indent=2) + "\n")
    return _finish(outdir, cfg, ["bounds.json"], {"mu": mu, "mu_prime": mu_prime})


# main's parser: built on the first call, as it never changes.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
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
