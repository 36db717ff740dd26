"""Reader for the per-point CSVs the CLI writes (sweep.csv, figureN_points.csv), and
the records that emit_csv writes of library points."""
import csv
import math
from pathlib import Path

from decoy_hsps.cli import CSV_COLUMNS


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


def point_records(points) -> list[tuple]:
    """KeyRatePoints as sweep records: the 15 CSV values in column order, a missing QBER
    as nan, then tY_mu, tY_mu' and the bounds' own flag."""
    def qber(e):
        return math.nan if e is None else e

    return [(p.distance_km, p.source_kind, p.mu, p.mu_prime, o.y0, o.y_mu, o.y_mu_prime, qber(o.e_mu),
             qber(o.e_mu_prime), b.y1_lower, b.delta1, b.e1_upper, p.key_rate, p.ideal_rate, p.feasible,
             o.ty_mu, o.ty_mu_prime, b.feasible)
            for p in points for o, b in [(p.observables, p.bounds)]]
