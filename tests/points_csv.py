"""Reader for the per-point CSVs the CLI writes (sweep.csv, figureN_points.csv)."""
import csv
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
