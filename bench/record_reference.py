"""Record the reference outputs the benchmark checks ops against.

    python3 bench/record_reference.py

Writes bench/reference.json from the package in src/: figures 1-3 (every
cell of figureN.csv, and distance, source, mu and mu' of every point) and
the three cut-off distances. Rerun it only when a change to the results is
intended and has been checked on its own; the benchmark exists to catch
changes that were not.
"""
from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from workloads import (  # noqa: E402
    CUTOFF_CASES, FIGURE_NUMBERS, REFERENCE_PATH, Cutoff, Figures, read_figure)


def main() -> int:
    workdir = BENCH_DIR / "_work" / "reference"
    figures = Figures(workdir)
    figures.setup()
    workdir.mkdir(parents=True, exist_ok=True)
    reference = {"figures": {}, "cutoff_cases": [list(c) for c in CUTOFF_CASES]}
    try:
        for number in FIGURE_NUMBERS:
            if figures.cli.main(["figure", str(number), "--out", str(workdir)]) != 0:
                raise SystemExit(f"figure {number} failed")
            reference["figures"][str(number)] = read_figure(workdir, number)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    cutoff = Cutoff(workdir)
    cutoff.setup()
    reference["cutoff_km"] = [
        cutoff.optimizer.max_secure_distance(cfg, kind) for kind, cfg in cutoff.cases]
    REFERENCE_PATH.write_text(json.dumps(reference, separators=(",", ":")) + "\n")
    print(f"wrote {REFERENCE_PATH}: cut-offs {reference['cutoff_km']} km")
    return 0


if __name__ == "__main__":
    sys.exit(main())
