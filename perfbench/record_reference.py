"""Record ``reference.json``: every seed-0 cell computed directly.

The reference pins each cell's status and key results for the default
seed, so a later change that alters a result fails the benchmark's
check. Re-record it only for a change meant to alter results::

    PYTHONPATH=src:perfbench python3 perfbench/record_reference.py
"""

from __future__ import annotations

import json
from pathlib import Path

import passes
import workloads as W
from metrics import PAPER_SUITE


def main() -> None:
    # cache-rerun runs the same grid.
    reference = {
        PAPER_SUITE: passes.direct_pass(W.generate(PAPER_SUITE, 0),
                                        passes.Timers())}
    path = Path(__file__).resolve().parent / "reference.json"
    grids = []
    for name, rows in sorted(reference.items()):
        lines = ",\n".join(f"  {json.dumps(key)}: {json.dumps(row)}"
                           for key, row in sorted(rows.items()))
        grids.append(f" {json.dumps(name)}: {{\n{lines}\n }}")
    path.write_text("{\n" + ",\n".join(grids) + "\n}\n")


if __name__ == "__main__":
    main()
