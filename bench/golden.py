"""Write the golden threshold table that the benchmark checks against.

    python3 bench/golden.py > bench/golden.json

Each row holds the crossover fidelity and the optimal attack (v, x, y)
for one dimension, at full float precision, as ``security_report``
computes them.  Regenerate only on purpose: the thresholds-sweep check
compares every run with these numbers to 1e-9, and the simulate-n3
workload takes its attack from the N=3 row.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ndeb.thresholds import security_report  # noqa: E402

N_MIN, N_MAX = 2, 16


def main() -> int:
    rows = [
        {"n": rec.n, "f_a": rec.f_a, "v": rec.v, "x": rec.x, "y": rec.y}
        for rec in security_report(N_MIN, N_MAX)
    ]
    json.dump({"rows": rows}, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
