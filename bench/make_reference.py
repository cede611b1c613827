"""Regenerate ``reference_sweep_c18.json``, the table the sweep check uses.

Solves the bundled two-section tandem at every lambda = k * 0.005 that a
``sweep-c18`` op can emit, with a residual tolerance of 1e-14 so that the
table sits on the root rather than somewhere within the CLI's 1e-10.

    python3 bench/make_reference.py
"""

from __future__ import annotations

import json
from pathlib import Path

import workloads

STEP = 0.005
K_RANGE = range(10, 421)  # 0.05 .. 2.10 veh/s
TOL = 1e-14


def main() -> None:
    root = Path(__file__).resolve().parents[1]
    package = workloads.import_package(root)
    config = package.default_scenario().tandem()
    rows = []
    for k in K_RANGE:
        result = package.solve_fixed_point(config, k * STEP, tol=TOL, max_iter=400)
        rows.append([k, result.theta, result.marginal.blocking])
    doc = {"lambda_step": STEP, "tol": TOL, "rows": rows}
    out = Path(__file__).resolve().parent / "reference_sweep_c18.json"
    out.write_text(json.dumps(doc) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
