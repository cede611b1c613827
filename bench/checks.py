"""Output checks for benchmark ops, stated as invariants, not byte goldens.

A later change that moves theta within the solver tolerance still passes;
a wrong theta, an unnormalised law or an out-of-range diagnostic does not.
Each check returns a list of problems; an empty list means the op passed.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
from pathlib import Path

LAW_TOL = 1e-12  # every emitted law sums to 1 within this
REFERENCE_REL_TOL = 1e-8  # sweep theta and blocking against the table
# Below 0.15 veh/s blocking is under 1e-11, and a theta that moves within
# the 1e-10 fixed-point residual moves it by about 2e-8 of itself; an
# absolute floor far below any blocking the analyst reads keeps the
# relative check meaningful without failing on that noise.
REFERENCE_ABS_TOL = 1e-12
# TV between a 1e6-event simulation of section 1 at lambda = 0.8 and the
# analytical law, over seeds 1000..1199: mean 0.0098, 99th percentile
# 0.034, largest 0.046.  Its tail falls by about 0.015 per tenfold drop in
# probability, so 0.1 is passed by sampling noise all but always and
# still fails a wrong law or a broken random stream.
SIMULATE_TV_BOUND = 0.1
BRACKET_SLACK = 1e-9

REFERENCE_PATH = Path(__file__).resolve().parent / "reference_sweep_c18.json"


def law_problems(name: str, probs, size: int | None = None) -> list[str]:
    """A probability vector: the right length, nonnegative, summing to 1."""
    problems = []
    if size is not None and len(probs) != size:
        problems.append(f"{name} has {len(probs)} entries, expected {size}")
    if any(not math.isfinite(p) or p < 0 for p in probs):
        problems.append(f"{name} has a negative or non-finite entry")
    total = math.fsum(probs)
    if not abs(total - 1.0) <= LAW_TOL:
        problems.append(f"{name} sums to {total!r}, not 1 within {LAW_TOL}")
    return problems


def unit_interval_problems(name: str, value) -> list[str]:
    if value is None or not 0.0 <= value <= 1.0:
        return [f"{name} = {value!r} outside [0, 1]"]
    return []


def fixed_point_problems(theta, residual, lam: float, tol: float) -> list[str]:
    """Residual within tolerance and 0 <= theta <= lambda."""
    problems = []
    if residual is None or not 0.0 <= residual <= tol:
        problems.append(f"fixed-point residual {residual!r} above tol {tol}")
    if theta is None or not 0.0 <= theta <= lam:
        problems.append(f"theta = {theta!r} outside [0, lambda = {lam}]")
    return problems


@functools.cache
def sweep_reference() -> dict:
    """theta and blocking of the bundled tandem on the reference lambda grid."""
    doc = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
    step = doc["lambda_step"]
    return {
        "step": step,
        "rows": {k: (theta, blocking) for k, theta, blocking in doc["rows"]},
    }


def _close(value: float, ref: float, abs_tol: float = 0.0) -> bool:
    return math.isclose(value, ref, rel_tol=REFERENCE_REL_TOL, abs_tol=abs_tol)


def sweep_problems(text: str, steps: int, reference: dict) -> list[str]:
    """CLI tandem sweep CSV: ranges, and theta/blocking against the table."""
    rows = list(csv.DictReader(io.StringIO(text)))
    problems = []
    if len(rows) != steps:
        problems.append(f"sweep has {len(rows)} rows, expected {steps}")
    step, table = reference["step"], reference["rows"]
    for row in rows:
        lam = float(row["lambda"])
        theta = float(row["theta"])
        blocking = float(row["blocking"])
        tag = f"lambda={lam!r}"
        if not 0.0 <= theta <= lam:
            problems.append(f"{tag}: theta = {theta!r} outside [0, lambda]")
        problems += unit_interval_problems(f"{tag}: blocking", blocking)
        problems += unit_interval_problems(f"{tag}: tv_vs_exact_2d", float(row["tv_vs_exact_2d"]))
        k = round(lam / step)
        if abs(lam - k * step) > 1e-9 or k not in table:
            problems.append(f"{tag}: not on the reference grid")
            continue
        ref_theta, ref_blocking = table[k]
        if not _close(theta, ref_theta):
            problems.append(f"{tag}: theta {theta!r} differs from reference {ref_theta!r}")
        if not _close(blocking, ref_blocking, REFERENCE_ABS_TOL):
            problems.append(f"{tag}: blocking {blocking!r} differs from reference {ref_blocking!r}")
    return problems


def tandem_payload_problems(payload: dict, lam: float, capacity: int, tol: float) -> list[str]:
    """CLI ``solve-tandem`` JSON at one lambda."""
    problems = fixed_point_problems(payload.get("theta"), payload.get("residual"), lam, tol)
    problems += law_problems("marginal", payload.get("marginal", []), capacity + 1)
    problems += law_problems("downstream", payload.get("downstream", []), capacity + 1)
    problems += unit_interval_problems("blocking", payload.get("blocking"))
    problems += unit_interval_problems("tv_vs_exact_2d", payload.get("tv_vs_exact_2d"))
    return problems


def roots_payload_problems(payload: dict, lam: float, capacity: int, tol: float) -> list[str]:
    """Library fixed point, root scan, measures and travel-time law."""
    theta = payload.get("theta")
    problems = fixed_point_problems(theta, payload.get("residual"), lam, tol)
    problems += law_problems("marginal", payload.get("marginal", []), capacity + 1)
    problems += law_problems("downstream", payload.get("downstream", []), capacity + 1)
    problems += law_problems("travel-time law", payload.get("travel_time_probs", []))
    problems += unit_interval_problems("blocking", payload.get("blocking"))
    if payload.get("throughput") != theta:
        problems.append(f"throughput {payload.get('throughput')!r} is not theta {theta!r}")
    if any(t <= 0 for t in payload.get("travel_time_support", [])):
        problems.append("travel-time support has a nonpositive time")
    brackets = payload.get("root_brackets", [])
    if theta is not None and not any(
        lo - BRACKET_SLACK <= theta <= hi + BRACKET_SLACK for lo, hi in brackets
    ):
        problems.append(f"theta {theta!r} lies in none of the root brackets {brackets!r}")
    return problems


def simulate_payload_problems(payload: dict, seed: int, events: int, capacity: int) -> list[str]:
    """CLI ``simulate`` JSON: the run asked for, a normalised law, a small TV."""
    problems = []
    if payload.get("seed") != seed:
        problems.append(f"seed {payload.get('seed')!r} is not the requested {seed}")
    if payload.get("events") != events or payload.get("absorbed"):
        problems.append(
            f"events {payload.get('events')!r} (absorbed={payload.get('absorbed')!r}), expected {events}"
        )
    if not payload.get("algorithm"):
        problems.append("no algorithm id recorded")
    problems += law_problems("empirical", payload.get("empirical", []), capacity + 1)
    tv = payload.get("tv_vs_analytical")
    if tv is None or not 0.0 <= tv < SIMULATE_TV_BOUND:
        problems.append(f"tv_vs_analytical {tv!r} not below {SIMULATE_TV_BOUND}")
    return problems
