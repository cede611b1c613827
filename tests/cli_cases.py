"""Every CLI check in one table, read by two runners.

Each row gives argv, stdin, the exit code and a predicate on the run.  A
row with a nonzero exit is run with ``--output`` appended: it must print
nothing on stdout and leave the output file unwritten.

Each file under ``tests/golden/`` is the expected stdout of the golden row
of the same name (empty on a nonzero exit), compared byte for byte; some
golden rows add a predicate of their own.  The one exception is
``tv_vs_exact_2d``, whose last digits are the joint-chain oracle's
round-off: those values are compared within ``TV_ATOL`` and every other
byte exactly.  At the bundled capacity (c = 18) the level-by-level oracle
gives the same bits with one BLAS thread or several, so the tolerance
covers other LAPACK builds only.  Regenerate every golden in process after
an intended output change, and review the diff; it refuses, writing
nothing, if a golden row exits with another code than its own:

    PYTHONPATH=src:tests python -c "import cli_cases; cli_cases.write_goldens()"

- ``run_in_process`` calls ``roadqueue.cli.main`` with stdin patched and
  every warning written to stderr; ``tests/test_cli.py`` runs each row
  through it.  What one row's exit code and output cannot show stays a
  test function there: the fixed-point spy, the files ``--config`` reads
  and ``--output`` writes, the entry point in a subprocess, the parser's
  pinned options, figure-data's tables as joins of other commands'
  columns, and checks of these runners, ``run_case`` and
  ``write_goldens`` themselves.
- ``run_installed`` starts the ``roadqueue`` executable on PATH in a fresh
  process, capped at 60 s of CPU.  Running this file does that for every
  row and exits 1, naming each failed row, if any fails.  Run it from
  outside the checkout, so that ``import roadqueue`` finds the installed
  package and not ``src/``:

      cd /tmp && python /path/to/checkout/tests/cli_cases.py
"""

from __future__ import annotations

import io
import json
import math
import os
import re
import resource
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Callable
from unittest import mock

from roadqueue import cli
from roadqueue.config import load_scenario


@dataclass(frozen=True)
class Run:
    """What one run returned and printed; again(argv, stdin) runs more the same way."""

    code: int
    out: str
    err: str
    peak_mb: float | None  # measured only for a case that bounds it
    again: Callable[..., Run]


@dataclass(frozen=True)
class Case:
    name: str
    argv: tuple[str, ...]
    code: int = 0
    check: Callable[[Run], bool] = lambda run: True
    stdin: str | None = None
    peak_mb: float | None = None  # bound on the run's peak memory


def run_in_process(argv, stdin=None, measure_peak=False) -> Run:
    """argv through cli.main in this process; peak_mb is tracemalloc's peak."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(stdin or "")), \
            warnings.catch_warnings(record=True) as caught, \
            redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("always")
        if measure_peak:
            tracemalloc.start()
        code, peak_mb = cli.main(list(argv)), None
        if measure_peak:
            peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
            tracemalloc.stop()
    for w in caught:
        err.write(warnings.formatwarning(w.message, w.category, w.filename, w.lineno))
    return Run(code, out.getvalue(), err.getvalue(), peak_mb, run_in_process)


def _cap_cpu() -> None:
    resource.setrlimit(resource.RLIMIT_CPU, (60, 60))


def run_installed(argv, stdin=None, measure_peak=False) -> Run:
    """argv through the roadqueue executable in a fresh process; peak_mb is
    that child's own peak RSS, from os.wait4."""
    with tempfile.TemporaryFile("w+") as feed, tempfile.TemporaryFile("w+") as out, \
            tempfile.TemporaryFile("w+") as err:
        feed.write(stdin or "")
        feed.seek(0)
        child = subprocess.Popen(["roadqueue", *argv], stdin=feed, stdout=out, stderr=err,
                                 preexec_fn=_cap_cpu)
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Run(child.returncode, out.read(), err.read(), usage.ru_maxrss / 1024,
                   run_installed)


def run_case(case: Case, run: Callable[..., Run]) -> None:
    """Run one case; AssertionError naming it when any of its checks fails."""
    with tempfile.TemporaryDirectory() as scratch:
        output = os.path.join(scratch, "output")
        extra = ("--output", output) if case.code else ()
        result = run([*case.argv, *extra], case.stdin, case.peak_mb is not None)
        written = os.path.exists(output)
    seen = f"{case.name}: exit {result.code}, stdout {result.out[:300]!r}, stderr {result.err[-600:]!r}"
    assert result.code == case.code, f"{seen}; expected exit {case.code}"
    assert not (case.code and (result.out or written)), f"{seen}; output on a nonzero exit"
    if case.peak_mb is not None:
        assert result.peak_mb < case.peak_mb, f"{seen}; peak {result.peak_mb:.1f} MB"
    assert case.check(result), f"{seen}; its predicate fails"


GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
TV_ATOL = 1e-12
TV_JSON = re.compile(r'("tv_vs_exact_2d": )([^,\n]+)')


def split_tv(text: str) -> tuple[str, list[float]]:
    """The text with each tv_vs_exact_2d value blanked, and those values."""
    values = []

    def take(match):
        values.append(float(match.group(2)))
        return match.group(1) + "<tv>"

    lines = TV_JSON.sub(take, text).split("\n")
    header = lines[0].split(",")
    if "tv_vs_exact_2d" in header:  # a CSV column
        col = header.index("tv_vs_exact_2d")
        for i, line in enumerate(lines[1:], start=1):
            if line:
                cells = line.split(",")
                values.append(float(cells[col]))
                cells[col] = "<tv>"
                lines[i] = ",".join(cells)
    return "\n".join(lines), values


def _same_as(name: str) -> Callable[[Run], bool]:
    """stdout equals tests/golden/<name>.txt, its TVs within TV_ATOL."""

    def check(run: Run) -> bool:
        text, tvs = split_tv(run.out)
        golden, golden_tvs = split_tv((GOLDEN_DIR / f"{name}.txt").read_text(encoding="utf-8"))
        return text == golden and all(abs(a - b) <= TV_ATOL for a, b in zip(tvs, golden_tvs))

    return check


def _golden(name: str, *argv: str, code: int = 0, also=lambda run: True,
            stdin: str | None = None) -> Case:
    """The row whose stdout is tests/golden/<name>.txt, and that passes also."""
    same = _same_as(name)
    return Case(name, argv, code, lambda run: same(run) and also(run), stdin)


def _doc(run: Run) -> dict:
    return json.loads(run.out)


def _rows(run: Run) -> list[list[str]]:
    """The cells of each CSV row below the header."""
    return [line.split(",") for line in run.out.strip().splitlines()[1:]]


def _near(x: float, expected: float, rel: float = 1e-6) -> bool:
    """x within pytest.approx's tolerance of expected: rel, and at least 1e-12."""
    return abs(x - expected) <= max(rel * abs(expected), 1e-12)


def _sums_to_1(probs) -> bool:
    return abs(sum(float(p) for p in probs) - 1.0) <= 1e-12


def _one_error(run: Run) -> bool:
    return run.err.startswith("error: ") and run.err.count("\n") == 1


def _says(*texts: str) -> Callable[[Run], bool]:
    return lambda run: all(text in run.err for text in texts)


def _bundled(length: float | None = None, time_scale: float = 1.0) -> str:
    """The bundled scenario as JSON: every speed times time_scale, and both
    sections length metres long with c derived, if length is given."""
    bundled = resources.files("roadqueue").joinpath("data/default_scenario.json")
    doc = json.loads(bundled.read_text())
    for section in doc["sections"]:
        section["v_f"] *= time_scale
        section["w"] *= time_scale
        if length is not None:
            section["L"] = length
            section.pop("c", None)
    return json.dumps(doc)


def _theta_in_a_bracket(run: Run) -> bool:
    doc = _doc(run)
    return any(lo <= doc["theta"] <= hi for lo, hi in doc["root_brackets"])


def _one_narrow_bracket(run: Run) -> bool:
    # far past capacity the scan's grid stops at 2 max q12, so one cell
    # narrower than 0.01 veh/s holds theta, not one lambda / 999 wide
    doc = _doc(run)
    [(lo, hi)] = doc["root_brackets"]
    return lo <= doc["theta"] <= hi and hi - lo < 0.01


def _theta_over(s: float) -> Callable[[Run], bool]:
    """The tandem with every speed times s gives theta / s of the bundled
    tandem at lambda = 0.8, to 1e-9 relative."""

    def check(run: Run) -> bool:
        unscaled = _doc(run.again(["solve-tandem", "--lambda", "0.8"]))["theta"]
        return abs(_doc(run)["theta"] / s - unscaled) <= 1e-9 * unscaled

    return check


def _lone_transit_time(run: Run) -> bool:
    doc = _doc(run)
    lone = 1.0 / load_scenario(None).rates(1)[0]
    return doc["free_flow_fallback"] is True and (
        format(doc["expected_travel_time"], ".12g") == format(lone, ".12g"))


def _solved_tandem(run: Run) -> bool:
    doc = _doc(run)
    return (abs(doc["theta"] - doc["lambda"] * (1 - doc["blocking"])) <= 1e-9
            and doc["residual"] <= 1e-10 and doc["iterations"] <= 200
            and len(doc["marginal"]) == 19 and len(doc["downstream"]) == 19
            and doc["tv_vs_exact_2d"] > 0 and doc["root_brackets"] is None)


def _saturated(run: Run) -> bool:
    doc = _doc(run)
    return (abs(doc["theta"] - 0.458891021306) <= 1e-9 and doc["residual"] <= 1e-10
            and 0 <= doc["blocking"] <= 1)


def _solved_at_c180(run: Run) -> bool:
    # from c of about 100 the oracle's last bits follow the OpenBLAS thread
    # count, so only invariants are checked here, not bits
    doc = _doc(run)
    return (len(doc["marginal"]) == 181 and doc["residual"] <= 1e-10
            and 0 <= doc["tv_vs_exact_2d"] <= 1 and _theta_in_a_bracket(run))


def _table(header: str, count: int) -> Callable[[Run], bool]:
    """CSV with this header line and count rows."""
    return lambda run: run.out.split("\n", 1)[0] == header and len(_rows(run)) == count


def _law_sums_to_1(run: Run) -> bool:
    return _sums_to_1(row[1] for row in _rows(run))


def _section_payload(run: Run) -> bool:
    doc = _doc(run)
    return (doc["lambda"] == 0.5 and doc["model"] == "triangular"
            and doc["convention"] == "shifted" and len(doc["distribution"]) == 19
            and _sums_to_1(doc["distribution"])
            and _near(doc["expected_travel_time"], doc["expected_count"] / doc["throughput"]))


def _blocking_rounds_to_1(run: Run) -> bool:
    # at lam = 1e17, P_c is 1.0 to the last bit: the throughput is the
    # departure rate from the other masses, not lam * (1 - P_c) = 0
    doc = _doc(run)
    return (doc["blocking"] == 1.0 and _near(doc["throughput"], 0.14, rel=1e-12)
            and _near(doc["expected_travel_time"], 18 / 0.14, rel=1e-12)
            and not doc["free_flow_fallback"])


def _seeded_run(run: Run) -> bool:
    doc = _doc(run)
    return (run.out == run.again(SIMULATE_1E4).out and doc["seed"] == 7
            and doc["events"] == 10000 and doc["algorithm"] == "numpy-pcg64"
            and not doc["absorbed"] and doc["tv_vs_analytical"] > 0)


def _absorbed(run: Run) -> bool:
    doc = _doc(run)
    return (doc["absorbed"] is True and doc["tv_vs_analytical"] is None
            and doc["empirical"][-1] == 1.0)


def _fig4(run: Run) -> bool:
    return (_table("lambda,n,ours,jain_smith", 3 * 19)(run)
            and {float(row[0]) for row in _rows(run)} == {0.5, 1.0, 1.5})


def _absorbs_at_capacity(run: Run) -> bool:
    return _one_error(run) and "convention 'exact'" in run.err and "absorbs at capacity" in run.err


def _paper_grid_speed(run: Run) -> bool:
    # 28 cells, not normalized; on one section under the linear model, the
    # loader still refuses "exact" first
    exact = run.again([*PAPER_GRID_SPEED, "--config", "-"], EXACT_BUNDLED)
    refused = (exact.code, exact.out) == (3, "") and _absorbs_at_capacity(exact)
    return len(_rows(run)) == 28 and sum(float(row[1]) for row in _rows(run)) < 1.0 and refused


def _twelve_digits(run: Run) -> bool:
    cell = _rows(run)[0][1]  # blocking at lambda = 0.1, far from round
    mantissa = cell.replace(".", "").replace("-", "").lstrip("0")
    return len(mantissa.split("e")[0]) == 12


SECTION_1 = {"L": 100.0, "v_f": 28.0, "w": 14.0, "rho_j": 0.18, "c": 18}
# 100 km sections hold c = 18000: one rate's decomposition passes the 256 MiB cap
LONG_TANDEM = json.dumps({"sections": [{"L": 100000.0, "v_f": 28.0, "w": 14.0, "rho_j": 0.18}] * 2})
SIMULATE_1E6 = ("simulate", "--lambda", "0.8", "--events", "1000000", "--seed", "7")
SIMULATE_1E4 = ("simulate", "--lambda", "0.8", "--events", "10000", "--seed", "7")
# the exponential speed law underflows to 0 from n = 3 on: the run absorbs at c
ZERO_SPEED = ("--model", "exponential", "--beta", "1", "--gamma", "10")
FIT = ("fit-exponential", "--fit-a", "20", "--fit-va", "48", "--fit-b", "140")
SWEEP = ("sweep", "--lambda-from", "0.1", "--lambda-to", "2")
PAPER_GRID_SPEED = ("distributions", "--lambda", "0.8", "--model", "linear", "--mode", "paper-grid",
                    "--section", "1")
# sweep ends of which one is no arrival rate, each written as --flag=value
# so that argparse reads a leading minus as a number
SWEEP_ENDS = {"0-to-inf": ("0", "inf"), "minus-inf-to-2": ("-inf", "2"),
              "minus-1e308-to-1e308": ("-1e308", "1e308"), "0-to-nan": ("0", "nan")}
SECTION_ZERO = {
    "solve-section": ("--lambda", "0.8"),
    "distributions": ("--lambda", "0.8"),
    "sweep": ("--lambda-from", "0.1", "--lambda-to", "2", "--steps", "3"),
    "simulate": ("--lambda", "0.8", "--events", "10000"),
}
# one document per loader or geometry rule, and a phrase of its refusal
MALFORMED = {
    "list-model": (json.dumps({"sections": [SECTION_1], "model": ["linear"]}), "model must be"),
    "object-model": (json.dumps({"sections": [SECTION_1], "model": {}}), "model must be"),
    # nested past the decoder's recursion limit
    "deep": ("[" * 100_000 + "]" * 100_000, "nests too deeply"),
    "array": ("[]", "config must be a JSON object, got list"),
    "three-sections": (json.dumps({"sections": [SECTION_1] * 3}), "1 or 2 sections, got 3"),
    "sections-object": (json.dumps({"sections": {}}), "'sections' must be a nonempty list"),
    "section-number": (json.dumps({"sections": [5]}), "section must be a JSON object, got int"),
    "unknown-section-key": (json.dumps({"sections": [{**SECTION_1, "lanes": 2}]}),
                            "unknown section key(s): ['lanes']"),
    "no-rho_j": (json.dumps({"sections": [{k: v for k, v in SECTION_1.items() if k != "rho_j"}]}),
                 "missing required key 'rho_j'"),
    "unknown-top-key": (json.dumps({"sections": [SECTION_1], "lanes": 2}),
                        "unknown config key(s): ['lanes']"),
    "exponential-no-beta": (json.dumps({"sections": [SECTION_1], "model": "exponential"}),
                            "requires scenario keys beta and gamma"),
    "jam-count-overflow": (json.dumps({"L": 1e200, "v_f": 28.0, "w": 14.0, "rho_j": 1e200}),
                           "rho_j * L overflows a float"),
    "c-two-off": (json.dumps({**SECTION_1, "c": 20}), "c=20 inconsistent with rho_j*L=18"),
}
LINEAR_BUNDLED = json.dumps({**json.loads(_bundled()), "model": "linear"})


def _named(value) -> dict[str, str]:
    """The bundled scenario naming convention value at the top or on section 2, and
    section 1 bare naming it; with value None, each names none."""
    doc = json.loads(_bundled())
    del doc["convention"]
    named = {} if value is None else {"convention": value}
    sections = [doc["sections"][0], {**doc["sections"][1], **named}]
    return {"top": json.dumps({**doc, **named}),
            "section": json.dumps({**doc, "sections": sections}),
            "bare": json.dumps({**SECTION_1, **named})}


EXACT_BUNDLED = _named("exact")["top"]
# every subcommand that reads a scenario, with the least argv it runs on
SCENARIO_COMMANDS = {**SECTION_ZERO, "solve-tandem": ("--lambda", "0.8"),
                     "figure-data": ("--figure", "fig4")}
# 1e12 m sections hold c = 1.8e11 vehicles: refused before any per-state array
ABSURD_LENGTH = json.dumps({"sections": [{"L": 1e12, "v_f": 28.0, "w": 14.0, "rho_j": 0.18}] * 2})
# a geometry whose paper grid holds no value, and the grid it names, per kind
EMPTY_GRIDS = {
    "speed": ({"L": 100.0, "v_f": 0.5, "w": 14.0, "rho_j": 0.18}, "speed grid"),
    "travel-time": ({"L": 0.5, "v_f": 28.0, "w": 14.0, "rho_j": 4.0}, "time grid"),
}
# a paper grid of 1e11 or more cells, past the cap at 256 bytes a cell, per kind
HUGE_GRIDS = {
    "speed": {"L": 100.0, "v_f": 1e11, "w": 14.0, "rho_j": 0.18},
    "travel-time": {"L": 1e12, "v_f": 28.0, "w": 14.0, "rho_j": 2e-12},
}

GOLDEN_ROWS = [
    _golden("solve-section-s1", "solve-section", "--lambda", "0.8", "--section", "1"),
    _golden("solve-section-s2", "solve-section", "--lambda", "0.5", "--section", "2"),
    _golden("solve-section-lam0", "solve-section", "--lambda", "0"),
    _golden("solve-section-linear", "solve-section", "--lambda", "0.8", "--model", "linear",
            also=lambda run: _doc(run)["model"] == "linear"),
    _golden("solve-section-exponential", "solve-section", "--lambda", "0.8", "--model",
            "exponential", "--beta", "9.5", "--gamma", "1.8"),
    _golden("solve-tandem-scan-0.8", "solve-tandem", "--lambda", "0.8", "--scan-roots",
            also=_theta_in_a_bracket),
    _golden("solve-tandem-scan-0", "solve-tandem", "--lambda", "0", "--scan-roots"),
    _golden("solve-tandem-2", "solve-tandem", "--lambda", "2"),
    _golden("solve-tandem-exact", "solve-tandem", "--lambda", "0.8", "--scan-roots", "--config",
            "-", code=3, also=_one_error, stdin=EXACT_BUNDLED),
    _golden("distributions-speed", "distributions", "--lambda", "0.8",
            also=lambda run: _table("value,probability", 13)(run) and _law_sums_to_1(run)),
    _golden("distributions-travel-time", "distributions", "--lambda", "0.8", "--kind",
            "travel-time", also=lambda run: _near(float(_rows(run)[0][0]), 100.0 / 28.0, 1e-9)
            and _law_sums_to_1(run)),
    _golden("distributions-section2-travel-time", "distributions", "--lambda", "1.5", "--kind",
            "travel-time", "--section", "2"),
    _golden("distributions-speed-lam0", "distributions", "--lambda", "0", "--section", "1"),
    # the tandem pushforward past the road's capacity: the paper's figure 10
    _golden("distributions-speed-lam2", "distributions", "--lambda", "2.0"),
    _golden("distributions-travel-time-lam2", "distributions", "--lambda", "2.0", "--kind",
            "travel-time", also=_law_sums_to_1),
    _golden("distributions-linear-speed", "distributions", "--lambda", "0.8", "--model", "linear",
            "--section", "1"),
    _golden("distributions-linear-travel-time", "distributions", "--lambda", "0.8", "--model",
            "linear", "--kind", "travel-time", "--section", "1"),
    _golden("distributions-paper-grid-speed", *PAPER_GRID_SPEED, also=_paper_grid_speed),
    _golden("distributions-paper-grid-travel-time", "distributions", "--lambda", "0.8", "--model",
            "linear", "--mode", "paper-grid", "--kind", "travel-time", "--section", "1"),
    _golden("sweep-tandem-40", "sweep", "--lambda-from", "0.1", "--lambda-to", "2.0", "--steps",
            "40"),
    # from lambda = 0: the empty road's law inside the oracle's batch
    _golden("sweep-tandem-from0", "sweep", "--lambda-from", "0", "--lambda-to", "2.0", "--steps",
            "21"),
    _golden("sweep-section-from0", "sweep", "--lambda-from", "0", "--lambda-to", "2.0", "--steps",
            "21", "--section", "1"),
    _golden("sweep-section-linear", "sweep", "--lambda-from", "0.1", "--lambda-to", "2.0",
            "--steps", "20", "--section", "2", "--model", "linear"),
    _golden("simulate-1e5", "simulate", "--lambda", "0.8", "--events", "100000",
            also=lambda run: _doc(run)["tv_vs_analytical"] < 0.05),
    _golden("simulate-absorbs-1e5", "simulate", "--lambda", "0.8", "--events", "100000",
            *ZERO_SPEED, "--seed", "7", also=_absorbed),
    _golden("fit-exponential", *FIT, "--fit-vb", "20", "--fit-vf", "55",
            also=lambda run: abs(_doc(run)["beta"] - 137.41831534831252) <= 137.41831534831252e-12
            and abs(_doc(run)["gamma"] - 1.0078532179620698) <= 1.0078532179620698e-12),
    _golden("fit-exponential-config-vf", "fit-exponential", "--fit-a", "5", "--fit-va", "20",
            "--fit-b", "12", "--fit-vb", "8"),
    _golden("figure-data-fig4", "figure-data", "--figure", "fig4", also=_fig4),
    *[_golden(f"figure-data-{fig}", "figure-data", "--figure", fig,
              also=_table("lambda,ours,jain_smith", 40))
      for fig in ("fig5", "fig6", "fig7")],
    _golden("figure-data-fig5-blocking", "figure-data", "--figure", "fig5", "--metric", "blocking",
            also=lambda run: all(0 <= float(row[1]) <= 1 for row in _rows(run))),
]

CASES = [
    *GOLDEN_ROWS,
    # -- solves that must exit 0
    Case("solve-section", ("solve-section", "--lambda", "0.8")),
    Case("solve-tandem", ("solve-tandem", "--lambda", "0.8"), check=_solved_tandem),
    # far past the road's capacity the fixed point converges on [0, max q12]
    Case("solve-tandem-1e7", ("solve-tandem", "--lambda", "1e7"), check=_saturated),
    Case("solve-tandem-1e16", ("solve-tandem", "--lambda", "1e16"), check=_saturated),
    # the oracle's law grows by about lam a level: a step that overflowed is redone
    Case("solve-tandem-1e200", ("solve-tandem", "--lambda", "1e200"), check=_saturated),
    Case("scan-roots-1e7-narrow-bracket", ("solve-tandem", "--lambda", "1e7", "--scan-roots"),
         check=_one_narrow_bracket),
    # c1 = c2 = 180: the level-reduction oracle solves 32761 joint states
    Case("scan-roots-c180", ("solve-tandem", "--lambda", "0.8", "--scan-roots", "--config", "-"),
         stdin=_bundled(length=1000.0), check=_solved_at_c180),
    # tol is dimensionless: a stop in veh/s ran out of steps at s = 1e6 and
    # took theta = lambda at once at s = 1e-11
    Case("theta-over-s-1e6", ("solve-tandem", "--lambda", "8e5", "--config", "-"),
         stdin=_bundled(time_scale=1e6), check=_theta_over(1e6)),
    Case("theta-over-s-1e-11", ("solve-tandem", "--lambda", "8e-12", "--config", "-"),
         stdin=_bundled(time_scale=1e-11), check=_theta_over(1e-11)),
    # the section's law and its simulation answer up to the float maximum,
    # with no numpy warning, where a step ratio past 1e58 once overflowed
    # the exact birth-death solve
    *[Case(f"{command}-{lam}-no-warning", (command, "--lambda", lam, *flags),
           check=lambda run: run.err == "")
      for command, flags in (("simulate", ("--events", "10000")), ("solve-section", ()))
      for lam in ("1e100", "1e200", "1e308", "1.7976931348623157e308")],
    # the event loop at full size, past the goldens' 1e5 events: the same bytes twice
    Case("simulate-1e6-same-bytes", SIMULATE_1E6,
         check=lambda run: run.out == run.again(SIMULATE_1E6).out),
    Case("simulate-absorbs", ("simulate", "--lambda", "0.8", "--events", "100000", *ZERO_SPEED),
         check=_absorbed),
    # a mean count that underflows to 0 beside a positive throughput falls back
    Case("fallback-count-underflows", ("solve-section", "--lambda", "5e-324", "--config", "-"),
         stdin=json.dumps({"L": 1.0, "v_f": 28, "w": 14, "rho_j": 2.0})),
    # Little's law on a subnormal count and throughput keeps few bits
    Case("fallback-1e-320", ("solve-section", "--lambda", "1e-320"), check=_lone_transit_time),
    # exp(-inf) = 0 exactly, with no overflow warning
    Case("exponential-overflow-no-warning",
         ("solve-section", "--lambda", "0", "--model", "exponential", "--beta", "1",
          "--gamma", "1000"),
         check=lambda run: run.err == "" and _doc(run)["distribution"][0] == 1.0),
    # the saturated marginal's pushforward keeps its blocking in [0, 1]
    Case("distributions-1e300-travel-time",
         ("distributions", "--lambda", "1e300", "--kind", "travel-time")),
    Case("stdin-config", ("solve-section", "--lambda", "0.5", "--config", "-"),
         stdin=json.dumps(SECTION_1), check=lambda run: _doc(run)["lambda"] == 0.5),
    Case("solve-section-payload", ("solve-section", "--lambda", "0.5", "--section", "1"),
         check=_section_payload),
    Case("solve-section-1e17", ("solve-section", "--lambda", "1e17", "--section", "1"),
         check=_blocking_rounds_to_1),
    # c = 2, and rho_cr * L rounds to 0: the section still has a law
    Case("zero-critical-count", ("solve-section", "--lambda", "0.8", "--config", "-"),
         stdin=json.dumps({"L": 10.35, "v_f": 35.53, "w": 2.518, "rho_j": 0.1561}),
         check=lambda run: len(_doc(run)["distribution"]) == 3),
    # section 2's free speed: its atoms top out at 14
    Case("distributions-section-2", ("distributions", "--lambda", "0.8", "--section", "2"),
         check=lambda run: _near(max(float(row[0]) for row in _rows(run)), 14.0)),
    Case("distributions-travel-time-lam0",
         ("distributions", "--lambda", "0", "--kind", "travel-time", "--section", "1"),
         check=lambda run: (run.out, run.err) == ("value,probability\n3.57142857143,1\n", "")),
    Case("sweep-tandem-5", ("sweep", "--lambda-from", "0.1", "--lambda-to", "2.0", "--steps", "5"),
         check=lambda run: _near(float(_rows(run)[0][0]), 0.1)
         and _near(float(_rows(run)[-1][0]), 2.0)
         and _table("lambda,theta,blocking,expected_count,travel_time,tv_vs_exact_2d", 5)(run)),
    Case("sweep-section-4",
         ("sweep", "--lambda-from", "0.1", "--lambda-to", "1.0", "--steps", "4", "--section", "1"),
         check=_table("lambda,blocking,throughput,expected_count,travel_time", 4)),
    Case("csv-12-significant-digits",
         ("sweep", "--lambda-from", "0.1", "--lambda-to", "2.0", "--steps", "3", "--section", "1"),
         check=_twelve_digits),
    Case("simulate-1e4-seeded", SIMULATE_1E4, check=_seeded_run),
    Case("simulate-absorbs-at-2", ("simulate", "--lambda", "2.0", "--events", "10000", *ZERO_SPEED),
         check=_absorbed),
    # a document may name the one convention, at either level: the bytes of no key
    *[Case(f"convention-{value or 'absent'}-{where}",
           ("solve-section", "--lambda", "0.8", "--config", "-"), stdin=doc,
           check=lambda run: _same_as("solve-section-s1")(run) and run.err == "")
      for value in (None, "shifted") for where, doc in _named(value).items()],
    # the bundled section 1 gives v_f = 28
    Case("fit-exponential-config-vf-positive",
         ("fit-exponential", "--fit-a", "5", "--fit-va", "20", "--fit-b", "15", "--fit-vb", "8"),
         check=lambda run: _doc(run)["beta"] > 0 and _doc(run)["gamma"] > 0),
    # the scenario's model changes no figure: each is its golden's bytes
    *[Case(f"linear-config-{fig}", ("figure-data", "--figure", fig, "--config", "-"),
           stdin=LINEAR_BUNDLED,
           check=lambda run, same=_same_as(f"figure-data-{fig}"): same(run) and run.err == "")
      for fig in ("fig4", "fig5", "fig6", "fig7")],
    # -- refusals: nothing on stdout, no --output file written
    Case("sweep-one-step", (*SWEEP, "--steps", "1"), 2, _one_error),
    Case("sweep-reversed", ("sweep", "--lambda-from", "2", "--lambda-to", "0.1", "--steps", "3"),
         2, _one_error),
    Case("sweep-below-0", ("sweep", "--lambda-from", "-0.1", "--lambda-to", "2", "--steps", "3"),
         2, _one_error),
    Case("sweep-section-below-0",
         ("sweep", "--lambda-from", "-0.1", "--lambda-to", "2", "--steps", "3", "--section", "1"),
         2, _one_error),
    # each end is an arrival rate, refused before np.linspace can warn
    *[Case(f"sweep{name}-{ends}", ("sweep", f"--lambda-from={lo}", f"--lambda-to={hi}", "--steps",
                                   "3", *section), 2,
           lambda run: _one_error(run) and "arrival rate must be finite and nonnegative" in run.err)
      for ends, (lo, hi) in SWEEP_ENDS.items()
      for name, section in (("", ()), ("-section", ("--section", "1")))],
    Case("sweep-bad-grid", ("sweep", "--lambda-from", "1.0", "--lambda-to", "0.5", "--steps", "4"), 2),
    Case("sweep-tandem-linear", ("sweep", "--lambda-from", "0.1", "--lambda-to", "2.0", "--steps", "5",
                                 "--model", "linear"), 2,
         _says("--section")),
    # the loader refuses a document naming "exact", wherever it names it, even
    # at lambda = 0, where the law would be the empty road's
    *[Case(f"solve-section-exact-lam0{'' if where == 'top' else '-' + where}",
           ("solve-section", "--lambda", "0", "--config", "-"), 3, _absorbs_at_capacity, stdin=doc)
      for where, doc in _named("exact").items()],
    # ... for every subcommand that reads a scenario
    *[Case(f"{command}-exact-config", (command, *argv, "--config", "-"), 3, _absorbs_at_capacity,
           stdin=EXACT_BUNDLED)
      for command, argv in SCENARIO_COMMANDS.items()],
    # any other value is no convention
    *[Case(f"convention-{value}-{where}", ("solve-section", "--lambda", "0.8", "--config", "-"), 2,
           lambda run: _one_error(run) and "convention must be 'shifted'" in run.err, stdin=doc)
      for value in ("Shifted", 5) for where, doc in _named(value).items()],
    # the joint chain's levels overflow, and the oracle refuses them
    Case("solve-tandem-1e308", ("solve-tandem", "--lambda", "1e308"), 3, _one_error),
    # ITP's bracket closes to adjacent floats, short of a stop no float reaches
    Case("solve-tandem-unreachable-tol", ("solve-tandem", "--lambda", "0.8", "--tol", "1e-18"), 3,
         _says("after 34 residual evaluations",
               "best bracket [0.45372928604317525, 0.4537292860431753]")),
    *[Case(f"solve-tandem-tol-{value}", ("solve-tandem", "--lambda", "0.8", "--tol", value), 2)
      for value in ("inf", "nan")],
    # options with one working value, and those of figure-data's presets, are gone, not ignored
    *[Case(f"{argv[0]}-no-{argv[-2][2:]}", argv, 2, _says("unrecognized arguments"))
      for argv in (("solve-tandem", "--lambda", "0.8", "--max-iter", "5"),
                   ("distributions", "--lambda", "0.8", "--beta", "1"),
                   *[("figure-data", "--figure", "fig4", *option)
                     for option in (("--kind", "speed"), ("--section", "1"), ("--model", "linear"))],
                   *[(command, *argv, "--convention", "shifted")
                     for command, argv in SCENARIO_COMMANDS.items()])],
    # a rate too small to time the run's events in floats
    Case("simulate-5e-324", ("simulate", "--lambda", "5e-324", "--events", "10000"), 2, _one_error),
    Case("simulate-1e-310", ("simulate", "--lambda", "1e-310"), 2, _one_error),
    # the exponential power overflows (speed 0), and state 3 is singular
    Case("exponential-singular",
         ("solve-section", "--lambda", "0.8", "--model", "exponential", "--beta", "1",
          "--gamma", "1000"), 3,
         lambda run: run.err == "error: service rate is zero at state n=3, where the speed law "
         "reaches 0; the stationary law does not exist\n"),
    # a subnormal speed: its travel time L / v_n passes the float range, with no numpy warning
    Case("travel-time-past-the-float-range",
         ("distributions", "--lambda", "0.8", "--kind", "travel-time", "--config", "-"), 2,
         _one_error, stdin=json.dumps({"L": 100.0, "v_f": 28.0, "w": 1e-310, "rho_j": 0.18})),
    # a subnormal q_1: the lone transit time 1 / q_1 passes the float range
    Case("subnormal-q1-infinite-travel-time",
         ("solve-section", "--lambda", "1e-310", "--config", "-"), 2, _one_error,
         stdin=json.dumps({"sections": [{"L": 300.0, "v_f": 1e-310, "w": 1e300, "rho_j": 1.0}]})),
    # c = 18 with every q_n underflowed to 0: the lone transit time 1 / q_1 is inf
    Case("zero-q1-infinite-travel-time",
         ("solve-section", "--lambda", "0", "--config", "-"), 2,
         lambda run: run.err == "error: expected_travel_time inf not finite and positive\n",
         stdin=json.dumps({"L": 1e100, "v_f": 1e-300, "w": 1e300, "rho_j": 1.8e-99})),
    # ln(v_a / v_f) = ln(v_b / v_f) in floats: no ZeroDivisionError traceback
    Case("fit-colliding-anchors",
         ("fit-exponential", "--fit-a", "2", "--fit-va", "1e-300", "--fit-b", "3",
          "--fit-vb", "9.999999999999999e-301", "--fit-vf", "28"),
         2, lambda run: _one_error(run) and "no fit in floats" in run.err),
    Case("fit-bad-anchors", (*FIT, "--fit-vb", "50", "--fit-vf", "55"), 2),
    Case("fit-infinite-b", ("fit-exponential", "--fit-a", "20", "--fit-va", "48", "--fit-b", "inf",
                            "--fit-vb", "20", "--fit-vf", "55"), 2,
         _says("b must be finite and positive")),
    Case("fit-infinite-v_f", (*FIT, "--fit-vb", "20", "--fit-vf", "inf"), 2,
         _says("v_f must be finite and positive")),
    *[Case(f"{command}-oversized-tandem", (command, "--lambda", "0.8", "--config", "-"), 2,
           _says("MiB cap"), stdin=LONG_TANDEM)
      for command in ("distributions", "solve-tandem")],
    # section numbers start at 1, wherever --section is given
    *[Case(f"{command}-section-0", (command, *argv, "--section", "0"), 2,
           _says("section must be a whole number of at least 1, got 0"))
      for command, argv in SECTION_ZERO.items()],
    Case("solve-section-section-5", ("solve-section", "--lambda", "0.5", "--section", "5"), 2),
    *[Case(f"malformed-config-{name}", ("solve-section", "--lambda", "0.8", "--config", "-"), 2,
           lambda run, phrase=phrase: _one_error(run) and phrase in run.err, stdin=text)
      for name, (text, phrase) in MALFORMED.items()],
    *[Case(f"{command}-lambda-{lam}", (command, "--lambda", lam), 2, _says("finite"))
      for command in ("solve-section", "solve-tandem") for lam in ("nan", "inf")],
    Case("exponential-infinite-beta",
         ("solve-section", "--lambda", "0.8", "--model", "exponential", "--beta", "inf",
          "--gamma", "1.8"), 2, _says("beta must be finite and positive")),
    Case("exponential-infinite-gamma",
         ("solve-section", "--lambda", "0.8", "--model", "exponential", "--beta", "9.5",
          "--gamma", "inf"), 2, _says("gamma must be finite and positive")),
    Case("no-lambda", ("solve-section",), 2),
    Case("no-such-command", ("no-such-command",), 2),
    Case("distributions-tandem-linear", ("distributions", "--lambda", "0.8", "--model", "linear"), 2,
         _says("--section")),
    Case("distributions-triangular-paper-grid",
         ("distributions", "--lambda", "0.8", "--mode", "paper-grid"), 2),
    # pushforwards exist for the triangular and linear models only
    Case("distributions-exponential",
         ("distributions", "--lambda", "0.8", "--section", "1", "--config", "-"), 2,
         _says("distributions support the triangular and linear models only"),
         stdin=json.dumps({**json.loads(_bundled()), "model": "exponential", "beta": 9.5,
                           "gamma": 1.8})),
    # the distributions presets are gone: distributions prints the paper's figures 8-10
    *[Case(f"figure-data-no-{fig}", ("figure-data", "--figure", fig), 2, _says("invalid choice"))
      for fig in ("fig8", "fig9", "fig10")],
    Case("fig6-metric", ("figure-data", "--figure", "fig6", "--metric", "count"), 2),
    Case("missing-config",
         ("solve-section", "--lambda", "0.5", "--config", os.path.join(os.devnull, "missing.json")),
         4),
    # Python's JSON parser accepts the Infinity literal
    Case("infinite-length", ("solve-section", "--lambda", "0.8", "--config", "-"), 2,
         _says("L must be finite"), stdin=json.dumps({**SECTION_1, "L": math.inf})),
    *[Case(f"{command}-absurd-length", (command, "--lambda", "0.8", "--config", "-"), 2,
           _says("capacity c = 180000000000 "), stdin=ABSURD_LENGTH)
      for command in ("simulate", "solve-section")],
    *[Case(f"{key}-past-the-float-range", ("solve-section", "--lambda", "0.8", "--config", "-"), 2,
           _says(f"section key '{key}' is past the float range"),
           stdin=json.dumps({**SECTION_1, key: 10**400}))
      for key in ("L", "c")],
    Case("non-numeric-beta", ("solve-section", "--lambda", "0.8", "--config", "-"), 2,
         _says("config key 'beta' must be a number"),
         stdin=json.dumps({"sections": [SECTION_1], "model": "exponential", "beta": "x",
                           "gamma": 1.8})),
    Case("solve-tandem-one-section", ("solve-tandem", "--lambda", "0.8", "--config", "-"), 2,
         stdin=json.dumps(SECTION_1)),
    Case("solve-tandem-linear-config", ("solve-tandem", "--lambda", "0.8", "--config", "-"), 2,
         _says("'linear'", "--section"), stdin=LINEAR_BUNDLED),
    *[Case(f"empty-paper-grid-{kind}",
           ("distributions", "--lambda", "0.01", "--config", "-", "--model", "linear", "--mode",
            "paper-grid", "--section", "1", "--kind", kind), 2,
           _says(grid, f"v_f = {geometry['v_f']!r} m/s and L = {geometry['L']!r} m"),
           stdin=json.dumps(geometry))
      for kind, (geometry, grid) in EMPTY_GRIDS.items()],
    # L / v_f passes the float range, so no time lies from floor(L / v_f) up to L
    Case("empty-paper-grid-past-the-float-range",
         ("distributions", "--lambda", "0.8", "--config", "-", "--model", "linear", "--mode",
          "paper-grid", "--kind", "travel-time"), 2,
         lambda run: _one_error(run) and "time grid is empty" in run.err,
         stdin=json.dumps({"L": 300.0, "v_f": 1e-310, "w": 14.0, "rho_j": 0.1})),
    # refused before the grid, or the sweep's rates, is allocated
    *[Case(f"paper-grid-{kind}-past-the-cap",
           ("distributions", "--lambda", "0.8", "--config", "-", "--model", "linear", "--mode",
            "paper-grid", "--kind", kind), 2,
           lambda run: _one_error(run) and "MiB cap" in run.err, stdin=json.dumps(geometry),
           peak_mb=100)
      for kind, geometry in HUGE_GRIDS.items()],
    *[Case(f"sweep{name}-steps-past-the-cap", (*SWEEP, "--steps", "100000000000", *section), 2,
           lambda run: _one_error(run) and "a sweep of 100000000000 steps" in run.err,
           peak_mb=100)
      for name, section in (("", ()), ("-section", ("--section", "1")))],
    # 2 km holds c = 360: the decomposition fits, the joint-chain oracle's
    # level reduction does not, and is refused as input before it runs
    *[Case(f"{command}-oracle-past-the-cap", (*argv, "--config", "-"), 2,
           lambda run: run.err == "error: the joint chain's level reduction (c1 = 360, c2 = 360) "
                                  "needs 389 MB, above the 256 MiB cap\n",
           stdin=_bundled(2000.0))
      for command, argv in (("solve-tandem", ("solve-tandem", "--lambda", "0.8")),
                            ("sweep", (*SWEEP, "--steps", "3")))],
]


def write_goldens() -> None:
    """Rewrite every golden from its row, in process; exit, writing nothing,
    if a golden row exits with another code than its own."""
    runs = [(case, run_in_process(case.argv, case.stdin)) for case in GOLDEN_ROWS]
    wrong = [f"{case.name}: exit {run.code}, expected {case.code}"
             for case, run in runs if run.code != case.code]
    if wrong:
        sys.exit("\n".join(wrong))
    for case, run in runs:
        (GOLDEN_DIR / f"{case.name}.txt").write_text(run.out, encoding="utf-8")


def main() -> int:
    failed = []
    for case in CASES:
        try:
            run_case(case, run_installed)
        except Exception as exc:  # a predicate that cannot parse the output fails too
            failed.append(case.name)
            print(f"FAIL {case.name}: {type(exc).__name__}: {exc}", flush=True)
        else:
            print(f"ok   {case.name}", flush=True)
    print(f"{len(CASES) - len(failed)} of {len(CASES)} cases passed")
    if failed:
        print("failed: " + ", ".join(failed))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
