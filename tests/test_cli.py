"""Checks of the CLI that are not rows of ``tests/cli_cases.py``.

Every run that only reads an exit code, stdout or stderr is a row of that
table, and ``test_cli_case`` runs each row in process.  What stays here
needs more than one run's output: a spy on the fixed point, the files that
``--config`` reads and ``--output`` writes, the installed entry point in a
subprocess, figure-data's tables against the commands they join, the
parser object itself, and the table's own bookkeeping and runners.
"""

import argparse
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import cli_cases
from cli_cases import (CASES, GOLDEN_DIR, GOLDEN_ROWS, MALFORMED, Case, Run, _same_as, run_case,
                       run_in_process, run_installed, split_tv)
from roadqueue import cli
from roadqueue.cli import build_parser


# every row of tests/cli_cases.py, in process; CI runs the same rows
# against the installed roadqueue executable
@pytest.mark.parametrize("case", CASES, ids=lambda case: case.name)
def test_cli_case(case):
    run_case(case, run_in_process)


def test_cli_case_names_are_unique():
    assert len({case.name for case in CASES}) == len(CASES)


def test_golden_files_and_golden_rows_match_one_to_one():
    files = sorted(path.stem for path in GOLDEN_DIR.glob("*.txt"))
    assert files == sorted(case.name for case in GOLDEN_ROWS)


def test_no_two_golden_files_share_bytes():
    # a command that only aliases another one would copy that one's golden
    names = {}
    for path in sorted(GOLDEN_DIR.glob("*.txt")):
        names.setdefault(path.read_bytes(), []).append(path.stem)
    assert [same for same in names.values() if len(same) > 1] == []


def test_split_tv_blanks_only_the_tv_values():
    csv = "lambda,theta,tv_vs_exact_2d\n0.1,0.09,1.5e-10\n0.2,0.19,0.25\n"
    assert split_tv(csv) == (
        "lambda,theta,tv_vs_exact_2d\n0.1,0.09,<tv>\n0.2,0.19,<tv>\n",
        [1.5e-10, 0.25],
    )
    doc = '{\n  "theta": 0.4,\n  "tv_vs_exact_2d": 0.3,\n  "root_brackets": null\n}\n'
    assert split_tv(doc) == (
        '{\n  "theta": 0.4,\n  "tv_vs_exact_2d": <tv>,\n  "root_brackets": null\n}\n',
        [0.3],
    )


@pytest.mark.parametrize("column, shift, same", [(-1, 5e-13, True), (-1, 2e-12, False),
                                                 (1, 5e-13, False)], ids=["tv", "tv-past-atol", "theta"])
def test_golden_rows_compare_tvs_within_tv_atol_and_every_other_byte_exactly(column, shift, same):
    header, first, *rest = (GOLDEN_DIR / "sweep-tandem-40.txt").read_text().split("\n")
    cells = first.split(",")
    cells[column] = repr(float(cells[column]) + shift)
    out = "\n".join([header, ",".join(cells), *rest])
    assert _same_as("sweep-tandem-40")(Run(0, out, "", None, run_in_process)) is same


def _fake(code=0, out="", peak_mb=None, writes=False, seen=None):
    """A runner that returns this run, and writes the --output file if told to."""

    def run(argv, stdin=None, measure_peak=False):
        if seen is not None:
            seen.append(list(argv))
        if writes:
            Path(argv[-1]).write_text("{}")
        return Run(code, out, "", peak_mb, run)

    return run


@pytest.mark.parametrize(
    "case, run, says",
    [
        (Case("exit", ("x",), 2), _fake(), "expected exit 2"),
        (Case("stdout", ("x",), 2), _fake(code=2, out="{}"), "output on a nonzero exit"),
        (Case("file", ("x",), 2), _fake(code=2, writes=True), "output on a nonzero exit"),
        (Case("peak", ("x",), peak_mb=10), _fake(peak_mb=11), "peak 11.0 MB"),
        (Case("check", ("x",), check=lambda run: run.out == "y"), _fake(out="z"), "predicate"),
    ],
    ids=["exit", "stdout", "file", "peak", "check"],
)
def test_run_case_fails_a_run_that_misses_its_row(case, run, says):
    with pytest.raises(AssertionError, match=f"^{case.name}: .*{says}"):
        run_case(case, run)


def test_run_case_passes_a_run_that_meets_its_row():
    refusal, solve = [], []
    run_case(Case("refusal", ("x",), 2), _fake(code=2, seen=refusal))
    run_case(Case("solve", ("x",), check=lambda run: run.out == "y"), _fake(out="y", seen=solve))
    # only a refusal runs with --output appended
    assert refusal[0][:2] == ["x", "--output"] and solve == [["x"]]


def test_run_in_process_feeds_stdin_and_writes_warnings_to_stderr(monkeypatch):
    def main(argv):
        print(sys.stdin.read(), end="")
        warnings.warn("overflow", RuntimeWarning)
        return 0

    monkeypatch.setattr(cli, "main", main)
    run = run_in_process(["x"], "fed")
    assert (run.code, run.out) == (0, "fed") and "RuntimeWarning: overflow" in run.err


# a refusal, a stdin row, a golden and a bounded peak, each in a fresh process
@pytest.mark.parametrize("name", ["solve-tandem-exact", "stdin-config", "solve-section-s1",
                                  "sweep-steps-past-the-cap"])
def test_run_installed_runs_a_row_in_a_fresh_process(monkeypatch, tmp_path, name):
    shim = tmp_path / "roadqueue"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m roadqueue.cli "$@"\n')
    shim.chmod(0o755)
    monkeypatch.setenv("PATH", f"{tmp_path}{os.pathsep}{os.environ['PATH']}")
    monkeypatch.setenv("PYTHONPATH", str(Path(cli.__file__).parents[1]))
    (case,) = [case for case in CASES if case.name == name]
    run_case(case, run_installed)


@pytest.mark.parametrize("codes, exit_code, tail", [
    ((0, 0), 0, "2 of 2 cases passed\n"),
    ((0, 2), 1, "1 of 2 cases passed\nfailed: row-1\n"),
], ids=["all-pass", "one-fails"])
def test_main_names_each_failed_row(monkeypatch, capsys, codes, exit_code, tail):
    monkeypatch.setattr(cli_cases, "CASES", [Case(f"row-{i}", ("x",), code)
                                             for i, code in enumerate(codes)])
    monkeypatch.setattr(cli_cases, "run_installed", _fake())
    assert cli_cases.main() == exit_code
    assert capsys.readouterr().out.endswith(tail)


def test_write_goldens_writes_each_golden_rows_stdout(monkeypatch, tmp_path):
    rows = [case for case in GOLDEN_ROWS if case.name in ("solve-section-s1", "solve-tandem-exact")]
    monkeypatch.setattr(cli_cases, "GOLDEN_ROWS", rows)
    monkeypatch.setattr(cli_cases, "GOLDEN_DIR", tmp_path)
    cli_cases.write_goldens()
    for case in rows:
        written = (tmp_path / f"{case.name}.txt").read_bytes()
        assert written == (GOLDEN_DIR / f"{case.name}.txt").read_bytes()


def test_write_goldens_refuses_a_wrong_exit_writing_nothing(monkeypatch, tmp_path):
    monkeypatch.setattr(cli_cases, "GOLDEN_ROWS", [GOLDEN_ROWS[0], Case("wrong", ("solve-section",))])
    monkeypatch.setattr(cli_cases, "GOLDEN_DIR", tmp_path)
    with pytest.raises(SystemExit, match="^wrong: exit 2, expected 0$"):
        cli_cases.write_goldens()
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("text, phrase", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_config_file_exits_2(tmp_path, text, phrase):
    # the table's stdin rows, read from a file
    path = tmp_path / "malformed.json"
    path.write_text(text)
    run = run_in_process(["solve-section", "--lambda", "0.8", "--config", str(path)])
    assert (run.code, run.out) == (2, "") and run.err.startswith("error: ") and phrase in run.err


@pytest.mark.parametrize(
    "argv",
    [
        ("sweep", "--lambda-from", "0.1", "--lambda-to", "2.0", "--steps", "40"),
        ("figure-data", "--figure", "fig7"),
    ],
    ids=["sweep", "fig7"],
)
def test_tandem_sweep_makes_one_fixed_point_call(monkeypatch, argv):
    # the whole grid goes to one batched solve: a per-lambda loop would
    # call once per row
    real, calls = cli.solve_fixed_point, []

    def spy(config, lam, *args, **kwargs):
        calls.append(lam)
        return real(config, lam, *args, **kwargs)

    monkeypatch.setattr(cli, "solve_fixed_point", spy)
    run = run_in_process(argv)
    assert run.code == 0
    assert len(run.out.strip().splitlines()) == 41
    assert len(calls) == 1
    assert len(calls[0]) == 40


def _columns(argv) -> dict[str, tuple[str, ...]]:
    """Each column of the CSV that argv prints, by its header."""
    run = run_in_process(argv)
    assert run.code == 0, run.err
    header, *rows = run.out.splitlines()
    return dict(zip(header.split(","), zip(*(row.split(",") for row in rows))))


SWEEP_40 = ("sweep", "--lambda-from", "0.1", "--lambda-to", "2.0", "--steps", "40")


def _sweeps(ours: str, jain_smith: str) -> dict[str, tuple[str, ...]]:
    """A column of the tandem sweep beside one of the section-1 linear sweep."""
    tandem, section = _columns(SWEEP_40), _columns((*SWEEP_40, "--section", "1", "--model", "linear"))
    assert tandem["lambda"] == section["lambda"]
    return {"lambda": tandem["lambda"], "ours": tandem[ours], "jain_smith": section[jain_smith]}


def _laws() -> dict[str, tuple[str, ...]]:
    """solve-tandem's marginal beside solve-section's linear law at three loads."""
    rows = []
    for lam in ("0.5", "1", "1.5"):
        ours = json.loads(run_in_process(["solve-tandem", "--lambda", lam]).out)["marginal"]
        section = run_in_process(["solve-section", "--lambda", lam, "--model", "linear"])
        rows += [(lam, str(n), format(a, ".12g"), format(b, ".12g"))
                 for n, (a, b) in enumerate(zip(ours, json.loads(section.out)["distribution"]))]
    return dict(zip(("lambda", "n", "ours", "jain_smith"), zip(*rows)))


# figure-data prints no number of its own: each figure is a join of the
# columns other commands print
@pytest.mark.parametrize("figure, join", [
    (("fig4",), _laws),
    (("fig5",), lambda: _sweeps("expected_count", "expected_count")),
    (("fig5", "--metric", "blocking"), lambda: _sweeps("blocking", "blocking")),
    (("fig6",), lambda: _sweeps("travel_time", "travel_time")),
    (("fig7",), lambda: _sweeps("theta", "throughput")),
], ids=["fig4", "fig5", "fig5-blocking", "fig6", "fig7"])
def test_figures_are_joins_of_other_commands(figure, join):
    assert _columns(("figure-data", "--figure", *figure)) == join()


def test_output_file(tmp_path):
    path = tmp_path / "law.json"
    run = run_in_process(["solve-section", "--lambda", "0.5", "--output", str(path)])
    assert (run.code, run.out) == (0, "")
    assert json.loads(path.read_text())["lambda"] == 0.5


def test_unwritable_output_exits_4(tmp_path):
    path = tmp_path / "no" / "dir" / "law.json"
    assert run_in_process(["solve-section", "--lambda", "0.5", "--output", str(path)]).code == 4


def test_compare_is_no_subcommand():
    # the exact birth-death solve it printed beside simulate's law is a test reference now
    run = run_in_process(["compare", "--lambda", "0.8", "--events", "10000"])
    assert run.code == 2
    assert "invalid choice: 'compare'" in run.err


def test_console_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "roadqueue.cli", "solve-section", "--lambda", "0.5"],
        capture_output=True,
        text=True,
        check=False,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["lambda"] == 0.5


# (dest, option strings, default, choices, required, type name, help) of
# every action, per subcommand, in declaration order, which is the order
# --help shows: folding the parser's declarations must keep each
HELP = ("help", ("-h", "--help"), argparse.SUPPRESS, None, False, None,
        "show this help message and exit")
CONFIG = ("config", ("--config",), None, None, False, None,
          "scenario JSON path, '-' for stdin (default: bundled scenario)")
OUTPUT = ("output", ("--output",), None, None, False, None, "output path (default: stdout)")
LAM = ("lam", ("--lambda",), None, None, True, "float", "arrival rate [veh/s]")
MODEL = ("model", ("--model",), None, ("triangular", "linear", "exponential"), False, None,
         "override the scenario's service-rate model")
SOLVER = [
    MODEL,
    ("beta", ("--beta",), None, None, False, "float", None),
    ("gamma", ("--gamma",), None, None, False, "float", None),
]
SECTION_ONE = ("section", ("--section",), 1, None, False, "int", None)
SIMULATION = [
    ("events", ("--events",), 1_000_000, None, False, "int", None),
    ("seed", ("--seed",), 42, None, False, "int", None),
    SECTION_ONE,
]
KIND = ("kind", ("--kind",), "speed", ("speed", "travel-time"), False, None, None)
PARSER_SURFACE = {
    "solve-section": [HELP, CONFIG, OUTPUT, LAM, *SOLVER, SECTION_ONE],
    "solve-tandem": [
        HELP, CONFIG, OUTPUT, LAM,
        ("tol", ("--tol",), 1e-10, None, False, "float",
         "dimensionless: stop at |residual| <= tol * min(lambda, max q12)"),
        ("scan_roots", ("--scan-roots",), False, None, False, None,
         "also report every residual sign change on a 1000-point grid"),
    ],
    "distributions": [
        HELP, CONFIG, OUTPUT, LAM, MODEL, KIND,
        ("mode", ("--mode",), "pushforward", ("pushforward", "paper-grid"), False, None, None),
        ("section", ("--section",), None, None, False, "int",
         "use this section's own law instead of the tandem marginal"),
    ],
    "sweep": [
        HELP, CONFIG, OUTPUT, *SOLVER,
        ("lambda_from", ("--lambda-from",), None, None, True, "float", None),
        ("lambda_to", ("--lambda-to",), None, None, True, "float", None),
        ("steps", ("--steps",), None, None, True, "int", None),
        ("section", ("--section",), None, None, False, "int",
         "sweep this single section instead of the tandem system"),
    ],
    "simulate": [HELP, CONFIG, OUTPUT, LAM, *SOLVER, *SIMULATION],
    "fit-exponential": [
        HELP, CONFIG, OUTPUT,
        ("fit_a", ("--fit-a",), None, None, True, "float", "first anchor count"),
        ("fit_va", ("--fit-va",), None, None, True, "float", "speed at a"),
        ("fit_b", ("--fit-b",), None, None, True, "float", "second anchor count"),
        ("fit_vb", ("--fit-vb",), None, None, True, "float", "speed at b"),
        ("fit_vf", ("--fit-vf",), None, None, False, "float",
         "free speed (default: section 1's v_f from the config)"),
    ],
    "figure-data": [
        HELP, CONFIG, OUTPUT,
        ("figure", ("--figure",), None, ("fig4", "fig5", "fig6", "fig7"), True, None, None),
        ("metric", ("--metric",), None, ("count", "blocking"), False, None,
         "fig5: which panel to emit (default count)"),
    ],
}
# each subcommand's own help, as the top-level --help lists it
COMMAND_HELP = {
    "solve-section": "stationary law of one section",
    "solve-tandem": "two-section throughput fixed point",
    "distributions": "speed / travel-time law as CSV",
    "sweep": "arrival-rate sweep as CSV",
    "simulate": "seeded Monte Carlo of one section",
    "fit-exponential": "fit (beta, gamma) from two anchor points",
    "figure-data": "canned comparison datasets for plotting",
}


def test_parser_surface_is_pinned_option_by_option():
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == list(PARSER_SURFACE)
    assert {a.dest: a.help for a in sub._choices_actions} == COMMAND_HELP
    assert [a.dest for a in sub._choices_actions] == list(COMMAND_HELP)
    for name, expected in PARSER_SURFACE.items():
        actual = [
            (
                a.dest,
                tuple(a.option_strings),
                a.default,
                None if a.choices is None else tuple(a.choices),
                a.required,
                getattr(a.type, "__name__", None),
                a.help,
            )
            for a in sub.choices[name]._actions
        ]
        assert actual == expected, name
