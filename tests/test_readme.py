"""README's examples, run: the library quick start and each CLI line, and
its table of the exact joint law, recomputed."""

import contextlib
import dataclasses
import io
import re
import shlex
from pathlib import Path

import pytest

from cli_cases import run_in_process
from roadqueue import (
    TandemConfig,
    default_scenario,
    solve_fixed_point,
    tandem_stationary,
    tv_distance,
)
from roadqueue.fundamental import service_rates

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def fenced_block(heading: str, language: str) -> str:
    """The first fenced block in the given language under README's ## heading."""
    section = README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


# every line of the CLI block that is not blank or a comment
CLI_LINES = [
    shlex.split(line, comments=True)
    for line in fenced_block("CLI", "sh").splitlines()
    if line.strip() and not line.startswith("#")
]


def test_library_quick_start_runs():
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(fenced_block("Library quick start", "python"), {})
    assert out.getvalue()


@pytest.mark.parametrize("argv", CLI_LINES, ids=lambda argv: " ".join(argv[1:]))
def test_cli_line_exits_0(argv):
    assert argv[0] == "roadqueue"
    run = run_in_process(argv[1:])
    assert run.code == 0, run.err


EXACT_HEADER = "| c | lambda | exact throughput | theta | TV section 1 | TV section 2 |"
# each row of the exact-joint-law table under Tests, as its printed cells
EXACT_ROWS = [
    [cell.strip() for cell in line.strip("|").split("|")]
    for line in README.split(EXACT_HEADER + "\n", 1)[1].split("\n\n", 1)[0].splitlines()[1:]
]


@pytest.mark.parametrize("row", EXACT_ROWS, ids=lambda row: f"c{row[0]}-lam{row[1]}")
def test_exact_joint_law_table_is_recomputed(row):
    # the bundled tandem with both sections stretched to capacity c
    c, lam = int(row[0]), float(row[1])
    tandem = default_scenario().tandem()
    section1, section2 = (
        dataclasses.replace(s, L=s.L * c / s.c, c=None) for s in (tandem.section1, tandem.section2)
    )
    config = TandemConfig(section1=section1, section2=section2)
    assert section1.c == section2.c == c
    joint, result = tandem_stationary(config, lam), solve_fixed_point(config, lam)
    exact_throughput = joint.sum(axis=0)[1:] @ service_rates(section2)
    values = (
        exact_throughput,
        result.theta,
        tv_distance(joint.sum(axis=1), result.marginal),
        tv_distance(joint.sum(axis=0), result.downstream),
    )
    assert [format(value, ".4f") for value in values] == row[2:]
