"""README's examples, run: the library quick start and each CLI line."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from cli_cases import run_in_process

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
