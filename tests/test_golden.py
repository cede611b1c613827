"""CLI stdout on the bundled scenario, compared byte for byte with goldens.

Each case is a command line, the exit code it must return, and a file
under ``tests/golden/`` holding its expected stdout (empty on a nonzero
exit).  A refactor that keeps these bytes keeps the CLI's behaviour.
The one exception is ``tv_vs_exact_2d``, whose last digits are the
joint-chain oracle's round-off: those values are compared within
``TV_ATOL`` and every other byte exactly.  At the bundled capacity
(c = 18) the level-by-level oracle gives the same bits with one BLAS
thread or several, so the tolerance covers other LAPACK builds only.

Regenerate after an intended output change, and review the diff:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import re
import sys
from pathlib import Path

import pytest

from roadqueue.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

TV_ATOL = 1e-12
TV_JSON = re.compile(r'("tv_vs_exact_2d": )([^,\n]+)')

FIGURES = ("fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10")

# name -> (argv, exit code)
CASES = {
    "solve-section-s1": (["solve-section", "--lambda", "0.8", "--section", "1"], 0),
    "solve-section-s2": (["solve-section", "--lambda", "0.5", "--section", "2"], 0),
    "solve-section-lam0": (["solve-section", "--lambda", "0"], 0),
    "solve-section-exact-lam0": (
        ["solve-section", "--lambda", "0", "--convention", "exact"], 0),
    "solve-section-linear": (["solve-section", "--lambda", "0.8", "--model", "linear"], 0),
    "solve-section-exponential": (
        ["solve-section", "--lambda", "0.8", "--model", "exponential",
         "--beta", "9.5", "--gamma", "1.8"], 0),
    "solve-tandem-scan-0.8": (["solve-tandem", "--lambda", "0.8", "--scan-roots"], 0),
    "solve-tandem-scan-0": (["solve-tandem", "--lambda", "0", "--scan-roots"], 0),
    "solve-tandem-2": (["solve-tandem", "--lambda", "2"], 0),
    "solve-tandem-exact": (
        ["solve-tandem", "--lambda", "0.8", "--convention", "exact", "--scan-roots"], 3),
    "distributions-speed": (["distributions", "--lambda", "0.8"], 0),
    "distributions-travel-time": (
        ["distributions", "--lambda", "0.8", "--kind", "travel-time"], 0),
    "distributions-section2-travel-time": (
        ["distributions", "--lambda", "1.5", "--kind", "travel-time", "--section", "2"], 0),
    "distributions-exact-speed-lam0": (
        ["distributions", "--lambda", "0", "--convention", "exact", "--section", "1"], 0),
    "distributions-linear-speed": (
        ["distributions", "--lambda", "0.8", "--model", "linear", "--section", "1"], 0),
    "distributions-linear-travel-time": (
        ["distributions", "--lambda", "0.8", "--model", "linear", "--kind", "travel-time",
         "--section", "1"], 0),
    "distributions-paper-grid-speed": (
        ["distributions", "--lambda", "0.8", "--model", "linear",
         "--mode", "paper-grid", "--section", "1"], 0),
    "distributions-paper-grid-travel-time": (
        ["distributions", "--lambda", "0.8", "--model", "linear",
         "--mode", "paper-grid", "--kind", "travel-time", "--section", "1"], 0),
    "sweep-tandem-40": (
        ["sweep", "--lambda-from", "0.1", "--lambda-to", "2.0", "--steps", "40"], 0),
    "sweep-tandem-from0": (
        ["sweep", "--lambda-from", "0", "--lambda-to", "2.0", "--steps", "21"], 0),
    "sweep-section-from0": (
        ["sweep", "--lambda-from", "0", "--lambda-to", "2.0", "--steps", "21",
         "--section", "1"], 0),
    "sweep-section-linear": (
        ["sweep", "--lambda-from", "0.1", "--lambda-to", "2.0", "--steps", "20",
         "--section", "2", "--model", "linear"], 0),
    "simulate-1e5": (["simulate", "--lambda", "0.8", "--events", "100000"], 0),
    "simulate-exact-1e5": (
        ["simulate", "--lambda", "0.8", "--events", "100000", "--convention", "exact",
         "--seed", "7"], 0),
    "compare-1e5": (["compare", "--lambda", "0.8", "--events", "100000"], 0),
    "fit-exponential": (
        ["fit-exponential", "--fit-a", "20", "--fit-va", "48", "--fit-b", "140",
         "--fit-vb", "20", "--fit-vf", "55"], 0),
    "fit-exponential-config-vf": (
        ["fit-exponential", "--fit-a", "5", "--fit-va", "20", "--fit-b", "12",
         "--fit-vb", "8"], 0),
    **{f"figure-data-{fig}": (["figure-data", "--figure", fig], 0) for fig in FIGURES},
    "figure-data-fig5-blocking": (
        ["figure-data", "--figure", "fig5", "--metric", "blocking"], 0),
    **{
        f"figure-data-{fig}-travel-time": (
            ["figure-data", "--figure", fig, "--kind", "travel-time"], 0)
        for fig in ("fig8", "fig9", "fig10")
    },
}


def run(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


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


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_stdout_matches_golden(name):
    argv, expected_code = CASES[name]
    code, out = run(argv)
    assert code == expected_code
    text, tvs = split_tv(out)
    golden, golden_tvs = split_tv(
        (GOLDEN_DIR / f"{name}.txt").read_text(encoding="utf-8")
    )
    assert text == golden
    assert tvs == pytest.approx(golden_tvs, rel=0, abs=TV_ATOL)


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


def test_every_golden_file_has_a_case():
    assert sorted(p.stem for p in GOLDEN_DIR.glob("*.txt")) == sorted(CASES)


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, (argv, expected_code) in sorted(CASES.items()):
        code, out = run(argv)
        if code != expected_code:
            sys.exit(f"{name}: exit {code}, expected {expected_code}")
        (GOLDEN_DIR / f"{name}.txt").write_text(out, encoding="utf-8")
