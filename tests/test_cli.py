import argparse
import json
import subprocess
import sys
from importlib import resources

import pytest

from cli_cases import CASES, MALFORMED, SECTION_1, run_case, run_in_process
from roadqueue import cli
from roadqueue.cli import build_parser, main


@pytest.fixture
def linear_config(tmp_path) -> str:
    """The bundled two-section scenario under the linear congestion model."""
    bundled = resources.files("roadqueue").joinpath("data/default_scenario.json")
    path = tmp_path / "linear.json"
    path.write_text(json.dumps({**json.loads(bundled.read_text()), "model": "linear"}))
    return str(path)


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text: str) -> tuple[list[str], list[list[str]]]:
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


class TestSolveSection:
    def test_json_payload(self, capsys):
        code, out, err = run_cli(
            capsys, "solve-section", "--lambda", "0.5", "--section", "1"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["lambda"] == 0.5
        assert doc["model"] == "triangular"
        assert doc["convention"] == "shifted"
        assert len(doc["distribution"]) == 19
        assert sum(doc["distribution"]) == pytest.approx(1.0, abs=1e-12)
        assert doc["expected_travel_time"] == pytest.approx(
            doc["expected_count"] / doc["throughput"]
        )

    def test_linear_model_override(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve-section", "--lambda", "0.8", "--model", "linear"
        )
        assert code == 0
        assert json.loads(out)["model"] == "linear"

    def test_throughput_when_blocking_rounds_to_one(self, capsys):
        # at lam = 1e17, P_c is 1.0 to the last bit: the throughput is the
        # departure rate from the other masses, not lam * (1 - P_c) = 0
        code, out, err = run_cli(
            capsys, "solve-section", "--lambda", "1e17", "--section", "1"
        )
        assert code == 0, err
        doc = json.loads(out)
        assert doc["blocking"] == 1.0
        assert doc["throughput"] == pytest.approx(0.14, rel=1e-12)
        assert doc["expected_travel_time"] == pytest.approx(18 / 0.14, rel=1e-12)
        assert not doc["free_flow_fallback"]

    def test_missing_config_exits_4(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys,
            "solve-section",
            "--lambda",
            "0.5",
            "--config",
            str(tmp_path / "missing.json"),
        )
        assert code == 4
        assert out == ""


def test_non_finite_geometry_exits_2(capsys, tmp_path):
    # Python's JSON parser accepts the Infinity literal
    path = tmp_path / "inf.json"
    path.write_text(json.dumps({**SECTION_1, "L": float("inf")}))
    assert "Infinity" in path.read_text()
    code, out, err = run_cli(
        capsys, "solve-section", "--lambda", "0.8", "--config", str(path)
    )
    assert (code, out) == (2, "")
    assert "L must be finite" in err


@pytest.mark.parametrize("command", ["simulate", "solve-section"])
def test_absurd_length_exits_2(capsys, tmp_path, command):
    # 1e12 m holds c = 1.8e11 vehicles: refused before any per-state array
    path = tmp_path / "long.json"
    section = {"L": 1e12, "v_f": 28.0, "w": 14.0, "rho_j": 0.18}
    path.write_text(json.dumps({"sections": [section, section]}))
    code, out, err = run_cli(capsys, command, "--lambda", "0.8", "--config", str(path))
    assert (code, out) == (2, "")
    assert "capacity c = 180000000000 " in err


def test_section_with_zero_critical_count_solves(capsys, tmp_path):
    # c = 2, and rho_cr * L rounds to 0: the section still has a law
    path = tmp_path / "short.json"
    path.write_text(json.dumps({"L": 10.35, "v_f": 35.53, "w": 2.518, "rho_j": 0.1561}))
    code, out, err = run_cli(
        capsys, "solve-section", "--lambda", "0.8", "--config", str(path)
    )
    assert code == 0, err
    assert len(json.loads(out)["distribution"]) == 3


@pytest.mark.parametrize("key", ["L", "c"])
def test_integer_past_the_float_range_exits_2(capsys, tmp_path, key):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({**SECTION_1, key: 10**400}))
    code, out, err = run_cli(
        capsys, "solve-section", "--lambda", "0.8", "--config", str(path)
    )
    assert (code, out) == (2, "")
    assert f"section key '{key}' is past the float range" in err


def test_non_numeric_shape_parameter_exits_2(capsys, tmp_path):
    path = tmp_path / "beta.json"
    doc = {"sections": [SECTION_1], "model": "exponential", "beta": "x", "gamma": 1.8}
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(
        capsys, "solve-section", "--lambda", "0.8", "--config", str(path)
    )
    assert (code, out) == (2, "")
    assert "config key 'beta' must be a number" in err


@pytest.mark.parametrize("text", MALFORMED.values(), ids=list(MALFORMED))
def test_malformed_config_file_exits_2(capsys, tmp_path, text):
    # the table's stdin cases, read from a file
    path = tmp_path / "malformed.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "solve-section", "--lambda", "0.8", "--config", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


class TestSolveTandem:
    def test_one_section_config_exits_2(self, capsys, tmp_path):
        path = tmp_path / "one.json"
        path.write_text(json.dumps(SECTION_1))
        code, out, _ = run_cli(
            capsys, "solve-tandem", "--lambda", "0.8", "--config", str(path)
        )
        assert code == 2
        assert out == ""

    def test_congestion_model_config_exits_2(self, capsys, linear_config):
        code, out, err = run_cli(
            capsys, "solve-tandem", "--lambda", "0.8", "--config", linear_config
        )
        assert (code, out) == (2, "")
        assert "'linear'" in err and "--section" in err


class TestDistributions:
    def test_tandem_marginal_speed_csv(self, capsys):
        code, out, _ = run_cli(capsys, "distributions", "--lambda", "0.8")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["value", "probability"]
        assert len(rows) == 13
        total = sum(float(row[1]) for row in rows)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_travel_time_kind(self, capsys):
        code, out, _ = run_cli(
            capsys, "distributions", "--lambda", "0.8", "--kind", "travel-time"
        )
        assert code == 0
        _, rows = parse_csv(out)
        values = [float(row[0]) for row in rows]
        assert values[0] == pytest.approx(100.0 / 28.0, rel=1e-9)

    def test_single_section_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "distributions", "--lambda", "0.8", "--section", "2"
        )
        assert code == 0
        _, rows = parse_csv(out)
        # section 2 free speed: atoms top out at 14
        assert max(float(row[0]) for row in rows) == pytest.approx(14.0)

    def test_grid_mode_linear(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "distributions",
            "--lambda",
            "0.8",
            "--model",
            "linear",
            "--mode",
            "paper-grid",
            "--section",
            "1",
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 28
        assert sum(float(row[1]) for row in rows) < 1.0

    def test_exact_convention_travel_time_at_zero_load(self, capsys):
        code, out, err = run_cli(
            capsys, "distributions", "--lambda", "0", "--convention", "exact",
            "--kind", "travel-time", "--section", "1",
        )
        assert (code, err) == (0, "")
        assert out == "value,probability\n3.57142857143,1\n"

    @pytest.mark.parametrize(
        "geometry, kind, grid",
        [
            ({"L": 100.0, "v_f": 0.5, "w": 14.0, "rho_j": 0.18}, "speed", "speed grid"),
            ({"L": 0.5, "v_f": 28.0, "w": 14.0, "rho_j": 4.0}, "travel-time", "time grid"),
        ],
    )
    def test_empty_paper_grid_exits_2(self, capsys, tmp_path, geometry, kind, grid):
        path = tmp_path / "section.json"
        path.write_text(json.dumps(geometry))
        code, out, err = run_cli(
            capsys, "distributions", "--lambda", "0.01", "--config", str(path),
            "--model", "linear", "--mode", "paper-grid", "--section", "1", "--kind", kind,
        )
        assert (code, out) == (2, "")
        assert grid in err
        assert f"v_f = {geometry['v_f']!r} m/s and L = {geometry['L']!r} m" in err


class TestSweep:
    def test_tandem_sweep_schema(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep",
            "--lambda-from",
            "0.1",
            "--lambda-to",
            "2.0",
            "--steps",
            "5",
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == [
            "lambda",
            "theta",
            "blocking",
            "expected_count",
            "travel_time",
            "tv_vs_exact_2d",
        ]
        assert len(rows) == 5
        assert float(rows[0][0]) == pytest.approx(0.1)
        assert float(rows[-1][0]) == pytest.approx(2.0)

    def test_section_sweep_schema(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep",
            "--lambda-from",
            "0.1",
            "--lambda-to",
            "1.0",
            "--steps",
            "4",
            "--section",
            "1",
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == [
            "lambda",
            "blocking",
            "throughput",
            "expected_count",
            "travel_time",
        ]
        assert len(rows) == 4


class TestSimulate:
    def test_payload_and_reproducibility(self, capsys):
        args = (
            "simulate",
            "--lambda",
            "0.8",
            "--events",
            "10000",
            "--seed",
            "7",
        )
        code, out_a, _ = run_cli(capsys, *args)
        assert code == 0
        code, out_b, _ = run_cli(capsys, *args)
        assert code == 0
        assert out_a == out_b
        doc = json.loads(out_a)
        assert doc["seed"] == 7
        assert doc["events"] == 10000
        assert doc["algorithm"] == "numpy-pcg64"
        assert not doc["absorbed"]
        assert doc["tv_vs_analytical"] > 0

    def test_absorbing_run_reports_null_tv(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate",
            "--lambda",
            "2.0",
            "--events",
            "10000",
            "--convention",
            "exact",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["absorbed"] is True
        assert doc["tv_vs_analytical"] is None
        assert doc["empirical"][-1] == 1.0


class TestCompare:
    def test_oversized_generator_exits_3(self, capsys, tmp_path):
        # 40 km holds c = 7200: its dense generator would pass 256 MiB
        path = tmp_path / "long.json"
        path.write_text(json.dumps({**SECTION_1, "L": 40000.0, "c": 7200}))
        code, out, err = run_cli(
            capsys, "compare", "--lambda", "0.8", "--events", "10000",
            "--config", str(path),
        )
        assert (code, out) == (3, "")
        assert "256 MiB cap" in err


class TestFitExponential:
    def test_free_speed_defaults_to_config(self, capsys):
        # bundled section 1 has v_f = 28
        code, out, _ = run_cli(
            capsys,
            "fit-exponential",
            "--fit-a",
            "5",
            "--fit-va",
            "20",
            "--fit-b",
            "15",
            "--fit-vb",
            "8",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["beta"] > 0
        assert doc["gamma"] > 0


@pytest.mark.parametrize(
    "argv",
    [
        ("sweep", "--lambda-from", "0.1", "--lambda-to", "2.0", "--steps", "40"),
        ("figure-data", "--figure", "fig7"),
    ],
    ids=["sweep", "fig7"],
)
def test_tandem_sweep_makes_one_fixed_point_call(capsys, monkeypatch, argv):
    # the whole grid goes to one batched solve: a per-lambda loop would
    # call once per row
    real, calls = cli.solve_fixed_point, []

    def spy(config, lam, *args, **kwargs):
        calls.append(lam)
        return real(config, lam, *args, **kwargs)

    monkeypatch.setattr(cli, "solve_fixed_point", spy)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert len(parse_csv(out)[1]) == 40
    assert len(calls) == 1
    assert len(calls[0]) == 40


class TestFigureData:
    def test_fig4_occupancy_comparison(self, capsys):
        code, out, _ = run_cli(capsys, "figure-data", "--figure", "fig4")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["lambda", "n", "ours", "jain_smith"]
        assert len(rows) == 3 * 19
        lams = {float(row[0]) for row in rows}
        assert lams == {0.5, 1.0, 1.5}

    @pytest.mark.parametrize("figure", ["fig5", "fig6", "fig7"])
    def test_sweep_figures(self, capsys, figure):
        code, out, _ = run_cli(capsys, "figure-data", "--figure", figure)
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["lambda", "ours", "jain_smith"]
        assert len(rows) == 40

    def test_fig5_blocking_panel(self, capsys):
        code, out, _ = run_cli(
            capsys, "figure-data", "--figure", "fig5", "--metric", "blocking"
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert all(0 <= float(row[1]) <= 1 for row in rows)

    def test_fig8_grid_histogram(self, capsys):
        code, out, _ = run_cli(capsys, "figure-data", "--figure", "fig8")
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 28
        # one section under the linear model: the convention does not apply
        exact = run_cli(capsys, "figure-data", "--figure", "fig8", "--convention", "exact")
        assert exact == (0, out, "")

    @pytest.mark.parametrize("figure", ["fig9", "fig10"])
    def test_tandem_pushforward_figures(self, capsys, figure):
        code, out, _ = run_cli(
            capsys, "figure-data", "--figure", figure, "--kind", "travel-time"
        )
        assert code == 0
        _, rows = parse_csv(out)
        total = sum(float(row[1]) for row in rows)
        assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "figure", ["fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10"]
    )
    def test_scenario_model_does_not_change_figures(self, capsys, linear_config, figure):
        bundled = run_cli(capsys, "figure-data", "--figure", figure)
        linear = run_cli(capsys, "figure-data", "--figure", figure, "--config", linear_config)
        assert bundled[0] == 0
        assert linear == bundled


class TestOutputHandling:
    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "law.json"
        code, out, _ = run_cli(
            capsys,
            "solve-section",
            "--lambda",
            "0.5",
            "--output",
            str(path),
        )
        assert code == 0
        assert out == ""
        assert json.loads(path.read_text())["lambda"] == 0.5

    def test_unwritable_output_exits_4(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys,
            "solve-section",
            "--lambda",
            "0.5",
            "--output",
            str(tmp_path / "no" / "dir" / "law.json"),
        )
        assert code == 4

    def test_csv_numbers_carry_12_significant_digits(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep",
            "--lambda-from",
            "0.1",
            "--lambda-to",
            "2.0",
            "--steps",
            "3",
            "--section",
            "1",
        )
        assert code == 0
        _, rows = parse_csv(out)
        cell = rows[0][1]  # blocking at lambda = 0.1, far from round
        mantissa = cell.replace(".", "").replace("-", "").lstrip("0")
        mantissa = mantissa.split("e")[0]
        assert len(mantissa) == 12


# every row of tests/cli_cases.py, in process; CI runs the same rows
# against the installed roadqueue executable
@pytest.mark.parametrize("case", CASES, ids=lambda case: case.name)
def test_cli_case(case):
    run_case(case, run_in_process)


def test_cli_case_names_are_unique():
    assert len({case.name for case in CASES}) == len(CASES)


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
CONVENTION = ("convention", ("--convention",), None, ("exact", "shifted"), False, None, None)
MODEL = [
    CONVENTION,
    ("model", ("--model",), None, ("triangular", "linear", "exponential"), False, None,
     "override the scenario's service-rate model"),
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
    "solve-section": [HELP, CONFIG, OUTPUT, LAM, *MODEL, SECTION_ONE],
    "solve-tandem": [
        HELP, CONFIG, OUTPUT, LAM, CONVENTION,
        ("tol", ("--tol",), 1e-10, None, False, "float",
         "dimensionless: stop at |residual| <= tol * min(lambda, max q12)"),
        ("max_iter", ("--max-iter",), 200, None, False, "int", None),
        ("scan_roots", ("--scan-roots",), False, None, False, None,
         "also report every residual sign change on a 1000-point grid"),
    ],
    "distributions": [
        HELP, CONFIG, OUTPUT, LAM, *MODEL, KIND,
        ("mode", ("--mode",), "pushforward", ("pushforward", "paper-grid"), False, None, None),
        ("section", ("--section",), None, None, False, "int",
         "use this section's own law instead of the tandem marginal"),
    ],
    "sweep": [
        HELP, CONFIG, OUTPUT, *MODEL,
        ("lambda_from", ("--lambda-from",), None, None, True, "float", None),
        ("lambda_to", ("--lambda-to",), None, None, True, "float", None),
        ("steps", ("--steps",), None, None, True, "int", None),
        ("section", ("--section",), None, None, False, "int",
         "sweep this single section instead of the tandem system"),
    ],
    "simulate": [HELP, CONFIG, OUTPUT, LAM, *MODEL, *SIMULATION],
    "compare": [HELP, CONFIG, OUTPUT, LAM, *MODEL, *SIMULATION],
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
        HELP, CONFIG, OUTPUT, CONVENTION,
        ("figure", ("--figure",), None,
         ("fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10"), True, None, None),
        ("kind", ("--kind",), None, ("speed", "travel-time"), False, None,
         "fig8/fig9/fig10: which distribution to emit (default speed)"),
        ("metric", ("--metric",), None, ("count", "blocking"), False, None,
         "fig5: which panel to emit (default count)"),
        ("section", ("--section",), None, None, False, "int", "fig8 only (default 1)"),
    ],
}
# each subcommand's own help, as the top-level --help lists it
COMMAND_HELP = {
    "solve-section": "stationary law of one section",
    "solve-tandem": "two-section throughput fixed point",
    "distributions": "speed / travel-time law as CSV",
    "sweep": "arrival-rate sweep as CSV",
    "simulate": "seeded Monte Carlo of one section",
    "compare": "analytical vs exact vs simulated, with TV distances",
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
