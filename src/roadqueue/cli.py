"""Command-line surface: solvers, oracles, and plottable CSV/JSON emission.

Subcommands:

    solve-section    stationary law and measures of one section
    solve-tandem     throughput fixed point of a two-section scenario
    distributions    speed / travel-time law as value,probability CSV
    sweep            arrival-rate sweep as CSV (tandem or single section)
    simulate         seeded Monte Carlo run vs the analytical law
    compare          analytical vs exact-solve vs simulated, with TV distances
    fit-exponential  congestion-curve fit from two anchor points
    figure-data      canned comparison datasets: fig4..fig7 from the sweeps'
                     per-lambda solves, fig8..fig10 presets of distributions

Exit codes: 0 success, 2 configuration or usage errors, 3 numerical
failures (singular model, non-convergence, oracle residual), 4 file I/O
failures.  Nothing is written on a nonzero exit.  Every payload names
the one service-rate convention, "shifted"; a scenario naming "exact"
exits 3, as that chain absorbs at capacity.

CSV numbers carry 12 significant digits for regression-diff stability.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from .config import (
    EXPONENTIAL,
    LINEAR,
    TRIANGULAR,
    Scenario,
    load_scenario,
)
from .congestion import FitAnchors, fit_exponential
from .ctmc import (
    OracleError,
    birth_death_chain,
    decomposition_diagnostic,
    exact_stationary,
    simulate,
    tv_distance,
)
from .distributions import (
    MODES,
    PAPER_GRID,
    PUSHFORWARD,
    speed_dist_linear,
    speed_dist_triangular,
    travel_time_dist_linear,
    travel_time_dist_triangular,
)
from .fundamental import SHIFTED, check_array_bytes, check_integer
from .queueing import SingularModelError, check_arrival_rates, measures, solve_birth_death
from .tandem import ConvergenceError, scan_roots, solve_fixed_point, tandem_measures

SPEED = "speed"
TRAVEL_TIME = "travel-time"
FIGURES = ("fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10")

_FIGURE_SWEEP = np.linspace(0.1, 2.0, 40)
# bytes a sweep step holds until its CSV is written, tracemalloc's peak per step
# rounded up: a section's row (400), a tandem's row and results (1150) beside
# the two laws of its fixed point
_SECTION_STEP_BYTES, _TANDEM_STEP_BYTES = 512, 1536
# exit code of each refusal, first match wins: SingularModelError is a ValueError
_EXIT_CODES = {
    SingularModelError: 3,
    ConvergenceError: 3,
    OracleError: 3,
    ValueError: 2,
    OSError: 4,
}


def _fmt(x) -> str:
    return format(float(x), ".12g")


def _csv(header: str, rows) -> str:
    lines = [header]
    for row in rows:
        lines.append(
            ",".join(
                str(cell) if isinstance(cell, int) else _fmt(cell)
                for cell in row
            )
        )
    return "\n".join(lines) + "\n"


def _json(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _scenario(args) -> Scenario:
    """Load the config and fold in command-line overrides."""
    scenario = load_scenario(args.config)
    fields = ("model", "beta", "gamma")
    overrides = {k: v for k, v in vars(args).items() if k in fields and v is not None}
    if overrides:
        scenario = dataclasses.replace(scenario, **overrides)
    return scenario


def _section_head(args, scenario: Scenario) -> dict:
    """The leading keys of every one-section payload."""
    return {
        "lambda": args.lam,
        "section": args.section,
        "model": scenario.model,
        "convention": SHIFTED,
    }


def _cmd_solve_section(args) -> str:
    scenario = _scenario(args)
    rates = scenario.rates(args.section)
    dist = solve_birth_death(args.lam, rates)
    meas = measures(dist, args.lam, rates)
    payload = {
        **_section_head(args, scenario),
        "distribution": dist.probs.tolist(),
        **dataclasses.asdict(meas),
    }
    return _json(payload)


def _cmd_solve_tandem(args) -> str:
    scenario = _scenario(args)
    config = scenario.tandem()
    result = solve_fixed_point(config, args.lam, tol=args.tol)
    meas = tandem_measures(result, args.lam)
    payload = {
        "lambda": args.lam,
        "convention": SHIFTED,
        "theta": result.theta,
        "residual": result.residual,
        "iterations": result.iterations,
        **dataclasses.asdict(meas),
        "marginal": result.marginal.probs.tolist(),
        "downstream": result.downstream.probs.tolist(),
        "tv_vs_exact_2d": decomposition_diagnostic(
            config, args.lam, result.marginal.probs
        ),
        "root_brackets": scan_roots(config, args.lam) if args.scan_roots else None,
    }
    return _json(payload)


def _distribution(
    scenario: Scenario, lam: float, kind: str, mode: str, index: int | None
) -> str:
    """Speed or travel-time law as value,probability CSV.

    A two-section scenario with no section index pushes the tandem
    marginal forward (triangular model only); otherwise section index
    (default 1) uses its own law under the scenario's model.
    """
    if scenario.model == EXPONENTIAL:
        raise ValueError(
            "distributions support the triangular and linear models only"
        )
    if scenario.model == TRIANGULAR and mode == PAPER_GRID:
        raise ValueError("mode 'paper-grid' applies to the linear model only")
    tandem = len(scenario.sections) == 2 and index is None
    if tandem:
        config = scenario.tandem()  # rejects every model but the triangular
    index = 1 if index is None else index
    section = scenario.section(index)
    if scenario.model == LINEAR:
        maker = speed_dist_linear if kind == SPEED else travel_time_dist_linear
        dist = maker(lam, scenario.congestion_model(index), section.L, mode=mode)
    else:
        occupancy = (
            solve_fixed_point(config, lam).marginal
            if tandem
            else solve_birth_death(lam, scenario.rates(index))
        )
        maker = speed_dist_triangular if kind == SPEED else travel_time_dist_triangular
        dist = maker(occupancy, section)
    return _csv("value,probability", zip(dist.support, dist.probs))


def _cmd_distributions(args) -> str:
    return _distribution(_scenario(args), args.lam, args.kind, args.mode, args.section)


def _sweep_grid(args, per_step: int) -> np.ndarray:
    """The sweep's rates from checked ends; refused if steps of per_step bytes pass the cap."""
    steps = check_integer("--steps", args.steps, 2)
    check_arrival_rates([args.lambda_from, args.lambda_to])
    if not args.lambda_from < args.lambda_to:
        raise ValueError("--lambda-from must be below --lambda-to")
    check_array_bytes(f"a sweep of {steps} steps", per_step * steps)
    return np.linspace(args.lambda_from, args.lambda_to, steps)


def _tandem_sweep(config, lams):
    """(lambda, fixed point, section-1 measures) at each rate, from one batched solve."""
    for lam, result in zip(lams, solve_fixed_point(config, lams)):
        yield lam, result, tandem_measures(result, lam)


def _section_sweep(rates, lams):
    """(lambda, stationary law, measures) of one section at each arrival rate."""
    for lam in lams:
        dist = solve_birth_death(lam, rates)
        yield lam, dist, measures(dist, lam, rates)


def _cmd_sweep(args) -> str:
    scenario = _scenario(args)
    tandem = len(scenario.sections) == 2 and args.section is None
    laws = 8 * sum(section.c + 1 for section in scenario.sections)
    grid = _sweep_grid(args, _TANDEM_STEP_BYTES + laws if tandem else _SECTION_STEP_BYTES)
    if tandem:
        config = scenario.tandem()
        solved = list(_tandem_sweep(config, grid))
        # one batched oracle solve for the whole grid
        tvs = decomposition_diagnostic(
            config, grid, [result.marginal.probs for _, result, _ in solved]
        )
        rows = [
            (lam, result.theta, meas.blocking, meas.expected_count,
             meas.expected_travel_time, tv)
            for (lam, result, meas), tv in zip(solved, tvs)
        ]
        header = "lambda,theta,blocking,expected_count,travel_time,tv_vs_exact_2d"
        return _csv(header, rows)
    rates = scenario.rates(1 if args.section is None else args.section)
    rows = [
        (lam, meas.blocking, meas.throughput, meas.expected_count,
         meas.expected_travel_time)
        for lam, _, meas in _section_sweep(rates, grid)
    ]
    return _csv("lambda,blocking,throughput,expected_count,travel_time", rows)


def _cmd_simulate(args) -> str:
    scenario = _scenario(args)
    rates = scenario.rates(args.section)
    result = simulate(args.lam, rates, seed=args.seed, max_events=args.events)
    try:
        analytical = solve_birth_death(args.lam, rates)
        tv = tv_distance(result.empirical, analytical)
    except SingularModelError:
        tv = None  # no stationary law to compare against
    payload = {
        **_section_head(args, scenario),
        "seed": result.seed,
        "events": result.events,
        "algorithm": result.algorithm,
        "elapsed_model_time": result.elapsed_model_time,
        "absorbed": result.absorbed,
        "empirical": result.empirical.probs.tolist(),
        "tv_vs_analytical": tv,
    }
    return _json(payload)


def _cmd_compare(args) -> str:
    scenario = _scenario(args)
    rates = scenario.rates(args.section)
    analytical = solve_birth_death(args.lam, rates)
    exact = exact_stationary(birth_death_chain(args.lam, rates))
    sim = simulate(args.lam, rates, seed=args.seed, max_events=args.events)
    payload = {
        **_section_head(args, scenario),
        "events": sim.events,
        "seed": sim.seed,
        "analytical": analytical.probs.tolist(),
        "exact": exact.tolist(),
        "empirical": sim.empirical.probs.tolist(),
        "tv_analytical_vs_exact": tv_distance(analytical.probs, exact),
        "tv_empirical_vs_analytical": tv_distance(sim.empirical, analytical),
    }
    return _json(payload)


def _cmd_fit_exponential(args) -> str:
    if args.fit_vf is not None:
        v_f = args.fit_vf
    else:
        v_f = load_scenario(args.config).section(1).diagram.v_f
    anchors = FitAnchors(
        a=args.fit_a, v_a=args.fit_va, b=args.fit_b, v_b=args.fit_vb, v_f=v_f
    )
    beta, gamma = fit_exponential(anchors)
    return _json({"beta": beta, "gamma": gamma})


def _cmd_figure_data(args) -> str:
    scenario = _scenario(args)
    figure = args.figure
    if args.kind is not None and figure not in ("fig8", "fig9", "fig10"):
        raise ValueError("--kind applies to fig8, fig9, and fig10 only")
    if args.metric is not None and figure != "fig5":
        raise ValueError("--metric applies to fig5 only")
    if args.section is not None and figure != "fig8":
        raise ValueError("--section applies to fig8 only")
    kind = args.kind or SPEED

    linear = dataclasses.replace(scenario, model=LINEAR)
    if figure == "fig8":
        index = 1 if args.section is None else args.section
        return _distribution(linear, 0.8, kind, PAPER_GRID, index)

    triangular = dataclasses.replace(scenario, model=TRIANGULAR)
    config = triangular.tandem()  # raises on 1-section scenarios
    if figure in ("fig9", "fig10"):
        # tandem-marginal pushforward at the preset arrival rate
        lam = 0.8 if figure == "fig9" else 2.0
        return _distribution(triangular, lam, kind, PUSHFORWARD, None)

    # fig4..fig7 read the tandem and the Jain-Smith sweeps side by side
    lams = (0.5, 1.0, 1.5) if figure == "fig4" else _FIGURE_SWEEP
    pairs = zip(_tandem_sweep(config, lams), _section_sweep(linear.rates(1), lams))
    if figure == "fig4":
        rows = [
            (lam, n, ours.marginal[n], js[n])
            for (lam, ours, _), (_, js, _) in pairs
            for n in range(config.section1.c + 1)
        ]
        return _csv("lambda,n,ours,jain_smith", rows)
    field = {
        "fig5": "blocking" if args.metric == "blocking" else "expected_count",
        "fig6": "expected_travel_time",
        "fig7": "throughput",  # the tandem's throughput is theta
    }[figure]
    rows = [
        (lam, getattr(ours, field), getattr(js, field))
        for (lam, _, ours), (_, _, js) in pairs
    ]
    return _csv("lambda,ours,jain_smith", rows)


# each option is a (flag, keywords) pair passed unchanged to argparse; an
# option that several subcommands share is declared once here
_CONFIG = ("--config", {"help": "scenario JSON path, '-' for stdin (default: bundled scenario)"})
_OUTPUT = ("--output", {"help": "output path (default: stdout)"})
_LAMBDA = ("--lambda", {"dest": "lam", "type": float, "required": True,
                        "help": "arrival rate [veh/s]"})
_MODEL = ("--model", {"choices": (TRIANGULAR, LINEAR, EXPONENTIAL),
                       "help": "override the scenario's service-rate model"})
# --beta and --gamma feed the exponential model, which only these commands solve
_SOLVER = (_MODEL, ("--beta", {"type": float}), ("--gamma", {"type": float}))
_SECTION = ("--section", {"type": int, "default": 1})
_SIMULATION = (
    ("--events", {"type": int, "default": 1_000_000}),
    ("--seed", {"type": int, "default": 42}),
    _SECTION,
)

# (name, handler, help, options) of each subcommand, in --help order; every
# subcommand takes --config and --output ahead of its own options
_COMMANDS = (
    ("solve-section", _cmd_solve_section, "stationary law of one section",
     (_LAMBDA, *_SOLVER, _SECTION)),
    ("solve-tandem", _cmd_solve_tandem, "two-section throughput fixed point", (
        _LAMBDA,
        ("--tol", {"type": float, "default": 1e-10, "help": (
            "dimensionless: stop at |residual| <= tol * min(lambda, max q12)")}),
        ("--scan-roots", {"action": "store_true", "help": (
            "also report every residual sign change on a 1000-point grid")}),
    )),
    ("distributions", _cmd_distributions, "speed / travel-time law as CSV", (
        _LAMBDA, _MODEL,
        ("--kind", {"choices": (SPEED, TRAVEL_TIME), "default": SPEED}),
        ("--mode", {"choices": MODES, "default": PUSHFORWARD}),
        ("--section", {"type": int, "help": (
            "use this section's own law instead of the tandem marginal")}),
    )),
    ("sweep", _cmd_sweep, "arrival-rate sweep as CSV", (
        *_SOLVER,
        ("--lambda-from", {"type": float, "required": True}),
        ("--lambda-to", {"type": float, "required": True}),
        ("--steps", {"type": int, "required": True}),
        ("--section", {"type": int, "help": (
            "sweep this single section instead of the tandem system")}),
    )),
    ("simulate", _cmd_simulate, "seeded Monte Carlo of one section",
     (_LAMBDA, *_SOLVER, *_SIMULATION)),
    ("compare", _cmd_compare, "analytical vs exact vs simulated, with TV distances",
     (_LAMBDA, *_SOLVER, *_SIMULATION)),
    ("fit-exponential", _cmd_fit_exponential, "fit (beta, gamma) from two anchor points", (
        ("--fit-a", {"type": float, "required": True, "help": "first anchor count"}),
        ("--fit-va", {"type": float, "required": True, "help": "speed at a"}),
        ("--fit-b", {"type": float, "required": True, "help": "second anchor count"}),
        ("--fit-vb", {"type": float, "required": True, "help": "speed at b"}),
        ("--fit-vf", {"type": float, "help": (
            "free speed (default: section 1's v_f from the config)")}),
    )),
    ("figure-data", _cmd_figure_data, "canned comparison datasets for plotting", (
        ("--figure", {"choices": FIGURES, "required": True}),
        ("--kind", {"choices": (SPEED, TRAVEL_TIME), "help": (
            "fig8/fig9/fig10: which distribution to emit (default speed)")}),
        ("--metric", {"choices": ("count", "blocking"), "help": (
            "fig5: which panel to emit (default count)")}),
        ("--section", {"type": int, "help": "fig8 only (default 1)"}),
    )),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roadqueue",
        description="Finite-capacity road-traffic queueing models",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, summary, options in _COMMANDS:
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler)
        for flag, keywords in (_CONFIG, _OUTPUT, *options):
            p.add_argument(flag, **keywords)
    return parser


def _emit(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _emit(args.handler(args), args.output)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))
    return 0


if __name__ == "__main__":
    sys.exit(main())
