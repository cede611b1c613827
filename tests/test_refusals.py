"""One table per input rule: each bad input is refused by one check, with the same
whole message at every site its table names."""

import argparse
import ast
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import roadqueue
from roadqueue import (
    ExponentialCongestionModel,
    FitAnchors,
    LinearCongestionModel,
    OccupancyDistribution,
    PerformanceMeasures,
    RoadSection,
    Scenario,
    SimulationResult,
    TandemConfig,
    TriangularDiagram,
    decomposition_diagnostic,
    measures,
    scan_roots,
    simulate,
    solve_birth_death,
    solve_fixed_point,
    solve_triangular,
    speed_dist_linear,
    speed_dist_triangular,
    tandem_stationary,
    travel_time_dist_linear,
    travel_time_dist_triangular,
)
from roadqueue import cli, ctmc, distributions, fundamental, queueing, tandem
from roadqueue.queueing import jain_smith_rates
from roadqueue.tandem import conditional_matrix

DIAGRAM = TriangularDiagram(v_f=28.0, w=14.0, rho_j=0.18)
SECTION = RoadSection(L=100.0, diagram=DIAGRAM)
TANDEM = TandemConfig(section1=SECTION, section2=SECTION)

# each site of the "finite and positive" check: a call taking one
# overridden keyword, and the names it checks
POSITIVE_SITES = {
    "TriangularDiagram": (
        lambda **kw: TriangularDiagram(**{"v_f": 28.0, "w": 14.0, "rho_j": 0.18, **kw}),
        ("v_f", "w", "rho_j"),
    ),
    "RoadSection": (
        lambda **kw: RoadSection(**{"L": 100.0, "diagram": DIAGRAM, **kw}),
        ("L",),
    ),
    "LinearCongestionModel": (
        lambda **kw: LinearCongestionModel(**{"v_f": 28.0, "c": 18, **kw}),
        ("v_f",),
    ),
    "ExponentialCongestionModel": (
        lambda **kw: ExponentialCongestionModel(
            **{"v_f": 28.0, "beta": 9.5, "gamma": 1.8, "c": 18, **kw}
        ),
        ("v_f", "beta", "gamma"),
    ),
    "FitAnchors": (
        lambda **kw: FitAnchors(
            **{"a": 5.0, "v_a": 20.0, "b": 10.0, "v_b": 10.0, "v_f": 28.0, **kw}
        ),
        ("a", "v_a", "b", "v_b", "v_f"),
    ),
    # an infinite L would give all-zero rates, not a singular model
    "jain_smith_rates": (
        lambda **kw: jain_smith_rates(
            **{"L": 100.0, "model": LinearCongestionModel(v_f=28.0, c=18), **kw}
        ),
        ("L",),
    ),
    "solve_fixed_point": (
        lambda **kw: solve_fixed_point(TANDEM, 0.8, **kw),
        ("tol",),
    ),
}


@pytest.mark.parametrize("value", [0, -1, math.nan, math.inf])
@pytest.mark.parametrize(
    "site, name",
    [(site, name) for site, (_, names) in POSITIVE_SITES.items() for name in names],
)
def test_nonpositive_parameter_is_refused_by_name(site, name, value):
    make, _ = POSITIVE_SITES[site]
    with pytest.raises(ValueError) as info:
        make(**{name: value})
    assert str(info.value) == f"{name} must be finite and positive, got {value!r}"


# each site of the whole-number check: a call taking the value, its name in
# the message, and the least value it accepts; the fixed point keeps its
# default tol, so a budget that is not checked still ends
RATES = np.full(18, 1.5)
INTEGER_SITES = {
    "RoadSection": (lambda v: RoadSection(L=100.0, diagram=DIAGRAM, c=v), "c", 2),
    "LinearCongestionModel": (lambda v: LinearCongestionModel(v_f=28.0, c=v), "c", 1),
    "ExponentialCongestionModel": (
        lambda v: ExponentialCongestionModel(v_f=28.0, beta=9.5, gamma=1.8, c=v),
        "c",
        1,
    ),
    "LinearCongestionModel.speed": (
        lambda v: LinearCongestionModel(v_f=28.0, c=18).speed(v), "n", 1
    ),
    "ExponentialCongestionModel.speed": (
        lambda v: ExponentialCongestionModel(v_f=28.0, beta=9.5, gamma=1.8, c=18).speed(v),
        "n",
        1,
    ),
    "solve_fixed_point": (lambda v: solve_fixed_point(TANDEM, 0.8, max_iter=v), "max_iter", 1),
    "simulate max_events": (
        lambda v: simulate(0.8, RATES, max_events=v), "max_events", 10**4
    ),
    "simulate seed": (lambda v: simulate(0.8, RATES, seed=v, max_events=10**4), "seed", 0),
    "SimulationResult": (
        lambda v: SimulationResult(OccupancyDistribution.point_mass(18, 0), v, 42, 1.0),
        "events",
        1,
    ),
    "Scenario.section": (lambda v: Scenario(sections=(SECTION,)).section(v), "section", 1),
    "OccupancyDistribution.point_mass": (
        lambda v: OccupancyDistribution.point_mass(4, v), "n", 0
    ),
    "sweep --steps": (
        lambda v: cli._sweep_grid(argparse.Namespace(steps=v, lambda_from=0.1, lambda_to=2.0), 1),
        "--steps",
        2,
    ),
}


@pytest.mark.parametrize("bad", ["least - 1", 1.5, math.nan, math.inf, True])
@pytest.mark.parametrize("site", list(INTEGER_SITES))
def test_count_that_is_not_a_whole_number_is_refused(site, bad):
    make, name, least = INTEGER_SITES[site]
    value = least - 1 if bad == "least - 1" else bad
    with pytest.raises(ValueError) as info:
        make(value)
    assert str(info.value) == f"{name} must be a whole number of at least {least}, got {value!r}"


def test_point_mass_past_the_capacity_is_refused():
    # not an IndexError from the array it would fill
    with pytest.raises(ValueError) as info:
        OccupancyDistribution.point_mass(4, 5)
    assert str(info.value) == "n must be at most the capacity 4, got 5"


def test_whole_floats_are_accepted_as_counts():
    assert simulate(0.8, RATES, max_events=2e4).events == 20000
    model = LinearCongestionModel(v_f=28.0, c=18.0)
    assert model.c == 18 and type(model.c) is int
    section = RoadSection(L=100.0, diagram=DIAGRAM, c=18.0)
    assert section.c == 18 and type(section.c) is int


RATE_SITES = {
    "solve_birth_death": lambda rates: solve_birth_death(0.8, rates),
    "simulate": lambda rates: simulate(0.8, rates, max_events=10**4),
    "measures": lambda rates: measures(solve_birth_death(0.8, RATES), 0.8, rates),
    # each law of a vector of lam takes one vector of rates, as the one-lam call does
    "solve_birth_death over lams": lambda rates: solve_birth_death([0.5, 0.8], rates),
}


@pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("site", list(RATE_SITES))
def test_bad_service_rate_is_refused(site, bad):
    rates = np.full(18, 1.5)
    rates[3] = bad
    with pytest.raises(ValueError) as info:
        RATE_SITES[site](rates)
    assert str(info.value) == "service rates must be finite and nonnegative"


@pytest.mark.parametrize(
    "rates, shape", [([], (0,)), (1.5, ()), ([[1.0, 2.0]], (1, 2))], ids=["empty", "0-d", "2-D"]
)
@pytest.mark.parametrize("site", list(RATE_SITES))
def test_rates_that_are_not_one_vector_are_refused(site, rates, shape):
    # each site solves or simulates one law, on one vector q_1..q_c
    with pytest.raises(ValueError) as info:
        RATE_SITES[site](rates)
    assert str(info.value) == f"service rates must be a nonempty 1-D vector, got shape {shape}"


LINEAR = LinearCongestionModel(v_f=28.0, c=18)
# each public entry taking an arrival rate lam: a call on it, and whether it
# also takes a 1-D vector of them
ARRIVAL_SITES = {
    "solve_birth_death": (lambda lam: solve_birth_death(lam, RATES), True),
    "solve_triangular": (lambda lam: solve_triangular(lam, SECTION), True),
    "solve_fixed_point": (lambda lam: solve_fixed_point(TANDEM, lam), True),
    "scan_roots": (lambda lam: scan_roots(TANDEM, lam), False),
    "tandem_stationary": (lambda lam: tandem_stationary(TANDEM, lam), True),
    "conditional_matrix": (lambda lam: conditional_matrix(TANDEM, lam), True),
    "decomposition_diagnostic": (
        lambda lam: decomposition_diagnostic(TANDEM, lam, np.full(19, 1 / 19)), True
    ),
    "measures": (lambda lam: measures(solve_birth_death(0.8, RATES), lam, RATES), False),
    "simulate": (lambda lam: simulate(lam, RATES, max_events=10**4), False),
    "speed_dist_linear": (lambda lam: speed_dist_linear(lam, LINEAR, 100.0), False),
    "travel_time_dist_linear": (
        lambda lam: travel_time_dist_linear(lam, LINEAR, 100.0, mode="paper-grid"), False
    ),
}
VECTOR_SITES = [site for site, (_, vectors) in ARRIVAL_SITES.items() if vectors]

# each site of the size check, just past the real 256 MiB cap (or, for the
# three vectors of lam, at a count whose list of floats alone passes 1 MiB):
# its inputs, built before the peak is traced, the call on them, and what
# the whole refusal says the call needs
CAPACITY_PAST_THE_CAP = "capacity c = 33554432 at one float64 a state needs 268 MB"
SIZE_SITES = {
    "RoadSection": (
        lambda: [2**25 / 0.18], lambda L: RoadSection(L=L, diagram=DIAGRAM), CAPACITY_PAST_THE_CAP
    ),
    "LinearCongestionModel": (
        lambda: [2**25], lambda c: LinearCongestionModel(v_f=28.0, c=c), CAPACITY_PAST_THE_CAP
    ),
    "ExponentialCongestionModel": (
        lambda: [2**25],
        lambda c: ExponentialCongestionModel(v_f=28.0, beta=9.5, gamma=1.8, c=c),
        CAPACITY_PAST_THE_CAP,
    ),
    "TandemConfig": (
        lambda: [RoadSection(L=3342 / 0.18, diagram=DIAGRAM)],
        lambda section: TandemConfig(section, section),
        "the decomposition at 1 rate(s) (c1 = 3342, c2 = 3342) needs 269 MB",
    ),
    "solve_fixed_point": (
        lambda: [np.linspace(0.1, 2.0, 250_000)],
        lambda lams: solve_fixed_point(TANDEM, lams),
        "the decomposition at 250000 rate(s) (c1 = 18, c2 = 18) needs 332 MB",
    ),
    "solve_birth_death": (
        lambda: [np.linspace(0.1, 2.0, 800_000)],
        lambda lams: solve_birth_death(lams, RATES),
        "the product form at 800000 arrival rates needs 275 MB",
    ),
    "solve_birth_death at c = 10**4": (
        lambda: [np.linspace(0.1, 2.0, 10**6), np.ones(10**4)],
        solve_birth_death,
        "the product form at 1000000 arrival rates needs 160056 MB",
    ),
    "conditional_matrix": (
        lambda: [np.linspace(0.1, 2.0, 87_113)],
        lambda lams: conditional_matrix(TANDEM, lams),
        "the product form at 87113 arrival rates needs 268 MB",
    ),
    "tandem_stationary": (
        lambda: [RoadSection(L=318 / 0.18, diagram=DIAGRAM)],
        lambda section: tandem_stationary(TandemConfig(section, section), 0.8),
        "the joint chain's level reduction (c1 = 318, c2 = 318) beside 1 law(s) needs 270 MB",
    ),
    # every law is kept, so 100000 of them pass the cap at c = 18
    "tandem_stationary over 100000 rates": (
        lambda: [np.linspace(0.1, 2.0, 100_000)],
        lambda lams: tandem_stationary(TANDEM, lams),
        "the joint chain's level reduction (c1 = 18, c2 = 18) beside 100000 law(s) needs 289 MB",
    ),
    "decomposition_diagnostic": (
        lambda: [RoadSection(L=318 / 0.18, diagram=DIAGRAM), np.full(319, 1 / 319)],
        lambda section, marginal: decomposition_diagnostic(
            TandemConfig(section, section), 0.8, marginal
        ),
        "the joint chain's level reduction (c1 = 318, c2 = 318) needs 270 MB",
    ),
    "sweep --steps": (
        lambda: [argparse.Namespace(steps=2**19 + 1, lambda_from=0.1, lambda_to=2.0)],
        lambda args: cli._sweep_grid(args, cli._SECTION_STEP_BYTES),
        "a sweep of 524289 steps needs 268 MB",
    ),
    "speed_dist_linear paper-grid": (
        lambda: [LinearCongestionModel(v_f=2.0**20 + 1, c=18)],
        lambda model: speed_dist_linear(0.8, model, 100.0, mode="paper-grid"),
        "the paper-grid speed grid of 1.049e+06 cells needs 268 MB",
    ),
    "travel_time_dist_linear paper-grid": (
        lambda: [1087412.0],
        lambda L: travel_time_dist_linear(0.8, LINEAR, L, mode="paper-grid"),
        "the paper-grid time grid of 1.049e+06 cells needs 268 MB",
    ),
}


@pytest.mark.parametrize("site", list(SIZE_SITES))
def test_past_the_cap_is_refused_before_allocating(site, traced_peak):
    # a ValueError, as for any input, asked before anything the size of the
    # cap exists: not an OracleError, and not after a Python float per rate
    build, call, needs = SIZE_SITES[site]
    inputs = build()
    refused, peak = traced_peak(lambda: call(*inputs))
    assert isinstance(refused, ValueError)
    assert str(refused) == f"{needs}, above the 256 MiB cap"
    assert peak < 2**20


def test_every_size_check_has_a_row(monkeypatch):
    # each call of check_array_bytes in src/, named by its file and function,
    # is reached by some row of SIZE_SITES
    calls = {
        (path.name, function.name)
        for path in Path(roadqueue.__file__).parent.glob("*.py")
        for function in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "check_array_bytes"
    }
    reached, check = set(), fundamental.check_array_bytes

    def spy(*args):
        caller = sys._getframe(1).f_code
        reached.add((Path(caller.co_filename).name, caller.co_name))
        return check(*args)

    for module in (fundamental, queueing, tandem, ctmc, cli, distributions):
        monkeypatch.setattr(module, "check_array_bytes", spy)
    for build, call, _ in SIZE_SITES.values():
        with pytest.raises(ValueError):
            call(*build())
    assert len(calls) == 6 and calls == reached
ONE_RATE_SITES = [site for site, (_, vectors) in ARRIVAL_SITES.items() if not vectors]


@pytest.mark.parametrize("bad", [-1, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("site", list(ARRIVAL_SITES))
def test_bad_arrival_rate_is_refused(site, bad):
    # not read as a NaN throughput, a negative one or a zero travel time;
    # simulate also refuses lam = 0, which has no events to draw
    rule = "positive" if site == "simulate" else "nonnegative"
    with pytest.raises(ValueError) as info:
        ARRIVAL_SITES[site][0](bad)
    assert str(info.value) == f"arrival rate must be finite and {rule}, got {float(bad)!r}"


@pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
@pytest.mark.parametrize("site", VECTOR_SITES)
def test_one_bad_rate_refuses_a_vector_as_alone(site, bad):
    with pytest.raises(ValueError) as info:
        ARRIVAL_SITES[site][0]([0.5, bad, 0.8])
    assert str(info.value) == f"arrival rate must be finite and nonnegative, got {bad!r}"


@pytest.mark.parametrize("site", VECTOR_SITES)
def test_rates_past_one_axis_are_refused(site):
    with pytest.raises(ValueError) as info:
        ARRIVAL_SITES[site][0](np.full((2, 2), 0.8))
    assert str(info.value) == "lam must be a scalar or a 1-D vector, got shape (2, 2)"


def test_simulate_checks_the_arrival_rate_first():
    with pytest.raises(ValueError) as info:
        simulate(0.0, [-1.0, 1.0])
    assert str(info.value) == "arrival rate must be finite and positive, got 0.0"


@pytest.mark.parametrize(
    "lam, shape", [([0.5, 0.6], (2,)), (np.array([0.5, 0.6]), (2,)), ([[0.5, 0.6]], (1, 2))]
)
@pytest.mark.parametrize("site", ONE_RATE_SITES)
def test_one_rate_solver_refuses_a_vector_of_rates(site, lam, shape):
    # by its name, not by numpy's ambiguous truth value of an array
    with pytest.raises(ValueError) as info:
        ARRIVAL_SITES[site][0](lam)
    assert str(info.value) == f"{site} takes one arrival rate, got shape {shape}"


@pytest.mark.parametrize("field", ["throughput", "expected_count"])
@pytest.mark.parametrize("value", [-1.0, math.nan])
def test_performance_measures_refuse_a_negative_or_nan_figure(field, value):
    figures = {"blocking": 0.1, "throughput": 0.7, "expected_count": 3.0}
    with pytest.raises(ValueError) as info:
        PerformanceMeasures(**{**figures, field: value}, expected_travel_time=4.0)
    assert str(info.value) == f"{field} {value!r} not nonnegative"


@pytest.mark.parametrize("value", [-0.1, 1.5, math.nan])
def test_performance_measures_refuse_a_blocking_outside_0_1(value):
    with pytest.raises(ValueError) as info:
        PerformanceMeasures(value, 0.7, 3.0, expected_travel_time=4.0)
    assert str(info.value) == f"blocking {value!r} outside [0, 1]"


@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
def test_performance_measures_refuse_a_travel_time_not_finite_and_positive(value):
    # an infinite one is a lone transit time 1 / q_1 at q_1 = 0 or below 1 / DBL_MAX
    with pytest.raises(ValueError) as info:
        PerformanceMeasures(0.1, 0.7, 3.0, expected_travel_time=value)
    assert str(info.value) == f"expected_travel_time {value!r} not finite and positive"


COUNT_SITES = {
    "measures": lambda dist, rates: measures(dist, 0.8, rates),
    "speed_dist_triangular": lambda dist, rates: speed_dist_triangular(dist, SECTION),
    "travel_time_dist_triangular": lambda dist, rates: travel_time_dist_triangular(dist, SECTION),
}


@pytest.mark.parametrize("site", list(COUNT_SITES))
def test_rate_count_must_match_the_capacity(site):
    # SECTION has c = 18, so its pushforward reads 18 rates
    dist = OccupancyDistribution.point_mass(17, 0)
    with pytest.raises(ValueError) as info:
        COUNT_SITES[site](dist, np.ones(18))
    assert str(info.value) == "got 18 rates for capacity 17"
