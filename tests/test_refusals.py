"""Each bad input is refused by one check, with the same message at every site."""

import argparse
import math

import numpy as np
import pytest

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
    birth_death_chain,
    measures,
    scan_roots,
    simulate,
    solve_birth_death,
    solve_fixed_point,
    speed_dist_triangular,
)
from roadqueue import cli
from roadqueue.queueing import jain_smith_rates

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
        lambda v: cli._sweep_grid(argparse.Namespace(steps=v, lambda_from=0.1, lambda_to=2.0)),
        "--steps",
        2,
    ),
}


@pytest.mark.parametrize("bad", ["least - 1", 1.5, math.nan, True])
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
    "birth_death_chain": lambda rates: birth_death_chain(0.8, rates),
    "simulate": lambda rates: simulate(0.8, rates, max_events=10**4),
    "measures": lambda rates: measures(solve_birth_death(0.8, RATES), 0.8, rates),
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


def test_simulate_checks_the_arrival_rate_first():
    with pytest.raises(ValueError, match="arrival rate must be finite and positive"):
        simulate(0.0, [-1.0, 1.0])


# each solver of one arrival rate, refusing a vector of them by its name
ONE_RATE_SITES = {
    "scan_roots": lambda lam: scan_roots(TANDEM, lam),
    "birth_death_chain": lambda lam: birth_death_chain(lam, [1.0, 2.0]),
    "simulate": lambda lam: simulate(lam, [1.0, 2.0], max_events=10**4),
    "measures": lambda lam: measures(solve_birth_death(0.8, RATES), lam, RATES),
}


@pytest.mark.parametrize("lam", [[0.5, 0.6], np.array([0.5, 0.6])])
@pytest.mark.parametrize("site", list(ONE_RATE_SITES))
def test_one_rate_solver_refuses_a_vector_of_rates(site, lam):
    with pytest.raises(ValueError) as info:
        ONE_RATE_SITES[site](lam)
    assert str(info.value) == f"{site} takes one arrival rate, got shape (2,)"


@pytest.mark.parametrize("lam", [-1, math.nan, math.inf])
def test_measures_refuses_a_bad_arrival_rate(lam):
    # not read as a NaN throughput, a negative one or a zero travel time
    with pytest.raises(ValueError) as info:
        measures(solve_birth_death(0.8, RATES), lam, RATES)
    assert str(info.value) == f"arrival rate must be finite and nonnegative, got {float(lam)!r}"


@pytest.mark.parametrize("field", ["throughput", "expected_count"])
@pytest.mark.parametrize("value", [-1.0, math.nan])
def test_performance_measures_refuse_a_negative_or_nan_figure(field, value):
    figures = {"blocking": 0.1, "throughput": 0.7, "expected_count": 3.0}
    with pytest.raises(ValueError) as info:
        PerformanceMeasures(**{**figures, field: value}, expected_travel_time=4.0)
    assert str(info.value) == f"{field} {value!r} not nonnegative"


@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
def test_performance_measures_refuse_a_travel_time_not_finite_and_positive(value):
    # an infinite one is a lone transit time 1 / q_1 past the float range
    with pytest.raises(ValueError) as info:
        PerformanceMeasures(0.1, 0.7, 3.0, expected_travel_time=value)
    assert str(info.value) == f"expected_travel_time {value!r} not finite and positive"


COUNT_SITES = {
    "measures": lambda dist, rates: measures(dist, 0.8, rates),
    "speed_dist_triangular": lambda dist, rates: speed_dist_triangular(dist, SECTION),
}


@pytest.mark.parametrize("site", list(COUNT_SITES))
def test_rate_count_must_match_the_capacity(site):
    # SECTION has c = 18, so its pushforward reads 18 rates
    dist = OccupancyDistribution.point_mass(17, 0)
    with pytest.raises(ValueError) as info:
        COUNT_SITES[site](dist, np.ones(18))
    assert str(info.value) == "got 18 rates for capacity 17"
