"""Each bad input is refused by one check, with the same message at every site."""

import math

import numpy as np
import pytest

from roadqueue import (
    ExponentialCongestionModel,
    FitAnchors,
    LinearCongestionModel,
    OccupancyDistribution,
    RoadSection,
    TandemConfig,
    TriangularDiagram,
    birth_death_chain,
    measures,
    simulate,
    solve_birth_death,
    solve_fixed_point,
    speed_dist_triangular,
    throughput_departure,
)
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


RATE_SITES = {
    "solve_birth_death": lambda rates: solve_birth_death(0.8, rates),
    "birth_death_chain": lambda rates: birth_death_chain(0.8, rates),
    "simulate": lambda rates: simulate(0.8, rates, max_events=10**4),
}


@pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
@pytest.mark.parametrize("site", list(RATE_SITES))
def test_bad_service_rate_is_refused(site, bad):
    rates = np.full(18, 1.5)
    rates[3] = bad
    with pytest.raises(ValueError) as info:
        RATE_SITES[site](rates)
    assert str(info.value) == "service rates must be finite and nonnegative"


def test_simulate_checks_the_arrival_rate_first():
    with pytest.raises(ValueError, match="arrival rate must be finite and positive"):
        simulate(0.0, [-1.0, 1.0])


COUNT_SITES = {
    "measures": lambda dist, rates: measures(dist, 0.8, rates),
    "throughput_departure": throughput_departure,
    "speed_dist_triangular": lambda dist, rates: speed_dist_triangular(dist, SECTION),
}


@pytest.mark.parametrize("site", list(COUNT_SITES))
def test_rate_count_must_match_the_capacity(site):
    # SECTION has c = 18, so its pushforward reads 18 rates
    dist = OccupancyDistribution.point_mass(17, 0)
    with pytest.raises(ValueError) as info:
        COUNT_SITES[site](dist, np.ones(18))
    assert str(info.value) == "got 18 rates for capacity 17"
