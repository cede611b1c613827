"""The names the roadqueue package offers, pinned once."""

import types

import roadqueue

# every public name of the package that is not a submodule
SURFACE = {
    "ConvergenceError",
    "DiscreteDistribution",
    "ExponentialCongestionModel",
    "FitAnchors",
    "FixedPointResult",
    "LinearCongestionModel",
    "OccupancyDistribution",
    "OracleError",
    "PerformanceMeasures",
    "RoadSection",
    "Scenario",
    "SimulationResult",
    "SingularModelError",
    "TandemConfig",
    "TriangularDiagram",
    "coupled_rates",
    "decomposition_diagnostic",
    "default_scenario",
    "fit_exponential",
    "load_scenario",
    "measures",
    "scan_roots",
    "service_rates",
    "simulate",
    "solve_birth_death",
    "solve_fixed_point",
    "solve_triangular",
    "speed_dist_linear",
    "speed_dist_triangular",
    "tandem_measures",
    "tandem_stationary",
    "travel_time_dist_linear",
    "travel_time_dist_triangular",
    "tv_distance",
}


def test_the_package_offers_exactly_its_surface():
    public = {
        name
        for name, value in vars(roadqueue).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(SURFACE) == 34 and public == SURFACE
    assert roadqueue.__version__ == "0.1.0"
