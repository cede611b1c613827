"""Analytical and simulation toolkit for finite-capacity road-traffic queues.

A road section is modeled as a loss queue whose service rate depends on
the vehicle count, either through a triangular fundamental diagram or
through classical speed-density congestion laws.  The package solves
single sections, couples two sections through a downstream-supply
constraint with a throughput fixed point, pushes occupancy laws forward
to speed and travel-time distributions, and verifies everything against
exact Markov-chain solves and seeded Monte Carlo simulation.
"""

from .config import Scenario, default_scenario, load_scenario
from .congestion import (
    ExponentialCongestionModel,
    FitAnchors,
    LinearCongestionModel,
    fit_exponential,
)
from .ctmc import (
    OracleError,
    SimulationResult,
    decomposition_diagnostic,
    simulate,
    tandem_stationary,
    tv_distance,
)
from .distributions import (
    DiscreteDistribution,
    speed_dist_linear,
    speed_dist_triangular,
    travel_time_dist_linear,
    travel_time_dist_triangular,
)
from .fundamental import RoadSection, TriangularDiagram, service_rates
from .queueing import (
    OccupancyDistribution,
    PerformanceMeasures,
    SingularModelError,
    measures,
    solve_birth_death,
    solve_triangular,
)
from .tandem import (
    ConvergenceError,
    FixedPointResult,
    TandemConfig,
    coupled_rates,
    scan_roots,
    solve_fixed_point,
    tandem_measures,
)

__version__ = "0.1.0"
