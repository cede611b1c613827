"""Two sections in tandem: upstream service limited by downstream supply.

Vehicles leave section 1 at the coupled rate

    q12(n1, n2) = min(v_f1 * n1 / L1, q1_max, q2_max, supply2(n2))

so a filling downstream section throttles the upstream one.  The joint
chain is approximated by a decomposition: section 2 is solved alone at
its arrival rate theta (the upstream outflow), section 1 is solved
conditionally on each frozen downstream count n2, and the two couple
through the marginal mixture

    P1(n1) = sum_n2  P(n1 | n2) * P2(n2; theta).

coupled_rates builds every q12 at once as a (c2 + 1) x c1 numpy array
from fundamental.supply_term, and conditional_matrix turns that table
into all the conditionals P(. | n2) with one log-space cumulative sum.

theta itself satisfies the throughput fixed point

    theta = lam * (1 - P1_c1(lam, theta))

solved here by ITP (interpolate, truncate, project) on [0, lam], where
the right-hand side minus theta is continuous with opposite signs at the
ends.  The root is unique: q12 does not increase in n2, so P(c1 | n2)
does not decrease in n2; section 2's law grows stochastically with
theta; so P1_c1 does not decrease in theta, and the residual
theta - lam * (1 - P1_c1) has slope at least 1.  scan_roots checks this
on a grid, where a grid value of exactly 0 can still give two brackets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fundamental import SHIFTED, RoadSection, check_convention, check_positive, supply_term
from .queueing import (
    OccupancyDistribution,
    PerformanceMeasures,
    birth_death_laws,
    check_arrival_rate,
    littles_law,
    solve_triangular,
)

_SCAN_POINTS = 1000  # grid size of scan_roots
_ITP_KAPPA1 = 0.2  # ITP truncation kappa1 * lam, with kappa2 = 2
_ITP_N0 = 1  # ITP steps allowed past bisection's worst case


class ConvergenceError(RuntimeError):
    """Fixed-point iteration exhausted its budget before reaching tolerance."""

    def __init__(self, message: str, bracket: tuple[float, float]):
        super().__init__(message)
        self.bracket = bracket


@dataclass(frozen=True)
class TandemConfig:
    """Upstream and downstream sections under a shared rate convention."""

    section1: RoadSection
    section2: RoadSection
    convention: str = SHIFTED

    def __post_init__(self) -> None:
        check_convention(self.convention)


@dataclass(frozen=True, eq=False)
class FixedPointResult:
    """Converged throughput fixed point with both section laws at theta."""

    theta: float
    residual: float
    iterations: int
    marginal: OccupancyDistribution
    downstream: OccupancyDistribution
    config: TandemConfig


def coupled_rates(config: TandemConfig) -> np.ndarray:
    """Transfer rates q12(n1, n2) [veh/s], shape (c2 + 1, c1).

    Row n2 holds q12(1..c1, n2); column n1 - 1 holds q12(n1, 0..c2).
    """
    s1, s2 = config.section1, config.section2
    n1 = np.arange(1, s1.c + 1)
    n2 = np.arange(s2.c + 1)[:, np.newaxis]
    free = np.minimum(
        s1.diagram.v_f * n1 / s1.L, min(s1.diagram.q_max, s2.diagram.q_max)
    )
    return np.minimum(free, supply_term(s2, n2, config.convention) / s2.L)


def downstream_distribution(
    config: TandemConfig, theta: float
) -> OccupancyDistribution:
    """Section-2 occupancy law when fed at rate theta."""
    return solve_triangular(theta, config.section2, config.convention)


def conditional_matrix(config: TandemConfig, lam: float) -> np.ndarray:
    """Section-1 laws given each frozen downstream count, shape (c2 + 1, c1 + 1).

    Row n2 is the birth-death law with births lam and deaths
    q12(1..c1, n2).  With zero supply (exact convention, n2 = c2) and
    lam > 0 every arrival is trapped, so that row is the point mass at
    c1, the limit of the law, rather than an error.  The conditionals do
    not depend on theta, so a fixed-point solve computes this once and
    reuses it across residual evaluations.
    """
    c1 = config.section1.c
    rates = coupled_rates(config)
    trapped = ~rates.any(axis=1) & (lam > 0)
    rates[trapped] = 1.0  # any positive rates: these rows are replaced below
    matrix = birth_death_laws(lam, rates)
    matrix[trapped] = OccupancyDistribution.point_mass(c1, c1).probs
    return matrix


def solve_fixed_point(
    config: TandemConfig,
    lam: float,
    tol: float = 1e-10,
    max_iter: int = 200,
) -> FixedPointResult:
    """Solve theta = lam * (1 - P1_c1(lam, theta)) by ITP on [0, lam].

    ITP (Oliveira & Takahashi 2020, ACM TOMS 47(1)) moves the
    regula-falsi point toward the midpoint by _ITP_KAPPA1 * width**2 / lam
    and projects it into a radius that halves each step, so it keeps
    bisection's bracket and worst case and, on this residual of slope at
    least 1, converges superlinearly.  Stops when
    |theta - lam * (1 - P1_c1)| <= tol.  tol is absolute: past lam of
    about 1e7 the rounding of lam * (1 - P1_c1) exceeds the default, and
    the solve raises ConvergenceError.  Deterministic: the same inputs
    always evaluate the same sequence.
    """
    check_arrival_rate(lam)
    check_positive(tol=tol)
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter!r}")
    if lam == 0:
        return FixedPointResult(
            theta=0.0,
            residual=0.0,
            iterations=0,
            marginal=OccupancyDistribution.point_mass(config.section1.c, 0),
            downstream=downstream_distribution(config, 0.0),
            config=config,
        )

    matrix = conditional_matrix(config, lam)

    def residual_at(theta: float):
        down = downstream_distribution(config, theta)
        marginal = down.probs @ matrix
        return float(theta - lam * (1.0 - marginal[-1])), marginal, down

    h_lo, _, _ = residual_at(0.0)
    h_hi, _, _ = residual_at(lam)
    # blocking in [0, 1] forces h(0) <= 0 <= h(lam); anything else is a bug
    if h_lo > 0 or h_hi < 0:
        raise AssertionError(
            f"fixed-point bracket lost: h(0)={h_lo!r}, h(lam)={h_hi!r}"
        )
    # n_max = ceil(log2(lam / (2 eps))) + n0 with eps = tol / 2, from the
    # exponents so that lam / tol cannot overflow; from the second step
    # on eps * 2**(n_max - j) < lam, so it is finite
    (m_lam, e_lam), (m_tol, e_tol) = math.frexp(lam), math.frexp(tol)
    n_max = e_lam - e_tol + (m_lam > m_tol) + _ITP_N0
    lo, hi = 0.0, lam
    for j in range(max_iter):
        width = hi - lo
        mid = lo + 0.5 * width
        # regula falsi, as a fraction of the bracket so no product
        # overflows; a residual of exactly 0 at an end (h(0) from lam of
        # about 1e16 on) would keep it at that end, so bisect instead
        x_f = lo + width * (h_lo / (h_lo - h_hi)) if h_lo < 0 < h_hi else mid
        delta = _ITP_KAPPA1 * width * (width / lam)  # kappa2 = 2
        sigma = math.copysign(1.0, mid - x_f)
        x_t = x_f + sigma * delta if delta <= abs(mid - x_f) else mid
        if j == 0:
            # eps * 2**n_max >= lam, so nothing is projected; near the
            # largest float it would overflow
            radius = width
        elif j <= n_max:
            radius = max(math.ldexp(0.5 * tol, n_max - j) - 0.5 * width, 0.0)
        else:
            radius = 0.0
        theta = x_t if abs(x_t - mid) <= radius else mid - sigma * radius
        h, marginal, down = residual_at(theta)
        if abs(h) <= tol:
            return FixedPointResult(
                theta=theta,
                residual=abs(h),
                iterations=j + 1,
                marginal=OccupancyDistribution(marginal),
                downstream=down,
                config=config,
            )
        if h > 0:
            hi, h_hi = theta, h
        else:
            lo, h_lo = theta, h
    raise ConvergenceError(
        f"no theta with residual <= {tol} after {max_iter} residual "
        f"evaluations; best bracket [{lo}, {hi}]",
        bracket=(lo, hi),
    )


def scan_roots(config: TandemConfig, lam: float) -> list[tuple[float, float]]:
    """Brackets of every sign change of the fixed-point residual.

    Evaluates theta -> theta - lam * (1 - P1_c1) on a _SCAN_POINTS grid
    over [0, lam] and returns the bracketing intervals, surfacing any root
    multiplicity the fixed-point solve would silently pick one root from.
    A negative or non-finite lam raises ValueError, as in solve_fixed_point.
    """
    check_arrival_rate(lam)
    if lam == 0:
        return []
    matrix = conditional_matrix(config, lam)
    grid = np.linspace(0.0, lam, _SCAN_POINTS)
    values = []
    for theta in grid:
        weights = downstream_distribution(config, theta).probs
        values.append(theta - lam * (1.0 - float(weights @ matrix[:, -1])))
    brackets = []
    for i in range(_SCAN_POINTS - 1):
        if values[i] == 0.0 or (values[i] < 0) != (values[i + 1] < 0):
            brackets.append((float(grid[i]), float(grid[i + 1])))
    return brackets


def tandem_measures(result: FixedPointResult, lam: float) -> PerformanceMeasures:
    """Performance of section 1 at the converged fixed point.

    Travel time is Little's law on the marginal count over theta; at
    theta = 0 it falls back, flagged, to section 1's free-flow time.
    """
    return littles_law(
        result.marginal, result.theta, result.config.section1.free_flow_time
    )
