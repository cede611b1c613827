"""Stationary law and performance measures of a finite-capacity section.

A section holding at most c vehicles with Poisson arrivals (rate lambda,
blocked and lost at capacity) and state-dependent exponential service is
a birth-death chain on {0, .., c} with birth rate lambda and death rate
q_n in state n.  Its stationary law has the product form

    P_n  proportional to  prod_{i=1..n} (lambda / q_i)

computed here by the ratio recursion in log space so that large
capacities cannot overflow, then normalized, in birth_death_laws only.
At lambda = 0 that body gives the limit law, the point mass at n = 0.

Two rate families are provided: the speed-ratio form q_n = n * f(n) *
v_f / L driven by a congestion model, and the flow form q_n built from a
triangular fundamental diagram.  Under the "exact" diagram convention
q_c = 0, which traps the chain at capacity for any positive arrival
rate; solvers reject that as a SingularModelError rather than returning
a law that does not exist.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .congestion import CongestionModel, speed
from .fundamental import SHIFTED, RoadSection, check_positive, service_rates


class SingularModelError(ValueError):
    """The requested stationary law does not exist (a zero service rate)."""


def frozen_probs(probs, normalized: bool = True) -> np.ndarray:
    """A read-only copy of finite, nonnegative probabilities.

    normalized requires the sum to be 1 within 1e-12; NaN fails it.
    """
    probs = np.array(probs, dtype=float)
    if (probs < 0).any():
        raise ValueError("probabilities must be nonnegative")
    total = float(probs.sum())
    # a NaN or infinite term makes the sum NaN or infinite
    if not math.isfinite(total):
        raise ValueError("probabilities must be finite")
    if normalized and not abs(total - 1.0) <= 1e-12:
        raise ValueError(f"probabilities sum to {total!r}, not 1")
    probs.flags.writeable = False
    return probs


@dataclass(frozen=True, eq=False)
class OccupancyDistribution:
    """Probability law of the vehicle count, indexed n = 0..capacity."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        probs = np.asarray(self.probs, dtype=float)
        if probs.ndim != 1 or probs.size < 2:
            raise ValueError("probs must be a 1-D vector of length >= 2")
        object.__setattr__(self, "probs", frozen_probs(probs))

    @property
    def capacity(self) -> int:
        return self.probs.size - 1

    @property
    def blocking(self) -> float:
        """Probability of finding the section full, P_c."""
        return float(self.probs[-1])

    @classmethod
    def point_mass(cls, capacity: int, n: int) -> OccupancyDistribution:
        """The law with all its mass on count n of 0..capacity."""
        probs = np.zeros(capacity + 1)
        probs[n] = 1.0
        return cls(probs)

    def mean(self) -> float:
        """Expected vehicle count."""
        return float(np.arange(self.probs.size) @ self.probs)

    def __getitem__(self, n: int) -> float:
        return float(self.probs[n])


@dataclass(frozen=True)
class PerformanceMeasures:
    """Steady-state summary of a solved section.

    free_flow_fallback marks the zero-throughput case where the travel
    time cannot come from Little's law and is reported as the free-flow
    transit time instead.
    """

    blocking: float
    throughput: float
    expected_count: float
    expected_travel_time: float
    free_flow_fallback: bool = False

    def __post_init__(self) -> None:
        if not 0 <= self.blocking <= 1:
            raise ValueError(f"blocking {self.blocking!r} outside [0, 1]")
        if self.throughput < 0:
            raise ValueError(f"throughput {self.throughput!r} negative")
        if self.expected_count < 0:
            raise ValueError(f"expected_count {self.expected_count!r} negative")
        if not self.expected_travel_time > 0:
            raise ValueError(
                f"expected_travel_time {self.expected_travel_time!r} not positive"
            )


def check_arrival_rate(lam: float) -> None:
    """Reject an arrival rate that is negative or not finite."""
    if not (math.isfinite(lam) and lam >= 0):
        raise ValueError(f"arrival rate must be finite and nonnegative, got {lam!r}")


def check_rates(rates) -> np.ndarray:
    """Service rates as a float array, refused if any is negative or not finite."""
    rates = np.asarray(rates, dtype=float)
    if not ((0 <= rates) & (rates < math.inf)).all():
        raise ValueError("service rates must be finite and nonnegative")
    return rates


def check_rate_count(dist: OccupancyDistribution, rates) -> np.ndarray:
    """Rates as a float array, refused unless one per count 1..capacity."""
    rates = np.asarray(rates, dtype=float)
    if rates.size != dist.capacity:
        raise ValueError(f"got {rates.size} rates for capacity {dist.capacity}")
    return rates


def birth_death_log_weights(lam: float, rates) -> np.ndarray:
    """Log of the unnormalized product-form weights, log P~_n, n = 0..c.

    rates is one vector q_1..q_c, or a 2-D stack of such vectors giving
    one row of weights per row of rates.  Requires strictly positive
    rates when lam > 0; at lam = 0 the weights are their limit, 0 at
    n = 0 and -inf elsewhere, whatever the rates.
    """
    check_arrival_rate(lam)
    rates = check_rates(rates)
    if not 1 <= rates.ndim <= 2 or rates.shape[-1] < 1:
        raise ValueError(f"rates must be nonempty and at most 2-D, got {rates.shape}")
    zero = np.nonzero(rates == 0)[-1]
    if zero.size and lam > 0:
        # state indices are 1-based: rates[..., i] serves state i+1
        raise SingularModelError(
            f"service rate is zero at state n={zero[0] + 1}; the stationary "
            "law does not exist (use the shifted convention)"
        )
    logw = np.zeros(rates.shape[:-1] + (rates.shape[-1] + 1,))
    steps = logw[..., 1:]  # log(lam / q_n), summed in place
    if lam == 0:
        steps.fill(-math.inf)
        return logw
    np.log(rates, out=steps)
    np.subtract(np.log(lam), steps, out=steps)
    np.cumsum(steps, axis=-1, out=steps)
    return logw


def birth_death_laws(lam: float, rates) -> np.ndarray:
    """Product-form laws of birth_death_log_weights, one row per row of rates."""
    # normalized in place: at large capacities the temporaries dominate memory
    laws = birth_death_log_weights(lam, rates)
    laws -= laws.max(axis=-1, keepdims=True)
    np.exp(laws, out=laws)
    laws /= laws.sum(axis=-1, keepdims=True)
    return laws


def solve_birth_death(lam: float, rates) -> OccupancyDistribution:
    """Stationary law of the loss chain with birth lam and deaths q_1..q_c."""
    return OccupancyDistribution(birth_death_laws(lam, rates))


def jain_smith_rates(L: float, model: CongestionModel) -> np.ndarray:
    """Speed-ratio service rates q_n = n * v_n / L for n = 1..c."""
    check_positive(L=L)
    n = np.arange(1, model.c + 1)
    return n * speed(model, n) / L


def solve_jain_smith(
    lam: float, L: float, model: CongestionModel
) -> OccupancyDistribution:
    """Stationary law under a congestion-model service rate."""
    return solve_birth_death(lam, jain_smith_rates(L, model))


def solve_triangular(
    lam: float, section: RoadSection, convention: str = SHIFTED
) -> OccupancyDistribution:
    """Stationary law under the triangular-diagram service rate."""
    return solve_birth_death(lam, service_rates(section, convention))


def littles_law(
    dist: OccupancyDistribution, throughput: float, free_flow_time: float | None
) -> PerformanceMeasures:
    """Measures of a solved law, travel time by Little's law.

    At zero throughput the travel time is reported as free_flow_time and
    flagged, so sweeps stay plottable; None means there is none to report.
    """
    expected_count = dist.mean()
    if throughput > 0:
        travel_time, fallback = expected_count / throughput, False
    elif free_flow_time is None:
        raise SingularModelError(
            "cannot report a free-flow fallback time with q_1 = 0"
        )
    else:
        travel_time, fallback = free_flow_time, True
    return PerformanceMeasures(
        blocking=dist.blocking,
        throughput=throughput,
        expected_count=expected_count,
        expected_travel_time=travel_time,
        free_flow_fallback=fallback,
    )


def measures(
    dist: OccupancyDistribution, lam: float, rates
) -> PerformanceMeasures:
    """Blocking, throughput, mean count, and Little's-law travel time.

    Throughput is the accepted arrival rate lam * (1 - P_c).  When it is
    zero (lam = 0) the travel time is the lone-vehicle transit time 1 / q_1.
    """
    rates = check_rate_count(dist, rates)
    lone_time = 1.0 / rates[0] if rates[0] > 0 else None
    return littles_law(dist, lam * (1.0 - dist.blocking), lone_time)


def throughput_departure(dist: OccupancyDistribution, rates) -> float:
    """Departure-side throughput sum_n q_n * P_n [veh/s].

    Equals lam * (1 - P_c) on any solved law (flow balance).
    """
    rates = check_rate_count(dist, rates)
    return float(rates @ dist.probs[1:])
