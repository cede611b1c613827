"""Stationary law and performance measures of a finite-capacity section.

A section holding at most c vehicles with Poisson arrivals (rate lambda,
blocked and lost at capacity) and state-dependent exponential service is
a birth-death chain on {0, .., c} with birth rate lambda and death rate
q_n in state n.  Its stationary law has the product form

    P_n  proportional to  prod_{i=1..n} (lambda / q_i)

computed here by the ratio recursion in log space so that large
capacities cannot overflow, then normalized, in birth_death_laws only.
At lambda = 0 that body gives the limit law, the point mass at n = 0.
The same body takes a 1-D vector of births, on a new first axis, so one
call gives every law of a sweep over lambda (or over a tandem's feed
rate theta), each with the bits of its own scalar call.

Two rate families are provided: the speed-ratio form q_n = n * f(n) *
v_f / L driven by a congestion model, and the flow form q_n built from a
triangular fundamental diagram.  A zero rate q_n, from a speed law that
reaches 0, keeps the chain from leaving {n, .., c} once there for any
positive arrival rate; solvers reject that as a SingularModelError
rather than returning a product form that does not exist.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .congestion import CongestionModel
from .fundamental import RoadSection, check_array_bytes, check_integer, check_positive, service_rates


class SingularModelError(ValueError):
    """The requested stationary law does not exist: raised by birth_death_log_weights
    for a zero rate under a positive arrival rate, and by the config loader for
    the "exact" convention, whose chain absorbs at capacity."""


def frozen_probs(probs, normalized: bool = True) -> np.ndarray:
    """A read-only copy of finite, nonnegative probabilities.

    probs is one law or a stack of laws along its last axis, one per row;
    normalized requires each law to sum to 1 within 1e-12; NaN fails it.
    """
    probs = np.array(probs, dtype=float, ndmin=1)
    if probs.min(initial=0.0) < 0:
        raise ValueError("probabilities must be nonnegative")
    for total in probs.sum(axis=-1, keepdims=True).ravel().tolist():
        # a NaN or infinite term makes its law's sum NaN or infinite
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
        probs = frozen_probs(self.probs)
        if probs.ndim != 1 or probs.size < 2:
            raise ValueError("probs must be a 1-D vector of length >= 2")
        object.__setattr__(self, "probs", probs)

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
        capacity = check_integer("capacity", capacity, 1)
        n = check_integer("n", n, 0)
        if n > capacity:
            raise ValueError(f"n must be at most the capacity {capacity!r}, got {n!r}")
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

    free_flow_fallback marks a zero or subnormal throughput or mean
    count, where the travel time cannot come from Little's law and is
    reported as the free-flow transit time instead.  A travel time that is
    not finite, such as 1 / q_1 at a q_1 of 0 or below 1 / DBL_MAX, is refused.
    """

    blocking: float
    throughput: float
    expected_count: float
    expected_travel_time: float
    free_flow_fallback: bool = False

    def __post_init__(self) -> None:
        if not 0 <= self.blocking <= 1:
            raise ValueError(f"blocking {self.blocking!r} outside [0, 1]")
        if not self.throughput >= 0:
            raise ValueError(f"throughput {self.throughput!r} not nonnegative")
        if not self.expected_count >= 0:
            raise ValueError(f"expected_count {self.expected_count!r} not nonnegative")
        if not 0 < self.expected_travel_time < math.inf:
            raise ValueError(
                f"expected_travel_time {self.expected_travel_time!r} not finite and positive"
            )


def check_arrival_rates(lam) -> tuple[np.ndarray, list[float]]:
    """lam, one rate or a 1-D vector, as a float array and a list, each rate checked."""
    lams = np.asarray(lam, dtype=float)
    if lams.ndim > 1:
        raise ValueError(f"lam must be a scalar or a 1-D vector, got shape {lams.shape}")
    values = lams.tolist() if lams.ndim else [lams.item()]
    for value in values:
        if not (math.isfinite(value) and value >= 0):
            raise ValueError(f"arrival rate must be finite and nonnegative, got {value!r}")
    return lams, values


def check_arrival_rate(site: str, lam) -> float:
    """lam as one checked rate; a vector of them is refused by the name of site."""
    if np.ndim(lam):
        raise ValueError(f"{site} takes one arrival rate, got shape {np.shape(lam)}")
    return check_arrival_rates(lam)[1][0]


def check_rates(rates) -> np.ndarray:
    """Service rates q_1..q_c as a float array: one nonempty vector, finite and nonnegative."""
    rates = np.asarray(rates, dtype=float)
    if rates.ndim != 1 or not rates.size:
        raise ValueError(f"service rates must be a nonempty 1-D vector, got shape {rates.shape}")
    if not ((0 <= rates) & (rates < math.inf)).all():
        raise ValueError("service rates must be finite and nonnegative")
    return rates


def check_rate_count(dist: OccupancyDistribution, rates) -> np.ndarray:
    """Rates checked by check_rates, refused unless one per count 1..capacity."""
    rates = check_rates(rates)
    if rates.size != dist.capacity:
        raise ValueError(f"got {rates.size} rates for capacity {dist.capacity}")
    return rates


def birth_death_log_weights(lam, rates) -> np.ndarray:
    """Log of the unnormalized product-form weights, log P~_n, n = 0..c.

    rates is one vector q_1..q_c, or a 2-D stack of such vectors giving
    one row of weights per row of rates.  lam is one birth rate, or a 1-D
    vector of m of them giving a stack of shape (m,) + the one above, each
    with the bits of its scalar call, refused with ValueError from its
    shape, before a rate is read, if its laws would pass the 256 MiB cap.
    Requires strictly positive rates when any lam > 0; at lam = 0 the
    weights are their limit, 0 at n = 0 and -inf elsewhere, whatever the rates.
    """
    births, rates = np.asarray(lam, dtype=float), np.asarray(rates, dtype=float)
    check_rates(rates.reshape(-1) if rates.ndim == 2 else rates)  # a stack, as one vector
    states = rates.shape[-1] + 1
    if births.ndim:
        # a birth's bytes at a vector solve's tracemalloc peak: its rows of
        # weights, one law's read-only copy and that law's sum, beside 128 kB
        # of ufunc buffers; never more than tandem._rates_that_fit counts
        per_birth = 8 * (rates.size // (states - 1) + 1) * states + 40
        what = f"the product form at {births.size} arrival rates"
        check_array_bytes(what, per_birth, 2**17 + per_birth * (births.size - 1))
    births, values = check_arrival_rates(births)
    if any(values) and not rates.all():
        # state indices are 1-based: rates[..., i] serves state i+1
        state = np.nonzero(rates == 0)[-1][0] + 1
        raise SingularModelError(
            f"service rate is zero at state n={state}, where the speed law "
            "reaches 0; the stationary law does not exist"
        )
    idle = 0.0 in values
    # log(1) stands in for log(0) on idle rows, which take their limit below,
    # and for a zero rate, which only an all-idle call reaches
    logs = np.log(np.where(births == 0, 1.0, births) if idle else births)
    if births.ndim:  # one column per birth; a scalar broadcasts faster as is
        logs = logs.reshape(logs.shape + (1,) * rates.ndim)
    logw = np.zeros(births.shape + rates.shape[:-1] + (states,))
    steps = logw[..., 1:]  # log(lam / q_n), summed in place
    np.log(np.where(rates == 0, 1.0, rates) if idle else rates, out=steps)
    np.subtract(logs, steps, out=steps)
    # np.cumsum's Python wrapper costs more than the sum on short rows
    np.add.accumulate(steps, axis=-1, out=steps)
    if idle:
        steps[births == 0] = -math.inf
    return logw


def birth_death_laws(lam, rates) -> np.ndarray:
    """Product-form laws of birth_death_log_weights, one per row of weights."""
    # normalized in place: at large capacities the temporaries dominate memory
    laws = birth_death_log_weights(lam, rates)
    laws -= laws.max(axis=-1, keepdims=True)
    np.exp(laws, out=laws)
    laws /= laws.sum(axis=-1, keepdims=True)
    return laws


def solve_birth_death(lam, rates):
    """Stationary law of the loss chain with birth lam and deaths q_1..q_c.

    A 1-D vector of births gives the checked, read-only stack of their laws.
    """
    if np.ndim(rates) != 1:  # a stack of rates: refused, as each law takes one vector
        check_rates(rates)
    laws = birth_death_laws(lam, rates)
    return frozen_probs(laws) if np.ndim(lam) else OccupancyDistribution(laws)


def jain_smith_rates(L: float, model: CongestionModel) -> np.ndarray:
    """Speed-ratio service rates q_n = n * v_n / L for n = 1..c."""
    check_positive(L=L)
    n = np.arange(1, model.c + 1)
    return n * model.speed(n) / L


def solve_triangular(lam, section: RoadSection):
    """Stationary law under the shifted triangular-diagram rates (see solve_birth_death)."""
    return solve_birth_death(lam, service_rates(section))


def littles_law(
    dist: OccupancyDistribution, throughput: float, free_flow_time: float
) -> PerformanceMeasures:
    """Measures of a solved law, travel time by Little's law.

    Unless throughput and mean count are both normal floats (one of them
    may underflow to 0 beside the other, and a subnormal quotient keeps few
    bits), the travel time is reported as free_flow_time and flagged, so
    sweeps stay plottable; an infinite one (1 / q_1 at a q_1 of 0 or below
    1 / DBL_MAX = 5.6e-309) is refused as not finite by PerformanceMeasures.
    """
    expected_count = dist.mean()
    normal = throughput >= sys.float_info.min and expected_count >= sys.float_info.min
    return PerformanceMeasures(
        blocking=dist.blocking,
        throughput=throughput,
        expected_count=expected_count,
        expected_travel_time=expected_count / throughput if normal else free_flow_time,
        free_flow_fallback=not normal,
    )


def measures(
    dist: OccupancyDistribution, lam: float, rates
) -> PerformanceMeasures:
    """Blocking, throughput, mean count, and Little's-law travel time.

    Throughput is the accepted arrival rate lam * sum_{n<c} P_n, the sum
    capped at 1 so that rounding cannot lift it past lam: lam * (1 - P_c),
    but still right once P_c rounds to 1 (from a lam of about 1e16 at c =
    18).  When it or the mean count is zero or subnormal (lam = 0, or a lam
    so small that either is below 2.2e-308) the travel time is the
    lone-vehicle transit time 1 / q_1, refused where not finite (a q_1 of 0
    or below 1 / DBL_MAX = 5.6e-309).  lam is one checked rate.
    """
    check_arrival_rate("measures", lam)
    rates = check_rate_count(dist, rates)
    with np.errstate(divide="ignore", over="ignore"):  # 1 / 0 is inf, refused as not finite
        lone_time = float(1.0 / rates[0])
    return littles_law(dist, lam * min(float(dist.probs[:-1].sum()), 1.0), lone_time)
