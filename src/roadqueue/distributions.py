"""Speed and travel-time laws induced by an occupancy distribution.

Every occupancy state n carries a deterministic speed v_n (and transit
time L / v_n), so the stationary count law pushes forward to discrete
speed and travel-time laws.  Two evaluation modes exist for the linear
congestion model:

* "pushforward" (default): relabel each occupancy atom by its exact
  speed or time, merge equal values, drop zero-mass atoms.  This is a
  proper probability law; it sums to 1 exactly.
* "paper-grid": evaluate the classical histogram construction on the
  integer grids v = 1..v_f and t = floor(L/v_f)..L, mapping each grid
  cell to a state through floor(1 + c(1 - v/v_f)) and using the
  product-form weights with a normalization constant recomputed over
  the grid.  Distinct cells can map to the same state and off-grid
  states are dropped, so the result is a visualization table whose
  total is generally not 1; it is marked normalized=False.

Every pushforward reads its speeds from the rate table its law is solved
on, for both models: the empty section has the free speed v_0 = v_f, and
each count n >= 1 moves at v_n = L * q_n / n, the speed of the rate the
queue serves it at (fundamental.service_rates for the triangular variants,
which are always exact pushforwards; the Jain-Smith rates for the linear
model's "pushforward" mode).  Zero-mass states are dropped before speeds
become transit times, so a speed law that reaches v_n = 0 (an exponential
law can underflow there) matters only to a law that holds mass at that n:
its transit time L / 0 is inf, which DiscreteDistribution refuses as not finite.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .congestion import LinearCongestionModel
from .fundamental import SHIFTED, RoadSection, check_array_bytes, service_rates
from .queueing import (
    OccupancyDistribution,
    birth_death_log_weights,
    check_arrival_rate,
    check_rate_count,
    frozen_probs,
    jain_smith_rates,
    solve_birth_death,
)

PUSHFORWARD = "pushforward"
PAPER_GRID = "paper-grid"
MODES = (PUSHFORWARD, PAPER_GRID)
# peak bytes of one paper-grid cell, tracemalloc's 226 rounded up: its count,
# the floats of its index map and the 12-digit strings _floor12 makes of them
_GRID_CELL_BYTES = 256


@dataclass(frozen=True, eq=False)
class DiscreteDistribution:
    """Atoms on a strictly increasing support of speeds [m/s] or times [s].

    normalized=False marks grid-mode tables, which are not probability
    measures; everything else must sum to 1.
    """

    support: np.ndarray
    probs: np.ndarray
    normalized: bool = True

    def __post_init__(self) -> None:
        support = np.array(self.support, dtype=float)
        probs = np.asarray(self.probs, dtype=float)
        if support.ndim != 1 or support.shape != probs.shape:
            raise ValueError("support and probs must be matching 1-D vectors")
        if support.size == 0:
            raise ValueError("distribution must have at least one atom")
        if not np.isfinite(support).all():
            raise ValueError("support values must be finite")
        if np.any(np.diff(support) <= 0):
            raise ValueError("support values must be strictly increasing")
        support.flags.writeable = False
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "probs", frozen_probs(probs, self.normalized))

    def mean(self) -> float:
        return float(self.support @ self.probs)


def _round12(x) -> np.ndarray:
    """Round to 12 significant digits elementwise; guards float near-duplicates."""
    # printed and parsed back: the bits Python's round gives at 12 digits
    return np.char.mod("%.11e", x).astype(float)


def _floor12(x) -> np.ndarray:
    """Floor after 12-significant-digit rounding, elementwise, as integers.

    The classical inverse index maps are exact in real arithmetic but
    can land one ulp below an integer in floats; rounding first keeps
    the floor faithful to the algebra.
    """
    return np.floor(_round12(x)).astype(int)


def _merge_atoms(values: np.ndarray, probs: np.ndarray) -> DiscreteDistribution:
    """Group equal values (after 12-digit rounding), adding masses in order."""
    support, atom = np.unique(_round12(values), return_inverse=True)
    return DiscreteDistribution(support=support, probs=np.bincount(atom, weights=probs))


def _pushforward(
    dist: OccupancyDistribution, rates: np.ndarray, L: float, v_f: float, times: bool
) -> DiscreteDistribution:
    """Relabel each count n by v_n (v_0 = v_f, v_n = L * rates[n-1] / n) or L / v_n."""
    check_rate_count(dist, rates)
    speeds = np.append(v_f, L * rates / np.arange(1, rates.size + 1))
    # zero-mass atoms go first: a speed of 0 matters only where the law holds mass
    held = dist.probs > 0
    values = speeds[held]
    if times:
        with np.errstate(over="ignore", divide="ignore"):  # L / 0, or past the float range: inf
            values = L / values
    return _merge_atoms(values, dist.probs[held])


def _triangular_law(dist, section: RoadSection, times: bool):
    return _pushforward(dist, service_rates(section), section.L, section.diagram.v_f, times)


def speed_dist_triangular(
    dist: OccupancyDistribution, section: RoadSection
) -> DiscreteDistribution:
    """Pushforward of an occupancy law to per-state speeds."""
    return _triangular_law(dist, section, False)


def travel_time_dist_triangular(
    dist: OccupancyDistribution, section: RoadSection, convention: str = SHIFTED
) -> DiscreteDistribution:
    """Pushforward of an occupancy law to transit times L / v_n.

    convention stays only while the benchmark's pushforward call passes it:
    "shifted", the one service-rate convention, is the only value, and any
    other raises ValueError rather than being ignored.
    """
    if convention != SHIFTED:
        raise ValueError(f"convention must be {SHIFTED!r}, got {convention!r}")
    return _triangular_law(dist, section, True)


def _grid_cell_weights(logw: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Probabilities assigned to grid cells mapping to the given states.

    Cell probability is weight(index) / (1 + sum of all cell weights),
    with weight the unnormalized product form exp(logw), weight(0) = 1
    for the empty state and 0 for indices outside [0, c].
    """
    cell_logs = np.full(indices.shape, -np.inf)
    on = (0 <= indices) & (indices < logw.size)
    cell_logs[on] = logw[indices[on]]
    shift = max(float(np.max(cell_logs, initial=-np.inf)), 0.0)
    cell_w = np.exp(cell_logs - shift)
    empty = math.exp(-shift)  # the "1 +" term, same shift
    return cell_w / (empty + float(cell_w.sum()))


def _linear_law(
    lam: float, model: LinearCongestionModel, L: float, mode: str, times: bool
) -> DiscreteDistribution:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    rates = jain_smith_rates(L, model)
    if mode == PUSHFORWARD:
        return _pushforward(solve_birth_death(lam, rates), rates, L, model.v_f, times)
    # the grid's ends as floats: an L / v_f past the float range empties the time grid
    lo, hi = (max(np.floor(L / model.v_f), 1.0), np.floor(L)) if times else (1, np.floor(model.v_f))
    kind = "time" if times else "speed"
    if hi < lo:
        raise ValueError(
            f"the paper-grid {kind} grid is empty at v_f = {model.v_f!r} m/s and L = {L!r} m"
        )
    cells = hi - lo + 1
    check_array_bytes(f"the paper-grid {kind} grid of {cells:.4g} cells", _GRID_CELL_BYTES * cells)
    grid = np.arange(int(lo), int(hi) + 1)
    if times:
        indices = _floor12(1 + model.c * (1 - L / (grid * model.v_f)))
        note = "time grid anchored at floor(L/v_f) with non-integer v_f"
    else:
        indices = _floor12(1 + model.c * (1 - grid / model.v_f))
        note = f"speed grid truncated at floor(v_f) = {int(hi)}"
    if model.v_f != math.floor(model.v_f):
        warnings.warn(note, stacklevel=3)
    return DiscreteDistribution(
        support=grid.astype(float),
        probs=_grid_cell_weights(birth_death_log_weights(lam, rates), indices),
        normalized=False,
    )


def speed_dist_linear(
    lam: float,
    model: LinearCongestionModel,
    L: float,
    mode: str = PUSHFORWARD,
) -> DiscreteDistribution:
    """Speed law of the linear-model section at one arrival rate lam."""
    lam = check_arrival_rate("speed_dist_linear", lam)
    return _linear_law(lam, model, L, mode, times=False)


def travel_time_dist_linear(
    lam: float,
    model: LinearCongestionModel,
    L: float,
    mode: str = PUSHFORWARD,
) -> DiscreteDistribution:
    """Travel-time law of the linear-model section at one arrival rate lam."""
    lam = check_arrival_rate("travel_time_dist_linear", lam)
    return _linear_law(lam, model, L, mode, times=True)
