"""Two sections in tandem: upstream service limited by downstream supply.

Vehicles leave section 1 at the coupled rate

    q12(n1, n2) = min(v_f1 * n1 / L1, q1_max, q2_max, supply2(n2))

so a filling downstream section throttles the upstream one.  The supply
is fundamental.supply_term, w2 * (c2 - n2 + 1), positive at c2, so no
(n1, c2) absorbs.  The joint chain is approximated by a decomposition:
section 2 is solved alone at its arrival rate theta (the upstream
outflow), section 1 is solved conditionally on each frozen downstream
count n2, and the two couple through the marginal mixture

    P1(n1) = sum_n2  P(n1 | n2) * P2(n2; theta).

coupled_rates builds every q12 at once as a (c2 + 1) x c1 numpy array
from fundamental.supply_term, and conditional_matrix turns that table
into all the conditionals P(. | n2) with one log-space cumulative sum.

theta itself satisfies the throughput fixed point

    theta = lam * P1(n1 < c1; theta)

solved here by ITP (interpolate, truncate, project) on [0, hi] with
hi = min(lam, max q12), where theta - lam * P1(n1 < c1) is continuous,
at most 0 at 0 and at least 0 at hi, to |residual| <= tol * hi: tol is
dimensionless, so rates in any unit of time give one theta.  The passing
probability is the sum of the masses below c1, not 1 - P1_c1, which
cancels to 0 past lam of about 1e16.  The root is unique: q12 does not
increase in n2, so P(n1 < c1 | n2) does not increase in n2; section 2's
law grows stochastically with theta; so P1(n1 < c1) does not increase in
theta, and the residual has slope at least 1.  scan_roots checks this on
a grid (a grid value of exactly 0 can give two brackets), on one rate table.

A sweep's fixed points are one ITP over a vector of lam, each round one
stacked residual over the rates not yet converged; one lam is a batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .fundamental import (
    SHIFTED, RoadSection, check_array_bytes, check_integer, check_positive, service_rates,
    supply_term
)
from .queueing import (
    OccupancyDistribution,
    PerformanceMeasures,
    birth_death_laws,
    check_arrival_rate,
    check_arrival_rates,
    littles_law,
    solve_birth_death,
    solve_triangular,
)

_SCAN_POINTS = 1000  # grid size of scan_roots
_ITP_KAPPA1 = 0.2  # ITP truncation kappa1 * lam, with kappa2 = 2
_ITP_N0 = 1  # ITP steps allowed past bisection's worst case


class ConvergenceError(RuntimeError):
    """Fixed-point iteration exhausted its budget or its bracket before reaching tolerance."""

    def __init__(self, message: str, bracket: tuple[float, float]):
        super().__init__(message)
        self.bracket = bracket


@dataclass(frozen=True)
class TandemConfig:
    """Two sections coupled by the shifted supply; refused past the 256 MiB cap at one rate."""

    section1: RoadSection
    section2: RoadSection
    convention: ClassVar[str] = SHIFTED  # the one convention, which a benchmark call passes on

    def __post_init__(self) -> None:
        _rates_that_fit(self)


def _rates_that_fit(config: TandemConfig, rates: int = 1) -> int:
    """Rates a fixed-point run may hold beside all rates' results under the cap, or ValueError.

    A share is 8 * (c1 + 1) * (c2 + 1) bytes, one rate's conditionals, and laws
    8 * (c1 + c2 + 2), a law of each section.  A rate in a run holds a share,
    three laws and its ITP vectors; each result keeps its two laws and objects,
    under laws + 1 kB, until the call returns.  Two shares and 128 kB more are
    kept for the rate table, its temporaries and numpy's ufunc buffers.
    c1 = c2 = 3341 is the largest square tandem.
    """
    c1, c2 = config.section1.c, config.section2.c
    share, laws = 8 * (c1 + 1) * (c2 + 1), 8 * (c1 + c2 + 2)
    what = f"the decomposition at {rates} rate(s) (c1 = {c1}, c2 = {c2})"
    reserve = 2 * share + 2**17 + rates * (laws + 1024)
    return check_array_bytes(what, share + 3 * laws + 512, reserve)


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
    return np.minimum(free, supply_term(s2, n2) / s2.L)


def conditional_matrix(config: TandemConfig, lam) -> np.ndarray:
    """Section-1 laws given each frozen downstream count, shape (c2 + 1, c1 + 1).

    Row n2 is the birth-death law with births lam and deaths
    q12(1..c1, n2), all positive as the supply is; a 1-D
    vector of m lam gives a stack of shape (m, c2 + 1, c1 + 1).  The
    conditionals do not depend on theta, so a fixed-point solve computes
    them once and reuses them across residual evaluations.
    """
    return birth_death_laws(lam, coupled_rates(config))


def _residual(down, lam, passing: np.ndarray, theta):
    """theta - lam * P1(n1 < c1; theta), given down, section 2's probabilities at theta.

    passing[n2] = P(n1 < c1 | n2), the masses of conditional_matrix below
    c1.  Their mixture can exceed 1 by an ulp, so it is capped at 1 to
    keep the residual at theta = lam nonnegative.  A stack of m laws takes
    m theta, m lam and m rows of passing, and gives m residuals, each one
    np.matmul of a row and a column with the bits of its scalar call.  The
    scan solves its 1000 laws on one rate table, the fixed point by solve_triangular.
    """
    mixture = np.matmul(down[..., None, :], passing[..., None])[..., 0, 0]
    return theta - lam * np.minimum(mixture, 1.0)


def solve_fixed_point(config: TandemConfig, lam, tol: float = 1e-10, max_iter: int = 200):
    """Solve theta = lam * P1(n1 < c1; theta) by ITP on [0, min(lam, max q12)].

    By flow balance lam * P(n1 < c1 | n2) = E[q12 | n2], so no throughput
    exceeds max q12 and the bracket stays the road's capacity wide at any
    lam; a saturated root can sit at max q12, so the stop rule is tried
    there first.  ITP (Oliveira & Takahashi 2020, ACM TOMS 47(1)) moves the
    regula-falsi point toward the midpoint by _ITP_KAPPA1 * width**2 / lam
    and projects it into a radius that halves each step, so it keeps
    bisection's bracket and worst case and, on this residual of slope at
    least 1, converges superlinearly.  Stops at |residual| <= tol * hi, so
    tol is dimensionless, within ceil(log2(1 / tol)) + _ITP_N0 steps, with
    the marginal renormalized.  Deterministic: the same inputs give the same steps.

    lam is one rate, giving one FixedPointResult, or a 1-D vector of them,
    giving a list.  Each rate keeps its own bracket and stop, each round is
    one stacked residual over the rates not yet converged, so every result
    has the bits of its scalar solve.  A step rounded onto a solved end bisects;
    ConvergenceError gives the first bracket whose ends are adjacent floats or,
    past max_iter, the first unconverged one.
    A batch runs in pieces of _rates_that_fit rates beside every rate's
    result, so it stays under the 256 MiB cap or raises ValueError.
    """
    lams, values = check_arrival_rates(lam)
    check_positive(tol=tol)
    max_iter = check_integer("max_iter", max_iter, 1)
    fits = _rates_that_fit(config, len(values))
    if len(values) > fits:
        runs = (values[i : i + fits] for i in range(0, len(values), fits))
        return [r for run in runs for r in solve_fixed_point(config, run, tol, max_iter)]
    batch, s2 = lams.reshape(-1), config.section2
    matrix = conditional_matrix(config, batch)
    passing = matrix[..., :-1].sum(axis=-1)
    # each rate's bracket as a row [lo, hi], and the residuals there
    ends = np.stack([np.zeros(batch.size), np.minimum(batch, coupled_rates(config).max())], 1)
    h_lo = _residual(solve_triangular(ends[:, 0], s2), batch, passing, ends[:, 0])
    down = solve_triangular(ends[:, 1], s2)
    h_hi = _residual(down, batch, passing, ends[:, 1])
    h_ends = np.stack([h_lo, h_hi], 1)
    theta, h, down, count = ends[:, 1].copy(), h_hi, np.array(down), np.zeros(batch.size, int)
    stop = tol * theta  # each rate's |h| stop, relative to its bracket; hi = 0 has converged
    # passing in [0, 1] and the flow balance above force h(0) <= 0 <= h(hi)
    for a, b, top, s in zip(h_lo.tolist(), h_hi.tolist(), theta.tolist(), stop.tolist()):
        if a > 0 or b < -s:
            raise AssertionError(f"fixed-point bracket lost: h(0)={a!r}, h({top!r})={b!r}")
    # n_max = ceil(log2(hi / (2 eps))) + n0 with eps = stop / 2: one budget for every rate
    n_max, active, j = math.ceil(-math.log2(tol)) + _ITP_N0, np.flatnonzero(np.abs(h) > stop), 0
    while active.size:
        (lo, hi), (h_lo, h_hi) = ends[active].T, h_ends[active].T
        closed = np.nextafter(lo, hi) == hi  # adjacent floats: no theta left to try
        if j == max_iter or closed.any():
            k = closed.argmax()  # the first closed bracket, or else the first one
            first = (lo[k].item(), hi[k].item())
            raise ConvergenceError(
                f"no theta with |residual| <= tol * min(lam, max q12) = {stop[active[k]]} "
                f"after {j} residual evaluations; best bracket [{first[0]}, {first[1]}]",
                bracket=first,
            )
        width = hi - lo
        mid = lo + 0.5 * width
        # regula falsi, as a fraction of the bracket so no product overflows
        x_f = lo + width * (h_lo / (h_lo - h_hi))
        delta = _ITP_KAPPA1 * width * (width / batch[active])  # kappa2 = 2
        sigma = np.copysign(1.0, mid - x_f)
        x_t = np.where(delta <= np.abs(mid - x_f), x_f + sigma * delta, mid)
        radius = np.maximum(np.ldexp(0.5 * stop[active], n_max - j) - 0.5 * width, 0.0)
        step = np.where(np.abs(x_t - mid) <= radius, x_t, mid - sigma * radius)
        step = np.where((lo < step) & (step < hi), step, mid)  # an end is solved: bisect
        down[active] = law = solve_triangular(step, s2)
        h_step = _residual(law, batch[active], passing[active], step)
        j += 1
        theta[active], h[active], count[active] = step, h_step, j
        side = (h_step > 0).astype(int)  # a positive residual moves hi, any other lo
        ends[active, side], h_ends[active, side] = step, h_step
        active = active[np.abs(h_step) > stop[active]]
    marginals = np.matmul(down[:, None], matrix)[:, 0]
    results = [
        FixedPointResult(
            x, abs(r), k, OccupancyDistribution(p / p.sum()), OccupancyDistribution(d), config
        )
        for x, r, k, p, d in zip(theta.tolist(), h.tolist(), count.tolist(), marginals, down)
    ]
    return results if lams.ndim else results[0]


def scan_roots(config: TandemConfig, lam: float) -> list[tuple[float, float]]:
    """Brackets of every sign change of the fixed-point residual.

    Evaluates theta -> theta - lam * P1(n1 < c1) on a _SCAN_POINTS grid
    over [0, min(lam, 2 max q12)], past max q12 at least theta - max q12:
    no root lies there, and at 2 max q12 no rounding flips its sign, as at
    max q12 itself it can.  Returns the bracketing intervals, surfacing any
    root multiplicity the fixed-point solve would silently pick one root from.
    A negative or non-finite lam raises ValueError, as in solve_fixed_point,
    and so does a vector of them: the scan takes one arrival rate.
    """
    check_arrival_rate("scan_roots", lam)
    if lam == 0:
        return []
    passing = conditional_matrix(config, lam)[:, :-1].sum(axis=1)
    grid = np.linspace(0.0, min(lam, 2 * coupled_rates(config).max()), _SCAN_POINTS)
    rates = service_rates(config.section2)
    h = np.array([_residual(solve_birth_death(x, rates).probs, lam, passing, x) for x in grid])
    cut = (h[:-1] == 0.0) | ((h[:-1] < 0) != (h[1:] < 0))
    return list(zip(grid[:-1][cut].tolist(), grid[1:][cut].tolist()))


def tandem_measures(result: FixedPointResult, lam: float) -> PerformanceMeasures:
    """Performance of section 1 at the converged fixed point.

    Travel time is Little's law on the marginal count over theta; where
    theta or the mean count is 0 or subnormal it falls back, flagged, to
    section 1's free-flow time.  lam is not read: it stays only while
    bench/workloads.py passes it by position.
    """
    return littles_law(
        result.marginal, result.theta, result.config.section1.free_flow_time
    )
