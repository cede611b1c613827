"""Per-state references for the rate tables, the joint tandem chain and
the simulation.

Written out one state at a time, straight from the closed forms, so they
share no code with the array builders and the level-by-level oracle they
check.  ref_simulate is the simulation's first event loop, one event per
pass, against which the buffered loop must give the same bits, and
ref_fixed_point is the fixed point's first root finder, plain bisection,
against which ITP's theta and evaluation count are compared.
ref_scan_brackets is the root scan as a loop of solve_triangular calls,
one per grid point, against which scan_roots must give the same brackets.
ref_throughput_departure is the departure side of flow balance, against
which the accepted arrival rate of a solved law is compared.
"""

import math

import numpy as np

from roadqueue import (
    ConvergenceError,
    FixedPointResult,
    OccupancyDistribution,
    SimulationResult,
    coupled_rates,
    solve_triangular,
)
from roadqueue.queueing import check_arrival_rates
from roadqueue.tandem import _SCAN_POINTS, conditional_matrix


def ref_flow(diagram, rho):
    """Equilibrium flow Q(rho) = min(v_f * rho, w * (rho_j - rho)) [veh/s]."""
    return min(diagram.v_f * rho, diagram.w * (diagram.rho_j - rho))


def ref_supply(s, n):
    """The shifted supply w * (c - n + 1) [veh*m/s], one vehicle back on the diagram."""
    return s.diagram.w * (s.c - n + 1)


def ref_service_rate(s, n):
    return min(s.diagram.v_f * n / s.L, ref_supply(s, n) / s.L)


def ref_coupled_rate(config, n1, n2):
    s1, s2 = config.section1, config.section2
    return min(
        s1.diagram.v_f * n1 / s1.L,
        s1.diagram.q_max,
        s2.diagram.q_max,
        ref_supply(s2, n2) / s2.L,
    )


def ref_throughput_departure(dist, rates):
    """Departure-side throughput sum_n q_n * P_n [veh/s], one state at a time.

    rates are q_1..q_c, one per count 1..capacity of dist.  Equals
    lam * (1 - P_c) on any solved law (flow balance).
    """
    rates = np.asarray(rates, dtype=float).tolist()
    return math.fsum(q * p for q, p in zip(rates, dist.probs[1:].tolist(), strict=True))


def ref_generator(config, lam):
    """Dense generator of the joint chain, state (n1, n2) in row-major order."""
    c1, c2 = config.section1.c, config.section2.c
    states = [(n1, n2) for n1 in range(c1 + 1) for n2 in range(c2 + 1)]
    index = {state: k for k, state in enumerate(states)}
    gen = np.zeros((len(states), len(states)))
    for (n1, n2), k in index.items():
        if n1 < c1:
            gen[k, index[(n1 + 1, n2)]] += lam
        if n1 > 0 and n2 < c2:
            gen[k, index[(n1 - 1, n2 + 1)]] += ref_coupled_rate(config, n1, n2)
        if n2 > 0:
            gen[k, index[(n1, n2 - 1)]] += ref_service_rate(config.section2, n2)
    np.fill_diagonal(gen, gen.diagonal() - gen.sum(axis=1))
    return gen


def gth_stationary(generator, band):
    """Stationary law of an irreducible generator by scalar GTH elimination.

    States are censored out one at a time from the last, and no step
    subtracts (Grassmann, Taksar & Heyman 1985).  Every transition must
    stay within band states of its origin; the fill-in then does too, so
    each step touches only the band.  The joint chain's band is c2 + 1.
    """
    q = np.array(generator, dtype=float)
    n = q.shape[0]
    out = np.zeros(n)
    for k in range(n - 1, 0, -1):
        lo = max(0, k - band)
        out[k] = q[k, lo:k].sum()
        q[lo:k, lo:k] += np.outer(q[lo:k, k], q[k, lo:k] / out[k])
    pi = np.zeros(n)
    pi[0] = 1.0
    for k in range(1, n):
        lo = max(0, k - band)
        pi[k] = pi[lo:k] @ q[lo:k, k] / out[k]
    return pi / pi.sum()


def ref_simulate(lam, rates, seed=42, max_events=10**6):
    """ctmc.simulate as it was first written: one event per loop pass.

    Every event recomputes its state's rates and reads its two uniforms
    from a 2**15-event buffer, so the parity test pins the faster loop to
    the same stream, sums and comparisons.
    """
    rates = [float(r) for r in np.asarray(rates, dtype=float)]
    if not (math.isfinite(lam) and lam > 0):
        raise ValueError(f"arrival rate must be finite and positive, got {lam!r}")
    if not all(0 <= r < math.inf for r in rates):
        raise ValueError("service rates must be finite and nonnegative")
    if max_events < 10**4:
        raise ValueError(f"max_events must be at least 1e4, got {max_events!r}")
    c = len(rates)
    rng = np.random.default_rng(seed)
    occupancy = [0.0] * (c + 1)
    n = 0
    events = 0
    absorbed = False
    block = 1 << 15
    buffer = rng.random(2 * block)
    cursor = 0
    while events < max_events:
        birth = lam if n < c else 0.0
        death = rates[n - 1] if n > 0 else 0.0
        total = birth + death
        if total == 0.0:
            absorbed = True
            break
        if cursor >= buffer.size:
            buffer = rng.random(2 * block)
            cursor = 0
        u_time = buffer[cursor]
        u_branch = buffer[cursor + 1]
        cursor += 2
        # 1 - u in (0, 1]: keeps the exponential draw finite
        occupancy[n] += -math.log1p(-u_time) / total
        if u_branch * total < birth:
            n += 1
        else:
            n -= 1
        events += 1
    elapsed = math.fsum(occupancy)
    if absorbed:
        empirical = OccupancyDistribution.point_mass(c, n)
    else:
        weights = np.asarray(occupancy)
        empirical = OccupancyDistribution(weights / weights.sum())
    return SimulationResult(
        empirical=empirical,
        events=events,
        seed=seed,
        elapsed_model_time=elapsed,
        absorbed=absorbed,
    )


def ref_fixed_point(config, lam, tol=1e-10, max_iter=200):
    """solve_fixed_point as it was first written: bisection on [0, lam].

    Each step evaluates the midpoint, whatever the residuals at the
    bracket's ends.
    """
    check_arrival_rates(lam)
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter!r}")
    if lam == 0:
        return FixedPointResult(
            theta=0.0,
            residual=0.0,
            iterations=0,
            marginal=OccupancyDistribution.point_mass(config.section1.c, 0),
            downstream=solve_triangular(0.0, config.section2),
            config=config,
        )

    matrix = conditional_matrix(config, lam)

    def residual_at(theta: float):
        down = solve_triangular(theta, config.section2)
        marginal = down.probs @ matrix
        return theta - lam * (1.0 - marginal[-1]), marginal, down

    h_lo, _, _ = residual_at(0.0)
    h_hi, _, _ = residual_at(lam)
    # blocking in [0, 1] forces h(0) <= 0 <= h(lam); anything else is a bug
    if h_lo > 0 or h_hi < 0:
        raise AssertionError(
            f"fixed-point bracket lost: h(0)={h_lo!r}, h(lam)={h_hi!r}"
        )
    lo, hi = 0.0, lam
    iterations = 0
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        iterations += 1
        h_mid, marginal, down = residual_at(mid)
        if abs(h_mid) <= tol:
            return FixedPointResult(
                theta=mid,
                residual=abs(h_mid),
                iterations=iterations,
                marginal=OccupancyDistribution(marginal),
                downstream=down,
                config=config,
            )
        if h_mid > 0:
            hi = mid
        else:
            lo = mid
    raise ConvergenceError(
        f"no theta with residual <= {tol} after {iterations} bisection "
        f"steps; best bracket [{lo}, {hi}]",
        bracket=(lo, hi),
    )


def ref_scan_brackets(config, lam):
    """scan_roots with one solve_triangular call per grid theta.

    Each residual solves section 2's law from its section, so the rate
    table is rebuilt at every point; the bracket rule is the scan's.
    """
    if check_arrival_rates(lam)[0].ndim:
        raise ValueError(f"scan_roots takes one arrival rate, got shape {np.shape(lam)}")
    if lam == 0:
        return []
    passing = conditional_matrix(config, lam)[:, :-1].sum(axis=1)
    grid = np.linspace(0.0, min(lam, 2 * coupled_rates(config).max()), _SCAN_POINTS)
    values = []
    for theta in grid:
        down = solve_triangular(theta, config.section2)
        # a row times a column, as the stacked residual takes it
        mixture = np.matmul(down.probs[None, :], passing[:, None])[0, 0]
        values.append(theta - lam * min(mixture, 1.0))
    brackets = []
    for i in range(_SCAN_POINTS - 1):
        if values[i] == 0.0 or (values[i] < 0) != (values[i + 1] < 0):
            brackets.append((float(grid[i]), float(grid[i + 1])))
    return brackets
