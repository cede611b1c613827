"""Verification oracles: exact stationary solves and Monte Carlo simulation.

The product-form solvers in `queueing` and the decomposition in `tandem`
are checked against machinery that shares none of their algebra:

* a dense linear solve of the global balance equations pi Q = 0 for any
  finite generator, including the full two-dimensional tandem chain that
  the decomposition approximates, and
* an event-driven simulation of the birth-death dynamics with seeded,
  reproducible randomness (numpy PCG64; the algorithm identifier is
  recorded in the result so cross-implementation comparisons know what
  stream they are looking at).

Simulated laws are time-weighted state occupancies, matching the
time-average reading of stationary probabilities.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .fundamental import service_rates
from .queueing import OccupancyDistribution, check_arrival_rate
from .tandem import TandemConfig, coupled_rates

RNG_ALGORITHM = "numpy-pcg64"

_CLIP = 1e-13
# Cap on the dense joint-chain generator, 8 * N**2 bytes for N joint
# states: c = 54 (a 73 MB generator, copied twice more by Ctmc and the
# solve) passes, c = 180 (8.6 GB) does not.
_GENERATOR_CAP_BYTES = 256 * 2**20


class OracleError(RuntimeError):
    """The oracle itself could not produce a trustworthy answer."""


@dataclass(frozen=True, eq=False)
class Ctmc:
    """A finite continuous-time Markov chain.

    states: hashable labels, one per generator row
    generator: square rate matrix, nonnegative off the diagonal, rows
        summing to zero
    """

    states: tuple
    generator: np.ndarray

    def __post_init__(self) -> None:
        gen = np.asarray(self.generator, dtype=float)
        n = len(self.states)
        if gen.shape != (n, n):
            raise ValueError(
                f"generator shape {gen.shape} does not match {n} states"
            )
        off = gen.copy()
        np.fill_diagonal(off, 0.0)
        if np.any(off < 0):
            raise ValueError("off-diagonal generator entries must be >= 0")
        # a NaN or infinite entry makes its row sum NaN or infinite
        with np.errstate(invalid="ignore"):
            row_sums = gen.sum(axis=1)
        if not np.isfinite(row_sums).all():
            raise ValueError("generator entries must be finite")
        if np.max(np.abs(row_sums)) > 1e-9:
            raise ValueError("generator rows must sum to zero")
        gen = gen.copy()
        gen.flags.writeable = False
        object.__setattr__(self, "generator", gen)
        object.__setattr__(self, "states", tuple(self.states))


@dataclass(frozen=True, eq=False)
class SimulationResult:
    """Outcome of one seeded simulation run.

    absorbed marks runs that reached a state with no exit (possible at
    n = c under the exact convention); the empirical law is then the
    long-run point mass at that state and elapsed_model_time is the
    time spent getting absorbed.
    """

    empirical: OccupancyDistribution
    events: int
    seed: int
    elapsed_model_time: float
    algorithm: str = RNG_ALGORITHM
    absorbed: bool = False

    def __post_init__(self) -> None:
        if self.events <= 0:
            raise ValueError(f"events must be positive, got {self.events!r}")


def exact_stationary(chain: Ctmc) -> np.ndarray:
    """Stationary law from the global balance equations, pi Q = 0.

    One balance equation is replaced by the normalization sum(pi) = 1 and
    the dense system solved directly.  The result is verified: residual
    ||pi Q||_inf at most ||Q||_inf * N * eps, relative to the rates (with
    ||Q||_inf the largest absolute row sum and N the number of states),
    and no meaningfully negative mass.
    """
    q = chain.generator
    n = q.shape[0]
    a = q.T.copy()
    a[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    try:
        pi = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise OracleError(f"balance equations are singular: {exc}") from exc
    residual = float(np.max(np.abs(pi @ q)))
    # off-diagonal entries are nonnegative, so a row's absolute sum is its
    # sum minus the diagonal plus the diagonal's size: no N x N temporary
    diag = q.diagonal()
    q_norm = float(np.max(q.sum(axis=1) - diag + np.abs(diag)))
    tol = q_norm * n * np.finfo(float).eps
    if not residual <= tol:
        raise OracleError(f"stationary residual {residual:.3e} exceeds {tol:.3e}")
    if np.any(pi < -_CLIP):
        raise OracleError("stationary solve produced negative probabilities")
    pi = np.where(np.abs(pi) < _CLIP, 0.0, pi)
    return pi / pi.sum()


def birth_death_chain(lam: float, rates) -> Ctmc:
    """Loss-system birth-death generator on {0..c}: births lam, deaths q_n."""
    check_arrival_rate(lam)
    rates = np.asarray(rates, dtype=float)
    if not np.all((0 <= rates) & (rates < math.inf)):
        raise ValueError("service rates must be finite and nonnegative")
    c = rates.size
    gen = np.zeros((c + 1, c + 1))
    n = np.arange(c)
    gen[n, n + 1] = lam
    gen[n + 1, n] = rates
    np.fill_diagonal(gen, -gen.sum(axis=1))
    return Ctmc(states=tuple(range(c + 1)), generator=gen)


def build_tandem_2d(config: TandemConfig, lam: float) -> Ctmc:
    """Exact joint chain on (n1, n2) that the decomposition approximates.

    Transitions: arrival (n1 + 1) at rate lam while n1 < c1; transfer
    (n1 - 1, n2 + 1) at rate q12(n1, n2) while n1 > 0 and n2 < c2;
    departure (n2 - 1) at section 2's own service rate.  Nothing
    follows section 2, so its downstream is unconstrained.  A chain whose
    dense generator would pass 256 MiB raises OracleError before anything
    its size is allocated.
    """
    check_arrival_rate(lam)
    c1, c2 = config.section1.c, config.section2.c
    size = (c1 + 1) * (c2 + 1)
    if 8 * size**2 > _GENERATOR_CAP_BYTES:
        raise OracleError(
            f"the dense joint chain needs {8 * size**2 / 1e9:.1f} GB of generator "
            f"(N = {size} joint states), above the "
            f"{_GENERATOR_CAP_BYTES // 2**20} MiB cap"
        )
    states = tuple(itertools.product(range(c1 + 1), range(c2 + 1)))
    # state (n1, n2) sits at index k = n1 * (c2 + 1) + n2
    k = np.arange(len(states))
    n1, n2 = np.divmod(k, c2 + 1)
    gen = np.zeros((len(states), len(states)))
    up = k[n1 < c1]
    gen[up, up + c2 + 1] = lam
    move = k[(n1 > 0) & (n2 < c2)]
    gen[move, move - c2] = coupled_rates(config)[n2[move], n1[move] - 1]
    down = k[n2 > 0]
    gen[down, down - 1] = service_rates(config.section2, config.convention)[
        n2[down] - 1
    ]
    np.fill_diagonal(gen, gen.diagonal() - gen.sum(axis=1))
    return Ctmc(states=states, generator=gen)


def joint_marginals(chain: Ctmc, pi) -> tuple[np.ndarray, np.ndarray]:
    """Per-section marginals of a joint law over (n1, n2) states."""
    pi = np.asarray(pi, dtype=float)
    n1, n2 = np.array(chain.states).T
    p1 = np.zeros(n1.max() + 1)
    p2 = np.zeros(n2.max() + 1)
    # unbuffered adds in state order, like a loop over the states
    np.add.at(p1, n1, pi)
    np.add.at(p2, n2, pi)
    return p1, p2


def decomposition_diagnostic(
    config: TandemConfig, lam: float, marginal_probs
) -> float:
    """TV distance between a model marginal and the exact joint chain's.

    A quality report for the decomposition, not a correctness bound: the
    decomposition is an approximation of the joint chain by design.
    """
    chain = build_tandem_2d(config, lam)
    p1, _ = joint_marginals(chain, exact_stationary(chain))
    return tv_distance(p1, marginal_probs)


def tv_distance(p, q) -> float:
    """Total variation distance 0.5 * sum |p_i - q_i|."""
    p = np.asarray(getattr(p, "probs", p), dtype=float)
    q = np.asarray(getattr(q, "probs", q), dtype=float)
    if p.shape != q.shape:
        raise ValueError(f"support mismatch: {p.shape} vs {q.shape}")
    return 0.5 * float(np.abs(p - q).sum())


def simulate(
    lam: float, rates, seed: int = 42, max_events: int = 10**6
) -> SimulationResult:
    """Event-driven run of the loss birth-death chain, time-weighted.

    Arrivals in state c are blocked and lost, so the only transitions
    are the chain's own; each event consumes one exponential holding
    time and one branching uniform from a single seeded PCG64 stream,
    making runs bitwise reproducible for equal inputs.
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
