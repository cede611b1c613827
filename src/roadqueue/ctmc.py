"""Verification oracles: exact stationary solves and Monte Carlo simulation.

The product-form solvers in `queueing` and the decomposition in `tandem`
are checked against machinery that shares none of their algebra:

* a level-by-level solve of the full two-dimensional tandem chain that
  the decomposition approximates, which never forms its generator,
  reduces its levels from both ends at once, ends in GTH elimination of
  the global balance equations pi Q = 0 on the level where the two meet
  (no dense solve), and solves a whole vector of arrival rates in one
  batch (a sweep's grid), and
* an event-driven simulation of the birth-death dynamics with seeded,
  reproducible randomness (numpy PCG64; every result carries the
  algorithm identifier, a class constant, so cross-implementation
  comparisons know what stream they are looking at).

Simulated laws are time-weighted state occupancies, matching the
time-average reading of stationary probabilities.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import partial
from typing import ClassVar

import numpy as np

from .fundamental import check_array_bytes, check_integer, check_positive, service_rates
from .queueing import OccupancyDistribution, check_arrival_rates, check_rates
from .tandem import TandemConfig, coupled_rates

RNG_ALGORITHM = "numpy-pcg64"

_CLIP = 1e-13
# Unnormalized laws start from mass 1 at one state and are rescaled once a
# mass passes this, so a state below 1e-308 of the largest does not overflow
# them; a step that overflows anyway is redone from masses of at most 1.
_RESCALE = 1e250
# events per simulate buffer: two Python float lists of this length stay
# small next to the process, and the stream does not depend on it
_SIM_BUFFER = 1 << 12


class OracleError(RuntimeError):
    """The oracle ran and could not produce a trustworthy answer; a size refusal is a ValueError."""


@dataclass(frozen=True, eq=False)
class SimulationResult:
    """Outcome of one seeded simulation run.

    absorbed marks runs that reached a state with no exit (n = c when
    q_c = 0, as a speed law that reaches 0 gives); the empirical law is
    then the long-run point mass at that state and elapsed_model_time is
    the time spent getting absorbed.
    """

    empirical: OccupancyDistribution
    events: int
    seed: int
    elapsed_model_time: float
    absorbed: bool = False
    algorithm: ClassVar[str] = RNG_ALGORITHM

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", check_integer("events", self.events, 1))


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _gth(rates: np.ndarray) -> np.ndarray:
    """Unnormalized laws, pi[:, 0] = 1, by GTH elimination: O(N**3) each.

    rates is an (m, N, N) stack of rate matrices, giving one law per row of
    an (m, N) array.  Censors states from the last, overwriting rates; a
    state with no outflow to lower states, in any matrix of the stack, or a
    law past the float range, raises OracleError.
    Each law is rescaled on its own by _rescale, giving the bits of one-by-one solves.
    """
    n = rates.shape[-1]
    out = np.zeros(rates.shape[:-1])
    # a state with no outflow divides by 0 and leaves NaN in the states
    # below it, so the highest state that fails is the one to report
    for k in range(n - 1, 0, -1):
        out[:, k] = rates[:, k, :k].sum(axis=-1)
        rates[:, :k, :k] += rates[:, :k, k, None] * (rates[:, k, None, :k] / out[:, k, None, None])
    stuck = np.nonzero(~(out[:, 1:] > 0))[1]
    if stuck.size:
        raise OracleError(f"state {stuck.max() + 1} has no outflow to lower states")
    pi = np.zeros(rates.shape[:-1])
    pi[:, 0] = 1.0

    def mass(k):  # state k's masses, from those of the states below it
        return (pi[:, None, :k] @ rates[:, :k, k, None])[:, 0, 0] / out[:, k]

    for k in range(1, n):
        pi[:, k] = mass(k)
        if max(pi[:, k].tolist(), default=0.0) > _RESCALE:
            _rescale(pi, pi[:, k], partial(mass, k))
    if not np.isfinite(pi).all():  # a step ratio past the float range overflows it
        raise OracleError(f"the stationary law passes the float range, {sys.float_info.max:.4g}")
    return pi


def _rescale(pi: np.ndarray, new: np.ndarray, step) -> None:
    """Rescale each law of the stack pi whose masses new, a view that step() wrote, passed _RESCALE.

    A law with a new mass past the float range has its masses so far divided by their
    largest, and step() is redone; then a law whose largest new mass passes _RESCALE is
    divided by it.  The other laws are divided by 1, which leaves their bits as they are.
    """
    flat = pi.reshape(len(pi), -1)  # a view, as pi is contiguous; masses not yet set are 0
    over = np.isinf(new).reshape(len(pi), -1).any(axis=1)
    if over.any():
        new[over] = 0.0
        flat /= np.where(over, flat.max(axis=1), 1.0)[:, None]
        new[...] = step()
    top = new.reshape(len(pi), -1).max(axis=1)
    flat /= np.where(top > _RESCALE, top, 1.0)[:, None]


def _mass(total):
    """total, the mass of unnormalized laws, or OracleError where it is infinite or not positive:
    dividing by an infinite total gives a law of zeros, whose residual _verify passes."""
    if np.any((total <= 0) | (total == math.inf)):  # NaN is left to _verify
        raise OracleError("the stationary law's total mass is not finite and positive")
    return total


def _verify(pi: np.ndarray, residual: float, tol: float) -> None:
    """Refuse a law whose residual ||pi Q||_inf passes tol, or a negative mass."""
    if not residual <= tol:
        raise OracleError(f"stationary residual {residual:.3e} exceeds {tol:.3e}")
    if np.any(pi < -_CLIP):
        raise OracleError("stationary solve produced negative probabilities")


def tandem_stationary(config: TandemConfig, lam) -> np.ndarray:
    """Exact law pi[n1, n2] of the joint chain the decomposition approximates.

    lam is one arrival rate, giving a law of shape (c1 + 1, c2 + 1), or a
    1-D vector of m rates, giving a stack of shape (m, c1 + 1, c2 + 1):
    one body solves every rate of the batch at once.
    Transitions: arrival (n1 + 1) at rate lam while n1 < c1; transfer
    (n1 - 1, n2 + 1) at rate q12(n1, n2) while n1 > 0 and n2 < c2;
    departure (n2 - 1) at section 2's own service rate.  In n1 this is a
    level-dependent quasi-birth-death process, solved by linear level
    reduction (Gaver, Jacobs & Latouche 1984) from both ends at once: with
    k = c1 // 2, levels c1 ... k + 1 are censored from the top and 0 ... k - 1
    from the bottom, each _split_inverse call inverting one (c2 + 1)-square
    level of each front for every rate.  Level k, censored from both sides,
    is a closed chain, solved by GTH elimination (Grassmann, Taksar & Heyman
    1985), and the law is carried out from it level by level to both ends;
    every pivot is a sum of outflows, never a difference.  Each law is
    rescaled on its own as it is carried out (_rescale), and verified on its
    own.  A rate so small that a step down a level could pass the float
    range, below max(c2 * max q12, 1) / (the largest float), lam = 0 among
    them, is answered by the empty road, which is verified like any other law.
    Every decade of lam from 1e-300 to 1e300 is answered at c = 18 and 54,
    and every one up to 1e17 at c = 180; past that c = 180 refuses most of
    them with OracleError, as its levels' split inverses go negative.
    A TandemConfig is shifted, so the chain is irreducible: one law.
    One law stores 8 * c1 * (c2 + 1)**2 bytes of blocks and works beside
    them on level and law arrays: past 256 MiB with those (c1 = c2 > 317), or
    with every rate's law kept in one array, it raises ValueError before a
    rate is read (OracleError is only for a run that fails its checks); a
    batch runs in pieces that fit beside those laws, so memory grows with the
    batch up to the cap (about 3 MB for 40 rates at c = 18).
    Up to c2 = 180, where a split's halves have at most 91 rows, the law has
    the same bits on one and two OpenBLAS threads; at c2 = 250 and 317 its last
    bits follow the thread count (by at most 1.4e-17 and 2.8e-17 at lam = 0.8):
    it is reproducible to about 1e-15, not bitwise.
    """
    fits = _run_size(config, np.size(lam))  # every law is kept beside the runs
    lams, _ = check_arrival_rates(lam)
    pi = np.empty((lams.size, config.section1.c + 1, config.section2.c + 1))
    for i in range(0, lams.size, fits):
        pi[i : i + fits] = _level_reduction(config, lams.reshape(-1)[i : i + fits])
    return pi.reshape(lams.shape + pi.shape[1:])


def _run_size(config: TandemConfig, laws: int = 0) -> int:
    """Rates a run of the level reduction may hold under the cap beside the laws a caller keeps."""
    c1, c2 = config.section1.c, config.section2.c
    kept = f" beside {laws} law(s)" if laws else ""
    what = f"the joint chain's level reduction (c1 = {c1}, c2 = {c2}){kept}"
    # a rate's c1 blocks (R above the meeting level, G below it), the stacked pair of
    # levels, three levels of _split_inverse's work on that pair and six (c1 + 1) x
    # (c2 + 1) tables: the law, the returns and the residual's; beside the runs, two
    # levels of rate tables, the kept laws and numpy's ufunc buffers
    per_rate = 8 * (c2 + 1) * ((c1 + 5) * (c2 + 1) + 6 * (c1 + 1))
    return check_array_bytes(what, per_rate, 2**17 + 8 * (c2 + 1) * (2 * c2 + 2 + laws * (c1 + 1)))


@np.errstate(over="ignore", invalid="ignore")  # a step that overflows is redone by _rescale
def _level_reduction(config: TandemConfig, lams: np.ndarray) -> np.ndarray:
    """The laws of one run of rates, a stack of shape (m, c1 + 1, c2 + 1)."""
    c1, c2 = config.section1.c, config.section2.c
    n, k = c2 + 1, c1 // 2  # phases of a level; the meeting level
    mu2 = service_rates(config.section2)
    rows = lams.reshape(-1, 1, 1)  # one law per row of each stack below
    m = rows.shape[0]
    q12 = coupled_rates(config).T  # q12(n1, n2) at [n1 - 1, n2]
    q12[:, -1] = 0.0  # nothing moves at n2 = c2
    returns = rows * q12[:k, :-1]  # lam q12(n1 + 1, n2), n1 < k: down to the bottom front and back
    # a bottom level's G rows sum to 1 / lam, and a step down is at most c2 max q12 / lam
    # times the largest mass: a rate where either passes the float range, lam = 0 among
    # them, gets the empty road, its bottom front leaking at 1 so that no level is singular
    idle = lams * sys.float_info.max <= max(c2 * q12.max(), 1.0)
    # r[2t] = lam M^-1 of level c1 - t censored from above carries the law up to it from
    # level c1 - t - 1; row i + 1 of r[2t + 1] = G = M^-1 of level t censored from below
    # carries it down to level t from phase i of level t + 1, at rate q12(t + 1, i)
    r = np.empty((c1, m, n, n))
    block = np.zeros((2 * m, n, n + 1))  # a level of the top front, then of the bottom front
    flat = block.reshape(2 * m, -1)  # a matrix's diagonal is flat[:, ::n + 2]
    flat[:, n + 1 :: n + 2] = mu2  # departures, the same at every level and rate
    block[m:, :, -1] = np.where(idle, 1.0, lams)[:, None]  # arrivals leave the bottom front
    try:
        for t in range(c1 - k):
            fronts = 1 + (t < k)  # the bottom front's level t beside the top front's c1 - t
            block[:m, :, -1] = q12[c1 - t - 1]  # transfers leave the top front
            _split_inverse(block[: fronts * m], r[2 * t : 2 * t + fronts].reshape(-1, n, n), n // 2)
            r[2 * t] *= rows
            # the chain comes back to the top front's next level one phase up, and to the
            # bottom front's on the phase it left; the meeting level takes both, below
            np.multiply(r[2 * t, :, :, :-1], q12[c1 - t - 1, :-1], out=block[:m, :, 1:-1])
            block[:m, :, 0] = 0.0
            below = t + 1 < k  # the bottom front's next level is not the meeting level
            if below:
                np.multiply(r[2 * t + 1, :, 1:], returns[:, t, :, None], out=block[m:, :-1, :-1])
                block[m:, -1, :-1] = 0.0
            flat[: (1 + below) * m, n + 1 :: n + 2] += mu2
    except np.linalg.LinAlgError as exc:
        raise OracleError(f"a censored level is singular: {exc}") from exc
    block[:m, :-1, :-1] += r[2 * k - 1, :, 1:] * returns[:, k - 1, :, None]
    # the meeting level, censored from both sides, by GTH; then out to both ends
    pi = np.zeros((m, c1 + 1, n))
    pi[:, k] = _gth(block[:m, :, :-1])

    def up(n1):  # level n1 from the one below it
        return (pi[:, n1 - 1, None] @ r[2 * (c1 - n1)])[:, 0]

    def down(n1):  # level n1 from the one above it
        return ((pi[:, n1 + 1, None, :-1] * q12[n1, :-1]) @ r[2 * n1 + 1, :, 1:])[:, 0]

    steps = [(up, n1) for n1 in range(k + 1, c1 + 1)] + [(down, n1) for n1 in range(k - 1, -1, -1)]
    for step, n1 in steps:
        pi[:, n1] = step(n1)
        if pi[:, n1].max(initial=0.0) > _RESCALE:
            _rescale(pi, pi[:, n1], partial(step, n1))
    pi[idle] = 0.0
    pi[idle, 0, 0] = 1.0
    pi /= _mass(pi.sum(axis=(1, 2), keepdims=True))
    exits = np.zeros((m, c1 + 1, c2 + 1))
    exits[:, 1:] = q12
    exits[:, :-1] += rows
    exits[:, :, 1:] += mu2
    flow = -pi * exits  # pi Q, one transition kind at a time
    flow[:, 1:] += rows * pi[:, :-1]
    flow[:, :-1, 1:] += pi[:, 1:, :-1] * q12[:, :-1]
    flow[:, :, :-1] += pi[:, :, 1:] * mu2
    # ||Q||_inf is twice the largest exit rate
    tols = 2 * exits.max(axis=(1, 2)) * ((c1 + 1) * (c2 + 1)) * np.finfo(float).eps
    residuals = np.abs(flow).max(axis=(1, 2))
    for law, residual, tol in zip(pi, residuals.tolist(), tols.tolist()):
        _verify(law, residual, tol)
    return pi


def _split_inverse(rates: np.ndarray, out: np.ndarray, h: int) -> None:
    """Write to out the inverse of M = diag(rates 1) - rates[..., :-1] for each matrix of a stack.

    rates is a C-contiguous (m, N, N + 1) stack.  Row i holds state i's outflows, to the
    other states and, last, out of the set; self-loops on the diagonal are zeroed.  M splits
    after h states: np.linalg.inv inverts the leading block, the Schur complement comes in
    rates' form and splits off its last state, and four matmuls assemble the inverse.  That
    state is phase c2, the one a level leaves slowly at a large lam; its pivot is its row
    sum, its outflow out of the set, as each pivot is a sum (GTH's rule).
    """
    n = rates.shape[-2]
    rates.reshape(len(rates), -1)[:, :: n + 2] = 0.0
    a_inv = 0.0 - rates[..., :h, :h]  # the leading block A, not kept beside its inverse
    a_inv.reshape(len(a_inv), -1)[:, :: h + 1] = rates[..., :h, :] @ np.ones(n + 1)
    a_inv = np.linalg.inv(a_inv)
    x = a_inv @ rates[..., :h, h:]  # [A^-1 B | A^-1 (M 1)[:h]]
    c = rates[..., h:, :h]
    s = c @ x
    s += rates[..., h:, h:]  # the complement's rates, its row sums last
    if n - h == 1:
        np.divide(1.0, s[..., 1:], out=out[..., h:, h:])
    else:
        _split_inverse(s, out[..., h:, h:], n - h - 1)
    np.matmul(out[..., h:, h:], c @ a_inv, out=out[..., h:, :h])
    np.matmul(x[..., :-1], out[..., h:, h:], out=out[..., :h, h:])
    np.add(a_inv, x[..., :-1] @ out[..., h:, :h], out=out[..., :h, :h])


def decomposition_diagnostic(config: TandemConfig, lam, marginal_probs):
    """TV distance between a model marginal and the exact joint chain's.

    A scalar lam takes one marginal and gives a float; a 1-D vector of
    lam takes one marginal per rate and gives a list.  The joint laws are
    solved in tandem_stationary's runs, each cut to its section-1 marginals
    before the next run starts, so no two runs' laws are held at once.  A
    quality report for the decomposition, not a correctness bound: the
    decomposition is an approximation of the joint chain by design.
    """
    fits, (lams, _) = _run_size(config), check_arrival_rates(lam)
    batch = lams.reshape(-1)  # an empty batch is one empty run
    runs = (_level_reduction(config, batch[i : i + fits]) for i in range(0, batch.size or 1, fits))
    # map, unlike a loop variable, holds no run's laws while the next is solved
    marginals = np.concatenate(list(map(partial(np.sum, axis=-1), runs)))
    return tv_distance(marginals.reshape(lams.shape + marginals.shape[1:]), marginal_probs)


def tv_distance(p, q):
    """Total variation distance 0.5 * sum |p_i - q_i| over the last axis.

    One law gives a float; a stack gives a list with the bits of each row's own call.
    """
    p = np.asarray(getattr(p, "probs", p), dtype=float)
    q = np.asarray(getattr(q, "probs", q), dtype=float)
    if p.shape != q.shape:
        raise ValueError(f"support mismatch: {p.shape} vs {q.shape}")
    return (0.5 * np.abs(p - q).sum(axis=-1)).tolist()


def simulate(
    lam: float, rates, seed: int = 42, max_events: int = 10**6
) -> SimulationResult:
    """Event-driven run of the loss birth-death chain, time-weighted.

    Arrivals in state c are blocked and lost, so the only transitions
    are the chain's own; each event consumes one exponential holding
    time and one branching uniform from a single seeded PCG64 stream,
    making runs bitwise reproducible for equal inputs.  The uniforms are
    drawn _SIM_BUFFER events at a time, holding time then branch; each
    double takes one 64-bit output, so the stream does not depend on the
    buffer size.  math.log1p mapped over a buffer's negated draws gives
    minus its holding times (np.log1p differs in the last bit on some),
    and each over its state's rate is subtracted from that occupancy,
    with the bits of adding -log1p(-u) / rate.  A state with no exit
    divides by zero, which ends the run as absorbed.  A state's total
    rate below max_events * 37 / (the largest float) raises ValueError
    before any draw, as the run's model time could pass the float range;
    every rate accepted is then a normal float, so n = 0 always moves up.
    """
    if np.ndim(lam):
        raise ValueError(f"simulate takes one arrival rate, got shape {np.shape(lam)}")
    check_positive(**{"arrival rate": float(lam)})
    rates = [float(r) for r in check_rates(rates)]
    max_events = check_integer("max_events", max_events, 10**4)
    seed = check_integer("seed", seed, 0)
    c = len(rates)
    birth = [float(lam)] * c + [0.0]
    total = [b + d for b, d in zip(birth, [0.0] + rates)]
    # a holding time is at most 37 / rate, as -log1p(-u) < 36.74 for u < 1
    slowest = min(t for t in total if t > 0)
    if slowest * (sys.float_info.max / 37) < max_events:
        raise ValueError(
            f"a total rate of {slowest!r} is too small to time {max_events} events "
            "within the float range"
        )
    rng = np.random.default_rng(seed)
    occupancy = [0.0] * (c + 1)
    n = 0
    events = 0
    absorbed = False
    while events < max_events:
        size = min(_SIM_BUFFER, max_events - events)
        buffer = rng.random(2 * size)
        # g = log1p(-u), minus the holding time; 1 - u in (0, 1] keeps it finite
        draws = zip(map(math.log1p, (-buffer[0::2]).tolist()), buffer[1::2].tolist())
        try:
            for g, u in draws:
                t = total[n]
                occupancy[n] -= g / t
                if u * t < birth[n]:
                    n += 1
                else:
                    n -= 1
        except ZeroDivisionError:
            # a state with no exit: the draw read in it and those after it are unused
            absorbed = True
            events += size - 1 - sum(1 for _ in draws)
            break
        events += size
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
