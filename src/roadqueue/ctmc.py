"""Verification oracles: exact stationary solves and Monte Carlo simulation.

The product-form solvers in `queueing` and the decomposition in `tandem`
are checked against machinery that shares none of their algebra:

* GTH elimination of the global balance equations pi Q = 0 for any
  finite generator, within its band (no dense solve),
* a level-by-level solve of the full two-dimensional tandem chain that
  the decomposition approximates, which never forms its generator and
  solves a whole vector of arrival rates in one batch (a sweep's grid),
  and
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
from .queueing import OccupancyDistribution, check_arrival_rate, check_arrival_rates, check_rates
from .tandem import TandemConfig, coupled_rates

RNG_ALGORITHM = "numpy-pcg64"

_CLIP = 1e-13
# Unnormalized laws start from mass 1 at the lowest state and are rescaled
# once a mass passes this, so a lowest state below 1e-308 does not overflow
# them; 1e58 is left for the next product with a rate.
_RESCALE = 1e250
# events per simulate buffer: two Python float lists of this length stay
# small next to the process, and the stream does not depend on it
_SIM_BUFFER = 1 << 12


class OracleError(RuntimeError):
    """The oracle itself could not produce a trustworthy answer."""


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


@np.errstate(over="ignore", invalid="ignore")  # _gth refuses a law past the float range
def exact_stationary(generator) -> np.ndarray:
    """Stationary law from the global balance equations, pi Q = 0.

    The generator is a square rate matrix, nonnegative and finite off the
    diagonal, with rows summing to zero within ||Q||_inf * N * eps (with
    ||Q||_inf the largest absolute row sum and N the number of states);
    anything else raises ValueError.  The law comes from _gth within the
    band, the largest |i - j| of a nonzero entry: no dense solve.  It needs
    every state to reach a lower-numbered one once the states above it are
    censored, so a chain absorbing above state 0 (a birth-death chain
    with a zero rate) raises OracleError.  The result is
    verified: residual ||pi Q||_inf within the same bound, and no
    meaningfully negative mass.  What the solve holds beside the generator,
    about 9 bytes a matrix entry and 8 * band**2 for GTH's rank-one update,
    must fit under the 256 MiB cap with it, or OracleError is raised before
    any of it is allocated: a birth-death chain solves up to c = 3967, a
    dense generator up to N = 3273 states.  So does a law past the float range.
    """
    q = np.asarray(generator, dtype=float)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise ValueError(f"generator shape {q.shape} is not square")
    n = q.shape[0]
    # the outermost diagonal holding a nonzero entry, read through views only
    band = next((k for k in range(n - 1, 0, -1) if q.diagonal(k).any() or q.diagonal(-k).any()), 0)
    check_array_bytes(f"GTH elimination on {n} states", _gth_bytes(n, band), q.nbytes, OracleError)
    mask = q < 0
    np.fill_diagonal(mask, False)
    if mask.any():
        raise ValueError("off-diagonal generator entries must be >= 0")
    if not np.isfinite(q, out=mask).all():  # the mask's buffer: no second N x N array
        raise ValueError("generator entries must be finite")
    row_sums = q.sum(axis=1)  # infinite where finite entries overflow: refused below
    # off-diagonal entries are nonnegative, so a row's absolute sum is its
    # sum minus the diagonal plus the diagonal's size: no N x N temporary.
    # Halved, it stays finite near the float maximum; halving is exact away
    # from the subnormals, so tol keeps the bits of ||Q||_inf * N * eps
    diag = q.diagonal()
    half_norm = float(np.max(row_sums / 2 - diag / 2 + np.abs(diag) / 2))
    tol = half_norm * (2 * n * np.finfo(float).eps)
    if not np.max(np.abs(row_sums)) <= tol < math.inf:  # an infinite tol would pass anything
        raise ValueError("generator rows must sum to zero")
    pi = _gth(q.copy(), band)
    pi /= _mass(pi.sum())
    _verify(pi, float(np.max(np.abs(pi @ q))), tol)
    return pi


def _gth_bytes(n: int, band: int) -> int:
    """Bytes GTH holds beside an n-state generator: a copy and a mask of it, one band x band
    update, a few vectors and objects, and 128 kB of ufunc buffers for its strided column."""
    return 9 * n * n + 8 * band**2 + 128 * n + 2**17 + 2**13


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _gth(rates: np.ndarray, band: int) -> np.ndarray:
    """Unnormalized law, pi[..., 0] = 1, by GTH elimination: O(N * band**2).

    rates is one (N, N) rate matrix, giving a law of shape (N,), or an
    (m, N, N) stack of them, giving one law per row of an (m, N) array.
    Censors states from the last, overwriting rates within band of the
    diagonal; a state with no outflow to lower states, in any matrix of
    the stack, or a law past the float range, raises OracleError.  Each law
    is rescaled on its own as it grows, giving the bits of one-by-one solves.
    """
    n = rates.shape[-1]
    stack = rates.reshape(-1, n, n)  # a single matrix is a stack of one
    out = np.zeros(stack.shape[:-1])
    # a state with no outflow divides by 0 and leaves NaN in the states
    # below it, so the highest state that fails is the one to report
    for k in range(n - 1, 0, -1):
        lo = max(k - band, 0)
        out[:, k] = stack[:, k, lo:k].sum(axis=-1)
        stack[:, lo:k, lo:k] += stack[:, lo:k, k, None] * (
            stack[:, k, None, lo:k] / out[:, k, None, None]
        )
    stuck = np.nonzero(~(out[:, 1:] > 0))[1]
    if stuck.size:
        raise OracleError(f"state {stuck.max() + 1} has no outflow to lower states")
    pi = np.zeros(stack.shape[:-1])
    pi[:, 0] = 1.0
    for k in range(1, n):
        lo = max(k - band, 0)
        pi[:, k] = (pi[:, None, lo:k] @ stack[:, lo:k, k, None])[:, 0, 0] / out[:, k]
        if max(pi[:, k].tolist(), default=0.0) > _RESCALE:
            # dividing the other laws by 1 leaves their bits as they are
            pi[:, : k + 1] /= np.where(pi[:, k] > _RESCALE, pi[:, k], 1.0)[:, None]
    if not np.isfinite(pi).all():  # a step ratio past about 1e58 overflows it
        raise OracleError(f"the stationary law passes the float range, {sys.float_info.max:.4g}")
    return pi.reshape(rates.shape[:-1])


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


def birth_death_chain(lam: float, rates) -> np.ndarray:
    """Loss-system birth-death generator on {0..c}: births lam, deaths q_n.

    Past exact_stationary's limit (c > 3967) it raises OracleError before allocating.
    """
    check_arrival_rate("birth_death_chain", lam)
    rates = check_rates(rates)
    c = rates.size
    what = f"GTH elimination on {c + 1} states (c = {c})"
    check_array_bytes(what, _gth_bytes(c + 1, 1), 8 * (c + 1) ** 2, OracleError)
    gen = np.zeros((c + 1, c + 1))
    n = np.arange(c)
    gen[n, n + 1] = lam
    gen[n + 1, n] = rates
    np.fill_diagonal(gen, -gen.sum(axis=1))
    return gen


def tandem_stationary(config: TandemConfig, lam) -> np.ndarray:
    """Exact law pi[n1, n2] of the joint chain the decomposition approximates.

    lam is one arrival rate, giving a law of shape (c1 + 1, c2 + 1), or a
    1-D vector of m rates, giving a stack of shape (m, c1 + 1, c2 + 1):
    one body solves every rate of the batch at once.
    Transitions: arrival (n1 + 1) at rate lam while n1 < c1; transfer
    (n1 - 1, n2 + 1) at rate q12(n1, n2) while n1 > 0 and n2 < c2;
    departure (n2 - 1) at section 2's own service rate.  In n1 this is a
    level-dependent quasi-birth-death process, solved by linear level
    reduction (Gaver, Jacobs & Latouche 1984), each level's (c2 + 1)-square
    inverse by _split_inverse for every rate at once, then GTH elimination
    (Grassmann, Taksar & Heyman 1985) on level 0; every pivot is a sum of
    outflows, never a difference.  Each law is rescaled and verified on its
    own, as exact_stationary's is, blockwise.
    A TandemConfig is shifted, so the chain is irreducible: one law.
    One law stores 8 * c1 * (c2 + 1)**2 bytes of blocks and works beside
    them on level and law arrays: past 256 MiB with those (c1 = c2 > 317)
    it raises OracleError before allocating, and a batch is split into runs
    that fit under that cap together, so memory grows with the batch up to
    the cap (about 3 MB for 40 rates at c = 18).
    Up to c2 = 180, where a split's halves have at most 91 rows, the law has
    the same bits on one and two OpenBLAS threads; at c2 = 250 and 317 its last
    bits follow the thread count: it is reproducible to about 1e-15, not bitwise.
    """
    lams, _ = check_arrival_rates(lam)
    pi = np.concatenate(list(_runs(config, lams.reshape(-1))))
    return pi.reshape(lams.shape + pi.shape[1:])


def _runs(config: TandemConfig, lams: np.ndarray):
    """The laws of a 1-D vector of rates, one stack per run that fits under the cap."""
    c1, c2 = config.section1.c, config.section2.c
    what = f"the joint chain's level reduction (c1 = {c1}, c2 = {c2})"
    # a rate's blocks, five more levels and six (c1 + 1) x (c2 + 1) tables;
    # beside the runs, two levels of rate tables and numpy's ufunc buffers
    per_rate = 8 * (c2 + 1) * ((c1 + 5) * (c2 + 1) + 6 * (c1 + 1))
    fits = check_array_bytes(what, per_rate, 2**17 + 16 * (c2 + 1) ** 2, OracleError)
    for i in range(0, max(lams.size, 1), fits):  # an empty batch is one empty run
        yield _level_reduction(config, lams[i : i + fits])


@np.errstate(over="ignore", invalid="ignore")  # levels overflowing past lam ~ 1e17 are refused
def _level_reduction(config: TandemConfig, lams: np.ndarray) -> np.ndarray:
    """The laws of one run of rates, a stack of shape (m, c1 + 1, c2 + 1)."""
    c1, c2 = config.section1.c, config.section2.c
    mu2 = service_rates(config.section2)
    rows = lams.reshape(-1, 1, 1)  # one law per row of each stack below
    m = rows.shape[0]
    q12 = coupled_rates(config).T  # q12(n1, n2) at [n1 - 1, n2]
    q12[:, -1] = 0.0  # nothing moves at n2 = c2
    # departures, the same at every level and rate; a level's leak goes last
    local = np.zeros((m, c2 + 1, c2 + 2))
    local[:, 1:, :-2] = np.diag(mu2)
    # r[:, n1 - 1] = lam * (-S_n1)^-1 carries the law from level n1 - 1 to n1
    r = np.empty((m, c1, c2 + 1, c2 + 1))
    block = local.copy()  # rates within the top level left, censored
    try:
        for n1 in range(c1, 0, -1):
            block[:, :, -1] = q12[n1 - 1]
            _split_inverse(block, r[:, n1 - 1], (c2 + 1) // 2)
            r[:, n1 - 1] *= rows
            # from level n1 the chain returns to level n1 - 1 one phase up
            block = local.copy()
            block[:, :, 1:-1] += r[:, n1 - 1, :, :-1] * q12[n1 - 1, :-1]
    except np.linalg.LinAlgError as exc:
        raise OracleError(f"a censored level is singular: {exc}") from exc
    # level 0 by GTH: censor its phases out from the top, then substitute
    pi = np.zeros((m, c1 + 1, c2 + 1))
    pi[:, 0] = _gth(block[..., :-1], c2)
    for n1 in range(1, c1 + 1):
        pi[:, n1] = (pi[:, n1 - 1, None] @ r[:, n1 - 1])[:, 0]
        if pi[:, n1].max(initial=0.0) > _RESCALE:
            top = pi[:, n1].max(axis=1)
            big = top > _RESCALE
            pi[big, : n1 + 1] /= top[big, None, None]
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

    Row i of rates holds state i's outflows, to the other states and, last, out of the set;
    self-loops on the diagonal are zeroed.  M splits after h states: np.linalg.inv inverts
    the leading block, the Schur complement comes in rates' form and splits off its last
    state, and four matmuls assemble the inverse.  That state is phase c2, the one a level
    leaves slowly at a large lam; its pivot is its row sum, as each pivot is a sum (GTH's rule).
    """
    np.einsum("...ii->...i", rates[..., :-1])[...] = 0.0
    if rates.shape[-2] == 1:  # one state: its pivot is its row sum
        np.divide(1.0, rates.sum(axis=-1, keepdims=True), out=out)
        return
    a = 0.0 - rates[..., :h, :h]
    np.einsum("...ii->...i", a)[...] = rates[..., :h, :] @ np.ones(rates.shape[-1])
    a_inv = np.linalg.inv(a)
    x = a_inv @ rates[..., :h, h:]  # [A^-1 B | A^-1 (M 1)[:h]]
    c = rates[..., h:, :h]
    s = rates[..., h:, h:] + c @ x  # the complement's rates, its row sums last
    _split_inverse(s, out[..., h:, h:], s.shape[-2] - 1)
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
    lams, _ = check_arrival_rates(lam)
    runs = _runs(config, lams.reshape(-1))
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
