"""Acceptance gate: one test per shipped criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see every PASS/FAIL
line.  Criteria 7-10 encode external reference bands that the shipped
decomposition does not land in; they are kept as stated and fail
honestly.  The analysis of why lives in the project notes, and the
`tv_vs_exact_2d` diagnostic quantifies the gap on every tandem solve.
"""

import math
import random
import time

import numpy as np
import pytest

from roadqueue import (
    ExponentialCongestionModel,
    FitAnchors,
    LinearCongestionModel,
    RoadSection,
    TandemConfig,
    TriangularDiagram,
    birth_death_chain,
    exact_stationary,
    fit_exponential,
    simulate,
    solve_birth_death,
    solve_fixed_point,
    solve_triangular,
    speed_dist_linear,
    speed_dist_triangular,
    tandem_measures,
    travel_time_dist_linear,
    travel_time_dist_triangular,
    tv_distance,
)
from roadqueue.fundamental import service_rates
from roadqueue.queueing import jain_smith_rates

from chain_references import ref_throughput_departure

SWEEP_GRID = np.linspace(0.1, 2.0, 40)


def _section1() -> RoadSection:
    return RoadSection(
        L=100.0, diagram=TriangularDiagram(v_f=28.0, w=14.0, rho_j=0.18), c=18
    )


def _section2() -> RoadSection:
    return RoadSection(
        L=100.0, diagram=TriangularDiagram(v_f=14.0, w=7.0, rho_j=0.18), c=18
    )


@pytest.fixture(scope="module")
def tandem() -> TandemConfig:
    return TandemConfig(section1=_section1(), section2=_section2())


@pytest.fixture(scope="module")
def theta_sweep(tandem) -> list[float]:
    """Tandem throughput on the 40-point sweep grid, shared by 8 and 9."""
    return [solve_fixed_point(tandem, float(lam)).theta for lam in SWEEP_GRID]


def _report(num: int, passed: bool, detail: str) -> None:
    print(f"{'PASS' if passed else 'FAIL'} criterion {num}: {detail}")
    assert passed, f"criterion {num}: {detail}"


def test_criterion_01_oracle_equivalence():
    section = _section1()
    rates = service_rates(section)
    start = time.perf_counter()
    worst = 0.0
    for lam in (0.1, 0.5, 0.8, 1.0, 1.5, 2.0):
        product_form = solve_triangular(lam, section)
        pi = exact_stationary(birth_death_chain(lam, rates))
        worst = max(worst, float(np.max(np.abs(product_form.probs - pi))))
    elapsed = time.perf_counter() - start
    _report(
        1,
        worst <= 1e-10 and elapsed < 1.0,
        f"product form vs exact solve, max entry gap {worst:.3e} "
        f"(<= 1e-10), {elapsed:.3f}s (< 1s)",
    )


def test_criterion_02_monte_carlo_agreement():
    section = _section1()
    rates = service_rates(section)
    start = time.perf_counter()
    result = simulate(0.8, rates, seed=42, max_events=10**6)
    elapsed = time.perf_counter() - start
    tv = tv_distance(result.empirical, solve_triangular(0.8, section))
    _report(
        2,
        tv <= 0.02 and elapsed < 10.0,
        f"simulated vs analytical at lambda=0.8, seed 42, 1e6 events: "
        f"TV {tv:.4f} (<= 0.02), {elapsed:.2f}s (< 10s)",
    )


def test_criterion_03_throughput_identity():
    section = _section1()
    rates = service_rates(section)
    worst = 0.0
    for lam in SWEEP_GRID:
        lam = float(lam)
        dist = solve_triangular(lam, section)
        accepted = lam * (1.0 - dist.blocking)
        departed = ref_throughput_departure(dist, rates)
        worst = max(worst, abs(accepted - departed) / accepted)
    _report(
        3,
        worst <= 1e-9,
        f"accepted vs departure throughput on the 40-point sweep, "
        f"max relative gap {worst:.3e} (<= 1e-9)",
    )


def test_criterion_04_fixed_point_residual(tandem):
    start = time.perf_counter()
    worst_residual = 0.0
    worst_iterations = 0
    for lam in (0.1, 0.4, 0.8, 1.2, 1.6, 2.0):
        result = solve_fixed_point(tandem, lam)
        check = abs(result.theta - lam * (1.0 - result.marginal.blocking))
        worst_residual = max(worst_residual, check, result.residual)
        worst_iterations = max(worst_iterations, result.iterations)
    elapsed = time.perf_counter() - start
    _report(
        4,
        worst_residual <= 1e-10 and worst_iterations <= 200 and elapsed < 5.0,
        f"fixed point over six arrival rates: max residual "
        f"{worst_residual:.3e} (<= 1e-10), max {worst_iterations} "
        f"iterations (<= 200), {elapsed:.2f}s total (< 5s)",
    )


def test_criterion_05_fit_interpolation():
    rng = random.Random(2024)
    worst = 0.0
    for _ in range(100):
        v_f = rng.uniform(20.0, 80.0)
        a = rng.randint(2, 50)
        b = rng.randint(a + 1, 200)
        v_a = rng.uniform(0.5 * v_f, 0.95 * v_f)
        v_b = rng.uniform(0.05 * v_f, 0.9 * v_a)
        anchors = FitAnchors(a=a, v_a=v_a, b=b, v_b=v_b, v_f=v_f)
        beta, gamma = fit_exponential(anchors)
        model = ExponentialCongestionModel(v_f=v_f, beta=beta, gamma=gamma, c=b + 1)
        worst = max(
            worst,
            abs(model.speed(a) - v_a) / v_a,
            abs(model.speed(b) - v_b) / v_b,
        )
    _report(
        5,
        worst <= 1e-9,
        f"fit round trip over 100 random anchor sets, max relative "
        f"error {worst:.3e} (<= 1e-9)",
    )


def test_criterion_06_distribution_normalization(tandem):
    section = _section1()
    linear = LinearCongestionModel(v_f=28.0, c=18)
    emitted = []
    for lam in (0.0, 0.1, 0.8, 2.0):
        occ = solve_triangular(lam, section)
        emitted.append(occ.probs)
        emitted.append(speed_dist_triangular(occ, section).probs)
        emitted.append(travel_time_dist_triangular(occ, section).probs)
        emitted.append(solve_birth_death(lam, jain_smith_rates(100.0, linear)).probs)
        if lam > 0:
            emitted.append(speed_dist_linear(lam, linear, 100.0).probs)
            emitted.append(travel_time_dist_linear(lam, linear, 100.0).probs)
    result = solve_fixed_point(tandem, 0.8)
    emitted.append(result.marginal.probs)
    emitted.append(result.downstream.probs)
    emitted.append(speed_dist_triangular(result.marginal, tandem.section1).probs)
    emitted.append(
        simulate(0.8, service_rates(section), seed=42, max_events=10**4)
        .empirical.probs
    )
    emitted.append(exact_stationary(birth_death_chain(0.8, service_rates(section))))
    worst = max(abs(float(np.sum(probs)) - 1.0) for probs in emitted)
    _report(
        6,
        worst <= 1e-12,
        f"{len(emitted)} emitted distributions, max |sum - 1| "
        f"{worst:.3e} (<= 1e-12)",
    )


def test_criterion_07_free_flow_travel_time(tandem):
    result = solve_fixed_point(tandem, 0.5)
    w = tandem_measures(result, 0.5).expected_travel_time
    target = 100.0 / 28.0
    gap = abs(w - target) / target
    _report(
        7,
        gap <= 0.15,
        f"tandem travel time at lambda=0.5 is {w:.3f}s vs free-flow "
        f"{target:.3f}s, relative gap {gap:.2f} (<= 0.15)",
    )


def test_criterion_08_throughput_breakpoint(theta_sweep):
    peak_lam = float(SWEEP_GRID[int(np.argmax(theta_sweep))])
    _report(
        8,
        0.7 <= peak_lam <= 0.9,
        f"tandem throughput peaks at lambda={peak_lam:.3f} on the "
        f"40-point sweep (expected within [0.7, 0.9])",
    )


def test_criterion_09_saturated_throughput(theta_sweep):
    theta = theta_sweep[-1]
    _report(
        9,
        0.24 <= theta <= 0.40,
        f"tandem throughput at lambda=2.0 is {theta:.4f} veh/s "
        f"(expected within [0.24, 0.40])",
    )


def test_criterion_10_congested_travel_time(tandem):
    heavy = solve_fixed_point(tandem, 2.0).marginal
    tt_heavy = travel_time_dist_triangular(heavy, tandem.section1)
    mean_heavy = tt_heavy.mean()
    mild = solve_fixed_point(tandem, 0.8).marginal
    tt_mild = travel_time_dist_triangular(mild, tandem.section1)
    mode = float(tt_mild.support[int(np.argmax(tt_mild.probs))])
    free = tandem.section1.free_flow_time
    mean_ok = 30.0 <= mean_heavy <= 90.0
    mode_ok = math.isclose(mode, free, rel_tol=1e-9)
    _report(
        10,
        mean_ok and mode_ok,
        f"pushforward mean at lambda=2.0 is {mean_heavy:.1f}s (expected "
        f"[30, 90]); mode at lambda=0.8 is {mode:.3f}s vs free-flow "
        f"{free:.3f}s (expected equal)",
    )


def test_criterion_11_occupancy_ordering(tandem):
    means = {
        lam: solve_fixed_point(tandem, lam).marginal.mean()
        for lam in (0.5, 1.0, 1.5)
    }
    _report(
        11,
        means[1.5] > means[1.0] > means[0.5],
        f"mean tandem occupancy {means[0.5]:.2f} (lambda=0.5) < "
        f"{means[1.0]:.2f} (lambda=1.0) < {means[1.5]:.2f} (lambda=1.5)",
    )
