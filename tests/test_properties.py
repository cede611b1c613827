"""Rate tables, the exact oracles and the fixed point, over random geometries.

The references in `chain_references` are written out one state at a
time, straight from the closed forms, so they share no code with the
array builders and the oracle they check.  The oracle and fixed-point
tests check invariants that follow from the model, not values copied
from the solver.
"""

import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, seed, settings
from hypothesis import strategies as st

from roadqueue import (
    ConvergenceError,
    OccupancyDistribution,
    RoadSection,
    SingularModelError,
    TandemConfig,
    TriangularDiagram,
    coupled_rates,
    default_scenario,
    scan_roots,
    service_rates,
    simulate,
    solve_birth_death,
    solve_fixed_point,
    solve_triangular,
    speed_dist_linear,
    speed_dist_triangular,
    tandem_measures,
    tandem_stationary,
    travel_time_dist_linear,
)
from roadqueue import ctmc
from roadqueue.congestion import (
    ExponentialCongestionModel,
    LinearCongestionModel,
)
from roadqueue.queueing import jain_smith_rates
from roadqueue.tandem import _SCAN_POINTS, conditional_matrix

from cli_cases import run_in_process
from chain_references import (
    gth_stationary,
    ref_birth_death_chain,
    ref_coupled_rate,
    ref_fixed_point,
    ref_generator,
    ref_scan_brackets,
    ref_service_rate,
    ref_simulate,
)

SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def sections(draw, max_c=60):
    diagram = TriangularDiagram(
        v_f=draw(st.floats(5.0, 40.0)),
        w=draw(st.floats(2.0, 30.0)),
        rho_j=draw(st.floats(0.05, 0.2)),
    )
    L = draw(st.floats(10.0, max_c / diagram.rho_j))
    try:
        section = RoadSection(L=L, diagram=diagram)
    except ValueError:
        assume(False)
    assume(section.c <= max_c)
    return section


def absorbing_rates(section):
    """The section's rates with q_c = 0, as a speed law that reaches 0 at
    capacity gives: the chain absorbs at n = c."""
    return np.append(service_rates(section)[:-1], 0.0)


@st.composite
def tandems(draw, max_c=60):
    return TandemConfig(section1=draw(sections(max_c)), section2=draw(sections(max_c)))


arrival_rates = st.one_of(st.just(0.0), st.floats(1e-3, 1e3))


@SETTINGS
@given(sections())
def test_service_rates_equal_closed_form(section):
    expected = [ref_service_rate(section, n) for n in range(1, section.c + 1)]
    assert service_rates(section).tolist() == expected


@SETTINGS
@given(sections())
def test_pushforward_speeds_follow_the_rates(section):
    # a point mass at n pushes forward to one atom, the speed of its
    # rate: v_0 = v_f and v_n = L * q_n / n; atoms carry 12-digit keys
    for n in range(section.c + 1):
        law = OccupancyDistribution.point_mass(section.c, n)
        dist = speed_dist_triangular(law, section)
        if n == 0:
            expected = section.diagram.v_f
        else:
            expected = section.L * ref_service_rate(section, n) / n
        assert dist.support.tolist() == [pytest.approx(expected, rel=1e-11, abs=0)]
        assert dist.probs.tolist() == [1.0]


def round12(values):
    """The sorted set of values at 12 significant digits."""
    return sorted({float(f"{v:.11e}") for v in values})


@SETTINGS
@given(
    st.floats(1.0, 60.0), st.integers(1, 300), st.floats(10.0, 2000.0), arrival_rates
)
def test_linear_pushforward_reads_the_speed_law(v_f, c, L, lam):
    # the Jain-Smith rates q_n = n * v_n / L read backwards give the
    # speed law again: each held count n sits at model.speed(n),
    # the empty section at v_f, and their travel times at L over them
    model = LinearCongestionModel(v_f=v_f, c=c)
    held = solve_birth_death(lam, jain_smith_rates(L, model)).probs > 0
    speeds = np.append(v_f, model.speed(np.arange(1, c + 1)))[held]
    support = speed_dist_linear(lam, model, L).support.tolist()
    assert support == pytest.approx(round12(speeds), rel=1e-11, abs=0)
    support = travel_time_dist_linear(lam, model, L).support.tolist()
    assert support == pytest.approx(round12(L / speeds), rel=1e-11, abs=0)


@SETTINGS
@given(
    st.floats(1.0, 60.0),
    st.floats(0.5, 300.0),
    st.floats(0.2, 5.0),
    st.integers(1, 300),
    st.floats(10.0, 2000.0),
)
def test_jain_smith_rates_equal_closed_form(v_f, beta, gamma, c, L):
    model = ExponentialCongestionModel(v_f=v_f, beta=beta, gamma=gamma, c=c)
    for n, rate in enumerate(jain_smith_rates(L, model), start=1):
        x = ((n - 1) / beta) ** gamma
        expected = n * (v_f * math.exp(-x)) / L
        # numpy's exp and pow may differ from libm's in the last ulp, and
        # exp turns an ulp of x into a relative change of up to x * eps
        bound = 4 * np.finfo(float).eps * (1 + x) * expected
        assert abs(rate - expected) <= bound + np.finfo(float).tiny
    expected = [n * (v_f * (c - n + 1) / c) / L for n in range(1, c + 1)]
    assert jain_smith_rates(L, LinearCongestionModel(v_f=v_f, c=c)).tolist() == expected


@SETTINGS
@given(tandems())
def test_coupled_rates_equal_closed_form(config):
    expected = [
        [ref_coupled_rate(config, n1, n2) for n1 in range(1, config.section1.c + 1)]
        for n2 in range(config.section2.c + 1)
    ]
    assert coupled_rates(config).tolist() == expected


@SETTINGS
@given(sections(), st.floats(1e-3, 1e3))
def test_product_form_equals_exact_solve(section, lam):
    rates = service_rates(section)
    expected = solve_birth_death(lam, rates).probs
    # GTH never subtracts, so it declines no shifted chain
    pi = gth_stationary(ref_birth_death_chain(lam, rates), band=1)
    np.testing.assert_allclose(pi, expected, rtol=0, atol=(section.c + 1) * 1e-13)


@settings(max_examples=6, deadline=None)
@given(sections(max_c=3000), st.floats(-3.0, 3.0).map(lambda x: 10.0**x))
def test_product_form_equals_exact_solve_at_large_capacity(section, lam):
    # up to c of about 3000, where an unnormalized law from pi[0] = 1
    # overflows unless rescaled; the product form's rounding grows with c
    # (1.9e-13 was the largest gap in 600 random draws)
    rates = service_rates(section)
    pi = gth_stationary(ref_birth_death_chain(lam, rates), band=1)
    expected = solve_birth_death(lam, rates).probs
    np.testing.assert_allclose(pi, expected, rtol=0, atol=(section.c + 1) * 1e-15)


@SETTINGS
@given(sections(), st.floats(0.0, 1e3, exclude_min=True))
def test_chain_absorbing_at_capacity_is_refused(section, lam):
    # q_c = 0 and arrivals are lost at c: state c has no exit, so the
    # product form refuses the chain rather than return a law
    with pytest.raises(SingularModelError, match=f"state n={section.c}, where the speed law"):
        solve_birth_death(lam, absorbing_rates(section))


@SETTINGS
@given(tandems(max_c=30), st.floats(1e-3, 1e3))
def test_joint_law_equals_the_dense_gth_reference(config, lam):
    c1, c2 = config.section1.c, config.section2.c
    joint = tandem_stationary(config, lam)
    assert joint.shape == (c1 + 1, c2 + 1)
    reference = gth_stationary(ref_generator(config, lam), band=c2 + 1).reshape(c1 + 1, c2 + 1)
    np.testing.assert_allclose(joint, reference, rtol=0, atol=1e-14)


@SETTINGS
@given(
    tandems(max_c=30),
    st.lists(arrival_rates, min_size=1, max_size=6),
)
def test_joint_laws_over_a_vector_equal_the_scalar_laws(config, lams):
    batch = tandem_stationary(config, np.array(lams))
    assert batch.shape == (len(lams), config.section1.c + 1, config.section2.c + 1)
    single = np.array([tandem_stationary(config, lam) for lam in lams])
    np.testing.assert_allclose(batch, single, rtol=0, atol=1e-15)


@SETTINGS
@given(tandems(max_c=30), st.floats(1e-3, 1e3))
def test_shifted_joint_law_is_not_the_point_mass_at_capacity(config, lam):
    # a supply of 0 at c2 would leave every (n1, c2) with no exit; the
    # shifted one drains (c1, c2), and the joint law is not the point mass there
    assert ref_generator(config, lam)[-1].any()
    joint = tandem_stationary(config, lam)
    assert joint[-1, -1] < 1.0
    assert joint.sum() == pytest.approx(1.0, abs=1e-12)


@SETTINGS
@given(tandems(max_c=30), st.floats(1e-3, 1e3))
def test_joint_chain_flows_balance(config, lam):
    joint = tandem_stationary(config, lam)
    accepted = lam * (1 - joint[-1].sum())
    # q12(n1, n2) sits at coupled_rates[n2, n1 - 1]; nothing moves at n2 = c2
    transferred = (joint[1:, :-1] * coupled_rates(config)[:-1].T).sum()
    departed = joint.sum(axis=0)[1:] @ service_rates(config.section2)
    tol = 1e-9 * max(lam, 1.0)
    assert abs(accepted - transferred) <= tol
    assert abs(transferred - departed) <= tol


@SETTINGS
@given(tandems(), arrival_rates)
def test_conditional_rows_are_birth_death_laws(config, lam):
    matrix = conditional_matrix(config, lam)
    rates = coupled_rates(config)
    assert matrix.shape == (config.section2.c + 1, config.section1.c + 1)
    np.testing.assert_allclose(matrix.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    for row, row_rates in zip(matrix, rates):
        np.testing.assert_array_equal(row, solve_birth_death(lam, row_rates).probs)


@SETTINGS
@given(tandems(max_c=30), st.one_of(st.just(0.0), st.just(0), st.floats(1e-3, 1e3)))
def test_fixed_point_invariants(config, lam):
    tol = 1e-10
    result = solve_fixed_point(config, lam, tol=tol)
    if lam == 0:
        # the empty road, from the same body: the stop rule holds at hi = 0
        assert type(result.theta) is float and result.theta == 0.0
        assert (result.residual, result.iterations) == (0.0, 0)
        empty = OccupancyDistribution.point_mass(config.section1.c, 0).probs
        assert result.marginal.probs.tolist() == empty.tolist()
        empty = OccupancyDistribution.point_mass(config.section2.c, 0).probs
        assert result.downstream.probs.tolist() == empty.tolist()
    assert 0 <= result.theta <= lam
    # the stop rule is relative to the bracket's top, min(lam, max q12)
    assert result.residual <= tol * min(lam, coupled_rates(config).max())
    assert abs(result.marginal.probs.sum() - 1.0) <= 1e-12
    # departure-side flow balance: what leaves section 1 at the coupled
    # rates is theta, up to the residual and rounding relative to lam
    departed_given_n2 = (
        conditional_matrix(config, lam)[:, 1:] * coupled_rates(config)
    ).sum(axis=1)
    departed = result.downstream.probs @ departed_given_n2
    assert abs(departed - result.theta) <= result.residual + 1e-12 * lam


log_arrival_rates = st.floats(-3.0, 3.0).map(lambda x: 10.0**x)


@SETTINGS
@given(
    tandems(max_c=30),
    st.floats(-3.0, 300.0).map(lambda x: 10.0**x),
)
def test_fixed_point_stays_under_the_road_capacity_at_any_load(config, lam):
    # lam * P1(n1 < c1) is a mixture of E[q12 | n2], so theta <= max q12
    # however large lam is, and the solve converges there
    tol = 1e-10
    result = solve_fixed_point(config, lam, tol=tol)
    hi = min(lam, coupled_rates(config).max())
    assert 0 <= result.theta <= hi
    assert result.residual <= tol * hi
    measures = tandem_measures(result, lam)
    assert 0 <= measures.blocking <= 1


@SETTINGS
@given(tandems(max_c=30), log_arrival_rates)
def test_fixed_point_lands_where_bisection_does(config, lam):
    tol = 1e-10
    hi = min(lam, float(coupled_rates(config).max()))
    reference = ref_fixed_point(config, lam, tol=tol * hi)
    result = solve_fixed_point(config, lam, tol=tol)
    # h has slope at least 1, so each theta lies within tol * hi of the root
    assert abs(result.theta - reference.theta) <= 2 * tol * hi
    # ITP promises bisection's worst case plus n0 = 1 step on [0, hi], not
    # bisection's count: capped there, it meets tol * hi or leaves the root
    # in a bracket tol * hi wide, up to rounding
    n_max = math.ceil(math.log2(1 / tol)) + 1
    try:
        solve_fixed_point(config, lam, tol=tol, max_iter=n_max)
    except ConvergenceError as exc:
        lo, top = exc.bracket
        assert top - lo <= tol * hi + 2 * math.ulp(hi)


# idle, subnormal, ordinary and saturating rates mixed in one batch
batch_arrival_rates = st.lists(
    st.one_of(
        st.just(0.0), st.just(1e-320), st.floats(1e-3, 1e3), st.floats(1e17, 1.7e308)
    ),
    min_size=1,
    max_size=8,
)


@SETTINGS
@given(tandems(max_c=30), batch_arrival_rates)
def test_batched_fixed_point_has_the_bits_of_each_scalar_solve(config, lams):
    # each rate keeps its own bracket and stop rule inside the batch
    batch = solve_fixed_point(config, lams)
    assert len(batch) == len(lams)
    for lam, result in zip(lams, batch):
        alone = solve_fixed_point(config, lam)
        assert (result.theta, result.residual, result.iterations) == (
            alone.theta,
            alone.residual,
            alone.iterations,
        )
        assert result.marginal.probs.tobytes() == alone.marginal.probs.tobytes()
        assert result.downstream.probs.tobytes() == alone.downstream.probs.tobytes()


def in_time_units(config, s):
    """The tandem with every speed, so every rate, multiplied by s."""
    sections = (
        dataclasses.replace(
            x, diagram=dataclasses.replace(x.diagram, v_f=s * x.diagram.v_f, w=s * x.diagram.w)
        )
        for x in (config.section1, config.section2)
    )
    return TandemConfig(*sections)


@settings(max_examples=30, deadline=None)
@given(tandems(max_c=30), log_arrival_rates, st.floats(-12.0, 6.0).map(lambda e: 10.0**e))
def test_fixed_point_does_not_depend_on_the_unit_of_time(config, lam, s):
    # the stop rule and step budget are relative to the bracket [0, hi], so
    # a tandem in other time units solves alike: theta / s within a few tol
    # of hi, the same iterations up to one, and the oracle's marginal alike
    tol = 1e-10
    hi = min(lam, float(coupled_rates(config).max()))
    scaled = in_time_units(config, s)
    result = solve_fixed_point(config, lam, tol=tol)
    other = solve_fixed_point(scaled, lam * s, tol=tol)
    assert abs(other.theta / s - result.theta) <= 3 * tol * hi
    assert abs(other.iterations - result.iterations) <= 1
    exact = tandem_stationary(config, lam).sum(axis=-1)
    np.testing.assert_allclose(
        tandem_stationary(scaled, lam * s).sum(axis=-1), exact, rtol=0, atol=1e-12
    )


# each scan solves 1000 downstream laws one at a time
@settings(max_examples=25, deadline=None)
@given(tandems(max_c=30), st.floats(1e-3, 1e3))
def test_scan_brackets_hold_the_fixed_point(config, lam):
    tol = 1e-10
    brackets = scan_roots(config, lam)
    # no root lies above max q12, so the grid stops at twice that
    top = min(lam, 2 * coupled_rates(config).max())
    step = top / (_SCAN_POINTS - 1)
    for lo, hi in brackets:
        assert 0 <= lo < hi <= top
        assert hi - lo == pytest.approx(step, rel=1e-9)
    # h = theta - lam * P1(n1 < c1) has slope at least 1, so the solve's
    # theta lies within tol * min(lam, max q12) <= tol * top of the root
    # that one bracket holds
    theta = solve_fixed_point(config, lam, tol=tol).theta
    assert any(lo - 2 * tol * top <= theta <= hi + 2 * tol * top for lo, hi in brackets)


def _outcome(fn, *args):
    """fn's result, or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as error:
        return type(error), str(error)


# each example scans twice, 1000 downstream laws a scan
@settings(max_examples=25, deadline=None)
@given(tandems(max_c=30), st.floats(-3.0, 3.0).map(lambda e: 10.0**e))
def test_scan_brackets_match_the_per_point_loop(config, lam):
    # one rate table for the whole scan gives the loop's brackets exactly
    assert _outcome(scan_roots, config, lam) == _outcome(ref_scan_brackets, config, lam)


@pytest.mark.parametrize("lam", [0.0, 1e-320, 1e-310, 1e300, 1e308])
def test_scan_brackets_match_the_per_point_loop_at_extreme_loads(lam):
    config = default_scenario().tandem()
    assert _outcome(scan_roots, config, lam) == _outcome(ref_scan_brackets, config, lam)


@SETTINGS
@given(tandems(max_c=30), st.floats(1e-3, 1e3))
def test_blocking_grows_with_the_downstream_rate(config, lam):
    # q12 does not increase in n2, so P(c1 | n2) does not decrease in n2;
    # section 2's law grows stochastically with theta; so P1_c1(theta)
    # does not decrease, and the fixed-point residual has one root
    blocked = conditional_matrix(config, lam)[:, -1]
    assert np.all(np.diff(blocked) >= -1e-15)
    p1_c1 = [
        solve_triangular(theta, config.section2).probs @ blocked
        for theta in np.linspace(0.0, lam, 41)
    ]
    assert np.all(np.diff(p1_c1) >= -1e-14)


def assert_same_run(result, reference):
    np.testing.assert_array_equal(result.empirical.probs, reference.empirical.probs)
    assert result.elapsed_model_time == reference.elapsed_model_time
    assert result.events == reference.events
    assert result.absorbed == reference.absorbed


# no budget is a multiple of the 4096-event buffer, so the last one is
# partial; 2**15 + 1 also runs past the reference's first buffer
event_budgets = st.sampled_from([10**4, 10**4 + 1, 3 * 4096 + 5, 2**15 + 1])
log_uniform = st.floats(-2.0, 2.0).map(lambda x: 10.0**x)


@settings(max_examples=40, deadline=None)
@given(
    sections(),
    st.booleans(),
    log_uniform,
    st.integers(0, 2**32 - 1),
    event_budgets,
)
def test_simulation_equals_the_event_by_event_loop(section, zero_at_c, lam, seed, events):
    rates = absorbing_rates(section) if zero_at_c else service_rates(section)
    assert_same_run(
        simulate(lam, rates, seed, events), ref_simulate(lam, rates, seed, events)
    )


def test_full_size_simulation_equals_the_event_by_event_loop(section1):
    # the benchmark's run, 1e6 events at lambda = 0.8: 245 buffers, where the
    # budgets above stop at 9
    rates = service_rates(section1)
    assert_same_run(simulate(0.8, rates, 7, 10**6), ref_simulate(0.8, rates, 7, 10**6))


@pytest.mark.parametrize("size", [1, 2, 7, 4096])
def test_the_buffer_size_does_not_change_the_run(section1, size, monkeypatch):
    # a run that never absorbs, and runs with q_c = 0 that absorb at c, each the
    # event-by-event loop's at any buffer size: with buffers of 1 or 2
    # events, the absorbing draw lands on a buffer edge, and the draws left
    # unread in its buffer must not count as events
    runs = [(0.8, service_rates(section1), 7, 10**4 + 3)]
    runs += [(60.0, absorbing_rates(section1), seed, 10**4) for seed in range(5)]
    references = [ref_simulate(*run) for run in runs]
    assert [r.absorbed for r in references] == [False] + [True] * 5
    monkeypatch.setattr(ctmc, "_SIM_BUFFER", size)
    for run, reference in zip(runs, references):
        assert_same_run(simulate(*run), reference)


@settings(max_examples=20, deadline=None)
@given(sections(), st.floats(30.0, 100.0), st.integers(0, 2**32 - 1), event_budgets)
def test_absorbing_simulation_equals_the_event_by_event_loop(section, lam, seed, events):
    # q_c = 0, and arrivals far outpace service
    rates = absorbing_rates(section)
    reference = ref_simulate(lam, rates, seed, events)
    assert reference.absorbed
    assert_same_run(simulate(lam, rates, seed, events), reference)


# CLI runs over drawn scenario documents and flags, each with at most one
# edge value in its document and one in its flags
EDGE_VALUES = st.sampled_from([5e-324, 1e-310, 0.0, -1.0, 1e300])
LAW_KEYS = ("distribution", "marginal", "downstream", "empirical")
# the one warning a run may give on exit 0: a paper grid off a non-integer v_f
# or L / v_f, as warnings.formatwarning writes it, with its source line
GRID_WARNING = re.compile(
    r"\S+:\d+: UserWarning: (speed grid truncated|time grid anchored)[^\n]*\n(  [^\n]*\n)?"
)


@st.composite
def section_documents(draw):
    # a capacity L * rho_j from 2 to 60, unless an edge value lands in one
    rho_j = draw(st.floats(0.01, 0.2))
    return {"L": draw(st.floats(2.0, 60.0)) / rho_j, "v_f": draw(st.floats(1.0, 40.0)),
            "w": draw(st.floats(1.0, 30.0)), "rho_j": rho_j}


@st.composite
def scenario_documents(draw):
    shape = {"model": st.sampled_from(["triangular", "linear", "exponential"]),
             "beta": st.floats(1.0, 200.0), "gamma": st.floats(0.5, 5.0)}
    doc = {"sections": draw(st.lists(section_documents(), min_size=1, max_size=2)),
           **draw(st.fixed_dictionaries({}, optional=shape))}
    fields = [(part, key) for part in [*doc["sections"], doc] for key in part
              if key not in ("sections", "model")]  # every number of the document
    if draw(st.booleans()):
        part, key = draw(st.sampled_from(fields))
        part[key] = draw(EDGE_VALUES)
    return doc


@st.composite
def cli_flags(draw):
    # not -inf, which argparse reads as an option
    lam = repr(draw(st.floats(0.01, 3.0) | EDGE_VALUES | st.sampled_from([math.inf, math.nan])))
    section = draw(st.sampled_from([(), ("--section", "1"), ("--section", "2")]))
    events = ("--events", "10000")
    return draw(st.sampled_from([
        ("solve-section", "--lambda", lam, *section),
        ("solve-tandem", "--lambda", lam, *draw(st.sampled_from([(), ("--scan-roots",)]))),
        ("distributions", "--lambda", lam, *section,
         *draw(st.sampled_from([(), ("--kind", "travel-time"), ("--mode", "paper-grid")]))),
        ("sweep", "--lambda-from", "0", "--lambda-to", lam, "--steps", "3", *section),
        ("simulate", "--lambda", lam, *events, *section),
        ("fit-exponential", "--fit-a", "5", "--fit-va", lam, "--fit-b", "12", "--fit-vb", "1"),
        ("figure-data", "--figure", draw(st.sampled_from(["fig4", "fig5", "fig6", "fig7"]))),
    ]))


def numbers_and_laws(text: str) -> tuple[list[float], list[list[float]]]:
    """Every number of a JSON document or a CSV table, and the document's laws."""
    if text.startswith("{"):
        doc = json.loads(text)
        values = [v for v in doc.values() if not isinstance(v, (str, bool, type(None)))]
        laws = [doc[key] for key in LAW_KEYS if key in doc]
        return [float(x) for v in values for x in np.ravel(v)], laws
    rows = [line.split(",") for line in text.splitlines()[1:]]
    return [float(cell) for row in rows for cell in row], []


# the seed fixes the 150 draws, which would otherwise follow this test's source
@seed(2016)
@settings(max_examples=150, deadline=None, derandomize=True)
@given(scenario_documents(), cli_flags())
@example(  # a subnormal q_1: the lone transit time 1 / q_1 passes the float range
    {"sections": [{"L": 300.0, "v_f": 1e-310, "w": 1e300, "rho_j": 1.0}]},
    ("solve-section", "--lambda", "1e-310"),
)
@example(  # the masses below c sum to 1 + 2**-52: throughput was an ulp above lambda
    {"sections": [{"L": 312.0, "v_f": 24.0, "w": 9.0, "rho_j": 0.125}]},
    ("solve-section", "--lambda", "0.125"),
)
@example(  # a law summing to 1 whose four 12-digit cells sum to 1 + 1.2e-12
    {"sections": [{"L": 29.56484647030713, "v_f": 3.6956058087883914, "w": 1.0, "rho_j": 0.125}]},
    ("distributions", "--lambda", "0.125"),
)
def test_cli_runs_keep_their_invariants(doc, argv):
    run = run_in_process([*argv, "--config", "-"], json.dumps(doc))
    assert run.code in (0, 2, 3, 4), run.err
    if run.code:
        assert run.out == ""
        assert run.err.startswith("error: ") and run.err.count("\n") == 1, run.err
        return
    assert GRID_WARNING.sub("", run.err) == "", run.err
    values, laws = numbers_and_laws(run.out)
    assert all(math.isfinite(x) for x in values), run.out
    if run.out.startswith("{"):
        payload = json.loads(run.out)
        rates = [payload[key] for key in ("throughput", "theta") if key in payload]
        assert all(rate <= payload["lambda"] for rate in rates), run.out
        assert payload.get("expected_travel_time", 1.0) > 0, run.out
    # a value,probability law, unless a paper-grid histogram dropped the mass off its grid;
    # 12 significant digits move each cell by up to 5e-12 of itself, so its sum too
    tol = 1e-12
    if run.out.startswith("value,probability") and "paper-grid" not in argv:
        laws.append(values[1::2])
        tol += 5e-12
    for law in laws:
        assert abs(math.fsum(law) - 1.0) <= tol, run.out
