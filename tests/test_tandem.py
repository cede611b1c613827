import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from roadqueue import (
    ConvergenceError,
    RoadSection,
    Scenario,
    TandemConfig,
    TriangularDiagram,
    coupled_rates,
    scan_roots,
    service_rates,
    solve_birth_death,
    solve_fixed_point,
    solve_triangular,
    tandem_measures,
)
from roadqueue import fundamental, queueing, tandem
from roadqueue.tandem import _SCAN_POINTS, FixedPointResult, _residual, conditional_matrix

# converged marginal of the benchmark tandem at lam = 1, theta = 0.6,
# frozen from the decomposition mixture
MARGINAL_LAM1_THETA06 = [
    3.3805067542457805e-05,
    0.00012073238409387905,
    0.00021559496098675358,
    0.00025764010474127425,
    0.0003080764569954122,
    0.00036867065497069767,
    0.0004416128400676783,
    0.0005296527055785657,
    0.0006363068904023085,
    0.0007662012714695139,
    0.0009256998038688896,
    0.0011242400941496558,
    0.0013777884787474605,
    0.001720526960088935,
    0.0022608811768712145,
    0.0035763303097978466,
    0.01053993162232117,
    0.07747092314784981,
    0.8973253850694566,
]


def marginal(config, lam, theta):
    """Section-1 law mixing the conditionals over the downstream law at theta."""
    weights = solve_triangular(theta, config.section2).probs
    return weights @ conditional_matrix(config, lam)


def conditional_means(config, lam):
    return conditional_matrix(config, lam) @ np.arange(config.section1.c + 1)


class TestTandemConfig:
    def test_shifted_by_construction(self, section1, section2):
        # two sections are all a tandem holds; neither it nor a scenario
        # has a convention field, so no tandem can be asked for another
        fields = [field.name for field in dataclasses.fields(TandemConfig)]
        assert fields == ["section1", "section2"]
        assert TandemConfig.convention == "shifted"
        assert TandemConfig(section1, section2).convention == "shifted"
        with pytest.raises(TypeError):
            TandemConfig(section1, section2, "exact")
        assert "convention" not in [field.name for field in dataclasses.fields(Scenario)]
        with pytest.raises(TypeError):
            Scenario(sections=(section1, section2), convention="exact")

    def test_largest_square_decomposition_is_accepted(self, section1, traced_peak):
        # one rate's conditionals, two more tables of (c + 1)**2 float64 and
        # 128 kB of ufunc buffers, beside its laws, fit 256 MiB up to c = 3341
        # (tests/test_refusals.py refuses c = 3342)
        section = dataclasses.replace(section1, L=3341 / 0.18, c=3341)
        accepted, peak = traced_peak(lambda: TandemConfig(section, section))
        assert accepted.section2.c == 3341
        assert peak < 2**20


class TestCoupledRate:
    # row n2 of coupled_rates holds q12(1..c1, n2)

    def test_light_traffic_is_upstream_demand(self, tandem_config):
        # one vehicle, empty downstream: v_f1 * 1 / L1 = 0.28
        assert coupled_rates(tandem_config)[0, 0] == pytest.approx(0.28)

    def test_downstream_capacity_flow_caps(self, tandem_config):
        # many vehicles, roomy downstream: q2_max = 0.84 binds
        rates = coupled_rates(tandem_config)
        assert rates[0, 5] == pytest.approx(0.84)
        assert rates[0, 17] == pytest.approx(0.84)

    def test_downstream_supply_throttles(self, tandem_config):
        # nearly full downstream under the shifted convention:
        # w2 * (c2 - n2 + 1) / L2 = 7 * 2 / 100
        rates = coupled_rates(tandem_config)
        assert rates[17, 17] == pytest.approx(0.14)
        assert rates[18, 17] == pytest.approx(0.07)

    def test_shifted_supply_is_positive_at_capacity(self, tandem_config):
        # the smallest q12 is w2 * 1 / L2 at n2 = c2: no conditional row
        # traps its arrivals
        assert coupled_rates(tandem_config).min() == pytest.approx(0.07)

    def test_monotone_in_both_counts(self, tandem_config):
        rates = coupled_rates(tandem_config)
        assert rates.shape == (19, 18)
        assert np.all(np.diff(rates, axis=1) >= -1e-15)
        assert np.all(np.diff(rates, axis=0) <= 1e-15)


class TestDownstreamDistribution:
    # the scan solves section 2 alone, fed at theta, on one table of its rates
    def test_matches_standalone_solve(self, tandem_config, section2):
        passing = conditional_matrix(tandem_config, 1.0)[:, :-1].sum(axis=1)
        d = solve_birth_death(0.6, service_rates(section2))
        e = solve_triangular(0.6, section2)
        assert d.probs.tobytes() == e.probs.tobytes()
        mixture = np.matmul(e.probs[None, :], passing[:, None])[0, 0]
        assert _residual(d.probs, 1.0, passing, 0.6) == 0.6 - min(mixture, 1.0)

    def test_idle_feed(self, tandem_config, section2):
        passing = conditional_matrix(tandem_config, 1.0)[:, :-1].sum(axis=1)
        d = solve_birth_death(0.0, service_rates(section2))
        assert d[0] == 1.0
        # h(0) = -lam * P(n1 < c1 | n2 = 0)
        assert _residual(d.probs, 1.0, passing, 0.0) == -passing[0]


class TestConditionalDistribution:
    def test_zero_arrivals(self, tandem_config):
        assert conditional_matrix(tandem_config, 0.0)[5, 0] == 1.0

    def test_zero_supply_degenerates_to_full(self, section1, section2, tandem_config):
        # a supply of 0 at c2 would trap row c2 at c1; the shifted supply
        # w2 / L2 there keeps it off the point mass at c1
        row = conditional_matrix(tandem_config, 0.5)[section2.c]
        assert row[section1.c] < 1.0
        assert row.sum() == pytest.approx(1.0, abs=1e-12)
        assert (row > 0).all()

    def test_fuller_downstream_means_fuller_upstream(self, tandem_config):
        means = conditional_means(tandem_config, 0.8)
        assert all(a <= b + 1e-12 for a, b in zip(means, means[1:]))

    def test_matrix_stacks_conditionals(self, tandem_config):
        matrix = conditional_matrix(tandem_config, 0.8)
        rates = coupled_rates(tandem_config)
        assert matrix.shape == (19, 19)
        for n2 in (0, 7, 18):
            np.testing.assert_array_equal(
                matrix[n2], solve_birth_death(0.8, rates[n2]).probs
            )


class TestMarginalDistribution:
    def test_frozen_mixture(self, tandem_config):
        probs = marginal(tandem_config, 1.0, 0.6)
        np.testing.assert_allclose(probs, MARGINAL_LAM1_THETA06, rtol=1e-12)

    def test_is_convex_mixture(self, tandem_config):
        # marginal lies between the extreme conditionals in mean
        mean = marginal(tandem_config, 0.8, 0.4) @ np.arange(19)
        means = conditional_means(tandem_config, 0.8)
        assert means[0] <= mean <= means[-1]


class TestSolveFixedPoint:
    def test_zero_load(self, tandem_config):
        result = solve_fixed_point(tandem_config, 0.0)
        assert result.theta == 0.0
        assert result.iterations == 0
        assert result.marginal[0] == 1.0
        assert result.downstream[0] == 1.0

    def test_residual_meets_tolerance(self, tandem_config):
        for lam in (0.1, 0.5, 1.0, 2.0):
            result = solve_fixed_point(tandem_config, lam)
            assert result.residual <= 1e-10
            assert result.iterations <= 200

    def test_fixed_point_equation_holds(self, tandem_config):
        result = solve_fixed_point(tandem_config, 0.8)
        rhs = 0.8 * (1.0 - result.marginal.blocking)
        assert result.theta == pytest.approx(rhs, abs=1e-10)

    def test_marginal_consistent_with_theta(self, tandem_config):
        result = solve_fixed_point(tandem_config, 0.8)
        rebuilt = marginal(tandem_config, 0.8, result.theta)
        np.testing.assert_allclose(result.marginal.probs, rebuilt, rtol=1e-12)

    def test_light_load_passes_through(self, tandem_config):
        # nearly nothing is blocked, so theta is nearly lam
        result = solve_fixed_point(tandem_config, 0.1)
        assert result.theta == pytest.approx(0.1, abs=1e-6)

    def test_heavy_load_saturates(self, tandem_config):
        # theta stabilizes far below lam once blocking dominates
        result = solve_fixed_point(tandem_config, 2.0)
        assert result.theta == pytest.approx(0.4588910036254674, rel=1e-9)

    def test_theta_nondecreasing_in_lam(self, tandem_config):
        thetas = [
            solve_fixed_point(tandem_config, lam).theta
            for lam in np.linspace(0.05, 2.0, 16)
        ]
        assert all(a <= b + 1e-9 for a, b in zip(thetas, thetas[1:]))

    def test_deterministic(self, tandem_config):
        a = solve_fixed_point(tandem_config, 1.3)
        b = solve_fixed_point(tandem_config, 1.3)
        assert a.theta == b.theta
        assert a.iterations == b.iterations

    def test_impossible_tolerance_raises_with_bracket(self, tandem_config):
        # two evaluations cannot reach 1e-18 unless one lands on the root
        with pytest.raises(ConvergenceError, match="2 residual") as excinfo:
            solve_fixed_point(tandem_config, 0.8, tol=1e-18, max_iter=2)
        lo, hi = excinfo.value.bracket
        assert 0.0 <= lo < hi <= min(0.8, coupled_rates(tandem_config).max())

    @pytest.mark.parametrize(
        "length_m, evaluations, bracket",
        [
            (100.0, 34, (0.45372928604317525, 0.4537292860431753)),
            (300.0, 23, (0.39754850408929054, 0.3975485040892906)),
            (1000.0, 14, (0.3710526829899741, 0.3710526829899742)),
        ],
    )
    def test_unreachable_tol_stops_on_adjacent_floats(
        self, tandem_config, monkeypatch, length_m, evaluations, bracket
    ):
        # no theta meets tol = 1e-18 at c = 18, 54 and 180: a step that would
        # re-solve an end of the bracket bisects, and the solve stops once the
        # ends are adjacent floats; it ran all 200 evaluations on 24, 17 and
        # 14 distinct theta before, ending on these brackets
        config = TandemConfig(
            RoadSection(L=length_m, diagram=tandem_config.section1.diagram),
            RoadSection(L=length_m, diagram=tandem_config.section2.diagram),
        )
        solved = []
        solve = tandem.solve_triangular

        def spy(theta, section):
            solved.extend(np.atleast_1d(theta).tolist())
            return solve(theta, section)

        monkeypatch.setattr(tandem, "solve_triangular", spy)
        with pytest.raises(ConvergenceError, match=f"after {evaluations} residual") as excinfo:
            solve_fixed_point(config, 0.8, tol=1e-18)
        assert excinfo.value.bracket == bracket
        assert np.nextafter(*bracket) == bracket[1]
        # h(0), h(hi) and one solve per step, no theta solved twice
        assert len(solved) == len(set(solved)) == evaluations + 2

    @pytest.mark.parametrize("length_m", [100.0, 300.0, 1000.0])
    def test_few_residual_evaluations_at_any_capacity(self, tandem_config, length_m):
        # the bundled geometry scaled to c = 18, 54 and 180; bisection
        # took 30, 36 and 38 evaluations here
        config = TandemConfig(
            RoadSection(L=length_m, diagram=tandem_config.section1.diagram),
            RoadSection(L=length_m, diagram=tandem_config.section2.diagram),
        )
        assert config.section1.c == round(0.18 * length_m)
        assert solve_fixed_point(config, 0.8).iterations <= 15

    @pytest.mark.parametrize("lam", [1e-320, 1e-310])
    def test_subnormal_load_passes_through(self, tandem_config, lam):
        result = solve_fixed_point(tandem_config, lam)
        assert 0.0 <= result.theta <= lam
        assert result.residual <= 1e-10

    @pytest.mark.parametrize("lam", [1e7, 1e16, 1e18, 1e300, 1e308, 1.7e308])
    def test_huge_load_converges_to_the_saturated_throughput(self, tandem_config, lam):
        # the bracket is [0, max q12] at any lam, and the passing
        # probability is summed from masses that do not cancel
        result = solve_fixed_point(tandem_config, lam)
        assert result.theta == pytest.approx(0.458891021306, abs=1e-9)
        assert result.residual <= 1e-10
        assert result.iterations <= 8
        assert result.marginal.blocking <= 1.0
        assert tandem_measures(result, lam).throughput == result.theta

    def test_light_load_mixture_past_one_keeps_the_bracket(self, tandem_config):
        # at lam = 0.01 the passing mixture at theta = lam sums to 1 + 2**-52;
        # capped at 1, h(lam) stays nonnegative and theta = lam is the root
        lam = 0.01
        passing = conditional_matrix(tandem_config, lam)[:, :-1].sum(axis=1)
        assert solve_triangular(lam, tandem_config.section2).probs @ passing > 1.0
        down = solve_triangular(lam, tandem_config.section2).probs
        assert _residual(down, lam, passing, lam) >= 0.0
        result = solve_fixed_point(tandem_config, lam)
        assert result.theta == lam
        assert result.residual <= 1e-10

    def test_a_residual_that_breaks_the_bracket_is_refused(self, tandem_config, monkeypatch):
        # flow balance forces h(0) <= 0; a positive h(0) is a fault, not a root
        monkeypatch.setattr(tandem, "_residual", lambda down, lam, passing, theta: np.ones(1))
        with pytest.raises(AssertionError, match=r"fixed-point bracket lost: h\(0\)=1.0"):
            solve_fixed_point(tandem_config, 0.8)

    def test_root_at_the_largest_coupled_rate(self, section1):
        # a two-vehicle downstream section at lam = 100: the road carries
        # max q12 up to rounding, so h(max q12) is a few ulps below 0
        section2 = RoadSection(L=10.0, diagram=TriangularDiagram(14.0, 14.0, 0.18))
        config = TandemConfig(section1, section2)
        hi = float(coupled_rates(config).max())
        passing = conditional_matrix(config, 100.0)[:, :-1].sum(axis=1)
        assert -1e-10 <= _residual(solve_triangular(hi, section2).probs, 100.0, passing, hi) < 0.0
        result = solve_fixed_point(config, 100.0)
        assert result.theta == hi
        assert result.residual <= 1e-10
        assert result.iterations == 0


class TestBatchedFixedPoint:
    def test_impossible_tolerance_names_the_first_unconverged_bracket(self, tandem_config):
        # lam = 0 converges on its bracket ends; lam = 0.3 is the first left
        with pytest.raises(ConvergenceError) as alone:
            solve_fixed_point(tandem_config, 0.3, tol=1e-18, max_iter=2)
        with pytest.raises(ConvergenceError, match="2 residual") as batch:
            solve_fixed_point(tandem_config, [0.0, 0.3, 0.8], tol=1e-18, max_iter=2)
        assert batch.value.bracket == alone.value.bracket
        assert str(batch.value) == str(alone.value)

    def test_stacked_residual_has_the_bits_of_the_scalar_one(self, tandem_config):
        # the scan's scalar residual takes a 1-D @; each stacked row must
        # give the same bits (np.einsum, for one, does not always)
        hi = coupled_rates(tandem_config).max()
        lams = np.repeat([1e-320, 0.01, 0.3, 0.8, 2.0, 1e17, 1e300], 40)
        thetas = np.minimum(lams, hi) * np.tile(np.linspace(0.0, 1.0, 40), 7)
        passing = conditional_matrix(tandem_config, lams)[..., :-1].sum(axis=-1)
        down = solve_triangular(thetas, tandem_config.section2)
        h = _residual(down, lams, passing, thetas)
        for i, (lam, theta) in enumerate(zip(lams.tolist(), thetas.tolist())):
            down_i = solve_triangular(theta, tandem_config.section2)
            h_i = _residual(down_i.probs, lam, passing[i], theta)
            assert h[i].tobytes() == np.float64(h_i).tobytes()
            assert down[i].tobytes() == down_i.probs.tobytes()

    def test_empty_batch(self, tandem_config):
        assert solve_fixed_point(tandem_config, []) == []

    def test_scalar_and_vector_shapes(self, tandem_config):
        assert isinstance(solve_fixed_point(tandem_config, 0.8), FixedPointResult)
        results = solve_fixed_point(tandem_config, np.array([0.8]))
        assert isinstance(results, list) and len(results) == 1

    @pytest.mark.parametrize("c1, c2, k", [(180, 180, 10), (540, 60, 10), (60, 540, 10), (18, 18, 1000)])
    @pytest.mark.parametrize("fraction", [0.35, 0.5, 0.65, 0.8, 0.95])
    def test_runs_under_a_small_cap_keep_the_bits_and_the_memory(
        self, tandem_config, monkeypatch, c1, c2, k, fraction
    ):
        # a rate in a run holds its conditionals, a share of 8 * (c1 + 1) *
        # (c2 + 1) bytes, and a few laws, and each result is kept until the
        # call returns: at c = 18 a rate holds about 1.6 shares, so runs
        # sized at one share a rate passed the cap
        config = TandemConfig(
            RoadSection(L=c1 / 0.18, diagram=tandem_config.section1.diagram, c=c1),
            RoadSection(L=c2 / 0.18, diagram=tandem_config.section2.diagram, c=c2),
        )
        lams = np.linspace(0.1, 2.0, k)
        tracemalloc.start()
        whole = solve_fixed_point(config, lams)
        unsplit_peak = tracemalloc.get_traced_memory()[1]
        cap = int(fraction * unsplit_peak)
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]  # the unsplit results
        monkeypatch.setattr(fundamental, "_ARRAY_CAP_BYTES", cap)
        runs = solve_fixed_point(config, lams)
        peak = tracemalloc.get_traced_memory()[1] - held
        tracemalloc.stop()
        assert unsplit_peak > cap > peak
        for a, b in zip(whole, runs, strict=True):
            assert (a.theta, a.residual, a.iterations) == (b.theta, b.residual, b.iterations)
            assert a.marginal.probs.tobytes() == b.marginal.probs.tobytes()
            assert a.downstream.probs.tobytes() == b.downstream.probs.tobytes()
        # the product form's own guard sized each run's laws and refused none,
        # as it never counts more bytes a rate than _rates_that_fit
        guarded = []

        def guard(what, *sizes):
            guarded.append(what)
            return fundamental.check_array_bytes(what, *sizes)

        monkeypatch.setattr(queueing, "check_array_bytes", guard)
        solve_fixed_point(config, lams)
        size = tandem._rates_that_fit(config, k)
        assert size < k and f"the product form at {size} arrival rates" in guarded

    def test_results_past_the_cap_are_refused(self, tandem_config, monkeypatch):
        # each result keeps its two laws and objects until the call returns,
        # so no run size fits 1000 rates' results under a 1 MB cap at c = 18
        monkeypatch.setattr(fundamental, "_ARRAY_CAP_BYTES", 10**6)
        assert solve_fixed_point(tandem_config, np.linspace(0.1, 2.0, 100))
        with pytest.raises(ValueError, match=r"decomposition at 1000 rate\(s\).*MiB cap"):
            solve_fixed_point(tandem_config, np.linspace(0.1, 2.0, 1000))


class TestScanRoots:
    def test_finds_the_bisection_root(self, tandem_config):
        result = solve_fixed_point(tandem_config, 0.8)
        brackets = scan_roots(tandem_config, 0.8)
        assert brackets
        assert any(lo <= result.theta <= hi for lo, hi in brackets)

    def test_empty_for_zero_load(self, tandem_config):
        assert scan_roots(tandem_config, 0.0) == []

    @pytest.mark.parametrize("lam", [1e-320, 1e-310])
    def test_subnormal_load_passes_through(self, tandem_config, lam):
        # theta = lam to within rounding: the root sits in the last grid cell
        grid = np.linspace(0.0, lam, _SCAN_POINTS)
        assert scan_roots(tandem_config, lam) == [(grid[-2], grid[-1])]

    def test_light_load_root_in_the_last_cell_at_c180(self, tandem_config):
        # the passing mixture at theta = lam sums past 1 here; capped, the
        # last grid value stays nonnegative and the root keeps its bracket
        config = TandemConfig(
            RoadSection(L=1000.0, diagram=tandem_config.section1.diagram),
            RoadSection(L=1000.0, diagram=tandem_config.section2.diagram),
        )
        grid = np.linspace(0.0, 0.1, _SCAN_POINTS)
        assert scan_roots(config, 0.1) == [(grid[-2], grid[-1])]

    # designed residuals on the grid: exact zeros at either end and in runs,
    # a negative zero, and a NaN, which counts as neither sign nor zero
    @pytest.mark.parametrize(
        "values, cells",
        [
            ([0.0] + [1.0] * 999, [0]),
            ([0.0] + [-1.0] * 999, [0]),
            ([-1.0] * 999 + [0.0], [998]),
            ([1.0] * 999 + [0.0], []),
            ([-1.0] * 10 + [0.0] * 5 + [1.0] * 985, [9, 10, 11, 12, 13, 14]),
            ([1.0] * 10 + [0.0] * 5 + [-1.0] * 985, [10, 11, 12, 13, 14]),
            ([-1.0] * 500 + [-0.0] + [1.0] * 499, [499, 500]),
            ([-1.0] * 500 + [math.nan] + [1.0] * 499, [499]),
            ([1.0] * 500 + [math.nan] + [-1.0] * 499, [500]),
            ([math.nan] * 1000, []),
        ],
    )
    def test_bracket_rule_at_its_edges(self, tandem_config, monkeypatch, values, cells):
        assert len(values) == _SCAN_POINTS
        feed = iter(values)
        monkeypatch.setattr(tandem, "_residual", lambda *args: np.float64(next(feed)))
        grid = np.linspace(0.0, min(0.8, 2 * coupled_rates(tandem_config).max()), _SCAN_POINTS)
        # the per-point rule: a zero, or a sign change to the next point
        loop = [
            (float(grid[i]), float(grid[i + 1]))
            for i in range(_SCAN_POINTS - 1)
            if values[i] == 0.0 or (values[i] < 0) != (values[i + 1] < 0)
        ]
        brackets = scan_roots(tandem_config, 0.8)
        assert next(feed, None) is None
        assert brackets == loop == [(grid[i], grid[i + 1]) for i in cells]
        assert all(type(x) is float for bracket in brackets for x in bracket)

    @pytest.mark.parametrize("length_m, c", [(100.0, 18), (1000.0, 180)])
    def test_one_rate_table_per_scan(self, tandem_config, monkeypatch, length_m, c):
        # the scan's 1000 downstream laws share one table of section 2's rates
        config = TandemConfig(
            RoadSection(L=length_m, diagram=tandem_config.section1.diagram),
            RoadSection(L=length_m, diagram=tandem_config.section2.diagram),
        )
        assert config.section2.c == c
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return service_rates(*args, **kwargs)

        monkeypatch.setattr(tandem, "service_rates", counted)
        assert scan_roots(config, 0.8)
        assert calls == [(config.section2,)]

    @pytest.mark.parametrize("lam", [2.0, 1e7, 1e300, 1e308])
    def test_huge_load_saturates(self, tandem_config, lam):
        # theta stays below max q12, so the grid stops at 2 max q12 and
        # one of its cells, 0.0017 veh/s wide, holds the root at any lam
        grid = np.linspace(0.0, 2 * coupled_rates(tandem_config).max(), _SCAN_POINTS)
        i = np.searchsorted(grid, solve_fixed_point(tandem_config, lam).theta)
        assert scan_roots(tandem_config, lam) == [(grid[i - 1], grid[i])]


class TestTandemMeasures:
    def test_littles_law_on_marginal(self, tandem_config):
        result = solve_fixed_point(tandem_config, 0.5)
        m = tandem_measures(result, 0.5)
        assert m.throughput == result.theta
        assert m.expected_travel_time == pytest.approx(
            result.marginal.mean() / result.theta, rel=1e-12
        )
        assert not m.free_flow_fallback

    @pytest.mark.parametrize("lam", [5e-324, 1e-320, 1e-310])
    def test_subnormal_theta_free_flow_fallback(self, tandem_config, lam):
        # Little's law on a subnormal count and theta keeps few bits
        result = solve_fixed_point(tandem_config, lam)
        m = tandem_measures(result, lam)
        assert m.free_flow_fallback
        assert m.expected_travel_time == 100.0 / 28.0 == 3.5714285714285716

    def test_zero_theta_free_flow_fallback(self, tandem_config):
        result = solve_fixed_point(tandem_config, 0.0)
        m = tandem_measures(result, 0.0)
        assert m.free_flow_fallback
        assert m.expected_travel_time == pytest.approx(100.0 / 28.0)
