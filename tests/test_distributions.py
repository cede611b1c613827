import math

import numpy as np
import pytest

from roadqueue import (
    LinearCongestionModel,
    DiscreteDistribution,
    OccupancyDistribution,
    RoadSection,
    TriangularDiagram,
    service_rates,
    solve_birth_death,
    solve_triangular,
    speed_dist_linear,
    speed_dist_triangular,
    travel_time_dist_linear,
    travel_time_dist_triangular,
)
from roadqueue.distributions import PAPER_GRID, _pushforward
from roadqueue.queueing import jain_smith_rates

# grid-mode speed table at lam = 0.8 (L=100, v_f=28, c=18), one cell per
# integer speed 1..28, frozen from the histogram construction
GRID_SPEED_08 = [
    0.003968736081765647,
    0.001389057628617976,
    0.001389057628617976,
    0.0009183214322529955,
    0.0008571000034361297,
    0.0008571000034361297,
    0.000999950004008818,
    0.0013610430610120012,
    0.0013610430610120012,
    0.0020642486425348685,
    0.0033716061161402876,
    0.0033716061161402876,
    0.005769192687617823,
    0.005769192687617823,
    0.010096087203331194,
    0.017668152605829587,
    0.017668152605829587,
    0.030232172236641743,
    0.04937921465318151,
    0.04937921465318151,
    0.07489180889065862,
    0.10193607321228534,
    0.10193607321228534,
    0.11892541874766623,
    0.11099705749782181,
    0.11099705749782181,
    0.07338138801244887,
    0.07338138801244887,
]

# first cells of the grid-mode travel-time table at lam = 0.8; the grid
# runs t = 3..100 and t = 3 maps outside the state space (zero weight)
GRID_TIME_08_HEAD = [
    0.0,
    0.2560708391271298,
    0.11391812735150199,
    0.04076052794183081,
    0.02329173025247475,
    0.013309560144271284,
    0.007778314370028674,
    0.004762233287772657,
    0.003139934035894059,
    0.003139934035894059,
]


@pytest.fixture
def linear18() -> LinearCongestionModel:
    return LinearCongestionModel(v_f=28.0, c=18)


class TestDiscreteDistribution:
    def test_mean(self):
        d = DiscreteDistribution(support=[1.0, 3.0], probs=[0.25, 0.75])
        assert d.mean() == pytest.approx(2.5)

    def test_validation(self):
        with pytest.raises(ValueError, match="matching"):
            DiscreteDistribution(support=[1.0, 2.0], probs=[1.0])
        with pytest.raises(ValueError, match="at least one"):
            DiscreteDistribution(support=[], probs=[])
        with pytest.raises(ValueError, match="increasing"):
            DiscreteDistribution(support=[2.0, 1.0], probs=[0.5, 0.5])
        # NaN passes the increasing check, as every comparison with it is false
        for bad in ([math.nan, 1.0], [1.0, math.inf]):
            with pytest.raises(ValueError, match="support values must be finite"):
                DiscreteDistribution(support=bad, probs=[0.5, 0.5])
        with pytest.raises(ValueError, match="nonnegative"):
            DiscreteDistribution(support=[1.0, 2.0], probs=[1.5, -0.5])
        with pytest.raises(ValueError, match="sum"):
            DiscreteDistribution(support=[1.0, 2.0], probs=[0.5, 0.6])
        for normalized in (True, False):
            for bad in ([math.nan, math.nan], [1.0, math.nan], [math.inf, 0.0]):
                with pytest.raises(ValueError, match="finite"):
                    DiscreteDistribution([1.0, 2.0], bad, normalized=normalized)

    def test_unnormalized_tables_skip_the_sum_check(self):
        d = DiscreteDistribution(
            support=[1.0, 2.0], probs=[0.5, 0.3], normalized=False
        )
        assert float(d.probs.sum()) == pytest.approx(0.8)

    def test_read_only(self):
        d = DiscreteDistribution(support=[1.0, 2.0], probs=[0.5, 0.5])
        with pytest.raises(ValueError):
            d.probs[0] = 0.9


class TestTriangularPushforward:
    def test_speed_support_and_total(self, section1):
        occ = solve_triangular(0.8, section1)
        d = speed_dist_triangular(occ, section1)
        # one free-flow atom plus twelve distinct congested speeds
        assert d.support.size == 13
        assert d.support[-1] == pytest.approx(28.0)
        assert float(d.probs.sum()) == pytest.approx(1.0, abs=1e-12)

    def test_free_flow_atom_collects_uncongested_states(self, section1):
        occ = solve_triangular(0.8, section1)
        d = speed_dist_triangular(occ, section1)
        n_cr = round(section1.diagram.q_max / section1.diagram.v_f * section1.L)
        expected = sum(occ[n] for n in range(n_cr + 1))
        assert d.probs[-1] == pytest.approx(expected, rel=1e-12)

    def test_congested_atom_mass(self, section1):
        occ = solve_triangular(0.8, section1)
        d = speed_dist_triangular(occ, section1)
        # n = 7 under the shifted convention: v = 14 * 12 / 7 = 24
        idx = int(np.argmin(np.abs(d.support - 24.0)))
        assert d.support[idx] == pytest.approx(24.0)
        assert d.probs[idx] == pytest.approx(occ[7], rel=1e-12)

    def test_travel_time_is_length_over_speed(self, section1):
        occ = solve_triangular(0.8, section1)
        v = speed_dist_triangular(occ, section1)
        t = travel_time_dist_triangular(occ, section1)
        assert t.support.size == v.support.size
        # atom values carry 12-significant-digit merge keys
        np.testing.assert_allclose(
            np.sort(100.0 / v.support), t.support, rtol=1e-11
        )
        assert t.support[0] == pytest.approx(100.0 / 28.0)

    def test_zero_speed_atom_without_mass_is_skipped(self, section1):
        # a speed law that reaches 0 at n = c: v_c = 0 carries no mass at
        # lam = 0 and must not reach the L / v division
        rates = np.append(service_rates(section1)[:-1], 0.0)
        occ = solve_birth_death(0.0, rates)
        t = _pushforward(occ, rates, section1.L, section1.diagram.v_f, True)
        assert t.support.tolist() == [pytest.approx(100.0 / 28.0)]
        assert t.probs.tolist() == [1.0]

    def test_mass_at_zero_speed_has_no_travel_time(self, section1):
        # v_c = 0: a law held at n = c has a speed law only; its time L / 0
        # is inf, refused as not finite with no numpy warning
        rates = np.append(service_rates(section1)[:-1], 0.0)
        occ = OccupancyDistribution.point_mass(section1.c, section1.c)
        with pytest.raises(ValueError, match="support values must be finite"):
            _pushforward(occ, rates, section1.L, section1.diagram.v_f, True)
        v = _pushforward(occ, rates, section1.L, section1.diagram.v_f, False)
        assert (v.support.tolist(), v.probs.tolist()) == ([0.0], [1.0])

    @pytest.mark.parametrize("convention", ["exact", "Shifted", None])
    def test_a_convention_but_shifted_is_refused(self, section1, convention):
        # only the travel-time pushforward takes a convention
        occ = solve_triangular(0.8, section1)
        with pytest.raises(ValueError, match="convention must be 'shifted'"):
            travel_time_dist_triangular(occ, section1, convention)
        named = travel_time_dist_triangular(occ, section1, "shifted")
        default = travel_time_dist_triangular(occ, section1)
        assert (named.support.tolist(), named.probs.tolist()) == (
            default.support.tolist(), default.probs.tolist())
        with pytest.raises(TypeError):
            speed_dist_triangular(occ, section1, convention)

    def test_state_at_n_cr_moves_at_its_rate(self):
        # c = 22 and n_cr = round(3.67) = 4, but state 4 is already served
        # on the supply branch: L * q_4 / 4 = 5 * (22 - 4 + 1) / 4
        section = RoadSection(L=110.0, diagram=TriangularDiagram(v_f=25.0, w=5.0, rho_j=0.2))
        n_cr = round(section.diagram.q_max / section.diagram.v_f * section.L)
        assert (section.c, n_cr) == (22, 4)
        occ = OccupancyDistribution.point_mass(section.c, 4)
        v = speed_dist_triangular(occ, section)
        assert v.support.tolist() == [23.75]
        t = travel_time_dist_triangular(occ, section)
        assert t.support.tolist() == [pytest.approx(110.0 / 23.75, rel=1e-11)]

    def test_light_load_mean_speed_near_free_flow(self, section1):
        occ = solve_triangular(0.5, section1)
        d = speed_dist_triangular(occ, section1)
        assert d.mean() == pytest.approx(28.0, rel=0.05)


class TestLinearPushforward:
    def test_empty_state_merges_with_single_vehicle(self, linear18):
        # v_0 = v_1 = v_f, so the top atom carries P(0) + P(1)
        occ = solve_birth_death(0.8, jain_smith_rates(100.0, linear18))
        d = speed_dist_linear(0.8, linear18, 100.0)
        assert d.support.size == 18
        assert d.support[-1] == pytest.approx(28.0)
        assert d.probs[-1] == pytest.approx(occ[0] + occ[1], rel=1e-12)

    def test_sums_to_one(self, linear18):
        for lam in (0.1, 0.8, 2.0):
            v = speed_dist_linear(lam, linear18, 100.0)
            t = travel_time_dist_linear(lam, linear18, 100.0)
            assert float(v.probs.sum()) == pytest.approx(1.0, abs=1e-12)
            assert float(t.probs.sum()) == pytest.approx(1.0, abs=1e-12)

    def test_times_mirror_speeds(self, linear18):
        v = speed_dist_linear(0.8, linear18, 100.0)
        t = travel_time_dist_linear(0.8, linear18, 100.0)
        np.testing.assert_allclose(
            np.sort(100.0 / v.support), t.support, rtol=1e-11
        )
        np.testing.assert_allclose(v.probs[::-1], t.probs, rtol=1e-12)

    def test_mode_validation(self, linear18):
        with pytest.raises(ValueError, match="mode"):
            speed_dist_linear(0.8, linear18, 100.0, mode="histogram")
        with pytest.raises(ValueError, match="L"):
            travel_time_dist_linear(0.8, linear18, 0.0)


class TestGridMode:
    def test_speed_table_frozen(self, linear18):
        d = speed_dist_linear(0.8, linear18, 100.0, mode=PAPER_GRID)
        assert not d.normalized
        np.testing.assert_array_equal(d.support, np.arange(1.0, 29.0))
        np.testing.assert_allclose(d.probs, GRID_SPEED_08, rtol=1e-12)

    def test_speed_table_total_below_one(self, linear18):
        # distinct cells share states and off-grid states are dropped,
        # so the table is not a probability law
        d = speed_dist_linear(0.8, linear18, 100.0, mode=PAPER_GRID)
        assert float(d.probs.sum()) == pytest.approx(0.9743165141956429, rel=1e-12)

    def test_time_table_frozen_head(self, linear18):
        d = travel_time_dist_linear(0.8, linear18, 100.0, mode=PAPER_GRID)
        assert not d.normalized
        np.testing.assert_array_equal(d.support, np.arange(3.0, 101.0))
        np.testing.assert_allclose(d.probs[:10], GRID_TIME_08_HEAD, rtol=1e-12)
        assert float(d.probs.sum()) == pytest.approx(0.940748053057528, rel=1e-12)

    def test_time_table_mode_cell(self, linear18):
        d = travel_time_dist_linear(0.8, linear18, 100.0, mode=PAPER_GRID)
        assert d.support[int(d.probs.argmax())] == 4.0

    def test_non_integer_free_speed_warns(self):
        model = LinearCongestionModel(v_f=27.5, c=18)
        with pytest.warns(UserWarning, match="grid"):
            speed_dist_linear(0.8, model, 100.0, mode=PAPER_GRID)
        with pytest.warns(UserWarning, match="grid"):
            travel_time_dist_linear(0.8, model, 100.0, mode=PAPER_GRID)

    def test_empty_speed_grid_is_refused(self):
        # the speed grid is 1..floor(v_f): empty below 1 m/s
        model = LinearCongestionModel(v_f=0.5, c=18)
        with pytest.raises(ValueError) as info:
            speed_dist_linear(0.01, model, 100.0, mode=PAPER_GRID)
        assert str(info.value) == (
            "the paper-grid speed grid is empty at v_f = 0.5 m/s and L = 100.0 m"
        )

    def test_empty_time_grid_is_refused(self):
        # the time grid ends at floor(L): empty below 1 m
        model = LinearCongestionModel(v_f=28.0, c=2)
        with pytest.raises(ValueError) as info:
            travel_time_dist_linear(0.01, model, 0.5, mode=PAPER_GRID)
        assert str(info.value) == (
            "the paper-grid time grid is empty at v_f = 28.0 m/s and L = 0.5 m"
        )
