import math
import sys
import warnings

import numpy as np
import pytest

from roadqueue import (
    LinearCongestionModel,
    OccupancyDistribution,
    RoadSection,
    SingularModelError,
    TandemConfig,
    TriangularDiagram,
    coupled_rates,
    measures,
    solve_birth_death,
    solve_triangular,
)
from roadqueue.queueing import birth_death_laws, birth_death_log_weights, jain_smith_rates
from roadqueue.fundamental import service_rates
from roadqueue.tandem import conditional_matrix

from chain_references import ref_throughput_departure

# hand-solved three-state chain: lam=1, q=(1, 2) gives weights (1, 1, 1/2)
THREE_STATE = [0.4, 0.4, 0.2]

# stationary law of the linear Jain-Smith chain (L=100, v_f=28, c=18)
# at lam = 0.8, frozen from the direct product-form evaluation
JS_LINEAR_08 = [
    0.040517252463765294,
    0.11576357846790084,
    0.17510457247245503,
    0.18761204193477327,
    0.16081032165837708,
    0.1181463587694199,
    0.07789869808972741,
    0.04769308046309842,
    0.027872579491421152,
    0.015927188280812087,
    0.009101250446178332,
    0.005318912598415911,
    0.0032564771010709635,
    0.002147127758947888,
    0.0015774816188188574,
    0.0013521271018447352,
    0.001448707609119358,
    0.0021913224339620537,
    0.006260921239891583,
]


class TestOccupancyDistribution:
    def test_accessors(self):
        d = OccupancyDistribution(np.array(THREE_STATE))
        assert d.capacity == 2
        assert d.blocking == pytest.approx(0.2)
        assert d.mean() == pytest.approx(0.8)
        assert d[1] == pytest.approx(0.4)

    def test_rejects_bad_vectors(self):
        with pytest.raises(ValueError, match="1-D"):
            OccupancyDistribution(np.array([[0.5, 0.5]]))
        with pytest.raises(ValueError, match="length"):
            OccupancyDistribution(np.array([1.0]))
        with pytest.raises(ValueError, match="nonnegative"):
            OccupancyDistribution(np.array([1.2, -0.2]))
        with pytest.raises(ValueError, match="sum"):
            OccupancyDistribution(np.array([0.6, 0.6]))
        for bad in (np.full(3, np.nan), [0.5, np.nan, 0.5], [0.0, np.inf, 0.0]):
            with pytest.raises(ValueError, match="finite"):
                OccupancyDistribution(np.array(bad))

    def test_point_mass(self):
        d = OccupancyDistribution.point_mass(4, 3)
        assert d.probs.tolist() == [0.0, 0.0, 0.0, 1.0, 0.0]
        assert d.capacity == 4

    def test_probs_are_read_only(self):
        d = OccupancyDistribution(np.array(THREE_STATE))
        with pytest.raises(ValueError):
            d.probs[0] = 0.9


class TestSolveBirthDeath:
    def test_three_state_hand_example(self):
        d = solve_birth_death(1.0, [1.0, 2.0])
        np.testing.assert_allclose(d.probs, THREE_STATE, rtol=1e-14)

    def test_zero_arrivals_point_mass_at_empty(self):
        d = solve_birth_death(0.0, [1.0, 2.0, 3.0])
        assert d[0] == 1.0
        assert d.blocking == 0.0

    def test_matches_direct_product_form(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            rates = rng.uniform(0.2, 3.0, size=rng.integers(2, 25))
            lam = float(rng.uniform(0.05, 4.0))
            weights = np.concatenate(([1.0], np.cumprod(lam / rates)))
            expected = weights / weights.sum()
            d = solve_birth_death(lam, rates)
            np.testing.assert_allclose(d.probs, expected, rtol=1e-12)

    def test_large_capacity_does_not_overflow(self):
        # naive weight products overflow past ~1e308; log space must not
        rates = np.full(400, 1e-3)
        d = solve_birth_death(50.0, rates)
        assert math.isfinite(d.blocking)
        assert d.blocking == pytest.approx(1.0, abs=1e-4)

    def test_detailed_balance(self):
        rates = np.linspace(2.0, 0.3, 12)
        lam = 0.9
        d = solve_birth_death(lam, rates)
        for n in range(12):
            assert lam * d[n] == pytest.approx(rates[n] * d[n + 1], rel=1e-10)

    def test_zero_rate_is_singular(self):
        with pytest.raises(SingularModelError, match="n=2"):
            solve_birth_death(1.0, [1.0, 0.0, 3.0])

    def test_zero_rate_harmless_without_arrivals(self):
        d = solve_birth_death(0.0, [1.0, 0.0, 3.0])
        assert d[0] == 1.0

    @pytest.mark.parametrize("rate", [math.nan, math.inf])
    @pytest.mark.parametrize("lam", [0.0, 0.8])
    def test_non_finite_rates_rejected(self, lam, rate):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            solve_birth_death(lam, [rate, 1.0])
        with pytest.raises(ValueError, match="finite and nonnegative"):
            birth_death_log_weights(lam, [[1.0, 1.0], [1.0, rate]])


class TestLogWeights:
    def test_matches_explicit_logs(self):
        # w_1 = 2/1, w_2 = (2/1)(2/4) = 1
        logw = birth_death_log_weights(2.0, [1.0, 4.0])
        np.testing.assert_allclose(logw, [0.0, math.log(2.0), 0.0], atol=1e-15)

    def test_zero_arrival_rate_gives_the_limit(self, section1):
        # the lam -> 0 limit of the product form, even over zero rates
        limit = [0.0, -math.inf, -math.inf]
        assert birth_death_log_weights(0.0, [1.0, 2.0]).tolist() == limit
        stack = birth_death_log_weights(0.0, [[1.0, 2.0], [0.0, 0.0]])
        assert stack.tolist() == [limit, limit]
        empty = OccupancyDistribution.point_mass(section1.c, 0).probs.tolist()
        for rates in (service_rates(section1), np.append(service_rates(section1)[:-1], 0.0)):
            assert solve_birth_death(0.0, rates).probs.tolist() == empty
        matrix = conditional_matrix(TandemConfig(section1, section1), 0.0)
        assert matrix.tolist() == [empty] * (section1.c + 1)

    def test_stack_gives_one_row_per_rate_row(self):
        rows = np.array([[1.0, 4.0], [2.0, 0.5]])
        logw = birth_death_log_weights(2.0, rows)
        assert logw.shape == (2, 3)
        for row, expected in zip(rows, logw):
            np.testing.assert_array_equal(
                birth_death_log_weights(2.0, row), expected
            )

    def test_stack_zero_rate_names_its_state(self):
        with pytest.raises(SingularModelError, match="n=2"):
            birth_death_log_weights(1.0, [[1.0, 2.0], [1.0, 0.0]])


# idle, subnormal, ordinary and saturating births in one vector
BIRTHS = [0.0, 1e-320, 1e-3, 0.8, 2.0, 1e17, 1.7e308]


class TestVectorBirths:
    @pytest.fixture(params=["1-D", "2-D"])
    def rates(self, request, tandem_config):
        if request.param == "1-D":
            return service_rates(tandem_config.section2)
        return coupled_rates(tandem_config)

    @pytest.mark.parametrize("solve", [birth_death_log_weights, birth_death_laws])
    def test_rows_have_the_bits_of_scalar_calls(self, solve, rates):
        stack = solve(BIRTHS, rates)
        assert stack.shape == (len(BIRTHS),) + rates.shape[:-1] + (rates.shape[-1] + 1,)
        for lam, row in zip(BIRTHS, stack):
            assert row.tobytes() == solve(lam, rates).tobytes()

    def test_solve_gives_a_checked_read_only_stack(self, tandem_config):
        # one law per birth, as solve_birth_death gives it; a stack of rates is refused
        rates = service_rates(tandem_config.section2)
        stack = solve_birth_death(BIRTHS, rates)
        assert stack.tobytes() == birth_death_laws(BIRTHS, rates).tobytes()
        with pytest.raises(ValueError):
            stack[0, 0] = 0.5
        for lam, law in zip(BIRTHS, stack):
            assert law.tobytes() == solve_birth_death(lam, rates).probs.tobytes()

    def test_idle_rows_give_the_limit_even_against_a_zero_rate(self):
        limit = [0.0, -math.inf, -math.inf]
        weights = birth_death_log_weights([0.0, 0.0], [1.0, 0.0])
        assert weights.tolist() == [limit, limit]
        laws = birth_death_laws(np.zeros(2), [[1.0, 0.0], [0.0, 0.0]])
        assert laws.tolist() == [[[1.0, 0.0, 0.0]] * 2] * 2
        mixed = birth_death_log_weights([0.0, 2.0], [1.0, 4.0])
        assert mixed[0].tolist() == limit
        assert mixed[1].tobytes() == birth_death_log_weights(2.0, [1.0, 4.0]).tobytes()

    def test_zero_rate_with_any_positive_birth_is_singular(self):
        for births in ([0.0, 0.5], [1e-320, 0.0], [1.7e308]):
            with pytest.raises(SingularModelError, match="n=2"):
                birth_death_log_weights(births, [1.0, 0.0, 3.0])
            with pytest.raises(SingularModelError, match="n=2"):
                birth_death_laws(births, [[1.0, 2.0], [1.0, 0.0]])

    def test_no_call_warns(self, rates):
        # neither an idle birth nor a zero rate may reach np.log
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for births in (BIRTHS, [0.0, 0.5], [1e-320], []):
                birth_death_laws(births, rates)
            birth_death_laws([0.0, 0.0], np.zeros_like(rates))
            solve_birth_death([0.0, 0.0], [1.0, 0.0])


class TestJainSmith:
    def test_rates_shape_and_values(self):
        model = LinearCongestionModel(v_f=28.0, c=18)
        rates = jain_smith_rates(100.0, model)
        assert rates.shape == (18,)
        assert rates[0] == pytest.approx(0.28)
        # n * v_n peaks mid-range for the linear law
        assert rates.argmax() + 1 in (9, 10)

    def test_solve_frozen_law(self):
        model = LinearCongestionModel(v_f=28.0, c=18)
        d = solve_birth_death(0.8, jain_smith_rates(100.0, model))
        np.testing.assert_allclose(d.probs, JS_LINEAR_08, rtol=1e-12)


class TestSolveTriangular:
    def test_zero_rate_at_capacity_is_singular_when_loaded(self, section1):
        rates = np.append(service_rates(section1)[:-1], 0.0)
        with pytest.raises(SingularModelError, match="state n=18, where the speed law reaches 0"):
            solve_birth_death(0.5, rates)

    def test_zero_rate_at_capacity_fine_when_idle(self, section1):
        d = solve_birth_death(0.0, np.append(service_rates(section1)[:-1], 0.0))
        assert d[0] == 1.0

    def test_shifted_light_load_nearly_empty(self, section1):
        d = solve_triangular(0.1, section1)
        assert d[0] > 0.69
        assert d.blocking < 1e-8

    def test_shifted_heavy_load_nearly_full(self, section1):
        d = solve_triangular(2.0, section1)
        assert d.blocking > 0.9

    def test_capacity_matches_section(self, section1):
        assert solve_triangular(0.5, section1).capacity == section1.c


class TestMeasures:
    def test_littles_law_consistency(self, section1):
        lam = 0.5
        rates = service_rates(section1)
        d = solve_triangular(lam, section1)
        m = measures(d, lam, rates)
        assert m.throughput == pytest.approx(lam * (1 - d.blocking), rel=1e-14)
        assert m.expected_travel_time == pytest.approx(
            m.expected_count / m.throughput, rel=1e-14
        )
        assert not m.free_flow_fallback

    def test_single_section_travel_time_near_free_flow(self, section1):
        # light traffic: Little's-law time within 10% of L / v_f
        rates = service_rates(section1)
        d = solve_triangular(0.5, section1)
        m = measures(d, 0.5, rates)
        assert m.expected_travel_time == pytest.approx(
            section1.free_flow_time, rel=0.10
        )

    def test_zero_load_falls_back_to_lone_vehicle_time(self, section1):
        rates = service_rates(section1)
        d = solve_triangular(0.0, section1)
        m = measures(d, 0.0, rates)
        assert m.free_flow_fallback
        assert m.throughput == 0.0
        assert m.expected_travel_time == pytest.approx(1.0 / rates[0])

    def test_underflowed_mean_count_falls_back_to_lone_vehicle_time(self):
        # at c = 2 and lam = 5e-324 the mean count rounds to 0 while the
        # throughput does not: Little's law would read a travel time of 0
        section = RoadSection(L=1.0, diagram=TriangularDiagram(v_f=28.0, w=14.0, rho_j=2.0))
        rates = service_rates(section)
        m = measures(solve_triangular(5e-324, section), 5e-324, rates)
        assert (m.throughput, m.expected_count) == (5e-324, 0.0)
        assert m.free_flow_fallback
        assert m.expected_travel_time == 1.0 / rates[0] == 1.0 / 28.0

    @pytest.mark.parametrize("lam", [5e-324, 1e-320, 1e-310])
    def test_subnormal_rates_fall_back_to_lone_vehicle_time(self, section1, lam):
        # a subnormal mean count over a subnormal throughput keeps few bits
        # (5e-324 read 4.0, 1e-320 read 3.57164): the flagged 1 / q_1 instead
        rates = service_rates(section1)
        m = measures(solve_triangular(lam, section1), lam, rates)
        assert m.throughput < sys.float_info.min
        assert m.free_flow_fallback
        assert m.expected_travel_time == 1.0 / rates[0] == 3.571428571428571

    def test_zero_q1_lone_time_is_refused_as_not_finite(self, section1):
        # 1 / 0 is inf with no numpy warning, refused as not finite, not as singular
        rates = service_rates(section1)
        rates[0] = 0.0
        with pytest.raises(ValueError) as info:
            measures(OccupancyDistribution.point_mass(18, 0), 0.0, rates)
        assert type(info.value) is ValueError
        assert str(info.value) == "expected_travel_time inf not finite and positive"

    def test_smallest_normal_rates_keep_littles_law(self, section1):
        rates = service_rates(section1)
        m = measures(solve_triangular(1e-300, section1), 1e-300, rates)
        assert not m.free_flow_fallback
        assert m.expected_travel_time == m.expected_count / m.throughput == 3.5714285714286436

    @pytest.mark.parametrize("lam", [1e16, 1e17, 1e100])
    def test_throughput_survives_blocking_rounded_to_one(self, section1, lam):
        # past lam of about 1e16 P_c rounds to 1.0, so lam * (1 - P_c) reads
        # 0; the sum of the other masses still gives the departure rate
        rates = service_rates(section1)
        d = solve_triangular(lam, section1)
        m = measures(d, lam, rates)
        assert m.throughput == pytest.approx(ref_throughput_departure(d, rates), rel=1e-12)
        assert m.throughput == pytest.approx(0.14, rel=1e-12)
        assert not m.free_flow_fallback


class TestThroughputDeparture:
    def test_flow_balance(self, section1):
        # departure-side and acceptance-side throughput agree in steady state
        rates = service_rates(section1)
        for lam in (0.1, 0.5, 0.8, 1.2, 2.0):
            d = solve_triangular(lam, section1)
            assert ref_throughput_departure(d, rates) == pytest.approx(
                lam * (1 - d.blocking), rel=1e-10
            )

    def test_frozen_value(self):
        model = LinearCongestionModel(v_f=28.0, c=18)
        rates = jain_smith_rates(100.0, model)
        d = solve_birth_death(0.8, rates)
        value = ref_throughput_departure(d, rates)
        assert value == pytest.approx(0.8 * (1 - d.blocking), rel=1e-12)
        assert 0.56 <= value <= 0.8
