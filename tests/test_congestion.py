import math
import random
import warnings

import numpy as np
import pytest

from roadqueue.congestion import (
    ExponentialCongestionModel,
    FitAnchors,
    LinearCongestionModel,
    fit_exponential,
)
from roadqueue.queueing import jain_smith_rates


@pytest.fixture
def linear18() -> LinearCongestionModel:
    return LinearCongestionModel(v_f=28.0, c=18)


class TestLinearModel:
    def test_single_vehicle_at_free_flow(self, linear18):
        assert linear18.speed(1) == pytest.approx(28.0)

    def test_full_section_speed(self, linear18):
        # v_c = v_f / c: the last admitted vehicle still moves
        assert linear18.speed(18) == pytest.approx(28.0 / 18.0)

    def test_linear_in_n(self, linear18):
        speeds = [linear18.speed(n) for n in range(1, 19)]
        diffs = [b - a for a, b in zip(speeds, speeds[1:])]
        for d in diffs:
            assert d == pytest.approx(-28.0 / 18.0, rel=1e-12)

    def test_domain(self, linear18):
        with pytest.raises(ValueError, match="n="):
            linear18.speed(19)
        with pytest.raises(ValueError, match="n="):
            linear18.speed(np.arange(19))

    def test_elementwise_in_n(self, linear18):
        n = np.arange(1, 19)
        expected = [linear18.speed(int(k)) for k in n]
        assert linear18.speed(n).tolist() == expected


class TestExponentialModel:
    def test_single_vehicle_at_free_flow(self):
        m = ExponentialCongestionModel(v_f=28.0, beta=9.5, gamma=1.8, c=18)
        assert m.speed(1) == pytest.approx(28.0)

    def test_beta_is_e_folding_count(self):
        m = ExponentialCongestionModel(v_f=28.0, beta=9.0, gamma=1.0, c=18)
        assert m.speed(10) == pytest.approx(28.0 / math.e, rel=1e-12)

    def test_monotone_decreasing(self):
        m = ExponentialCongestionModel(v_f=28.0, beta=9.5, gamma=1.8, c=18)
        speeds = [m.speed(n) for n in range(1, 19)]
        assert all(a > b for a, b in zip(speeds, speeds[1:]))

    def test_elementwise_in_n(self):
        # values against a per-state math.exp reference: test_properties.py
        m = ExponentialCongestionModel(v_f=28.0, beta=9.5, gamma=1.8, c=18)
        assert m.speed(np.arange(1, 19)).shape == (18,)
        with pytest.raises(ValueError, match="n="):
            m.speed(np.arange(0, 18))

    def test_overflowed_power_gives_zero_speed_without_a_warning(self):
        # ((n - 1) / beta) ** gamma overflows from n = 3 at gamma = 1000;
        # exp(-inf) = 0 is the exact limit, so numpy has nothing to warn of
        m = ExponentialCongestionModel(v_f=28.0, beta=1.0, gamma=1000.0, c=18)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            speeds = m.speed(np.arange(1, 19))
            rates = jain_smith_rates(100.0, m)
        assert speeds[:2].tolist() == [28.0, 28.0 * math.exp(-1.0)]
        assert not speeds[2:].any()
        assert rates[2:].tolist() == [0.0] * 16


class TestDispatch:
    def test_rates_read_each_models_own_law(self, linear18):
        n = np.arange(1, 19)
        m = ExponentialCongestionModel(v_f=28.0, beta=9.5, gamma=1.8, c=18)
        for model in (linear18, m):
            rates = jain_smith_rates(100.0, model)
            assert rates.tolist() == (n * model.speed(n) / 100.0).tolist()

    def test_list_of_counts_reads_as_the_integer_array(self, linear18):
        m = ExponentialCongestionModel(v_f=28.0, beta=9.5, gamma=1.8, c=18)
        for model in (linear18, m):
            expected = model.speed(np.arange(1, 19))
            assert model.speed(list(range(1, 19))).tobytes() == expected.tobytes()
            assert model.speed([1, 2]).tobytes() == expected[:2].tobytes()

    @pytest.mark.parametrize(
        "n, match",
        [([1.5], "whole number"), ([1, 1.5], "whole number"), ([0, 1], "n="), ([18, 19], "n=")],
    )
    def test_list_of_counts_is_checked(self, linear18, n, match):
        m = ExponentialCongestionModel(v_f=28.0, beta=9.5, gamma=1.8, c=18)
        for model in (linear18, m):
            with pytest.raises(ValueError, match=match):
                model.speed(n)

    @pytest.mark.parametrize("n", [np.array([1.0, 2.0]), np.array([True, False])])
    def test_count_array_must_hold_integers(self, linear18, n):
        m = ExponentialCongestionModel(v_f=28.0, beta=9.5, gamma=1.8, c=18)
        for model in (linear18, m):
            with pytest.raises(ValueError, match="n must be a whole number of at least 1"):
                model.speed(n)

    @pytest.mark.parametrize(
        "build",
        [lambda c: LinearCongestionModel(v_f=28.0, c=c),
         lambda c: ExponentialCongestionModel(v_f=28.0, beta=9.5, gamma=1.8, c=c)],
        ids=["linear", "exponential"],
    )
    def test_capacity_past_the_cap_is_refused_before_allocating(self, build, traced_peak):
        # c = 2**25, the first capacity a RoadSection refuses: one float64 a
        # state would pass 256 MiB in jain_smith_rates' arange
        assert build(2**25 - 1).c == 2**25 - 1
        refused, peak = traced_peak(lambda: build(2**25))
        assert isinstance(refused, ValueError)
        assert "capacity c = 33554432 at one float64 a state needs 268 MB" in str(refused)
        assert peak < 2**20


class TestFitAnchors:
    def test_validation(self):
        with pytest.raises(ValueError, match="1 < a < b"):
            FitAnchors(a=1, v_a=48.0, b=140, v_b=20.0, v_f=55.0)
        with pytest.raises(ValueError, match="1 < a < b"):
            FitAnchors(a=140, v_a=48.0, b=20, v_b=20.0, v_f=55.0)
        with pytest.raises(ValueError, match="speeds"):
            FitAnchors(a=20, v_a=20.0, b=140, v_b=48.0, v_f=55.0)
        with pytest.raises(ValueError, match="speeds"):
            FitAnchors(a=20, v_a=56.0, b=140, v_b=20.0, v_f=55.0)


class TestFitExponential:
    def test_reference_fit(self):
        anchors = FitAnchors(a=20, v_a=48.0, b=140, v_b=20.0, v_f=55.0)
        beta, gamma = fit_exponential(anchors)
        assert beta == pytest.approx(137.41831534831252, rel=1e-12)
        assert gamma == pytest.approx(1.0078532179620698, rel=1e-12)

    def test_fit_interpolates_anchors(self):
        anchors = FitAnchors(a=20, v_a=48.0, b=140, v_b=20.0, v_f=55.0)
        beta, gamma = fit_exponential(anchors)
        m = ExponentialCongestionModel(v_f=55.0, beta=beta, gamma=gamma, c=220)
        assert m.speed(20) == pytest.approx(48.0, rel=1e-9)
        assert m.speed(140) == pytest.approx(20.0, rel=1e-9)

    @pytest.mark.parametrize(
        "a, v_a, b, v_b",
        [
            # ln(v_a / v_f) = ln(v_b / v_f) in floats, so gamma = 0
            (2.0, 1e-300, 3.0, 9.999999999999999e-301),
            # v_b / v_f underflows to 0, which has no logarithm
            (2.0, 1e-300, 3.0, 5e-324),
            # (a - 1) / (b - 1) underflows to 0
            (1.0000000000000002, 20.0, 1e308, 10.0),
            # gamma of about 5e-20: ln(v_f / v_a) ** (1 / gamma) overflows
            (2.0, 1.0, 1e300, 0.9999999999999999),
        ],
    )
    def test_anchors_with_no_fit_in_floats_are_refused(self, a, v_a, b, v_b):
        anchors = FitAnchors(a=a, v_a=v_a, b=b, v_b=v_b, v_f=28.0)
        with pytest.raises(ValueError, match="no fit in floats") as refused:
            fit_exponential(anchors)
        assert repr(anchors) in str(refused.value)

    def test_round_trip_random_anchors(self):
        rng = random.Random(7)
        for _ in range(100):
            v_f = rng.uniform(20.0, 80.0)
            a = rng.randint(2, 50)
            b = rng.randint(a + 1, 200)
            v_a = rng.uniform(0.5 * v_f, 0.95 * v_f)
            v_b = rng.uniform(0.05 * v_f, 0.9 * v_a)
            anchors = FitAnchors(a=a, v_a=v_a, b=b, v_b=v_b, v_f=v_f)
            beta, gamma = fit_exponential(anchors)
            m = ExponentialCongestionModel(v_f=v_f, beta=beta, gamma=gamma, c=b + 1)
            assert m.speed(a) == pytest.approx(v_a, rel=1e-9)
            assert m.speed(b) == pytest.approx(v_b, rel=1e-9)
