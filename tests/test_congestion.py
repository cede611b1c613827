import math
import random

import numpy as np
import pytest

from roadqueue.congestion import (
    ExponentialCongestionModel,
    FitAnchors,
    LinearCongestionModel,
    exponential_speed,
    fit_exponential,
    linear_speed,
    speed,
)


@pytest.fixture
def linear18() -> LinearCongestionModel:
    return LinearCongestionModel(v_f=28.0, c=18)


class TestLinearModel:
    def test_single_vehicle_at_free_flow(self, linear18):
        assert linear_speed(linear18, 1) == pytest.approx(28.0)

    def test_full_section_speed(self, linear18):
        # v_c = v_f / c: the last admitted vehicle still moves
        assert linear_speed(linear18, 18) == pytest.approx(28.0 / 18.0)

    def test_linear_in_n(self, linear18):
        speeds = [linear_speed(linear18, n) for n in range(1, 19)]
        diffs = [b - a for a, b in zip(speeds, speeds[1:])]
        for d in diffs:
            assert d == pytest.approx(-28.0 / 18.0, rel=1e-12)

    def test_domain(self, linear18):
        with pytest.raises(ValueError, match="n="):
            linear_speed(linear18, 0)
        with pytest.raises(ValueError, match="n="):
            linear_speed(linear18, 19)
        with pytest.raises(ValueError, match="n="):
            linear_speed(linear18, np.arange(19))

    def test_elementwise_in_n(self, linear18):
        n = np.arange(1, 19)
        expected = [linear_speed(linear18, int(k)) for k in n]
        assert linear_speed(linear18, n).tolist() == expected

    def test_validation(self):
        with pytest.raises(ValueError, match="v_f"):
            LinearCongestionModel(v_f=0.0, c=18)
        with pytest.raises(ValueError, match="c"):
            LinearCongestionModel(v_f=28.0, c=0)
        for v_f in (math.inf, math.nan):
            with pytest.raises(ValueError, match="v_f must be finite and positive"):
                LinearCongestionModel(v_f=v_f, c=18)


class TestExponentialModel:
    def test_single_vehicle_at_free_flow(self):
        m = ExponentialCongestionModel(v_f=28.0, beta=9.5, gamma=1.8, c=18)
        assert exponential_speed(m, 1) == pytest.approx(28.0)

    def test_beta_is_e_folding_count(self):
        m = ExponentialCongestionModel(v_f=28.0, beta=9.0, gamma=1.0, c=18)
        assert exponential_speed(m, 10) == pytest.approx(28.0 / math.e, rel=1e-12)

    def test_monotone_decreasing(self):
        m = ExponentialCongestionModel(v_f=28.0, beta=9.5, gamma=1.8, c=18)
        speeds = [exponential_speed(m, n) for n in range(1, 19)]
        assert all(a > b for a, b in zip(speeds, speeds[1:]))

    def test_validation(self):
        with pytest.raises(ValueError, match="beta"):
            ExponentialCongestionModel(v_f=28.0, beta=0.0, gamma=1.8, c=18)
        with pytest.raises(ValueError, match="gamma"):
            ExponentialCongestionModel(v_f=28.0, beta=9.5, gamma=-1.0, c=18)

    @pytest.mark.parametrize("name", ["v_f", "beta", "gamma"])
    def test_non_finite_parameters_rejected(self, name):
        params = {"v_f": 28.0, "beta": 9.5, "gamma": 1.8, "c": 18}
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
                ExponentialCongestionModel(**{**params, name: bad})

    def test_elementwise_in_n(self):
        # values against a per-state math.exp reference: test_properties.py
        m = ExponentialCongestionModel(v_f=28.0, beta=9.5, gamma=1.8, c=18)
        assert exponential_speed(m, np.arange(1, 19)).shape == (18,)
        with pytest.raises(ValueError, match="n="):
            exponential_speed(m, np.arange(0, 18))


class TestDispatch:
    def test_speed_routes_by_type(self, linear18):
        assert speed(linear18, 5) == linear_speed(linear18, 5)
        m = ExponentialCongestionModel(v_f=28.0, beta=9.5, gamma=1.8, c=18)
        assert speed(m, 5) == exponential_speed(m, 5)

    def test_speed_rejects_unknown_model(self):
        with pytest.raises(TypeError, match="model"):
            speed(object(), 5)


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

    @pytest.mark.parametrize("name", ["a", "v_a", "b", "v_b", "v_f"])
    def test_non_finite_anchors_rejected(self, name):
        anchors = {"a": 20, "v_a": 48.0, "b": 140, "v_b": 20.0, "v_f": 55.0}
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
                FitAnchors(**{**anchors, name: bad})


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
        assert exponential_speed(m, 20) == pytest.approx(48.0, rel=1e-9)
        assert exponential_speed(m, 140) == pytest.approx(20.0, rel=1e-9)

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
            assert exponential_speed(m, a) == pytest.approx(v_a, rel=1e-9)
            assert exponential_speed(m, b) == pytest.approx(v_b, rel=1e-9)
