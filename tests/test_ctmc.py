import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest

from roadqueue import (
    EXACT,
    OracleError,
    TandemConfig,
    birth_death_chain,
    build_tandem_2d,
    decomposition_diagnostic,
    exact_stationary,
    simulate,
    solve_birth_death,
    solve_fixed_point,
    solve_triangular,
    tv_distance,
)
from roadqueue.ctmc import RNG_ALGORITHM
from roadqueue.fundamental import service_rates

# TV between the decomposition marginal and the exact joint marginal of
# the benchmark tandem at lam = 1.0, frozen once the diagnostic settled
TV_2D_LAM1 = 0.1902798442830123


class TestCtmcValidation:
    """exact_stationary checks the generator it is given."""

    def test_accepts_valid_generator(self):
        gen = np.array([[-1.0, 1.0], [2.0, -2.0]])
        exact_stationary(gen)
        # the caller's array is read, never written
        np.testing.assert_array_equal(gen, [[-1.0, 1.0], [2.0, -2.0]])

    def test_shape_mismatch(self):
        for shape in ((2, 3), (4,), (2, 2, 2)):
            with pytest.raises(ValueError, match="shape"):
                exact_stationary(np.zeros(shape))

    def test_negative_off_diagonal(self):
        gen = np.array([[1.0, -1.0], [2.0, -2.0]])
        with pytest.raises(ValueError, match="off-diagonal"):
            exact_stationary(gen)

    def test_rows_must_balance(self):
        gen = np.array([[-1.0, 2.0], [2.0, -2.0]])
        with pytest.raises(ValueError, match="sum to zero"):
            exact_stationary(gen)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entries(self, bad):
        gen = np.array([[-bad, bad], [2.0, -2.0]])
        with pytest.raises(ValueError, match="finite"):
            exact_stationary(gen)


class TestExactStationary:
    def test_two_state_hand_example(self):
        # pi solves pi_0 * 1 = pi_1 * 2
        gen = np.array([[-1.0, 1.0], [2.0, -2.0]])
        pi = exact_stationary(gen)
        np.testing.assert_allclose(pi, [2 / 3, 1 / 3], rtol=1e-14)

    def test_agrees_with_product_form(self, section1):
        rates = service_rates(section1)
        # the residual check is relative to the rates: the same chain in
        # other time units solves alike; so is the row-sum check, which an
        # absolute bound would fail from 1e7 up
        for scale, lam in itertools.product(
            (1e-6, 1.0, 1e6, 1e7, 1e8, 1e10), (0.1, 0.8, 2.0)
        ):
            pi = exact_stationary(birth_death_chain(lam * scale, rates * scale))
            d = solve_birth_death(lam, rates)
            np.testing.assert_allclose(pi, d.probs, atol=1e-12)

    def test_reducible_chain_rejected(self):
        # two disconnected states: balance equations are singular
        with pytest.raises(OracleError):
            exact_stationary(np.zeros((2, 2)))

    def test_nan_solution_fails_the_residual_check(self, monkeypatch):
        gen = np.array([[-1.0, 1.0], [2.0, -2.0]])
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: np.full(2, np.nan))
        with pytest.raises(OracleError, match="residual"):
            exact_stationary(gen)

    def test_minimal_tandem_shaped_chain(self):
        # smallest tandem topology (both capacities 1, below the section
        # floor, so built by hand): arrival 1, transfer 2, departure 3.
        # Balance gives pi = (9, 3, 6, 1) / 19 on ((0,0),(0,1),(1,0),(1,1)).
        gen = np.array(
            [
                [-1.0, 0.0, 1.0, 0.0],
                [3.0, -4.0, 0.0, 1.0],
                [0.0, 2.0, -2.0, 0.0],
                [0.0, 0.0, 3.0, -3.0],
            ]
        )
        pi = exact_stationary(gen)
        np.testing.assert_allclose(pi, np.array([9, 3, 6, 1]) / 19, rtol=1e-13)


class TestBirthDeathChain:
    def test_generator_entries(self):
        gen = birth_death_chain(2.0, [1.0, 3.0])
        expected = np.array(
            [
                [-2.0, 2.0, 0.0],
                [1.0, -3.0, 2.0],
                [0.0, 3.0, -3.0],
            ]
        )
        np.testing.assert_allclose(gen, expected)

    def test_rejects_negative_rates(self):
        with pytest.raises(ValueError, match="nonnegative"):
            birth_death_chain(-1.0, [1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_rates(self, bad):
        with pytest.raises(ValueError, match="finite"):
            birth_death_chain(bad, [1.0, 2.0])
        with pytest.raises(ValueError, match="finite"):
            birth_death_chain(0.8, [1.0, bad])


class TestTandem2d:
    def test_oversized_chain_is_refused_before_allocating(self, tandem_config):
        # the benchmark geometry at L = 1 km: c1 = c2 = 180, an 8.6 GB generator
        big = TandemConfig(
            section1=dataclasses.replace(tandem_config.section1, L=1000.0, c=None),
            section2=dataclasses.replace(tandem_config.section2, L=1000.0, c=None),
        )
        assert big.section1.c == big.section2.c == 180
        tracemalloc.start()
        try:
            with pytest.raises(OracleError, match="8.6 GB"):
                build_tandem_2d(big, 0.8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_generator_is_built_without_a_copy(self, tandem_config):
        size = (tandem_config.section1.c + 1) * (tandem_config.section2.c + 1)
        tracemalloc.start()
        try:
            gen = build_tandem_2d(tandem_config, 0.8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert gen.nbytes == 8 * size**2
        assert peak <= 1.25 * gen.nbytes

    def test_benchmark_chain_structure(self, tandem_config):
        gen = build_tandem_2d(tandem_config, 0.5)
        c1, c2 = tandem_config.section1.c, tandem_config.section2.c
        assert gen.shape == ((c1 + 1) * (c2 + 1),) * 2

        def index(n1, n2):
            return n1 * (c2 + 1) + n2

        assert gen[index(0, 0), index(1, 0)] == pytest.approx(0.5)
        # full upstream, empty downstream: transfer at the coupled rate
        assert gen[index(c1, 0), index(c1 - 1, 1)] > 0

    def test_marginals_sum_to_one(self, tandem_config):
        c1, c2 = tandem_config.section1.c, tandem_config.section2.c
        pi = exact_stationary(build_tandem_2d(tandem_config, 0.8))
        joint = pi.reshape(c1 + 1, c2 + 1)
        assert joint.sum(axis=1).sum() == pytest.approx(1.0, abs=1e-12)
        assert joint.sum(axis=0).sum() == pytest.approx(1.0, abs=1e-12)

    def test_heavy_load_concentrates_upstream(self, tandem_config):
        c1, c2 = tandem_config.section1.c, tandem_config.section2.c
        pi = exact_stationary(build_tandem_2d(tandem_config, 2.0))
        assert pi.reshape(c1 + 1, c2 + 1).sum(axis=1)[-1] > 0.3

    def test_diagnostic_frozen_value(self, tandem_config):
        result = solve_fixed_point(tandem_config, 1.0)
        tv = decomposition_diagnostic(tandem_config, 1.0, result.marginal.probs)
        assert tv == pytest.approx(TV_2D_LAM1, rel=1e-9)


class TestTvDistance:
    def test_hand_values(self):
        assert tv_distance([0.5, 0.5], [0.5, 0.5]) == 0.0
        assert tv_distance([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0)
        assert tv_distance([0.7, 0.3], [0.5, 0.5]) == pytest.approx(0.2)

    def test_accepts_distribution_objects(self, section1):
        d = solve_triangular(0.5, section1)
        assert tv_distance(d, d) == 0.0

    def test_support_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            tv_distance([0.5, 0.5], [1.0])


class TestSimulate:
    def test_converges_to_stationary_law(self, section1):
        rates = service_rates(section1)
        exact = solve_triangular(0.8, section1)
        result = simulate(0.8, rates, seed=42, max_events=10**6)
        assert tv_distance(result.empirical, exact) < 0.02
        assert result.events == 10**6
        assert not result.absorbed
        assert result.algorithm == RNG_ALGORITHM

    def test_bitwise_reproducible(self, section1):
        rates = service_rates(section1)
        a = simulate(0.8, rates, seed=7, max_events=10**4)
        b = simulate(0.8, rates, seed=7, max_events=10**4)
        np.testing.assert_array_equal(a.empirical.probs, b.empirical.probs)
        assert a.elapsed_model_time == b.elapsed_model_time

    def test_seeds_differ(self, section1):
        rates = service_rates(section1)
        a = simulate(0.8, rates, seed=1, max_events=10**4)
        b = simulate(0.8, rates, seed=2, max_events=10**4)
        assert tv_distance(a.empirical, b.empirical) > 0.0

    def test_error_shrinks_with_more_events(self, section1):
        rates = service_rates(section1)
        exact = solve_triangular(0.8, section1)
        for seed in (1, 2, 3):
            short = simulate(0.8, rates, seed=seed, max_events=10**4)
            long = simulate(0.8, rates, seed=seed, max_events=10**6)
            tv_short = tv_distance(short.empirical, exact)
            tv_long = tv_distance(long.empirical, exact)
            assert tv_long < tv_short

    def test_exact_convention_absorbs_at_capacity(self, section1):
        # q_c = 0 traps the chain once it fills; the run must say so
        rates = service_rates(section1, EXACT)
        result = simulate(2.0, rates, seed=42, max_events=10**6)
        assert result.absorbed
        assert result.empirical[section1.c] == 1.0
        assert result.events < 10**6

    def test_elapsed_time_is_total_holding_time(self, section1):
        rates = service_rates(section1)
        result = simulate(0.8, rates, seed=5, max_events=10**4)
        assert result.elapsed_model_time > 0

    def test_input_validation(self):
        for lam in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="positive"):
                simulate(lam, [1.0, 2.0])
        with pytest.raises(ValueError, match="1e4"):
            simulate(1.0, [1.0, 2.0], max_events=100)
        with pytest.raises(ValueError, match="nonnegative"):
            simulate(1.0, [-1.0])
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                simulate(0.8, [1.0, bad])
