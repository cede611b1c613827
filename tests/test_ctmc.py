import dataclasses
import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from roadqueue import (
    OccupancyDistribution,
    OracleError,
    RoadSection,
    SimulationResult,
    TandemConfig,
    TriangularDiagram,
    birth_death_chain,
    decomposition_diagnostic,
    exact_stationary,
    simulate,
    solve_birth_death,
    solve_fixed_point,
    solve_triangular,
    tandem_stationary,
    tv_distance,
)
from roadqueue import ctmc, fundamental
from roadqueue.ctmc import RNG_ALGORITHM
from roadqueue.fundamental import service_rates

from chain_references import ref_generator

SRC = str(Path(__file__).resolve().parents[1] / "src")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# TV between the decomposition marginal and the exact joint marginal of
# the benchmark tandem at lam = 1.0, frozen once the diagnostic settled
TV_2D_LAM1 = 0.1902798442830123


def gth_bytes(gen):
    """What exact_stationary counts: the generator, a copy, a mask, GTH's
    band x band update, a few vectors and 128 kB of ufunc buffers."""
    n = gen.shape[0]
    rows, cols = np.nonzero(gen)
    band = int(np.abs(rows - cols).max(initial=0))
    return gen.nbytes + 9 * n * n + 8 * band**2 + 128 * n + 2**17 + 2**13


def oracle_bytes(c1, c2, rates=1):
    """What tandem_stationary counts for a run: a rate's blocks, five more
    levels and six law tables, beside two levels and 128 kB of buffers."""
    level = 8 * (c2 + 1) ** 2
    return 2**17 + 2 * level + rates * ((c1 + 5) * level + 48 * (c1 + 1) * (c2 + 1))


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
        with pytest.raises(ValueError, match="entries must be finite"):
            exact_stationary(gen)

    def test_finite_entries_whose_row_sum_overflows_are_unbalanced(self):
        # 1.7e308 + 1.7e308 overflows, but every entry is finite: the row
        # does not balance, and that is the fault named
        gen = np.array([[-1e308, 1.7e308, 1.7e308], [1.0, -1.0, 0.0], [1.0, 0.0, -1.0]])
        with pytest.raises(ValueError, match="generator rows must sum to zero"):
            exact_stationary(gen)

    def test_rows_must_balance_near_the_float_maximum(self):
        # the first row sums to 7e307, and its absolute sum, 2.7e308, is past
        # the float range: a norm taken whole would make the bound infinite
        with pytest.raises(ValueError, match="sum to zero"):
            exact_stationary(np.array([[-1e308, 1.7e308], [1.0, -1.0]]))
        # here even half of the absolute sum, 2.55e308, is past the range
        unbalanced = np.array([[-1.7e308, 1.7e308, 1.7e308], [1.0, -1.0, 0.0], [1.0, 0.0, -1.0]])
        with pytest.raises(ValueError, match="sum to zero"):
            exact_stationary(unbalanced)
        # a balanced row whose absolute sum is 2e308 still solves
        pi = exact_stationary(np.array([[-1e308, 1e308], [1.0, -1.0]]))
        np.testing.assert_allclose(pi, [1e-308, 1.0], rtol=1e-15)


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
        # two disconnected states: state 1 never reaches state 0
        with pytest.raises(OracleError, match="state 1 has no outflow"):
            exact_stationary(np.zeros((2, 2)))

    def test_nan_solution_fails_the_residual_check(self, monkeypatch):
        gen = np.array([[-1.0, 1.0], [2.0, -2.0]])
        monkeypatch.setattr(ctmc, "_gth", lambda rates, band: np.full(2, np.nan))
        with pytest.raises(OracleError, match="residual"):
            exact_stationary(gen)

    def test_negative_mass_within_the_residual_tolerance_is_refused(self, monkeypatch):
        # state 2 is transient: a mass of -1e-12 there moves pi Q by 1e-12 only,
        # within the tolerance of rates of 1e6, so the mass check refuses it
        gen = np.array([[-1e6, 1e6, 0.0], [1e6, -1e6, 0.0], [1.0, 0.0, -1.0]])
        monkeypatch.setattr(ctmc, "_gth", lambda rates, band: np.array([0.5, 0.5, -1e-12]))
        with pytest.raises(OracleError, match="negative probabilities"):
            exact_stationary(gen)

    @pytest.mark.parametrize("masses", [[1e308, 1e308], [0.0, 0.0]], ids=["overflow", "zero"])
    def test_total_mass_past_the_float_range_or_zero_is_refused(self, monkeypatch, masses):
        # dividing by an infinite total gives a law of zeros, whose residual
        # is 0; dividing by 0 gives NaN: either is refused by its total
        gen = np.array([[-1.0, 1.0], [2.0, -2.0]])
        monkeypatch.setattr(ctmc, "_gth", lambda rates, band: np.array(masses))
        with pytest.raises(OracleError, match="total mass is not finite and positive"):
            exact_stationary(gen)

    def test_shifted_chain_mass_at_capacity(self):
        # c = 60 at lam = 0.25, where a solve that replaces the last balance
        # equation by the normalization is 7.2e-8 off; the reference is a
        # 50-digit product form
        section = RoadSection(
            L=320.0, diagram=TriangularDiagram(v_f=40.0, w=4.0, rho_j=0.1875)
        )
        assert section.c == 60
        pi = exact_stationary(birth_death_chain(0.25, service_rates(section)))
        assert abs(pi[-1] - 1.0185062630333897e-3) <= 1e-15

    def test_empty_road_below_the_smallest_double(self, section1):
        # c = 2880 at lam = 0.8: P(n = 0) is far below 1e-308, so an
        # unnormalized law that starts from pi[0] = 1 must be rescaled as it
        # grows, or it overflows and the residual check sees NaN
        section = dataclasses.replace(section1, L=16000.0, c=None)
        assert section.c == 2880
        rates = service_rates(section)
        pi = exact_stationary(birth_death_chain(0.8, rates))
        np.testing.assert_allclose(
            pi, solve_birth_death(0.8, rates).probs, rtol=0, atol=1e-15
        )

    def test_band_is_read_from_the_generator(self, monkeypatch):
        # a birth-death chain has band 1, whatever its size
        bands = []
        gth = ctmc._gth

        def spy(rates, band):
            bands.append(band)
            return gth(rates, band)

        monkeypatch.setattr(ctmc, "_gth", spy)
        exact_stationary(birth_death_chain(0.8, np.linspace(1.0, 2.0, 40)))
        assert bands == [1]

    @pytest.mark.parametrize("c", [54, 180])
    def test_peak_stays_under_the_cap_it_counts(self, monkeypatch, c, traced_peak):
        # compare's exact path: the generator and GTH's copy of it, a mask
        # and a few vectors; the copy alone took the parent past the
        # generator's count, at 2.2 times it
        rates = np.linspace(1.0, 2.0, c)
        cap = gth_bytes(birth_death_chain(0.8, rates))
        monkeypatch.setattr(fundamental, "_ARRAY_CAP_BYTES", cap)
        pi, peak = traced_peak(lambda: exact_stationary(birth_death_chain(0.8, rates)))
        assert pi.shape == (c + 1,)
        assert peak <= cap
        # a byte less, birth_death_chain reads the same count and refuses
        # before its generator is built
        monkeypatch.setattr(fundamental, "_ARRAY_CAP_BYTES", cap - 1)
        refused, peak = traced_peak(lambda: exact_stationary(birth_death_chain(0.8, rates)))
        assert isinstance(refused, OracleError)
        assert f"GTH elimination on {c + 1} states (c = {c})" in str(refused)
        assert peak < 8 * (c + 1) ** 2 / 4

    @pytest.mark.parametrize("n", [200, 500])
    def test_dense_peak_stays_under_the_cap_it_counts(self, monkeypatch, n, traced_peak):
        # a dense generator: GTH's copy, a mask and one band x band update
        # beside it; reading the band through the indices of every nonzero
        # entry took the peak to 5.13 times the generator
        rng = np.random.default_rng(n)
        gen = rng.uniform(0.5, 2.0, (n, n))
        np.fill_diagonal(gen, 0.0)
        np.fill_diagonal(gen, -gen.sum(axis=1))
        cap = gth_bytes(gen)
        monkeypatch.setattr(fundamental, "_ARRAY_CAP_BYTES", cap)
        pi, peak = traced_peak(lambda: exact_stationary(gen))
        assert pi.shape == (n,)
        assert peak < 3 * gen.nbytes
        assert peak <= cap - gen.nbytes
        monkeypatch.setattr(fundamental, "_ARRAY_CAP_BYTES", cap - 1)
        refused, peak = traced_peak(lambda: exact_stationary(gen))
        assert isinstance(refused, OracleError)
        assert peak < 2**20

    def test_dense_cap_boundary(self, traced_peak):
        # N = 3273 is the largest dense generator the guard admits beside
        # itself, and a birth-death chain solves up to c = 3967
        def fits(n, band):
            count = 8 * n * n + 9 * n * n + 8 * band**2 + 128 * n + 2**17 + 2**13
            return count <= fundamental._ARRAY_CAP_BYTES

        assert fits(3273, 3272) and not fits(3274, 3273)
        assert fits(3968, 1) and not fits(3969, 1)
        gen = np.broadcast_to(np.ones(1), (3274, 3274))
        refused, peak = traced_peak(lambda: exact_stationary(gen))
        assert isinstance(refused, OracleError)
        assert "GTH elimination on 3274 states" in str(refused)
        assert peak < 2**20

    def test_oversized_solve_is_refused_before_allocating(self, traced_peak):
        # a read-only view of 4000**2 zeros holds 8 bytes, but counts its
        # 128 MB as the generator beside the copy and mask GTH would add
        gen = np.broadcast_to(np.zeros(1), (4000, 4000))
        refused, peak = traced_peak(lambda: exact_stationary(gen))
        assert isinstance(refused, OracleError)
        assert "4000 states needs 273 MB, above the 256 MiB cap" in str(refused)
        assert peak < 2**20

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

    def test_oversized_chain_is_refused_before_allocating(self, traced_peak):
        # c = 4500: its 162 MB generator fits under the 256 MiB cap, but
        # exact_stationary's copy and mask beside it do not, so the chain is
        # refused by the oracle's own count before any of it is built
        rates = np.ones(4500)
        refused, peak = traced_peak(lambda: birth_death_chain(0.8, rates))
        assert isinstance(refused, OracleError)
        assert "4501 states (c = 4500) needs 345 MB" in str(refused)
        assert peak < 2**20

    def test_cap_boundary(self, monkeypatch, traced_peak):
        # one limit: c = 3967 is the largest chain exact_stationary solves,
        # and c = 3968 the first that both refuse
        def fits(c):
            n = c + 1
            return 17 * n * n + 8 + 128 * n + 2**17 + 2**13 <= fundamental._ARRAY_CAP_BYTES

        assert fits(3967) and not fits(3968)
        refused, peak = traced_peak(lambda: birth_death_chain(0.8, np.ones(3968)))
        assert isinstance(refused, OracleError)
        assert "(c = 3968)" in str(refused)
        assert peak < 2**20
        # c = 3967 would allocate 126 MB, so test acceptance at a cap
        # lowered to exactly c = 10's chain and its solve
        cap = gth_bytes(birth_death_chain(0.8, np.ones(10)))
        monkeypatch.setattr(fundamental, "_ARRAY_CAP_BYTES", cap)
        assert exact_stationary(birth_death_chain(0.8, np.ones(10))).shape == (11,)
        with pytest.raises(OracleError, match=r"\(c = 11\)"):
            birth_death_chain(0.8, np.ones(11))


def scaled(config, length):
    """The tandem with both sections stretched to length metres."""
    return TandemConfig(
        section1=dataclasses.replace(config.section1, L=length, c=None),
        section2=dataclasses.replace(config.section2, L=length, c=None),
    )


class TestTandem2d:
    def test_oversized_chain_is_refused_before_allocating(self, tandem_config, traced_peak):
        # c1 = c2 = 400 would store 8 * 400 * 401**2 bytes = 515 MB of blocks,
        # and work on 16 MB beside them
        big = scaled(tandem_config, 400 / 0.18)
        assert big.section1.c == big.section2.c == 400
        assert round(oracle_bytes(400, 400) / 1e6) == 531
        refused, peak = traced_peak(lambda: tandem_stationary(big, 0.8))
        assert isinstance(refused, OracleError)
        assert "531 MB" in str(refused)
        assert peak < 2**20

    def test_cap_boundary(self, tandem_config, monkeypatch, traced_peak):
        # c = 318 is the first square tandem past the real cap
        big = scaled(tandem_config, 318 / 0.18)
        assert big.section1.c == big.section2.c == 318
        refused, peak = traced_peak(lambda: tandem_stationary(big, 0.8))
        assert isinstance(refused, OracleError)
        assert "(c1 = 318, c2 = 318)" in str(refused)
        assert peak < 2**20
        # c = 317 would count 267 MB, so test acceptance at a cap lowered to
        # exactly what c = 18 counts
        assert oracle_bytes(317, 317) <= fundamental._ARRAY_CAP_BYTES < oracle_bytes(318, 318)
        monkeypatch.setattr(fundamental, "_ARRAY_CAP_BYTES", oracle_bytes(18, 18))
        assert tandem_stationary(tandem_config, 0.8).shape == (19, 19)
        with pytest.raises(OracleError, match=r"\(c1 = 19, c2 = 19\)"):
            tandem_stationary(scaled(tandem_config, 19 / 0.18), 0.8)

    @pytest.mark.parametrize("length", [300.0, 1000.0], ids=["c54", "c180"])
    def test_peak_stays_under_the_cap_it_counts(
        self, tandem_config, monkeypatch, length, traced_peak
    ):
        # the blocks and the per-level and per-law arrays beside them: the
        # parent counted the blocks alone and peaked at 1.19 times them at
        # c = 54 and 1.05 times at c = 180; only sizes are checked, as at
        # c = 250 and 317 the law's last bits follow the BLAS thread count
        config = scaled(tandem_config, length)
        c = config.section1.c
        cap = oracle_bytes(c, c)
        monkeypatch.setattr(fundamental, "_ARRAY_CAP_BYTES", cap)
        law, peak = traced_peak(lambda: tandem_stationary(config, 0.8))
        assert law.shape == (c + 1, c + 1)
        assert 8 * c * (c + 1) ** 2 < peak <= cap
        monkeypatch.setattr(fundamental, "_ARRAY_CAP_BYTES", cap - 1)
        refused, peak = traced_peak(lambda: tandem_stationary(config, 0.8))
        assert isinstance(refused, OracleError)
        assert peak < 2**20

    def test_diagnostic_keeps_one_run_of_joint_laws(self, tandem_config, monkeypatch, traced_peak):
        # 200 rates in runs of 4: each run is cut to its section-1 marginals
        # before the next starts; holding every joint law and then a copy of
        # them all took the peak to 2.5 times the cap
        lams = np.linspace(0.1, 2.0, 200)
        marginals = np.array([r.marginal.probs for r in solve_fixed_point(tandem_config, lams)])
        cap = oracle_bytes(18, 18, rates=4)
        monkeypatch.setattr(fundamental, "_ARRAY_CAP_BYTES", cap)
        tvs, peak = traced_peak(lambda: decomposition_diagnostic(tandem_config, lams, marginals))
        assert peak <= cap + 8 * 19 * lams.size
        assert tvs == [
            decomposition_diagnostic(tandem_config, lam, marginal)
            for lam, marginal in zip(lams, marginals)
        ]

    @pytest.mark.parametrize("lam", [0.8, 2.0])
    def test_matches_the_dense_law_at_c54(self, tandem_config, lam):
        # the oracle-c54 benchmark geometry: 3025 joint states
        config = scaled(tandem_config, 300.0)
        c1, c2 = config.section1.c, config.section2.c
        assert c1 == c2 == 54
        dense = exact_stationary(ref_generator(config, lam)).reshape(c1 + 1, c2 + 1)
        np.testing.assert_allclose(tandem_stationary(config, lam), dense, atol=1e-14)

    def test_levels_below_the_smallest_double(self, tandem_config):
        # at lam = 1e12 level 0 holds far less than 1e-308 of the mass: the
        # levels are rescaled as they grow instead of overflowing to NaN
        c, lam = tandem_config.section1.c, 1e12
        dense = exact_stationary(ref_generator(tandem_config, lam)).reshape(c + 1, c + 1)
        np.testing.assert_allclose(
            tandem_stationary(tandem_config, lam), dense, rtol=0, atol=1e-14
        )

    @pytest.mark.parametrize(
        "length, lam, below_c1",
        [
            (100.0, 1e15, 3.026034262387978e-16),
            (100.0, 1e16, 3.026034262387975e-17),
            (300.0, 1e15, 2.2039586544261316e-16),
        ],
    )
    def test_answers_where_a_plain_schur_split_does_not(self, tandem_config, length, lam, below_c1):
        # a Schur complement that keeps D's own diagonal refused lam = 1e15 at
        # c = 18 and 54, and at 1e16 gave a law of zeros; the mass below c1 is
        # pinned from np.linalg.inv on whole levels, which this split replaced
        marginal = tandem_stationary(scaled(tandem_config, length), lam).sum(axis=1)
        assert marginal[-1] == pytest.approx(1.0 - below_c1, abs=1e-12)
        assert marginal[:-1].sum() == pytest.approx(below_c1, rel=1e-12)

    @pytest.mark.parametrize("lam", [1e17, 1e20, 1e60])
    def test_levels_past_the_float_precision_of_their_pivots(self, tandem_config, lam):
        # a level's rates reach lam while its row sums stay near 1, so past
        # lam ~ 1e16 a pivot found by a difference loses them: np.linalg.inv
        # on whole levels refused these; every pivot of the split is a sum
        c = tandem_config.section1.c
        dense = exact_stationary(ref_generator(tandem_config, lam)).reshape(c + 1, c + 1)
        np.testing.assert_allclose(
            tandem_stationary(tandem_config, lam), dense, rtol=0, atol=1e-14
        )

    def test_singular_level_is_an_oracle_error(self, tandem_config, monkeypatch):
        def singular(matrix):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "inv", singular)
        with pytest.raises(OracleError, match="a censored level is singular: Singular matrix"):
            tandem_stationary(tandem_config, 0.8)

    def test_total_mass_past_the_float_range_is_refused(self, tandem_config, monkeypatch):
        # level 0 at 1e308 a phase: the levels above it are finite, their
        # total is not; this reaches the check through GTH's level only
        monkeypatch.setattr(ctmc, "_gth", lambda rates, band: np.full(rates.shape[:-1], 1e308))
        with pytest.raises(OracleError, match="total mass is not finite and positive"):
            tandem_stationary(tandem_config, 1e-300)

    def test_shifted_joint_law_is_not_the_point_mass_at_capacity(self, tandem_config):
        # a supply of 0 at c2 would absorb every (n1, c2); the shifted one
        # drains (c1, c2), which holds part of the mass only
        assert ref_generator(tandem_config, 0.8)[-1].any()
        joint = tandem_stationary(tandem_config, 0.8)
        assert 0.0 < joint[-1, -1] < 1.0
        assert (joint > 0).all()

    def test_empty_road_at_zero_load(self, tandem_config):
        expected = np.zeros((19, 19))
        expected[0, 0] = 1.0
        np.testing.assert_array_equal(tandem_stationary(tandem_config, 0.0), expected)

    def test_marginals_sum_to_one(self, tandem_config):
        joint = tandem_stationary(tandem_config, 0.8)
        assert joint.sum(axis=1).sum() == pytest.approx(1.0, abs=1e-12)
        assert joint.sum(axis=0).sum() == pytest.approx(1.0, abs=1e-12)

    def test_heavy_load_concentrates_upstream(self, tandem_config):
        pi = tandem_stationary(tandem_config, 2.0)
        assert pi.sum(axis=1)[-1] > 0.3

    def test_diagnostic_frozen_value(self, tandem_config):
        result = solve_fixed_point(tandem_config, 1.0)
        tv = decomposition_diagnostic(tandem_config, 1.0, result.marginal.probs)
        assert tv == pytest.approx(TV_2D_LAM1, rel=1e-9)

    @pytest.mark.parametrize(
        "length, exact_flow, theta, lam, tv_upstream, tv_downstream",
        [
            (100.0, 0.30260342646781796, 0.4588910036254674,
             2.0, 0.07814378857787829, 0.4710297793817297),
            (300.0, 0.22039586544261325, 0.398426479754562,
             2.0, 0.08901530715869907, 0.7092895197527654),
            (1000.0, 0.16602064942451494, 0.3712658902404655,
             2.0, 0.10262262040804043, 0.8050178331511995),
            (100.0, 0.3050655709914341, 0.45372928604174934,
             0.8, 0.3130190375396974, 0.47402403431364704),
            (300.0, 0.22062413754282648, 0.3975485040916935,
             0.8, 0.4115287599231243, 0.7104467755166971),
            (1000.0, 0.16603879757595363, 0.3710526829902903,
             0.8, 0.4522249241331478, 0.8054236982795915),
        ],
    )
    def test_capacity_trend_at_saturation(
        self, tandem_config, length, exact_flow, theta, lam, tv_upstream, tv_downstream
    ):
        # c = 18, 54 and 180: the decomposition's throughput theta
        # overstates the exact chain's more as capacity grows, and its
        # marginals miss the exact ones, section 2's the most
        config = scaled(tandem_config, length)
        joint = tandem_stationary(config, lam)
        departed = joint.sum(axis=0)[1:] @ service_rates(config.section2)
        accepted = lam * (1 - joint[-1].sum())
        assert departed == pytest.approx(exact_flow, rel=1e-9)
        assert abs(accepted - departed) <= 1e-12
        result = solve_fixed_point(config, lam)
        assert result.theta == pytest.approx(theta, rel=1e-9)
        upstream = tv_distance(joint.sum(axis=1), result.marginal)
        downstream = tv_distance(joint.sum(axis=0), result.downstream)
        assert upstream == pytest.approx(tv_upstream, rel=1e-9)
        assert downstream == pytest.approx(tv_downstream, rel=1e-9)

    @pytest.mark.parametrize("length", [300.0, 1000.0], ids=["c54", "c180"])
    def test_same_bits_with_one_and_two_blas_threads(self, length):
        # up to c = 180 a level's split inverts halves of at most 91 rows,
        # and the law keeps its bits on one and two OpenBLAS threads; at
        # c = 250 and 317 it does not, nor did whole 101-row inverses
        script = (
            "import dataclasses, hashlib\n"
            "from roadqueue import TandemConfig, default_scenario, tandem_stationary\n"
            "t = default_scenario().tandem()\n"
            f"s1, s2 = (dataclasses.replace(s, L={length}, c=None)\n"
            "          for s in (t.section1, t.section2))\n"
            "pi = tandem_stationary(TandemConfig(section1=s1, section2=s2), 0.8)\n"
            "print(hashlib.sha256(pi.tobytes()).hexdigest())\n"
        )
        digests = set()
        for threads in ("1", "2"):
            env = {**os.environ, **dict.fromkeys(THREAD_VARS, threads)}
            env["PYTHONPATH"] = os.pathsep.join([SRC, env.get("PYTHONPATH", "")])
            out = subprocess.run(
                [sys.executable, "-c", script], env=env, check=True,
                capture_output=True, text=True,
            )
            digests.add(out.stdout)
        assert len(digests) == 1


LAMS = np.array([0.0, 1e-8, 0.1, 0.5, 0.8, 1.3, 2.0, 10.0, 1e12])


class TestBatchedOracle:
    """tandem_stationary over a vector of lam is the stack of scalar calls."""

    def test_vector_is_the_stack_of_scalar_calls(self, tandem_config):
        batch = tandem_stationary(tandem_config, LAMS)
        assert batch.shape == (LAMS.size, 19, 19)
        single = np.array([tandem_stationary(tandem_config, lam) for lam in LAMS])
        np.testing.assert_array_equal(batch, single)

    def test_scalar_shapes(self, tandem_config):
        assert tandem_stationary(tandem_config, 0.8).shape == (19, 19)
        assert tandem_stationary(tandem_config, np.float64(0.8)).shape == (19, 19)
        assert tandem_stationary(tandem_config, [0.8]).shape == (1, 19, 19)
        assert tandem_stationary(tandem_config, []).shape == (0, 19, 19)

    def test_split_at_the_cap_equals_one_batch(self, tandem_config, monkeypatch):
        whole = tandem_stationary(tandem_config, LAMS)
        # room for 2 laws: 9 rates run as 2 + 2 + 2 + 2 + 1
        monkeypatch.setattr(fundamental, "_ARRAY_CAP_BYTES", oracle_bytes(18, 18, 2) + 7)
        calls = []
        solve = ctmc._level_reduction

        def spy(config, lams):
            calls.append(lams.size)
            return solve(config, lams)

        monkeypatch.setattr(ctmc, "_level_reduction", spy)
        split = tandem_stationary(tandem_config, LAMS)
        assert calls == [2, 2, 2, 2, 1]
        np.testing.assert_array_equal(split, whole)

    def test_zero_rate_in_a_batch_is_the_empty_road(self, tandem_config):
        batch = tandem_stationary(tandem_config, [0.5, 0.0, 2.0])
        empty = np.zeros((19, 19))
        empty[0, 0] = 1.0
        np.testing.assert_array_equal(batch[1], empty)
        for law, lam in zip(batch[[0, 2]], [0.5, 2.0]):
            np.testing.assert_array_equal(law, tandem_stationary(tandem_config, lam))

    def test_oversized_vector_is_refused_before_allocating(self, tandem_config, traced_peak):
        big = scaled(tandem_config, 400 / 0.18)
        refused, peak = traced_peak(lambda: tandem_stationary(big, np.linspace(0.1, 2.0, 40)))
        assert isinstance(refused, OracleError)
        assert "531 MB" in str(refused)
        assert peak < 2**20

    def test_each_law_is_verified_on_its_own(self, tandem_config, monkeypatch):
        seen = []
        verify = ctmc._verify

        def spy(pi, residual, tol):
            seen.append((pi.shape, tol))
            verify(pi, residual, tol)

        monkeypatch.setattr(ctmc, "_verify", spy)
        tandem_stationary(tandem_config, [0.1, 2.0])
        assert [shape for shape, _ in seen] == [(19, 19), (19, 19)]
        # ||Q||_inf, and with it the tolerance, grows with lam
        assert seen[0][1] < seen[1][1]

    def test_gth_on_a_stack_of_one(self):
        rng = np.random.default_rng(3)
        rates = rng.random((7, 7))
        np.fill_diagonal(rates, 0.0)
        for band in (1, 3, 6):
            single = ctmc._gth(rates.copy(), band)
            stacked = ctmc._gth(rates[None].copy(), band)
            assert stacked.shape == (1, 7)
            np.testing.assert_array_equal(stacked[0], single)

    def test_gth_reports_the_highest_state_with_no_outflow(self):
        rng = np.random.default_rng(4)
        stack = rng.random((2, 7, 7))
        stack[1, [3, 5]] = 0.0  # states 3 and 5 of the second matrix never leave
        with pytest.raises(OracleError, match="state 5 has no outflow"):
            ctmc._gth(stack.copy(), 6)
        stack[1, 5] = 1.0
        with pytest.raises(OracleError, match="state 3 has no outflow"):
            ctmc._gth(stack[1], 6)

    def test_gth_rescales_each_law_on_its_own(self):
        # a birth-death chain whose masses grow by 1e100 a state next to
        # one whose masses stay near 1: only the first is rescaled
        steep = np.diag(np.full(3, 1e100), 1) + np.diag(np.ones(3), -1)
        flat = np.diag(np.ones(3), 1) + np.diag(np.ones(3), -1)
        stacked = ctmc._gth(np.array([steep, flat]), 1)
        np.testing.assert_array_equal(stacked[1], ctmc._gth(flat.copy(), 1))
        np.testing.assert_array_equal(stacked[0], ctmc._gth(steep.copy(), 1))
        assert stacked[0].max() <= ctmc._RESCALE

    def test_diagnostic_over_a_vector(self, tandem_config):
        lams = [0.0, 0.5, 1.0]
        marginals = [solve_fixed_point(tandem_config, lam).marginal.probs for lam in lams]
        tvs = decomposition_diagnostic(tandem_config, np.array(lams), marginals)
        assert isinstance(tvs, list)
        assert tvs == [
            decomposition_diagnostic(tandem_config, lam, marginal)
            for lam, marginal in zip(lams, marginals)
        ]
        assert tvs[2] == pytest.approx(TV_2D_LAM1, rel=1e-9)
        with pytest.raises(ValueError):
            decomposition_diagnostic(tandem_config, np.array(lams), marginals[:2])


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
        with pytest.raises(ValueError, match="mismatch"):
            tv_distance([[0.5, 0.5], [1.0, 0.0]], [0.5, 0.5])

    def test_a_stack_gives_one_distance_per_row(self):
        # disjoint laws are 1 apart each, not 2 in all
        assert tv_distance([[1, 0], [1, 0]], [[0, 1], [0, 1]]) == [1.0, 1.0]
        rng = np.random.default_rng(7)
        for n in (2, 19, 181):
            p, q = rng.dirichlet(np.ones(n), size=3), rng.dirichlet(np.ones(n), size=3)
            tvs = tv_distance(p, q)
            assert isinstance(tvs, list)
            rows = [tv_distance(a, b) for a, b in zip(p, q)]
            assert all(isinstance(tv, float) for tv in rows)
            assert np.array(tvs).tobytes() == np.array(rows).tobytes()


class TestSimulate:
    def test_converges_to_stationary_law(self, section1):
        rates = service_rates(section1)
        exact = solve_triangular(0.8, section1)
        result = simulate(0.8, rates, seed=42, max_events=10**6)
        assert tv_distance(result.empirical, exact) < 0.02
        assert result.events == 10**6
        assert not result.absorbed
        assert result.algorithm == RNG_ALGORITHM

    def test_algorithm_is_a_constant_not_a_field(self):
        assert "algorithm" not in {f.name for f in dataclasses.fields(SimulationResult)}
        empty = OccupancyDistribution.point_mass(2, 0)
        with pytest.raises(TypeError):
            SimulationResult(empty, 10**4, 42, 1.0, algorithm="other")

    @pytest.mark.parametrize(
        "lam, rates, max_events",
        [
            # state 0 would step down once u * lam rounds up to lam
            (5e-324, [1.0] * 18, 10**4),
            # the holding times would overflow to inf and the law to NaN
            (1e-310, [1.0] * 18, 10**6),
            (1.0, [1.0] * 17 + [1e-320], 10**6),
            # a Python int past the float range, compared without overflow
            (0.8, [1.0] * 18, 10**400),
        ],
        ids=["subnormal-lambda", "tiny-lambda", "tiny-service-rate", "events-past-floats"],
    )
    @pytest.mark.filterwarnings("error")
    def test_rates_too_small_to_time_the_run_are_refused(self, lam, rates, max_events):
        with pytest.raises(ValueError, match="too small to time"):
            simulate(lam, rates, max_events=max_events)

    def test_small_rate_that_times_the_run_is_simulated(self):
        result = simulate(1e-300, [1.0] * 18, max_events=10**4)
        assert result.events == 10**4 and not result.absorbed
        assert np.isfinite(result.elapsed_model_time)
        assert result.empirical[0] == pytest.approx(1.0)

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

    def test_zero_rate_at_capacity_absorbs(self, section1):
        # q_c = 0 traps the chain once it fills; the run must say so
        rates = np.append(service_rates(section1)[:-1], 0.0)
        result = simulate(2.0, rates, seed=42, max_events=10**6)
        assert result.absorbed
        assert result.empirical[section1.c] == 1.0
        assert result.events < 10**6

    def test_elapsed_time_is_total_holding_time(self, section1):
        rates = service_rates(section1)
        result = simulate(0.8, rates, seed=5, max_events=10**4)
        assert result.elapsed_model_time > 0
