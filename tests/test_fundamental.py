import numpy as np
import pytest

from roadqueue import RoadSection, TriangularDiagram, service_rates

from chain_references import ref_flow


@pytest.fixture
def diagram1() -> TriangularDiagram:
    return TriangularDiagram(v_f=28.0, w=14.0, rho_j=0.18)


class TestTriangularDiagram:
    def test_derived_constants(self, diagram1):
        assert diagram1.q_max == pytest.approx(1.68, rel=1e-12)
        # the critical density is the vertex's q_max / v_f
        assert diagram1.q_max / diagram1.v_f == pytest.approx(0.06, rel=1e-12)

    def test_second_section_constants(self):
        d = TriangularDiagram(v_f=14.0, w=7.0, rho_j=0.18)
        assert d.q_max == pytest.approx(0.84, rel=1e-12)
        assert 0 < d.q_max / d.v_f < d.rho_j


class TestRoadSection:
    def test_capacity_derived_from_jam_density(self, diagram1):
        section = RoadSection(L=100.0, diagram=diagram1)
        assert section.c == 18
        assert round(diagram1.q_max / diagram1.v_f * section.L) == 6

    def test_explicit_capacity_within_one_accepted(self, diagram1):
        assert RoadSection(L=100.0, diagram=diagram1, c=17).c == 17

    def test_explicit_capacity_off_by_two_rejected(self, diagram1):
        with pytest.raises(ValueError, match="inconsistent"):
            RoadSection(L=100.0, diagram=diagram1, c=16)

    def test_capacity_past_the_float_range_is_compared_exactly(self, diagram1):
        # an int past the float range is exact, and far from rho_j * L
        with pytest.raises(ValueError, match="inconsistent"):
            RoadSection(L=100.0, diagram=diagram1, c=10**400)

    def test_tiny_section_rejected(self, diagram1):
        # rho_j * L = 0.9 rounds to c = 1, below the 2-vehicle floor
        with pytest.raises(ValueError, match="c"):
            RoadSection(L=5.0, diagram=diagram1)

    def test_absurd_length_is_refused_before_allocating(self, diagram1, traced_peak):
        # L = 1e12 m holds c = 1.8e11: one float64 per state would take 1.3 TiB
        refused, peak = traced_peak(lambda: RoadSection(L=1e12, diagram=diagram1))
        assert isinstance(refused, ValueError)
        assert "capacity c = 180000000000 " in str(refused)
        assert peak < 2**20

    def test_overflowing_capacity_is_refused(self):
        dense = TriangularDiagram(v_f=28.0, w=14.0, rho_j=1e10)
        with pytest.raises(ValueError, match="capacity c = rho_j \\* L overflows"):
            RoadSection(L=1e300, diagram=dense)

    def test_capacity_cap_boundary(self, diagram1):
        # one float64 per state fits 256 MiB up to c + 1 = 2**25
        largest = 2**25 - 1
        assert RoadSection(L=largest / 0.18, diagram=diagram1, c=largest).c == largest
        with pytest.raises(ValueError, match=f"capacity c = {largest + 1} "):
            RoadSection(L=(largest + 1) / 0.18, diagram=diagram1, c=largest + 1)

    def test_degenerate_critical_count_loads(self):
        # the critical count q_max / v_f * L rounds to 0, yet every rate is
        # positive: no rate or speed table reads the critical count
        d = TriangularDiagram(v_f=35.53, w=2.518, rho_j=0.1561)
        section = RoadSection(L=10.35, diagram=d)
        assert section.c == 2
        assert round(d.q_max / d.v_f * section.L) == 0
        assert (service_rates(section) > 0).all()

    def test_free_flow_time(self, section1):
        assert section1.free_flow_time == pytest.approx(100.0 / 28.0)


class TestFlowDemandSupply:
    def test_flow_examples(self, diagram1):
        # both branches of the diagram meet at its vertex (rho_cr, q_max)
        rho_cr = diagram1.q_max / diagram1.v_f
        assert diagram1.v_f * rho_cr == pytest.approx(1.68, rel=1e-12)
        assert diagram1.w * (diagram1.rho_j - rho_cr) == pytest.approx(
            diagram1.q_max, rel=1e-12
        )

    def test_vertex_is_exact(self, diagram1):
        assert ref_flow(diagram1, diagram1.q_max / diagram1.v_f) == diagram1.q_max


class TestServiceRate:
    # service_rates holds q_1..q_c: entry n - 1 is the rate with n vehicles

    def test_full_section(self, section1):
        assert service_rates(section1)[-1] == pytest.approx(0.14, rel=1e-12)

    def test_critical_count_reaches_capacity_flow(self, section1):
        assert service_rates(section1)[5] == pytest.approx(1.68, rel=1e-12)

    def test_takes_no_convention(self, section1):
        with pytest.raises(TypeError):
            service_rates(section1, "shifted")

    def test_rates_sit_on_the_diagram_one_vehicle_back_when_congested(self, section1):
        # c = rho_j * L exactly for this geometry: the free branch is the
        # diagram's flow at n / L, and the shifted supply w * (c - n + 1) / L
        # its congested flow at (n - 1) / L, past the critical count 6
        rates = service_rates(section1)
        assert len(rates) == section1.c
        for n, rate in enumerate(rates, start=1):
            density = (n if n <= 6 else n - 1) / section1.L
            assert rate == pytest.approx(ref_flow(section1.diagram, density), abs=1e-15)

    def test_positive_at_capacity(self, section1, section2):
        for section in (section1, section2):
            assert service_rates(section)[-1] > 0


class TestNormalizedRate:
    # service rates scaled by the diagram capacity q_max

    def test_examples(self, section1):
        normalized = service_rates(section1) / section1.diagram.q_max
        assert normalized[5] == pytest.approx(1.0, rel=1e-12)
        assert normalized[12] == pytest.approx(0.5, rel=1e-12)

    def test_bounded_on_benchmark_sections(self, section1, section2):
        # holds here because rho_cr * L is integral for both sections;
        # fractional critical counts can push the shifted form above 1
        for section in (section1, section2):
            normalized = service_rates(section) / section.diagram.q_max
            assert np.all((0.0 <= normalized) & (normalized <= 1.0))
