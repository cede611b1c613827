import tracemalloc

import pytest

from roadqueue import OracleError, RoadSection, TandemConfig, TriangularDiagram


@pytest.fixture
def section1() -> RoadSection:
    """Benchmark section 1: 100 m, v_f 28 m/s, w 14 m/s, rho_j 0.18 veh/m."""
    return RoadSection(
        L=100.0, diagram=TriangularDiagram(v_f=28.0, w=14.0, rho_j=0.18), c=18
    )


@pytest.fixture
def section2() -> RoadSection:
    """Benchmark section 2: same geometry at half the speeds."""
    return RoadSection(
        L=100.0, diagram=TriangularDiagram(v_f=14.0, w=7.0, rho_j=0.18), c=18
    )


@pytest.fixture
def tandem_config(section1, section2) -> TandemConfig:
    return TandemConfig(section1=section1, section2=section2)


def _traced_peak(solve):
    """solve's result, or the OracleError or ValueError it raised, and the
    tracemalloc peak of the call."""
    tracemalloc.start()
    try:
        result = solve()
    except (OracleError, ValueError) as exc:
        result = exc
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return result, peak


@pytest.fixture
def traced_peak():
    return _traced_peak
