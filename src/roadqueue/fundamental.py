"""Triangular fundamental diagram and road-section geometry.

Flow: q [veh/s]
Density: rho [veh/m]
Speed: v [m/s]

The triangular diagram rises with slope v_f (free speed) up to the
critical density rho_cr and falls with slope -w (backward wave speed)
down to zero at the jam density rho_j:

    Q(rho) = min(v_f * rho, w * (rho_j - rho))

All quantities are SI: meters, seconds, veh/s, veh/m.  The vertex flow
q_max = rho_j / (1/v_f + 1/w) and rho_cr = q_max / v_f are always derived
from (v_f, w, rho_j), never supplied directly.

A road section of length L holds at most c = round(rho_j * L) vehicles.
With n vehicles present the section density is n / L and the section
moves vehicles at the state-dependent rate

    q_n = min(v_f * n / L, w * (c - n) / L)        ("exact")
    q_n = min(v_f * n / L, w * (c - n + 1) / L)    ("shifted")

The exact supply term vanishes at n = c, which makes a loss queue built
on these rates singular; the shifted variant keeps q_c > 0 and is the
default convention throughout the package.

The supply term w * (c - n + offset) is written once, in supply_term,
and works elementwise on arrays of counts.  service_rates builds the
rates q_1..q_c as one numpy array from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

EXACT = "exact"
SHIFTED = "shifted"
CONVENTIONS = (EXACT, SHIFTED)
# Most bytes one solve may hold, read by check_array_bytes only: a section's
# states, a tandem's decomposition, a birth-death generator, oracle blocks.
_ARRAY_CAP_BYTES = 256 * 2**20


def check_convention(convention: str) -> str:
    """Validate a service-rate convention name and return it."""
    if convention not in CONVENTIONS:
        raise ValueError(
            f"convention must be one of {CONVENTIONS}, got {convention!r}"
        )
    return convention


def check_positive(**values: float) -> None:
    """Refuse the first named value that is not finite and positive."""
    for name, value in values.items():
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be finite and positive, got {value!r}")


def check_integer(name: str, value, least: int) -> int:
    """value as an int, refused unless a whole number (18.0 is one) of at least least."""
    # a Python int is compared exactly at any size, where a float of it would overflow
    whole = int(value) if isinstance(value, (float, np.floating)) and value.is_integer() else value
    if isinstance(whole, bool) or not isinstance(whole, (int, np.integer)) or whole < least:
        raise ValueError(f"{name} must be a whole number of at least {least}, got {value!r}")
    return int(whole)


def check_array_bytes(what: str, per_item: int, reserve: int = 0, error=ValueError) -> int:
    """Items of per_item bytes that fit beside reserve bytes under the cap; none raises error."""
    fits = (_ARRAY_CAP_BYTES - reserve) // per_item
    if fits < 1:
        raise error(
            f"{what} needs {(reserve + per_item) / 10**6:.0f} MB, "
            f"above the {_ARRAY_CAP_BYTES >> 20} MiB cap"
        )
    return fits


@dataclass(frozen=True)
class TriangularDiagram:
    """Triangular flow-density relation.

    v_f: free speed [m/s]
    w: backward wave speed [m/s]
    rho_j: jam density [veh/m]
    """

    v_f: float
    w: float
    rho_j: float

    def __post_init__(self) -> None:
        check_positive(v_f=self.v_f, w=self.w, rho_j=self.rho_j)

    @property
    def q_max(self) -> float:
        """Capacity flow at the diagram vertex [veh/s]."""
        return self.rho_j / (1.0 / self.v_f + 1.0 / self.w)

    @property
    def rho_cr(self) -> float:
        """Critical density separating the free and congested branches."""
        return self.q_max / self.v_f


@dataclass(frozen=True)
class RoadSection:
    """A road section of length L governed by a triangular diagram.

    The vehicle capacity c defaults to round(rho_j * L); an explicit
    value is accepted (configs often state it) but rejected if it
    disagrees with the derived one by more than one vehicle.  c must lie
    in [2, 2**25 - 1], so one float64 per state fits in 256 MiB.
    """

    L: float
    diagram: TriangularDiagram
    c: int = None  # type: ignore[assignment]  # derived when omitted

    def __post_init__(self) -> None:
        check_positive(L=self.L)
        jam_count = self.diagram.rho_j * self.L
        if jam_count == math.inf:
            raise ValueError("capacity c = rho_j * L overflows a float")
        derived_c = math.floor(jam_count + 0.5)  # rho_j * L rounded half up
        object.__setattr__(self, "c", check_integer("c", derived_c if self.c is None else self.c, 2))
        if abs(self.c - derived_c) > 1:
            raise ValueError(
                f"c={self.c} inconsistent with rho_j*L={derived_c} "
                "by more than one vehicle"
            )
        check_array_bytes(f"capacity c = {self.c} at one float64 a state", 8 * (self.c + 1))

    @property
    def free_flow_time(self) -> float:
        """Transit time of an unimpeded vehicle, L / v_f [s]."""
        return self.L / self.diagram.v_f


def supply_term(section: RoadSection, n, convention: str = SHIFTED):
    """Supply term w * (c - n + offset) [veh*m/s], elementwise in n.

    offset is 0 under "exact" and 1 under "shifted".  Divided by L it is
    the supply-limited section rate.  n may be an int or an integer array
    of counts.
    """
    offset = 0 if check_convention(convention) == EXACT else 1
    return section.diagram.w * (section.c - n + offset)


def service_rates(section: RoadSection, convention: str = SHIFTED) -> np.ndarray:
    """Rates q_1..q_c as an array, ready for a birth-death solve."""
    n = np.arange(1, section.c + 1)
    return np.minimum(
        section.diagram.v_f * n / section.L,
        supply_term(section, n, convention) / section.L,
    )
