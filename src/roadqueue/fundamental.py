"""Triangular fundamental diagram and road-section geometry.

Flow: q [veh/s]
Density: rho [veh/m]
Speed: v [m/s]

The triangular diagram rises with slope v_f (free speed) up to the
critical density rho_cr and falls with slope -w (backward wave speed)
down to zero at the jam density rho_j:

    Q(rho) = min(v_f * rho, w * (rho_j - rho))

All quantities are SI: meters, seconds, veh/s, veh/m.  The vertex flow
q_max = rho_j / (1/v_f + 1/w), reached at rho_cr = q_max / v_f, is always
derived from (v_f, w, rho_j), never supplied directly.

A road section of length L holds at most c = round(rho_j * L) vehicles.
With n vehicles present the section density is n / L and the section
moves vehicles at the state-dependent rate

    q_n = min(v_f * n / L, w * (c - n + 1) / L)

The supply w * (c - n) of the diagram itself is 0 at n = c, so a loss
queue on it absorbs at capacity and has no product form; the supply is
shifted by one vehicle, which keeps q_c = w / L > 0.  That term is
written once, in supply_term, and works elementwise on arrays of counts.
service_rates builds the rates q_1..q_c as one numpy array from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# the one service-rate convention, as payloads name it
SHIFTED = "shifted"
# Most bytes one solve may hold, read by check_array_bytes only: a section's
# states, a tandem's decomposition, a birth-death generator, oracle blocks.
_ARRAY_CAP_BYTES = 256 * 2**20


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


def check_array_bytes(what: str, per_item: int, reserve: int = 0) -> int:
    """Items of per_item bytes that fit beside reserve bytes under the cap, or ValueError."""
    fits = (_ARRAY_CAP_BYTES - reserve) // per_item
    if fits < 1:
        raise ValueError(
            f"{what} needs {(reserve + per_item) / 10**6:.0f} MB, "
            f"above the {_ARRAY_CAP_BYTES >> 20} MiB cap"
        )
    return fits


def check_capacity(c, least: int) -> int:
    """c as a whole number of at least least, refused unless one float64 a state fits the cap."""
    c = check_integer("c", c, least)
    check_array_bytes(f"capacity c = {c} at one float64 a state", 8 * (c + 1))
    return c


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
        c = check_integer("c", derived_c if self.c is None else self.c, 2)
        if abs(c - derived_c) > 1:
            raise ValueError(f"c={c} inconsistent with rho_j*L={derived_c} by more than one vehicle")
        object.__setattr__(self, "c", check_capacity(c, 2))

    @property
    def free_flow_time(self) -> float:
        """Transit time of an unimpeded vehicle, L / v_f [s]."""
        return self.L / self.diagram.v_f


def supply_term(section: RoadSection, n):
    """Shifted supply term w * (c - n + 1) [veh*m/s], elementwise in n.

    Divided by L it is the supply-limited section rate.  n may be an int
    or an integer array of counts.
    """
    return section.diagram.w * (section.c - n + 1)


def service_rates(section: RoadSection) -> np.ndarray:
    """Rates q_1..q_c as an array, ready for a birth-death solve."""
    n = np.arange(1, section.c + 1)
    return np.minimum(
        section.diagram.v_f * n / section.L, supply_term(section, n) / section.L
    )
