"""Speed-density congestion laws for occupancy-dependent service.

Two classical forms relate the per-vehicle speed v_n to the number of
occupants n of a section with capacity c and free speed v_f:

    linear:       v_n = v_f * (c - n + 1) / c
    exponential:  v_n = v_f * exp(-((n - 1) / beta) ** gamma)

Both satisfy v_1 = v_f and decrease in n.  The exponential shape and
scale parameters are fitted from two anchor points (a, v_a), (b, v_b)
on an empirical speed-density curve via the closed forms

    gamma = ln( ln(v_a/v_f) / ln(v_b/v_f) ) / ln( (a-1)/(b-1) )
    beta  = (a-1) / ln(v_f/v_a)**(1/gamma)
          = (b-1) / ln(v_f/v_b)**(1/gamma)

The fit is unit-agnostic: speeds and counts only need to be mutually
consistent with v_f.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .fundamental import check_capacity, check_integer, check_positive


@dataclass(frozen=True)
class LinearCongestionModel:
    """Linearly decreasing speed, v_f at n=1 down to v_f/c at n=c."""

    v_f: float
    c: int

    def __post_init__(self) -> None:
        check_positive(v_f=self.v_f)
        object.__setattr__(self, "c", check_capacity(self.c, 1))

    def speed(self, n):
        """Speed with n occupants [m/s], elementwise over an array or list of integers n."""
        n = _check_count(self, n)
        return self.v_f * (self.c - n + 1) / self.c


@dataclass(frozen=True)
class ExponentialCongestionModel:
    """Exponentially decreasing speed with scale beta and shape gamma."""

    v_f: float
    beta: float
    gamma: float
    c: int

    def __post_init__(self) -> None:
        check_positive(v_f=self.v_f, beta=self.beta, gamma=self.gamma)
        object.__setattr__(self, "c", check_capacity(self.c, 1))

    def speed(self, n):
        """Speed with n occupants [m/s], elementwise over an array or list of integers n."""
        n = _check_count(self, n)
        with np.errstate(over="ignore"):  # an overflowed power gives the limit exp(-inf) = 0
            return self.v_f * np.exp(-(((n - 1) / self.beta) ** self.gamma))


@dataclass(frozen=True)
class FitAnchors:
    """Two anchor points (a, v_a), (b, v_b) below the free speed v_f."""

    a: float
    v_a: float
    b: float
    v_b: float
    v_f: float

    def __post_init__(self) -> None:
        check_positive(a=self.a, v_a=self.v_a, b=self.b, v_b=self.v_b, v_f=self.v_f)
        if not 1 < self.a < self.b:
            raise ValueError(
                f"anchors need 1 < a < b, got a={self.a!r}, b={self.b!r}"
            )
        if not 0 < self.v_b < self.v_a < self.v_f:
            raise ValueError(
                "anchor speeds need 0 < v_b < v_a < v_f, got "
                f"v_a={self.v_a!r}, v_b={self.v_b!r}, v_f={self.v_f!r}"
            )


CongestionModel = Union[LinearCongestionModel, ExponentialCongestionModel]


def _check_count(model: CongestionModel, n) -> np.ndarray:
    """n as an array, refused unless a whole count or an array or list of integers, all in 1..c."""
    counts = np.asarray(n)
    if counts.ndim == 0 or not np.issubdtype(counts.dtype, np.integer):
        check_integer("n", n, 1)
    if np.any((counts < 1) | (counts > model.c)):
        raise ValueError(f"count n={n!r} outside [1, c={model.c}]")
    return counts


def fit_exponential(anchors: FitAnchors) -> tuple[float, float]:
    """Fit (beta, gamma) so the exponential law passes through both anchors.

    Raises ValueError where floats hold no fit: a ratio v/v_f or (a-1)/(b-1)
    underflows, ln(v_a/v_f) = ln(v_b/v_f), or beta leaves the float range.
    The two closed forms for beta, via (a, v_a) and via (b, v_b), agree to
    rounding error; the (a, v_a) form is returned.
    """
    try:  # an underflowed ratio has no logarithm, equal ones give gamma = 0
        la = math.log(anchors.v_a / anchors.v_f)
        lb = math.log(anchors.v_b / anchors.v_f)
        gamma = math.log(la / lb) / math.log((anchors.a - 1) / (anchors.b - 1))
        beta = (anchors.a - 1) / (-la) ** (1.0 / gamma)
    except (ValueError, ArithmeticError):
        beta = 0.0
    if not 0 < beta < math.inf:
        raise ValueError(f"{anchors} have no fit in floats: a ratio underflows, "
                         "ln(v_a/v_f) = ln(v_b/v_f), or beta leaves the float range")
    return beta, gamma
