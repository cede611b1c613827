"""JSON scenario ingestion and the shipped default configuration.

A scenario document holds one or two road sections plus solver choices:

    {
      "sections": [
        {"L": 100.0, "v_f": 28.0, "w": 14.0, "rho_j": 0.18, "c": 18},
        {"L": 100.0, "v_f": 14.0, "w": 7.0, "rho_j": 0.18, "c": 18}
      ],
      "convention": "shifted",
      "model": "triangular"
    }

A bare section object (keys L, v_f, w, rho_j, optional c, optional
convention) is accepted as a one-section scenario.  "convention" may
only be "shifted", the one service-rate supply w * (c - n + 1) (see
fundamental); "exact", the supply w * (c - n), makes the chain absorb at
capacity and is refused as SingularModelError.  The bundled default
is the two-section benchmark above (a 100 m urban approach feeding a
slower 100 m section at half the free speed and wave speed).

Model names: "triangular" solves with the fundamental-diagram rates;
"linear" / "jain-smith-linear" and "exponential" / "jain-smith-
exponential" select the congestion-model rates, the exponential one
requiring scenario-level "beta" and "gamma".  Scenario.rates gives a
section's rates under the chosen model, and Scenario.tandem builds the
two-section coupling, which only the triangular model carries.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .congestion import ExponentialCongestionModel, LinearCongestionModel
from .fundamental import SHIFTED, RoadSection, TriangularDiagram, check_integer, service_rates
from .queueing import SingularModelError, jain_smith_rates
from .tandem import TandemConfig

TRIANGULAR = "triangular"
LINEAR = "linear"
EXPONENTIAL = "exponential"

_MODEL_ALIASES = {
    "triangular": TRIANGULAR,
    "linear": LINEAR,
    "jain-smith-linear": LINEAR,
    "exponential": EXPONENTIAL,
    "jain-smith-exponential": EXPONENTIAL,
}

_SECTION_KEYS = {"L", "v_f", "w", "rho_j", "c", "convention"}


def check_model(name: str) -> str:
    """Normalize a model selector to triangular | linear | exponential."""
    try:
        return _MODEL_ALIASES[name]
    except (KeyError, TypeError):  # TypeError: a list or object as the name
        raise ValueError(
            f"model must be one of {sorted(set(_MODEL_ALIASES))}, got {name!r}"
        ) from None


@dataclass(frozen=True)
class Scenario:
    """Validated sections plus solver selections."""

    sections: tuple[RoadSection, ...]
    model: str = TRIANGULAR
    beta: float | None = None
    gamma: float | None = None

    def __post_init__(self) -> None:
        if not 1 <= len(self.sections) <= 2:
            raise ValueError(
                f"scenario needs 1 or 2 sections, got {len(self.sections)}"
            )
        object.__setattr__(self, "model", check_model(self.model))
        if self.model == EXPONENTIAL and (self.beta is None or self.gamma is None):
            raise ValueError(
                "model 'exponential' requires scenario keys beta and gamma"
            )

    def section(self, index: int) -> RoadSection:
        """1-based section lookup, matching the CLI's --section flag."""
        index = check_integer("section", index, 1)
        if index > len(self.sections):
            raise ValueError(
                f"section {index} requested but scenario has "
                f"{len(self.sections)} section(s)"
            )
        return self.sections[index - 1]

    def rates(self, index: int) -> np.ndarray:
        """Service rates q_1..q_c of the chosen section under the model."""
        section = self.section(index)
        if self.model == TRIANGULAR:
            return service_rates(section)
        return jain_smith_rates(section.L, self.congestion_model(index))

    def tandem(self) -> TandemConfig:
        """The two sections as a tandem, refused unless triangular."""
        if len(self.sections) != 2:
            raise ValueError("tandem solves need a 2-section scenario")
        if self.model != TRIANGULAR:
            raise ValueError(
                f"tandem solves take the triangular model only; pass "
                f"--section to solve one section under model {self.model!r}"
            )
        return TandemConfig(section1=self.sections[0], section2=self.sections[1])

    def congestion_model(self, index: int):
        """Congestion model matching the chosen section's v_f and c."""
        section = self.section(index)
        if self.model == LINEAR:
            return LinearCongestionModel(v_f=section.diagram.v_f, c=section.c)
        if self.model == EXPONENTIAL:
            return ExponentialCongestionModel(
                v_f=section.diagram.v_f,
                beta=self.beta,
                gamma=self.gamma,
                c=section.c,
            )
        raise ValueError("scenario model 'triangular' has no congestion model")


def _number(value, name: str) -> float:
    """A JSON number as a float, refused unless it is one within the float range."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number")
    try:
        return float(value)
    except OverflowError:  # an integer past about 1.8e308
        raise ValueError(f"{name} is past the float range") from None


def _check_convention(doc: dict) -> None:
    """Refuse the "convention" of a document or section unless it is absent or "shifted"."""
    convention = doc.get("convention")
    if convention == "exact":
        raise SingularModelError(
            "convention 'exact' is not solved: its supply w * (c - n) is 0 at "
            "n = c, so the chain absorbs at capacity"
        )
    if convention not in (None, SHIFTED):
        raise ValueError(f"convention must be {SHIFTED!r}, got {convention!r}")


def section_from_dict(doc: dict) -> RoadSection:
    """Build a RoadSection from a JSON object."""
    if not isinstance(doc, dict):
        raise ValueError(f"section must be a JSON object, got {type(doc).__name__}")
    unknown = set(doc) - _SECTION_KEYS
    if unknown:
        raise ValueError(f"unknown section key(s): {sorted(unknown)}")
    values = {}
    for key in ("L", "v_f", "w", "rho_j"):
        if key not in doc:
            raise ValueError(f"section is missing required key {key!r}")
        values[key] = _number(doc[key], f"section key {key!r}")
    _check_convention(doc)
    diagram = TriangularDiagram(v_f=values["v_f"], w=values["w"], rho_j=values["rho_j"])
    c = doc.get("c")
    if c is not None:
        _number(c, "section key 'c'")  # c itself stays an int if it is one
    return RoadSection(L=values["L"], diagram=diagram, c=c)


def scenario_from_dict(doc: dict) -> Scenario:
    """Validate a scenario document (or bare section) into a Scenario."""
    if not isinstance(doc, dict):
        raise ValueError(f"config must be a JSON object, got {type(doc).__name__}")
    if "sections" not in doc:
        doc = {"sections": [doc]}  # a bare section is a one-section document
    raw_sections = doc["sections"]
    if not isinstance(raw_sections, list) or not raw_sections:
        raise ValueError("key 'sections' must be a nonempty list")
    sections = tuple(section_from_dict(item) for item in raw_sections)
    _check_convention(doc)
    unknown = set(doc) - {"sections", "convention", "model", "beta", "gamma"}
    if unknown:
        raise ValueError(f"unknown config key(s): {sorted(unknown)}")
    beta, gamma = (
        None if doc.get(key) is None else _number(doc[key], f"config key {key!r}")
        for key in ("beta", "gamma")
    )
    return Scenario(
        sections=sections,
        model=doc.get("model", TRIANGULAR),
        beta=beta,
        gamma=gamma,
    )


def default_scenario() -> Scenario:
    """The shipped two-section benchmark configuration."""
    text = (
        resources.files(__package__)
        .joinpath("data/default_scenario.json")
        .read_text()
    )
    return scenario_from_dict(json.loads(text))


def load_scenario(source: str | None) -> Scenario:
    """Load a scenario from a path, '-' for stdin, or None for the default."""
    if source is None:
        return default_scenario()
    if source == "-":
        text = sys.stdin.read()
    else:
        with open(source, "r", encoding="utf-8") as handle:
            text = handle.read()
    try:
        doc = json.loads(text)
    except RecursionError:  # the decoder recurses once per nested array or object
        raise ValueError("scenario JSON nests too deeply to parse") from None
    return scenario_from_dict(doc)
