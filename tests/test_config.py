import dataclasses
import json

import numpy as np
import pytest

from roadqueue import default_scenario, load_scenario, scenario_from_dict
from roadqueue.config import (
    EXPONENTIAL,
    LINEAR,
    TRIANGULAR,
    check_model,
    section_from_dict,
)
from roadqueue.congestion import ExponentialCongestionModel, LinearCongestionModel
from roadqueue.fundamental import service_rates
from roadqueue.queueing import SingularModelError, jain_smith_rates

SECTION_1 = {"L": 100.0, "v_f": 28.0, "w": 14.0, "rho_j": 0.18, "c": 18}
SECTION_2 = {"L": 100.0, "v_f": 14.0, "w": 7.0, "rho_j": 0.18, "c": 18}


def two_section_doc(**extra) -> dict:
    doc = {"sections": [dict(SECTION_1), dict(SECTION_2)]}
    doc.update(extra)
    return doc


class TestCheckModel:
    def test_canonical_names(self):
        assert check_model("triangular") == TRIANGULAR
        assert check_model("linear") == LINEAR
        assert check_model("exponential") == EXPONENTIAL

    def test_aliases(self):
        assert check_model("jain-smith-linear") == LINEAR
        assert check_model("jain-smith-exponential") == EXPONENTIAL

    @pytest.mark.parametrize("name", ["quadratic", ["linear"], {}])
    def test_unknown(self, name):
        with pytest.raises(ValueError, match="model must be one of"):
            check_model(name)


class TestSectionFromDict:
    def test_full_section(self):
        section = section_from_dict(dict(SECTION_1))
        assert section.c == 18
        assert section.diagram.v_f == 28.0

    def test_capacity_derived_when_omitted(self):
        doc = {k: v for k, v in SECTION_1.items() if k != "c"}
        section = section_from_dict(doc)
        assert section.c == 18

    def test_section_may_name_the_shifted_convention(self):
        shifted = section_from_dict({**SECTION_1, "convention": "shifted"})
        assert shifted == section_from_dict(dict(SECTION_1))

    def test_section_naming_exact_is_singular(self):
        with pytest.raises(SingularModelError, match="absorbs at capacity"):
            section_from_dict({**SECTION_1, "convention": "exact"})

    def test_missing_key(self):
        doc = {k: v for k, v in SECTION_1.items() if k != "w"}
        with pytest.raises(ValueError, match="'w'"):
            section_from_dict(doc)

    def test_unknown_key(self):
        with pytest.raises(ValueError, match="unknown section key"):
            section_from_dict({**SECTION_1, "length": 100.0})

    def test_non_numeric_value(self):
        with pytest.raises(ValueError, match="number"):
            section_from_dict({**SECTION_1, "v_f": "fast"})
        with pytest.raises(ValueError, match="number"):
            section_from_dict({**SECTION_1, "c": True})

    def test_non_object(self):
        with pytest.raises(ValueError, match="object"):
            section_from_dict([1, 2, 3])

    @pytest.mark.parametrize("key", ["L", "v_f", "w", "rho_j", "c"])
    def test_integer_past_the_float_range(self, key):
        # JSON integers are unbounded: float() of one past 1.8e308 raises
        # OverflowError, which must reach the caller as a ValueError
        with pytest.raises(ValueError, match=f"section key '{key}' is past the float range"):
            section_from_dict({**SECTION_1, key: 10**400})


class TestScenarioFromDict:
    def test_two_section_scenario(self):
        scenario = scenario_from_dict(two_section_doc(convention="shifted"))
        assert len(scenario.sections) == 2
        assert scenario.model == TRIANGULAR
        assert scenario == scenario_from_dict(two_section_doc())

    def test_bare_section_accepted(self):
        scenario = scenario_from_dict(dict(SECTION_1))
        assert len(scenario.sections) == 1

    @pytest.mark.parametrize("convention", [None, "shifted"])
    def test_bare_section_reads_as_a_one_section_document(self, convention):
        section = dict(SECTION_1) if convention is None else {**SECTION_1, "convention": convention}
        assert scenario_from_dict(section) == scenario_from_dict({"sections": [section]})

    @pytest.mark.parametrize(
        "section",
        [
            {k: v for k, v in SECTION_1.items() if k != "w"},
            {**SECTION_1, "length": 100.0},
            {**SECTION_1, "model": "linear"},
            {**SECTION_1, "v_f": "fast"},
            {**SECTION_1, "convention": "loose"},
            {**SECTION_1, "convention": "exact"},
        ],
        ids=["missing", "unknown", "config-key", "non-numeric", "bad-convention", "exact"],
    )
    def test_bare_section_is_refused_as_in_a_document(self, section):
        with pytest.raises(ValueError) as bare:
            scenario_from_dict(section)
        with pytest.raises(ValueError) as listed:
            scenario_from_dict({"sections": [section]})
        assert str(bare.value) == str(listed.value)

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key"):
            scenario_from_dict(two_section_doc(solver="fast"))

    def test_empty_sections_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            scenario_from_dict({"sections": []})

    def test_three_sections_rejected(self):
        doc = {"sections": [dict(SECTION_1), dict(SECTION_2), dict(SECTION_1)]}
        with pytest.raises(ValueError, match="1 or 2"):
            scenario_from_dict(doc)

    @pytest.mark.parametrize("key", ["beta", "gamma"])
    @pytest.mark.parametrize(
        "value", ["x", [9.5], True, 10**400], ids=["str", "list", "bool", "huge-int"]
    )
    def test_shape_parameter_must_be_a_number(self, key, value):
        doc = two_section_doc(model="exponential", beta=9.5, gamma=1.8)
        doc[key] = value
        with pytest.raises(ValueError, match=f"config key '{key}'"):
            scenario_from_dict(doc)

    def test_integer_shape_parameters_are_read_as_floats(self):
        scenario = scenario_from_dict(two_section_doc(model="exponential", beta=9, gamma=2))
        assert (scenario.beta, scenario.gamma) == (9.0, 2.0)

    def test_exponential_requires_shape_parameters(self):
        with pytest.raises(ValueError, match="beta and gamma"):
            scenario_from_dict(two_section_doc(model="exponential"))
        scenario = scenario_from_dict(
            two_section_doc(model="exponential", beta=9.5, gamma=1.8)
        )
        assert scenario.model == EXPONENTIAL


class TestScenarioAccessors:
    def test_section_lookup_is_one_based(self):
        scenario = scenario_from_dict(two_section_doc())
        assert scenario.section(1).diagram.v_f == 28.0
        assert scenario.section(2).diagram.v_f == 14.0
        with pytest.raises(ValueError, match="section"):
            scenario.section(3)
        with pytest.raises(ValueError, match="section"):
            scenario.section(0)

    def test_tandem_requires_two_sections(self):
        scenario = scenario_from_dict(dict(SECTION_1))
        with pytest.raises(ValueError, match="2-section"):
            scenario.tandem()
        config = scenario_from_dict(two_section_doc()).tandem()
        assert config.section1.diagram.v_f == 28.0
        assert config.section2.diagram.v_f == 14.0

    def test_tandem_takes_the_triangular_model_only(self):
        for model in ("linear", "exponential"):
            scenario = scenario_from_dict(two_section_doc(model=model, beta=9.5, gamma=1.8))
            with pytest.raises(ValueError, match="--section") as info:
                scenario.tandem()
            assert repr(model) in str(info.value)

    def test_rates_follow_the_model(self):
        triangular = scenario_from_dict(two_section_doc())
        np.testing.assert_array_equal(triangular.rates(2), service_rates(triangular.section(2)))
        linear = scenario_from_dict(two_section_doc(model="linear"))
        np.testing.assert_array_equal(
            linear.rates(1), jain_smith_rates(100.0, linear.congestion_model(1))
        )
        with pytest.raises(ValueError, match="section"):
            linear.rates(3)

    def test_congestion_model_construction(self):
        linear = scenario_from_dict(two_section_doc(model="linear"))
        model = linear.congestion_model(1)
        assert isinstance(model, LinearCongestionModel)
        assert (model.v_f, model.c) == (28.0, 18)

        expo = scenario_from_dict(
            two_section_doc(model="exponential", beta=9.5, gamma=1.8)
        )
        model = expo.congestion_model(2)
        assert isinstance(model, ExponentialCongestionModel)
        assert (model.v_f, model.beta, model.gamma, model.c) == (14.0, 9.5, 1.8, 18)

    def test_triangular_has_no_congestion_model(self):
        scenario = scenario_from_dict(two_section_doc())
        with pytest.raises(ValueError, match="triangular"):
            scenario.congestion_model(1)


class TestScenarioModelAliases:
    def test_replaced_alias_is_stored_normalized(self):
        scenario = dataclasses.replace(default_scenario(), model="jain-smith-linear")
        assert scenario.model == LINEAR
        linear = dataclasses.replace(default_scenario(), model="linear")
        np.testing.assert_array_equal(scenario.rates(1), linear.rates(1))

    def test_exponential_alias_requires_shape_parameters(self):
        with pytest.raises(ValueError, match="requires scenario keys beta and gamma"):
            dataclasses.replace(default_scenario(), model="jain-smith-exponential")
        scenario = dataclasses.replace(
            default_scenario(), model="jain-smith-exponential", beta=9.5, gamma=1.8
        )
        assert scenario.model == EXPONENTIAL

    def test_unknown_model_is_refused(self):
        with pytest.raises(ValueError, match="model must be one of"):
            dataclasses.replace(default_scenario(), model="quadratic")
        with pytest.raises(ValueError, match="model must be one of"):
            scenario_from_dict(two_section_doc(model="quadratic"))


class TestLoading:
    def test_default_scenario_is_the_benchmark(self):
        scenario = default_scenario()
        assert len(scenario.sections) == 2
        assert scenario.model == TRIANGULAR
        assert scenario.section(1).c == 18
        assert scenario.section(2).diagram.w == 7.0

    def test_load_none_gives_default(self):
        assert load_scenario(None).section(1).c == 18

    def test_load_from_path(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(two_section_doc(model="linear")))
        scenario = load_scenario(str(path))
        assert scenario.model == LINEAR

    def test_load_from_stdin(self, monkeypatch):
        import io

        monkeypatch.setattr(
            "sys.stdin", io.StringIO(json.dumps(dict(SECTION_1)))
        )
        scenario = load_scenario("-")
        assert len(scenario.sections) == 1

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_scenario(str(tmp_path / "nope.json"))

    # the deep document overflows the decoder's recursion, not its syntax
    @pytest.mark.parametrize(
        "text", ["{not json", "[" * 100_000 + "]" * 100_000], ids=["broken", "deep"]
    )
    def test_invalid_json_raises_value_error(self, tmp_path, text):
        path = tmp_path / "broken.json"
        path.write_text(text)
        with pytest.raises(ValueError):
            load_scenario(str(path))
