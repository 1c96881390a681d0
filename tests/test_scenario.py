"""Scenario parsing, report rendering, and the CLI."""

import json
import subprocess
import sys

import pytest

import costrisk as cr
from costrisk.adversarial import MAX_STATES
from costrisk.cli import main
from costrisk.scenario import SchemaError, ScenarioFieldError, with_search_overrides

MINIMAL = {
    "name": "minimal",
    "states": ["a", "b"],
    "cost": {"profile": "zero_one"},
    "distribution": [0.25, 0.75],
    "estimators": ["mode", "bayes"],
}


def as_json(doc):
    return json.dumps(doc)


class TestParseScenario:
    def test_minimal_round_trip(self):
        scenario = cr.parse_scenario(as_json(MINIMAL))
        report = cr.run_scenario(scenario)
        text = cr.render_report(report, "text")
        assert "minimal" in text
        blob = cr.render_report(report, "json")
        parsed = json.loads(blob)
        assert parsed["estimates"]["mode"]["estimate"] == "b"
        assert parsed["estimates"]["mode"]["relative_error"] == 0.0

    def test_invalid_json(self):
        with pytest.raises(SchemaError) as err:
            cr.parse_scenario("{nope")
        assert err.value.path == "$"

    @pytest.mark.parametrize(
        "mutate,path",
        [
            (lambda d: d.update(cost={"profile": "cubic"}), "$.cost.profile"),
            (lambda d: d.update(cost={}), "$.cost"),
            (lambda d: d.update(cost={"matrix": [[0, 1]]}), "$.cost.matrix"),
            (lambda d: d.update(distribution=[0.5, 0.4]), "$.distribution"),
            (lambda d: d.update(distribution=[0.5, -0.5]), "$.distribution"),
            (lambda d: d.update(estimators=["mode", "mode"]), "$.estimators[1]"),
            (lambda d: d.update(estimators=["mean"]), "$.estimators[0]"),
            (lambda d: d.update(states=["a", "a"]), "$.states"),
            (lambda d: d.update(search={"resolution": 0.9}), "$.search"),
            (lambda d: d.update(bogus=1), "$.bogus"),
            (lambda d: d.pop("name"), "$.name"),
        ],
    )
    def test_schema_errors_carry_paths(self, mutate, path):
        doc = json.loads(as_json(MINIMAL))
        mutate(doc)
        with pytest.raises(SchemaError) as err:
            cr.parse_scenario(as_json(doc))
        assert err.value.path == path

    def test_distribution_sum_is_checked_exactly(self):
        # the exact sum of these doubles is within 1e-9 of 1, their float
        # sum is not; the schema follows Posterior's exact rule
        doc = dict(MINIMAL, distribution=[0.5, 0.500000001])
        report = cr.run_scenario(cr.parse_scenario(as_json(doc)))
        assert report.estimates["mode"]["estimate"] == "b"

    def test_distance_profile_needs_embedding(self):
        doc = dict(MINIMAL, cost={"profile": "abs"})
        with pytest.raises(SchemaError) as err:
            cr.parse_scenario(as_json(doc))
        assert err.value.path == "$.cost.profile"

    def test_worst_case_token(self):
        doc = dict(MINIMAL, distribution="worst_case")
        scenario = cr.parse_scenario(as_json(doc))
        assert scenario.distribution is None

    def test_default_estimators_follow_embedding(self):
        doc = {k: v for k, v in MINIMAL.items() if k != "estimators"}
        assert cr.parse_scenario(as_json(doc)).estimators == ("mode", "bayes")
        doc["embedding"] = [0.0, 1.0]
        assert cr.parse_scenario(as_json(doc)).estimators == (
            "mode", "mean", "median", "bayes",
        )


class TestRunScenario:
    def test_payoff_negated_and_normalized(self):
        scenarios = cr.builtin_scenarios()
        report = cr.run_scenario(scenarios["coin_game"])
        assert report.normalized_cost.as_floats() == [[0.0, 1.0], [2 / 3, 0.0]]

    def test_worst_case_bayes_is_zero(self):
        doc = dict(
            MINIMAL, distribution="worst_case", estimators=["bayes"],
            search={"resolution": 0.1},
        )
        report = cr.run_scenario(cr.parse_scenario(as_json(doc)))
        assert report.estimates["bayes"]["value"] == 0.0

    def test_runtime_validation_attributed_to_cost(self):
        doc = dict(MINIMAL, cost={"matrix": [[1, 0], [0, 1]]})
        with pytest.raises(ScenarioFieldError) as err:
            cr.run_scenario(cr.parse_scenario(as_json(doc)))
        assert err.value.key == "cost"

    def test_explicit_distribution_blocks(self):
        doc = {
            "name": "line",
            "states": ["x", "y", "z"],
            "embedding": [0.0, 1.0, 2.0],
            "cost": {"profile": "abs"},
            "distribution": [0.2, 0.2, 0.6],
            "estimators": ["mode", "mean", "median", "bayes"],
        }
        report = cr.run_scenario(cr.parse_scenario(as_json(doc)))
        d = cr.report_to_dict(report)
        assert d["estimates"]["median"]["estimate"] == "z"
        assert d["estimates"]["mean"]["raw_mean"] == pytest.approx(1.4)
        assert d["mean_profile_check"]["appropriate"] is False
        assert d["median_profile_check"]["appropriate"] is True

    def test_unbounded_rendering(self):
        doc = {
            "name": "free_row",
            "states": ["a", "b"],
            "cost": {"matrix": [[0, 0], [1, 0]]},
            "distribution": [0.4, 0.6],
            "estimators": ["mode"],
        }
        report = cr.run_scenario(cr.parse_scenario(as_json(doc)))
        d = cr.report_to_dict(report)
        assert d["estimates"]["mode"]["relative_error"] == "unbounded"
        # renders without float infinities in both formats
        assert "unbounded" in cr.render_report(report, "json")
        assert "Infinity" not in cr.render_report(report, "json")


class TestBuiltins:
    def test_names(self):
        assert sorted(cr.builtin_scenarios()) == [
            "coin_game",
            "three_state_abs",
            "two_coin",
            "zero_class",
        ]

    def test_coin_game_report(self):
        report = cr.run_scenario(cr.builtin_scenarios()["coin_game"])
        d = cr.report_to_dict(report)
        assert d["mode_appropriateness"]["classification"] == "inappropriate"
        assert any(
            v["condition"] == "asymmetry"
            for v in d["mode_appropriateness"]["violations"]
        )
        assert d["estimates"]["mode"]["value"] == 0.5
        assert d["estimates"]["bayes"]["value"] == 0.0

    def test_two_coin_report(self):
        report = cr.run_scenario(cr.builtin_scenarios()["two_coin"])
        d = cr.report_to_dict(report)
        assert any(
            v["condition"] == "equivalence"
            for v in d["mode_appropriateness"]["violations"]
        )
        assert d["estimates"]["mode"]["value"] >= 0.9
        # the worst-case witness itself splits mode from the best report
        assert d["estimates"]["mode"]["estimate"] != d["estimates"]["mode"]["optimal"]

    def test_three_state_report(self):
        report = cr.run_scenario(cr.builtin_scenarios()["three_state_abs"])
        d = cr.report_to_dict(report)
        assert d["estimates"]["mode"]["value"] == pytest.approx(0.5, abs=0.01)
        assert d["mean_profile_check"]["appropriate"] is False
        assert d["median_profile_check"]["appropriate"] is True
        assert d["estimates"]["median"]["value"] == 0.0

    def test_zero_class_report(self):
        report = cr.run_scenario(cr.builtin_scenarios()["zero_class"])
        d = cr.report_to_dict(report)
        assert d["estimates"]["mode"]["value"] >= 0.99


class TestRendering:
    def test_reports_byte_identical(self):
        for name, scenario in cr.builtin_scenarios().items():
            first = cr.render_report(cr.run_scenario(scenario), "json")
            second = cr.render_report(cr.run_scenario(scenario), "json")
            assert first == second, name

    def test_nine_significant_digits(self):
        report = cr.run_scenario(cr.builtin_scenarios()["zero_class"])
        blob = cr.render_report(report, "json")
        value = json.loads(blob)["estimates"]["mode"]["value"]
        assert value == float(f"{value:.9g}")

    def test_unknown_format(self):
        report = cr.run_scenario(cr.parse_scenario(as_json(MINIMAL)))
        with pytest.raises(cr.CostRiskError):
            cr.render_report(report, "yaml")


class TestCli:
    def test_list_builtins(self, capsys):
        assert main(["--list-builtins"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["coin_game", "three_state_abs", "two_coin", "zero_class"]

    def test_builtin_json(self, capsys):
        assert main(["builtin", "coin_game", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["name"] == "coin_game"

    def test_analyze_file(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(as_json(MINIMAL))
        assert main(["analyze", str(path)]) == 0
        assert "minimal" in capsys.readouterr().out

    def test_override_flags(self, capsys):
        assert main(["builtin", "coin_game", "--resolution", "0.25", "--epsilon", "0.01"]) == 0
        capsys.readouterr()

    def test_missing_file_exits_1(self, capsys):
        assert main(["analyze", "/nonexistent/scenario.json"]) == 1
        assert "error" in capsys.readouterr().err

    def test_schema_error_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(as_json(dict(MINIMAL, cost={"profile": "cubic"})))
        assert main(["analyze", str(path)]) == 1
        assert "cost.profile" in capsys.readouterr().err

    @pytest.mark.parametrize("dist", [[0.5, 0.4], [0.5, -0.5]])
    def test_bad_distribution_exits_1(self, dist, tmp_path, capsys):
        path = tmp_path / "dist.json"
        path.write_text(as_json(dict(MINIMAL, distribution=dist)))
        assert main(["analyze", str(path)]) == 1
        assert "$.distribution" in capsys.readouterr().err

    def test_validation_error_exits_2(self, tmp_path, capsys):
        path = tmp_path / "invalid.json"
        path.write_text(as_json(dict(MINIMAL, cost={"matrix": [[1, 0], [0, 1]]})))
        assert main(["analyze", str(path)]) == 2
        assert "cost" in capsys.readouterr().err

    def test_unknown_builtin_exits_1(self, capsys):
        assert main(["builtin", "nope"]) == 1
        assert "unknown builtin" in capsys.readouterr().err

    def test_no_command_exits_1(self, capsys):
        assert main([]) == 1

    def test_bad_override_exits_1(self, capsys):
        assert main(["builtin", "coin_game", "--resolution", "0.9"]) == 1

    @pytest.mark.parametrize(
        "search", [{"resolution": 9.9e-5}, {"refine_iterations": 65}]
    )
    def test_search_budget_exits_1(self, search, tmp_path, capsys):
        path = tmp_path / "budget.json"
        path.write_text(as_json(dict(MINIMAL, search=search)))
        assert main(["analyze", str(path)]) == 1
        assert "$.search" in capsys.readouterr().err

    def test_state_budget_exits_1(self, tmp_path, capsys):
        states = [f"s{i}" for i in range(MAX_STATES + 1)]
        doc = dict(MINIMAL, states=states, distribution="worst_case")
        with pytest.raises(SchemaError) as info:
            cr.parse_scenario(as_json(doc))
        assert info.value.path == "$.states"
        path = tmp_path / "states.json"
        path.write_text(as_json(doc))
        assert main(["analyze", str(path)]) == 1
        assert "$.states" in capsys.readouterr().err

    def test_resolution_budget_override_exits_1(self, capsys):
        assert main(["builtin", "coin_game", "--resolution", "9.9e-5"]) == 1
        assert "resolution" in capsys.readouterr().err

    def test_module_entry_point(self):
        result = subprocess.run(
            [sys.executable, "-m", "costrisk", "--list-builtins"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "coin_game" in result.stdout


class TestOverrides:
    def test_with_search_overrides(self):
        scenario = cr.builtin_scenarios()["coin_game"]
        updated = with_search_overrides(scenario, resolution=0.02, epsilon=0.001)
        assert updated.search.resolution == 0.02
        assert updated.search.epsilon == 0.001
        assert with_search_overrides(scenario) is scenario
