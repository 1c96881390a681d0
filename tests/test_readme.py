"""The README's examples must run against the package as it is."""

import re
from pathlib import Path

import costrisk as cr

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    text = README.read_text(encoding="utf-8")
    library = text[text.index("## Library"):]
    block = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    exec(compile(block, "README.md (Library)", "exec"), {})


def test_scenario_example_runs():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"```json\n(.*?)```", text, re.S).group(1)
    report = cr.run_scenario(cr.parse_scenario(block))
    assert report.scenario.name == "my_scenario"
    assert list(report.estimates) == ["mode", "mean", "median", "bayes"]
