"""The README's configuration schema section follows config.SCHEMA,
and SCHEMA's defaults reach the parsed sections."""

import json
import re
from pathlib import Path

from qbackflow.config import SCHEMA, parse_config
from qbackflow.presets import reduced_scale_config

README = Path(__file__).resolve().parents[1] / "README.md"


def _schema_section() -> str:
    text = README.read_text(encoding="utf-8")
    start = text.index("### Configuration schema")
    return text[start:text.index("\n## ", start)]


def test_readme_schema_table_names_the_schema_paths():
    rows = re.findall(r"^\| `([^`]+)` \|", _schema_section(), re.MULTILINE)
    assert rows == list(SCHEMA)


def test_readme_schema_example_parses():
    example = re.search(r"```json\n(.*?)```", _schema_section(), re.DOTALL)
    sc = parse_config(json.loads(example.group(1)))
    assert sc.sweep_spec.n_samples == 401


def test_empty_grid_section_takes_schema_defaults():
    cfg = dict(reduced_scale_config(), grid={})
    assert parse_config(cfg).grid_cfg == {
        "half_width_factor": 8.0, "envelope_samples": 50,
        "fringe_samples": 20}
