"""The README's configuration schema section follows config.SCHEMA."""

import json
import re
from pathlib import Path

from qbackflow.config import SCHEMA, parse_config

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
