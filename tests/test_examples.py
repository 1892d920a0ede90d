"""The example scripts only pass GeomancyConfig keywords that exist.

The examples are not run by the suite (they take minutes), so a deleted
config field would otherwise only surface when a user runs one.
"""

import ast
from dataclasses import fields
from pathlib import Path

import pytest

from repro.core.config import GeomancyConfig

EXAMPLES = sorted((Path(__file__).parent.parent / "examples").glob("*.py"))
FIELDS = {f.name for f in fields(GeomancyConfig)}


def _config_keywords(path: Path) -> list[str]:
    keywords = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(
            func, "attr", None
        )
        if name == "GeomancyConfig":
            keywords.extend(k.arg for k in node.keywords if k.arg is not None)
    return keywords


def test_examples_exist_and_build_configs():
    assert EXAMPLES
    assert any(_config_keywords(path) for path in EXAMPLES)


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_config_keywords_are_fields(path):
    unknown = sorted(set(_config_keywords(path)) - FIELDS)
    assert not unknown, f"{path.name} passes unknown config fields {unknown}"
