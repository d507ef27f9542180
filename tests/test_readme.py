"""README's *Library surface* block names only what the package exports."""

import re
from pathlib import Path

import heptacyclic

README = Path(__file__).resolve().parent.parent / "README.md"


def library_surface_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library surface\n", 1)[1].split("\n## ", 1)[0]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_every_name_in_the_library_surface_is_exported():
    names = set(re.findall(r"\bhc\.(\w+)", library_surface_block()))
    assert "determinant" in names  # the block was found
    assert sorted(names - set(heptacyclic.__all__)) == []
