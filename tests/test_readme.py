"""README's *Library use* example runs as written against the package."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_use_block() -> str:
    """The first Python block after the *Library use* heading."""
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    match = re.search(r"^```python\n(.*?)^```$", section, re.DOTALL | re.MULTILINE)
    assert match, "README's Library use section has no python block"
    return match.group(1)


def test_library_use_example_runs():
    # A name the example imports but the package no longer exports fails here.
    exec(compile(library_use_block(), str(README), "exec"), {"__name__": "readme"})
