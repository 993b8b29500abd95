"""README's *Library use* example runs as written against the package, and
its *Config format* table lists the CLI's keys with their defaults."""

import re
from pathlib import Path

from apsabench.cli import _SCHEMA

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


def test_config_format_table_lists_every_key_with_its_default():
    section = README.read_text(encoding="utf-8").split("\n### Config format\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    documented = {}
    for row in rows:
        match = re.match(r"\| `(\w+)` \((.*?)\) \|", row)
        assert match, f"row without a `key` (default) cell: {row}"
        key, default = match.groups()
        assert key in _SCHEMA, f"README documents an unknown key: {key}"
        assert key not in documented, f"README documents {key} twice"
        assert default == _SCHEMA[key][1], f"README gives {key} the default {default}"
        documented[key] = default
    assert set(documented) == set(_SCHEMA)
