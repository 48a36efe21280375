"""Probe-name registry lint: every literal ``emit`` site is documented.

Walks the AST of every module under ``src/`` collecting the first
argument of ``*.emit("name", ...)`` calls when it is a string literal,
and asserts each name appears in the probe event vocabulary table in
``docs/ARCHITECTURE.md``.  Adding a probe event without documenting it
fails this test; documenting an event nobody emits fails it too.
"""

import ast
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"
ARCHITECTURE = REPO_ROOT / "docs" / "ARCHITECTURE.md"


def emitted_probe_names() -> dict:
    """``{event name: [file:line, ...]}`` for literal emit sites in src/."""
    sites = {}
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (isinstance(func, ast.Attribute) and func.attr == "emit"):
                continue
            if not node.args:
                continue
            first = node.args[0]
            if isinstance(first, ast.Constant) and isinstance(first.value,
                                                              str):
                where = f"{path.relative_to(REPO_ROOT)}:{node.lineno}"
                sites.setdefault(first.value, []).append(where)
    return sites


def documented_probe_names(architecture: Path = ARCHITECTURE) -> set:
    """Event names from the vocabulary table in ARCHITECTURE.md."""
    text = architecture.read_text()
    anchor = "### Probe event vocabulary"
    assert anchor in text, "ARCHITECTURE.md lost its probe vocabulary table"
    section = text.split(anchor, 1)[1]
    names = set()
    for line in section.splitlines():
        match = re.match(r"\|\s*`([a-z0-9_.]+)`\s*\|", line)
        if match:
            names.add(match.group(1))
        elif names and not line.strip().startswith("|"):
            break  # table ended
    return names


def test_emit_sites_exist():
    sites = emitted_probe_names()
    assert len(sites) >= 6, f"suspiciously few emit sites found: {sites}"


def test_every_emitted_probe_is_documented():
    documented = documented_probe_names()
    undocumented = {name: where
                    for name, where in emitted_probe_names().items()
                    if name not in documented}
    assert not undocumented, (
        "probe events emitted but missing from the vocabulary table in "
        f"docs/ARCHITECTURE.md: {undocumented}")


def test_every_documented_probe_is_emitted():
    emitted = set(emitted_probe_names())
    stale = documented_probe_names() - emitted
    assert not stale, (
        "probe events documented in docs/ARCHITECTURE.md but no longer "
        f"emitted anywhere under src/: {sorted(stale)}")


def test_known_events_are_emitted():
    emitted = emitted_probe_names()
    for name in ("cpu.run", "bnn.infer", "bnn.batch", "dma.transfer"):
        assert name in emitted


def test_stale_table_is_caught(tmp_path):
    stale = tmp_path / "ARCHITECTURE.md"
    stale.write_text(
        "### Probe event vocabulary\n\n"
        "| event | emitted by | payload |\n"
        "| --- | --- | --- |\n"
        "| `cpu.run` | `cpu/functional.py` | stats |\n"
        "| `ghost.event` | nowhere | - |\n"
        "\n"
        "| `after.table` | not part of the vocabulary | - |\n")
    documented = documented_probe_names(stale)
    assert documented == {"cpu.run", "ghost.event"}
    emitted = set(emitted_probe_names())
    assert documented - emitted == {"ghost.event"}  # documented, not emitted
    assert "bnn.batch" in emitted - documented  # emitted, not documented


def test_missing_table_is_caught(tmp_path):
    empty = tmp_path / "ARCHITECTURE.md"
    empty.write_text("no table here\n")
    with pytest.raises(AssertionError, match="lost its probe vocabulary"):
        documented_probe_names(empty)
