"""No module of ``laisc`` imports a name it never uses."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parents[1] / "src" / "laisc"


def unused_imports(text: str) -> list[str]:
    """The names that the module source ``text`` imports and never reads.

    A name listed in the module's ``__all__``, an import on a line marked
    ``# noqa: F401`` and a ``__future__`` import are exempt."""
    lines = text.splitlines()
    tree = ast.parse(text)
    imported, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.partition(".")[0]] = alias.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda path: path.name)
def test_module_imports_no_unused_name(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_check_sees_each_form():
    text = (
        "from __future__ import annotations\n"
        "import json, os.path\n"
        "import re as regex\n"
        "from itertools import (\n"
        "    chain,\n"
        "    repeat,  # noqa: F401\n"
        ")\n"
        "from operator import le, eq\n"
        "__all__ = ['eq']\n"
        "def f(x: chain) -> None:\n"
        "    return json.dumps(x)\n"
    )
    assert unused_imports(text) == ["le (line 8)", "os (line 2)", "regex (line 3)"]


def test_every_name_in_all_resolves():
    """The unused-import check exempts ``__all__``, so a stale entry there
    would pass it."""
    import laisc

    assert [name for name in laisc.__all__ if not hasattr(laisc, name)] == []
