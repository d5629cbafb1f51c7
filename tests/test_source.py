"""Checks over the package's own source files."""

from __future__ import annotations

import ast
from pathlib import Path

import manoplace

PACKAGE = Path(manoplace.__file__).parent


def unused_imports(source: str) -> list[str]:
    """The names that ``source`` imports and never reads, sorted. A
    ``__future__`` import binds no name a module reads, so it is skipped."""
    tree = ast.parse(source)
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(imported - read)


def test_the_check_finds_unread_imports():
    source = ("from __future__ import annotations\nimport os.path\nimport json as j\n"
              "from x import a, b as c\n\ndef f():\n    from y import d\n    return a, d\n")
    assert unused_imports(source) == ["c", "j", "os"]


def test_modules_read_every_name_they_import():
    # __init__ imports to re-export, and names what it re-exports in __all__.
    unused = [f"{path.stem}.{name}" for path in sorted(PACKAGE.glob("*.py"))
              if path.name != "__init__.py" for name in unused_imports(path.read_text())]
    assert unused == []
