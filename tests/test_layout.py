"""``src/`` holds only code the program runs.

Every ``src/repro`` module except a package ``__init__`` must be imported by
at least one other non-test module: another ``src/repro`` module or a
``jobs/`` entrypoint.  Code that only tests import (a test oracle, a ground
truth) lives under ``tests/``.  Imports are read with ``ast``, function-local
ones included, so nothing is executed.
"""
import ast
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_SRC = _ROOT / "src"


def _module_name(path: Path) -> str:
    parts = path.relative_to(_SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imported(path: Path) -> set[str]:
    """Every module name ``path`` imports: ``from a import b`` names both
    ``a`` and ``a.b``, since ``b`` may be a submodule."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


_SRC_MODULES = {_module_name(p): p for p in sorted((_SRC / "repro").rglob("*.py"))}
_JOBS = sorted((_ROOT / "jobs").glob("*.py"))


def _importers(module: str) -> list[str]:
    """The non-test files other than ``module``'s own that import it."""
    files = [p for name, p in _SRC_MODULES.items() if name != module] + _JOBS
    return [str(p.relative_to(_ROOT)) for p in files if module in _imported(p)]


@pytest.mark.parametrize(
    "module",
    [name for name, p in _SRC_MODULES.items() if p.name != "__init__.py"],
)
def test_src_module_is_imported_by_the_program(module):
    assert _importers(module), (
        f"{module} is imported by no src/ module and no job; "
        "test-only code belongs under tests/"
    )


def test_jobs_import_the_experiments():
    assert any("repro.experiments" in _imported(p) for p in _JOBS)
