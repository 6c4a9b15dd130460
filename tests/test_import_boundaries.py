"""Module boundaries of ``src/``, checked on the import statements.

The reference :mod:`repro.simulator.cycle_sim` is an oracle: the parity
suites compare the array engine against it, and only the ``cost`` figure
reads its per-node contact counts.  Nothing else in the library may
depend on it, so the array engine and every front door stay whole without
it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

ORACLE = "repro.simulator.cycle_sim"

#: The package init re-exports ``CycleSimulator``; the cost figure runs it.
ORACLE_IMPORTERS = {"repro/simulator/__init__.py", "repro/experiments/figures.py"}


def imported_modules(path: Path):
    """Every module an import statement of ``path`` may load (absolute names)."""
    relative = path.relative_to(SRC)
    package = list(relative.parent.parts)
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            yield module
            # ``from . import cycle_sim`` names the module as an alias.
            yield from (f"{module}.{alias.name}" for alias in node.names)


def test_only_the_package_init_and_the_cost_figure_import_the_oracle():
    importers = {
        path.relative_to(SRC).as_posix()
        for path in SRC.rglob("*.py")
        if ORACLE in set(imported_modules(path))
    }
    assert importers == ORACLE_IMPORTERS


def test_relative_imports_resolve_to_absolute_names():
    modules = set(imported_modules(SRC / "repro/experiments/figures.py"))
    assert ORACLE in modules
    assert "repro.simulator" in set(imported_modules(SRC / "repro/experiments/runner.py"))
