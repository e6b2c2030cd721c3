"""Every module shipped in ``src/repro`` is reachable from the CLI.

A static walk of import statements, starting at ``repro.__main__``,
follows relative and absolute imports (including imports inside function
bodies, which the CLI makes lazily) and the parent-package ``__init__``
that importing any submodule runs first.  A module the walk never reaches
is code that only tests use; it belongs under ``tests/`` (the free-store
oracles live in ``tests/oracles``), not in the shipped package.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
ENTRY = "repro.__main__"


def shipped_modules() -> dict[str, Path]:
    """Dotted module name -> source file, for every module in the package."""
    modules = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


def imported_names(name: str, path: Path) -> set[str]:
    """Every dotted name ``path``'s import statements may load.

    ``from pkg import x`` yields both ``pkg`` and ``pkg.x``, since ``x``
    may be a submodule; the caller keeps only names that are modules.
    """
    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                parts = package.split(".")
                base = ".".join(parts[: len(parts) - node.level + 1])
                if node.module:
                    base = f"{base}.{node.module}"
            else:
                base = node.module
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def reachable_from(entry: str, modules: dict[str, Path]) -> set[str]:
    seen: set[str] = set()
    pending = [entry]
    while pending:
        name = pending.pop()
        if name not in modules or name in seen:
            continue
        seen.add(name)
        parts = name.split(".")
        pending.extend(".".join(parts[:i]) for i in range(1, len(parts)))
        pending.extend(imported_names(name, modules[name]))
    return seen


def test_every_shipped_module_is_reachable_from_main():
    modules = shipped_modules()
    unreachable = sorted(set(modules) - reachable_from(ENTRY, modules))
    assert not unreachable, (
        f"modules under src/repro that nothing reachable from {ENTRY} "
        f"imports (move test-only code under tests/): {unreachable}"
    )
