"""Every module shipped in ``src/repro`` is reachable from the CLI, and
every function and class in it is used by shipped code.

A static walk of import statements, starting at ``repro.__main__``,
follows relative and absolute imports (including imports inside function
bodies, which the CLI makes lazily) and the parent-package ``__init__``
that importing any submodule runs first.  A module the walk never reaches
is code that only tests use; it belongs under ``tests/`` (the free-store
oracles live in ``tests/oracles``), not in the shipped package.

The same holds one level down.  A name-based walk of the AST counts every
identifier that code in ``src``, ``benchmarks``, ``tools`` and
``examples`` loads; a ``def`` or ``class`` whose name appears nowhere but
in its own body is a helper that only tests reach.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
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


# -- every def and class is used by shipped code ------------------------------

#: Where shipped code lives: the package plus the programs run against it.
SHIPPED = ("src", "benchmarks", "tools", "examples")

#: Names a library calls by convention, so no shipped code names them.
CALLED_BY_LIBRARY = {
    "do_GET": "http.server dispatches GET requests to it by name",
    "do_POST": "http.server dispatches POST requests to it by name",
    "log_message": "http.server's request logger, overridden to stay quiet",
}


def name_references(tree: ast.AST) -> Counter:
    """How often each identifier is loaded as a name or an attribute.

    Import statements are not references, so an ``__init__`` re-export
    does not count; nor do the strings of ``__all__``.
    """
    counts: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            counts[node.id] += 1
        elif isinstance(node, ast.Attribute):
            counts[node.attr] += 1
    return counts


def unreferenced_definitions() -> list[str]:
    """Every ``def``/``class`` in src/repro whose name shipped code never
    uses outside the definition's own body."""
    references: Counter = Counter()
    definitions = []
    for top in SHIPPED:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            references.update(name_references(tree))
            if top == "src":
                definitions.extend(
                    (path, node)
                    for node in ast.walk(tree)
                    if isinstance(
                        node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                    )
                )
    unused = []
    for path, node in definitions:
        name = node.name
        if name.startswith("__") and name.endswith("__"):
            continue  # the language calls dunders
        if name in CALLED_BY_LIBRARY:
            continue
        if references[name] - name_references(node)[name] <= 0:
            unused.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    return unused


def test_every_shipped_definition_is_used_by_shipped_code():
    unused = unreferenced_definitions()
    assert not unused, (
        "functions and classes under src/repro that no code in "
        f"{', '.join(SHIPPED)} uses (delete them, or move test-only "
        f"helpers under tests/): {unused}"
    )
