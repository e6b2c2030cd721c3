"""Every example script imports cleanly against the current package.

The examples are runnable scripts, not tests, and each keeps its work
behind ``if __name__ == "__main__"``.  Importing them without running
``main()`` costs milliseconds and still fails the moment one of them
names a public symbol the package no longer exports.
"""

import importlib.util
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parents[1] / "examples").glob("*.py"))


def test_examples_are_found():
    assert len(EXAMPLES) >= 6


@pytest.mark.parametrize("path", EXAMPLES, ids=[p.stem for p in EXAMPLES])
def test_example_imports_without_running(path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
