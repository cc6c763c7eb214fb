import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "qmono").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_runtime_imports_only_the_standard_library(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    modules = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.append(node.module)
    outside = [m for m in modules if m.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def test_the_package_sources_are_found():
    assert "__init__.py" in {p.name for p in SOURCES}


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "algebra.py"], ids=lambda p: p.name
)
def test_only_the_kernel_reads_the_term_map(path):
    # Polynomial.terms is keyed by packed monomials; every other module
    # reads a polynomial's terms through Polynomial.items().
    tree = ast.parse(path.read_text(), filename=str(path))
    reads = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "terms"
    ]
    assert reads == []
