"""The package's dependency rules, read from its source.

Runtime code imports only numpy, the standard library and the package
itself, and solves nothing with ``np.linalg``: every solve goes through
the package's own Cholesky.  ``verify.py`` holds the independent oracles
the ``check`` suites compare against, so it alone may call ``np.linalg``.
"""

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "fewshot").glob("*.py"))
ORACLE_MODULE = "verify.py"


def parsed():
    assert SOURCES, "no package sources found"
    return [(path.name, ast.parse(path.read_text(), str(path))) for path in SOURCES]


def top_level_imports(tree):
    """(module, line) of every absolute import; relative ones are the package."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0], node.lineno


def numpy_linalg_uses(tree):
    """Lines that reach numpy's linalg: ``np.linalg``, ``numpy.linalg``, or
    importing it by name."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "linalg"
                and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy")):
            yield node.lineno
        elif isinstance(node, ast.Import):
            if any(a.name.startswith("numpy.linalg") for a in node.names):
                yield node.lineno
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module.startswith("numpy.linalg") or (
                    node.module == "numpy"
                    and any(a.name == "linalg" for a in node.names)):
                yield node.lineno


def test_package_imports_only_numpy_the_standard_library_and_itself():
    allowed = set(sys.stdlib_module_names) | {"numpy", "fewshot", "__future__"}
    foreign = [f"{name}:{line} imports {module}"
               for name, tree in parsed()
               for module, line in top_level_imports(tree)
               if module not in allowed]
    assert foreign == []


def test_only_the_oracle_module_calls_numpy_linalg():
    uses = {name: list(numpy_linalg_uses(tree)) for name, tree in parsed()}
    assert uses[ORACLE_MODULE], "the oracle module is expected to use np.linalg"
    offenders = [f"{name}:{line}" for name, lines in uses.items()
                 if name != ORACLE_MODULE for line in lines]
    assert offenders == []
