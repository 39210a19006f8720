"""The package's dependency rules, read from its source.

Runtime code imports only numpy, the standard library and the package
itself, and solves nothing with ``np.linalg``: every solve goes through
the package's own Cholesky.  ``verify.py`` holds the independent oracles
the ``check`` suites compare against, so it alone may call ``np.linalg``.
The tape ops and the kernels beneath them hold only what the package runs.
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


OP_MODULES = ("autodiff", "linalg")


def called_names(node):
    """The callee of every call under ``node``: ``f`` of ``f(...)``, or of
    ``autodiff.f(...)`` and ``linalg.f(...)``."""
    for call in ast.walk(node):
        if not isinstance(call, ast.Call):
            continue
        func = call.func
        if isinstance(func, ast.Name):
            yield func.id
        elif (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                and func.value.id in OP_MODULES):
            yield func.attr


def test_every_public_op_and_kernel_has_a_caller_in_the_package():
    # a public autodiff or linalg function that only tests call is dead code;
    # a call inside the function's own definition does not count
    trees = dict(parsed())
    calls = {(name, getattr(top, "name", None), callee)
             for name, tree in trees.items() for top in tree.body
             for callee in called_names(top)}
    dead = [f"{module}.py: {top.name}"
            for module in OP_MODULES for top in trees[f"{module}.py"].body
            if isinstance(top, ast.FunctionDef) and not top.name.startswith("_")
            and not any(callee == top.name and (name, owner) != (f"{module}.py", top.name)
                        for name, owner, callee in calls)]
    assert dead == []
