"""The package's dependency rules, read from its source.

Runtime code imports only numpy, the standard library and the package
itself, and solves nothing with ``np.linalg``: every solve goes through
the package's own Cholesky.  ``verify.py`` holds the independent oracles
the ``check`` suites compare against, so it alone may call ``np.linalg``.
The public functions of ``autodiff``, ``heads`` (the loss kernels among
them) and ``linalg`` hold only what the package runs.  The package root
binds its modules and nothing they define, so each function and class has
one name, in its own module.
"""

import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import fewshot

SRC = Path(__file__).resolve().parents[1] / "src"
SOURCES = sorted((SRC / "fewshot").glob("*.py"))
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


ROOT_MODULES = ["autodiff", "encoder", "episodes", "errors", "evaluate", "heads",
                "linalg", "train", "verify"]


def test_the_package_root_binds_its_modules_and_nothing_they_define():
    # ``fewshot.evaluate`` is the module, as ``fewshot.train`` is, not the
    # function of that name
    assert fewshot.__all__ == ROOT_MODULES
    for name in ROOT_MODULES:
        assert getattr(fewshot, name) is sys.modules[f"fewshot.{name}"], name
    copies = [name for name, value in vars(fewshot).items()
              if (inspect.isfunction(value) or inspect.isclass(value))
              and value.__module__.startswith("fewshot.")]
    assert copies == []


def test_importing_the_package_loads_exactly_its_root_modules():
    # a fresh interpreter, so modules other tests imported (``cli``) do not count
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, fewshot; print(*sorted(m for m in sys.modules "
         "if m.startswith('fewshot.')))"],
        env=env, capture_output=True, text=True, timeout=60, check=True).stdout.split()
    assert loaded == [f"fewshot.{name}" for name in ROOT_MODULES]


OP_MODULES = ("autodiff", "heads", "linalg")


def used_names(node):
    """Every name read under ``node``: ``f`` of a call ``f(...)`` or of a
    binding ``g = f`` (a head's class body binds ``distances_np`` so), and
    ``f`` of ``heads.f`` or the like on a module of ``OP_MODULES``."""
    for use in ast.walk(node):
        if isinstance(use, ast.Name) and isinstance(use.ctx, ast.Load):
            yield use.id
        elif (isinstance(use, ast.Attribute) and isinstance(use.value, ast.Name)
                and use.value.id in OP_MODULES):
            yield use.attr


def test_every_public_op_and_kernel_has_a_caller_in_the_package():
    # a public autodiff, heads or linalg function that only tests call is
    # dead code; a use inside the function's own definition does not count
    trees = dict(parsed())
    calls = {(name, getattr(top, "name", None), callee)
             for name, tree in trees.items() for top in tree.body
             for callee in used_names(top)}
    dead = [f"{module}.py: {top.name}"
            for module in OP_MODULES for top in trees[f"{module}.py"].body
            if isinstance(top, ast.FunctionDef) and not top.name.startswith("_")
            and not any(callee == top.name and (name, owner) != (f"{module}.py", top.name)
                        for name, owner, callee in calls)]
    assert dead == []
