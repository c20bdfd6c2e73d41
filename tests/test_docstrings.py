import ast
import importlib
import pathlib
import re

import pytest

import swapsim

PACKAGE = pathlib.Path(swapsim.__file__).resolve().parent
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")
# a double-backticked name, dotted or not: ``FockKet._trusted``, ``_group``
NAME = re.compile(r"``([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)``")


def _docstring_names(path):
    """Every double-backticked name in the module, class and function
    docstrings of ``path``, with the line of its docstring."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            doc = ast.get_docstring(node, clean=False)
            if doc is not None:
                for name in NAME.findall(doc):
                    yield node.body[0].lineno, name


def _unresolved(module):
    """The names a docstring of ``module`` gives that do not resolve.  A
    dotted name whose head is a module of the package or a global of
    ``module`` must resolve by ``getattr``; a bare ``_name`` must be a
    global of ``module``, or an attribute or slot of a class bound there.
    Any other name may be a parameter or a local, and is not checked."""
    mod = importlib.import_module(f"swapsim.{module}")
    globals_ = vars(mod)
    classes = [value for value in globals_.values() if isinstance(value, type)]
    bad = []
    for line, name in _docstring_names(PACKAGE / f"{module}.py"):
        head, *path = name.split(".")
        if path and (head in globals_ or head in MODULES):
            obj = (globals_[head] if head in globals_
                   else importlib.import_module(f"swapsim.{head}"))
            try:
                for part in path:
                    obj = getattr(obj, part)
            except AttributeError:
                bad.append((line, name))
        elif not path and head.startswith("_"):
            if head not in globals_ and not any(hasattr(cls, head) for cls in classes):
                bad.append((line, name))
    return bad


@pytest.mark.parametrize("module", MODULES)
def test_every_name_a_docstring_gives_resolves(module):
    bad = _unresolved(module)
    assert bad == [], f"src/swapsim/{module}.py docstrings name what does not exist: {bad}"
