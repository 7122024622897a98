"""The public surface, read from the source: each module's ``__all__``,
and the count of the lab's settable values.

``bench/tracer.py`` wraps exactly the ``__all__`` functions of each
module and skips an entry that does not exist, so a stale entry, or a
name another module uses without it being listed, would silently drop a
layer from the benchmark's traces.
"""

import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "spinlab"
MODULES = {path.stem: ast.parse(path.read_text())
           for path in sorted(SRC.glob("*.py"))}


def declared(tree):
    """The names listed in the module's top-level ``__all__``."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__"
                        for t in node.targets)):
            return [ast.literal_eval(elt) for elt in node.value.elts]
    return []


def bound(tree):
    """The names bound at the module's top level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets
                         if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign):
            names.add(node.target.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0]
                         for a in node.names)
    return names


def uses(tree):
    """(module, name) for every name this module imports from a sibling
    (``from .jets import name``) or reads as ``module.name`` after
    ``from . import module``, at any depth."""
    aliases = {}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    aliases[alias.asname or alias.name] = alias.name
                else:
                    out.append((node.module, alias.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            out.append((aliases[node.value.id], node.attr))
    return out


@pytest.mark.parametrize("module", sorted(MODULES))
def test_every_all_entry_exists(module):
    tree = MODULES[module]
    names = bound(tree)
    if module == "__init__":
        names |= set(MODULES)
    missing = [n for n in declared(tree) if n not in names]
    assert missing == []


@pytest.mark.parametrize("module", sorted(MODULES))
def test_every_name_used_across_modules_is_public(module):
    private = [(source, name) for source, name in uses(MODULES[module])
               if not name.startswith("_")
               and name not in declared(MODULES[source])]
    assert private == []


def test_api_only_names_cite_a_test_that_exists():
    # a public function no subcommand reaches says "API only, backed by
    # ``test_name``" in its docstring, test_name a test of its module's
    # test file
    cited = []
    for module, tree in MODULES.items():
        for node in tree.body:
            doc = isinstance(node, ast.FunctionDef) and ast.get_docstring(node)
            for test in re.findall(r"API only, backed by ``(\w+)``",
                                   doc or ""):
                cited.append((module, node.name, test))
    assert len(cited) == 8
    for module, name, test in cited:
        assert name in declared(MODULES[module])
        path = ROOT / "tests" / f"test_{module}.py"
        assert test in {n.name for n in ast.parse(path.read_text()).body
                        if isinstance(n, ast.FunctionDef)}, (name, test)


# The lab's settable values: the defaulted parameters of every function
# in src/ plus the keys of cli._TYPES.  A change that moves the count
# updates it here and says why in CHANGES.md.
SETTABLE_VALUES = 95


def settable_values():
    defaulted = sum(len(node.args.defaults)
                    + sum(d is not None for d in node.args.kw_defaults)
                    for tree in MODULES.values() for node in ast.walk(tree)
                    if isinstance(node, (ast.FunctionDef,
                                         ast.AsyncFunctionDef, ast.Lambda)))
    keys = [len(node.value.keys) for node in MODULES["cli"].body
            if isinstance(node, ast.Assign)
            and any(getattr(t, "id", None) == "_TYPES"
                    for t in node.targets)]
    assert len(keys) == 1
    return defaulted + keys[0]


def test_settable_values_are_counted():
    assert settable_values() == SETTABLE_VALUES
