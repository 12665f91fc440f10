"""The package namespace: every public name is imported from its submodule
on first access, ``import repet2d`` alone loads no submodule, and every
submodule reads each name it imports."""

import ast
import importlib
import pathlib
import subprocess
import sys

import repet2d

from test_cli import ENV
from util import raises


def test_star_import_binds_exactly_all():
    ns = {}
    exec("from repet2d import *", ns)
    del ns["__builtins__"]
    assert sorted(ns) == sorted(repet2d.__all__)
    assert len(set(repet2d.__all__)) == len(repet2d.__all__)


def test_every_name_is_its_submodules_object():
    for name in repet2d.__all__:
        home = importlib.import_module(f"repet2d.{repet2d._HOME[name]}")
        obj = getattr(repet2d, name)
        assert obj is getattr(home, name), name
        # defined there, not imported into it
        assert getattr(obj, "__module__", home.__name__) == home.__name__, name


def test_dir_lists_every_public_name():
    assert set(repet2d.__all__) <= set(dir(repet2d))
    assert repet2d.__version__ == "0.1.0"


def test_unknown_names_raise_attribute_error():
    exc = raises(AttributeError, getattr, repet2d, "no_such_name")
    assert "no_such_name" in str(exc)
    assert not hasattr(repet2d, "nosuchmodule")


def test_names_and_submodules_load_on_first_access():
    code = """
import sys
import repet2d
loaded = lambda: sorted(m for m in sys.modules if m.startswith("repet2d"))
print(loaded())
repet2d.delta
print(loaded())
print(repet2d.multidim is sys.modules["repet2d.multidim"])
"""
    r = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=ENV
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines() == [
        "['repet2d']",
        "['repet2d', 'repet2d.budget', 'repet2d.core2d', 'repet2d.errors', 'repet2d.measures']",
        "True",
    ]


def test_every_module_level_import_is_read():
    # a name imported at module level and never read is left over from code
    # that went away; __init__ is skipped, as it binds its names lazily
    for path in sorted(pathlib.Path(repet2d.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unread = {name: line for name, line in imported.items() if name not in read}
        assert not unread, f"{path.name} imports names it never reads: {unread}"
