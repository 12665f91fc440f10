"""The package namespace: every public name is imported from its submodule
on first access, ``import repet2d`` alone loads no submodule, every
submodule reads each name it imports or assigns at module level, and every
function reads each of its parameters and each name it binds."""

import ast
import importlib
import pathlib
import re
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


def test_every_module_level_private_function_and_class_is_read():
    # a private helper that no other code of the package reads is left over
    # from code that went away, and so is a public function or class that
    # is not in __all__ either; a read inside its own definition does not
    # count, and dunder names are read by Python itself
    trees = [
        ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(pathlib.Path(repet2d.__file__).parent.glob("*.py"))
    ]
    private, public = {}, {}
    read = set()
    for tree in trees:
        for top in tree.body:
            own = getattr(top, "name", None)
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if own.startswith("_") and not own.startswith("__"):
                    private[own] = top.lineno
                elif not own.startswith("_") and own not in repet2d.__all__:
                    public[own] = top.lineno
            read |= {
                node.id if isinstance(node, ast.Name) else node.attr
                for node in ast.walk(top)
                if isinstance(node, (ast.Name, ast.Attribute))
            } - {own}
    unread = {name: line for name, line in private.items() if name not in read}
    assert private and not unread, f"private helpers nothing reads: {unread}"
    unread = {name: line for name, line in public.items() if name not in read}
    assert public and not unread, f"public names outside __all__ that nothing reads: {unread}"


def test_every_module_level_assignment_is_read():
    # a constant or table that no code of the package reads is left over
    # from code that went away; a read inside its own assignment does not
    # count, and dunder names are read by Python itself
    bound, read = {}, set()
    for path in sorted(pathlib.Path(repet2d.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            own = set()
            if isinstance(top, (ast.Assign, ast.AnnAssign)):
                targets = top.targets if isinstance(top, ast.Assign) else [top.target]
                own = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
                for name in own:
                    bound.setdefault(name, (path.name, top.lineno))
            read |= {
                node.attr if isinstance(node, ast.Attribute) else node.id
                for node in ast.walk(top)
                if isinstance(node, ast.Attribute)
                or (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load))
            } - own
    unread = {
        name: where
        for name, where in bound.items()
        if name not in read and not (name.startswith("__") and name.endswith("__"))
    }
    assert bound and not unread, f"module-level names nothing reads: {unread}"


def test_every_parameter_is_read():
    # a parameter that its function or lambda never reads is an option left
    # over from code that went away. The criteria of accept share one
    # signature, as _CRITERIA dispatches them, so they are exempt
    unread = []
    for path in sorted(pathlib.Path(repet2d.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            name = getattr(fn, "name", "<lambda>")
            if path.name == "accept.py" and re.fullmatch(r"_criterion_\d+", name):
                continue
            args = fn.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            params += [arg for arg in (args.vararg, args.kwarg) if arg is not None]
            body = fn.body if isinstance(fn.body, list) else [fn.body]
            read = {
                node.id
                for stmt in body
                for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            }
            unread += [(path.name, fn.lineno, name, p.arg) for p in params if p.arg not in read]
    assert not unread, f"parameters never read: {unread}"


def test_every_local_assignment_is_read():
    # a name that a function binds and never reads, in itself or in a
    # function nested in it, is state left over from code that went away.
    # Names starting with _ are bound to be dropped, and a name declared
    # nonlocal or global belongs to the scope that reads it
    scopes = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
    unread = []
    for path in sorted(pathlib.Path(repet2d.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if not isinstance(fn, scopes):
                continue
            # the names the function binds itself, not those nested scopes bind
            bound, outer, todo = {}, set(), list(ast.iter_child_nodes(fn))
            while todo:
                node = todo.pop()
                if isinstance(node, (ast.Nonlocal, ast.Global)):
                    outer.update(node.names)
                elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                    bound.setdefault(node.id, node.lineno)
                if not isinstance(node, scopes + (ast.ClassDef,)):
                    todo.extend(ast.iter_child_nodes(node))
            read = {
                node.id
                for node in ast.walk(fn)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            }
            name = getattr(fn, "name", "<lambda>")
            unread += [
                (path.name, line, name, local)
                for local, line in sorted(bound.items())
                if local not in read | outer and not local.startswith("_")
            ]
    assert not unread, f"local names never read: {unread}"


def test_every_text_file_is_opened_as_utf8():
    # a file opened without an encoding is read in the locale's, so a UTF-8
    # file fails under the C locale; every open, read_text and write_text
    # in the package names encoding="utf-8"
    loose = []
    for path in sorted(pathlib.Path(repet2d.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            for node in ast.walk(top):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name not in ("open", "read_text", "write_text"):
                    continue
                named = any(
                    kw.arg == "encoding" and isinstance(kw.value, ast.Constant)
                    and kw.value.value == "utf-8"
                    for kw in node.keywords
                )
                if not named:
                    loose.append((path.name, getattr(top, "name", None), node.lineno))
    assert not loose, f"text I/O without encoding='utf-8': {loose}"
