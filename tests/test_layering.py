"""Layering rules of the package, checked on its own source.

`geometry` alone reads the stored piece tuples of a set (`.parts`) and
its private helpers; every other module goes through the public set
operations and per-component views. Every annotation in the package
must also resolve, so tools that read them see real names.
"""

import ast
import importlib
import inspect
import pathlib
import pkgutil
import typing

import cuntzkit

PKG = pathlib.Path(cuntzkit.__file__).parent


def reaches_into_geometry(source: str) -> list:
    """Lines that read `.parts` or a private geometry name."""
    tree = ast.parse(source)
    aliases = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module in ("geometry", "cuntzkit.geometry"):
                found += [f"{node.lineno}: imports {a.name}" for a in node.names if a.name.startswith("_")]
            elif node.module in (None, "cuntzkit"):
                aliases |= {a.asname or a.name for a in node.names if a.name == "geometry"}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        if node.attr == "parts":
            found.append(f"{node.lineno}: .parts")
        elif (
            node.attr.startswith("_")
            and not node.attr.startswith("__")
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
        ):
            found.append(f"{node.lineno}: {node.value.id}.{node.attr}")
    return found


def test_the_rule_catches_each_kind_of_reach():
    src = (
        "from . import geometry as geo\n"
        "from .geometry import _merge, normalize\n"
        "x = geo._only(sp, 0, True)\n"
        "y = s.parts[0]\n"
        "z = geo.union(a, b).space\n"
    )
    assert reaches_into_geometry(src) == ["2: imports _merge", "3: geo._only", "4: .parts"]


def test_only_geometry_reads_the_representation():
    modules = sorted(p for p in PKG.glob("*.py") if p.name != "geometry.py")
    assert modules
    found = {p.name: reaches_into_geometry(p.read_text()) for p in modules}
    assert {k: v for k, v in found.items() if v} == {}


def _functions(mod):
    for obj in vars(mod).values():
        if getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isfunction(obj):
            yield obj
        elif inspect.isclass(obj):
            yield obj
            yield from (m for m in vars(obj).values() if inspect.isfunction(m))


def test_every_annotation_resolves():
    names = [info.name for info in pkgutil.iter_modules(cuntzkit.__path__)]
    assert "geometry" in names and "cli" in names
    for name in names:
        mod = importlib.import_module(f"cuntzkit.{name}")
        for obj in _functions(mod):
            typing.get_type_hints(obj)
