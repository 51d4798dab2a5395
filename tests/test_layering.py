"""Layering rules of the package, checked on its own source.

`geometry` and its views module `views` alone read the stored piece
tuples of a set (`.parts`) and geometry's private helpers, and alone
import `segment`, the sweeps over those tuples; every other module goes
through the public set operations and per-component views. `checks` sees a model only through the protocol
its methods answer: it uses no name of `models`, it never probes a
model with `getattr`, and only
`check_refinable_sums` reads `model.kind`, to pick the constructive
route. Every annotation in the package must also resolve, so tools that
read them see real names, and `geometry.py` stays below the size at
which compiling it takes a step more memory. A CLI process imports no
more of the standard library than it needs: no module uses
`dataclasses`, and importing the CLI loads neither it, `inspect` nor
`hashlib`. A CLI call runs only the layers and the handler module its
verb touches, and compiles no more than a fixed budget of tokens for two
of them. Each layer is one module object whichever is imported first,
and `import cuntzkit.cli` still puts every layer the benchmark traces in
`sys.modules`. Each name has one home: the package and its tests read
a name from the module that defines it, and `geometry` and `chains`
forward to the modules split from them only the names `bench/` reads
through them, each as that module's own object. Each concept has one
name: no top-level alias in the package binds or reads a name another
module binds, and every module of the package is bound under its own
name, `geometry` as `geo` apart.
"""

import ast
import importlib
import inspect
import json
import os
import pathlib
import pkgutil
import subprocess
import sys
import tokenize
import types
import typing
from fractions import Fraction as F

import pytest

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


# The modules that read the representation: `geometry`, and `views`, its
# per-component views and metric, split from it so that a call which only
# builds and compares sets does not compile them.
REPRESENTATION = {"geometry.py", "views.py"}


def test_only_geometry_reads_the_representation():
    modules = sorted(p for p in PKG.glob("*.py") if p.name not in REPRESENTATION)
    assert modules
    found = {p.name: reaches_into_geometry(p.read_text()) for p in modules}
    assert {k: v for k, v in found.items() if v} == {}


def test_only_geometry_imports_the_segment_sweeps():
    found = []
    for path in sorted(PKG.glob("*.py")):
        if path.name in REPRESENTATION:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            if any(n and n.split(".")[-1] == "segment" for n in names):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def bypasses_the_model_protocol(source: str) -> list:
    """Lines of a checker module that use a `models` name, call `getattr`
    on a model, or read `model.kind` outside `check_refinable_sums`."""
    tree = ast.parse(source)
    aliases = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module in ("models", "cuntzkit.models"):
                found += [f"{node.lineno}: imports {a.name}" for a in node.names]
            elif node.module in (None, "cuntzkit"):
                aliases |= {a.asname or a.name for a in node.names if a.name == "models"}

    def visit(node, func):
        if isinstance(node, ast.FunctionDef):
            func = func or node.name
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in aliases:
                found.append(f"{node.lineno}: {node.value.id}.{node.attr}")
            elif node.value.id == "model" and node.attr == "kind" and func != "check_refinable_sums":
                found.append(f"{node.lineno}: model.kind in {func}")
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "getattr"
            and node.args
            and isinstance(node.args[0], ast.Name)
            and node.args[0].id == "model"
        ):
            found.append(f"{node.lineno}: getattr(model, ...)")
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return sorted(found, key=lambda f: int(f.split(":")[0]))


def test_the_protocol_rule_catches_each_kind_of_bypass():
    src = (
        "from . import models\n"
        "from .models import soft, embed_element\n"
        "def _ser(model, e):\n"
        "    if getattr(model, 'kind', None) == 'lsc':\n"
        "        return models.embed_element(e)\n"
        "    return models.soft(e)\n"
        "def _decomps(model, c):\n"
        "    return model.kind == 'table'\n"
        "def check_refinable_sums(model):\n"
        "    return model.kind == 'lsc'\n"
    )
    assert bypasses_the_model_protocol(src) == [
        "2: imports soft",
        "2: imports embed_element",
        "4: getattr(model, ...)",
        "5: models.embed_element",
        "6: models.soft",
        "8: model.kind in _decomps",
    ]


def test_checks_uses_models_only_through_the_protocol():
    assert bypasses_the_model_protocol((PKG / "checks.py").read_text()) == []


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


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="Python 3.12 tokenizes f-strings differently")
def test_geometry_stays_below_the_compile_memory_step():
    # At 8,192 tokens (COMMENT and NL not counted) the compile peak of
    # geometry.py on Python 3.11 jumps from about 2.9 to 3.35 MB. With no
    # bytecode cache that raised the benchmark's peak_rss_mb by about
    # 0.3 MB, against a 0.1 MB bound.
    with open(PKG / "geometry.py", encoding="utf-8") as fh:
        n = sum(1 for t in tokenize.generate_tokens(fh.readline) if t.type not in (tokenize.COMMENT, tokenize.NL))
    assert n < 8192, f"geometry.py has {n} tokens, at or past the compile-memory step at 8,192"


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="the figures are those of Python 3.11")
@pytest.mark.parametrize("name, limit_kib", [("geometry", 3000), ("checks", 2400)])
def test_compile_peak_stays_below_its_spikes(name, limit_kib):
    # Below the step, single sizes spike: appending `x = 1` lines to
    # geometry.py compiled at about 2,730-2,890 KiB except at one length,
    # 3,170 KiB; checks.py at about 2,170-2,200 KiB except at one, 2,605.
    # The figure is a fresh interpreter's tracemalloc peak around compile().
    code = (
        "import sys, tracemalloc\n"
        "source = open(sys.argv[1], encoding='utf-8').read()\n"
        "tracemalloc.start()\n"
        "compile(source, sys.argv[1], 'exec')\n"
        "print(tracemalloc.get_traced_memory()[1])\n"
    )
    out = subprocess.run([sys.executable, "-c", code, str(PKG / f"{name}.py")],
                         capture_output=True, text=True, check=True).stdout
    peak_kib = int(out) / 1024
    assert peak_kib < limit_kib, f"compiling {name}.py peaks at {peak_kib:.0f} KiB"


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="the figures are those of Python 3.11")
def test_grid_search_memory_stays_small():
    # The whole-circle search of the benchmark, at its depth, peaks at about
    # 22 KiB. Most states fail the reachability test at depth 2, before they
    # enter the memo, and only a mask that is some state's last piece gets
    # a meeting list. With a list for every mask and no such test it peaked
    # at about 240 KiB.
    code = (
        "import tracemalloc\n"
        "from fractions import Fraction\n"
        "from cuntzkit import geometry as geo, gridsearch\n"
        "full = geo.full_set(geo.space(geo.circle(1)))\n"
        "gridsearch.exhaustive_chain_search(full, Fraction(1, 2), depth=4)\n"
        "tracemalloc.start()\n"
        "gridsearch.exhaustive_chain_search(full, Fraction(1, 2), depth=4)\n"
        "print(tracemalloc.get_traced_memory()[1])\n"
    )
    env = dict(os.environ, PYTHONPATH=str(PKG.parent), PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True).stdout
    peak_kib = int(out) / 1024
    assert peak_kib < 45, f"the depth-4 circle search peaks at {peak_kib:.0f} KiB"


def test_no_module_imports_dataclasses():
    found = []
    for path in sorted(PKG.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for n in names if n and n.split(".")[0] == "dataclasses"]
    assert found == []


def test_importing_the_cli_loads_no_dataclasses_inspect_or_hashlib():
    # -S keeps site-packages hooks, which may import anything, out of the count.
    code = "import sys, cuntzkit.cli; print(sorted({'dataclasses', 'inspect', 'hashlib'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(PKG.parent), PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "[]"


# The layers bench/tracer.py wraps. bench/cli_launcher.py installs the
# tracer right after `import cuntzkit.cli`, and the tracer finds each of
# these in `sys.modules` there; reading them through `vars()` runs them.
TRACED_LAYERS = ("geometry", "lsc", "gen", "duality", "models", "chains", "checks")
# What every call runs, and what every call that reads a space runs.
BELOW = {"base", "cli"}
SETS = {"segment", "geometry"}


def _python(code, *argv):
    """Run `code` in a fresh interpreter; -S keeps site-packages hooks,
    which may import anything, out of the module counts."""
    env = dict(os.environ, PYTHONPATH=str(PKG.parent), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, "-S", "-c", code, *argv], capture_output=True, text=True,
                          env=env, check=True).stdout


def test_importing_the_cli_registers_every_traced_layer():
    code = "import sys, cuntzkit.cli; print(*(n for n in sys.argv[1:] if f'cuntzkit.{n}' not in sys.modules))"
    assert _python(code, *TRACED_LAYERS).split() == []


def test_importing_the_package_or_the_cli_runs_only_base():
    code = (
        "import importlib, sys, types\n"
        "importlib.import_module(sys.argv[1])\n"
        "print(*sorted(n for n, m in sys.modules.items() if n.split('.')[0] == 'cuntzkit' and type(m) is types.ModuleType))\n"
    )
    assert _python(code, "cuntzkit").split() == ["cuntzkit", "cuntzkit.base"]
    assert _python(code, "cuntzkit.cli").split() == ["cuntzkit", "cuntzkit.base", "cuntzkit.cli"]


def _instance_files(tmp_path):
    from cuntzkit import chains, geometry as geo, lsc

    arc = geo.space(geo.arc(1))

    def part(a, b):
        return geo.normalize(arc, [[(a, b, a == 0, b == 1)]])

    def write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    half = lsc.element_to_json(lsc.indicator(part(F(0), F(1, 2))))
    return {
        "space": write("arc.json", geo.space_to_json(arc)),
        "add": write("add.json", {"a": half, "b": half}),
        "eval": write("eval.json", {"element": half}),
        "cover": write("cover.json", {"cover": chains.cover_to_json(
            chains.make_cover([part(F(0), F(3, 4)), part(F(1, 4), F(1))]))}),
        "sums": write("sums.json", {"xs": ["1", "1", "11/10'"], "xps": ["1", "1", "1/2'"]}),
    }


# Each call: its exit code and the modules it runs beyond BELOW. No call
# runs `gridsearch`, or the handler module of another group.
@pytest.mark.parametrize("argv, code, layers", [
    # No views: elements are parsed, added and written by `geometry` alone.
    ("lsc add -s {space} --instance {add}", 0, SETS | {"lsc", "cli_lsc"}),
    # Without points, the probes come from `views`, not `gen`.
    ("lsc eval -s {space} --instance {eval}", 0, SETS | {"views", "lsc", "cli_lsc"}),
    ("chains lebesgue -s {space} --instance {cover}", 0, SETS | {"views", "chains", "cli_chains"}),
    # The rational model reads no space: no `geometry`, no `segment`.
    ("check refinable-sums --model z --instance {sums}", 1, {"checks", "models", "cli_check"}),
    ("verify lemmas --cases 2 --check chain-decider-consistency", 0,
     SETS | {"views", "suite", "chains", "gen", "cli_verify"}),
])
def test_a_cli_call_runs_only_the_layers_its_verb_touches(tmp_path, argv, code, layers):
    # A module registered but never run is not of type ModuleType itself.
    script = (
        "import contextlib, io, sys, types, cuntzkit.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cuntzkit.cli.main(sys.argv[1:])\n"
        "print(code, *(n[9:] for n, m in sys.modules.items()\n"
        "              if n.startswith('cuntzkit.') and type(m) is types.ModuleType))\n"
    )
    out = _python(script, *argv.format(**_instance_files(tmp_path)).split()).split()
    assert (int(out[0]), set(out[1:])) == (code, BELOW | layers)


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="Python 3.12 tokenizes f-strings differently")
@pytest.mark.parametrize("argv, budget", [
    # At the parent of the views split these compiled 15,621 and 23,850.
    ("lsc add -s {space} --instance {add}", 12_000),
    ("check refinable-sums --model z --instance {sums}", 16_000),
])
def test_a_cli_call_compiles_few_tokens(tmp_path, argv, budget):
    # With no bytecode cache each module a call runs is compiled from its
    # source, at a cost that grows with its tokens (COMMENT and NL not
    # counted, as in test_geometry_stays_below_the_compile_memory_step).
    script = (
        "import contextlib, io, sys, types, cuntzkit.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    cuntzkit.cli.main(sys.argv[1:])\n"
        "print(*(m.__file__ for n, m in sys.modules.items()\n"
        "        if n.split('.')[0] == 'cuntzkit' and type(m) is types.ModuleType))\n"
    )
    counts = {}
    for path in _python(script, *argv.format(**_instance_files(tmp_path)).split()).split():
        with open(path, encoding="utf-8") as fh:
            counts[pathlib.Path(path).name] = sum(
                1 for t in tokenize.generate_tokens(fh.readline) if t.type not in (tokenize.COMMENT, tokenize.NL))
    assert "__init__.py" in counts and "cli.py" in counts
    assert sum(counts.values()) < budget, counts


# Each forward: the module split off, and its set of names still readable
# through the module it was split from.
FORWARDS = [("geometry", "views", "_VIEWS"), ("chains", "gridsearch", "_SEARCH")]


@pytest.mark.parametrize("owner, home, names", FORWARDS)
def test_names_split_off_are_read_from_their_new_module(owner, home, names):
    # Importing the module they were split from does not load them, and
    # each forwarded name reads there as the same object as in its home.
    code = (
        "import importlib, sys, types\n"
        "owner = importlib.import_module(f'cuntzkit.{sys.argv[1]}')\n"
        "full = f'cuntzkit.{sys.argv[2]}'\n"
        "print(type(sys.modules.get(full)) is types.ModuleType)\n"
        "home = importlib.import_module(full)\n"
        "names = sorted(getattr(owner, sys.argv[3]))\n"
        "print(len(names), all(getattr(owner, n) is getattr(home, n) is vars(owner)[n] for n in names))\n"
    )
    loaded, checked = _python(code, owner, home, names).split("\n")[:2]
    assert loaded == "False"
    assert checked.split() == [str(len(getattr(importlib.import_module(f"cuntzkit.{owner}"), names))), "True"]
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        importlib.import_module(f"cuntzkit.{owner}").nope


MODULES = sorted(info.name for info in pkgutil.iter_modules(cuntzkit.__path__))
ROOT = pathlib.Path(__file__).resolve().parents[1]


def binds(source: str, imports: bool) -> set:
    """The names a module binds at its top level by a def, a class or an
    assignment, and, if `imports`, by an import too; not the names its
    module `__getattr__` hands out."""
    stack = list(ast.parse(source).body)
    found = set()
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.If, ast.Try, ast.For, ast.While, ast.With)):
            stack += node.body + getattr(node, "orelse", []) + getattr(node, "finalbody", [])
            stack += [s for h in getattr(node, "handlers", []) for s in h.body]
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign, ast.For)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
        elif imports and isinstance(node, (ast.Import, ast.ImportFrom)):
            found |= {(a.asname or a.name).split(".")[0] for a in node.names}
    return found


def module_reads(source: str) -> list:
    """(line, module, name) for each name read from a module of the
    package: `from .X import name` or `from cuntzkit.X import name`, and
    `alias.name` where `from . import X as alias`, `from cuntzkit import
    X as alias`, `import cuntzkit.X`, `alias = _lazy("X")` or `alias, ...
    = map(_lazy, ("X", ...))` (as `cli` loads its layers) bound the
    alias. Dunders are not counted, nor names read from the package
    itself."""
    tree = ast.parse(source)
    aliases, packages, found = {}, set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            aliases.update(_lazy_binds(node.targets[0], node.value))
        if isinstance(node, ast.ImportFrom) and node.level <= 1:
            mod = node.module or ""
            if node.level == 0:
                if mod.split(".")[0] != "cuntzkit":
                    continue
                mod = mod.partition(".")[2]
            for a in node.names:
                if not mod and a.name in MODULES:
                    aliases[a.asname or a.name] = a.name
                elif mod:
                    found.append((node.lineno, mod, a.name))
        elif isinstance(node, ast.Import):
            packages |= {a.asname or "cuntzkit" for a in node.names if a.name.split(".")[0] == "cuntzkit"}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute) or node.attr.startswith("__"):
            continue
        v = node.value
        if isinstance(v, ast.Name) and v.id in aliases:
            found.append((node.lineno, aliases[v.id], node.attr))
        elif isinstance(v, ast.Attribute) and isinstance(v.value, ast.Name) and v.value.id in packages:
            if v.attr in MODULES:
                found.append((node.lineno, v.attr, node.attr))
    return sorted(found)


def _lazy_binds(target, call: ast.Call) -> dict:
    """{alias: module} for `alias = _lazy("X")` and `a, b = map(_lazy, ("X", "Y"))`."""
    fn, args = call.func, call.args
    if isinstance(fn, ast.Name) and fn.id == "_lazy" and len(args) == 1:
        names, targets = args, [target]
    elif (isinstance(fn, ast.Name) and fn.id == "map" and len(args) == 2 and isinstance(args[0], ast.Name)
          and args[0].id == "_lazy" and isinstance(args[1], (ast.Tuple, ast.List)) and isinstance(target, ast.Tuple)):
        names, targets = args[1].elts, target.elts
    else:
        return {}
    return {t.id: n.value for t, n in zip(targets, names)
            if isinstance(t, ast.Name) and isinstance(n, ast.Constant) and n.value in MODULES}


def test_the_read_rule_catches_each_kind_of_read():
    src = (
        "import cuntzkit.cli\n"
        "from cuntzkit import geometry as geo, InputError\n"
        "from .views import spans\n"
        "gen = _lazy(\"gen\")\n"
        "ch, lsc = map(_lazy, (\"checks\", \"lsc\"))\n"
        "def f(sp):\n"
        "    from . import chains\n"
        "    return geo.union(chains.make_cover, cuntzkit.cli.main, geo.__name__, cuntzkit.arc)\n"
        "g = gen.rand_space(ch.check_axioms, lsc.zero, _lazy(name).x)\n"
    )
    assert module_reads(src) == [
        (3, "views", "spans"), (8, "chains", "make_cover"), (8, "cli", "main"), (8, "geometry", "union"),
        (9, "checks", "check_axioms"), (9, "gen", "rand_space"), (9, "lsc", "zero"),
    ]


def _binds(imports: bool) -> dict:
    return {m: binds((PKG / f"{m}.py").read_text(), imports) for m in MODULES}


def _reads(*globs) -> dict:
    return {str(p.relative_to(ROOT)): module_reads(p.read_text()) for g in globs for p in sorted(ROOT.glob(g))}


@pytest.mark.parametrize("owner, home, names", FORWARDS)
def test_each_forward_holds_what_the_benchmark_reads_through_it(owner, home, names):
    # bench/ is frozen and reads `geometry.neighborhood` and
    # `chains.exhaustive_chain_search`; when it reads them from their
    # homes (ROADMAP item 1), this asks for empty forwards.
    bound = _binds(True)[owner]
    wanted = {n for reads in _reads("bench/*.py").values() for _, m, n in reads if m == owner and n not in bound}
    assert set(getattr(importlib.import_module(f"cuntzkit.{owner}"), names)) == wanted
    assert wanted <= _binds(False)[home]


def test_the_benchmark_reads_the_point_complement_alias():
    # `duality.point_complement` stays for bench/workloads.py alone.
    assert any(("duality", "point_complement") == r[1:] for reads in _reads("bench/*.py").values() for r in reads)


def test_the_package_and_its_tests_read_each_name_from_its_home():
    # No read names something its module does not bind, as a forwarded
    # name is, or reads the alias, and a `_`-name is read from the module
    # that defines it. The one exception is the alias case of the test
    # that every route to a point complement checks its component index.
    defined, bound = _binds(False), _binds(True)
    found = [
        f"{path}:{line}: {m}.{n}"
        for path, reads in _reads("src/cuntzkit/*.py", "tests/*.py").items()
        for line, m, n in reads
        if n not in bound[m] or (m, n) == ("duality", "point_complement") or (n[0] == "_" and n not in defined[m])
    ]
    case = next(f for f in ast.parse((ROOT / "tests" / "test_duality.py").read_text()).body
                if getattr(f, "name", None) == "test_point_complement_rejects_a_component_index_outside_the_space")
    assert found == [f"tests/test_duality.py:{case.decorator_list[0].lineno}: duality.point_complement"]


def test_the_package_imports_each_name_from_the_module_that_defines_it():
    # `geometry` re-exports base's public names for users, the tests and
    # bench/, but the package reads them from `base`.
    defined = _binds(False)
    found = [
        f"{path}:{line}: {m}.{n}"
        for path, reads in _reads("src/cuntzkit/*.py").items()
        for line, m, n in reads
        if n not in defined[m]
    ]
    assert found == []


def test_the_package_gives_no_name_a_second_binding():
    # A top-level assignment of a bare name or an attribute, such as
    # `Part = Scaled` or `_set = object.__setattr__`, is an alias: it
    # neither binds nor reads a name that another module of the package
    # binds, so each concept keeps one name in one module.
    defined = _binds(False)
    found = []
    for m in MODULES:
        for node in ast.parse((PKG / f"{m}.py").read_text()).body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and isinstance(node.value, (ast.Name, ast.Attribute)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
                names.add(node.value.id if isinstance(node.value, ast.Name) else node.value.attr)
                found += [f"{m}.py:{node.lineno}: {n}" for n in sorted(names) if any(
                    n in defined[o] for o in MODULES if o != m)]
    assert found == []


def test_each_module_of_the_package_is_bound_under_its_own_name():
    # `geometry as geo` is the one alias of a module, in src/ and tests/.
    found = []
    for path in [*sorted(ROOT.glob("src/cuntzkit/*.py")), *sorted(ROOT.glob("tests/*.py"))]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "cuntzkit") == "cuntzkit" and node.level <= 1:
                pairs = [(a.name, a.asname) for a in node.names if a.name in MODULES]
            elif isinstance(node, ast.Import):
                pairs = [(a.name.partition(".")[2], a.asname) for a in node.names if a.name.startswith("cuntzkit.")]
            else:
                continue
            found += [f"{path.relative_to(ROOT)}:{node.lineno}: {name} as {alias}" for name, alias in pairs
                      if alias not in (None, name) and (name, alias) != ("geometry", "geo")]
    assert found == []


@pytest.fixture
def fresh_package():
    """An empty import state for the package, put back as it was after."""
    saved = {n: m for n, m in sys.modules.items() if n == "cuntzkit" or n.startswith("cuntzkit.")}
    for n in saved:
        del sys.modules[n]
    try:
        yield
    finally:
        for n in [n for n in sys.modules if n == "cuntzkit" or n.startswith("cuntzkit.")]:
            del sys.modules[n]
        sys.modules.update(saved)


@pytest.mark.parametrize("first", ["cuntzkit.cli", "cuntzkit.checks"])
def test_each_layer_is_one_module_in_either_import_order(fresh_package, first):
    importlib.import_module(first)
    before = {n: m for n, m in sys.modules.items() if n.startswith("cuntzkit.")}
    cli = importlib.import_module("cuntzkit.cli")
    checks = importlib.import_module("cuntzkit.checks")
    assert {n: sys.modules[n] for n in before} == before
    pkg = sys.modules["cuntzkit"]
    for name in ("geometry", "views", "chains", "checks", "duality", "gen", "lsc", "models", "suite"):
        mod = sys.modules[f"cuntzkit.{name}"]
        assert getattr(pkg, name) is mod
        assert getattr(cli, name, mod) is mod
    suite = importlib.import_module("cuntzkit.suite")
    assert (checks.chains, suite.models, suite.checks) == (pkg.chains, pkg.models, checks)
    # Values made in one layer are instances of the classes another names.
    model = suite.models.load_model("z")
    verdict = checks.check_refinable_sums(model, [model.parse("1")], [model.parse("1")])
    assert isinstance(verdict, pkg.checks.PropertyVerdict) and pkg.SearchBounds is checks.SearchBounds
    assert isinstance(cli.lsc.zero(pkg.space(pkg.arc())), sys.modules["cuntzkit.lsc"].LscElement)
    assert pkg.InputError is cli.InputError is sys.modules["cuntzkit.base"].InputError
