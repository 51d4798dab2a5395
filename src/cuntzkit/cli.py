"""Command line front end.

Exit codes: 0 for a positive verdict (witness found, identity holds,
validation passed), 1 for a negative verdict backed by evidence
(counterexample, not chainable, axiom failure), 2 for malformed input,
3 when a search gave up without either answer, 4 for an internal error
(any other exception, reported as one line on stderr), and 141 with
nothing on stderr when stdout was closed before the output was written.

All structured output is JSON on stdout, printed with sorted keys so
identical inputs produce byte-identical bytes.

Importing this module runs only `base`. `geometry` and every layer above
it are registered unexecuted and run on the first read of one of their
attributes, so a call loads only the layers its verb touches. This
module holds the verb table, the parser, `main`, the readers the
handlers share and `space validate`; the handlers of the other groups
live in one module per group, `cli_<group>`, which loads when one of its
verbs is dispatched.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import sys

from .base import InputError, SpaceMismatchError, load_json


def _lazy(name: str):
    """The package's submodule `name`, as already imported or else
    registered in `sys.modules` unexecuted: its code runs on the first
    read of one of its attributes. It is bound as a package attribute as
    an import would bind it, so `from . import name` in another layer
    finds it there and stays lazy too."""
    full = f"{__package__}.{name}"
    mod = sys.modules.get(full)
    if mod is None:
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        mod = importlib.util.module_from_spec(spec)
        sys.modules[full] = mod
        spec.loader.exec_module(mod)
        setattr(sys.modules[__package__], name, mod)
    return mod


geo, lsc = map(_lazy, ("geometry", "lsc"))
# The handler modules take the other layers by `from . import name`, which
# finds each registered here and stays lazy. No verb calls `gen` or
# `duality` itself, but the benchmark's tracing launcher
# (bench/cli_launcher.py) wraps seven layers and looks for each in
# `sys.modules` after `import cuntzkit.cli`.
for _name in ("views", "chains", "models", "checks", "suite", "gen", "duality"):
    _lazy(_name)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3
EXIT_INTERNAL = 4
EXIT_CLOSED_STDOUT = 141  # 128 + SIGPIPE, as a shell reports a process a closed pipe killed


def _emit(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _space_of(args) -> geo.SpaceDescriptor:
    return geo.space_from_json(load_json(args.space, "space"))


def _instance_of(args):
    """The instance object: the --instance file, or one positional element
    file per key of the verb."""
    if args.files and args.instance:
        raise InputError("$", "give either --instance or positional files, not both")
    if args.files:
        if len(args.files) != len(args.keys):
            wants = " ".join(args.keys).upper()
            raise InputError("$", f"this command takes {len(args.keys)} positional files: {wants}")
        return {k: load_json(f, k) for k, f in zip(args.keys, args.files)}
    if not args.instance:
        raise InputError("$", "this command needs --instance FILE")
    obj = load_json(args.instance, "instance")
    if not isinstance(obj, dict):
        raise InputError("$.instance", "instance must be a JSON object")
    return obj


def _field(obj, key):
    if key not in obj:
        raise InputError(f"$.{key}", "missing field")
    return obj[key]


def _operands(args):
    """The space, the instance, and the elements at the verb's keys."""
    sp = _space_of(args)
    inst = _instance_of(args)
    return sp, inst, [lsc.element_from_json(sp, _field(inst, k), f"$.{k}") for k in args.keys]


def _parse_elements(parse, items, path: str):
    """`parse(item, path)` of each item of a list."""
    if not isinstance(items, list):
        raise InputError(path, "expected a list")
    return [parse(it, f"{path}[{i}]") for i, it in enumerate(items)]


# ---------------------------------------------------------------- space


def cmd_space_validate(args) -> int:
    sp = _space_of(args)
    _emit({"ok": True, "space": geo.space_to_json(sp)})
    return EXIT_OK


# --------------------------------------------------------------- parser


def build_parser(group: str | None = None, verb: str | None = None) -> argparse.ArgumentParser:
    """The parser of every verb; or, when `group` names a group, of that
    group's verbs alone; or, when `verb` also names one of them exactly,
    of that verb alone. A command line whose first words are `group` and
    `verb` parses, and prints, the same with either: the usage lines name
    no group or verb but its own, and a second word that is no verb of the
    group gets the group's parser, whose error lists its verbs."""
    parser = argparse.ArgumentParser(
        prog="cuntzkit",
        description="exact computations with lower semicontinuous N-valued functions "
                    "on one-dimensional spaces, chain covers, and ordered monoid checks")
    groups = parser.add_subparsers(dest="group", required=True, metavar="GROUP")

    def opt(*flags, **kw):
        return flags, kw

    space = opt("-s", "--space", metavar="FILE", required=True, help="space description JSON file")
    lsc_space = opt("-s", "--space", metavar="FILE", help="space description JSON file")
    instance = opt("--instance", metavar="FILE", required=True, help="instance JSON file")
    models_help = "element model: lsc, z, zprime, nbar, or table:FILE"
    model = opt("--model", metavar="NAME", default="lsc", help=models_help)
    depth = opt("--depth", type=int, metavar="N", help="search depth (default 3)")

    def element_files(n):
        return (space, opt("--instance", metavar="FILE",
                           help="instance JSON file (alternative to positional element files)"),
                opt("files", nargs="*", metavar="FILE", help=f"{n} element JSON file(s) instead of --instance"))

    ab, pair = ("a", "b"), element_files(2)
    plain = ({}, space, instance)
    # Each verb: its path, help, the name of its handler (see `_handler`),
    # fixed arguments, then its options. A list of options is a group of
    # which at most one may be given.
    verbs = (
        ("space validate", "parse, normalize and echo a space file", "cmd_space_validate", {}, space),
        ("lsc eval", "evaluate an element at grid or given points", "cmd_lsc_eval",
         {"keys": ("element",)}, *element_files(1)),
        ("lsc add", "pointwise sum of two elements", "cmd_lsc_op", {"op": "add", "keys": ab}, *pair),
        ("lsc join", "pointwise maximum", "cmd_lsc_op", {"op": "join", "keys": ab}, *pair),
        ("lsc meet", "pointwise minimum", "cmd_lsc_op", {"op": "meet", "keys": ab}, *pair),
        ("lsc leq", "pointwise order test", "cmd_lsc_relation", {"op": "leq", "keys": ab}, *pair),
        ("lsc wb", "way-below test", "cmd_lsc_relation", {"op": "way_below", "keys": ab}, *pair),
        ("lsc complement", "largest x with y + x <= z, for bounded y <= z", "cmd_lsc_op",
         {"op": "almost_complement", "keys": ("y", "z")}, *pair),
        ("lsc ordered-sum", "merge two decreasing indicator sums, or refold one list",
         "cmd_lsc_ordered_sum", *plain),
        ("lsc decompose", "split a bounded element into n pieces summing below it", "cmd_lsc_decompose", *plain),
        ("chains epsilon-chain", "build a chain cover of mesh below eps", "cmd_chains_epsilon_chain", *plain),
        ("chains refine", "refine a cover to an almost chain of the target", "cmd_chains_refine", *plain),
        ("chains decide", "decide chainability of a target open set", "cmd_chains_decide", *plain),
        ("chains lebesgue", "Lebesgue number of a cover of its union", "cmd_chains_lebesgue", *plain),
        ("chains verify", "check a chain witness against target and cover", "cmd_chains_verify", *plain),
        ("check refinable-sums", "run the refinable sums check",
         "cmd_check_refinable_sums", {}, lsc_space, model, instance, depth),
        ("check almost-ordered", "run the almost ordered check",
         "cmd_check_almost_ordered", {}, lsc_space, model, instance, depth),
        ("check weak-chain", "run the weak chain check", "cmd_check_weak_chain",
         {"keys": ("x", "y")}, space, instance, depth),
        ("check axioms", "run the axioms check", "cmd_check_axioms", {},
         opt("--model", metavar="NAME", required=True, help=models_help)),
        ("verify lemmas", "run the seeded law checks", "cmd_verify_lemmas", {},
         opt("--seed", type=int, default=42), opt("--cases", type=int, default=100),
         opt("--mutate", action="append", metavar="NAME",
             help="enable a deliberate fault to confirm the suite catches it"),
         [opt("--check", action="append", metavar="NAME", help="run only this check (repeatable)"),
          opt("--shard", metavar="I/N", help="run shard I of N by round robin over check names"),
          opt("--merge", nargs="+", metavar="FILE",
              help="merge shard reports instead of running; --seed, --cases and --mutate are ignored")]),
    )
    built = ([v for v in verbs if v[0] == f"{group} {verb}"]
             or [v for v in verbs if v[0].split()[0] == group] or verbs)
    wanted = {v[0].split()[0] for v in built}
    subs = {}
    for name, blurb in (("space", "space descriptor utilities"),
                        ("lsc", "pointwise and order operations on elements"),
                        ("chains", "chain covers of open sets"),
                        ("check", "decision procedures with certificates"),
                        ("verify", "randomized law suite")):
        if name in wanted:
            g = groups.add_parser(name, help=blurb)
            subs[name] = g.add_subparsers(dest="cmd", required=True, metavar="CMD")
    for path, blurb, fn, fixed, *opts in built:
        g, name = path.split()
        q = subs[g].add_parser(name, help=blurb)
        for o in opts:
            if isinstance(o, list):
                modes = q.add_mutually_exclusive_group()
                for flags, kw in o:
                    modes.add_argument(*flags, **kw)
            else:
                q.add_argument(*o[0], **o[1])
        q.set_defaults(**{"fn": fn, "files": (), "keys": (), **fixed})
    return parser


def _handler(group: str, name: str):
    """The handler `name` of a verb of `group`: in this module for
    `space`, else in the module `cli_<group>`, loaded now."""
    if group == "space":
        return globals()[name]
    return getattr(importlib.import_module(f"{__package__}.cli_{group}"), name)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(*argv[:2])
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None or code == 0:
            return EXIT_OK
        return EXIT_USAGE
    try:
        code = _handler(args.group, args.fn)(args)
        # Flushed here, not at exit, so that a closed stdout is caught below.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader is gone. As in Python's documented recipe, what is still
        # buffered goes to devnull, so the flush at exit has nothing to report.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_STDOUT
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SpaceMismatchError as exc:
        print(f"error: $: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        # A crash must never read as a verdict: 1 is a counterexample.
        msg = str(exc).replace("\n", " ")
        print(f"internal error: {type(exc).__name__}: {msg}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    # Run as `python -m cuntzkit.cli`, this module is `__main__`. The
    # handler modules import the shared readers from `cuntzkit.cli`, so
    # that name is this module too, not a second copy of it.
    sys.modules.setdefault(__spec__.name, sys.modules[__name__])
    sys.exit(main(argv=sys.argv[1:]))
