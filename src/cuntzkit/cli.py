"""Command line front end.

Exit codes: 0 for a positive verdict (witness found, identity holds,
validation passed), 1 for a negative verdict backed by evidence
(counterexample, not chainable, axiom failure), 2 for malformed input,
3 when a search gave up without either answer, 4 for an internal error
(any other exception, reported as one line on stderr), and 141 with
nothing on stderr when stdout was closed before the output was written.

All structured output is JSON on stdout, printed with sorted keys so
identical inputs produce byte-identical bytes.

Importing this module runs only `geometry` and what is below it. Every
layer above is registered unexecuted and runs on the first read of one
of its attributes, so a call loads only the layers its verb touches.
"""

from __future__ import annotations

import argparse
import functools
import importlib.util
import json
import math
import os
import sys

from . import geometry as geo
from .geometry import InputError


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


chains, checks, lsc, models, suite = map(_lazy, ("chains", "checks", "lsc", "models", "suite"))
# No verb calls `gen` or `duality` itself, but the benchmark's tracing
# launcher (bench/cli_launcher.py) wraps seven layers and looks for each
# in `sys.modules` after `import cuntzkit.cli`.
_lazy("gen")
_lazy("duality")

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3
EXIT_INTERNAL = 4
EXIT_CLOSED_STDOUT = 141  # 128 + SIGPIPE, as a shell reports a process a closed pipe killed


def _emit(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _space_of(args) -> geo.SpaceDescriptor:
    return geo.space_from_json(geo.load_json(args.space, "space"))


def _instance_of(args):
    """The instance object: the --instance file, or one positional element
    file per key of the verb."""
    if args.files and args.instance:
        raise InputError("$", "give either --instance or positional files, not both")
    if args.files:
        if len(args.files) != len(args.keys):
            wants = " ".join(args.keys).upper()
            raise InputError("$", f"this command takes {len(args.keys)} positional files: {wants}")
        return {k: geo.load_json(f, k) for k, f in zip(args.keys, args.files)}
    if not args.instance:
        raise InputError("$", "this command needs --instance FILE")
    obj = geo.load_json(args.instance, "instance")
    if not isinstance(obj, dict):
        raise InputError("$.instance", "instance must be a JSON object")
    return obj


def _field(obj, key):
    if key not in obj:
        raise InputError(f"$.{key}", "missing field")
    return obj[key]


def _bounds_of(args) -> checks.SearchBounds:
    if args.depth is None:
        return checks.SearchBounds()
    if args.depth < 0:
        raise InputError("$.depth", "depth must be nonnegative")
    return checks.SearchBounds(depth=args.depth)


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


# ------------------------------------------------------------------ lsc


def _operands(args):
    """The space, the instance, and the elements at the verb's keys."""
    sp = _space_of(args)
    inst = _instance_of(args)
    return sp, inst, [lsc.element_from_json(sp, _field(inst, k), f"$.{k}") for k in args.keys]


def cmd_lsc_eval(args) -> int:
    sp, inst, (f,) = _operands(args)
    if "points" in inst:
        pts = []
        raw = inst["points"]
        if not isinstance(raw, list):
            raise InputError("$.points", "expected a list of [component, point] pairs")
        for i, entry in enumerate(raw):
            here = f"$.points[{i}]"
            if not isinstance(entry, list) or len(entry) != 2:
                raise InputError(here, "expected [component, point]")
            ci = entry[0]
            if type(ci) is not int or not 0 <= ci < len(sp.components):  # bool is an int too
                raise InputError(f"{here}[0]", "component index outside the space")
            if entry[1] is None and sp.components[ci].kind != "point":
                raise InputError(f"{here}[1]", "arc and circle components need a point")
            p = None if entry[1] is None else geo.frac_from_str(entry[1], f"{here}[1]")
            pts.append((ci, p))
    else:
        top = lsc.level(f, max(1, lsc.num_levels(f)))
        pts = [(ci, p) for ci, p, _ in geo.probe_points(sp, (lsc.supp(f), top))]
    values = []
    for i, (ci, p) in enumerate(pts):
        try:
            v = lsc.eval_at(f, ci, p)
        except ValueError as exc:  # the component index is checked above
            raise InputError(f"$.points[{i}][1]", str(exc))
        values.append({
            "component": ci,
            "point": None if p is None else geo.frac_to_str(p),
            "value": "inf" if v == math.inf else v,
        })
    _emit({"values": values})
    return EXIT_OK


def cmd_lsc_op(args) -> int:
    """add, join, meet and complement; a failed precondition names the
    first operand."""
    _, _, operands = _operands(args)
    try:
        result = getattr(lsc, args.op)(*operands)
    except ValueError as exc:
        raise InputError(f"$.{args.keys[0]}", str(exc))
    _emit({"result": lsc.element_to_json(result)})
    return EXIT_OK


def cmd_lsc_relation(args) -> int:
    _, _, operands = _operands(args)
    holds = getattr(lsc, args.op)(*operands)
    _emit({"holds": holds})
    return EXIT_OK if holds else EXIT_NEGATIVE


def cmd_lsc_ordered_sum(args) -> int:
    parse = functools.partial(lsc.element_from_json, _space_of(args))
    inst = _instance_of(args)
    if "ys" in inst:
        xs = _parse_elements(parse, _field(inst, "xs"), "$.xs")
        ys = _parse_elements(parse, inst["ys"], "$.ys")
        try:
            out = lsc.ordered_sum_pairwise(xs, ys)
        except ValueError as exc:
            # The message names the list at fault, first or second summands.
            raise InputError("$.ys" if str(exc).startswith("second") else "$.xs", str(exc))
    else:
        terms = _parse_elements(parse, _field(inst, "terms"), "$.terms")
        try:
            out = lsc.ofs_normalize(terms)
        except ValueError as exc:
            raise InputError("$.terms", str(exc))
    _emit({"result": [lsc.element_to_json(t) for t in out]})
    return EXIT_OK


def cmd_lsc_decompose(args) -> int:
    sp = _space_of(args)
    inst = _instance_of(args)
    f = lsc.element_from_json(sp, _field(inst, "element"), "$.element")
    n = _field(inst, "n")
    if type(n) is not int or n < 1:  # bool is an int too
        raise InputError("$.n", "expected a positive integer")
    try:
        parts = lsc.decompose_below_ne(f, n)
    except ValueError as exc:
        raise InputError("$.element", str(exc))
    _emit({"result": [lsc.element_to_json(t) for t in parts]})
    return EXIT_OK


# --------------------------------------------------------------- chains


def cmd_chains_epsilon_chain(args) -> int:
    sp = _space_of(args)
    inst = _instance_of(args)
    target = geo.open_set_from_json(sp, _field(inst, "target"), "$.target")
    eps = geo.frac_from_str(_field(inst, "eps"), "$.eps")
    if eps <= 0:
        raise InputError("$.eps", "eps must be positive")
    try:
        w = chains.epsilon_chain(target, eps)
    except chains.NotChainableError as exc:
        _emit({"chainable": False, "reason": str(exc)})
        return EXIT_NEGATIVE
    except chains.ChainTooLargeError as exc:
        raise InputError("$.eps", str(exc))
    except ValueError as exc:
        raise InputError("$.target", str(exc))
    _emit({"chainable": True, "witness": chains.witness_to_json(w),
           "mesh": geo.frac_to_str(w.mesh)})
    return EXIT_OK


def cmd_chains_refine(args) -> int:
    sp = _space_of(args)
    inst = _instance_of(args)
    cover = chains.cover_from_json(sp, _field(inst, "cover"), "$.cover")
    target = geo.open_set_from_json(sp, _field(inst, "target"), "$.target")
    try:
        res = chains.refine_to_almost_chain(cover, target)
    except ValueError as exc:
        raise InputError("$.cover", str(exc))
    if isinstance(res, chains.Impossible):
        _emit({"refined": False, "reason": res.reason})
        return EXIT_NEGATIVE
    _emit({"refined": True, "witness": chains.witness_to_json(res)})
    return EXIT_OK


def cmd_chains_decide(args) -> int:
    sp = _space_of(args)
    inst = _instance_of(args)
    target = geo.open_set_from_json(sp, _field(inst, "target"), "$.target")
    chainable = chains.decide_chainable(target)
    almost = chains.decide_almost_chainable(sp)
    _emit({"chainable": chainable, "almost_chainable": almost, "piecewise_chainable": almost})
    return EXIT_OK if chainable else EXIT_NEGATIVE


def cmd_chains_lebesgue(args) -> int:
    sp = _space_of(args)
    inst = _instance_of(args)
    cover = chains.cover_from_json(sp, _field(inst, "cover"), "$.cover")
    try:
        delta = chains.lebesgue_number(cover)
    except ValueError as exc:
        raise InputError("$.cover", str(exc))
    _emit({"delta": geo.frac_to_str(delta)})
    return EXIT_OK


def cmd_chains_verify(args) -> int:
    sp = _space_of(args)
    inst = _instance_of(args)
    w = chains.witness_from_json(sp, _field(inst, "witness"), "$.witness")
    target = geo.open_set_from_json(sp, _field(inst, "target"), "$.target")
    cover = chains.cover_from_json(sp, _field(inst, "cover"), "$.cover")
    ok = chains.verify_witness(w, target, cover)
    _emit({"valid": ok})
    return EXIT_OK if ok else EXIT_NEGATIVE


# ---------------------------------------------------------------- check


def _emit_verdict(verdict) -> int:
    _emit(checks.verdict_to_json(verdict))
    return {"witness": EXIT_OK, "counterexample": EXIT_NEGATIVE}.get(verdict.kind, EXIT_INCONCLUSIVE)


def _sum_terms(args):
    """The model, the instance and its xs, for the two sum checks."""
    model = models.load_model(args.model, space=_space_of(args) if args.space else None)
    inst = _instance_of(args)
    return model, inst, _parse_elements(model.parse, _field(inst, "xs"), "$.xs")


def cmd_check_refinable_sums(args) -> int:
    model, inst, xs = _sum_terms(args)
    xps = _parse_elements(model.parse, _field(inst, "xps"), "$.xps")
    return _emit_verdict(checks.check_refinable_sums(model, xs, xps, bounds=_bounds_of(args)))


def cmd_check_almost_ordered(args) -> int:
    model, _, xs = _sum_terms(args)
    return _emit_verdict(checks.check_almost_ordered_sums(model, xs, bounds=_bounds_of(args)))


def cmd_check_weak_chain(args) -> int:
    sp, inst, (x, y) = _operands(args)
    ys = _parse_elements(functools.partial(lsc.element_from_json, sp), _field(inst, "ys"), "$.ys")
    verdict = checks.check_weak_chainability(sp, x, y, ys, bounds=_bounds_of(args))
    return _emit_verdict(verdict)


def cmd_check_axioms(args) -> int:
    model = models.load_model(args.model)
    if model.kind != "table":
        raise InputError("$.model", "axioms run on finite table models only")
    report = checks.check_axioms(model)
    _emit({"report": report})
    return EXIT_NEGATIVE if any(v["status"] == "fail" for v in report.values()) else EXIT_OK


# --------------------------------------------------------------- verify


def cmd_verify_lemmas(args) -> int:
    if args.merge:
        report = suite.merge_reports([geo.load_json(p, "report") for p in args.merge])
    else:
        names = args.check
        if args.shard:
            try:
                idx, total = (int(x) for x in args.shard.split("/", 1))
            except ValueError as exc:
                raise InputError("$.shard", f"expected I/N with integers: {exc}")
            names = suite.shard_names(idx, total)
        report = suite.run_suite(seed=args.seed, cases=args.cases, names=names,
                                 mutate=tuple(args.mutate or ()))
    _emit(report)
    return EXIT_OK if not report["failures"] else EXIT_NEGATIVE


# --------------------------------------------------------------- parser


def build_parser(group: str | None = None) -> argparse.ArgumentParser:
    """The parser of every verb or, when `group` names a group, of that
    group's verbs alone. Every group is there either way, so a command
    line whose first word is `group` parses, and prints, the same."""
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
    # Each verb: its path, help, handler, fixed arguments, then its options.
    # A list of options is a group of which at most one may be given.
    verbs = (
        ("space validate", "parse, normalize and echo a space file", cmd_space_validate, {}, space),
        ("lsc eval", "evaluate an element at grid or given points", cmd_lsc_eval,
         {"keys": ("element",)}, *element_files(1)),
        ("lsc add", "pointwise sum of two elements", cmd_lsc_op, {"op": "add", "keys": ab}, *pair),
        ("lsc join", "pointwise maximum", cmd_lsc_op, {"op": "join", "keys": ab}, *pair),
        ("lsc meet", "pointwise minimum", cmd_lsc_op, {"op": "meet", "keys": ab}, *pair),
        ("lsc leq", "pointwise order test", cmd_lsc_relation, {"op": "leq", "keys": ab}, *pair),
        ("lsc wb", "way-below test", cmd_lsc_relation, {"op": "way_below", "keys": ab}, *pair),
        ("lsc complement", "largest x with y + x <= z, for bounded y <= z", cmd_lsc_op,
         {"op": "almost_complement", "keys": ("y", "z")}, *pair),
        ("lsc ordered-sum", "merge two decreasing indicator sums, or refold one list",
         cmd_lsc_ordered_sum, *plain),
        ("lsc decompose", "split a bounded element into n pieces summing below it", cmd_lsc_decompose, *plain),
        ("chains epsilon-chain", "build a chain cover of mesh below eps", cmd_chains_epsilon_chain, *plain),
        ("chains refine", "refine a cover to an almost chain of the target", cmd_chains_refine, *plain),
        ("chains decide", "decide chainability of a target open set", cmd_chains_decide, *plain),
        ("chains lebesgue", "Lebesgue number of a cover of its union", cmd_chains_lebesgue, *plain),
        ("chains verify", "check a chain witness against target and cover", cmd_chains_verify, *plain),
        ("check refinable-sums", "run the refinable sums check",
         cmd_check_refinable_sums, {}, lsc_space, model, instance, depth),
        ("check almost-ordered", "run the almost ordered check",
         cmd_check_almost_ordered, {}, lsc_space, model, instance, depth),
        ("check weak-chain", "run the weak chain check", cmd_check_weak_chain,
         {"keys": ("x", "y")}, space, instance, depth),
        ("check axioms", "run the axioms check", cmd_check_axioms, {},
         opt("--model", metavar="NAME", required=True, help=models_help)),
        ("verify lemmas", "run the seeded law checks", cmd_verify_lemmas, {},
         opt("--seed", type=int, default=42), opt("--cases", type=int, default=100),
         opt("--mutate", action="append", metavar="NAME",
             help="enable a deliberate fault to confirm the suite catches it"),
         [opt("--check", action="append", metavar="NAME", help="run only this check (repeatable)"),
          opt("--shard", metavar="I/N", help="run shard I of N by round robin over check names"),
          opt("--merge", nargs="+", metavar="FILE",
              help="merge shard reports instead of running; --seed, --cases and --mutate are ignored")]),
    )
    subs = {}
    for name, blurb in (("space", "space descriptor utilities"),
                        ("lsc", "pointwise and order operations on elements"),
                        ("chains", "chain covers of open sets"),
                        ("check", "decision procedures with certificates"),
                        ("verify", "randomized law suite")):
        g = groups.add_parser(name, help=blurb)
        subs[name] = g.add_subparsers(dest="cmd", required=True, metavar="CMD")
    for path, blurb, fn, fixed, *opts in verbs:
        g, name = path.split()
        if group in subs and g != group:
            continue
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


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None or code == 0:
            return EXIT_OK
        return EXIT_USAGE
    try:
        code = args.fn(args)
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
    except geo.SpaceMismatchError as exc:
        print(f"error: $: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        # A crash must never read as a verdict: 1 is a counterexample.
        msg = str(exc).replace("\n", " ")
        print(f"internal error: {type(exc).__name__}: {msg}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main(argv=sys.argv[1:]))
