"""Command line front end.

Exit codes: 0 for a positive verdict (witness found, identity holds,
validation passed), 1 for a negative verdict backed by evidence
(counterexample, not chainable, axiom failure), 2 for malformed input,
3 when a search gave up without either answer, 4 for an internal error
(any other exception, reported as one line on stderr).

All structured output is JSON on stdout, printed with sorted keys so
identical inputs produce byte-identical bytes.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import chains
from . import checks
from . import gen
from . import geometry as geo
from . import lsc
from . import models
from . import suite
from .geometry import InputError

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3
EXIT_INTERNAL = 4


def _emit(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _load_json_file(path: str, label: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError("$", f"cannot read {label} file {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise InputError("$", f"{label} file {path} is not valid JSON: {exc}")


def _space_of(args) -> geo.SpaceDescriptor:
    if not getattr(args, "space", None):
        raise InputError("$", "this command needs --space FILE")
    return geo.space_from_json(_load_json_file(args.space, "space"))


def _instance_of(args, positional_keys=()):
    files = list(getattr(args, "files", None) or ())
    if files and getattr(args, "instance", None):
        raise InputError("$", "give either --instance or positional files, not both")
    if files:
        if len(files) != len(positional_keys):
            wants = " ".join(positional_keys).upper()
            raise InputError("$", f"this command takes {len(positional_keys)} positional files: {wants}")
        return {k: _load_json_file(f, k) for k, f in zip(positional_keys, files)}
    if not getattr(args, "instance", None):
        raise InputError("$", "this command needs --instance FILE")
    obj = _load_json_file(args.instance, "instance")
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


def _model_of(args):
    space = geo.space_from_json(_load_json_file(args.space, "space")) if args.space else None
    return models.load_model(args.model or "lsc", space=space)


def _parse_elements(model, items, path: str):
    if not isinstance(items, list):
        raise InputError(path, "expected a list")
    return [model.parse(it, f"{path}[{i}]") for i, it in enumerate(items)]


def _verdict_exit(verdict: checks.PropertyVerdict) -> int:
    if verdict.kind == "witness":
        return EXIT_OK
    if verdict.kind == "counterexample":
        return EXIT_NEGATIVE
    return EXIT_INCONCLUSIVE


# ---------------------------------------------------------------- space


def cmd_space_validate(args) -> int:
    sp = _space_of(args)
    _emit({"ok": True, "space": geo.space_to_json(sp)})
    return EXIT_OK


# ------------------------------------------------------------------ lsc


def _lsc_pair(args):
    sp = _space_of(args)
    inst = _instance_of(args, ("a", "b"))
    a = lsc.element_from_json(sp, _field(inst, "a"), "$.a")
    b = lsc.element_from_json(sp, _field(inst, "b"), "$.b")
    return a, b


def cmd_lsc_eval(args) -> int:
    sp = _space_of(args)
    inst = _instance_of(args, ("element",))
    f = lsc.element_from_json(sp, _field(inst, "element"), "$.element")
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
        pts = gen.grid_points(sp, lsc.supp(f), lsc.level(f, max(1, lsc.num_levels(f))))
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


def _binary_op(args, op):
    a, b = _lsc_pair(args)
    _emit({"result": lsc.element_to_json(op(a, b))})
    return EXIT_OK


def cmd_lsc_add(args) -> int:
    return _binary_op(args, lsc.add)


def cmd_lsc_join(args) -> int:
    return _binary_op(args, lsc.join)


def cmd_lsc_meet(args) -> int:
    return _binary_op(args, lsc.meet)


def _relation(args, rel):
    a, b = _lsc_pair(args)
    holds = rel(a, b)
    _emit({"holds": holds})
    return EXIT_OK if holds else EXIT_NEGATIVE


def cmd_lsc_leq(args) -> int:
    return _relation(args, lsc.leq)


def cmd_lsc_wb(args) -> int:
    return _relation(args, lsc.way_below)


def cmd_lsc_complement(args) -> int:
    sp = _space_of(args)
    inst = _instance_of(args, ("y", "z"))
    y = lsc.element_from_json(sp, _field(inst, "y"), "$.y")
    z = lsc.element_from_json(sp, _field(inst, "z"), "$.z")
    try:
        c = lsc.almost_complement(y, z)
    except ValueError as exc:
        raise InputError("$.y", str(exc))
    _emit({"result": lsc.element_to_json(c)})
    return EXIT_OK


def cmd_lsc_ordered_sum(args) -> int:
    model = models.LscModel(_space_of(args))
    inst = _instance_of(args)
    if "ys" in inst:
        xs = _parse_elements(model, _field(inst, "xs"), "$.xs")
        ys = _parse_elements(model, inst["ys"], "$.ys")
        try:
            out = lsc.ordered_sum_pairwise(xs, ys)
        except ValueError as exc:
            raise InputError("$.xs", str(exc))
    else:
        terms = _parse_elements(model, _field(inst, "terms"), "$.terms")
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
    _emit({
        "chainable": chainable,
        "almost_chainable": chains.decide_almost_chainable(sp),
        "piecewise_chainable": chains.decide_almost_chainable(sp),
    })
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


def _emit_verdict(verdict: checks.PropertyVerdict) -> int:
    _emit(checks.verdict_to_json(verdict))
    return _verdict_exit(verdict)


def cmd_check_refinable_sums(args) -> int:
    model = _model_of(args)
    inst = _instance_of(args)
    xs = _parse_elements(model, _field(inst, "xs"), "$.xs")
    xps = _parse_elements(model, _field(inst, "xps"), "$.xps")
    verdict = checks.check_refinable_sums(model, xs, xps, bounds=_bounds_of(args))
    return _emit_verdict(verdict)


def cmd_check_almost_ordered(args) -> int:
    model = _model_of(args)
    inst = _instance_of(args)
    xs = _parse_elements(model, _field(inst, "xs"), "$.xs")
    verdict = checks.check_almost_ordered_sums(model, xs, bounds=_bounds_of(args))
    return _emit_verdict(verdict)


def cmd_check_weak_chain(args) -> int:
    sp = _space_of(args)
    inst = _instance_of(args)
    x = lsc.element_from_json(sp, _field(inst, "x"), "$.x")
    y = lsc.element_from_json(sp, _field(inst, "y"), "$.y")
    ys = _parse_elements(models.LscModel(sp), _field(inst, "ys"), "$.ys")
    verdict = checks.check_weak_chainability(sp, x, y, ys, bounds=_bounds_of(args))
    return _emit_verdict(verdict)


def cmd_check_axioms(args) -> int:
    selector = getattr(args, "model", None)
    if not selector:
        raise InputError("$.model", "axioms need --model table:FILE")
    model = models.load_model(selector)
    if model.kind != "table":
        raise InputError("$.model", "axioms run on finite table models only")
    report = checks.check_axioms(model)
    _emit({"report": report})
    bad = [k for k, v in report.items() if v["status"] == "fail"]
    return EXIT_NEGATIVE if bad else EXIT_OK


# --------------------------------------------------------------- verify


def cmd_verify_lemmas(args) -> int:
    if args.merge:
        reports = [_load_json_file(p, "report") for p in args.merge]
        merged = suite.merge_reports(reports)
        _emit(merged)
        return EXIT_OK if not merged["failures"] else EXIT_NEGATIVE
    if args.shard:
        try:
            idx, total = args.shard.split("/", 1)
            names = suite.shard_names(int(idx), int(total))
        except ValueError as exc:
            raise InputError("$.shard", f"expected I/N with integers: {exc}")
    elif args.check:
        names = list(args.check)
    else:
        names = None
    mutate = tuple(args.mutate or ())
    report = suite.run_suite(seed=args.seed, cases=args.cases, names=names, mutate=mutate)
    _emit(report)
    return EXIT_OK if not report["failures"] else EXIT_NEGATIVE


# --------------------------------------------------------------- parser


def _add_space_opt(p, required=False):
    p.add_argument("-s", "--space", metavar="FILE", required=required,
                   help="space description JSON file")


def _add_instance_opt(p):
    p.add_argument("--instance", metavar="FILE", required=True,
                   help="instance JSON file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cuntzkit",
        description="exact computations with lower semicontinuous N-valued functions "
                    "on one-dimensional spaces, chain covers, and ordered monoid checks")
    groups = parser.add_subparsers(dest="group", required=True, metavar="GROUP")

    sp = groups.add_parser("space", help="space descriptor utilities")
    sub = sp.add_subparsers(dest="cmd", required=True, metavar="CMD")
    q = sub.add_parser("validate", help="parse, normalize and echo a space file")
    _add_space_opt(q, required=True)
    q.set_defaults(fn=cmd_space_validate)

    el = groups.add_parser("lsc", help="pointwise and order operations on elements")
    sub = el.add_subparsers(dest="cmd", required=True, metavar="CMD")
    for name, fn, arity, blurb in (
        ("eval", cmd_lsc_eval, 1, "evaluate an element at grid or given points"),
        ("add", cmd_lsc_add, 2, "pointwise sum of two elements"),
        ("join", cmd_lsc_join, 2, "pointwise maximum"),
        ("meet", cmd_lsc_meet, 2, "pointwise minimum"),
        ("leq", cmd_lsc_leq, 2, "pointwise order test"),
        ("wb", cmd_lsc_wb, 2, "way-below test"),
        ("complement", cmd_lsc_complement, 2, "largest x with y + x <= z, for bounded y <= z"),
        ("ordered-sum", cmd_lsc_ordered_sum, 0, "merge two decreasing indicator sums, or refold one list"),
        ("decompose", cmd_lsc_decompose, 0, "split a bounded element into n pieces summing below it"),
    ):
        q = sub.add_parser(name, help=blurb)
        _add_space_opt(q, required=True)
        q.add_argument("--instance", metavar="FILE",
                       help="instance JSON file (alternative to positional element files)")
        if arity:
            q.add_argument("files", nargs="*", metavar="FILE",
                           help=f"{arity} element JSON file(s) instead of --instance")
        q.set_defaults(fn=fn)

    ch = groups.add_parser("chains", help="chain covers of open sets")
    sub = ch.add_subparsers(dest="cmd", required=True, metavar="CMD")
    for name, fn, blurb in (
        ("epsilon-chain", cmd_chains_epsilon_chain, "build a chain cover of mesh below eps"),
        ("refine", cmd_chains_refine, "refine a cover to an almost chain of the target"),
        ("decide", cmd_chains_decide, "decide chainability of a target open set"),
        ("lebesgue", cmd_chains_lebesgue, "Lebesgue number of a cover of its union"),
        ("verify", cmd_chains_verify, "check a chain witness against target and cover"),
    ):
        q = sub.add_parser(name, help=blurb)
        _add_space_opt(q, required=True)
        _add_instance_opt(q)
        q.set_defaults(fn=fn)

    ck = groups.add_parser("check", help="decision procedures with certificates")
    sub = ck.add_subparsers(dest="cmd", required=True, metavar="CMD")
    for name, fn, needs_model in (
        ("refinable-sums", cmd_check_refinable_sums, True),
        ("almost-ordered", cmd_check_almost_ordered, True),
        ("weak-chain", cmd_check_weak_chain, False),
        ("axioms", cmd_check_axioms, True),
    ):
        q = sub.add_parser(name, help=f"run the {name.replace('-', ' ')} check")
        _add_space_opt(q)
        if needs_model:
            q.add_argument("--model", metavar="NAME",
                           help="element model: lsc, z, zprime, nbar, or table:FILE")
        if name != "axioms":
            _add_instance_opt(q)
            q.add_argument("--depth", type=int, metavar="N",
                           help="search depth (default 3)")
        q.set_defaults(fn=fn)

    vf = groups.add_parser("verify", help="randomized law suite")
    sub = vf.add_subparsers(dest="cmd", required=True, metavar="CMD")
    q = sub.add_parser("lemmas", help="run the seeded law checks")
    q.add_argument("--seed", type=int, default=42)
    q.add_argument("--cases", type=int, default=100)
    q.add_argument("--check", action="append", metavar="NAME",
                   help="run only this check (repeatable)")
    q.add_argument("--shard", metavar="I/N",
                   help="run shard I of N by round robin over check names")
    q.add_argument("--mutate", action="append", metavar="NAME",
                   help="enable a deliberate fault to confirm the suite catches it")
    q.add_argument("--merge", nargs="+", metavar="FILE",
                   help="merge shard reports instead of running")
    q.set_defaults(fn=cmd_verify_lemmas)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None or code == 0:
            return EXIT_OK
        return EXIT_USAGE
    try:
        return args.fn(args)
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
