"""The handlers of the `lsc` verbs of the `cuntzkit` command (`cli`),
loaded when one of them is dispatched."""

from __future__ import annotations

import functools
import math

from . import lsc, views
from .base import InputError, frac_from_str, frac_to_str
from .cli import EXIT_NEGATIVE, EXIT_OK, _emit, _field, _instance_of, _operands, _parse_elements, _space_of


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
            p = None if entry[1] is None else frac_from_str(entry[1], f"{here}[1]")
            pts.append((ci, p))
    else:
        top = lsc.level(f, max(1, lsc.num_levels(f)))
        pts = [(ci, p) for ci, p, _ in views.probe_points(sp, (lsc.supp(f), top))]
    values = []
    for i, (ci, p) in enumerate(pts):
        try:
            v = lsc.eval_at(f, ci, p)
        except ValueError as exc:  # the component index is checked above
            raise InputError(f"$.points[{i}][1]", str(exc))
        values.append({
            "component": ci,
            "point": None if p is None else frac_to_str(p),
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
