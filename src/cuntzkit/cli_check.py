"""The handlers of the `check` verbs of the `cuntzkit` command (`cli`),
loaded when one of them is dispatched."""

from __future__ import annotations

import functools

from . import chains, checks, lsc, models
from .base import InputError
from .cli import (
    EXIT_INCONCLUSIVE, EXIT_NEGATIVE, EXIT_OK, _emit, _field, _instance_of, _operands, _parse_elements, _space_of,
)


def _depth_of(args) -> int:
    if args.depth is None:
        return checks.DEPTH
    if args.depth < 0:
        raise InputError("$.depth", "depth must be nonnegative")
    return args.depth


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
    return _emit_verdict(checks.check_refinable_sums(model, xs, xps, _depth_of(args)))


def cmd_check_almost_ordered(args) -> int:
    model, _, xs = _sum_terms(args)
    return _emit_verdict(checks.check_almost_ordered_sums(model, xs, _depth_of(args)))


def cmd_check_weak_chain(args) -> int:
    sp, inst, (x, y) = _operands(args)
    ys = _parse_elements(functools.partial(lsc.element_from_json, sp), _field(inst, "ys"), "$.ys")
    try:
        verdict = checks.check_weak_chainability(sp, x, y, ys, _depth_of(args))
    except chains.ChainTooLargeError as exc:
        # The cover of the ys' supports overlaps by too thin a margin to chain.
        raise InputError("$.ys", str(exc))
    return _emit_verdict(verdict)


def cmd_check_axioms(args) -> int:
    if not args.model.startswith("table:"):
        raise InputError("$.model", "axioms run on finite table models only")
    report = checks.check_axioms(models.load_model(args.model))
    _emit({"report": report})
    return EXIT_NEGATIVE if any(v["status"] == "fail" for v in report.values()) else EXIT_OK
