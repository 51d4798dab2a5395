"""The handlers of the `chains` verbs of the `cuntzkit` command (`cli`),
loaded when one of them is dispatched."""

from __future__ import annotations

from . import chains
from . import geometry as geo
from .base import InputError
from .cli import EXIT_NEGATIVE, EXIT_OK, _emit, _field, _instance_of, _space_of


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
