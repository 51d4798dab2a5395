"""The handler of `verify lemmas`, the `verify` verb of the `cuntzkit`
command (`cli`), loaded when it is dispatched."""

from __future__ import annotations

from . import suite
from .base import InputError, load_json
from .cli import EXIT_NEGATIVE, EXIT_OK, _emit


def cmd_verify_lemmas(args) -> int:
    if args.merge:
        report = suite.merge_reports([load_json(p, "report") for p in args.merge])
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
