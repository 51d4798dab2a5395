"""Record the bytes of the benchmark's CLI mixes at seeds 7 and 3, and of
one seeded call of each verb those mixes leave out.

Usage: python tests/pin_golden.py

Builds `workloads.cli_calls` at each seed in a temporary directory, runs
each call in process through `cuntzkit.cli.main`, and writes its exit
code and the sha256 of its stdout to tests/golden.json, which
tests/test_cli.py checks. The other verbs' calls go under "verbs" with
their argv and input files, so that the test runs them without drawing
them again. This script is the file's only writer. Run it only at a
commit whose outputs are meant to be the reference: a change that claims
no output change does not run it, and one that changes an output on
purpose names each moved call.
"""

import contextlib
import hashlib
import io
import json
import pathlib
import random
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

import workloads  # noqa: E402  (puts this checkout's src/ first on the path)
import oracles  # noqa: E402
from cuntzkit import chains, cli, gen, lsc  # noqa: E402
from cuntzkit import geometry as geo  # noqa: E402

SEEDS = (7, 3)
# A file argument of a "verbs" call names its input as DIR/name.
DIR = "{dir}"


def run(argv: list) -> dict:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return {"exit": code, "stdout_sha256": hashlib.sha256(stdout.getvalue().encode()).hexdigest()}


def pins(seed: int) -> dict:
    with tempfile.TemporaryDirectory() as d:
        return {call.name: run(list(call.argv)) for call in workloads.cli_calls(seed, pathlib.Path(d))}


def _space(rng: random.Random):
    """A space of two or three components."""
    while True:
        sp = gen.rand_space(rng, max_components=3)
        if len(sp.components) >= 2:
            return sp


def verb_calls() -> dict:
    """{name: (argv, files)} for one seeded call of each verb the mixes
    leave out. The lsc and chains calls run on spaces of two or three
    components, where sets are whole or empty on some components and
    not on others."""
    rng = random.Random("cuntzkit-golden-verbs")
    ej = lsc.element_to_json
    sp = _space(rng)
    space = {"space.json": geo.space_to_json(sp)}
    s = f"{DIR}/space.json"
    calls = {"space-validate": (["space", "validate", "-s", s], space)}
    f = gen.rand_lsc(rng, sp)
    points = [[ci, None if c.kind == "point" else str(c.length * rng.randint(0, 8) / 8)]
              for ci, c in enumerate(sp.components) for _ in range(2)]
    calls["lsc-eval"] = (["lsc", "eval", "-s", s, "--instance", f"{DIR}/eval.json"],
                         {**space, "eval.json": {"element": ej(f)}})
    calls["lsc-eval-points"] = (["lsc", "eval", "-s", s, "--instance", f"{DIR}/eval.json"],
                                {**space, "eval.json": {"element": ej(f), "points": points}})
    for verb in ("join", "meet"):
        a, b = gen.rand_lsc(rng, sp), gen.rand_lsc(rng, sp)
        calls[f"lsc-{verb}"] = (["lsc", verb, "-s", s, "--instance", f"{DIR}/{verb}.json"],
                                {**space, f"{verb}.json": {"a": ej(a), "b": ej(b)}})
    y = gen.rand_bounded_lsc(rng, sp)
    calls["lsc-decompose"] = (["lsc", "decompose", "-s", s, "--instance", f"{DIR}/decompose.json"],
                              {**space, "decompose.json": {"element": ej(y), "n": len(y.levels) + 1}})
    sp = _space(rng)
    space = {"space.json": geo.space_to_json(sp)}
    target = gen.rand_nonempty_open_set(rng, sp, max_intervals=3)
    cover = chains.make_cover(oracles.rand_cover_pieces(rng, sp, target))
    calls["chains-refine"] = (["chains", "refine", "-s", s, "--instance", f"{DIR}/refine.json"], {
        **space, "refine.json": {"target": geo.set_to_json(target), "cover": chains.cover_to_json(cover)}})
    target = gen.rand_connected_target(rng, sp, allow_full_circle=True)
    calls["chains-decide"] = (["chains", "decide", "-s", s, "--instance", f"{DIR}/decide.json"],
                              {**space, "decide.json": {"target": geo.set_to_json(target)}})
    # The twin of the CI workflow's depth-6 call.
    calls["check-almost-ordered"] = (
        ["check", "almost-ordered", "--model", "zprime", "--instance", f"{DIR}/twin.json", "--depth", "6"],
        {"twin.json": {"xs": ["1", "1''"]}})
    names = ["0", "1", "2"]
    table = {"elements": names, "le": [[int(i <= j) for j in range(3)] for i in range(3)],
             "add": [[names[min(i + j, 2)] for j in range(3)] for i in range(3)], "unit": "1"}
    calls["check-axioms"] = (["check", "axioms", "--model", f"table:{DIR}/table.json"], {"table.json": table})
    return calls


def write_files(d: pathlib.Path, argv: list, files: dict) -> list:
    """Write each input file into d; return argv with DIR read as d."""
    for name, obj in files.items():
        (d / name).write_text(json.dumps(obj, sort_keys=True))
    return [w.replace(DIR, str(d)) for w in argv]


def verb_pins() -> dict:
    out = {}
    for name, (argv, files) in verb_calls().items():
        with tempfile.TemporaryDirectory() as d:
            out[name] = {"argv": argv, "files": files, **run(write_files(pathlib.Path(d), argv, files))}
    return out


def main() -> None:
    golden = {**{str(seed): pins(seed) for seed in SEEDS}, "verbs": verb_pins()}
    with open(ROOT / "tests" / "golden.json", "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
