"""Record the bytes of the benchmark's CLI mixes at seeds 7 and 3, of
one seeded call of each verb those mixes leave out, of two inconclusive
verdicts, of the law suite's 1,000-case report and its 100-case report
whole, in three shards and merged, and of one input error of each
reader of input files.

Usage: python tests/pin_golden.py

Builds `workloads.cli_calls` at each seed in a temporary directory, runs
each call in process through `cuntzkit.cli.main`, and writes its exit
code and the sha256 of its stdout and of its stderr to tests/golden.json,
which tests/test_cli.py checks; the stderr is hashed with the call's
input directory written as "{dir}". The other verbs' calls and the law
suite's go under "verbs" and the input errors under "errors", each with
its argv and input files, so that the test runs them without drawing
them again; the merge reads the three shard reports as its files. A
file given as a string is written as that text, else as its JSON. This
script is the file's only writer. Run it only at a commit whose outputs
are meant to be the reference: a change that claims no output change
runs it only to add cases or fields, and checks that no recorded exit
code or digest moved; one that changes an output on purpose names each
moved call.
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


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def capture(argv: list) -> tuple:
    """The exit code, stdout and stderr of one call run in process."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


def run(argv: list, d: str) -> dict:
    """The pins of one call whose input files are in the directory d."""
    code, out, err = capture(argv)
    return {"exit": code, "stdout_sha256": sha256(out), "stderr_sha256": sha256(err.replace(d, DIR))}


def pins(seed: int) -> dict:
    with tempfile.TemporaryDirectory() as d:
        return {call.name: run(list(call.argv), d) for call in workloads.cli_calls(seed, pathlib.Path(d))}


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
    # Two inconclusive verdicts, which echo the search limits: one with
    # --depth and one at the default depth.
    calls["check-refinable-sums-inconclusive"] = (
        ["check", "refinable-sums", "--model", "nbar", "--instance", f"{DIR}/window.json", "--depth", "5"],
        {"window.json": {"xs": ["100", "200"], "xps": ["2", "4"]}})
    calls["check-almost-ordered-inconclusive"] = (
        ["check", "almost-ordered", "--model", "zprime", "--instance", f"{DIR}/soft.json"],
        {"soft.json": {"xs": ["1''", "1'"]}})
    names = ["0", "1", "2"]
    table = {"elements": names, "le": [[int(i <= j) for j in range(3)] for i in range(3)],
             "add": [[names[min(i + j, 2)] for j in range(3)] for i in range(3)], "unit": "1"}
    calls["check-axioms"] = (["check", "axioms", "--model", f"table:{DIR}/table.json"], {"table.json": table})
    return calls


def lemma_calls() -> dict:
    """{name: (argv, files)} for `verify lemmas --seed 42 --cases 100`,
    its three shards, the merge of the three shard reports, which are
    that call's input files, and the 1,000-case report, the one run of
    the point-probing laws past their 100th case."""
    argv = ["verify", "lemmas", "--seed", "42", "--cases", "100"]
    calls, reports = {"verify-lemmas-100": (argv, {}), "verify-lemmas-1000": (argv[:-1] + ["1000"], {})}, {}
    for i in range(3):
        shard = argv + ["--shard", f"{i}/3"]
        calls[f"verify-lemmas-100-shard-{i}"] = (shard, {})
        reports[f"shard-{i}.json"] = capture(shard)[1]
    calls["verify-lemmas-100-merge"] = (["verify", "lemmas", "--merge", *[f"{DIR}/{f}" for f in reports]], reports)
    return calls


def error_calls() -> dict:
    """{name: (argv, files)} for one input error of each reader of input
    files, every one exit 2 with nothing on stdout."""
    arc = {"components": [{"kind": "arc", "length": "1"}]}
    s = f"{DIR}/space.json"
    half = {"sets": [[["0", "1/2", True, False]]], "full_flags": [False]}
    element = {"levels": [half], "infinity": {"sets": [[]], "full_flags": [False]}}

    def on_arc(verb, instance):
        group, name = verb.split()
        return [group, name, "-s", s, "--instance", f"{DIR}/{name}.json"], {"space.json": arc, f"{name}.json": instance}

    return {
        "load-json-unreadable": (["space", "validate", "-s", f"{DIR}/missing.json"], {}),
        "load-json-not-json": (["space", "validate", "-s", s], {"space.json": "not json\n"}),
        "space-from-json": (["space", "validate", "-s", s], {"space.json": {"components": [{"kind": "disk"}]}}),
        "open-set-from-json": on_arc("chains decide", {"target": {"sets": [[["0", "2", True, False]]],
                                                                  "full_flags": [False]}}),
        "element-from-json": on_arc("lsc add", {"a": element, "b": {"levels": [half, element["infinity"], half]}}),
        "witness-from-json": on_arc("chains verify", {"witness": {"kind": "chain"}, "target": half,
                                                      "cover": {"pieces": [half]}}),
        "cover-from-json": on_arc("chains lebesgue", {"cover": {"pieces": "all"}}),
        "table-from-json": (["check", "axioms", "--model", f"table:{DIR}/table.json"],
                            {"table.json": {"elements": ["0", "1"], "le": [[1]]}}),
        "rational-model-parse": (["check", "refinable-sums", "--model", "z", "--instance", f"{DIR}/sums.json"],
                                 {"sums.json": {"xs": ["1", "1/2"], "xps": ["1"]}}),
        "merge-reports": (["verify", "lemmas", "--merge", f"{DIR}/report.json"], {"report.json": {"seed": 42}}),
    }


def write_files(d: pathlib.Path, argv: list, files: dict) -> list:
    """Write each input file into d; return argv with DIR read as d."""
    for name, obj in files.items():
        (d / name).write_text(obj if isinstance(obj, str) else json.dumps(obj, sort_keys=True))
    return [w.replace(DIR, str(d)) for w in argv]


def file_pins(calls: dict) -> dict:
    out = {}
    for name, (argv, files) in calls.items():
        with tempfile.TemporaryDirectory() as d:
            out[name] = {"argv": argv, "files": files, **run(write_files(pathlib.Path(d), argv, files), d)}
    return out


def main() -> None:
    golden = {**{str(seed): pins(seed) for seed in SEEDS}, "verbs": file_pins({**verb_calls(), **lemma_calls()}),
              "errors": file_pins(error_calls())}
    with open(ROOT / "tests" / "golden.json", "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
