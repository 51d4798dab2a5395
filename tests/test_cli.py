"""End to end tests of the command line front end: exit codes, JSON output,
and the error channel."""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import random
import subprocess
import sys
import time

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import cuntzkit
import oracles
from cuntzkit import chains, checks, cli, gen, suite
from cuntzkit import geometry as geo
from cuntzkit import lsc, views


ARC = geo.space(geo.arc(1))
CIRCLE = geo.space(geo.circle(1))


def chi(*ivs, sp=ARC):
    return lsc.indicator(geo.normalize(sp, [list(ivs)]))


def write_json(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


@pytest.fixture
def arc_file(tmp_path):
    return write_json(tmp_path, "arc.json", geo.space_to_json(ARC))


@pytest.fixture
def circle_file(tmp_path):
    return write_json(tmp_path, "circle.json", geo.space_to_json(CIRCLE))


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_space_validate(capsys, arc_file):
    code, out, err = run(capsys, ["space", "validate", "-s", arc_file])
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["space"]["components"][0]["kind"] == "arc"


def test_missing_space_file(capsys, tmp_path):
    code, out, err = run(capsys, ["space", "validate", "-s", str(tmp_path / "nope.json")])
    assert code == 2
    assert "error:" in err and "nope.json" in err


def test_unparsable_instance_file(capsys, arc_file, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out, err = run(capsys, ["lsc", "add", "-s", arc_file, "--instance", str(bad)])
    assert code == 2
    assert "not valid JSON" in err


def test_usage_error_is_exit_2(capsys, arc_file):
    assert cli.main(["no-such-group"]) == 2
    capsys.readouterr()
    assert cli.main(["lsc"]) == 2
    capsys.readouterr()
    # Output is always JSON, and no verb takes a flag that says so.
    assert cli.main(["space", "validate", "-s", arc_file, "--json"]) == 2
    capsys.readouterr()


def test_help_is_exit_0(capsys):
    assert cli.main(["--help"]) == 0
    capsys.readouterr()


def test_lsc_add_and_eval(capsys, arc_file, tmp_path):
    a = chi((0, F(1, 2), True, False))
    b = chi((0, F(3, 4), True, False))
    inst = write_json(tmp_path, "pair.json", {"a": lsc.element_to_json(a), "b": lsc.element_to_json(b)})
    code, out, _ = run(capsys, ["lsc", "add", "-s", arc_file, "--instance", inst])
    assert code == 0
    summed = lsc.element_from_json(ARC, json.loads(out)["result"])
    ev = write_json(tmp_path, "ev.json", {
        "element": lsc.element_to_json(summed),
        "points": [[0, "1/4"], [0, "5/8"], [0, "7/8"]],
    })
    code, out, _ = run(capsys, ["lsc", "eval", "-s", arc_file, "--instance", ev])
    assert code == 0
    vals = [row["value"] for row in json.loads(out)["values"]]
    assert vals == [2, 1, 0]


def test_lsc_eval_default_grid(capsys, arc_file, tmp_path):
    f = chi((F(1, 4), F(3, 4), False, False))
    ev = write_json(tmp_path, "ev.json", {"element": lsc.element_to_json(f)})
    code, out, _ = run(capsys, ["lsc", "eval", "-s", arc_file, "--instance", ev])
    assert code == 0
    rows = json.loads(out)["values"]
    assert {r["point"] for r in rows} >= {"0/1", "1/1", "1/2"}


def test_lsc_eval_infinite_value(capsys, arc_file, tmp_path):
    inf_part = geo.normalize(ARC, [((F(0), F(1, 4), True, False),)])
    f = lsc.from_levels(ARC, [geo.normalize(ARC, [((F(0), F(1, 2), True, False),)])], infinity=inf_part)
    ev = write_json(tmp_path, "ev.json", {"element": lsc.element_to_json(f), "points": [[0, "1/8"]]})
    code, out, _ = run(capsys, ["lsc", "eval", "-s", arc_file, "--instance", ev])
    assert code == 0
    assert json.loads(out)["values"][0]["value"] == "inf"


def test_lsc_leq_exit_codes(capsys, arc_file, tmp_path):
    a = chi((0, F(1, 2), True, False))
    b = chi((0, F(3, 4), True, False))
    fwd = write_json(tmp_path, "f.json", {"a": lsc.element_to_json(a), "b": lsc.element_to_json(b)})
    rev = write_json(tmp_path, "r.json", {"a": lsc.element_to_json(b), "b": lsc.element_to_json(a)})
    code, out, _ = run(capsys, ["lsc", "leq", "-s", arc_file, "--instance", fwd])
    assert code == 0 and json.loads(out)["holds"] is True
    code, out, _ = run(capsys, ["lsc", "leq", "-s", arc_file, "--instance", rev])
    assert code == 1 and json.loads(out)["holds"] is False


@pytest.mark.parametrize("verb, keys", [
    ("eval", ("element",)),
    ("add", ("a", "b")),
    ("join", ("a", "b")),
    ("meet", ("a", "b")),
    ("leq", ("a", "b")),
    ("wb", ("a", "b")),
    ("complement", ("y", "z")),
])
def test_positional_element_files_match_the_instance_file(capsys, arc_file, tmp_path, verb, keys):
    # The README form `cuntzkit lsc add -s space.json f.json g.json`: one
    # element file per instance field, in the order the fields are named.
    half, e = chi((0, F(1, 2), True, False)), lsc.unit(ARC)
    pairs = [(half, e), (e, half)] if keys == ("a", "b") else [(half, lsc.add(e, half))]
    for elems in pairs:
        objs = {k: lsc.element_to_json(f) for k, f in zip(keys, elems)}
        files = [write_json(tmp_path, f"{k}.json", obj) for k, obj in objs.items()]
        inst = write_json(tmp_path, "inst.json", objs)
        want = run(capsys, ["lsc", verb, "-s", arc_file, "--instance", inst])
        assert want[0] in (0, 1) and want[1], want
        assert run(capsys, ["lsc", verb, "-s", arc_file, *files]) == want


def test_positional_files_need_the_right_count_and_no_instance(capsys, arc_file, tmp_path):
    e = lsc.element_to_json(lsc.unit(ARC))
    f = write_json(tmp_path, "f.json", e)
    inst = write_json(tmp_path, "inst.json", {"a": e, "b": e})
    for argv, reason in (
        ([f], "this command takes 2 positional files: A B"),
        ([f, f, f], "this command takes 2 positional files: A B"),
        (["--instance", inst, f, f], "give either --instance or positional files, not both"),
    ):
        assert run(capsys, ["lsc", "add", "-s", arc_file, *argv]) == (2, "", f"error: $: {reason}\n")


def run_process(argv):
    """Run the CLI as its own process, so a crash shows as a crash."""
    src = str(pathlib.Path(cuntzkit.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-m", "cuntzkit.cli", *argv],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": src},
    )


def test_non_list_sets_entry_is_exit_2(arc_file, tmp_path):
    # Run as a process: a crash would exit 1, the counterexample code.
    b = lsc.element_to_json(chi((0, F(1, 2), True, False)))
    inst = write_json(tmp_path, "i.json", {"a": {"levels": [{"sets": [5]}]}, "b": b})
    proc = run_process(["lsc", "leq", "-s", arc_file, "--instance", inst])
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "$.a.levels[0].sets[0]" in proc.stderr


def test_boolean_length_is_exit_2(tmp_path):
    # JSON true is a Python int; it must not read as the length 1.
    sp = write_json(tmp_path, "s.json", {"components": [{"kind": "arc", "length": True}]})
    proc = run_process(["space", "validate", "-s", sp])
    assert proc.returncode == 2, proc.stdout
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: $.components[0].length: ")


def test_boolean_component_index_is_exit_2(capsys, arc_file, tmp_path):
    f = chi((0, F(1, 2), True, False))
    ev = write_json(tmp_path, "ev.json", {"element": lsc.element_to_json(f), "points": [[False, "1/4"]]})
    code, _, err = run(capsys, ["lsc", "eval", "-s", arc_file, "--instance", ev])
    assert code == 2 and "$.points[0][0]" in err


def test_missing_coordinate_on_an_arc_or_circle_is_exit_2(capsys, arc_file, circle_file, tmp_path):
    for sp, space_file in ((ARC, arc_file), (CIRCLE, circle_file)):
        f = chi((0, F(1, 2)), sp=sp)
        ev = write_json(tmp_path, "ev.json", {"element": lsc.element_to_json(f), "points": [[0, None]]})
        code, out, err = run(capsys, ["lsc", "eval", "-s", space_file, "--instance", ev])
        assert code == 2 and out == "", err
        assert err.startswith("error: $.points[0][1]: ")


def test_bad_coordinate_names_its_entry(capsys, tmp_path):
    sp = geo.space(geo.point(), geo.arc(1))
    space_file = write_json(tmp_path, "pa.json", geo.space_to_json(sp))
    f = lsc.indicator(geo.full_set(sp))
    for points, where, why in (
        ([[1, "1/4"], [0, "1/2"]], "$.points[1][1]", "point components have no coordinate"),
        ([[1, "3"]], "$.points[0][1]", "point outside the space"),
    ):
        ev = write_json(tmp_path, "ev.json", {"element": lsc.element_to_json(f), "points": points})
        code, out, err = run(capsys, ["lsc", "eval", "-s", space_file, "--instance", ev])
        assert code == 2 and out == ""
        assert err == f"error: {where}: {why}\n"


def test_boolean_decompose_count_is_exit_2(capsys, arc_file, tmp_path):
    f = chi((0, F(1, 2), True, False))
    bad = write_json(tmp_path, "bad.json", {"element": lsc.element_to_json(f), "n": True})
    code, _, err = run(capsys, ["lsc", "decompose", "-s", arc_file, "--instance", bad])
    assert code == 2 and "$.n" in err


def test_boolean_refines_index_is_exit_2(capsys, arc_file, tmp_path):
    piece = geo.set_to_json(geo.normalize(ARC, [((F(0), F(1), True, True),)]))
    witness = {"kind": "chain", "pieces": [piece], "mesh": "1/1", "refines": [False]}
    ver = write_json(tmp_path, "v.json", {
        "witness": witness,
        "target": full_arc_target(),
        "cover": {"pieces": [piece]},
    })
    code, _, err = run(capsys, ["chains", "verify", "-s", arc_file, "--instance", ver])
    assert code == 2 and "$.witness.refines" in err


def test_backwards_interval_error_names_its_sets_path(arc_file, tmp_path):
    b = lsc.element_to_json(chi((0, F(1, 2), True, False)))
    bad = {"levels": [{"sets": [[["1", "1/2", False, False]]], "full_flags": [False]}]}
    inst = write_json(tmp_path, "i.json", {"a": bad, "b": b})
    proc = run_process(["lsc", "leq", "-s", arc_file, "--instance", inst])
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr == "error: $.a.levels[0].sets[0][0]: interval needs a < b\n"


def test_string_false_flag_is_exit_2(capsys, circle_file, tmp_path):
    # bool("false") is True: read that way, this flag made a the whole
    # circle and the call answered "holds": false with exit 1.
    a = write_json(tmp_path, "a.json", {"levels": [{"sets": [[]], "full_flags": ["false"]}], "infinity": None})
    b = write_json(tmp_path, "b.json", lsc.element_to_json(chi((0, F(1, 2)), sp=CIRCLE)))
    code, out, err = run(capsys, ["lsc", "leq", "-s", circle_file, a, b])
    assert (code, out, err) == (2, "", "error: $.a.levels[0].full_flags[0]: expected true or false\n")


@pytest.mark.parametrize("sets, flags, path", [
    ([[], [], []], ["true", False, False], "full_flags[0]"),
    ([[], [], []], [False, 1, False], "full_flags[1]"),
    ([[], [], []], [False, False, 0], "full_flags[2]"),
    ([[], [], []], [False, False, None], "full_flags[2]"),
    ([[["0", "1/2", 1, False]], [], []], [False, False, False], "sets[0][0][2]"),
    ([[], [["0", "1/2", False, "false"]], []], [False, False, False], "sets[1][0][3]"),
], ids=["circle-string", "arc-int", "point-zero", "point-null", "arc-incl-int", "circle-incl-string"])
def test_set_flags_must_be_json_booleans(capsys, tmp_path, sets, flags, path):
    sp = geo.space(geo.circle(1), geo.arc(1), geo.point())
    space = write_json(tmp_path, "sp.json", geo.space_to_json(sp))
    a = write_json(tmp_path, "a.json", {"levels": [{"sets": sets, "full_flags": flags}], "infinity": None})
    code, out, err = run(capsys, ["lsc", "eval", "-s", space, a])
    assert (code, out, err) == (2, "", f"error: $.element.levels[0].{path}: expected true or false\n")


@pytest.mark.parametrize("entry", [2, -1, "1", "true", 1.0, 0.5, None, [1]])
def test_table_order_entries_are_0_1_false_or_true(capsys, tmp_path, entry):
    le = [[1, True], [False, 0]]
    le[1][1] = entry
    table = {"elements": ["0", "1"], "le": le, "add": [["0", "1"], ["1", "1"]]}
    path = write_json(tmp_path, "t.json", table)
    code, out, err = run(capsys, ["check", "axioms", "--model", f"table:{path}"])
    assert (code, out, err) == (2, "", "error: $.le[1][1]: expected 0, 1, false or true\n")


@pytest.mark.parametrize("eps", ["0", "-1/2"])
def test_epsilon_chain_nonpositive_eps_is_exit_2_at_eps(arc_file, tmp_path, eps):
    inst = write_json(tmp_path, "c.json", {"target": full_arc_target(), "eps": eps})
    proc = run_process(["chains", "epsilon-chain", "-s", arc_file, "--instance", inst])
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr == "error: $.eps: eps must be positive\n"


def test_internal_error_is_exit_4(capsys, arc_file, monkeypatch):
    def broken(args):
        raise RuntimeError("handler broke\nmid message")

    monkeypatch.setattr(cli, "cmd_space_validate", broken)
    code, out, err = run(capsys, ["space", "validate", "-s", arc_file])
    assert code == cli.EXIT_INTERNAL == 4
    assert out == ""
    assert err == "internal error: RuntimeError: handler broke mid message\n"


def test_lsc_wb_exit_codes(capsys, arc_file, tmp_path):
    a = chi((0, F(1, 2), True, False))
    b = chi((0, F(3, 4), True, False))
    open_pair = write_json(tmp_path, "o.json", {
        "a": lsc.element_to_json(chi((F(1, 4), F(1, 2), False, False))),
        "b": lsc.element_to_json(chi((F(1, 4), F(1, 2), False, False))),
    })
    good = write_json(tmp_path, "g.json", {"a": lsc.element_to_json(a), "b": lsc.element_to_json(b)})
    assert run(capsys, ["lsc", "wb", "-s", arc_file, "--instance", good])[0] == 0
    # an open interval is not way below itself: its closure pokes out
    assert run(capsys, ["lsc", "wb", "-s", arc_file, "--instance", open_pair])[0] == 1


def test_lsc_complement_and_precondition(capsys, arc_file, tmp_path):
    y = chi((0, F(1, 2), True, False))
    e = lsc.unit(ARC)
    ok = write_json(tmp_path, "ok.json", {"y": lsc.element_to_json(y), "z": lsc.element_to_json(e)})
    code, out, _ = run(capsys, ["lsc", "complement", "-s", arc_file, "--instance", ok])
    assert code == 0
    c = lsc.element_from_json(ARC, json.loads(out)["result"])
    assert lsc.leq(lsc.add(y, c), e)
    bad = write_json(tmp_path, "bad.json", {
        "y": lsc.element_to_json(lsc.add(e, e)),
        "z": lsc.element_to_json(e),
    })
    code, _, err = run(capsys, ["lsc", "complement", "-s", arc_file, "--instance", bad])
    assert code == 2 and "error:" in err


def test_lsc_ordered_sum_shapes(capsys, arc_file, tmp_path):
    xs = [chi((0, F(1, 2), True, False)), chi((0, F(1, 4), True, False))]
    ys = [chi((0, F(3, 4), True, False)), chi((0, F(1, 8), True, False))]
    merge = write_json(tmp_path, "m.json", {
        "xs": [lsc.element_to_json(t) for t in xs],
        "ys": [lsc.element_to_json(t) for t in ys],
    })
    code, out, _ = run(capsys, ["lsc", "ordered-sum", "-s", arc_file, "--instance", merge])
    assert code == 0
    merged = [lsc.element_from_json(ARC, o) for o in json.loads(out)["result"]]
    want = lsc.add(lsc.add(xs[0], xs[1]), lsc.add(ys[0], ys[1]))
    got = lsc.zero(ARC)
    for t in merged:
        got = lsc.add(got, t)
    assert lsc.leq(got, want) and lsc.leq(want, got)
    refold = write_json(tmp_path, "t.json", {"terms": [lsc.element_to_json(t) for t in xs]})
    assert run(capsys, ["lsc", "ordered-sum", "-s", arc_file, "--instance", refold])[0] == 0


@pytest.mark.parametrize("field", ["xs", "ys"])
def test_lsc_ordered_sum_reports_the_list_at_fault(capsys, arc_file, tmp_path, field):
    small, large = chi((0, F(1, 4), True, False)), chi((0, F(1, 2), True, False))
    good = [lsc.element_to_json(t) for t in (large, small)]
    for bad, why in (([small, large], "must be decreasing"),
                     ([lsc.add(large, small)], "must be indicator elements")):
        inst = {"xs": good, "ys": good, field: [lsc.element_to_json(t) for t in bad]}
        code, out, err = run(capsys, ["lsc", "ordered-sum", "-s", arc_file,
                                      "--instance", write_json(tmp_path, "i.json", inst)])
        assert (code, out) == (2, ""), err
        assert err.startswith(f"error: $.{field}: ") and why in err, err


@pytest.mark.parametrize("verb, field, other", [
    ("ordered-sum", "xs", "ys"),
    ("ordered-sum", "ys", "xs"),
    ("ordered-sum", "terms", None),
    ("weak-chain", "ys", None),
])
def test_element_lists_are_read_as_lists(capsys, arc_file, tmp_path, verb, field, other):
    one = lsc.element_to_json(chi((F(0), F(1, 2))))
    group = "check" if verb == "weak-chain" else "lsc"
    base = {"x": one, "y": lsc.element_to_json(lsc.unit(ARC))} if verb == "weak-chain" else {}
    if other:
        base[other] = [one]
    for bad, path in ((3, f"$.{field}"), (None, f"$.{field}"), (True, f"$.{field}"),
                      ([one, 3], f"$.{field}[1]")):
        inst = write_json(tmp_path, "i.json", {**base, field: bad})
        code, out, err = run(capsys, [group, verb, "-s", arc_file, "--instance", inst])
        assert (code, out) == (2, ""), (bad, err)
        assert err.startswith(f"error: {path}: "), (bad, err)


def test_lsc_decompose_validates_n(capsys, arc_file, tmp_path):
    f = chi((0, F(1, 2), True, False))
    bad = write_json(tmp_path, "bad.json", {"element": lsc.element_to_json(f), "n": 0})
    code, _, err = run(capsys, ["lsc", "decompose", "-s", arc_file, "--instance", bad])
    assert code == 2 and "$.n" in err


def full_arc_target():
    return geo.set_to_json(geo.normalize(ARC, [((F(0), F(1), True, True),)]))


def test_chains_epsilon_chain_arc(capsys, arc_file, tmp_path):
    inst = write_json(tmp_path, "c.json", {"target": full_arc_target(), "eps": "1/100"})
    code, out, _ = run(capsys, ["chains", "epsilon-chain", "-s", arc_file, "--instance", inst])
    assert code == 0
    payload = json.loads(out)
    assert payload["chainable"] is True
    assert F(*map(int, (payload["mesh"].split("/") + ["1"])[:2])) < F(1, 100)


def test_chains_epsilon_chain_cap(capsys, arc_file, tmp_path, monkeypatch):
    # 2 * (2000 + 1) - 1 = 4001 pieces is well inside the cap.
    inst = write_json(tmp_path, "c.json", {"target": full_arc_target(), "eps": "1/2000"})
    code, out, _ = run(capsys, ["chains", "epsilon-chain", "-s", arc_file, "--instance", inst])
    assert code == 0
    assert len(json.loads(out)["witness"]["pieces"]) == 4001
    # About 2M pieces: rejected before any piece is built.
    built = []
    monkeypatch.setattr(views, "component_set", lambda *a: built.append(a))
    inst = write_json(tmp_path, "c.json", {"target": full_arc_target(), "eps": "1/1000000"})
    code, out, err = run(capsys, ["chains", "epsilon-chain", "-s", arc_file, "--instance", inst])
    assert code == 2 and out == "" and built == []
    assert err.startswith("error: $.eps: eps 1/1000000 needs 2000001 pieces")


def test_chains_epsilon_chain_circle(capsys, circle_file, tmp_path):
    tgt = geo.set_to_json(geo.normalize(CIRCLE, ["full"]))
    inst = write_json(tmp_path, "c.json", {"target": tgt, "eps": "1/100"})
    code, out, _ = run(capsys, ["chains", "epsilon-chain", "-s", circle_file, "--instance", inst])
    assert code == 1
    assert json.loads(out)["chainable"] is False


def test_chains_decide(capsys, arc_file, circle_file, tmp_path):
    arc_inst = write_json(tmp_path, "a.json", {"target": full_arc_target()})
    code, out, _ = run(capsys, ["chains", "decide", "-s", arc_file, "--instance", arc_inst])
    assert code == 0
    payload = json.loads(out)
    assert payload == {"chainable": True, "almost_chainable": True, "piecewise_chainable": True}
    circ_inst = write_json(tmp_path, "c.json", {"target": geo.set_to_json(geo.normalize(CIRCLE, ["full"]))})
    code, out, _ = run(capsys, ["chains", "decide", "-s", circle_file, "--instance", circ_inst])
    assert code == 1
    assert json.loads(out)["chainable"] is False


def test_chains_lebesgue_refine_verify(capsys, arc_file, tmp_path):
    pieces = [
        geo.set_to_json(geo.normalize(ARC, [((F(0), F(2, 3), True, False),)])),
        geo.set_to_json(geo.normalize(ARC, [((F(1, 3), F(1), False, True),)])),
    ]
    leb = write_json(tmp_path, "l.json", {"cover": {"pieces": pieces}})
    code, out, _ = run(capsys, ["chains", "lebesgue", "-s", arc_file, "--instance", leb])
    assert code == 0 and json.loads(out)["delta"] == "1/3"
    ref = write_json(tmp_path, "r.json", {"cover": {"pieces": pieces}, "target": full_arc_target()})
    code, out, _ = run(capsys, ["chains", "refine", "-s", arc_file, "--instance", ref])
    assert code == 0
    witness = json.loads(out)["witness"]
    ver = write_json(tmp_path, "v.json", {
        "witness": witness,
        "target": full_arc_target(),
        "cover": {"pieces": pieces},
    })
    code, out, _ = run(capsys, ["chains", "verify", "-s", arc_file, "--instance", ver])
    assert code == 0 and json.loads(out)["valid"] is True


def test_check_refinable_counterexample(capsys, tmp_path):
    inst = write_json(tmp_path, "i.json", {"xs": ["1", "1", "11/10'"], "xps": ["1", "1", "1/2'"]})
    code, out, _ = run(capsys, ["check", "refinable-sums", "--model", "z", "--instance", inst])
    assert code == 1
    payload = json.loads(out)
    assert payload["kind"] == "counterexample"
    assert payload["data"]["forced"] == ["1"]


def test_check_refinable_witness(capsys, tmp_path):
    inst = write_json(tmp_path, "i.json", {"xs": ["1", "21/20'"], "xps": ["1", "1"]})
    code, out, _ = run(capsys, ["check", "refinable-sums", "--model", "z", "--instance", inst])
    assert code == 0
    assert json.loads(out)["kind"] == "witness"


def test_check_refinable_inconclusive_is_exit_3(capsys, tmp_path):
    inst = write_json(tmp_path, "i.json", {"xs": ["1", "2"], "xps": ["1", "1/2'"]})
    code, out, _ = run(capsys, ["check", "refinable-sums", "--model", "z", "--instance", inst])
    assert code == 3
    assert json.loads(out)["kind"] == "inconclusive"


def test_check_refinable_bad_instance(capsys, tmp_path):
    inst = write_json(tmp_path, "i.json", {"xs": ["1"], "xps": []})
    code, _, err = run(capsys, ["check", "refinable-sums", "--model", "z", "--instance", inst])
    assert code == 2 and "$." in err


def test_check_refinable_negative_depth(capsys, tmp_path):
    inst = write_json(tmp_path, "i.json", {"xs": ["1", "2"], "xps": ["1", "1"]})
    code, _, err = run(capsys, ["check", "refinable-sums", "--model", "z",
                               "--instance", inst, "--depth", "-1"])
    assert code == 2 and "$.depth" in err


def test_check_almost_ordered(capsys, tmp_path):
    bad = write_json(tmp_path, "b.json", {"xs": ["1", "1''"]})
    code, out, _ = run(capsys, ["check", "almost-ordered", "--model", "zprime", "--instance", bad])
    assert code == 1
    assert json.loads(out)["kind"] == "counterexample"
    good = write_json(tmp_path, "g.json", {"xs": ["1", "2"]})
    code, out, _ = run(capsys, ["check", "almost-ordered", "--model", "z", "--instance", good])
    assert code == 0
    assert json.loads(out)["kind"] == "witness"


def test_check_weak_chain_witness(capsys, arc_file, tmp_path):
    x = chi((F(1, 8), F(3, 8), False, False))
    ys = [chi((0, F(1, 2), True, False)), lsc.add(lsc.unit(ARC), lsc.unit(ARC))]
    inst = write_json(tmp_path, "w.json", {
        "x": lsc.element_to_json(x),
        "y": lsc.element_to_json(lsc.unit(ARC)),
        "ys": [lsc.element_to_json(t) for t in ys],
    })
    code, out, _ = run(capsys, ["check", "weak-chain", "-s", arc_file, "--instance", inst])
    assert code == 0
    assert json.loads(out)["kind"] == "witness"


def test_check_weak_chain_circle_counterexample(capsys, circle_file, tmp_path):
    def circ(*spans):
        return lsc.indicator(geo.normalize(CIRCLE, [list(spans)]))

    full = lsc.indicator(geo.normalize(CIRCLE, ["full"]))
    ys = [circ((F(0), F(3, 10))), circ((F(1, 4), F(11, 20))), circ((F(1, 2), F(21, 20)))]
    inst = write_json(tmp_path, "w.json", {
        "x": lsc.element_to_json(full),
        "y": lsc.element_to_json(full),
        "ys": [lsc.element_to_json(t) for t in ys],
    })
    code, out, _ = run(capsys, ["check", "weak-chain", "-s", circle_file, "--instance", inst])
    assert code == 1
    payload = json.loads(out)
    assert payload["kind"] == "counterexample"
    assert any("circle component" in line for line in payload["log"])


def test_check_axioms_table(capsys, tmp_path):
    names = ["0", "1", "2", "3"]
    table = {
        "elements": names,
        "le": [[1 if i <= j else 0 for j in range(4)] for i in range(4)],
        "add": [[names[min(i + j, 3)] for j in range(4)] for i in range(4)],
        "unit": "1",
    }
    path = write_json(tmp_path, "sat.json", table)
    code, out, _ = run(capsys, ["check", "axioms", "--model", f"table:{path}"])
    assert code == 1
    report = json.loads(out)["report"]
    assert report["weak_cancellation"]["status"] == "fail"
    assert report["o3"]["status"] == "pass"
    assert report["o5"]["status"] == "pass"


def test_table_elements_must_be_strings(capsys, tmp_path):
    table = {"elements": ["0", "1"], "le": [[1, 1], [0, 1]], "add": [["0", "1"], ["1", "1"]]}
    path = write_json(tmp_path, "t.json", table)
    inst = write_json(tmp_path, "xs.json", {"xs": [1]})
    code, out, err = run(capsys, ["check", "almost-ordered", "--model", f"table:{path}",
                                  "--instance", inst])
    assert code == 2 and out == ""
    assert err == "error: $.xs[0]: expected an element string\n"


@pytest.mark.parametrize("names", [[[1], [2]], [1, 2], ["0", None]])
def test_table_element_names_must_be_strings(capsys, tmp_path, names):
    table = {"elements": names, "le": [[1, 1], [0, 1]], "add": [names, [names[1]] * 2]}
    path = write_json(tmp_path, "t.json", table)
    want = "error: $.elements: element names must be strings\n"
    proc = run_process(["check", "axioms", "--model", f"table:{path}"])
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", want)
    inst = write_json(tmp_path, "i.json", {"xs": ["0", "1"], "xps": ["0", "1"]})
    code, out, err = run(capsys, ["check", "refinable-sums", "--model", f"table:{path}",
                                  "--instance", inst])
    assert (code, out, err) == (2, "", want)


def test_sum_checks_reject_a_table_whose_zero_is_not_least(tmp_path):
    # e1 < e2 < ... < e5 and e0 below e2..e5 only; e0 is neutral, so the
    # zero padding of a row is not below its last term.
    names = [f"e{i}" for i in range(6)]
    le = [[i == j or (0 < i <= j) or (i == 0 and j >= 2) for j in range(6)] for i in range(6)]
    add = [[names[min(i + j, 5)] for j in range(6)] for i in range(6)]
    path = write_json(tmp_path, "t.json", {"elements": names, "le": le, "add": add})
    inst = write_json(tmp_path, "i.json", {"xs": ["e1", "e4", "e5"], "xps": ["e5", "e4", "e3"]})
    want = "error: $.model: the neutral element must be the least element\n"
    for verb in ("refinable-sums", "almost-ordered"):
        proc = run_process(["check", verb, "--model", f"table:{path}", "--instance", inst])
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", want), verb
    proc = run_process(["check", "axioms", "--model", f"table:{path}"])
    assert proc.returncode == 1 and "report" in json.loads(proc.stdout)


# x and y the same open interval, whose closure pokes out: x is not way below y.
OPEN_XY = {"x": lsc.element_to_json(chi((F(1, 4), F(1, 2)))), "y": lsc.element_to_json(chi((F(1, 4), F(1, 2))))}


@pytest.mark.parametrize("argv, inst, path, reason", [
    (["refinable-sums", "--model", "z"], {"xs": ["1"], "xps": []}, "$.xps",
     "need equally many xs and xps, at least one each"),
    (["refinable-sums", "--model", "z"], {"xs": ["2", "1"], "xps": ["1", "1"]}, "$.xs[0]",
     "each term must be way below the next"),
    (["refinable-sums", "--model", "z"], {"xs": ["1"], "xps": ["0"]}, "$.xps[0]",
     "each term must be dominated by a multiple of its partner"),
    (["almost-ordered", "--model", "z"], {"xs": []}, "$.xs", "need at least one term"),
    (["weak-chain"], {**OPEN_XY, "ys": []}, "$.ys", "need at least one cover element"),
    (["weak-chain"], {**OPEN_XY, "ys": [lsc.element_to_json(lsc.unit(ARC))]}, "$.x",
     "x must be way below y"),
    (["weak-chain"], {"x": lsc.element_to_json(lsc.zero(ARC)), "y": lsc.element_to_json(lsc.unit(ARC)),
                      "ys": [OPEN_XY["x"]]}, "$.y", "y must be way below the sum of the cover elements"),
], ids=["xps-count", "xs-chain", "xps-partner", "xs-empty", "ys-empty", "x-below-y", "y-below-sum"])
def test_instance_errors_name_the_field_in_the_instance_file(capsys, arc_file, tmp_path, argv, inst, path, reason):
    # The same paths as an element that fails to parse, e.g. `$.xs[0]`.
    f = write_json(tmp_path, "i.json", inst)
    space = ["-s", arc_file] if argv == ["weak-chain"] else []
    assert run(capsys, ["check", *argv, *space, "--instance", f]) == (2, "", f"error: {path}: {reason}\n")


def _evenly_spaced_arcs(k):
    """k arcs of length 3/10 around the unit circle: no three cover it."""
    return [lsc.element_to_json(chi((F(i, k), F(i, k) + F(3, 10)), sp=CIRCLE)) for i in range(k)]


@pytest.mark.parametrize("argv, space, inst, path, reason", [
    (["check", "almost-ordered", "--model", "z"], None,
     {"xs": [str(i) for i in range(1, checks.MAX_ALMOST_ORDERED_TERMS + 2)]}, "$.xs",
     f"{checks.MAX_ALMOST_ORDERED_TERMS + 1} terms, more than the cap of {checks.MAX_ALMOST_ORDERED_TERMS}"),
    (["check", "weak-chain"], "circle",
     {"x": lsc.element_to_json(lsc.unit(CIRCLE)), "y": lsc.element_to_json(lsc.unit(CIRCLE)),
      "ys": _evenly_spaced_arcs(checks.MAX_CIRCLE_TRACES + 1)}, "$.ys",
     f"{checks.MAX_CIRCLE_TRACES + 1} cover elements meet circle component 0, "
     f"more than the cap of {checks.MAX_CIRCLE_TRACES}"),
    # The two pieces overlap on (1/1000000, 3/2000000), so the margin is
    # 1/2000000 and the chain would need 4,000,001 windows.
    (["chains", "refine"], "arc",
     {"target": full_arc_target(), "cover": {"pieces": [
         geo.set_to_json(geo.normalize(ARC, [((F(0), F(3, 2000000), True, False),)])),
         geo.set_to_json(geo.normalize(ARC, [((F(1, 1000000), F(1), False, True),)]))]}}, "$.cover",
     f"the cover's margin 1/2000000 needs 4000001 pieces, more than the cap of {chains.MAX_CHAIN_PIECES}"),
    # A valid weak-chain instance whose cover, the supports of the ys, is
    # that cover: it once exited 4, an internal error.
    (["check", "weak-chain"], "arc",
     {"x": lsc.element_to_json(lsc.unit(ARC)), "y": lsc.element_to_json(lsc.unit(ARC)),
      "ys": [lsc.element_to_json(chi((0, F(3, 2000000), True, False))),
             lsc.element_to_json(chi((F(1, 1000000), 1, False, True)))]}, "$.ys",
     f"the cover's margin 1/2000000 needs 4000001 pieces, more than the cap of {chains.MAX_CHAIN_PIECES}"),
], ids=["almost-ordered", "weak-chain", "refine", "weak-chain-margin"])
def test_over_the_cap_instances_exit_2_at_once(capsys, arc_file, circle_file, tmp_path, argv, space, inst, path,
                                               reason):
    f = write_json(tmp_path, "i.json", inst)
    space = {None: [], "arc": ["-s", arc_file], "circle": ["-s", circle_file]}[space]
    t0 = time.perf_counter()
    got = run(capsys, [*argv, *space, "--instance", f])
    assert time.perf_counter() - t0 < 1
    assert got == (2, "", f"error: {path}: {reason}\n")


def test_check_axioms_rejects_non_table(capsys):
    code, _, err = run(capsys, ["check", "axioms", "--model", "z"])
    assert code == 2 and "table" in err


# One instance per verdict branch of the rational-model sum checks: the
# exit code, the kind, and the counterexample reason or a log line.
@pytest.mark.parametrize("verb, model, inst, code, reason, line", [
    ("refinable-sums", "zprime", {"xs": ["1", "1", "1"], "xps": ["1''", "1/2'", "3"]}, 1,
     "no admissible rows exist", "every decomposition assignment violates a clause"),
    ("refinable-sums", "z", {"xs": ["1", "1", "3"], "xps": ["1'", "1/2'", "3/2'"]}, 1,
     "no admissible leading term for row 0", "no decomposition of the row 0 sums has an admissible leading term"),
    ("refinable-sums", "zprime", {"xs": ["30", "inf"], "xps": ["1''", "inf"]}, 0, None, "63, 64] (truncated)"),
    # Compacts above 24 do not decompose: each stands as a row of its own.
    ("refinable-sums", "nbar", {"xs": ["1", "30"], "xps": ["2", "1"]}, 0, None, "24, 25, 26, 27, 28, 29, 30]"),
    ("refinable-sums", "nbar", {"xs": ["2", "3", "30", "30"], "xps": ["2", "2", "2", "2"]}, 3, None,
     "row 0 leading term is forced to 2; row 1 then needs y with 2 way below y, y <= 2, y way below 30: feasible"),
    ("almost-ordered", "zprime", {"xs": ["1''", "1'", "3"]}, 3, None,
     "the sum is not compact, so exact decompositions do not exhaust the witnesses"),
    ("almost-ordered", "zprime", {"xs": ["1''", "30", "1"]}, 3, None, "the sum is too large to enumerate decompositions"),
], ids=["no-rows", "no-leading-term", "truncated-window", "undecomposed-compacts", "feasible-heads",
        "soft-sum", "large-sum"])
def test_sum_check_verdict_branches(capsys, tmp_path, verb, model, inst, code, reason, line):
    f = write_json(tmp_path, "i.json", inst)
    got, out, _ = run(capsys, ["check", verb, "--model", model, "--instance", f])
    payload = json.loads(out)
    kind = {0: "witness", 1: "counterexample", 3: "inconclusive"}[code]
    assert (got, payload["kind"], payload["data"].get("reason")) == (code, kind, reason)
    assert any(line in entry for entry in payload["log"]), payload["log"]


def test_refinable_search_can_spend_its_assignment_budget(capsys, tmp_path, monkeypatch):
    assigned = []
    real = checks._assign_rows
    monkeypatch.setattr(checks, "_assign_rows", lambda *a: assigned.append(real(*a)) or assigned[-1])
    f = write_json(tmp_path, "i.json", {"xs": ["1''", "30"], "xps": ["30", "1/2'"]})
    code, out, _ = run(capsys, ["check", "refinable-sums", "--model", "zprime", "--instance", f])
    assert (code, json.loads(out)["kind"]) == (3, "inconclusive")
    assert assigned == [(None, False)]


def test_a_partner_ratio_above_the_old_cap_gets_a_verdict(capsys, tmp_path):
    # 100 <= 100 * 1: a valid instance, once read as malformed (exit 2).
    f = write_json(tmp_path, "i.json", {"xs": ["100", "200"], "xps": ["1", "1"]})
    for model in ("z", "zprime", "nbar"):
        code, out, err = run(capsys, ["check", "refinable-sums", "--model", model, "--instance", f])
        assert (code, json.loads(out)["kind"], err) == (3, "inconclusive", ""), model


def test_a_window_cut_by_the_compact_cap_refutes_nothing(capsys, tmp_path):
    # Rows of 2s sum to 100, so no counterexample exists; the compacts of
    # the window between 100 and 200 all lie above compact_cap (64).
    f = write_json(tmp_path, "i.json", {"xs": ["100", "200"], "xps": ["2", "4"]})
    code, out, _ = run(capsys, ["check", "refinable-sums", "--model", "nbar", "--instance", f])
    payload = json.loads(out)
    assert (code, payload["kind"]) == (3, "inconclusive")
    assert payload["log"][0].endswith("compact members [] (truncated)")


@pytest.mark.parametrize("argv", [
    ["check", "axioms", "--model", "table:TABLE", "-s", "SPACE"],
    ["check", "axioms"],
    ["check", "weak-chain", "--instance", "REPORT"],
    ["lsc", "decompose", "-s", "SPACE"],
    ["verify", "lemmas", "--shard", "0/2", "--check", "unit-cancellation"],
    ["verify", "lemmas", "--merge", "REPORT", "--check", "unit-cancellation"],
    ["verify", "lemmas", "--merge", "REPORT", "--shard", "0/2"],
], ids=["axioms-space", "axioms-no-model", "weak-chain-no-space", "decompose-no-instance",
        "shard-and-check", "merge-and-check", "merge-and-shard"])
def test_the_parser_rejects_options_a_verb_would_ignore(capsys, tmp_path, arc_file, argv):
    files = {"SPACE": arc_file, "TABLE": write_json(tmp_path, "sat.json", SAT4),
             "REPORT": write_json(tmp_path, "report.json", {"seed": 1, "cases": 1, "mutate": [], "checks": []})}
    code, out, err = run(capsys, [files.get(a, a).replace("TABLE", files["TABLE"]) for a in argv])
    assert (code, out) == (2, "")
    assert err.startswith("usage: cuntzkit")


def test_verify_lemmas_small_run(capsys):
    code, out, _ = run(capsys, ["verify", "lemmas", "--seed", "5", "--cases", "3"])
    assert code == 0
    report = json.loads(out)
    assert report["failures"] == 0
    assert len(report["checks"]) == 22


def test_verify_lemmas_canary_fails(capsys):
    code, out, _ = run(capsys, ["verify", "lemmas", "--seed", "5", "--cases", "3",
                                "--check", "pairwise-ordered-sum-identity",
                                "--mutate", "add-off-by-one"])
    assert code == 1
    assert json.loads(out)["failures"] > 0


def test_verify_lemmas_shard_merge(capsys, tmp_path):
    outs = []
    for i in range(3):
        code, out, _ = run(capsys, ["verify", "lemmas", "--seed", "5", "--cases", "2",
                                    "--shard", f"{i}/3"])
        assert code == 0
        p = tmp_path / f"s{i}.json"
        p.write_text(out)
        outs.append(str(p))
    code, merged, _ = run(capsys, ["verify", "lemmas", "--merge", *outs])
    assert code == 0
    code, full, _ = run(capsys, ["verify", "lemmas", "--seed", "5", "--cases", "2"])
    assert merged == full


def test_verify_lemmas_rejects_an_unknown_mutation_on_an_empty_shard(capsys):
    # Shard 30 of 40 holds no check, so no law would ever see the mutation.
    assert suite.shard_names(30, 40) == ()
    code, out, err = run(capsys, ["verify", "lemmas", "--shard", "30/40", "--mutate", "nonsense"])
    assert (code, out) == (2, "")
    assert err.startswith("error: $.mutate: unknown mutation 'nonsense'"), err


def test_verify_lemmas_bad_names(capsys):
    code, _, err = run(capsys, ["verify", "lemmas", "--check", "nonsense"])
    assert code == 2 and "unknown check" in err
    code, _, err = run(capsys, ["verify", "lemmas", "--shard", "5"])
    assert code == 2 and "$.shard" in err


@pytest.mark.parametrize("shard, message", [
    ("0/0", "shard must be i/n with 0 <= i < n"),
    ("3/3", "shard must be i/n with 0 <= i < n"),
    ("x/3", "expected I/N with integers: invalid literal for int() with base 10: 'x'"),
    ("1", "expected I/N with integers: not enough values to unpack (expected 2, got 1)"),
])
def test_verify_lemmas_shard_errors_name_their_path_once(capsys, shard, message):
    code, out, err = run(capsys, ["verify", "lemmas", "--shard", shard])
    assert (code, out, err) == (2, "", f"error: $.shard: {message}\n")


def test_verify_lemmas_rejects_a_negative_case_count(capsys):
    for extra in (["--check", "bounded-decomposition"], ["--shard", "30/40"]):
        code, out, err = run(capsys, ["verify", "lemmas", "--seed", "1", "--cases", "-3", *extra])
        assert (code, out, err) == (2, "", "error: $.cases: the case count must not be negative\n")


def test_benchmark_cli_calls_keep_their_pinned_bytes(capsys, tmp_path, monkeypatch):
    # The benchmark's seed-42 verb mix, run in process: each call's exit
    # code, and the sha256 of its stdout as bench/digests.json records it.
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parents[1] / "bench"))
    import workloads

    pins = workloads.load_pins(42)
    calls = workloads.cli_calls(42, tmp_path)
    assert len(calls) == 12
    for call in calls:
        code, out, _ = run(capsys, list(call.argv))
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert (code, digest) == (call.exit, pins[f"cli.{call.name}"]), call.name


def _parse_with(parser, argv):
    """The parsed arguments or exit code, with stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parser.parse_args(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


def _choices(parser):
    (choices,) = [a.choices for a in parser._actions if isinstance(a.choices, dict)]
    return choices


def test_the_parser_of_one_group_reads_and_prints_as_the_full_table(tmp_path, monkeypatch):
    # main builds only the verb its first two words name, or only the
    # verbs of the group its first word names when the second names none.
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parents[1] / "bench"))
    import workloads

    full = cli.build_parser()
    groups = _choices(full)
    argvs = [[], ["--help"], ["nope"], ["nope", "add"]]
    inexact = []
    for g, gp in groups.items():
        argvs += [[g], [g, "--help"], [g, "nope"]]
        verbs = _choices(gp)
        # Help, a missing required option, an unknown option, extra arguments.
        argvs += [[g, v, *rest] for v in verbs for rest in (["--help"], [], ["--nope", "1"], ["x", "y", "z"])]
        # A verb name that is not exact: a prefix, another case, a longer word.
        inexact += [[g, w] for v in verbs for w in (v[:-1], v.upper(), v + "s") if w not in verbs]
        for v in verbs:
            assert _choices(_choices(cli.build_parser(g, v))[g]).keys() == {v}, (g, v)
    for g, w in inexact:
        assert _choices(_choices(cli.build_parser(g, w))[g]).keys() == _choices(groups[g]).keys(), (g, w)
    calls = [list(call.argv) for call in workloads.cli_calls(42, tmp_path)]
    argvs += inexact + calls
    assert len(argvs) == 4 + 3 * 5 + 4 * 20 + len(inexact) + 12 and len(inexact) == 3 * 20
    for argv in argvs:
        one = _parse_with(cli.build_parser(*argv[:2]), argv)
        assert one == _parse_with(full, argv), argv
        # The group's parser, as a command line with no verb or another builds it.
        assert _parse_with(cli.build_parser(argv[0] if argv else None), argv) == one, argv


def test_output_is_deterministic(capsys, tmp_path):
    inst = write_json(tmp_path, "i.json", {"xs": ["1", "1", "11/10'"], "xps": ["1", "1", "1/2'"]})
    argv = ["check", "refinable-sums", "--model", "z", "--instance", inst]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second


# --- whole-CLI fuzz ----------------------------------------------------------
# Every verb on seeded well-formed instances, some with a field, a list item,
# the whole instance, the space file or the table file swapped for arbitrary
# JSON. Whatever the input, the exit code is one of 0-3, stdout holds JSON
# unless the input was rejected (exit 2), and stderr holds no traceback.

FUZZ_SPACES = (ARC, geo.space(geo.circle(1), geo.arc(F(1, 2)), geo.point()))
SAT4 = {
    "elements": ["0", "1", "2", "3"],
    "le": [[int(i <= j) for j in range(4)] for i in range(4)],
    "add": [[str(min(i + j, 3)) for j in range(4)] for i in range(4)],
    "unit": "1",
}
ATOMS = ["0", "1", "2", "3", "1/2'", "3/2'", "11/10'", "21/20'", "inf", "1''"]
JSON_JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 30) | st.floats(allow_nan=False)
    | st.sampled_from(["0", "1/2", "1", "inf", "1''", "3/2'", "full", "x"]) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["levels", "infinity", "sets", "full_flags", "pieces",
                                       "kind", "components", "length"]), inner, max_size=3),
    max_leaves=8,
)
VERBS = ("space validate", "lsc eval", "lsc add", "lsc join", "lsc meet", "lsc leq", "lsc wb",
         "lsc complement", "lsc ordered-sum", "lsc decompose", "chains epsilon-chain",
         "chains refine", "chains decide", "chains lebesgue", "chains verify",
         "check refinable-sums", "check almost-ordered", "check weak-chain", "check axioms",
         "verify lemmas")


def _fuzz_instance(verb, model, rng, sp):
    """A seeded instance for a verb, mostly well formed."""
    def el(f=None):
        return lsc.element_to_json(f if f is not None else gen.rand_lsc(rng, sp))

    def atoms(k):
        names = SAT4["elements"] if model == "table" else ATOMS
        return [el() for _ in range(k)] if model == "lsc" else rng.choices(names, k=k)

    target = gen.rand_connected_target(rng, sp)
    if verb == "lsc eval":
        return {"element": el(), "points": [[ci, p if p is None else geo.frac_to_str(p)]
                                            for ci, p in rng.sample(gen.grid_points(sp), 2)]}
    if verb in ("lsc add", "lsc join", "lsc meet", "lsc leq", "lsc wb"):
        return {"a": el(), "b": el()}
    if verb == "lsc complement":
        y = gen.rand_bounded_lsc(rng, sp)
        return {"y": el(y), "z": el(lsc.add(y, gen.rand_lsc(rng, sp)))}
    if verb == "lsc ordered-sum":
        lists = [[el(t) for t in gen.rand_decreasing_indicators(rng, sp, rng.randint(1, 3))]
                 for _ in range(2)]
        return {"xs": lists[0], "ys": lists[1]} if rng.random() < 0.5 else {"terms": lists[0]}
    if verb == "lsc decompose":
        return {"element": el(gen.rand_bounded_lsc(rng, sp)), "n": rng.randint(1, 4)}
    if verb == "check refinable-sums":
        k = rng.randint(1, 3)
        if model in ("z", "zprime") and rng.random() < 0.5:
            return rng.choice([{"xs": ["1", "1", "11/10'"], "xps": ["1", "1", "1/2'"]},
                               {"xs": ["1", "21/20'"], "xps": ["1", "1"]},
                               {"xs": ["1", "2"], "xps": ["1", "1/2'"]}])
        return {"xs": atoms(k), "xps": atoms(k)}
    if verb == "check almost-ordered":
        return {"xs": atoms(rng.randint(1, 3))}
    if verb == "check weak-chain":
        ys = [gen.rand_indicator(rng, sp) for _ in range(rng.randint(1, 3))]
        covered = views.union_all(sp, [lsc.supp(t) for t in ys])
        y = lsc.indicator(oracles.shrink_open_set(covered, 16))
        x = lsc.indicator(oracles.shrink_open_set(lsc.supp(y), 16))
        return {"x": el(x), "y": el(y), "ys": [el(t) for t in ys]}
    if verb == "chains verify":
        w = chains.epsilon_chain(target, F(1, 4))
        return {"witness": chains.witness_to_json(w), "target": geo.set_to_json(target),
                "cover": chains.cover_to_json(chains.make_cover(w.pieces))}
    cover = chains.make_cover(oracles.rand_cover_pieces(rng, sp, target))
    return {"target": geo.set_to_json(target), "cover": chains.cover_to_json(cover),
            "eps": rng.choice(["1/2", "1/4", "1/8"])}


def _fuzz_argv(verb, model, rng, files):
    group, cmd = verb.split()
    argv = [group, cmd]
    if verb == "verify lemmas":
        return argv + ["--seed", str(rng.randrange(10)), "--cases", "1",
                       "--check", rng.choice(["unit-cancellation", "refinable-sums-counterexample",
                                              "almost-ordered-counterexample", "nonsense"])]
    if verb == "check axioms":
        return argv + ["--model", f"table:{files['table']}"]
    if group != "check" or model == "lsc" or cmd == "weak-chain":
        argv += ["-s", files["space"]]
    if cmd in ("refinable-sums", "almost-ordered"):
        argv += ["--model", f"table:{files['table']}" if model == "table" else model]
    if group == "check" and rng.random() < 0.3:
        argv += ["--depth", str(rng.randint(-1, 4))]
    return argv if verb == "space validate" else argv + ["--instance", files["instance"]]


def _swap(obj, how, junk, pick):
    """obj with one part swapped for junk: a field, a list item, or all of it."""
    if how == "whole" or not isinstance(obj, dict) or not obj:
        return junk
    key = sorted(obj)[pick % len(obj)]
    if how == "item" and isinstance(obj[key], list) and obj[key]:
        obj[key][pick % len(obj[key])] = junk
    elif how == "drop":
        del obj[key]
    else:
        obj[key] = junk
    return obj


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.parametrize("verb", VERBS)
@given(
    model=st.sampled_from(["z", "zprime", "nbar", "table", "lsc"]),
    seed=st.integers(0, 2**16),
    space=st.sampled_from(FUZZ_SPACES),
    swap=st.none() | st.tuples(st.sampled_from(["field", "item", "drop", "whole", "space", "table"]),
                               JSON_JUNK, st.integers(0, 7)),
)
@settings(max_examples=8, deadline=None)
def test_every_verb_exits_with_a_contract_code(fuzz_dir, verb, model, seed, space, swap):
    rng = random.Random(seed)
    objs = {
        "space": geo.space_to_json(space),
        "table": json.loads(json.dumps(SAT4)),
        "instance": None if verb in ("space validate", "check axioms", "verify lemmas")
        else _fuzz_instance(verb, model, rng, space),
    }
    if swap is not None:
        how, junk, pick = swap
        if how in ("space", "table"):
            objs[how] = _swap(objs[how], "field", junk, pick)
        else:
            name = "space" if verb == "space validate" else "table" if verb == "check axioms" else "instance"
            objs[name] = _swap(objs[name], how, junk, pick)
    files = {name: write_json(fuzz_dir, f"{name}.json", obj) for name, obj in objs.items()}
    argv = _fuzz_argv(verb, model, rng, files)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2, 3), (argv, objs, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code != 2:
        json.loads(out.getvalue())


# Byte-level mutations of valid input files. A mutation maps the file's
# JSON value and a seeded Random to the bytes of its mutants.
_MARK = "\0mutant\0"


def _nodes(obj, path=()):
    """The (path, value) of every node of a JSON value, the root first."""
    yield path, obj
    kids = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for k, v in kids:
        yield from _nodes(v, path + (k,))


def _with(obj, path, text):
    """The bytes of obj with the node at path written as text."""
    if not path:
        return text.encode()
    obj = json.loads(json.dumps(obj))
    node = obj
    for k in path[:-1]:
        node = node[k]
    node[path[-1]] = _MARK
    return json.dumps(obj).replace(json.dumps(_MARK), text).encode()


def _keyed(obj):
    """The (path, object, key) of every key of every object in obj."""
    return [(p, v, k) for p, v in _nodes(obj) if isinstance(v, dict) for k in v]


BYTE_MUTATIONS = {
    "cut-short": lambda obj, rng: [json.dumps(obj).encode()[:rng.randrange(1, len(json.dumps(obj)))]
                                   for _ in range(8)],
    "deep-nesting": lambda obj, rng: [_with(obj, p, "[" * 200_000) for p, _ in _nodes(obj)],
    "5001-digit-integer": lambda obj, rng: [_with(obj, p, "9" * 5001) for p, _ in _nodes(obj)],
    "NaN": lambda obj, rng: [_with(obj, p, "NaN") for p, _ in _nodes(obj)],
    "Infinity": lambda obj, rng: [_with(obj, p, "-Infinity") for p, _ in _nodes(obj)],
    "leading-ff-fe": lambda obj, rng: [b"\xff\xfe" + json.dumps(obj).encode()],
    "utf-8-bom": lambda obj, rng: [b"\xef\xbb\xbf" + json.dumps(obj).encode()],
    # The last of two equal keys wins, so each key gets a second, junk value.
    "duplicate-key": lambda obj, rng: [
        _with(obj, p, json.dumps(v)[:-1] + f", {json.dumps(k)}: "
              + rng.choice(["null", "[]", "{}", '"x"', "-1", "true", "[[]]"]) + "}")
        for p, v, k in _keyed(obj)],
    "dropped-key": lambda obj, rng: [_with(obj, p, json.dumps({j: w for j, w in v.items() if j != k}))
                                     for p, v, k in _keyed(obj)],
    "wrapped-in-a-list": lambda obj, rng: [json.dumps([obj]).encode()],
}


@pytest.fixture(scope="module")
def byte_fuzz_files(tmp_path_factory):
    """A valid file of each kind, with the argv that reads it at MUTANT."""
    d = tmp_path_factory.mktemp("bytes")
    space = write_json(d, "space.json", geo.space_to_json(ARC))
    reports = [suite.run_suite(seed=42, cases=1, names=[n])
               for n in ("unit-cancellation", "termwise-way-below")]
    other = write_json(d, "other.json", reports[1])
    return d, {
        "space": (geo.space_to_json(ARC), ["space", "validate", "-s", "MUTANT"]),
        "instance": ({"a": lsc.element_to_json(chi((0, F(1, 2), True, False))),
                      "b": lsc.element_to_json(chi((F(1, 4), 1, False, True)))},
                     ["lsc", "add", "-s", space, "--instance", "MUTANT"]),
        "table": (SAT4, ["check", "axioms", "--model", "table:MUTANT"]),
        "report": (reports[0], ["verify", "lemmas", "--merge", "MUTANT", other]),
    }


@pytest.mark.parametrize("mutation", sorted(BYTE_MUTATIONS))
@pytest.mark.parametrize("kind", ["space", "instance", "table", "report"])
def test_mutated_input_bytes_exit_with_a_contract_code(byte_fuzz_files, kind, mutation):
    d, files = byte_fuzz_files
    obj, argv = files[kind]
    mutant = d / "mutant.json"
    argv = [a.replace("MUTANT", str(mutant)) for a in argv]
    for data in BYTE_MUTATIONS[mutation](obj, random.Random(f"{kind} {mutation}")):
        mutant.write_bytes(data)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        what = (data[:80], err.getvalue()[:300])
        assert code in (0, 1, 2, 3), what
        assert "Traceback" not in err.getvalue() and "internal error" not in err.getvalue(), what
        if code == 2:
            assert err.getvalue().startswith("error: $"), what
        else:
            json.loads(out.getvalue(), parse_constant=_refuse)


def _refuse(name):
    raise AssertionError(f"{name} is not JSON")


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("kind, at", [("space", "$"), ("instance", "$"), ("table", "$.model"), ("report", "$")])
def test_json_constants_that_are_not_json_exit_2_naming_the_file(byte_fuzz_files, kind, at, constant):
    # A merged report used to copy "seed": NaN to its output with exit 0.
    d, files = byte_fuzz_files
    obj, argv = files[kind]
    mutant = d / "constant.json"
    mutant.write_bytes(_with(obj, next(p for p, v in _nodes(obj) if not isinstance(v, (dict, list))), constant))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([a.replace("MUTANT", str(mutant)) for a in argv])
    assert (code, out.getvalue()) == (2, "")
    assert err.getvalue().startswith(f"error: {at}: ") and str(mutant) in err.getvalue(), err.getvalue()
    assert err.getvalue().endswith(f"is not valid JSON: {constant} is not a JSON value\n"), err.getvalue()


def test_a_closed_stdout_exits_141_in_silence(arc_file):
    # 1 would read as a counterexample and 4 as a crash.
    src = str(pathlib.Path(cuntzkit.__file__).resolve().parents[1])
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "cuntzkit.cli", "space", "validate", "-s", arc_file],
            stdout=write, stderr=subprocess.PIPE, timeout=120, env={**os.environ, "PYTHONPATH": src},
        )
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (141, b"")


@pytest.mark.parametrize("argv, inst, path", [
    (["chains", "epsilon-chain"], {"target": full_arc_target(), "eps": "1e-20000000"}, "$.eps"),
    (["chains", "epsilon-chain"], {"target": full_arc_target(), "eps": "1e-2000000"}, "$.eps"),
    (["check", "refinable-sums", "--model", "z"], {"xs": ["1e99999999"], "xps": ["1"]}, "$.xs[0]"),
    (["space", "validate"], None, "$.components[0].length"),
])
def test_exponent_rationals_exit_2_at_their_field(tmp_path, argv, inst, path):
    # Fraction would build each of these numbers, digit by digit: the first
    # for longer than 30 s, the second until printing it failed, the third
    # as a 41 MB integer.
    length = "1e-3000000" if inst is None else "1"
    sp = write_json(tmp_path, "s.json", {"components": [{"kind": "arc", "length": length}]})
    files = ["-s", sp] + ([] if inst is None else ["--instance", write_json(tmp_path, "i.json", inst)])
    proc = run_process([*argv, *files])
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith(f"error: {path}: expected a rational 'p/q', got '1e")


@pytest.mark.parametrize("argv, inst", [
    (["check", "weak-chain"], {"x": lsc.element_to_json(lsc.zero(ARC)),
                               "y": lsc.element_to_json(lsc.zero(ARC)), "ys": 7}),
    (["lsc", "ordered-sum"], {"terms": None}),
    (["chains", "refine"], {"cover": {"pieces": [[]]}, "target": {"sets": [[[0, 2, 1, 1]]]}}),
])
def test_malformed_instances_exit_2_in_their_own_process(arc_file, tmp_path, argv, inst):
    path = write_json(tmp_path, "i.json", inst)
    proc = run_process([*argv, "-s", arc_file, "--instance", path])
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: $") and "Traceback" not in proc.stderr
