"""End to end tests of the command line front end: exit codes, JSON output,
and the error channel."""

import json
import os
import pathlib
import subprocess
import sys

from fractions import Fraction as F

import pytest

import cuntzkit
from cuntzkit import cli
from cuntzkit import geometry as geo
from cuntzkit import lsc


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


def test_usage_error_is_exit_2(capsys):
    assert cli.main(["no-such-group"]) == 2
    capsys.readouterr()
    assert cli.main(["lsc"]) == 2
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
    monkeypatch.setattr(geo, "component_set", lambda *a: built.append(a))
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


def test_check_axioms_rejects_non_table(capsys):
    code, _, err = run(capsys, ["check", "axioms", "--model", "z"])
    assert code == 2 and "table" in err


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


def test_verify_lemmas_bad_names(capsys):
    code, _, err = run(capsys, ["verify", "lemmas", "--check", "nonsense"])
    assert code == 2 and "unknown check" in err
    code, _, err = run(capsys, ["verify", "lemmas", "--shard", "5"])
    assert code == 2 and "$.shard" in err


def test_output_is_deterministic(capsys, tmp_path):
    inst = write_json(tmp_path, "i.json", {"xs": ["1", "1", "11/10'"], "xps": ["1", "1", "1/2'"]})
    argv = ["check", "refinable-sums", "--model", "z", "--instance", inst]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second
