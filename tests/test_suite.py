"""Tests for the seeded law suite: determinism, sharding, the law driver
and the deliberate-fault canary."""

import hashlib
import random

import pytest

from cuntzkit import cli, suite
from cuntzkit.geometry import InputError


def test_registry_names_are_unique():
    assert len(set(suite.CHECK_NAMES)) == len(suite.CHECK_NAMES) == 22


def test_run_suite_is_deterministic():
    a = suite.run_suite(seed=11, cases=3)
    b = suite.run_suite(seed=11, cases=3)
    assert a == b


def test_small_run_is_clean():
    report = suite.run_suite(seed=2, cases=3)
    assert report["failures"] == 0
    assert all(c["status"] == "pass" for c in report["checks"])


def test_case_caps_are_applied():
    report = suite.run_suite(seed=2, cases=100, names=["weak-chain-construction"])
    assert report["checks"][0]["cases"] == 25


def test_check_order_is_registry_order():
    report = suite.run_suite(seed=2, cases=2, names=["almost-ordered-sums", "bounded-decomposition"])
    got = [c["name"] for c in report["checks"]]
    assert got == [n for n in suite.CHECK_NAMES if n in got]


def test_mutation_canary_fails():
    report = suite.run_suite(seed=2, cases=10, names=["pairwise-ordered-sum-identity"],
                             mutate=("add-off-by-one",))
    assert report["failures"] > 0
    assert report["checks"][0]["status"] == "fail"
    assert report["checks"][0]["failures"][0]["detail"]


def test_mutation_does_not_touch_other_checks():
    report = suite.run_suite(seed=2, cases=5, names=["ordered-refold-identity"],
                             mutate=("add-off-by-one",))
    assert report["failures"] == 0


def test_unknown_check_and_mutation():
    with pytest.raises(InputError):
        suite.run_check("no-such-check", seed=1, cases=1)
    with pytest.raises(InputError):
        suite.run_suite(seed=1, cases=1, mutate=("no-such-fault",))
    # Checked before any law runs, so a run that reaches none rejects it too.
    with pytest.raises(InputError) as exc:
        suite.run_suite(seed=1, cases=1, names=[], mutate=("no-such-fault",))
    assert exc.value.path == "$.mutate"


def test_shards_partition_the_registry():
    parts = [suite.shard_names(i, 4) for i in range(4)]
    flat = [n for part in parts for n in part]
    assert sorted(flat) == sorted(suite.CHECK_NAMES)
    with pytest.raises(InputError):
        suite.shard_names(4, 4)


def test_merge_equals_full_run():
    full = suite.run_suite(seed=9, cases=2)
    shards = [suite.run_suite(seed=9, cases=2, names=suite.shard_names(i, 3)) for i in range(3)]
    assert suite.merge_reports(shards) == full


def test_merge_of_failing_shards_equals_full_run():
    mutate = ("add-off-by-one",)
    full = suite.run_suite(seed=9, cases=2, mutate=mutate)
    shards = [suite.run_suite(seed=9, cases=2, names=suite.shard_names(i, 3), mutate=mutate) for i in range(3)]
    assert full["failures"] > 0 and suite.merge_reports(shards) == full


def test_merge_rejects_mismatched_seed():
    a = suite.run_suite(seed=1, cases=2, names=["bounded-decomposition"])
    b = suite.run_suite(seed=2, cases=2, names=["unit-cancellation"])
    with pytest.raises(InputError):
        suite.merge_reports([a, b])


@pytest.mark.parametrize("mangle, path", [
    (lambda r: [r], "$.reports[1]"),
    (lambda r: {k: v for k, v in r.items() if k != "checks"}, "$.reports[1].checks"),
    (lambda r: {**r, "checks": {}}, "$.reports[1].checks"),
    (lambda r: {**r, "checks": [{k: v for k, v in r["checks"][0].items() if k != "name"}]},
     "$.reports[1].checks[0].name"),
    # A name outside the registry would drop the check, and its failures, from the merge.
    (lambda r: {**r, "checks": [{**r["checks"][0], "name": "no-such-law"}]}, "$.reports[1].checks[0].name"),
    (lambda r: {**r, "checks": [{**r["checks"][0], "failures": None}]}, "$.reports[1].checks[0].failures"),
    # Each of these merged with exit 0, and reached the output as it came, when
    # every report carried it; here only the disagreement at $.reports caught it.
    (lambda r: {**r, "seed": float("nan")}, "$.reports[1].seed"),
    (lambda r: {**r, "seed": True}, "$.reports[1].seed"),
    (lambda r: {**r, "seed": "1"}, "$.reports[1].seed"),
    (lambda r: {**r, "cases": 2.5}, "$.reports[1].cases"),
    (lambda r: {**r, "cases": -1}, "$.reports[1].cases"),
    (lambda r: {**r, "mutate": [1]}, "$.reports[1].mutate"),
    (lambda r: {**r, "mutate": "add-off-by-one"}, "$.reports[1].mutate"),
    (lambda r: {**r, "mutate": ["no-such-mutation"]}, "$.reports[1].mutate"),
    # Each of these merged into a report that contradicts itself: this one
    # said the check passed, over -7 cases, with one failure.
    (lambda r: {**r, "checks": [{**r["checks"][0], "status": "pass", "cases": -7,
                                 "failures": [{"case": 0, "detail": "planted"}]}]}, "$.reports[1].checks[0]"),
    (lambda r: {**r, "checks": [{**r["checks"][0], "status": "fail"}]}, "$.reports[1].checks[0]"),
    (lambda r: {**r, "checks": [{**r["checks"][0], "cases": 2}]}, "$.reports[1].checks[0]"),
    (lambda r: {**r, "checks": [{**r["checks"][0], "cases": True}]}, "$.reports[1].checks[0]"),
    (lambda r: {**r, "checks": [{**r["checks"][0], "extra": 1}]}, "$.reports[1].checks[0]"),
    (lambda r: {**r, "checks": [{**r["checks"][0], "failures": [{"case": 1, "detail": "x"}]}]},
     "$.reports[1].checks[0].failures[0]"),
    (lambda r: {**r, "checks": [{**r["checks"][0], "failures": [{"case": True, "detail": "x"}]}]},
     "$.reports[1].checks[0].failures[0]"),
    (lambda r: {**r, "checks": [{**r["checks"][0], "failures": [{"case": 0, "detail": 3}]}]},
     "$.reports[1].checks[0].failures[0]"),
    (lambda r: {**r, "checks": [{**r["checks"][0], "failures": [{"case": 0}]}]},
     "$.reports[1].checks[0].failures[0]"),
    (lambda r: {**r, "checks": [{**r["checks"][0], "failures": ["case 0"]}]},
     "$.reports[1].checks[0].failures[0]"),
    # Two failures of one case in a report of one case.
    (lambda r: {**r, "checks": [{**r["checks"][0], "status": "fail",
                                 "failures": [{"case": 0, "detail": "x"}, {"case": 0, "detail": "y"}]}]},
     "$.reports[1].checks[0].failures[1]"),
], ids=["list", "no-checks", "checks-object", "no-name", "unknown-name", "failures-null", "seed-nan",
        "seed-bool", "seed-string", "cases-float", "cases-negative", "mutate-int", "mutate-string",
        "mutate-unknown", "status-pass-cases-negative-one-failure", "status-fail", "cases-past-the-run",
        "cases-bool", "extra-field", "failure-case-out-of-range", "failure-case-bool", "failure-detail-int",
        "failure-no-detail", "failure-string", "failure-case-repeated"])
def test_merge_names_the_field_of_a_malformed_report(mangle, path):
    report = suite.run_suite(seed=1, cases=1, names=["unit-cancellation"])
    with pytest.raises(InputError) as exc:
        suite.merge_reports([report, mangle(report)])
    assert exc.value.path == path


def test_law_driver_records_failures_in_case_order(monkeypatch):
    monkeypatch.setattr(suite, "_LAWS", {})
    drawn = []

    @suite._law("probe", cap=5)
    def probe(rng, mutate):
        drawn.append(rng.random())
        i = len(drawn) - 1
        return f"case {i} fails" if i in (1, 3) else None

    assert suite._LAWS == {"probe": (probe, 5)}
    want = [{"case": 1, "detail": "case 1 fails"}, {"case": 3, "detail": "case 3 fails"}]
    assert probe(random.Random(0), 4, ()) == want
    drawn.clear()
    assert probe(random.Random(0), 0, ()) == [] and drawn == []
    report = suite.run_check("probe", seed=1, cases=9)
    assert report == {"name": "probe", "cases": 5, "failures": want, "status": "fail"}
    assert len(drawn) == 5


def test_seed_42_report_bytes_are_pinned(capsys):
    assert cli.main(["verify", "lemmas", "--seed", "42", "--cases", "10"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == (
        "f11bea476d2bc281d4c0141d520a9213946d81dd803a2f5fea87dac3fee57ab0"
    )


def test_a_negative_case_count_is_rejected():
    # range(-3) runs no case, so a negative count would pass every law.
    for call in (lambda: suite.run_check("bounded-decomposition", seed=1, cases=-3),
                 lambda: suite.run_suite(seed=1, cases=-3, names=["bounded-decomposition"]),
                 lambda: suite.run_suite(seed=1, cases=-1, names=suite.shard_names(30, 40))):
        with pytest.raises(InputError) as info:
            call()
        assert info.value.path == "$.cases"


def test_zero_cases_is_a_pinned_empty_run(capsys):
    assert cli.main(["verify", "lemmas", "--seed", "3", "--cases", "0"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == (
        "6a2572c5360524f7a18dc3fcf97027660e47d02db216106e2b058e382477a939"
    )
