"""The arithmetic of the pair runner in tools/pairs.py, on fixed numbers,
and its refusal of bad arguments. Nothing here runs the benchmark or
times anything."""

import importlib.util
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "pairs.py"
_SPEC = importlib.util.spec_from_file_location("pairs", _PATH)
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)


def test_medians_quartiles_and_wins_of_a_lower_is_better_metric():
    base = [0.93, 0.95, 0.90, 0.97, 0.92]
    head = [0.86, 0.96, 0.85, 0.88, 0.92]
    m = pairs.summarize(base, head, "lower")
    assert (m["better"], m["pairs"], m["head_wins"]) == ("lower", 5, 3)
    # statistics.quantiles' default method on 0.90 0.92 0.93 0.95 0.97.
    assert m["base"] == {"median": 0.93, "q1": pytest.approx(0.91), "q3": pytest.approx(0.96), "values": base}
    assert (m["head"]["median"], m["head"]["q1"], m["head"]["q3"]) == (0.88, pytest.approx(0.855), pytest.approx(0.94))


def test_a_higher_is_better_metric_counts_the_other_way_and_a_tie_is_no_win():
    m = pairs.summarize([1, 2, 3, 4], [2, 2, 1, 5], "higher")
    assert m["head_wins"] == 2
    assert (m["base"]["median"], m["base"]["q1"], m["base"]["q3"]) == (2.5, 1.25, 3.75)
    assert pairs.summarize([1, 2, 3, 4], [2, 2, 1, 5], "lower")["head_wins"] == 1


def test_summarize_refuses_unpaired_values_and_an_unknown_direction():
    with pytest.raises(ValueError):
        pairs.summarize([1, 2, 3], [1, 2], "lower")
    with pytest.raises(ValueError, match="better"):
        pairs.summarize([1, 2], [1, 2], "faster")


def test_the_first_side_alternates_starting_with_base():
    assert [pairs.first_side(i) for i in range(4)] == ["base", "head", "base", "head"]


def test_the_defaults_are_ten_pairs_at_seed_42():
    args = pairs.parse_args(["HEAD~1", "HEAD"])
    assert (args.base, args.head, args.pairs, args.seed, args.label) == ("HEAD~1", "HEAD", 10, 42, None)


@pytest.mark.parametrize("argv", [
    [],
    ["HEAD"],
    ["a", "b", "c"],
    ["a", "b", "--pairs", "1"],
    ["a", "b", "--pairs", "0"],
    ["a", "b", "--pairs", "-3"],
    ["a", "b", "--pairs", "ten"],
    ["a", "b", "--seed", "x"],
    ["a", "b", "--label", "../up"],
    ["a", "b", "--label", "a/b"],
    ["a", "b", "--label", ""],
    ["a", "b", "--label", ".hidden"],
])
def test_bad_arguments_are_refused(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        pairs.parse_args(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err
