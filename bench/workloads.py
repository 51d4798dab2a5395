"""The benchmark's workloads: inputs made from a seed, the timed
operations, and a correctness check on every output.

Each workload is a closed loop with one client: an operation starts only
after the previous one has finished and been checked. An operation is a
suite check (`lemmas`), a search instance (`search`) or one CLI process
(`cli`). `Pass` records each operation's latency and, if its output
failed the check, why.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import signal
import subprocess
import sys
import tempfile
import time
import traceback
import dataclasses
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import cuntzkit  # noqa: E402
from cuntzkit import chains, checks, duality, gen, lsc, models, suite  # noqa: E402
from cuntzkit import geometry as geo  # noqa: E402

import speed  # noqa: E402

if Path(cuntzkit.__file__).resolve().parent != SRC / "cuntzkit":
    raise ImportError(f"cuntzkit was imported from {cuntzkit.__file__}, not from {SRC}")

DEFAULT_SEED = 42
# `verify lemmas` defaults to 100 cases; a lemmas round runs the whole
# suite at that size, so round 0 at the default seed is exactly the
# report `cuntzkit verify lemmas --seed 42` prints.
LEMMAS_CASES = 100
# Seeded covers per search round, for each of lebesgue_number and
# refine_to_almost_chain.
SEARCH_COVERS = 50
# Seconds between speed probes (see bench/speed.py), and how many probes
# on each side of an operation scale its time: one probe varies by about
# 10%, and the host's speed changes over seconds.
PROBE_EVERY_S = 0.3
PROBE_SPAN = 3


def child_env() -> dict:
    """The environment of every process the benchmark starts: the search
    depth comes from the code's defaults, and hashing is fixed."""
    env = dict(os.environ)
    env.pop("CUNTZKIT_MAX_DEPTH", None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(SRC)
    return env


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_pins(seed: int) -> dict:
    """Output digests recorded at the seed commit for this seed, if any."""
    with open(BENCH / "digests.json", encoding="utf-8") as fh:
        return json.load(fh).get(str(seed), {})


class OpFailed(Exception):
    pass


class Pass:
    """The operations of one pass over a workload's inputs.

    A speed probe runs before an operation when PROBE_EVERY_S has passed
    since the last one. With probe_during_ops, a timer signal also runs
    one every PROBE_EVERY_S inside a long operation; the probe's own time
    is taken out of the operation's. The timer stays off for operations
    that run in a child process, which the probe would compete with, and
    in traced passes, whose wrappers would count the probe's time.
    """

    def __init__(self, tracer=None, pins=None, probe_during_ops=False):
        self.ops: list[list] = []  # [name, seconds, failure detail or None]
        self.probes: list[tuple] = []  # (perf_counter after the probe, probe seconds)
        self.op_probes: list[tuple] = []  # per operation: probe indices around it
        self.tracer = tracer
        self.pins = pins or {}
        self.digests: dict[str, str] = {}
        self._timer = probe_during_ops and tracer is None
        self._paused = 0.0

    def _probe(self) -> None:
        self.probes.append((time.perf_counter(), speed.probe()))

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self._probe()
        self._paused += time.perf_counter() - t0

    def scaled(self) -> list[float]:
        """Each operation's seconds at reference speed, scaled by the mean
        of the probes taken during it and of PROBE_SPAN probes on each
        side. Call once, at the end."""
        self._probe()
        out = []
        for op, (first, last) in zip(self.ops, self.op_probes):
            around = [p for _, p in self.probes[max(0, first - PROBE_SPAN + 1):last + PROBE_SPAN]]
            out.append(op[1] * speed.factor(around))
        return out

    def op(self, name: str, fn: Callable, *args, check: Callable | None = None):
        """Time fn(*args) as one operation, then check its output. check
        returns None when the output is right, else what is wrong."""
        if not self.probes or time.perf_counter() - self.probes[-1][0] >= PROBE_EVERY_S:
            self._probe()
        first = len(self.probes) - 1
        if self.tracer is not None:
            self.tracer.begin_op(len(self.ops), name)
        if self._timer:
            self._paused = 0.0
            previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        t0 = time.perf_counter()
        try:
            out = fn(*args)
            failure = None
        except Exception:  # a crash on a benchmark input counts as a failed operation
            out, failure = None, traceback.format_exc(limit=-3)
        finally:
            if self._timer:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        seconds = time.perf_counter() - t0 - self._paused
        # The first probe after this operation is the next one taken.
        self.op_probes.append((first, len(self.probes)))
        if self.tracer is not None:
            self.tracer.end_op()
        self.ops.append([name, seconds, failure])
        if failure is None and check is not None:
            try:
                self.fail(check(out))
            except Exception:
                self.fail(traceback.format_exc(limit=-3))
        return out

    def fail(self, detail) -> None:
        """Mark the latest operation failed, keeping its first reason."""
        if detail and self.ops[-1][2] is None:
            self.ops[-1][2] = str(detail)

    def pin(self, key: str, data: bytes) -> None:
        """Compare an output's bytes with the digest pinned for this seed."""
        digest = self.digests[key] = sha256(data)
        want = self.pins.get(key)
        if want is not None and want != digest:
            self.fail(f"{key}: output bytes differ from the pinned digest")

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if op[2] is not None)

    def failures(self) -> list:
        return [op for op in self.ops if op[2] is not None]


def sub_seeds(seed: int, count: int) -> list[int]:
    """Round 0 uses the seed itself; later rounds use seeds drawn from it."""
    rng = random.Random(f"cuntzkit-bench:{seed}")
    return [seed] + [rng.randrange(1 << 30) for _ in range(count - 1)]


# ------------------------------------------------------------------ lemmas


def lemmas_round(run: Pass, seed: int, cases: int = LEMMAS_CASES, mutate=()) -> None:
    """One `suite.run_suite(seed, cases)`; each check is one operation."""
    real = suite.run_check

    def timed_check(name, *args):
        report = run.op(f"suite.{name}", real, name, *args, check=_check_report)
        if report is None:
            raise OpFailed(name)
        return report

    suite.run_check = timed_check
    try:
        report = suite.run_suite(seed, cases, mutate=mutate)
    except OpFailed:
        return
    finally:
        suite.run_check = real
    if len(report["checks"]) != len(suite.CHECK_NAMES) or report["failures"]:
        run.fail(f"report ran {len(report['checks'])} checks with {report['failures']} failures")
    run.pin(f"lemmas.report.seed{seed}.cases{cases}", json.dumps(report, indent=2, sort_keys=True).encode())


def _check_report(report: dict):
    if report["failures"]:
        first = report["failures"][0]
        return f"{len(report['failures'])} failures, first: case {first['case']}: {first['detail']}"
    return None


# ------------------------------------------------------------------ search


@dataclass(frozen=True)
class Instance:
    """A search instance: `run` is the timed call, `judge` maps its output
    to (verdict kind, failure detail or None), `expect` is the known kind,
    and `repeat` is how often a round runs it."""
    name: str
    run: Callable
    judge: Callable
    expect: str
    repeat: int = 1


def _verdict_error(inst: Instance, out):
    kind, detail = inst.judge(out)
    if kind != inst.expect:
        return f"verdict {kind}, expected {inst.expect}"
    return detail


def _witness_judge(target, cover):
    def judge(out):
        if out is None:
            return "none", None
        if isinstance(out, chains.Impossible):
            return "impossible", None
        ok = chains.verify_witness(out, target, cover)
        return "witness", None if ok else "witness fails verify_witness"
    return judge


def _verdict_judge(validate=None):
    def judge(v):
        detail = validate(v) if validate and v.kind != "inconclusive" else None
        return v.kind, detail
    return judge


def _chi(sp, *ivs):
    raw = [list(ivs) if c.kind != "point" else False for c in sp.components]
    return lsc.indicator(geo.normalize(sp, raw))


def sat_table(n: int, unit=None) -> models.TableModel:
    """The saturating table 0..n-1, n-up that tests/test_checks.py builds."""
    le = [[a <= b for b in range(n + 1)] for a in range(n + 1)]
    add = [[min(a + b, n) for b in range(n + 1)] for a in range(n + 1)]
    names = [str(k) for k in range(n)] + [f"{n}up"]
    return models.TableModel(tuple(names), le, add, unit=unit)


def fixed_instances() -> list[Instance]:
    """Certificate instances with known verdicts (acceptance criteria 01,
    02, 08 and 09, plus chain builds and a table axiom report)."""
    F = Fraction
    out = []

    circle = geo.space(geo.circle(1))
    full = geo.normalize(circle, ["full"])
    out.append(Instance("chains.exhaustive_chain_search.circle",
                        lambda: chains.exhaustive_chain_search(full, F(1, 2), depth=4),
                        _witness_judge(full, chains.make_cover([full])), "none"))

    arc = geo.space(geo.arc(1))
    unit_arc = geo.normalize(arc, [((F(0), F(1), True, True),)])
    arc_cover = chains.make_cover([unit_arc])
    out.append(Instance("chains.exhaustive_chain_search.arc",
                        lambda: chains.exhaustive_chain_search(unit_arc, F(1, 8), depth=5),
                        _witness_judge(unit_arc, arc_cover), "witness"))

    for n in (100, 200, 400):
        w = chains.epsilon_chain(unit_arc, F(1, n))
        own = chains.ChainWitness(w.kind, w.pieces, w.mesh, tuple(range(len(w.pieces))))
        cover = chains.make_cover(w.pieces)
        size = len(w.pieces)
        out.append(Instance(
            f"chains.epsilon_chain.n{size}",
            lambda n=n: chains.epsilon_chain(unit_arc, F(1, n)),
            lambda got, w=w: ("witness", None if got == w else "chain differs from the one built in setup"),
            "witness"))
        out.append(Instance(
            f"chains.verify_witness.n{size}",
            lambda own=own, cover=cover: chains.verify_witness(own, unit_arc, cover),
            lambda ok: ("valid" if ok else "invalid", None), "valid"))

    two_arcs = geo.space(geo.arc(1), geo.arc(2))
    x = lsc.add(_chi(two_arcs, (F(1, 8), F(3, 8))),
                lsc.indicator(geo.normalize(two_arcs, [[], [(F(1, 2), F(3, 2))]])))
    y = lsc.unit(two_arcs)
    ys = [_chi(two_arcs, (F(0), F(1, 2), True, False)),
          lsc.indicator(geo.normalize(two_arcs, [[], [(F(0), F(2), True, True)]])),
          lsc.add(y, y)]

    def weak_chain_valid(v):
        xp = lsc.element_from_json(two_arcs, v.data["xp"])
        zs = [lsc.element_from_json(two_arcs, z) for z in v.data["zs"]]
        ok, why = checks._validate_weak_chain(x, y, ys, xp, zs)
        return None if ok else f"witness fails revalidation: {why}"

    out.append(Instance("checks.check_weak_chainability.arcs",
                        lambda: checks.check_weak_chainability(two_arcs, x, y, ys),
                        _verdict_judge(weak_chain_valid), "witness"))

    whole = lsc.indicator(full)
    short = [_chi(circle, (F(0), F(3, 10))), _chi(circle, (F(1, 4), F(11, 20))),
             _chi(circle, (F(1, 2), F(21, 20)))]
    out.append(Instance("checks.check_weak_chainability.circle",
                        lambda: checks.check_weak_chainability(circle, whole, whole, short),
                        _verdict_judge(), "counterexample"))

    z = models.load_model("z")
    zxs = [z.parse(s, "$") for s in ("1", "1", "11/10'")]
    zxps = [z.parse(s, "$") for s in ("1", "1", "1/2'")]
    out.append(Instance(
        "checks.check_refinable_sums.z",
        lambda: checks.check_refinable_sums(z, zxs, zxps),
        _verdict_judge(lambda v: None if v.data.get("forced") == ["1"] else "wrong forced term"),
        "counterexample"))

    lm = models.LscModel(arc)
    lxs = [lsc.indicator(geo.normalize(arc, [[(F(0), F(c, 16), True, False)]])) for c in (3, 7, 12)]

    def refinable_valid(v):
        rows = [[lsc.element_from_json(arc, e) for e in row] for row in v.data["rows"]]
        ok, why = checks._validate_refinable(lm, lxs, lxs, rows)
        return None if ok else f"rows fail revalidation: {why}"

    out.append(Instance("checks.check_refinable_sums.lsc",
                        lambda: checks.check_refinable_sums(lm, lxs, lxs),
                        _verdict_judge(refinable_valid), "witness"))

    zp = models.load_model("zprime")
    out.append(Instance(
        "checks.check_almost_ordered_sums.zprime",
        lambda: checks.check_almost_ordered_sums(zp, [models.compact(1), models.TWIN]),
        _verdict_judge(lambda v: None if len(v.data.get("decompositions", [])) == 3
                       else "expected three refuted decompositions"),
        "counterexample"))

    table = sat_table(24, unit=1)
    out.append(Instance(
        "checks.check_axioms.table",
        lambda: checks.check_axioms(table),
        lambda rep: (",".join(f"{k}={rep[k]['status']}" for k in sorted(rep)), None),
        "lattice_law=skipped,o3=pass,o5=pass,topological_order=pass,weak_cancellation=fail"))
    # Instances under 50 ms at the seed commit run four times a round; the
    # first call of one costs up to 30 times a later one, and the per-layer
    # figure for an instance is the median of its runs.
    slow = {"chains.exhaustive_chain_search.circle", "checks.check_weak_chainability.circle"}
    slow |= {f"chains.verify_witness.n{n}" for n in (201, 401, 801)}
    return [inst if inst.name in slow else dataclasses.replace(inst, repeat=4) for inst in out]


def _full_circle_component(target) -> bool:
    sp = target.space
    for ci, comp in enumerate(sp.components):
        if comp.kind == "circle":
            raw = [[] if c.kind != "point" else False for c in sp.components]
            raw[ci] = "full"
            if geo.subset(geo.normalize(sp, raw), target):
                return True
    return False


def _lebesgue_judge(cover):
    def judge(delta):
        if delta <= 0:
            return "nonpositive", None
        sp = cover.space
        for ci, p in gen.grid_points(sp, *cover.pieces):
            dot = geo.complement(duality.point_complement(sp, ci, p))
            ball = geo.neighborhood(dot, delta / 3)
            if not any(geo.subset(ball, piece) for piece in cover.pieces):
                return "positive", f"a ball of diameter below {delta} at ({ci}, {p}) escapes every piece"
        return "positive", None
    return judge


def random_cover(rng: random.Random, sp, target) -> chains.Cover:
    """Random open pieces, plus a thin open neighbourhood of whatever part
    of the target's closure they leave uncovered, so the cover rarely has
    a piece as large as the target."""
    pieces = [gen.rand_nonempty_open_set(rng, sp, max_intervals=3) for _ in range(rng.randint(1, 4))]
    covered = geo.empty_set(sp)
    for p in pieces:
        covered = geo.union(covered, p)
    rest = geo.intersect(geo.closure(target), geo.complement(covered))
    if not geo.is_empty(rest):
        pieces.append(geo.neighborhood(rest, Fraction(1, rng.choice((8, 16, 32)))))
    return chains.make_cover(pieces)


def seeded_instances(seed: int, count: int = SEARCH_COVERS) -> list[Instance]:
    """Lebesgue numbers of random covers of whole spaces, and almost-chain
    refinements of random covers of random targets."""
    rng = random.Random(f"cuntzkit-bench-search:{seed}")
    out = []
    for _ in range(count):
        sp = gen.rand_space(rng, max_components=3)
        cover = random_cover(rng, sp, geo.full_set(sp))
        out.append(Instance("chains.lebesgue_number",
                            lambda cover=cover: chains.lebesgue_number(cover),
                            _lebesgue_judge(cover), "positive"))

        sp = gen.rand_space(rng, max_components=3)
        target = gen.rand_open_set(rng, sp, full_bias=0.3)
        cover = random_cover(rng, sp, target)
        out.append(Instance("chains.refine_to_almost_chain",
                            lambda cover=cover, target=target: chains.refine_to_almost_chain(cover, target),
                            _witness_judge(target, cover),
                            "impossible" if _full_circle_component(target) else "witness"))
    return out


def search_round(run: Pass, instances: list[Instance]) -> None:
    """Each run of an instance is one operation."""
    for inst in instances:
        for _ in range(inst.repeat):
            run.op(inst.name, inst.run, check=lambda out, inst=inst: _verdict_error(inst, out))


# --------------------------------------------------------------------- cli

EXIT_OK, EXIT_NEGATIVE, EXIT_USAGE = 0, 1, 2


@dataclass(frozen=True)
class Call:
    """One CLI call: `name` is `<group>-<cmd>` or `malformed`."""
    name: str
    argv: tuple
    exit: int


def _write(d: Path, name: str, obj) -> str:
    path = d / name
    path.write_text(json.dumps(obj, sort_keys=True), encoding="utf-8")
    return str(path)


def cli_calls(seed: int, d: Path) -> list[Call]:
    """Write seeded instance files into d and return the fixed verb mix."""
    rng = random.Random(f"cuntzkit-bench-cli:{seed}")
    F = Fraction
    ej = lsc.element_to_json
    sp = gen.rand_space(rng, max_components=2)
    s = _write(d, "space.json", geo.space_to_json(sp))
    calls = []

    def nonzero(draw):
        for _ in range(100):
            f = draw(rng, sp)
            if not geo.is_empty(lsc.supp(f)):
                return f
        raise ValueError("no nonzero element drawn")

    a, b = nonzero(gen.rand_lsc), nonzero(gen.rand_lsc)
    calls.append(Call("lsc-add", ("lsc", "add", "-s", s, "--instance",
                                  _write(d, "add.json", {"a": ej(a), "b": ej(b)})), EXIT_OK))
    a = nonzero(gen.rand_lsc)
    b = lsc.add(a, gen.rand_lsc(rng, sp)) if rng.random() < 0.5 else nonzero(gen.rand_lsc)
    calls.append(Call("lsc-leq", ("lsc", "leq", "-s", s, "--instance",
                                  _write(d, "leq.json", {"a": ej(a), "b": ej(b)})),
                      EXIT_OK if lsc.leq(a, b) else EXIT_NEGATIVE))
    b = nonzero(gen.rand_bounded_lsc)
    a = lsc.interpolate_between(lsc.zero(sp), b) if rng.random() < 0.5 else nonzero(gen.rand_bounded_lsc)
    calls.append(Call("lsc-wb", ("lsc", "wb", "-s", s, "--instance",
                                 _write(d, "wb.json", {"a": ej(a), "b": ej(b)})),
                      EXIT_OK if lsc.way_below(a, b) else EXIT_NEGATIVE))
    y = nonzero(gen.rand_bounded_lsc)
    z = lsc.add(y, nonzero(gen.rand_lsc))
    calls.append(Call("lsc-complement", ("lsc", "complement", "-s", s, "--instance",
                                         _write(d, "complement.json", {"y": ej(y), "z": ej(z)})), EXIT_OK))
    xs = gen.rand_decreasing_indicators(rng, sp, rng.randrange(1, 4))
    ys = gen.rand_decreasing_indicators(rng, sp, rng.randrange(1, 4))
    calls.append(Call("lsc-ordered-sum", ("lsc", "ordered-sum", "-s", s, "--instance", _write(
        d, "ordered.json", {"xs": [ej(t) for t in xs], "ys": [ej(t) for t in ys]})), EXIT_OK))

    target = gen.rand_connected_target(rng, sp, allow_full_circle=True)
    calls.append(Call("chains-epsilon-chain", ("chains", "epsilon-chain", "-s", s, "--instance", _write(
        d, "eps.json", {"target": geo.set_to_json(target), "eps": "1/8"})),
        EXIT_OK if chains.decide_chainable(target) else EXIT_NEGATIVE))
    arc = geo.space(geo.arc(1))
    unit_arc = geo.normalize(arc, [((F(0), F(1), True, True),)])
    w = chains.epsilon_chain(unit_arc, F(1, 100))
    own = chains.ChainWitness(w.kind, w.pieces, w.mesh, tuple(range(len(w.pieces))))
    calls.append(Call("chains-verify", ("chains", "verify", "-s", _write(d, "arc.json", geo.space_to_json(arc)),
                                        "--instance", _write(d, "verify.json", {
                                            "witness": chains.witness_to_json(own),
                                            "target": geo.set_to_json(unit_arc),
                                            "cover": chains.cover_to_json(chains.make_cover(w.pieces))})),
                      EXIT_OK))
    cover = random_cover(rng, sp, geo.full_set(sp))
    calls.append(Call("chains-lebesgue", ("chains", "lebesgue", "-s", s, "--instance", _write(
        d, "lebesgue.json", {"cover": chains.cover_to_json(cover)})), EXIT_OK))

    calls.append(Call("check-refinable-sums", ("check", "refinable-sums", "--model", "z", "--instance", _write(
        d, "refinable.json", {"xs": ["1", "1", "11/10'"], "xps": ["1", "1", "1/2'"]})), EXIT_NEGATIVE))
    x, y, ys = suite._rand_weak_chain_instance(rng)
    calls.append(Call("check-weak-chain", ("check", "weak-chain", "-s", _write(d, "arc1.json", geo.space_to_json(suite.ARC1)),
                                           "--instance", _write(d, "weak.json", {
                                               "x": ej(x), "y": ej(y), "ys": [ej(t) for t in ys]})), EXIT_OK))
    calls.append(Call("verify-lemmas", ("verify", "lemmas", "--seed", str(seed), "--cases", "20",
                                        "--check", "chain-decider-consistency"), EXIT_OK))
    calls.append(Call("malformed", ("lsc", "add", "-s", s, "--instance",
                                    _write(d, "malformed.json", {"a": ej(a)})), EXIT_USAGE))
    return calls


def cli_command(call: Call, stats_path: str | None = None) -> list[str]:
    """`python -m cuntzkit.cli ARGV`, or the tracing launcher when stats_path is given."""
    if stats_path is None:
        return [sys.executable, "-m", "cuntzkit.cli", *call.argv]
    return [sys.executable, str(BENCH / "cli_launcher.py"), stats_path, *call.argv]


def run_cli(call: Call, stats_path: str | None = None) -> subprocess.CompletedProcess:
    return subprocess.run(cli_command(call, stats_path), capture_output=True, env=child_env(),
                          cwd=ROOT, timeout=120, check=False)


def cli_round(run: Pass, calls: list[Call], seen: dict, stats_dir: Path | None = None,
              on_stats: Callable | None = None) -> None:
    """Each call is one operation. seen maps a call name to its first
    stdout, which every repeat must match byte for byte."""
    for i, call in enumerate(calls):
        stats_path = None if stats_dir is None else str(stats_dir / f"{len(run.ops)}.json")

        def check(proc, call=call):
            if proc.returncode != call.exit:
                return f"exit {proc.returncode}, expected {call.exit}: {proc.stderr.decode()[-300:]}"
            if b"Traceback" in proc.stderr:
                return "traceback on stderr"
            if proc.returncode != EXIT_USAGE:
                json.loads(proc.stdout)
            if seen.setdefault(call.name, proc.stdout) != proc.stdout:
                return "stdout differs from an earlier identical call"
            return None

        proc = run.op(f"cli.{call.name}", run_cli, call, stats_path, check=check)
        if proc is not None:
            run.pin(f"cli.{call.name}", proc.stdout)
            if on_stats is not None and stats_path is not None:
                with open(stats_path, encoding="utf-8") as fh:
                    on_stats(run.ops[-1], json.load(fh))


def cli_workdir() -> tempfile.TemporaryDirectory:
    OUT.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(prefix="cli-", dir=OUT)
