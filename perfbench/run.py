"""The orlov-kit benchmark: CLI workloads timed end to end, traced per layer.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a checkout; ``all`` runs every workload in turn and
prints one line per workload before the combined line.  Each workload is a
fixed list of ``orlov-kit`` commands.  Every command runs in a fresh interpreter
(``child.py``), so the engine's ``lru_cache``s start cold as they do for a
CLI user, and commands run one at a time: a closed loop with one client.
Passes over the list repeat until S seconds are used (at least one pass).

With ``--trace 0`` the last stdout line reports the end-to-end metrics:

* ``wall_s``: seconds inside ``cli.main``, the median per command summed
  over the workload's commands.
* ``cpu_s``: user plus system CPU of the command processes, likewise.
* ``setup_s``: interpreter start, ``import orlov_kit`` and loading the
  descriptor; the median over every launch in the run plus set-up probes.
* ``peak_rss_mb``: the largest resident set of any process the run started.

A command that exits nonzero or fails its workload's correctness gate counts
in ``failed``; ``failed / attempted`` is the failure ratio.  Gates are
checked after the timed passes.

With ``--trace 1`` the untraced passes run as above, then two traced passes
(``spans.py`` patches the package from outside).  The run reports the
per-layer metrics and fails if a span expected on the workload recorded no
calls or if the two traced passes disagree on any count.  Counts that differ
from the seed references in the workload table are printed to stderr as
``MOVED`` lines.  Spans go to ``.perfbench/<workload>/spans/``.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURES = SRC / "orlov_kit" / "fixtures"
OUT = ROOT / ".perfbench"
CHILD = HERE / "child.py"

#: A run must end within 180 s; commands still going at this point are killed.
RUN_LIMIT_S = 170.0
#: Set-up-only launches per untraced run, beside the commands' own set-ups.
SETUP_PROBES = 9
#: Iterations of the host calibration loop timed before each launch.
CALIB_ITERS = 60_000


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    descriptor: Path | None  # loaded during set-up; None for ``verify``
    gate: Callable[[dict], list[str]]
    ref: dict = field(default_factory=dict)  # exact trace counts of this command

    @property
    def label(self) -> str:
        return " ".join(a if not a.endswith(".json") else Path(a).stem for a in self.argv)


@dataclass(frozen=True)
class Workload:
    why: str
    inputs: str
    build: Callable[[int, Path], list[Command]]
    spans: frozenset  # traced names that must record calls
    ref: dict = field(default_factory=dict)  # exact trace counts of the workload


# ---------------------------------------------------------------------------
# correctness gates (outside the timed region)
# ---------------------------------------------------------------------------


def _engine():
    """The checkout's orlov_kit, imported into this process for the gates."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import orlov_kit

    return orlov_kit


#: ``ospec`` witnesses printed by the seed, per descriptor.  A witness search
#: that wrongly realizes every gap bit still meets the spectrum criteria, and
#: the relation gate recomputes generation times with the engine under test,
#: so only the witnesses (here, those of ``linear4_rel1_2``) expose it.
WITNESSES = {
    "linear4": {
        "0": "1-1+1-2+1-3+1-4+2-1+2-2+2-3+3-1+3-2+4-1",
        "1": "1-1+1-2+1-3+2-2+3-1+4-1",
        "2": "1-1+1-2+2-1+3-1+4-1",
        "3": "1-1+2-1+3-1+4-1",
    },
    "linear5": {
        "0": "1-1+1-2+1-3+1-4+1-5+2-1+2-2+2-3+2-4+3-1+3-2+3-3+4-1+4-2+5-1",
        "1": "1-1+1-2+1-3+1-4+2-3+3-2+4-1+5-1",
        "2": "1-1+1-2+1-3+2-2+3-1+4-1+5-1",
        "3": "1-1+1-2+2-1+3-1+4-1+5-1",
        "4": "1-1+2-1+3-1+4-1+5-1",
    },
    "linear4_rel1_2": {
        "0": "1-1+1-2+2-1+2-2+2-3+3-1+3-2+4-1",
        "1": "1-1+2-1+2-2+3-1+4-1",
        "2": "1-1+2-1+3-1+4-1",
    },
    "linear4_rel2_2": {
        "0": "1-1+1-2+1-3+2-1+2-2+3-1+3-2+4-1",
        "1": "1-1+1-2+2-1+3-1+4-1",
        "2": "1-1+2-1+3-1+4-1",
    },
    "linear4_rel1_3": {
        "0": "1-1+1-2+1-3+2-1+2-2+2-3+3-1+3-2+4-1",
        "1": "1-1+1-2+2-2+3-1+4-1",
        "2": "1-1+2-1+3-1+4-1",
    },
}


def witness_problems(out: dict, path: Path) -> list[str]:
    want = WITNESSES[path.stem]
    got = out.get("witnesses")
    return [] if got == want else [f"witnesses {got} differ from the seed's {want}"]


def hereditary_gate(n: int, path: Path):
    def gate(out: dict) -> list[str]:
        problems = witness_problems(out, path)
        if out.get("spectrum") != list(range(n)):
            problems.append(f"spectrum {out.get('spectrum')} != 0..{n - 1}")
        if out.get("ext_dim") != 0 or out.get("u_dim") != n - 1:
            problems.append(f"ext_dim/u_dim {out.get('ext_dim')}/{out.get('u_dim')} != 0/{n - 1}")
        return problems

    return gate


def relation_gate(path: Path):
    def gate(out: dict) -> list[str]:
        ok = _engine()
        A = ok.load_algebra(str(path))
        spectrum = set(out.get("spectrum", ()))
        problems = witness_problems(out, path)
        for key, literal in out.get("witnesses", {}).items():
            M = ok.parse_module_literal(A, literal)
            got = ok.generation_time(A, ok.IndecSet.of(A, set(M.summands)))
            if got != int(key):
                problems.append(f"witness {literal} has generation time {got}, keyed {key}")
        vertices = range(1, A.n + 1)
        for size in range(A.n + 1):
            for vs in combinations(vertices, size):
                L = ok.algebra_llts(A, ok.TorsionSpec.of(A, vs))
                if not ok.theorem2_spectrum(L) <= spectrum:
                    problems.append(f"theorem2_spectrum({L}) for simples {list(vs)} not in {sorted(spectrum)}")
        simples = ok.IndecSet.of(A, [ok.simple(A, i) for i in vertices])
        gt, loewy = ok.generation_time(A, simples), ok.algebra_loewy_length(A)
        if gt != loewy - 1:
            problems.append(f"generation time of the simples {gt} != Loewy length {loewy} - 1")
        return problems

    return gate


def oracle_gate(pairs: int):
    def gate(out: dict) -> list[str]:
        problems = [] if out.get("ok") is True else ["report is not ok"]
        sweeps = [c["name"] for c in out.get("checks", ()) if c["name"].startswith("star sweep")]
        if sweeps != [f"star sweep ({pairs} pairs)"]:
            problems.append(f"star sweep rows {sweeps}, expected {pairs} pairs")
        return problems

    return gate


def verify_gate(seed: int):
    def gate(out: dict) -> list[str]:
        got = (out.get("ok"), out.get("passed"), out.get("failed"), out.get("seed"))
        return [] if got == (True, 37, 0, seed) else [f"(ok, passed, failed, seed) = {got}"]

    return gate


def coghost_lemma_gate(out: dict) -> list[str]:
    got = (out.get("ok"), out.get("subsets_checked"))
    return [] if got == (True, 1023) else [f"(ok, subsets_checked) = {got}"]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def _ospec(path: Path, gate, ref=None) -> Command:
    return Command(("ospec", "--algebra", str(path)), path, gate, ref or {})


def build_ospec_hereditary(seed: int, data: Path) -> list[Command]:
    linear4, linear5 = FIXTURES / "linear4.json", FIXTURES / "linear5.json"
    return [
        _ospec(linear4, hereditary_gate(4, linear4)),
        _ospec(
            linear5,
            hereditary_gate(5, linear5),
            {
                "closure.realizable.realized": 584,
                "closure.realizable.refuted": 0,
                "closure.star_mask.calls": 4048,
                "closure.generation_time.calls": 3346,
            },
        ),
    ]


#: (start, length) of the relation on the linear 4-vertex algebras.
RELATIONS = ((1, 2), (2, 2), (1, 3))


def build_ospec_relation(seed: int, data: Path) -> list[Command]:
    commands = []
    for start, length in RELATIONS:
        path = data / f"linear4_rel{start}_{length}.json"  # the benchmark's own input
        path.write_text(json.dumps({"shape": "linear", "n": 4, "relation": {"start": start, "length": length}}))
        commands.append(_ospec(path, relation_gate(path)))
    return commands


#: Star-sweep pair counts of ``oracle verify`` per fixture.
ORACLE_PAIRS = {"linear3": 3574, "linear3_ab": 2263, "linear4": 17630}


def build_oracle_sweep(seed: int, data: Path) -> list[Command]:
    commands = []
    for name, pairs in ORACLE_PAIRS.items():
        path = FIXTURES / f"{name}.json"
        ref = {}
        if name == "linear4":
            ref = {
                "closure.realizable.realized": 14,
                "closure.realizable.refuted": 542,
                "oracle.decompose.calls": 42384,
                "oracle.to_matrep.calls": 139348,
                "oracle.validate_matrep.calls": 181732,
            }
        commands.append(Command(("oracle", "verify", "--algebra", str(path)), path, oracle_gate(pairs), ref))
    return commands


VERIFY_SEEDS = 3


def build_verify_battery(seed: int, data: Path) -> list[Command]:
    rng = random.Random(seed)
    commands = []
    for _ in range(VERIFY_SEEDS):
        s = rng.randrange(1, 2**31)
        commands.append(Command(("verify", "--seed", str(s)), None, verify_gate(s)))
    path = FIXTURES / "linear4.json"
    commands.append(Command(("coghost-lemma", "--algebra", str(path)), path, coghost_lemma_gate))
    return commands


_ORACLE = ("to_matrep", "validate_matrep", "decompose", "middle_summand_union", "hom_space_dim", "ext_dim_oracle")
_MORPHISMS = ("radical_nilpotence_check", "compose", "morphism", "coghost_lemma_check", "irreducible_coghosts")
_SHARED = {
    "closure.star_mask", "closure.floor", "closure.hull", "homext.middle_term",
    "nakayama.load_algebra", "cli.emit", "cli.main",
}
_CLOSURE = {"closure.realizable", "closure.generation_time", "closure.orlov_spectrum"}

WORKLOADS = {
    "ospec_hereditary": Workload(
        why="every gap bit is realized: 592 early-exit witness searches plus the floor/hull tiers",
        inputs="exhaustive over fixtures linear4 and linear5; the seed only orders the commands",
        build=build_ospec_hereditary,
        spans=frozenset(_SHARED | _CLOSURE),
    ),
    "ospec_relation": Workload(
        why="the same closure layer used the other way: all 65 witness searches are refuted",
        inputs="descriptors for relations (1,2), (2,2), (1,3) on linear4, written by the benchmark; "
        "exhaustive, so the seed only orders the commands",
        build=build_ospec_relation,
        spans=frozenset(_SHARED | _CLOSURE),
        ref={
            "closure.realizable.realized": 0,
            "closure.realizable.refuted": 65,
            "closure.generation_time.calls": 117,
        },
    ),
    "oracle_sweep": Workload(
        why="the only workload where the GF(2) oracle does the work: 23,467 multiset pairs",
        inputs="exhaustive over fixtures linear3, linear3_ab and linear4; the seed only orders the commands",
        build=build_oracle_sweep,
        spans=frozenset(
            _SHARED
            | {"closure.realizable", "homext.hom_dim", "nakayama.validate_uniserial"}
            | {f"oracle.{f}" for f in _ORACLE}
        ),
    ),
    "verify_battery": Workload(
        why="the 37-row verify table plus coghost-lemma: morphisms, layers and homext carry the load",
        inputs=f"{VERIFY_SEEDS} verify seeds drawn from the workload seed, plus coghost-lemma on linear4",
        build=build_verify_battery,
        spans=frozenset(
            _SHARED
            | {"closure.generation_time", "closure.orlov_spectrum", "homext.hom_dim",
               "nakayama.validate_uniserial"}
            | {f"morphisms.{f}" for f in _MORPHISMS}
            | {f"layers.{f}" for f in ("oriented_cycle_report", "algebra_llts", "projective_dimension")}
        ),
    ),
}


# ---------------------------------------------------------------------------
# running commands
# ---------------------------------------------------------------------------


def _calib_step(i: int, table: dict) -> int:
    key = (i & 255, i >> 8 & 15)
    table[key] = table.get(key, 0) + 1
    return (i * 2654435761) & 0xFFFFFFFF


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop (calls, tuples, dicts, ints).

    It uses no orlov_kit code, so it measures the host's speed only."""
    t0 = time.perf_counter()
    table: dict = {}
    acc = 0
    for i in range(CALIB_ITERS):
        acc ^= _calib_step(i, table)
    return time.perf_counter() - t0


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


@dataclass
class Launch:
    """One child process: set-up only when ``command`` is None."""

    command: Command | None
    setup_s: float = 0.0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    calib_s: float = 0.0
    output: dict | None = None
    layers: dict | None = None
    problems: list = field(default_factory=list)


class Runner:
    def __init__(self, deadline: float) -> None:
        self.deadline = deadline

    def launch(self, command: Command | None, descriptor: Path | None = None,
               trace: bool = False, spans: Path | None = None, command_id: int = 0) -> Launch:
        run = Launch(command, calib_s=calibrate())
        if command is not None:
            descriptor = command.descriptor
        args = [
            sys.executable, str(CHILD), str(SRC), "1" if trace else "0",
            str(spans) if spans else "-", str(command_id),
            str(descriptor) if descriptor else "-", "--",
            *(command.argv if command else ()),
        ]
        timeout = self.deadline - time.perf_counter()
        cpu0 = _children_cpu()
        t_spawn = time.perf_counter()
        try:
            proc = subprocess.run(args, cwd=ROOT, stdout=subprocess.PIPE, timeout=max(timeout, 0.01))
        except subprocess.TimeoutExpired:
            run.problems.append("killed at the run's time limit")
            return run
        run.cpu_s = _children_cpu() - cpu0
        lines = proc.stdout.decode().splitlines()
        if proc.returncode != 0 or not lines:
            run.problems.append(f"child exited {proc.returncode}")
            return run
        try:
            report = json.loads(lines[-1])
        except json.JSONDecodeError:
            run.problems.append("child printed no report")
            return run
        run.setup_s = report["t_loaded"] - t_spawn
        if command is None:
            return run
        run.wall_s, run.layers = report["wall_s"], report.get("layers")
        if report["rc"] != 0:
            run.problems.append(f"exit code {report['rc']}")
        try:
            run.output = json.loads(report["stdout"])
        except json.JSONDecodeError:
            run.problems.append("output is not JSON")
        return run

    def passes(self, commands: list[Command], seconds: float) -> list[list[Launch]]:
        """Untraced passes over the commands until ``seconds`` are used."""
        end = time.perf_counter() + seconds
        out, lengths = [], []
        while True:
            t0 = time.perf_counter()
            out.append([self.launch(c) for c in commands])
            lengths.append(time.perf_counter() - t0)
            if time.perf_counter() + statistics.median(lengths) > end:
                return out


def check_gates(launches: list[Launch]) -> None:
    """Apply each command's gate once per distinct output."""
    seen: dict = {}
    for run in launches:
        if run.output is None or run.command is None:
            continue
        key = (run.command.argv, json.dumps(run.output, sort_keys=True))
        if key not in seen:
            seen[key] = run.command.gate(run.output)
        run.problems.extend(seen[key])


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def end_to_end(passes: list[list[Launch]], probes: list[Launch]) -> dict:
    per_command = list(zip(*passes))
    launches = probes + [r for p in passes for r in p]
    wall = sum(statistics.median(r.wall_s for r in runs) for runs in per_command)
    cpu = sum(statistics.median(r.cpu_s for r in runs) for runs in per_command)
    rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "wall_s": {"value": wall, "unit": "s"},
        "cpu_s": {"value": cpu, "unit": "s"},
        "setup_s": {"value": statistics.median(r.setup_s for r in launches), "unit": "s"},
        "peak_rss_mb": {"value": rss_kb / 1024, "unit": "MB"},
    }


_COUNT_KEYS = ("calls", "misses", "decided", "realized", "refuted")

_BUSY = (
    "closure.floor", "closure.hull", "closure.star_mask", "closure.generation_time",
    *(f"oracle.{f}" for f in _ORACLE),
    *(f"morphisms.{f}" for f in _MORPHISMS),
    "homext.hom_dim", "nakayama.validate_uniserial",
)
#: Per-layer counts (unit "count") and seconds (unit "s") reported by a traced run.
LAYER_COUNTS = (
    "closure.realizable.decided", "closure.realizable.realized", "closure.realizable.refuted",
    "closure.star_mask.misses", "homext.middle_term.calls",
    *(f"{name}.calls" for name in _BUSY),
)
LAYER_SECONDS = (
    "closure.realizable.self_s", "closure.orlov_spectrum.s",
    "layers.oriented_cycle_report.self_s", "layers.algebra_llts.self_s",
    "layers.projective_dimension.self_s", "nakayama.load_algebra.self_s", "cli.emit.self_s",
    *(f"{name}.self_s" for name in _BUSY),
)


def _flat(layers: dict, keys) -> dict:
    return {f"{name}.{k}": v[k] for name, v in layers.items() for k in keys if k in v}


def _sum_layers(runs: list[Launch]) -> dict:
    total: dict = {}
    for run in runs:
        for name, stats in (run.layers or {}).items():
            acc = total.setdefault(name, {})
            for k, v in stats.items():
                acc[k] = acc.get(k, 0) + v
    return total


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(traced: list[list[Launch]], untraced_wall: float, calib_s: float) -> dict:
    """Counts from the first traced pass (the passes must agree), seconds as
    the median over traced passes, plus the waste ratios and diagnostics."""
    totals = [_sum_layers(p) for p in traced]
    counts = _flat(totals[0], _COUNT_KEYS)
    timed = [_flat(t, ("self_s", "s")) for t in totals]
    metrics = {key: {"value": counts.get(key, 0), "unit": "count"} for key in LAYER_COUNTS}
    for key in LAYER_SECONDS:
        metrics[key] = {"value": statistics.median(t.get(key, 0.0) for t in timed), "unit": "s"}
    pairs = counts.get("oracle.middle_summand_union.calls", 0)
    traced_wall = statistics.median(sum(r.wall_s for r in p) for p in traced)
    for key, value, unit in (
        ("closure.realizable.realized_ratio",
         _ratio(counts.get("closure.realizable.realized", 0), counts.get("closure.realizable.decided", 0)),
         "ratio"),
        ("oracle.pairs_checked", pairs, "count"),
        ("oracle.to_matrep.per_pair", _ratio(counts.get("oracle.to_matrep.calls", 0), pairs), "calls/pair"),
        ("oracle.decompose.per_pair", _ratio(counts.get("oracle.decompose.calls", 0), pairs), "calls/pair"),
        ("trace.overhead_ratio", _ratio(traced_wall, untraced_wall), "ratio"),
        ("host.calib_s", calib_s, "s"),
    ):
        metrics[key] = {"value": value, "unit": unit}
    return metrics


def trace_problems(workload: Workload, traced: list[list[Launch]]) -> list[str]:
    """Expected spans present and counts repeatable across the traced passes."""
    problems = []
    totals = [_sum_layers(p) for p in traced]
    for name in sorted(workload.spans):
        if not totals[0].get(name, {}).get("calls"):
            problems.append(f"span {name} recorded no calls")
    first = _flat(totals[0], _COUNT_KEYS)
    for i, total in enumerate(totals[1:], 2):
        other = _flat(total, _COUNT_KEYS)
        diff = {k: (v, other.get(k)) for k, v in first.items() if other.get(k) != v}
        if diff:
            problems.append(f"traced pass {i} counts differ from pass 1: {diff}")
    return problems


def reference_moves(workload: Workload, traced: list[list[Launch]]) -> list[str]:
    """Counts of the first traced pass that differ from the seed's.

    A change that does less work on purpose moves these, so a move is
    reported, not failed; the output gates decide correctness."""
    checks = [("workload", workload.ref, _flat(_sum_layers(traced[0]), _COUNT_KEYS))]
    checks += [(run.command.label, run.command.ref, _flat(run.layers or {}, _COUNT_KEYS))
               for run in traced[0] if run.command.ref]
    return [f"{scope}: {key} = {got.get(key)}, seed reference {want}"
            for scope, ref, got in checks for key, want in ref.items() if got.get(key) != want]


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run of one workload; returns the result object and writes details."""
    t_start = time.perf_counter()
    runner = Runner(deadline=t_start + RUN_LIMIT_S)
    workload = WORKLOADS[name]
    out_dir = OUT / name
    spans_dir = out_dir / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    commands = workload.build(seed, out_dir)
    random.Random(seed).shuffle(commands)

    runner.launch(None)  # warm-up: fills the file cache (and __pycache__ where bytecode is written)
    probes = []
    if not trace:
        descriptors = [c.descriptor for c in commands]
        probes = [runner.launch(None, descriptors[i % len(descriptors)]) for i in range(SETUP_PROBES)]
    passes = runner.passes(commands, seconds)
    traced = []
    if trace:
        for p in (1, 2):
            traced.append([
                runner.launch(c, trace=True, spans=spans_dir / f"pass{p}-cmd{i}.tsv.gz", command_id=i)
                for i, c in enumerate(commands)
            ])

    launches = probes + [r for p in passes + traced for r in p]
    check_gates(launches)
    problems = [f"{r.command.label if r.command else 'set-up'}: {msg}" for r in launches for msg in r.problems]
    commands_run = [r for r in launches if r.command is not None]
    metrics = end_to_end(passes, probes)
    calib_s = statistics.median(r.calib_s for r in launches)
    moves = []
    if trace:
        problems += trace_problems(workload, traced)
        moves = reference_moves(workload, traced)
        metrics = per_layer(traced, metrics["wall_s"]["value"], calib_s)
    result = {
        "correct": not problems,
        "attempted": len(commands_run),
        "failed": sum(1 for r in commands_run if r.problems),
        "metrics": metrics,
    }
    details = {
        "workload": name, "why": workload.why, "inputs": workload.inputs,
        "seed": seed, "seconds": seconds, "trace": int(trace),
        "python": sys.version.split()[0], "elapsed_s": time.perf_counter() - t_start,
        "commands": [c.label for c in commands],
        "passes": [[{"wall_s": r.wall_s, "cpu_s": r.cpu_s, "setup_s": r.setup_s, "calib_s": r.calib_s}
                    for r in p] for p in passes + traced],
        "setup_probes_s": [r.setup_s for r in probes],
        "calib_s": calib_s,
        "problems": problems,
        "moved_from_reference": moves,
        **result,
    }
    (out_dir / f"seed{seed}-trace{int(trace)}.json").write_text(json.dumps(details, indent=1))
    for msg in problems:
        print(f"FAIL {name}: {msg}", file=sys.stderr)
    for msg in moves:
        print(f"MOVED {name}: {msg}", file=sys.stderr)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "orlov_kit" / "cli.py").is_file():
        print(f"no orlov_kit sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.workload != "all":
        print(json.dumps(run_workload(args.workload, args.seed, args.seconds, bool(args.trace))))
        return 0
    results = {}
    for name in WORKLOADS:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps({"workload": name, **results[name]}), flush=True)
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{k}": v for name, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
