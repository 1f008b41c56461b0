"""Run alternating parent/change benchmark pairs and write them to a BENCH file.

    python3 tools/bench_pairs.py PARENT CHANGE --workload NAME --pairs N --seed S \
        --out BENCH_<n>.json [--claim METRIC] [--traced]

PARENT and CHANGE are checkouts of the two commits.  Pair i runs
``perfbench/run.py --workload NAME --seed S+i --seconds R --trace 0`` once
from each checkout, one run at a time; the parent goes first on even i and
the change on odd i.  R is ``run_seconds`` from the change's
``BENCHMARK.json``, so both sides run as long as the benchmark says.

Both sides start alike: before the first run the tool removes every
``__pycache__`` directory under each checkout's ``src/`` and
``perfbench/``, and every run gets ``PYTHONDONTWRITEBYTECODE=1``, so no
side reads bytecode that an earlier launch left behind (cached bytecode
lowers ``setup_s`` and ``peak_rss_mb``).

The summary has each side's median, q1 and q3 (inclusive quartiles) of every
end-to-end metric, the pairs the change won (lower is better for all of
them, ties count for neither side), the ratio of the medians, a verdict,
and the ``failed``/``attempted`` counts.  The verdict applies the
no-regression rule with each metric's ``bound`` from the change's
``BENCHMARK.json``, a fraction of the parent's median:

* ``worse`` - the change's median is above the parent's by more than the
  bound;
* ``unresolved`` - otherwise, when the parent's quartile distance over its
  median exceeds the bound, unless every change run beats every parent run;
* ``not_worse`` - neither.

With ``--claim METRIC`` the summary becomes the file's ``claim``, otherwise
the workload's entry under ``no_regression``.  A claim's ``met`` applies the
gain rule to METRIC: the change is better in at least nine tenths of the
pairs (ties count for neither side), and the parent's median is above the
change's by more than the parent's quartile distance q3 - q1.
The pairs are appended to the file's ``pairs``; an existing file keeps its
other keys, so one file collects a claim and several no-regression series.

With ``--traced`` the tool then makes one ``--seed S --trace 1`` run of the
workload per side, parent first.  NAME may be ``all`` there, with
``--pairs 0`` for traced runs only.  The file's ``traced`` block gets the
command, each side's ``MOVED`` lines, every per-layer count (unit
``count``) that differs between the sides, and under ``seconds`` each
side's per-layer seconds (unit ``s``), all keyed ``<workload>.<metric>``.
Every metric of a traced run is per layer except the end-to-end ones and
``host.calib_s``.

A run that is not ``correct``, has a failed command or exits nonzero stops
the tool before anything is written.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

METRICS = ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")
SIDES = ("parent", "change")
#: the directories of a checkout whose bytecode a run would load
CODE_DIRS = ("src", "perfbench")


class RunError(Exception):
    """A benchmark run that cannot go into a BENCH file."""


def _result(stdout: str) -> dict:
    """The last stdout line of a run; refuses one that is not correct or
    has a failed command."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise RunError("the run printed no result line") from None
    if result.get("correct") is not True or result.get("failed") != 0:
        raise RunError(f"correct={result.get('correct')!r}, failed={result.get('failed')!r}")
    return result


def parse_run(stdout: str) -> dict:
    """The result line of one ``--trace 0`` run as the fields a pair keeps."""
    result = _result(stdout)
    return {
        "attempted": result["attempted"],
        "failed": result["failed"],
        **{m: result["metrics"][m]["value"] for m in METRICS},
    }


def parse_traced(stdout: str, stderr: str, workload: str) -> dict:
    """The ``MOVED`` lines and the per-layer counts and seconds of one
    ``--trace 1`` run, keyed ``<workload>.<metric>`` (``all`` prefixes them
    already)."""
    prefix = "" if workload == "all" else f"{workload}."
    kept = {"count": {}, "s": {}}
    for key, metric in _result(stdout)["metrics"].items():
        key = prefix + key
        name = key.split(".", 1)[1]
        if metric["unit"] in kept and name not in METRICS and not name.startswith("host."):
            kept[metric["unit"]][key] = metric["value"]
    moved = [line for line in stderr.splitlines() if line.startswith("MOVED ")]
    return {"moved": moved, "counts": kept["count"], "seconds": kept["s"]}


def traced_block(command: str, runs: dict) -> dict:
    """The BENCH ``traced`` block from the parsed runs of both sides."""
    parent, change = runs["parent"]["counts"], runs["change"]["counts"]
    return {
        "command": command,
        "moved_lines": {s: runs[s]["moved"] for s in SIDES},
        "counts_that_differ": {
            key: {"parent": parent.get(key), "change": change.get(key)}
            for key in sorted(parent.keys() | change.keys()) if parent.get(key) != change.get(key)
        },
        "seconds": {s: runs[s]["seconds"] for s in SIDES},
    }


def _quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def verdict(parent: list[float], change: list[float], bound: float) -> str:
    """The no-regression verdict of one metric (module docstring)."""
    median = statistics.median(parent)
    if statistics.median(change) > median * (1 + bound):
        return "worse"
    q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    if q3 - q1 > bound * median and max(change) >= min(parent):
        return "unresolved"
    return "not_worse"


def claim_met(parent: list[float], change: list[float]) -> bool:
    """The gain rule of a claim (module docstring); lower is better."""
    wins = sum(c < p for p, c in zip(parent, change))
    q1, median, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    return 10 * wins >= 9 * len(parent) and median - statistics.median(change) > q3 - q1


def summarise(pairs: list[dict], bounds: dict[str, float]) -> dict:
    """Per-side quartiles, change wins, median ratio and verdict of each
    metric; ``bounds`` maps each metric to its bound."""
    if len(pairs) < 2:
        raise RunError("a summary needs at least two pairs")
    out = {
        "pairs": len(pairs),
        "failed": {s: sum(p[s]["failed"] for p in pairs) for s in SIDES},
        "attempted": {s: sum(p[s]["attempted"] for p in pairs) for s in SIDES},
    }
    for m in METRICS:
        parent = [p["parent"][m] for p in pairs]
        change = [p["change"][m] for p in pairs]
        out[m] = {
            "parent": _quartiles(parent),
            "change": _quartiles(change),
            "change_better_pairs": sum(c < p for p, c in zip(parent, change)),
            "ratio_of_medians": round(statistics.median(change) / statistics.median(parent), 3),
            "verdict": verdict(parent, change, bounds[m]),
        }
    return out


def _machine() -> dict:
    cpuinfo = Path("/proc/cpuinfo")
    models = [line.split(":", 1)[1].strip() for line in cpuinfo.read_text().splitlines()
              if line.startswith("model name")] if cpuinfo.exists() else []
    return {"cpu": models[0] if models else platform.machine(), "vcpus": os.cpu_count(),
            "os": f"{platform.system()} {platform.machine()}", "python": platform.python_version()}


def _commit(checkout: Path) -> str | None:
    proc = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def clear_bytecode(checkout: Path) -> list[Path]:
    """Remove every ``__pycache__`` directory under the checkout's
    ``CODE_DIRS``; returns those removed."""
    caches = sorted(cache for sub in CODE_DIRS for cache in (checkout / sub).rglob("__pycache__") if cache.is_dir())
    for cache in caches:
        shutil.rmtree(cache)
    return caches


def _argv(workload: str, seed: int, seconds: float, trace: int) -> list[str]:
    return ["perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]


def _run(checkout: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    argv = [sys.executable, *_argv(workload, seed, seconds, trace)]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        raise RunError(f"{checkout}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
    try:
        return parse_traced(proc.stdout, proc.stderr, workload) if trace else parse_run(proc.stdout)
    except RunError as err:
        raise RunError(f"{checkout}, seed {seed}: {err}") from None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--claim", choices=METRICS)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)
    if args.workload == "all" and args.pairs:
        parser.error("pairs take one workload; --workload all needs --traced --pairs 0")
    if not (args.pairs or args.traced):
        parser.error("nothing to run: --pairs 0 needs --traced")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    benchmark = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    for path in checkouts.values():
        clear_bytecode(path)
    pairs = []
    try:
        for i in range(args.pairs):
            seed = args.seed + i
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            runs = {side: _run(checkouts[side], args.workload, seed, seconds) for side in order}
            pairs.append({"workload": args.workload, "seed": seed, "first": order[0], **runs})
            print(json.dumps(pairs[-1]), file=sys.stderr, flush=True)
        summary = summarise(pairs, bounds) if pairs else None
        if args.traced:
            traced = {side: _run(checkouts[side], args.workload, args.seed, seconds, trace=1) for side in SIDES}
    except RunError as err:
        print(f"bench_pairs: {err}; nothing written", file=sys.stderr)
        return 1
    bench = json.loads(args.out.read_text()) if args.out.exists() else {}
    bench["machine"] = _machine()
    bench["commits"] = {side: _commit(path) for side, path in checkouts.items()}
    if summary:
        series = (f"{args.pairs} alternating pairs, seeds {args.seed}-{args.seed + args.pairs - 1}, "
                  f"--seconds {seconds} --trace 0")
        if args.claim:
            met = claim_met([p["parent"][args.claim] for p in pairs], [p["change"][args.claim] for p in pairs])
            bench["claim"] = {"workload": args.workload, "metric": args.claim, "series": series, "met": met, **summary}
        else:
            bench.setdefault("no_regression", {})[args.workload] = {"series": series, **summary}
        bench.setdefault("pairs", []).extend(pairs)
    if args.traced:
        bench["traced"] = traced_block(" ".join(["python3", *_argv(args.workload, args.seed, seconds, 1)]), traced)
    args.out.write_text(json.dumps(bench, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
