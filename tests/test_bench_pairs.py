"""The BENCH summary of tools/bench_pairs.py, on canned result lines."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _line(wall, cpu=1.0, setup=0.1, rss=24.0, correct=True, failed=0, attempted=30) -> str:
    metrics = {"wall_s": wall, "cpu_s": cpu, "setup_s": setup, "peak_rss_mb": rss}
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": "x"} for k, v in metrics.items()}}
    return "progress line\n" + json.dumps(result) + "\n"


def test_parse_run_keeps_the_result_line():
    assert bench_pairs.parse_run(_line(2.5, cpu=3.0, attempted=12)) == {
        "attempted": 12, "failed": 0, "wall_s": 2.5, "cpu_s": 3.0, "setup_s": 0.1, "peak_rss_mb": 24.0,
    }


def test_parse_run_refuses_a_bad_run():
    for stdout in (_line(1.0, correct=False), _line(1.0, failed=1), "", "not json\n"):
        with pytest.raises(bench_pairs.RunError):
            bench_pairs.parse_run(stdout)


def test_summary_of_canned_pairs():
    parent_wall = [3.0, 2.0, 4.0, 2.8, 3.2]
    change_wall = [2.0, 2.1, 2.2, 1.9, 2.0]
    pairs = [
        {"workload": "w", "seed": i, "first": "parent",
         "parent": bench_pairs.parse_run(_line(p, setup=0.1, rss=24.0)),
         "change": bench_pairs.parse_run(_line(c, setup=0.1 + 0.01 * (i % 2), rss=23.0, attempted=40))}
        for i, (p, c) in enumerate(zip(parent_wall, change_wall))
    ]
    got = bench_pairs.summarise(pairs)
    assert got["pairs"] == 5
    assert got["failed"] == {"parent": 0, "change": 0}
    assert got["attempted"] == {"parent": 150, "change": 200}
    assert got["wall_s"] == {
        "parent": {"median": 3.0, "q1": 2.8, "q3": 3.2},
        "change": {"median": 2.0, "q1": 2.0, "q3": 2.1},
        "change_better_pairs": 4,  # 2.1 against 2.0 loses
        "ratio_of_medians": 0.667,
    }
    # equal runs are ties: they count for neither side
    assert got["cpu_s"]["change_better_pairs"] == 0 and got["cpu_s"]["ratio_of_medians"] == 1.0
    assert got["setup_s"]["change_better_pairs"] == 0
    assert got["peak_rss_mb"]["change_better_pairs"] == 5


def test_summary_needs_two_pairs():
    pair = {"parent": bench_pairs.parse_run(_line(1.0)), "change": bench_pairs.parse_run(_line(1.0))}
    with pytest.raises(bench_pairs.RunError):
        bench_pairs.summarise([pair])
