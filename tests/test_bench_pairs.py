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


BOUNDS = {"wall_s": 0.25, "cpu_s": 0.25, "setup_s": 0.25, "peak_rss_mb": 0.05}


def test_summary_of_canned_pairs():
    parent_wall = [3.0, 2.0, 4.0, 2.8, 3.2]
    change_wall = [2.0, 2.1, 2.2, 1.9, 2.0]
    pairs = [
        {"workload": "w", "seed": i, "first": "parent",
         "parent": bench_pairs.parse_run(_line(p, setup=0.1, rss=24.0)),
         "change": bench_pairs.parse_run(_line(c, setup=0.1 + 0.01 * (i % 2), rss=23.0, attempted=40))}
        for i, (p, c) in enumerate(zip(parent_wall, change_wall))
    ]
    got = bench_pairs.summarise(pairs, BOUNDS)
    assert got["pairs"] == 5
    assert got["failed"] == {"parent": 0, "change": 0}
    assert got["attempted"] == {"parent": 150, "change": 200}
    assert got["wall_s"] == {
        "parent": {"median": 3.0, "q1": 2.8, "q3": 3.2},
        "change": {"median": 2.0, "q1": 2.0, "q3": 2.1},
        "change_better_pairs": 4,  # 2.1 against 2.0 loses
        "ratio_of_medians": 0.667,
        "verdict": "not_worse",  # parent spread 0.4 / 3.0 is within 0.25
    }
    # equal runs are ties: they count for neither side
    assert got["cpu_s"]["change_better_pairs"] == 0 and got["cpu_s"]["ratio_of_medians"] == 1.0
    assert got["setup_s"]["change_better_pairs"] == 0
    assert got["peak_rss_mb"]["change_better_pairs"] == 5
    assert {m: got[m]["verdict"] for m in bench_pairs.METRICS} == dict.fromkeys(bench_pairs.METRICS, "not_worse")


def test_verdict_of_canned_series():
    steady = [1.0, 1.01, 0.99, 1.0, 1.02]
    spread = [1.0, 2.0, 3.0, 4.0, 5.0]  # quartiles 2 and 4 over median 3
    cases = [
        (steady, [1.3, 1.2, 1.3, 1.4, 1.3], "worse"),  # median 1.3 > 1.0 * 1.25
        (steady, [1.25, 1.2, 1.25, 1.3, 1.25], "not_worse"),  # at the bound, not above it
        (steady, steady, "not_worse"),
        (spread, [2.9, 3.0, 3.1, 3.0, 3.0], "unresolved"),
        (spread, [0.5, 0.6, 0.7, 0.8, 0.99], "not_worse"),  # every change run beats every parent run
        (spread, [0.5, 0.6, 0.7, 0.8, 1.0], "unresolved"),  # a tie with the best parent run is no win
        (spread, [4.0, 4.0, 4.0, 4.0, 4.0], "worse"),  # worse is reported even where the spread is wide
    ]
    for parent, change, want in cases:
        assert bench_pairs.verdict(parent, change, 0.25) == want, (parent, change)
    # the bound is each metric's own: a 4% rise passes peak_rss_mb's 0.05, 6% does not
    assert bench_pairs.verdict([100.0] * 4, [104.0] * 4, BOUNDS["peak_rss_mb"]) == "not_worse"
    assert bench_pairs.verdict([100.0] * 4, [106.0] * 4, BOUNDS["peak_rss_mb"]) == "worse"


def test_claim_rule_of_canned_series():
    # the parent's median is 1.0 and its quartiles 0.8125 and 1.1875: q3 - q1 = 0.375
    parent = [1.0, 1.25, 0.75, 1.0, 1.5, 0.5, 1.0, 1.0, 1.25, 0.75]
    assert bench_pairs.claim_met(parent, [0.25] * 10)
    # 8 of 10 wins is short of nine tenths, however wide the gap
    assert not bench_pairs.claim_met(parent, [0.25] * 8 + [2.0, 2.0])
    # 9 of 10 wins: the tie with the parent's 0.5 counts for neither side
    assert bench_pairs.claim_met(parent, [0.5] * 10)
    # 9 of 10 wins, but a gap of 0.375 is no larger than the parent's spread
    assert not bench_pairs.claim_met(parent, [0.625] * 10)
    assert bench_pairs.claim_met(parent, [0.6] * 10)
    # every pair won, by less than the spread
    assert not bench_pairs.claim_met(parent, [p - 0.125 for p in parent])


def test_summary_needs_two_pairs():
    pair = {"parent": bench_pairs.parse_run(_line(1.0)), "change": bench_pairs.parse_run(_line(1.0))}
    with pytest.raises(bench_pairs.RunError):
        bench_pairs.summarise([pair], BOUNDS)


def _traced(counts: dict, seconds: dict, correct=True) -> str:
    """Canned stdout of a ``--workload all --trace 1`` run."""
    metrics = {k: {"value": v, "unit": "count"} for k, v in counts.items()}
    metrics.update({k: {"value": v, "unit": "s"} for k, v in seconds.items()})
    combined = {"correct": correct, "attempted": 8, "failed": 0, "metrics": metrics}
    return '{"workload": "ospec_hereditary", "correct": true}\n' + json.dumps(combined) + "\n"


def test_traced_block_keeps_moved_lines_and_differing_counts():
    moved = "MOVED ospec_hereditary: ospec --algebra linear5: closure.generation_time.calls = 1754, seed reference 3346"
    stderr = {"parent": "", "change": f"progress\n{moved}\nFAIL nothing: ignored\n"}
    counts = {
        "parent": {"ospec_hereditary.closure.generation_time.calls": 3468, "oracle_sweep.oracle.decompose.calls": 4365,
                   "verify_battery.homext.hom_dim.calls": 10, "ospec_relation.closure.hull.calls": 208},
        "change": {"ospec_hereditary.closure.generation_time.calls": 1876, "oracle_sweep.oracle.decompose.calls": 4365,
                   "verify_battery.homext.hom_dim.calls": 11},
    }
    seconds = {
        "parent": {"ospec_relation.closure.realizable.self_s": 1.05, "oracle_sweep.oracle.decompose.self_s": 0.4,
                   "verify_battery.homext.hom_dim.self_s": 0.2},
        "change": {"ospec_relation.closure.realizable.self_s": 0.64, "oracle_sweep.oracle.decompose.self_s": 0.4},
    }
    # end-to-end seconds and the host calibration are not per layer
    workload_level = {"verify_battery.wall_s": 0.9, "verify_battery.setup_s": 0.1, "verify_battery.host.calib_s": 0.3}
    runs = {side: bench_pairs.parse_traced(_traced(counts[side], {**seconds[side], **workload_level}),
                                           stderr[side], "all")
            for side in bench_pairs.SIDES}
    # every per-layer metric is kept, counts and seconds apart
    assert runs["change"]["counts"] == counts["change"]
    assert bench_pairs.traced_block("cmd", runs) == {
        "command": "cmd",
        "moved_lines": {"parent": [], "change": [moved]},
        "counts_that_differ": {
            "ospec_hereditary.closure.generation_time.calls": {"parent": 3468, "change": 1876},
            "ospec_relation.closure.hull.calls": {"parent": 208, "change": None},
            "verify_battery.homext.hom_dim.calls": {"parent": 10, "change": 11},
        },
        # every layer's seconds on each side, equal or not
        "seconds": seconds,
    }


def test_parse_traced_prefixes_one_workload_and_refuses_a_bad_run():
    stdout = _traced({"closure.star_mask.calls": 7, "morphisms.compose.calls": 3},
                     {"closure.star_mask.self_s": 0.25, "morphisms.compose.self_s": 0.5})
    got = bench_pairs.parse_traced(stdout, "", "ospec_relation")
    assert got == {"moved": [],
                   "counts": {"ospec_relation.closure.star_mask.calls": 7, "ospec_relation.morphisms.compose.calls": 3},
                   "seconds": {"ospec_relation.closure.star_mask.self_s": 0.25,
                               "ospec_relation.morphisms.compose.self_s": 0.5}}
    with pytest.raises(bench_pairs.RunError):
        bench_pairs.parse_traced(_traced({}, {}, correct=False), "", "all")
