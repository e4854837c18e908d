"""The metrics the benchmark prints are the ones BENCHMARK.json declares.

Run with: python3 -m pytest perfbench/tests
"""

import itertools
import json

import _paths
import pytest

import run
import workloads
from spans import METRICS

SPEC = json.loads((_paths.ROOT / "BENCHMARK.json").read_text())


def _result(command, seconds, status, cycle, flagged=False, file=None):
    outcome = workloads.Outcome(status, flagged, status != "failed")
    op = {"command": command, "file": file or f"input-{next(_FILES)}.json"}
    return (op, seconds, outcome, cycle)


_FILES = itertools.count()


def test_per_layer_metrics_match_the_spec():
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(METRICS)


def test_end_to_end_metrics_match_the_spec_and_are_never_zero():
    results = [
        _result("check", 0.5, "ok", 0),
        _result("check", 0.2, "flagged", 0, flagged=True),
        _result("decompose", 0.1, "failed", 1),
        _result("decompose", 0.3, "ok", 1),
    ]
    ref = run.calibrate.REFERENCE_S
    # the second cycle ran on a machine twice as slow as the reference
    metrics = run.end_to_end(results, walls=[1.0, 4.0], setup=[(0.3, 1), (0.2, 1), (0.8, 0.5)],
                             refs=[[ref], [2 * ref, 2 * ref]])
    assert {(k, v["unit"]) for k, v in metrics.items()} == \
        {(m["name"], m["unit"]) for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in metrics.values())
    assert metrics["ok_frac"]["value"] == pytest.approx(0.75)
    assert metrics["unflagged_frac"]["value"] == pytest.approx(0.5)
    assert metrics["setup_s"]["value"] == pytest.approx(0.3)
    # the slow cycle's times are halved: its 0.3 s success reads as 0.15 s
    # and its 4.0 s of wall time as 2.0 s; 3 correct verdicts in 3.0 s
    assert metrics["verdicts_per_s"]["value"] == pytest.approx(1.0)
    assert metrics["op_p50_s"]["value"] == pytest.approx(0.2)
    # the 90th percentile lands on the failure: unmet, charged the whole run
    assert metrics["op_p90_s"]["value"] == pytest.approx(3.0)


def test_unmet_cycles_are_not_dropped():
    # 8 cycles of 10 operations; in 3 of them the 90th percentile lands on a
    # failure. Over the whole run 9 of 80 operations failed, so the run's
    # 90th percentile lands on a failure too and is reported unmet.
    results = []
    for c in range(8):
        bad = 3 if c < 3 else 0
        results += [_result("decompose", 0.1, "failed" if i < bad else "ok", c)
                    for i in range(10)]
    ref = run.calibrate.REFERENCE_S
    metrics = run.end_to_end(results, walls=[1.0] * 8, setup=[(0.3, 1)],
                             refs=[[ref]] * 8)
    assert metrics["op_p50_s"]["value"] == pytest.approx(0.1)
    assert metrics["op_p90_s"]["value"] == pytest.approx(8.0)


def test_every_benchmark_workload_is_defined():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)


def test_repeated_inputs_count_once():
    # two distinct inputs, the failing one run three times and the other
    # twice: one of two inputs failed, however often each was repeated
    bad = {"command": "check", "file": "bad.json"}
    good = {"command": "check", "file": "good.json"}
    fail = workloads.Outcome("failed", False, False)
    flag = workloads.Outcome("flagged", True, True)
    ok = workloads.Outcome("ok", False, True)
    results = [(bad, 0.1, fail, 0), (good, 0.2, ok, 0), (bad, 0.1, fail, 1),
               (good, 0.2, flag, 1), (bad, 0.1, fail, 2)]
    assert [(op["file"], f, g) for op, f, g in run.by_input(results)] == \
        [("bad.json", True, False), ("good.json", False, True)]
    ref = run.calibrate.REFERENCE_S
    metrics = run.end_to_end(results, walls=[1.0] * 3, setup=[(0.3, 1)], refs=[[ref]] * 3)
    assert metrics["ok_frac"]["value"] == pytest.approx(0.5)
    assert metrics["unflagged_frac"]["value"] == pytest.approx(0.5)


def test_every_cycle_runs_even_when_time_is_up(tmp_path):
    def main(args):
        print("verdict: rigid")
        return 0

    cycles = [[{"command": "check", "expect": "rigid", "file": f"c{c}-{k}.json",
                "args": ["check", "x"]} for k in range(2)] for c in range(3)]
    results, walls = run.measure(cycles, 0, main, workloads.FlagLog(), tmp_path)
    assert len(walls) == 3
    assert [op["file"] for op, _, _, _ in results] == \
        [op["file"] for cycle in cycles for op in cycle]
    assert all(o.status == "ok" for _, _, o, _ in results)
