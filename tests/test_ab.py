"""The summary of ``tools/ab.py`` on hand-made run records."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "ab.py"
_SPEC = importlib.util.spec_from_file_location("ab", _PATH)
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)

METRICS = [
    {"name": "op_p50_ms", "better": "lower", "bound": 0.2},
    {"name": "ops_per_s", "better": "higher", "bound": 0.2},
]


def _runs(side_values):
    """Bench results of each side from ``{side: {metric: [values]}}``."""
    return {
        side: [{"correct": True, "attempted": 10, "failed": 0,
                "metrics": {name: {"value": v} for name, v in zip(values, row)}}
               for row in zip(*values.values())]
        for side, values in side_values.items()
    }


RUNS = _runs({
    "parent": {"op_p50_ms": [10, 11, 12, 13, 14], "ops_per_s": [100, 90, 80, 70, 60]},
    "change": {"op_p50_ms": [9, 10, 13, 12, 13], "ops_per_s": [110, 100, 90, 80, 50]},
    "parent2": {"op_p50_ms": [10, 12, 12, 13, 13], "ops_per_s": [100, 80, 80, 70, 60]},
})


def test_quartiles_are_numpy_linear_percentiles():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6]
    assert ab.quartiles(values) == pytest.approx(np.percentile(values, [25, 50, 75]))
    assert ab.quartiles([7.0]) == [7.0, 7.0, 7.0]


def test_summary_of_a_lower_is_better_metric():
    e = ab.summarize(RUNS, METRICS)["op_p50_ms"]
    assert e["parent_q25_med_q75"] == [11, 12, 13]
    assert e["change_q25_med_q75"] == [10, 12, 13]
    assert e["change_median_change_pct"] == 0.0
    # Rounds 0, 1, 3 and 4 are faster than the parent of the same round.
    assert e["change_wins"] == "4/5"
    assert e["change_pair_change_pct"][2] == pytest.approx(100 / 12)
    assert e["aa_wins"] == "1/5"
    assert e["gap_vs_parent_iqr"] == [0, 2]
    assert not e["gap_exceeds_parent_iqr"]
    assert e["resolved"] and not e["worse"]
    assert ab.verdict(e) == "within bound"


def test_summary_of_a_higher_is_better_metric():
    e = ab.summarize(RUNS, METRICS)["ops_per_s"]
    assert e["parent_q25_med_q75"] == [70, 80, 90]
    assert e["change_median_change_pct"] == pytest.approx(12.5)
    # Higher wins: every round but the last.
    assert e["change_wins"] == "4/5"
    assert e["aa_median_change_pct"] == 0.0
    assert e["aa_wins"] == "0/5"
    assert e["gap_vs_parent_iqr"] == [10, 20]


def test_worse_beyond_the_bound_and_unresolved_a_a():
    runs = _runs({
        "parent": {"op_p50_ms": [10, 10, 10], "ops_per_s": [100, 100, 100]},
        "change": {"op_p50_ms": [13, 13, 13], "ops_per_s": [79, 79, 79]},
        "parent2": {"op_p50_ms": [10, 10, 13], "ops_per_s": [100, 100, 100]},
    })
    summary = ab.summarize(runs, METRICS)
    lat, rate = summary["op_p50_ms"], summary["ops_per_s"]
    assert lat["worse"] and rate["worse"]
    assert lat["gap_exceeds_parent_iqr"]
    # One A/A round reads +30 %, past the 20 % bound.
    assert not lat["resolved"] and rate["resolved"]
    assert ab.verdict(lat) == "worse"
    runs["change"] = runs["parent"]
    assert ab.verdict(ab.summarize(runs, METRICS)["op_p50_ms"]) == "unresolved"


def test_a_change_better_in_every_run_is_resolved_despite_a_a_noise():
    runs = _runs({
        "parent": {"op_p50_ms": [10, 11, 12], "ops_per_s": [100, 90, 95]},
        "change": {"op_p50_ms": [8, 9, 9.5], "ops_per_s": [101, 105, 120]},
        "parent2": {"op_p50_ms": [10, 14, 12], "ops_per_s": [100, 60, 95]},
    })
    summary = ab.summarize(runs, METRICS)
    for name in ("op_p50_ms", "ops_per_s"):
        # One A/A round reads past the 20 % bound in each metric.
        assert max(map(abs, summary[name]["aa_pair_change_pct"])) > 20
        assert summary[name]["separated"] and summary[name]["resolved"]
        assert ab.verdict(summary[name]) == "within bound"
    # A change run that ties the best parent run is not separated.
    runs["change"][0]["metrics"]["op_p50_ms"]["value"] = 10
    assert ab.verdict(ab.summarize(runs, METRICS)["op_p50_ms"]) == "unresolved"


def test_rounds_rotate_the_order_of_the_trees():
    assert [ab.round_order(r) for r in range(4)] == [
        ("parent", "change", "parent2"),
        ("change", "parent2", "parent"),
        ("parent2", "parent", "change"),
        ("parent", "change", "parent2"),
    ]


def test_metrics_and_directions_come_from_benchmark_json():
    metrics = ab.end_to_end_metrics()
    assert {"ops_per_s", "op_p50_ms", "setup_s"} <= {m["name"] for m in metrics}
    assert all(m["better"] in ("higher", "lower") and m["bound"] > 0 for m in metrics)


def test_report_has_one_line_per_metric():
    lines = ab.report(ab.summarize(RUNS, METRICS))
    assert len(lines) == 1 + len(METRICS)
    assert lines[1].startswith("op_p50_ms") and lines[1].endswith("within bound")


def test_main_rotates_and_stops_at_the_first_failed_run(monkeypatch, capsys):
    calls = []

    def fake_run(tree, workload, seed):
        calls.append(tree.name)
        if len(calls) == 5:
            raise ab.RunError("correct: false, 1 failed")
        return {"correct": True, "attempted": 3, "failed": 0, "metrics": {}}

    monkeypatch.setattr(ab, "run_bench", fake_run)
    assert ab.main(["a", "b", "c", "--workload", "scale", "--rounds", "3"]) == 1
    assert calls == ["a", "b", "c", "b", "c"]
    assert "round 1, parent2: correct: false" in capsys.readouterr().err


def test_run_bench_refuses_a_wrong_answer(monkeypatch, tmp_path):
    class Done:
        returncode = 0
        stdout = 'scale  ops_per_s 1\n{"correct": false, "attempted": 4, "failed": 1}\n'
        stderr = ""

    monkeypatch.setattr(ab.subprocess, "run", lambda *a, **k: Done)
    with pytest.raises(ab.RunError, match="correct: false, 1 failed"):
        ab.run_bench(tmp_path, "scale", 0)
    Done.returncode = 1
    with pytest.raises(ab.RunError, match="exit 1"):
        ab.run_bench(tmp_path, "scale", 0)


def test_run_bench_runs_the_benchmark_command_for_its_run_seconds(monkeypatch, tmp_path):
    seen = {}

    class Done:
        returncode = 0
        stdout = '{"correct": true, "attempted": 4, "failed": 0}\n'
        stderr = ""

    def fake_run(cmd, cwd, **kwargs):
        seen.update(cmd=cmd, cwd=cwd)
        return Done

    monkeypatch.setattr(ab.subprocess, "run", fake_run)
    assert ab.run_bench(tmp_path, "survey", 3)["correct"]
    bench = ab.benchmark()
    assert seen["cwd"] == tmp_path
    assert seen["cmd"] == [*bench["command"], "--workload", "survey", "--seed", "3",
                           "--seconds", str(bench["run_seconds"]), "--trace", "0"]
