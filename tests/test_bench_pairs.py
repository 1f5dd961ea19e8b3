"""scripts/bench_pairs.py's summary of alternating benchmark pairs, on
synthetic perfbench records."""

import argparse
import importlib.util
import statistics
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def record(run_s, rate, attempted=100, failed=0):
    """The last line perfbench/run.py prints, reduced to two metrics."""
    return {"metrics": {"run_s": {"value": run_s, "unit": "s"},
                        "verdicts_per_s": {"value": rate, "unit": "1/s"}},
            "attempted": attempted, "failed": failed}


def test_summary_counts_pairs_the_change_wins(bench_pairs):
    parent_run = [2.0, 3.0, 1.0, 4.0, 5.0]
    change_run = [1.0, 3.0, 2.0, 3.5, 4.0]  # wins 3, ties 1, loses 1
    parent_rate = [10.0, 20.0, 30.0, 40.0, 50.0]
    change_rate = [11.0, 19.0, 30.0, 41.0, 50.5]  # higher is better: wins 3, ties 1
    pairs = [{"seed": 100 + i, "first": ("parent", "change")[i % 2],
              "parent": record(parent_run[i], parent_rate[i]),
              "change": record(change_run[i], change_rate[i], attempted=90, failed=i % 2)}
             for i in range(5)]
    out = bench_pairs.summarize(pairs, {"run_s": True, "verdicts_per_s": False})

    assert out["seeds"] == [100, 101, 102, 103, 104] and out["pairs"] == 5
    assert out["failed_checks"] == {"parent": 0, "change": 2}
    assert out["attempted_checks"] == {"parent": 500, "change": 450}
    run_s = out["metrics"]["run_s"]
    assert run_s["unit"] == "s" and run_s["change_better_pairs"] == 3
    q1, _, q3 = statistics.quantiles(parent_run, n=4)
    assert run_s["parent"] == {"q1": q1, "median": 3.0, "q3": q3}
    assert run_s["change"]["median"] == 3.0 and run_s["change_over_parent"] == 1.0
    rate = out["metrics"]["verdicts_per_s"]
    assert rate["unit"] == "1/s" and rate["change_better_pairs"] == 3
    assert rate["change"]["median"] == 30.0 and rate["change_over_parent"] == 1.0
    assert out["runs"][1] == {"seed": 101, "first": "change",
                              "parent": {"run_s": 3.0, "verdicts_per_s": 20.0},
                              "change": {"run_s": 3.0, "verdicts_per_s": 19.0}}


def test_better_direction_comes_from_the_benchmark(bench_pairs):
    lower = bench_pairs.better_is_lower()
    assert lower["verdict_s_p50"] and lower["run_s"] and lower["peak_rss_mb"]
    assert not lower["verdicts_per_s"] and not lower["checks_passed_share"]


def test_seed_range_is_inclusive(bench_pairs):
    assert bench_pairs.seed_range("2051:2053") == [2051, 2052, 2053]
    with pytest.raises(argparse.ArgumentTypeError):
        bench_pairs.seed_range("5:4")


def test_change_over_parent_and_the_summary_line(bench_pairs):
    pairs = [{"seed": 7 + i, "first": ("parent", "change")[i % 2],
              "parent": record(p, 0.0), "change": record(c, 0.0)}
             for i, (p, c) in enumerate([(0.20, 0.12), (0.19, 0.13), (0.21, 0.125)])]
    out = bench_pairs.summarize(pairs, {"run_s": True, "verdicts_per_s": False})
    assert out["metrics"]["run_s"]["change_over_parent"] == 0.125 / 0.20
    assert out["metrics"]["verdicts_per_s"]["change_over_parent"] is None  # parent median 0
    assert bench_pairs.summary_line("scalar_oracle", out) == (
        "scalar_oracle: change/parent medians: run_s x0.625 (3/3 better), "
        "verdicts_per_s xn/a (0/3 better)")
