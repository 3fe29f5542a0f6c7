"""``tools/compare.py`` pairs the two sides' runs and reports them.

The runs themselves are ``bench/run.py``'s; here a stub runner stands in for
it, so the test checks the pairing order, the seeds, the verdicts and the
shape of the report, and the file it is written to.
"""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare.py"
_spec = importlib.util.spec_from_file_location("compare", TOOL)
compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare)

BOUNDS = {
    "op_p50_ms": {"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.2},
    "ops_per_s": {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.15},
}


def stub_runner(calls):
    """A runner whose change is 10 % faster at every seed but 14, and 10 % slower there."""

    def run(checkout, workload, seed, seconds):
        side = checkout.name
        calls.append((side, seed))
        p50 = 1.0 + seed / 100
        if side == "change":
            p50 *= 1.1 if seed == 14 else 0.9
        metrics = {"op_p50_ms": p50, "ops_per_s": 1 / p50}
        env = {"workload": workload, "seed": seed, "side": side}
        result = {
            "correct": True,
            "attempted": 100,
            "failed": 0,
            "metrics": {name: {"value": value, "unit": "x"} for name, value in metrics.items()},
        }
        return env, result

    return run


def test_pairs_alternate_and_the_report_has_its_shape():
    calls = []
    checkouts = {side: Path("/nowhere", side) for side in compare.SIDES}
    report = compare.compare(checkouts, "exact_tables", 4, 2.5, 11, BOUNDS, stub_runner(calls))

    # One seed per pair; the side that goes first swaps every other pair.
    assert calls == [
        ("parent", 11), ("change", 11),
        ("change", 12), ("parent", 12),
        ("parent", 13), ("change", 13),
        ("change", 14), ("parent", 14),
    ]
    assert report["seeds"] == [11, 12, 13, 14]
    assert [run["first"] for run in report["runs"]] == ["parent", "change"] * 2
    assert set(report) == {"workload", "pairs", "seconds", "seeds", "env", "metrics", "runs"}
    assert report["workload"] == "exact_tables" and report["pairs"] == 4 and report["seconds"] == 2.5
    assert report["env"] == {side: {"workload": "exact_tables", "seed": 11, "side": side} for side in compare.SIDES}
    assert report["runs"][0]["parent"] == {
        "correct": True, "attempted": 100, "failed": 0,
        "metrics": {"op_p50_ms": 1.11, "ops_per_s": 1 / 1.11},
    }

    p50 = report["metrics"]["op_p50_ms"]
    assert set(p50) == {"unit", "better", "bound", "parent", "change", "change_wins",
                        "parent_wins", "gain", "within_bound"}
    assert p50["parent"] == pytest.approx({"median": 1.125, "q1": 1.1175, "q3": 1.1325})
    assert (p50["change_wins"], p50["parent_wins"]) == (3, 1)
    # 3 of 4 pairs is under nine tenths: no gain, however wide the gap.
    assert p50["gain"] is False and p50["within_bound"] is True
    ops = report["metrics"]["ops_per_s"]
    assert (ops["better"], ops["change_wins"], ops["parent_wins"]) == ("higher", 3, 1)
    json.dumps(report, allow_nan=False)


def test_a_gain_needs_nine_tenths_of_the_pairs_and_a_gap_past_the_spread():
    calls = []
    checkouts = {side: Path("/nowhere", side) for side in compare.SIDES}
    # Seed 14 is never reached, so the change wins every pair.
    report = compare.compare(checkouts, "exact_tables", 3, 1.0, 1, BOUNDS, stub_runner(calls))
    assert report["metrics"]["op_p50_ms"]["change_wins"] == 3
    assert report["metrics"]["op_p50_ms"]["gain"] is True
    assert report["metrics"]["ops_per_s"]["gain"] is True
    # Swapping the sides turns the gain into a regression past the bound.
    swapped = {"parent": checkouts["change"], "change": checkouts["parent"]}
    bounds = {"op_p50_ms": {**BOUNDS["op_p50_ms"], "bound": 0.1}}
    report = compare.compare(swapped, "exact_tables", 3, 1.0, 1, bounds, stub_runner(calls))
    assert report["metrics"]["op_p50_ms"]["gain"] is False
    assert report["metrics"]["op_p50_ms"]["within_bound"] is False


def test_the_report_takes_the_next_free_number(tmp_path):
    assert compare.next_report_path(tmp_path) == tmp_path / "BENCH_0.json"
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "BENCH_0.json").write_text("{}")
    assert compare.next_report_path(tmp_path) == tmp_path / "BENCH_1.json"
    (tmp_path / "BENCH_3.json").write_text("{}")
    (tmp_path / "BENCH_x.json").write_text("{}")
    assert compare.next_report_path(tmp_path) == tmp_path / "BENCH_4.json"
