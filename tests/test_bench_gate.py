"""The bench gate (scripts/check_bench_regression.py) and the committed
``BENCH_*.json`` records it reads."""

from __future__ import annotations

import importlib.util
import json
import re
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_SCRIPT = _ROOT / "scripts" / "check_bench_regression.py"
_spec = importlib.util.spec_from_file_location("check_bench_regression", _SCRIPT)
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)

BASELINES = sorted(_ROOT.glob("BENCH_*.json"))


def _record(name, value=1.0, better="lower", gate=None, unit="s"):
    return {"name": name, "value": value, "unit": unit,
            "better": better, "gate": gate}


def _committed(name: str) -> dict:
    records = gate.load_records(str(_ROOT / "BENCH_planner.json"))
    return {record["name"]: record for record in records}.get(name)


def _run(tmp_path, records, benchmarks) -> int:
    baseline = tmp_path / "baseline.json"
    current = tmp_path / "current.json"
    baseline.write_text(json.dumps(records))
    current.write_text(json.dumps({"benchmarks": benchmarks}))
    return gate.main([str(baseline), str(current)])


# -- ratio and limit gates ----------------------------------------------------------


def test_guarded_entry_regressed_fails():
    records = [_record("test_bench_hash_join_vs_nested_loop",
                       gate={"ratio": 2.0})]
    assert gate.check(records, {"test_bench_hash_join_vs_nested_loop": 1.9}) == []
    failures = gate.check(records, {"test_bench_hash_join_vs_nested_loop": 2.5})
    assert len(failures) == 1
    assert "test_bench_hash_join_vs_nested_loop" in failures[0]


def test_higher_is_better_ratio_regressed_fails():
    records = [_record("t.rate", value=10.0, better="higher",
                       gate={"ratio": 2.0})]
    assert gate.check(records, {"t.rate": 5.5}) == []
    assert len(gate.check(records, {"t.rate": 4.5})) == 1
    assert gate.check(records, {"t.rate": 100.0}) == []


@pytest.mark.parametrize("better, passing, failing", [
    ("higher", 4.0, 3.99),
    ("lower", 5.0, 5.01),
])
def test_limit_breach_fails(better, passing, failing):
    # the limit holds whatever the recorded value is
    records = [_record("t.x", value=1.0, better=better,
                       gate={"limit": passing})]
    assert gate.check(records, {"t.x": passing}) == []
    assert len(gate.check(records, {"t.x": failing})) == 1


def test_null_gate_never_fails():
    records = [_record("t.x", value=1.0, better="lower"),
               _record("t.y", value=1.0, better="higher")]
    assert gate.check(records, {"t.x": 1e9, "t.y": 0.0}) == []


# -- missing and new entries --------------------------------------------------------


def test_guarded_entry_missing_fails():
    records = [_record("test_bench_hash_join_vs_nested_loop",
                       gate={"ratio": 2.0}),
               _record("test_bench_xuis_generation")]
    failures = gate.check(records, {"test_bench_xuis_generation": 1.0})
    assert len(failures) == 1
    assert "test_bench_hash_join_vs_nested_loop" in failures[0]
    assert "missing" in failures[0]


def test_unguarded_entry_missing_passes():
    records = [_record("test_bench_hash_join_vs_nested_loop",
                       gate={"ratio": 2.0}),
               _record("test_bench_xuis_generation")]
    assert gate.check(records, {"test_bench_hash_join_vs_nested_loop": 1.0}) == []


def test_new_entry_is_reported_and_passes(capsys):
    assert gate.check([], {"test_bench_new": 1.0}) == []
    assert "new" in capsys.readouterr().out


# -- reading pytest-benchmark output ------------------------------------------------


def test_extra_info_read_under_test_dot_key(tmp_path):
    path = tmp_path / "current.json"
    path.write_text(json.dumps({"benchmarks": [{
        "name": "test_bench_a4",
        "stats": {"median": 1.25},
        "extra_info": {"speedup": 6.5, "snapshot_reads": 10,
                       "clean": True, "mode": "snapshot"},
    }]}))
    assert gate.load_current(str(path)) == {
        "test_bench_a4": 1.25,
        "test_bench_a4.speedup": 6.5,
        "test_bench_a4.snapshot_reads": 10,
    }


def test_main_exit_status(tmp_path):
    records = [_record("t.speedup", value=6.0, better="higher",
                       gate={"limit": 4.0})]
    run = [{"name": "t", "stats": {"median": 1.0},
            "extra_info": {"speedup": 6.0}}]
    assert _run(tmp_path, records, run) == 0
    run[0]["extra_info"]["speedup"] = 3.0
    assert _run(tmp_path, records, run) == 1


@pytest.mark.parametrize("bad", [
    {"better": "faster"},
    {"gate": {"max": 2.0}},
    {"gate": {"ratio": 2.0, "limit": 1.0}},
    {"gate": {"ratio": "2"}},
    {"value": "0.5"},
    {"value": True},
    {"unit": None, "extra": 1},
])
def test_malformed_baseline_is_refused(tmp_path, bad):
    record = {**_record("t", gate={"ratio": 2.0}), **bad}
    run = [{"name": "t", "stats": {"median": 1.0}}]
    assert _run(tmp_path, [record], run) == 2


def test_baseline_must_be_a_list(tmp_path):
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps({"benchmarks": []}))
    with pytest.raises(ValueError):
        gate.load_records(str(baseline))


def test_cli_takes_only_baseline_and_current():
    with pytest.raises(SystemExit):
        gate.main(["BENCH_planner.json", "current.json", "--max-ratio", "3"])
    with pytest.raises(SystemExit):
        gate.main(["BENCH_planner.json"])


# -- the committed baselines --------------------------------------------------------


@pytest.mark.parametrize("name", [
    "test_bench_fig6_qbe_wildcard_scan[5000]",
    "test_bench_range_scan_grid_size",
    "test_bench_topn_pagination",
])
def test_scan_and_pagination_benches_are_guarded(name):
    record = _committed(name)
    assert set(record["gate"]) == {"ratio"}
    regressed = {name: record["value"] * 2.5}
    assert len(gate.check([record], regressed)) == 1
    assert len(gate.check([record], {})) == 1


def test_other_benches_stay_unguarded():
    assert _committed("test_bench_xuis_generation") is None
    record = _committed("test_bench_fig6_full_web_search")
    assert record["gate"] is None
    assert gate.check([record], {record["name"]: record["value"] * 10}) == []


def test_committed_gated_set():
    gated = {
        record["name"]: record
        for path in BASELINES
        for record in gate.load_records(str(path))
        if record["gate"] is not None
    }
    planner = [gated[name] for name in gated if "." not in name]
    assert len(planner) == 12
    assert all(set(record["gate"]) == {"ratio"} for record in planner)
    assert len({record["gate"]["ratio"] for record in planner}) == 1
    speedup = gated.pop("test_bench_a4_snapshot_read_throughput.speedup")
    overhead = gated.pop("test_bench_a5_failover_download.overhead_ratio")
    scanned = gated.pop("test_bench_fig6_result_file_pages.rows_scanned_per_page")
    assert (set(speedup["gate"]), speedup["better"]) == ({"limit"}, "higher")
    assert (set(overhead["gate"]), overhead["better"]) == ({"limit"}, "lower")
    assert (set(scanned["gate"]), scanned["better"]) == ({"limit"}, "lower")
    assert len(gated) == len(planner)


@pytest.mark.parametrize("path", BASELINES, ids=lambda path: path.name)
def test_committed_baseline_names_real_benchmarks(path):
    source = "\n".join(
        bench.read_text(encoding="utf-8")
        for bench in (_ROOT / "benchmarks").glob("test_*.py")
    )
    records = gate.load_records(str(path))
    assert records
    for record in records:
        if record["gate"] is None:
            continue
        test = re.match(r"\w+", record["name"]).group()
        assert f"def {test}(" in source, record["name"]
