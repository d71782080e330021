"""The benchmark-median regression gate (scripts/check_bench_regression.py)."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "check_bench_regression.py"
_spec = importlib.util.spec_from_file_location("check_bench_regression", _SCRIPT)
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)


def _write(path: Path, medians: dict[str, float]) -> str:
    path.write_text(json.dumps({"benchmarks": [
        {"name": name, "stats": {"median": median}}
        for name, median in medians.items()
    ]}))
    return str(path)


@pytest.fixture()
def baseline(tmp_path) -> str:
    return _write(tmp_path / "baseline.json", {
        "test_bench_hash_join_vs_nested_loop": 1.0,
        "test_bench_xuis_generation": 1.0,
    })


def test_guarded_entry_missing_fails(tmp_path, baseline):
    current = _write(tmp_path / "current.json", {
        "test_bench_xuis_generation": 1.0,
    })
    failures = gate.check_medians(baseline, current, 2.0)
    assert len(failures) == 1
    assert "test_bench_hash_join_vs_nested_loop" in failures[0]
    assert "missing" in failures[0]


def test_unguarded_entry_missing_passes(tmp_path, baseline):
    current = _write(tmp_path / "current.json", {
        "test_bench_hash_join_vs_nested_loop": 1.0,
    })
    assert gate.check_medians(baseline, current, 2.0) == []


def test_guarded_entry_regressed_fails(tmp_path, baseline):
    current = _write(tmp_path / "current.json", {
        "test_bench_hash_join_vs_nested_loop": 2.5,
        "test_bench_xuis_generation": 1.0,
    })
    failures = gate.check_medians(baseline, current, 2.0)
    assert len(failures) == 1
    assert "2.50x > 2.0x" in failures[0]


@pytest.mark.parametrize("name", [
    "test_bench_fig6_qbe_wildcard_scan[5000]",
    "test_bench_range_scan_grid_size",
    "test_bench_topn_pagination",
])
def test_scan_and_pagination_benches_are_guarded(tmp_path, name):
    baseline = _write(tmp_path / "baseline.json", {name: 1.0})
    regressed = _write(tmp_path / "regressed.json", {name: 2.5})
    missing = _write(tmp_path / "missing.json", {})
    assert gate.is_guarded(name)
    assert len(gate.check_medians(baseline, regressed, 2.0)) == 1
    assert len(gate.check_medians(baseline, missing, 2.0)) == 1


def test_other_benches_stay_unguarded():
    assert not gate.is_guarded("test_bench_xuis_generation")
    assert not gate.is_guarded("test_bench_fig6_full_web_search")
