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
        "test_bench_topn_pagination": 1.0,
    })


def test_guarded_entry_missing_fails(tmp_path, baseline):
    current = _write(tmp_path / "current.json", {
        "test_bench_topn_pagination": 1.0,
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
        "test_bench_topn_pagination": 1.0,
    })
    failures = gate.check_medians(baseline, current, 2.0)
    assert len(failures) == 1
    assert "2.50x > 2.0x" in failures[0]
