#!/usr/bin/env python3
"""Check a pytest-benchmark JSON run against a committed baseline.

Usage:
    python scripts/check_bench_regression.py BASELINE CURRENT

BASELINE is a committed ``BENCH_*.json``: a JSON list of records
``{"name", "value", "unit", "better", "gate"}``.  ``better`` is ``"lower"``
or ``"higher"``; ``gate`` is one of

* ``null`` — the record is reported and never fails;
* ``{"ratio": r}`` — fails when the current value is worse than ``value``
  by more than a factor of ``r``, in the ``better`` direction;
* ``{"limit": x}`` — fails when the current value is worse than ``x``.

CURRENT is pytest-benchmark's ``--benchmark-json`` output.  Each benchmark
contributes its ``stats.median`` under its test name and each numeric
``extra_info[key]`` under ``<test name>.<key>``.

A gated record missing from the run fails; a current value with no record
is printed as ``new`` and never fails.  Exit status: 0 when every gate
holds, 1 when one fails, 2 when a file cannot be read as that format.
"""

from __future__ import annotations

import argparse
import json
import sys
from numbers import Real

FIELDS = {"name", "value", "unit", "better", "gate"}
BETTER = ("lower", "higher")


def _is_number(value) -> bool:
    return isinstance(value, Real) and not isinstance(value, bool)


def _validate(record) -> None:
    """Raise ValueError unless ``record`` is one well-formed baseline record."""
    if not isinstance(record, dict) or set(record) != FIELDS:
        raise ValueError(f"record {record!r} must have exactly {sorted(FIELDS)}")
    name = record["name"]
    if not isinstance(name, str) or not name:
        raise ValueError(f"record name {name!r} must be a non-empty string")
    if not _is_number(record["value"]):
        raise ValueError(f"{name}: value {record['value']!r} is not a number")
    if record["better"] not in BETTER:
        raise ValueError(f"{name}: better {record['better']!r} not in {BETTER}")
    gate = record["gate"]
    if gate is None:
        return
    if not isinstance(gate, dict) or len(gate) != 1 or not (
        set(gate) <= {"ratio", "limit"}
    ):
        raise ValueError(f"{name}: gate {gate!r} must be null, "
                         "{\"ratio\": r} or {\"limit\": x}")
    (kind, bound), = gate.items()
    if not _is_number(bound):
        raise ValueError(f"{name}: gate {kind} {bound!r} is not a number")
    if kind == "ratio" and (bound < 1.0 or record["value"] <= 0.0):
        raise ValueError(f"{name}: a ratio gate needs ratio >= 1 and value > 0")


def load_records(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        records = json.load(handle)
    if not isinstance(records, list):
        raise ValueError(f"{path}: expected a JSON list of records")
    for record in records:
        _validate(record)
    return records


def load_current(path: str) -> dict[str, float]:
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    values: dict[str, float] = {}
    for bench in payload["benchmarks"]:
        values[bench["name"]] = bench["stats"]["median"]
        for key, value in (bench.get("extra_info") or {}).items():
            if _is_number(value):
                values[f"{bench['name']}.{key}"] = value
    return values


def threshold(record: dict) -> float | None:
    """The value past which ``record`` fails, or None when it is ungated."""
    gate = record["gate"]
    if gate is None:
        return None
    if "limit" in gate:
        return gate["limit"]
    if record["better"] == "lower":
        return record["value"] * gate["ratio"]
    return record["value"] / gate["ratio"]


def check(records: list[dict], current: dict[str, float]) -> list[str]:
    """Print one line per record and return the failures."""
    failures: list[str] = []
    for record in records:
        name, unit, bound = record["name"], record["unit"], threshold(record)
        value = current.get(name)
        if value is None:
            if bound is not None:
                failures.append(f"{name}: gated record missing from this run")
            print(f"  {'missing':<8} {name}")
            continue
        if bound is None:
            print(f"  {'info':<8} {name}: {value:.4g} {unit} "
                  f"(baseline {record['value']:.4g})")
            continue
        lower = record["better"] == "lower"
        worse = value > bound if lower else value < bound
        against = f"{'max' if lower else 'min'} {bound:.4g} {unit}"
        if worse:
            failures.append(f"{name}: {value:.4g} {unit} past {against}")
        print(f"  {'FAIL' if worse else 'ok':<8} {name}: {value:.4g} {unit} "
              f"({against})")
    known = {record["name"] for record in records}
    for name in sorted(set(current) - known):
        print(f"  {'new':<8} {name}: {current[name]:.4g} (no record)")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Check a pytest-benchmark JSON run against BENCH_*.json records."
    )
    parser.add_argument("baseline", help="committed BENCH_*.json records")
    parser.add_argument("current", help="pytest-benchmark --benchmark-json output")
    args = parser.parse_args(argv)

    try:
        records = load_records(args.baseline)
        current = load_current(args.current)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"bench gate: cannot read input: {exc!r}", file=sys.stderr)
        return 2

    failures = check(records, current)
    if failures:
        print("\nbench gate FAILED:", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    print("\nbench gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
