"""Cost-aware planner benchmarks: hash join vs nested loop, range scans,
and Top-N pagination.

The acceptance bar for the planner work: an unindexed 1 000 x 1 000
equi-join must run at least 5x faster through the hash join than the
same join through a nested loop (it is O(n+m) vs O(n*m), so the observed
ratio is far larger), and an inequality predicate over an indexed column must ride
``SortedIndex.range_scan`` instead of a sequential scan.

These medians feed the perf-regression CI gate (the BENCH_planner.json
records, checked by scripts/check_bench_regression.py).
"""

import time

import pytest

from repro.bench import PaperTable, metadata_database
from repro.sqldb.database import Database

JOIN_ROWS = 1_000


def _join_database(rows: int = JOIN_ROWS) -> Database:
    """Two tables joined on deliberately unindexed payload columns."""
    db = Database()
    db.execute("CREATE TABLE L (K INTEGER PRIMARY KEY, B INTEGER)")
    db.execute("CREATE TABLE R (K INTEGER PRIMARY KEY, D INTEGER)")
    db.execute(
        "INSERT INTO L VALUES "
        + ", ".join(f"({i}, {i % rows})" for i in range(rows))
    )
    db.execute(
        "INSERT INTO R VALUES "
        + ", ".join(f"({i}, {i % rows})" for i in range(rows))
    )
    return db


JOIN_SQL = "SELECT L.K, R.K FROM L JOIN R ON L.B = R.D"
#: the same join with an expression key, which the planner cannot hash
LOOP_JOIN_SQL = "SELECT L.K, R.K FROM L JOIN R ON L.B + 0 = R.D"


def test_bench_hash_join_1000x1000(benchmark):
    db = _join_database()
    assert "hash join" in db.explain(JOIN_SQL)
    result = benchmark(lambda: db.execute(JOIN_SQL))
    assert len(result.rows) == JOIN_ROWS


def test_bench_point_lookup_baseline(benchmark):
    """Unchanged access path; guards the planner against slowing down the
    common QBE point lookup (the regression gate tracks this median)."""
    db = metadata_database(1_000)
    sql = "SELECT TITLE FROM SIMULATION WHERE SIMULATION_KEY = ?"
    assert "PK_SIMULATION" in db.explain(sql, ("S00000042",))
    result = benchmark(lambda: db.execute(sql, ("S00000042",)))
    assert len(result.rows) == 1


def test_bench_range_scan_grid_size(benchmark):
    db = metadata_database(5_000)
    sql = "SELECT SIMULATION_KEY FROM SIMULATION WHERE GRID_SIZE > ?"
    assert "range scan SIMULATION via IX_GRID" in db.explain(sql, (128,))
    result = benchmark(lambda: db.execute(sql, (128,)))
    assert result.rows


def test_bench_topn_pagination(benchmark):
    db = metadata_database(5_000)
    sql = (
        "SELECT SIMULATION_KEY, TITLE FROM SIMULATION "
        "ORDER BY SIMULATION_KEY LIMIT 50"
    )
    assert "top-N sort (N=50)" in db.explain(sql)
    result = benchmark(lambda: db.execute(sql))
    assert len(result.rows) == 50


def test_bench_hash_join_vs_nested_loop(benchmark):
    """The acceptance criterion: >= 5x speedup on the unindexed equi-join."""
    db = _join_database()
    assert "nested-loop join" in db.explain(LOOP_JOIN_SQL)

    def measure():
        start = time.perf_counter()
        for _ in range(3):
            hashed = db.execute(JOIN_SQL)
        hash_time = (time.perf_counter() - start) / 3
        start = time.perf_counter()
        looped = db.execute(LOOP_JOIN_SQL)
        loop_time = time.perf_counter() - start
        assert sorted(hashed.rows) == sorted(looped.rows)
        return hash_time, loop_time

    hash_time, loop_time = benchmark.pedantic(measure, rounds=1, iterations=1)

    table = PaperTable(
        "P1",
        f"unindexed {JOIN_ROWS}x{JOIN_ROWS} equi-join: hash join vs nested loop",
        ["strategy", "time", "speedup"],
    )
    table.add_row("nested loop (L.B + 0 = R.D)", f"{loop_time * 1e3:.1f} ms", "1x")
    table.add_row(
        "hash join", f"{hash_time * 1e3:.1f} ms",
        f"{loop_time / hash_time:.0f}x",
    )
    table.show()

    assert loop_time / hash_time >= 5.0
