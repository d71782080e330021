"""Cost-aware planner operators: pushdown, hash join, range scan, top-N,
hashed semi-joins — plus the satellite fixes (set-based DISTINCT, stable
index-lookup order, one view materialisation per statement)."""

from __future__ import annotations

import time

import pytest

from repro.obs import Observability
from repro.sqldb.database import Database
from repro.sqldb.planner import (
    ColumnRange,
    assign_filters,
    describe,
    like_prefix,
    range_bounds,
)
from repro.sqldb.parser import parse_sql
from tests.sqlite_oracle import assert_matches, load


def _plan(db: Database, sql: str, params=()) -> str:
    return db.explain(sql, params)


@pytest.fixture()
def joined_db() -> Database:
    db = Database()
    db.execute("CREATE TABLE L (K INTEGER PRIMARY KEY, B INTEGER, NAME VARCHAR(20))")
    db.execute("CREATE TABLE R (K INTEGER PRIMARY KEY, D INTEGER, TAG VARCHAR(20))")
    for i in range(50):
        db.execute("INSERT INTO L VALUES (?, ?, ?)", (i, i % 7, f"n{i:03d}"))
        db.execute("INSERT INTO R VALUES (?, ?, ?)", (i, i % 7, f"t{i:03d}"))
    return db


# -- predicate pushdown ------------------------------------------------------------


class TestPushdown:
    def test_filter_pushed_to_owning_table(self, joined_db):
        plan = _plan(
            joined_db,
            "SELECT L.K FROM L JOIN R ON L.K = R.K WHERE L.B = 3 AND R.TAG = 't001'",
        )
        assert "filter pushdown at L" in plan
        # the R-side conjunct runs no later than the R join stage
        assert "R.TAG = 't001'" in plan

    def test_pushdown_filters_same_rows(self, joined_db):
        sql = "SELECT L.K, R.K FROM L JOIN R ON L.K = R.K WHERE R.D > 2 AND L.NAME LIKE 'n0%'"
        assert "filter pushdown" in _plan(joined_db, sql)
        assert assert_matches(joined_db, load(joined_db), sql)

    def test_left_join_null_rows_survive_pushdown(self):
        db = Database()
        db.execute("CREATE TABLE P (K INTEGER PRIMARY KEY, V INTEGER)")
        db.execute("CREATE TABLE C (K INTEGER PRIMARY KEY, P_K INTEGER)")
        db.execute("INSERT INTO P VALUES (1, 10), (2, 20)")
        db.execute("INSERT INTO C VALUES (1, 1)")
        sql = "SELECT P.K, C.K FROM P LEFT JOIN C ON P.K = C.P_K WHERE P.V >= 10"
        rows = assert_matches(db, load(db), sql)
        assert (2, None) in rows

    def test_obs_counter_counts_filtered_rows(self):
        obs = Observability(enabled=True)
        db = Database(obs=obs)
        db.execute("CREATE TABLE T (K INTEGER PRIMARY KEY, V INTEGER)")
        for i in range(10):
            db.execute("INSERT INTO T VALUES (?, ?)", (i, i))
        db.execute("SELECT T.K FROM T, T AS U WHERE T.V > 4")
        counter = obs.metrics.counter("sqldb.scan.pushdown_filtered")
        assert counter.value >= 5  # half of T removed before the cross join


# -- hash join ---------------------------------------------------------------------


class TestHashJoin:
    def test_unindexed_equi_join_uses_hash(self, joined_db):
        plan = _plan(joined_db, "SELECT L.K FROM L JOIN R ON L.B = R.D")
        assert "hash join" in plan

    def test_indexed_join_still_prefers_index(self, joined_db):
        plan = _plan(joined_db, "SELECT L.K FROM L JOIN R ON L.K = R.K")
        assert "index nested-loop join" in plan

    def test_hash_join_rows_match_nested_loop(self, joined_db):
        sql = "SELECT L.K, R.K FROM L JOIN R ON L.B = R.D"
        assert "hash join" in _plan(joined_db, sql)
        assert assert_matches(joined_db, load(joined_db), sql)

    def test_left_hash_join_null_extends(self):
        db = Database()
        db.execute("CREATE TABLE A (K INTEGER PRIMARY KEY, X INTEGER)")
        db.execute("CREATE TABLE B (K INTEGER PRIMARY KEY, Y INTEGER)")
        db.execute("INSERT INTO A VALUES (1, 1), (2, 2), (3, NULL)")
        db.execute("INSERT INTO B VALUES (10, 1)")
        sql = "SELECT A.K, B.K FROM A LEFT JOIN B ON A.X = B.Y"
        assert "hash join" in db.explain(sql)
        rows = assert_matches(db, load(db), sql)
        # NULL join keys never match; they null-extend under LEFT
        assert (3, None) in rows

    def test_hash_join_residual_handles_extra_conjuncts(self, joined_db):
        sql = "SELECT L.K, R.K FROM L JOIN R ON L.B = R.D AND L.K < R.K"
        assert "hash join" in _plan(joined_db, sql)
        assert assert_matches(joined_db, load(joined_db), sql)

    def test_hash_build_rows_counter(self):
        obs = Observability(enabled=True)
        db = Database(obs=obs)
        db.execute("CREATE TABLE A (K INTEGER PRIMARY KEY, X INTEGER)")
        db.execute("CREATE TABLE B (K INTEGER PRIMARY KEY, Y INTEGER)")
        for i in range(8):
            db.execute("INSERT INTO A VALUES (?, ?)", (i, i))
            db.execute("INSERT INTO B VALUES (?, ?)", (i, i))
        db.execute("SELECT A.K FROM A JOIN B ON A.X = B.Y")
        assert obs.metrics.counter("sqldb.join.hash_build_rows").value == 8


# -- range index scans -------------------------------------------------------------


@pytest.fixture()
def ranged_db() -> Database:
    db = Database()
    db.execute("CREATE TABLE M (K INTEGER PRIMARY KEY, G INTEGER, S VARCHAR(20))")
    db.execute("CREATE INDEX IX_G ON M (G)")
    db.execute("CREATE INDEX IX_S ON M (S)")
    for i in range(100):
        db.execute("INSERT INTO M VALUES (?, ?, ?)", (i, i * 2, f"s{i:04d}"))
    return db


class TestRangeScan:
    @pytest.mark.parametrize(
        "predicate,params",
        [
            ("G > ?", (50,)),
            ("G >= ?", (50,)),
            ("G < ?", (50,)),
            ("G <= ?", (50,)),
            ("G BETWEEN ? AND ?", (40, 60)),
            ("? < G", (120,)),
        ],
    )
    def test_inequalities_drive_range_scan(self, ranged_db, predicate, params):
        sql = f"SELECT K FROM M WHERE {predicate}"
        assert "range scan M via IX_G" in _plan(ranged_db, sql, params)
        assert assert_matches(ranged_db, load(ranged_db), sql, params)

    def test_like_prefix_drives_range_scan(self, ranged_db):
        sql = "SELECT K FROM M WHERE S LIKE 's000%'"
        assert "range scan M via IX_S" in _plan(ranged_db, sql)
        assert len(ranged_db.execute(sql).rows) == 10

    def test_like_without_prefix_stays_seq_scan(self, ranged_db):
        plan = _plan(ranged_db, "SELECT K FROM M WHERE S LIKE '%42'")
        assert "seq scan" in plan
        assert "range scan" not in plan

    def test_merged_bounds(self, ranged_db):
        sql = "SELECT K FROM M WHERE G > ? AND G <= ?"
        plan = _plan(ranged_db, sql, (20, 80))
        assert "range scan" in plan
        rows = ranged_db.execute(sql, (20, 80)).rows
        assert rows and all(20 < 2 * k <= 80 for (k,) in rows)


# -- Top-N and early LIMIT ---------------------------------------------------------


class TestTopN:
    def test_order_by_limit_uses_heap(self, joined_db):
        plan = _plan(joined_db, "SELECT K FROM L ORDER BY B DESC LIMIT 5")
        assert "top-N sort (N=5)" in plan

    def test_offset_counts_toward_heap_size(self, joined_db):
        plan = _plan(joined_db, "SELECT K FROM L ORDER BY K LIMIT 5 OFFSET 10")
        assert "top-N sort (N=15)" in plan
        rows = joined_db.execute("SELECT K FROM L ORDER BY K LIMIT 5 OFFSET 10").rows
        assert rows == [(10,), (11,), (12,), (13,), (14,)]

    def test_topn_matches_full_sort(self, joined_db):
        sql = "SELECT K, B FROM L ORDER BY B DESC, K LIMIT 7"
        assert "top-N sort" in _plan(joined_db, sql)
        assert assert_matches(joined_db, load(joined_db), sql)

    def test_limit_without_order_stops_early(self, joined_db):
        plan = _plan(joined_db, "SELECT K FROM L LIMIT 3")
        assert "limit 3 (early stop)" in plan
        assert len(joined_db.execute("SELECT K FROM L LIMIT 3").rows) == 3


class TestIndexOrdered:
    """``WHERE <prefix equalities> ORDER BY <the index's other columns>
    LIMIT`` reads a sorted index's key-prefix range in order; everything
    it cannot answer exactly keeps the scan and sort."""

    @pytest.fixture()
    def pages(self) -> Database:
        db = Database()
        db.execute("CREATE TABLE P (K INTEGER PRIMARY KEY, G INTEGER,"
                   " N VARCHAR(8) NOT NULL, M VARCHAR(8), C CHAR(4))")
        db.execute("CREATE INDEX P_GN ON P (G, N)")
        db.execute("CREATE INDEX P_GM ON P (G, M)")
        db.execute("CREATE INDEX P_NK ON P (N, K)")
        db.execute("CREATE INDEX P_CK ON P (C, K)")
        for k in range(30):
            db.execute("INSERT INTO P VALUES (?, ?, ?, ?, ?)",
                       (k, k % 3, f"n{k % 4}" + " " * (k % 2),
                        None if k % 5 == 0 else f"m{k % 4}", f"c{k % 2}"))
        return db

    def test_prefix_equality_reads_the_page_in_index_order(self, pages):
        sql = "SELECT K, N FROM P WHERE G = ? ORDER BY N LIMIT 3 OFFSET 4"
        plan = _plan(pages, sql, (1,))
        assert plan.startswith(
            "1. index-ordered scan P via P_GN (G = 1; in order of N): "
            "3 of 10 rows, counted from the range"
        )
        assert "sort" not in plan
        conn = pages._connection()
        before = conn.rows_scanned
        result = pages.execute(sql, (1,))
        assert conn.rows_scanned - before == 3
        assert result.matched_rows == 10
        # G + 0 is no column equality: the scan and sort give the same page
        assert result.rows == pages.execute(
            sql.replace("G = ?", "G + 0 = ?"), (1,)).rows

    def test_whole_index_in_order_without_a_prefix(self, pages):
        sql = "SELECT K FROM P ORDER BY N, K LIMIT 4"
        assert "index-ordered scan P via P_NK (all rows" in _plan(pages, sql)
        assert pages.execute(sql).matched_rows == 30

    def test_further_filters_count_the_range(self, pages):
        sql = "SELECT K FROM P WHERE G = 2 AND K > 10 ORDER BY N LIMIT 2"
        plan = _plan(pages, sql)
        assert "index-ordered scan P via P_GN" in plan
        assert "counted from the range" not in plan
        assert pages.execute(sql).matched_rows == 7

    @pytest.mark.parametrize("sql, params", [
        # DESC, a NULL-able sort column, no LIMIT
        ("SELECT K FROM P WHERE G = ? ORDER BY N DESC LIMIT 3", (1,)),
        ("SELECT K FROM P WHERE G = ? ORDER BY M LIMIT 3", (1,)),
        ("SELECT K FROM P WHERE G = ? ORDER BY N", (1,)),
        # '1' is not 1: no row of the range is equal to it
        ("SELECT K FROM P WHERE G = ? ORDER BY N LIMIT 3", ("1",)),
        # VARCHAR PAD SPACE: 'n1' = 'n1 ', but their keys differ
        ("SELECT K FROM P WHERE N = ? ORDER BY K LIMIT 3", ("n1",)),
        # grouping, DISTINCT and joins keep the sort
        ("SELECT G, COUNT(*) FROM P WHERE G = ? GROUP BY G ORDER BY G LIMIT 3",
         (1,)),
        ("SELECT DISTINCT N FROM P WHERE G = ? ORDER BY N LIMIT 3", (1,)),
        ("SELECT P.K FROM P JOIN P Q ON P.K = Q.K WHERE P.G = ? "
         "ORDER BY P.N LIMIT 3", (1,)),
    ])
    def test_what_it_cannot_answer_keeps_the_scan(self, pages, sql, params):
        assert "index-ordered" not in _plan(pages, sql, params)
        scan = sql.replace("WHERE G", "WHERE G + 0").replace(
            "WHERE N", "WHERE N || ''").replace("WHERE P.G", "WHERE P.G + 0")
        ours, theirs = pages.execute(sql, params), pages.execute(scan, params)
        assert (ours.rows, ours.matched_rows) == (theirs.rows, theirs.matched_rows)

    def test_char_prefix_is_exact(self, pages):
        sql = "SELECT K FROM P WHERE C = ? ORDER BY K LIMIT 3 OFFSET 1"
        assert "counted from the range" in _plan(pages, sql, ("c1",))
        result = pages.execute(sql, ("c1",))
        assert (result.rows, result.matched_rows) == ([(3,), (5,), (7,)], 15)

    def test_unique_key_lookup_wins(self, pages):
        sql = "SELECT K FROM P WHERE G = 1 AND K = 4 ORDER BY N LIMIT 3"
        assert _plan(pages, sql).startswith("1. index lookup P via PK_P")

    def test_rolled_back_delete_keeps_ties_in_rowid_order(self, pages):
        sql = "SELECT K FROM P WHERE G = 0 ORDER BY N LIMIT 10"
        before = pages.execute(sql).rows
        with pytest.raises(RuntimeError):
            with pages.transaction():
                pages.execute("DELETE FROM P WHERE K < 20")
                raise RuntimeError("roll back")
        assert pages.execute(sql).rows == before
        assert [k for k, in pages.execute("SELECT K FROM P").rows] == list(range(30))


# -- DISTINCT ----------------------------------------------------------------------


class TestDistinct:
    def test_distinct_announces_hash(self, joined_db):
        assert "distinct (hash)" in _plan(joined_db, "SELECT DISTINCT B FROM L")

    def test_distinct_5k_rows_is_fast(self):
        """Regression: DISTINCT used a quadratic list-membership scan."""
        db = Database()
        db.execute("CREATE TABLE D (K INTEGER PRIMARY KEY, V INTEGER)")
        db.execute(
            "INSERT INTO D VALUES " + ", ".join(f"({i}, {i})" for i in range(5000))
        )
        started = time.perf_counter()
        rows = db.execute("SELECT DISTINCT V FROM D").rows
        elapsed = time.perf_counter() - started
        assert len(rows) == 5000
        assert elapsed < 2.0  # the quadratic path took tens of seconds

    def test_distinct_with_nulls(self):
        db = Database()
        db.execute("CREATE TABLE D (K INTEGER PRIMARY KEY, V INTEGER)")
        db.execute("INSERT INTO D VALUES (1, NULL), (2, NULL), (3, 1)")
        rows = db.execute("SELECT DISTINCT V FROM D").rows
        assert sorted(rows, key=repr) == [(1,), (None,)]


# -- semi-joins --------------------------------------------------------------------


class TestSemiJoins:
    def test_in_subquery_announces_hash(self, joined_db):
        plan = _plan(
            joined_db, "SELECT K FROM L WHERE B IN (SELECT D FROM R WHERE K < 5)"
        )
        assert "hashed semi-join" in plan

    def test_in_subquery_rows_match_naive(self, joined_db):
        sql = "SELECT K FROM L WHERE B IN (SELECT D FROM R WHERE K < 5)"
        assert assert_matches(joined_db, load(joined_db), sql)

    def test_not_in_with_null_returns_nothing(self):
        db = Database()
        db.execute("CREATE TABLE A (K INTEGER PRIMARY KEY)")
        db.execute("CREATE TABLE B (K INTEGER PRIMARY KEY, V INTEGER)")
        db.execute("INSERT INTO A VALUES (1), (2)")
        db.execute("INSERT INTO B VALUES (1, 1), (2, NULL)")
        rows = db.execute(
            "SELECT K FROM A WHERE K NOT IN (SELECT V FROM B)"
        ).rows
        assert rows == []  # NULL in the list makes NOT IN unknown

    def test_exists_announces_semi_join(self, joined_db):
        plan = _plan(
            joined_db, "SELECT K FROM L WHERE EXISTS (SELECT 1 FROM R WHERE R.K = 0)"
        )
        assert "semi-join: EXISTS" in plan


# -- deterministic ordering (satellite) --------------------------------------------


class TestDeterminism:
    def test_index_lookup_order_is_stable(self):
        db = Database()
        db.execute("CREATE TABLE T (K INTEGER PRIMARY KEY, V INTEGER)")
        db.execute("CREATE INDEX IX_V ON T (V)")
        for i in range(30):
            db.execute("INSERT INTO T VALUES (?, 7)", (i,))
        reference = db.execute("SELECT K FROM T WHERE V = 7").rows
        for _ in range(5):
            assert db.execute("SELECT K FROM T WHERE V = 7").rows == reference
        assert reference == sorted(reference)

    def test_index_join_order_is_stable(self):
        db = Database()
        db.execute("CREATE TABLE P (K INTEGER PRIMARY KEY)")
        db.execute("CREATE TABLE C (K INTEGER PRIMARY KEY, P_K INTEGER)")
        db.execute("CREATE INDEX IX_PK ON C (P_K)")
        db.execute("INSERT INTO P VALUES (1)")
        for i in range(20):
            db.execute("INSERT INTO C VALUES (?, 1)", (i,))
        sql = "SELECT C.K FROM P JOIN C ON P.K = C.P_K"
        reference = db.execute(sql).rows
        for _ in range(5):
            assert db.execute(sql).rows == reference


# -- view materialisation cache (satellite) ----------------------------------------


class TestViewCache:
    def test_self_join_materialises_view_once(self):
        db = Database()
        db.execute("CREATE TABLE T (K INTEGER PRIMARY KEY, V INTEGER)")
        db.execute("INSERT INTO T VALUES (1, 10), (2, 20)")
        db.execute("CREATE VIEW VW AS SELECT K, V FROM T")
        before = db._connection().executor.view_materialisations
        rows = db.execute(
            "SELECT A.K, B.K FROM VW AS A JOIN VW AS B ON A.K = B.K"
        ).rows
        assert sorted(rows) == [(1, 1), (2, 2)]
        assert db._connection().executor.view_materialisations - before == 1

    def test_cache_does_not_leak_across_statements(self):
        db = Database()
        db.execute("CREATE TABLE T (K INTEGER PRIMARY KEY, V INTEGER)")
        db.execute("INSERT INTO T VALUES (1, 10)")
        db.execute("CREATE VIEW VW AS SELECT K, V FROM T")
        assert db.execute("SELECT K FROM VW").rows == [(1,)]
        db.execute("INSERT INTO T VALUES (2, 20)")
        # a later statement must see the new row, not a stale snapshot
        assert sorted(db.execute("SELECT K FROM VW").rows) == [(1,), (2,)]


# -- planner unit tests ------------------------------------------------------------


class TestPlannerHelpers:
    def test_like_prefix(self):
        assert like_prefix("abc%") == "abc"
        assert like_prefix("abc_d") == "abc"
        assert like_prefix("%abc") is None
        assert like_prefix("plain") == "plain"

    def test_column_range_merging(self):
        stmt = parse_sql("SELECT * FROM T WHERE G > 10 AND G <= 50 AND G > 20")
        from repro.sqldb.planner import conjuncts

        ranges = range_bounds(conjuncts(stmt.where), ())
        assert len(ranges) == 1
        crange = ranges[0]
        assert isinstance(crange, ColumnRange)
        assert crange.low == 20 and not crange.include_low
        assert crange.high == 50 and crange.include_high

    def test_assign_filters_positions(self):
        stmt = parse_sql(
            "SELECT * FROM A JOIN B ON A.K = B.K "
            "WHERE A.X = 1 AND B.Y = 2 AND A.X < B.Y"
        )
        from repro.sqldb.planner import conjuncts

        stages, residual = assign_filters(
            conjuncts(stmt.where), ["A", "B"], {"X": "A", "Y": "B"}
        )
        assert [describe(f) for f in stages[0]] == ["A.X = 1"]
        assert [describe(f) for f in stages[1]] == ["B.Y = 2", "A.X < B.Y"]
        assert residual == []

    def test_describe_round_trips_common_shapes(self):
        stmt = parse_sql(
            "SELECT * FROM T WHERE A = 1 AND B LIKE 'x%' AND C BETWEEN 1 AND 2"
        )
        from repro.sqldb.planner import conjuncts

        rendered = [describe(c) for c in conjuncts(stmt.where)]
        assert rendered == [
            "A = 1",
            "B LIKE 'x%'",
            "C BETWEEN 1 AND 2",
        ]


class TestWriteLookups:
    """UPDATE and DELETE find their rows through the point lookup SELECT
    would use, so the ingest loop's keyed writes never scan."""

    def test_keyed_update_and_delete_read_no_scan(self, monkeypatch):
        db = Database()
        db.execute("CREATE TABLE S (SIMULATION_KEY VARCHAR(8) PRIMARY KEY, "
                   "TITLE VARCHAR(20))")
        db.execute("CREATE TABLE R (FILE_NAME VARCHAR(20), SIMULATION_KEY "
                   "VARCHAR(8) REFERENCES S (SIMULATION_KEY), "
                   "PRIMARY KEY (FILE_NAME, SIMULATION_KEY))")
        for key in ("S1", "S2"):
            db.execute("INSERT INTO S VALUES (?, 't')", (key,))
            for t in range(3):
                db.execute("INSERT INTO R VALUES (?, ?)", (f"ts{t}", key))

        def no_scan():
            raise AssertionError("UPDATE/DELETE scanned the table")

        for name in ("S", "R"):
            monkeypatch.setattr(db.catalog.table(name), "scan", no_scan)
        assert db.execute("DELETE FROM R WHERE SIMULATION_KEY = ?",
                          ("S1",)).rowcount == 3
        assert db.execute("UPDATE S SET TITLE = ? WHERE SIMULATION_KEY = ?",
                          ("u", "S1")).rowcount == 1
        monkeypatch.undo()
        assert db.execute("SELECT SIMULATION_KEY FROM R").rows == [("S2",)] * 3
        assert db.execute("SELECT TITLE FROM S WHERE SIMULATION_KEY = 'S1'"
                          ).scalar() == "u"
