"""Differential testing of the cost-aware planner against stdlib sqlite3.

Every query below runs on our engine (predicate pushdown, hash joins,
range scans, top-N) and on an in-memory sqlite3 copy of the same tables
(``tests/sqlite_oracle.py``), and must produce the same result multiset —
the same sequence when the query has ORDER BY.  The corpus is generated
over a NULL-heavy schema and covers joins (INNER/LEFT/cross), range
predicates, DISTINCT, ORDER BY/LIMIT/OFFSET, grouping and subqueries.
"""

from __future__ import annotations

import sqlite3

import pytest

from repro.errors import CatalogError
from repro.sqldb.database import Database
from tests.sqlite_oracle import assert_matches, load


def _make_db() -> Database:
    db = Database()
    db.execute(
        "CREATE TABLE SIM ("
        " SIM_KEY INTEGER PRIMARY KEY,"
        " TITLE VARCHAR(30),"
        " GRID INTEGER,"
        " RE DOUBLE,"
        " AUTHOR VARCHAR(20))"
    )
    db.execute(
        "CREATE TABLE FILES ("
        " FILE_NAME VARCHAR(30) PRIMARY KEY,"
        " SIM_KEY INTEGER,"
        " SIZE_MB INTEGER,"
        " KIND VARCHAR(10))"
    )
    db.execute("CREATE INDEX IX_GRID ON SIM (GRID)")
    db.execute("CREATE INDEX IX_SIZE ON FILES (SIZE_MB)")

    grids = [64, 128, 256, 512, None]
    authors = ["papiani", "wakelin", None, "nicole"]
    for i in range(60):
        db.execute(
            "INSERT INTO SIM VALUES (?, ?, ?, ?, ?)",
            (
                i,
                f"run {i:03d}" if i % 7 else None,
                grids[i % len(grids)],
                None if i % 11 == 0 else 100.0 + i,
                authors[i % len(authors)],
            ),
        )
    for i in range(90):
        db.execute(
            "INSERT INTO FILES VALUES (?, ?, ?, ?)",
            (
                f"f{i:04d}.dat",
                None if i % 13 == 0 else i % 60,
                None if i % 9 == 0 else (i * 3) % 500,
                ["raw", "plot", "mesh"][i % 3],
            ),
        )
    # orphan files pointing at no simulation (LEFT JOIN fodder)
    db.execute("INSERT INTO FILES VALUES ('orphan.dat', 999, 42, 'raw')")
    return db


@pytest.fixture(scope="module")
def db() -> Database:
    return _make_db()


@pytest.fixture(scope="module")
def oracle(db):
    return load(db)


def _generated_queries() -> list[tuple[str, tuple]]:
    queries: list[tuple[str, tuple]] = []

    # single-table range/equality/LIKE shapes over indexed + plain columns
    for predicate, params in [
        ("GRID > ?", (100,)),
        ("GRID >= ?", (128,)),
        ("GRID < ?", (256,)),
        ("GRID <= ?", (128,)),
        ("GRID BETWEEN ? AND ?", (100, 300)),
        ("GRID = ?", (128,)),
        ("? < GRID", (200,)),
        ("RE > ?", (120.0,)),
        ("AUTHOR LIKE 'pa%'", ()),
        ("AUTHOR LIKE '%lin'", ()),
        ("TITLE LIKE 'run 0%'", ()),
        ("AUTHOR IS NULL", ()),
        ("GRID IS NOT NULL AND GRID > ?", (64,)),
        ("GRID > ? AND GRID < ?", (64, 512)),
        ("GRID > ? OR AUTHOR = ?", (256, "papiani")),
        ("NOT GRID > ?", (128,)),
    ]:
        queries.append((f"SELECT * FROM SIM WHERE {predicate}", params))

    # projections, DISTINCT, ORDER BY / LIMIT / OFFSET
    queries += [
        ("SELECT DISTINCT AUTHOR FROM SIM", ()),
        ("SELECT DISTINCT GRID, AUTHOR FROM SIM", ()),
        ("SELECT DISTINCT KIND FROM FILES WHERE SIZE_MB > ?", (50,)),
        ("SELECT SIM_KEY FROM SIM ORDER BY SIM_KEY DESC LIMIT 10", ()),
        ("SELECT SIM_KEY, GRID FROM SIM ORDER BY GRID DESC, SIM_KEY LIMIT 7", ()),
        ("SELECT SIM_KEY FROM SIM ORDER BY RE LIMIT 5 OFFSET 5", ()),
        ("SELECT SIM_KEY FROM SIM ORDER BY AUTHOR DESC, SIM_KEY LIMIT 12", ()),
        ("SELECT SIM_KEY FROM SIM LIMIT 9", ()),
        ("SELECT SIM_KEY FROM SIM ORDER BY SIM_KEY OFFSET 55", ()),
        ("SELECT DISTINCT GRID FROM SIM ORDER BY GRID LIMIT 3", ()),
    ]

    # joins: indexed, unindexed equi (hash), LEFT, cross, multi-conjunct
    join_shapes = [
        "SELECT S.SIM_KEY, F.FILE_NAME FROM SIM AS S JOIN FILES AS F "
        "ON S.SIM_KEY = F.SIM_KEY",
        "SELECT S.SIM_KEY, F.FILE_NAME FROM FILES AS F JOIN SIM AS S "
        "ON F.SIM_KEY = S.SIM_KEY",
        "SELECT F.FILE_NAME, S.AUTHOR FROM FILES AS F LEFT JOIN SIM AS S "
        "ON F.SIM_KEY = S.SIM_KEY",
        "SELECT S.SIM_KEY, F.FILE_NAME FROM SIM AS S JOIN FILES AS F "
        "ON S.GRID = F.SIZE_MB",
        "SELECT S.SIM_KEY, F.FILE_NAME FROM SIM AS S LEFT JOIN FILES AS F "
        "ON S.GRID = F.SIZE_MB",
        "SELECT S.SIM_KEY, F.FILE_NAME FROM SIM AS S JOIN FILES AS F "
        "ON S.SIM_KEY = F.SIM_KEY AND S.GRID < F.SIZE_MB",
    ]
    for shape in join_shapes:
        queries.append((shape, ()))
        queries.append((shape + " WHERE S.GRID > ?", (100,)))
    queries += [
        (
            "SELECT S.SIM_KEY, F.FILE_NAME FROM SIM AS S JOIN FILES AS F "
            "ON S.SIM_KEY = F.SIM_KEY "
            "WHERE S.AUTHOR = ? AND F.KIND = ? AND F.SIZE_MB > ?",
            ("papiani", "raw", 10),
        ),
        (
            "SELECT F.FILE_NAME, S.TITLE FROM FILES AS F LEFT JOIN SIM AS S "
            "ON F.SIM_KEY = S.SIM_KEY WHERE F.SIZE_MB BETWEEN ? AND ?",
            (10, 400),
        ),
        (
            "SELECT A.SIM_KEY, B.SIM_KEY FROM SIM AS A, SIM AS B "
            "WHERE A.GRID = B.GRID AND A.SIM_KEY < B.SIM_KEY AND A.GRID > ?",
            (128,),
        ),
        (
            "SELECT S.SIM_KEY, F.FILE_NAME FROM SIM AS S JOIN FILES AS F "
            "ON S.SIM_KEY = F.SIM_KEY ORDER BY F.FILE_NAME LIMIT 15",
            (),
        ),
        (
            "SELECT DISTINCT S.AUTHOR, F.KIND FROM SIM AS S JOIN FILES AS F "
            "ON S.SIM_KEY = F.SIM_KEY",
            (),
        ),
    ]

    # grouping and aggregates
    queries += [
        ("SELECT AUTHOR, COUNT(*) FROM SIM GROUP BY AUTHOR", ()),
        (
            "SELECT KIND, COUNT(*) AS N, MAX(SIZE_MB) FROM FILES "
            "GROUP BY KIND ORDER BY N DESC LIMIT 2",
            (),
        ),
        (
            "SELECT S.AUTHOR, COUNT(*) FROM SIM AS S JOIN FILES AS F "
            "ON S.SIM_KEY = F.SIM_KEY WHERE F.SIZE_MB > ? GROUP BY S.AUTHOR",
            (20,),
        ),
    ]

    # subqueries: IN / NOT IN / EXISTS / scalar
    queries += [
        (
            "SELECT SIM_KEY FROM SIM WHERE SIM_KEY IN "
            "(SELECT SIM_KEY FROM FILES WHERE KIND = ?)",
            ("raw",),
        ),
        (
            "SELECT SIM_KEY FROM SIM WHERE SIM_KEY NOT IN "
            "(SELECT SIM_KEY FROM FILES WHERE SIM_KEY IS NOT NULL)",
            (),
        ),
        (
            "SELECT SIM_KEY FROM SIM WHERE SIM_KEY NOT IN "
            "(SELECT SIM_KEY FROM FILES)",  # NULL-poisoned NOT IN
            (),
        ),
        (
            "SELECT FILE_NAME FROM FILES WHERE EXISTS "
            "(SELECT 1 FROM SIM WHERE GRID = ?)",
            (128,),
        ),
        (
            "SELECT SIM_KEY FROM SIM WHERE GRID = "
            "(SELECT MAX(GRID) FROM SIM)",
            (),
        ),
        (
            "SELECT SIM_KEY FROM SIM WHERE AUTHOR IN "
            "(SELECT AUTHOR FROM SIM WHERE GRID > ?) ORDER BY SIM_KEY LIMIT 20",
            (128,),
        ),
    ]
    return queries


QUERIES = _generated_queries()


def test_corpus_is_large_enough():
    assert len(QUERIES) >= 50


@pytest.mark.parametrize(
    "sql,params", QUERIES, ids=[f"q{i:02d}" for i in range(len(QUERIES))]
)
def test_planner_matches_naive_path(db, oracle, sql, params):
    # named for the reference it once had; kept so test IDs stay stable
    assert_matches(db, oracle, sql, params)


#: statements naming a column that is unknown or ambiguous (bare A is in
#: both E and F)
BAD_COLUMN_QUERIES = [
    "SELECT NOPE FROM E",
    "SELECT X.A FROM E",
    "SELECT A FROM E WHERE NOPE = 1",
    "SELECT A FROM E JOIN F ON E.A = F.A",
    "SELECT B FROM E ORDER BY NOPE",
    "SELECT COUNT(*) FROM E GROUP BY NOPE",
    "SELECT E.B FROM E LEFT JOIN F ON E.A = F.NOPE",
    "UPDATE E SET B = NOPE",
    "DELETE FROM E WHERE NOPE = 1",
]


@pytest.mark.parametrize("filled", [False, True], ids=["empty", "filled"])
@pytest.mark.parametrize("sql", BAD_COLUMN_QUERIES)
def test_bad_column_raises_whatever_the_data(sql, filled):
    # names resolve when the statement compiles, not when a row is read
    db = Database()
    db.execute("CREATE TABLE E (A INTEGER PRIMARY KEY, B INTEGER)")
    db.execute("CREATE TABLE F (A INTEGER PRIMARY KEY, C INTEGER)")
    if filled:
        db.execute("INSERT INTO E VALUES (1, 10)")
        db.execute("INSERT INTO F VALUES (1, 20)")
    with pytest.raises(sqlite3.OperationalError):
        load(db).execute(sql)
    with pytest.raises(CatalogError):
        db.execute(sql)
