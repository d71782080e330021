"""One schema path: a live DDL statement, its ROLLBACK, WAL replay,
checkpoint recovery and a coordinated restore all change the schema
through ``Catalog.apply``, and checkpoints and backups write the same
image (``Database.image``: ``Catalog.ddl_script()`` plus the rows).

The named tests pin the places where these used to disagree; the
property at the end drives random DDL sequences (with FKs, prefixed
index names, views over views, ALTER, DROP TABLE, rolled-back
transactions and checkpoints) and checks that a reopened and a restored
database equal the live one.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datalink import DataLinker, coordinated_backup, coordinated_restore
from repro.errors import ReproError
from repro.sqldb import Database
from repro.sqldb.parser import parse_script, parse_sql


def _schema(db):
    """What must survive: the schema script, each table's index names
    and rows, and each view's rows (or the error reading it raises)."""
    tables = {}
    for name in db.table_names():
        table = db.catalog.table(name)
        tables[name] = (
            sorted(table.indexes),
            sorted(db.execute(f"SELECT * FROM {name}").rows, key=repr),
        )
    views = {}
    for name in db.catalog.view_names():
        try:
            views[name] = sorted(db.execute(f"SELECT * FROM {name}").rows, key=repr)
        except ReproError as exc:
            views[name] = type(exc).__name__
    return db.catalog.ddl_script(), tables, views


def _restored(db, directory):
    coordinated_backup(db, DataLinker(), directory)
    restored, _linker = coordinated_restore(directory)
    return restored


class TestDropIndex:
    def test_survives_reopen(self, tmp_path):
        db = Database(str(tmp_path))
        db.execute("CREATE TABLE T (K INTEGER PRIMARY KEY, V INTEGER)")
        db.execute("CREATE INDEX BY_V ON T (V)")
        db.execute("DROP INDEX BY_V")
        reopened = Database(str(tmp_path))
        assert "BY_V" not in reopened.catalog.table("T").indexes
        assert "seq scan" in reopened.explain("SELECT * FROM T WHERE V = 1")

    def test_rollback_restores_the_index(self):
        db = Database()
        db.execute("CREATE TABLE T (K INTEGER PRIMARY KEY, V INTEGER)")
        db.execute("INSERT INTO T VALUES (1, 10), (2, 20)")
        db.execute("CREATE UNIQUE INDEX BY_V ON T (V)")
        db.execute("BEGIN")
        db.execute("DROP INDEX BY_V")
        db.execute("INSERT INTO T VALUES (3, 30)")
        db.execute("ROLLBACK")
        assert "BY_V" in db.explain("SELECT * FROM T WHERE V = 20")
        assert db.execute("SELECT K FROM T WHERE V = 20").rows == [(2,)]
        assert db.catalog.table("T").indexes["BY_V"].unique

    def test_rolled_back_drop_is_not_logged(self, tmp_path):
        db = Database(str(tmp_path))
        db.execute("CREATE TABLE T (K INTEGER PRIMARY KEY, V INTEGER)")
        db.execute("CREATE INDEX BY_V ON T (V)")
        db.execute("BEGIN")
        db.execute("DROP INDEX BY_V")
        db.execute("ROLLBACK")
        assert "BY_V" in Database(str(tmp_path)).catalog.table("T").indexes

    def test_a_constraint_index_cannot_be_dropped(self):
        db = Database()
        db.execute("CREATE TABLE T (K INTEGER PRIMARY KEY, V INTEGER)")
        try:
            db.execute("DROP INDEX PK_T")
        except ReproError as exc:
            assert "CREATE INDEX" in str(exc)
        else:  # pragma: no cover - the assertion below names the failure
            raise AssertionError("DROP INDEX PK_T succeeded")
        assert "PK_T" in db.catalog.table("T").indexes


class TestRestore:
    def test_keeps_a_created_index(self, tmp_path):
        db = Database()
        db.execute("CREATE TABLE T (K INTEGER PRIMARY KEY, V INTEGER)")
        db.execute("INSERT INTO T VALUES (1, 10), (2, 20)")
        db.execute("CREATE INDEX BY_V ON T (V)")
        restored = _restored(db, str(tmp_path))
        assert "BY_V" in restored.explain("SELECT * FROM T WHERE V = 20")
        assert restored.execute("SELECT K FROM T WHERE V = 20").rows == [(2,)]

    def test_keeps_a_view_over_a_later_named_view(self, tmp_path):
        db = Database()
        db.execute("CREATE TABLE T (K INTEGER PRIMARY KEY, V INTEGER)")
        db.execute("INSERT INTO T VALUES (1, 10), (2, 20)")
        db.execute("CREATE VIEW Z_BASE AS SELECT K, V FROM T WHERE V > 10")
        db.execute("CREATE VIEW A_TOP AS SELECT K FROM Z_BASE")
        restored = _restored(db, str(tmp_path))
        assert restored.execute("SELECT * FROM A_TOP").rows == [(2,)]
        assert restored.catalog.ddl_script() == db.catalog.ddl_script()

    def test_keeps_the_turbulence_page_index(self, tmp_path):
        from repro.turbulence import create_turbulence_schema

        db = Database()
        create_turbulence_schema(db)
        query = (
            "SELECT FILE_NAME FROM RESULT_FILE WHERE TIMESTEP = 1 "
            "ORDER BY FILE_NAME LIMIT 5"
        )
        restored = _restored(db, str(tmp_path))
        assert restored.explain(query) == db.explain(query)
        assert "seq scan" not in restored.explain(query)


class TestCheckpoint:
    def test_keeps_a_prefixed_created_index(self, tmp_path):
        db = Database(str(tmp_path))
        db.execute("CREATE TABLE T (K INTEGER PRIMARY KEY, V INTEGER)")
        db.execute("CREATE INDEX IX_BY_V ON T (V)")
        db.checkpoint()
        reopened = Database(str(tmp_path))
        assert "IX_BY_V" in reopened.catalog.table("T").indexes
        assert "IX_BY_V" in reopened.explain("SELECT * FROM T WHERE V = 1")
        assert reopened.catalog.ddl_script() == db.catalog.ddl_script()

    def test_reads_a_checkpoint_with_an_index_list(self, tmp_path):
        """A checkpoint written before the DDL script carried indexes
        lists them under "indexes"; recovery still builds them."""
        db = Database(str(tmp_path))
        db.execute("CREATE TABLE T (K INTEGER PRIMARY KEY, V INTEGER)")
        db.execute("INSERT INTO T VALUES (1, 10)")
        image = db.image()
        image["indexes"] = ["CREATE INDEX BY_V ON T (V)"]
        db._wal.write_checkpoint(image)
        reopened = Database(str(tmp_path))
        assert "BY_V" in reopened.explain("SELECT * FROM T WHERE V = 10")
        assert reopened.execute("SELECT K FROM T WHERE V = 10").rows == [(1,)]


class TestStatementText:
    def test_parsed_view_and_alter_reopen(self, tmp_path):
        db = Database(str(tmp_path))
        for sql in (
            "CREATE TABLE T (K INTEGER PRIMARY KEY, V INTEGER)",
            "INSERT INTO T VALUES (1, 10)",
            "CREATE VIEW BIG AS SELECT K FROM T WHERE V > 5",
            "ALTER TABLE T ADD COLUMN W INTEGER DEFAULT 7",
        ):
            db.execute_statement(parse_sql(sql))
        reopened = Database(str(tmp_path))
        assert reopened.execute("SELECT * FROM T").rows == [(1, 10, 7)]
        assert reopened.execute("SELECT * FROM BIG").rows == [(1,)]
        assert _schema(reopened) == _schema(db)

    def test_statements_carry_their_text(self):
        assert parse_sql("  SELECT 1 ;").sql == "SELECT 1"
        script = "CREATE TABLE T (K INTEGER);\nINSERT INTO T VALUES (1);"
        assert [stmt.sql for stmt in parse_script(script)] == [
            "CREATE TABLE T (K INTEGER)", "INSERT INTO T VALUES (1)",
        ]


# -- the property: random DDL sequences ----------------------------------------

_TABLES = {
    "P": "CREATE TABLE P (K INTEGER PRIMARY KEY, V INTEGER, W VARCHAR(8))",
    "C": (
        "CREATE TABLE C (K INTEGER PRIMARY KEY, "
        "P_K INTEGER REFERENCES P (K), V INTEGER)"
    ),
}
# user index names, one spelled like P's primary-key index
_INDEX_NAMES = ["IX_BY_V", "PK_P", "BY_K"]
_VIEWS = {
    "Z_BASE": "CREATE VIEW Z_BASE AS SELECT K, V FROM P WHERE V > 0",
    "A_TOP": "CREATE VIEW A_TOP AS SELECT K FROM Z_BASE WHERE K < 4",
    "M_JOIN": (
        "CREATE VIEW M_JOIN AS SELECT C.K AS CK, P.V AS PV "
        "FROM C JOIN P ON C.P_K = P.K"
    ),
}

_table = st.sampled_from(sorted(_TABLES))
_key = st.integers(0, 5)
_value = st.one_of(st.none(), st.integers(-2, 2))

_create_index = st.tuples(
    st.booleans(), st.sampled_from(_INDEX_NAMES), _table,
    st.sampled_from(["V", "K, V"]),
).map(lambda a: (
    f"CREATE {'UNIQUE ' if a[0] else ''}INDEX {a[1]} ON {a[2]} ({a[3]})"
))
# a DROP picks the i-th existing index or view when it runs; with none,
# it names PK_C (C's primary-key index, which DROP INDEX refuses) or a
# missing view
_drop_index = st.integers(0, 3).map(lambda i: ("DROP INDEX", i))
_drop_view = st.integers(0, 3).map(lambda i: ("DROP VIEW", i))
_create_view = st.sampled_from(sorted(_VIEWS)).map(_VIEWS.get)
_ddl = st.one_of(
    _table.map(lambda t: _TABLES[t]),
    _table.map(lambda t: f"DROP TABLE {t}"),
    _create_index, _create_index, _drop_index, _drop_index,
    _create_view, _create_view,
    _drop_view, _drop_view,
    st.tuples(_table, st.sampled_from(["ADD COLUMN X INTEGER DEFAULT 3",
                                       "DROP COLUMN X", "DROP COLUMN V"]))
    .map(lambda a: f"ALTER TABLE {a[0]} {a[1]}"),
)
_dml = st.one_of(
    st.tuples(_key, _value).map(
        lambda a: ("INSERT INTO P (K, V) VALUES (?, ?)", a)),
    st.tuples(_key, _key, _value).map(
        lambda a: ("INSERT INTO C (K, P_K, V) VALUES (?, ?, ?)", a)),
    st.tuples(_table, _value, _key).map(
        lambda a: (f"UPDATE {a[0]} SET V = ? WHERE K = ?", a[1:])),
    st.tuples(_table, _key).map(
        lambda a: (f"DELETE FROM {a[0]} WHERE K = ?", a[1:])),
)
_statement = st.one_of(_ddl, _ddl, _dml).map(
    lambda s: (s, ()) if isinstance(s, str) else s)
# a few statements in autocommit, in a committed or a rolled-back
# transaction, or in autocommit after a checkpoint
_step = st.tuples(
    st.sampled_from(["autocommit", "COMMIT", "ROLLBACK", "checkpoint"]),
    st.lists(_statement, min_size=1, max_size=4),
)
_START = [
    _TABLES["P"], _TABLES["C"],
    "INSERT INTO P (K, V) VALUES (1, 1), (2, 2), (3, -1)",
    "INSERT INTO C (K, P_K, V) VALUES (1, 1, 0), (2, 3, 1)",
]


def _run(db, sql, params=()):
    if sql in ("DROP INDEX", "DROP VIEW"):
        names = (db.catalog.index_names() if sql == "DROP INDEX"
                 else db.catalog.view_names()) or ["PK_C"]
        sql, params = f"{sql} {names[params % len(names)]}", ()
    try:
        db.execute(sql, params)
    except ReproError:
        pass  # a refused statement changes nothing


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(_step, min_size=1, max_size=12))
def test_ddl_sequences_reopen_and_restore_equal(tmp_path_factory, steps):
    directory = str(tmp_path_factory.mktemp("db"))
    db = Database(directory)
    for sql in _START:
        db.execute(sql)
    for mode, statements in steps:
        if mode == "checkpoint":
            db.checkpoint()
        in_transaction = mode in ("COMMIT", "ROLLBACK")
        if in_transaction:
            db.execute("BEGIN")
        for sql, params in statements:
            _run(db, sql, params)
        if in_transaction:
            db.execute(mode)
    live = _schema(db)
    assert _schema(Database(directory)) == live
    image = str(tmp_path_factory.mktemp("image"))
    assert _schema(_restored(db, image)) == live
