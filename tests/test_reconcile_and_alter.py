"""Tests for ALTER TABLE and datalink reconciliation."""

import pytest

from repro.datalink import DataLinker, TokenManager, reconcile, repair
from repro.errors import (
    CatalogError,
    PermissionDeniedError,
    SqlSyntaxError,
    TransactionError,
)
from repro.fileserver import FileServer
from repro.sqldb import Database


class TestAlterTableAdd:
    @pytest.fixture
    def db(self):
        database = Database()
        database.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v VARCHAR(10))")
        database.execute("INSERT INTO t VALUES (1,'a'),(2,'b')")
        return database

    def test_add_with_default_backfills(self, db):
        db.execute("ALTER TABLE t ADD COLUMN score INTEGER DEFAULT 5")
        assert db.execute("SELECT * FROM t ORDER BY k").rows == [
            (1, "a", 5), (2, "b", 5),
        ]

    def test_add_nullable_backfills_null(self, db):
        db.execute("ALTER TABLE t ADD COLUMN note VARCHAR(20)")
        assert db.execute("SELECT note FROM t WHERE k = 1").scalar() is None

    def test_new_column_usable_immediately(self, db):
        db.execute("ALTER TABLE t ADD COLUMN score INTEGER DEFAULT 0")
        db.execute("UPDATE t SET score = 9 WHERE k = 2")
        db.execute("INSERT INTO t VALUES (3, 'c', 1)")
        assert db.execute(
            "SELECT k FROM t WHERE score > 0 ORDER BY k"
        ).rows == [(2,), (3,)]

    def test_add_not_null_without_default_rejected(self, db):
        with pytest.raises(CatalogError):
            db.execute("ALTER TABLE t ADD COLUMN r INTEGER NOT NULL")

    def test_add_not_null_to_empty_table_ok(self):
        db = Database()
        db.execute("CREATE TABLE e (k INTEGER PRIMARY KEY)")
        db.execute("ALTER TABLE e ADD COLUMN r INTEGER NOT NULL")
        from repro.errors import NotNullViolation

        with pytest.raises(NotNullViolation):
            db.execute("INSERT INTO e VALUES (1, NULL)")

    def test_duplicate_column_rejected(self, db):
        with pytest.raises(CatalogError):
            db.execute("ALTER TABLE t ADD COLUMN v VARCHAR(5)")

    def test_constraint_clauses_rejected(self, db):
        with pytest.raises(SqlSyntaxError):
            db.execute("ALTER TABLE t ADD COLUMN x INTEGER PRIMARY KEY")

    def test_not_in_transaction(self, db):
        db.execute("BEGIN")
        with pytest.raises(TransactionError):
            db.execute("ALTER TABLE t ADD COLUMN x INTEGER")
        db.execute("ROLLBACK")

    def test_xuis_regeneration_sees_new_column(self, db):
        from repro.xuis import generate_default_xuis

        db.execute("ALTER TABLE t ADD COLUMN score INTEGER DEFAULT 1")
        doc = generate_default_xuis(db)
        assert doc.table("T").has_column("SCORE")


class TestAlterTableDrop:
    @pytest.fixture
    def db(self):
        database = Database()
        database.execute(
            "CREATE TABLE t (k INTEGER PRIMARY KEY, v VARCHAR(10), n INTEGER)"
        )
        database.execute("INSERT INTO t VALUES (1,'a',10),(2,'b',20)")
        return database

    def test_drop_removes_data(self, db):
        db.execute("ALTER TABLE t DROP COLUMN v")
        result = db.execute("SELECT * FROM t ORDER BY k")
        assert result.columns == ["K", "N"]
        assert result.rows == [(1, 10), (2, 20)]

    def test_drop_pk_rejected(self, db):
        with pytest.raises(CatalogError):
            db.execute("ALTER TABLE t DROP COLUMN k")

    def test_drop_indexed_rejected(self, db):
        db.execute("CREATE INDEX IX_N ON t (n)")
        with pytest.raises(CatalogError):
            db.execute("ALTER TABLE t DROP COLUMN n")

    def test_drop_fk_column_rejected(self):
        db = Database()
        db.execute("CREATE TABLE p (k INTEGER PRIMARY KEY)")
        db.execute(
            "CREATE TABLE c (k INTEGER PRIMARY KEY, p INTEGER REFERENCES p (k))"
        )
        with pytest.raises(CatalogError):
            db.execute("ALTER TABLE c DROP COLUMN p")

    def test_drop_checked_column_rejected(self):
        db = Database()
        db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, g INTEGER CHECK (g > 0))")
        with pytest.raises(CatalogError):
            db.execute("ALTER TABLE t DROP COLUMN g")

    def test_drop_datalink_column_unlinks_files(self):
        linker = DataLinker(TokenManager(secret=b"a", time_source=lambda: 0.0))
        server = linker.register_server(FileServer("fs.a"))
        server.put("/f.bin", b"x")
        db = Database()
        db.set_datalink_hooks(linker)
        db.execute(
            "CREATE TABLE t (k INTEGER PRIMARY KEY, d DATALINK "
            "LINKTYPE URL FILE LINK CONTROL READ PERMISSION DB "
            "WRITE PERMISSION BLOCKED RECOVERY NO ON UNLINK RESTORE)"
        )
        db.execute("INSERT INTO t VALUES (1, 'http://fs.a/f.bin')")
        assert server.filesystem.entry("/f.bin").linked
        db.execute("ALTER TABLE t DROP COLUMN d")
        assert not server.filesystem.entry("/f.bin").linked

    def test_drop_table_unlinks_files_in_autocommit_only(self):
        linker = DataLinker(TokenManager(secret=b"a", time_source=lambda: 0.0))
        server = linker.register_server(FileServer("fs.a"))
        server.put("/f.bin", b"x")
        db = Database()
        db.set_datalink_hooks(linker)
        db.execute(
            "CREATE TABLE t (k INTEGER PRIMARY KEY, d DATALINK "
            "LINKTYPE URL FILE LINK CONTROL READ PERMISSION DB "
            "WRITE PERMISSION BLOCKED RECOVERY NO ON UNLINK RESTORE)"
        )
        db.execute("INSERT INTO t VALUES (1, 'http://fs.a/f.bin')")
        db.execute("BEGIN")
        with pytest.raises(TransactionError):
            db.execute("DROP TABLE t")
        db.execute("COMMIT")
        assert server.filesystem.entry("/f.bin").linked
        db.execute("DROP TABLE t")
        assert not server.filesystem.entry("/f.bin").linked

    def test_alter_survives_recovery(self, tmp_path):
        d = str(tmp_path)
        db = Database(d)
        db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v VARCHAR(5))")
        db.execute("INSERT INTO t VALUES (1, 'a')")
        db.execute("ALTER TABLE t ADD COLUMN score INTEGER DEFAULT 7")
        db.execute("INSERT INTO t VALUES (2, 'b', 8)")
        db.execute("ALTER TABLE t DROP COLUMN v")
        db2 = Database(d)
        assert db2.execute("SELECT * FROM t ORDER BY k").rows == [(1, 7), (2, 8)]


@pytest.fixture
def deployment():
    linker = DataLinker(TokenManager(secret=b"r", time_source=lambda: 0.0))
    server = linker.register_server(FileServer("fs.r"))
    server.put("/data/a.bin", b"a")
    server.put("/data/b.bin", b"b")
    db = Database()
    db.set_datalink_hooks(linker)
    db.execute(
        "CREATE TABLE R (k INTEGER PRIMARY KEY, d DATALINK "
        "LINKTYPE URL FILE LINK CONTROL READ PERMISSION DB "
        "WRITE PERMISSION BLOCKED RECOVERY YES ON UNLINK RESTORE)"
    )
    db.execute("INSERT INTO R VALUES (1, 'http://fs.r/data/a.bin')")
    db.execute("INSERT INTO R VALUES (2, 'http://fs.r/data/b.bin')")
    return db, linker, server


class TestReconcile:
    def test_clean_deployment(self, deployment):
        db, linker, _server = deployment
        report = reconcile(db, linker)
        assert report.consistent
        assert report.links_checked == 2
        assert "consistent" in report.describe()

    def test_detects_unlinked(self, deployment):
        """Server rebuilt from raw files: content present, control lost."""
        db, linker, server = deployment
        server.dl_unlink("/data/a.bin", delete=False)
        report = reconcile(db, linker)
        assert [f.path for f in report.by_kind("unlinked")] == ["/data/a.bin"]

    def test_detects_dangling_missing_file(self, deployment):
        db, linker, server = deployment
        server.dl_unlink("/data/a.bin", delete=True)
        report = reconcile(db, linker)
        findings = report.by_kind("dangling")
        assert len(findings) == 1
        assert findings[0].table == "R"

    def test_detects_dangling_unknown_host(self, deployment):
        db, linker, _server = deployment
        db.execute(
            "CREATE TABLE LOOSE (k INTEGER PRIMARY KEY, "
            "d DATALINK LINKTYPE URL NO LINK CONTROL)"
        )
        db.execute("INSERT INTO LOOSE VALUES (1, 'http://ghost.host/x.bin')")
        report = reconcile(db, linker)
        assert any(
            f.kind == "dangling" and f.detail == "host not registered"
            for f in report.findings
        )

    def test_detects_orphaned(self, deployment):
        db, linker, server = deployment
        # delete a row while bypassing the unlink (simulates a crash by
        # re-linking the file behind the database's back)
        db.execute("DELETE FROM R WHERE k = 2")
        server.dl_link("/data/b.bin", read_db=True, write_blocked=True,
                       recovery=True)
        report = reconcile(db, linker)
        assert [f.path for f in report.by_kind("orphaned")] == ["/data/b.bin"]

    def test_repair_relinks_and_releases(self, deployment):
        db, linker, server = deployment
        server.dl_unlink("/data/a.bin", delete=False)      # unlinked
        db.execute("DELETE FROM R WHERE k = 2")
        server.dl_link("/data/b.bin", read_db=True, write_blocked=True,
                       recovery=True)                       # orphaned
        after = repair(db, linker)
        assert after.consistent
        # a.bin is protected again — token required:
        with pytest.raises(PermissionDeniedError):
            server.serve("/data/a.bin")
        # b.bin is free again:
        assert not server.filesystem.entry("/data/b.bin").linked

    def test_repair_leaves_dangling_for_curators(self, deployment):
        db, linker, server = deployment
        server.dl_unlink("/data/a.bin", delete=True)
        after = repair(db, linker)
        assert len(after.by_kind("dangling")) == 1
