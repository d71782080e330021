"""Failure-injection and corruption tests: the system's behaviour when
things go wrong mid-flight."""

import json
import os

import pytest

from repro.datalink import DataLinker, TokenManager, coordinated_backup
from repro.errors import (
    CatalogError,
    FileLinkError,
    FileNotFoundOnServer,
    OperationError,
    RecoveryError,
    SandboxViolation,
)
from repro.fileserver import FileServer
from repro.sqldb import Database
from repro.sqldb.wal import WriteAheadLog
from repro.turbulence import build_turbulence_archive

COLID = "RESULT_FILE.DOWNLOAD_RESULT"


class TestWalCorruption:
    def _make_db(self, directory):
        db = Database(directory)
        db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v VARCHAR(10))")
        db.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b')")
        return db

    def test_torn_final_line_is_ignored(self, tmp_path):
        d = str(tmp_path)
        self._make_db(d)
        wal_path = os.path.join(d, "wal.jsonl")
        with open(wal_path, "a", encoding="utf-8") as fh:
            fh.write('{"txn": 99, "ops": [{"op": "ins')  # crash mid-append
        db2 = Database(d)
        assert db2.execute("SELECT COUNT(*) FROM t").scalar() == 2

    def test_corruption_in_the_middle_is_fatal(self, tmp_path):
        d = str(tmp_path)
        self._make_db(d)
        wal_path = os.path.join(d, "wal.jsonl")
        with open(wal_path, encoding="utf-8") as fh:
            lines = fh.readlines()
        lines.insert(1, "GARBAGE NOT JSON\n")
        with open(wal_path, "w", encoding="utf-8") as fh:
            fh.writelines(lines)
        with pytest.raises(RecoveryError):
            Database(d)

    def test_corrupt_checkpoint_is_fatal(self, tmp_path):
        d = str(tmp_path)
        db = self._make_db(d)
        db.checkpoint()
        with open(os.path.join(d, "checkpoint.json"), "w") as fh:
            fh.write("{broken")
        with pytest.raises(RecoveryError):
            Database(d)

    def test_empty_wal_lines_skipped(self, tmp_path):
        d = str(tmp_path)
        self._make_db(d)
        with open(os.path.join(d, "wal.jsonl"), "a") as fh:
            fh.write("\n\n")
        db2 = Database(d)
        assert db2.execute("SELECT COUNT(*) FROM t").scalar() == 2

    def test_wal_round_trips_datalink_values(self, tmp_path):
        d = str(tmp_path)
        db = Database(d)
        db.execute("CREATE TABLE r (k INTEGER PRIMARY KEY, d DATALINK)")
        db.execute("INSERT INTO r VALUES (1, 'http://h/x/f.dat')")
        db2 = Database(d)
        value = db2.execute("SELECT d FROM r").scalar()
        assert value.url == "http://h/x/f.dat"


class TestFileServerFailures:
    def _wired(self):
        linker = DataLinker(TokenManager(secret=b"f", time_source=lambda: 0.0))
        server = linker.register_server(FileServer("fs.x"))
        db = Database()
        db.set_datalink_hooks(linker)
        db.execute(
            "CREATE TABLE R (k INTEGER PRIMARY KEY, d DATALINK "
            "LINKTYPE URL FILE LINK CONTROL READ PERMISSION DB "
            "WRITE PERMISSION BLOCKED RECOVERY YES ON UNLINK RESTORE)"
        )
        return db, linker, server

    def test_insert_against_unknown_server(self):
        db, _linker, _server = self._wired()
        with pytest.raises(FileLinkError):
            db.execute("INSERT INTO R VALUES (1, 'http://unknown.host/f')")
        assert db.execute("SELECT COUNT(*) FROM R").scalar() == 0

    def test_decorate_survives_vanished_file(self):
        """A NO LINK CONTROL datalink may point at a file that has been
        deleted; SELECT must not crash, just omit the size."""
        db, linker, server = self._wired()
        db.execute(
            "CREATE TABLE N (k INTEGER PRIMARY KEY, "
            "d DATALINK LINKTYPE URL NO LINK CONTROL)"
        )
        server.put("/data/tmp.bin", b"x")
        db.execute("INSERT INTO N VALUES (1, 'http://fs.x/data/tmp.bin')")
        server.filesystem.delete("/data/tmp.bin")
        value = db.execute("SELECT d FROM N").scalar()
        assert value.size is None

    def test_download_of_missing_file(self):
        _db, linker, server = self._wired()
        from repro.sqldb.types import DatalinkValue

        with pytest.raises(FileNotFoundOnServer):
            linker.download(DatalinkValue("http://fs.x/not/there.bin"))

    def test_backup_is_consistent_snapshot(self, tmp_path):
        db, linker, server = self._wired()
        server.put("/data/f.bin", b"payload")
        db.execute("INSERT INTO R VALUES (1, 'http://fs.x/data/f.bin')")
        manifest = coordinated_backup(db, linker, str(tmp_path))
        stored = os.path.join(str(tmp_path), manifest["files"][0]["stored_as"])
        with open(stored, "rb") as fh:
            assert fh.read() == b"payload"


class TestOperationFailures:
    @pytest.fixture(scope="class")
    def archive(self):
        return build_turbulence_archive(n_simulations=1, timesteps=1, grid=8)

    def test_crashing_operation_reports_cleanly(self, archive, tmp_path):
        from repro.operations import pack_code_archive

        engine = archive.make_engine(str(tmp_path / "sb"))
        user = archive.users.user("turbulence")
        row = archive.result_rows()[0]
        crasher = pack_code_archive({"Boom.py": b"raise ValueError('kaput')"})
        with pytest.raises(OperationError) as excinfo:
            engine.run_upload(COLID, row, crasher, "Boom", user=user)
        assert "kaput" in str(excinfo.value)

    def test_workdir_cleaned_after_crash(self, archive, tmp_path):
        from repro.operations import pack_code_archive

        sandbox_root = tmp_path / "sb2"
        engine = archive.make_engine(str(sandbox_root))
        user = archive.users.user("turbulence")
        row = archive.result_rows()[0]
        crasher = pack_code_archive({"Boom.py": b"1/0"})
        with pytest.raises(OperationError):
            engine.run_upload(COLID, row, crasher, "Boom", user=user)
        leftovers = [
            p for p in sandbox_root.rglob("*") if p.is_dir()
        ]
        assert leftovers == []

    def test_infinite_loop_upload_is_killed(self, archive, tmp_path):
        from repro.operations import pack_code_archive

        engine = archive.make_engine(str(tmp_path / "sb3"))
        user = archive.users.user("turbulence")
        row = archive.result_rows()[0]
        spinner = pack_code_archive({"Spin.py": b"while True:\n    pass\n"})
        with pytest.raises(SandboxViolation):
            engine.run_upload(COLID, row, spinner, "Spin", user=user)

    def test_operation_code_row_missing(self, archive, tmp_path):
        """If the CODE_FILE row is deleted, invocation fails with a clear
        lookup error rather than a crash."""
        engine = archive.make_engine(str(tmp_path / "sb4"))
        row = archive.result_rows()[0]
        # remove the GetImage code row (and release its file)
        archive.db.execute(
            "DELETE FROM CODE_FILE WHERE CODE_NAME = 'GetImage.jar'"
        )
        try:
            with pytest.raises(OperationError) as excinfo:
                engine.invoke("GetImage", COLID, row,
                              {"slice": "x0", "type": "u"}, use_cache=False)
            assert "0 rows" in str(excinfo.value)
        finally:
            # restore for other tests sharing the archive fixture
            archive.db.execute(
                "INSERT INTO CODE_FILE VALUES (?, NULL, 'POST_PROCESS', "
                "'restored', ?)",
                ("GetImage.jar", "http://fs1.soton.ac.uk/codes/GetImage.jar"),
            )

    def test_commit_hook_failure_surfaces(self):
        """A datalink manager that explodes at commit time becomes a
        TransactionError, not silent corruption."""
        from repro.errors import TransactionError
        from repro.sqldb.database import DatalinkHooks

        class ExplodingHooks(DatalinkHooks):
            def on_insert_link(self, table, column, value, spec, txn):
                txn.on_commit.append(self._boom)

            @staticmethod
            def _boom():
                raise RuntimeError("link manager died")

        db = Database()
        db.set_datalink_hooks(ExplodingHooks())
        db.execute("CREATE TABLE R (k INTEGER PRIMARY KEY, d DATALINK)")
        with pytest.raises(TransactionError):
            db.execute("INSERT INTO R VALUES (1, 'http://h/f.bin')")


class TestEngineEdgeCases:
    def test_ambiguous_bare_column_in_join(self):
        db = Database()
        db.execute("CREATE TABLE a (k INTEGER PRIMARY KEY, x INTEGER)")
        db.execute("CREATE TABLE b (k INTEGER PRIMARY KEY, y INTEGER)")
        db.execute("INSERT INTO a VALUES (1, 10)")
        db.execute("INSERT INTO b VALUES (1, 20)")
        # bare K is ambiguous across a and b: must error, not guess
        with pytest.raises(CatalogError):
            db.execute("SELECT k FROM a, b WHERE a.k = b.k")

    def test_cross_join_cardinality(self):
        db = Database()
        db.execute("CREATE TABLE a (k INTEGER PRIMARY KEY)")
        db.execute("CREATE TABLE b (k INTEGER PRIMARY KEY)")
        for i in range(3):
            db.execute("INSERT INTO a VALUES (?)", (i,))
        for i in range(4):
            db.execute("INSERT INTO b VALUES (?)", (i,))
        assert len(db.execute("SELECT a.k, b.k FROM a, b")) == 12

    def test_self_join_with_aliases(self):
        db = Database()
        db.execute(
            "CREATE TABLE emp (k INTEGER PRIMARY KEY, boss INTEGER, "
            "name VARCHAR(10))"
        )
        db.execute("INSERT INTO emp VALUES (1, NULL, 'root')")
        db.execute("INSERT INTO emp VALUES (2, 1, 'leaf')")
        rows = db.execute(
            "SELECT e.name, b.name FROM emp e JOIN emp b ON e.boss = b.k"
        ).rows
        assert rows == [("leaf", "root")]

    def test_duplicate_alias_rejected(self):
        db = Database()
        db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY)")
        with pytest.raises(CatalogError):
            db.execute("SELECT * FROM t x, t x")

    def test_update_uses_index(self):
        """UPDATE point lookups ride the PK index (no full scan)."""
        db = Database()
        db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v INTEGER)")
        for i in range(1000):
            db.execute("INSERT INTO t VALUES (?, 0)", (i,))
        import time

        start = time.perf_counter()
        for _ in range(200):
            db.execute("UPDATE t SET v = v + 1 WHERE k = 500")
        indexed = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(200):
            db.execute("UPDATE t SET v = v + 1 WHERE v < -1")  # scan, no hits
        scan = time.perf_counter() - start
        assert indexed < scan

    def test_char_padding_round_trip(self):
        db = Database()
        db.execute("CREATE TABLE t (c CHAR(6) PRIMARY KEY)")
        db.execute("INSERT INTO t VALUES ('ab')")
        assert db.execute("SELECT COUNT(*) FROM t WHERE c = 'ab'").scalar() == 1

    def test_like_on_clob(self):
        db = Database()
        db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, d CLOB)")
        db.execute("INSERT INTO t VALUES (1, 'turbulent channel flow')")
        assert db.execute(
            "SELECT COUNT(*) FROM t WHERE d LIKE '%channel%'"
        ).scalar() == 1

    def test_limit_zero(self):
        db = Database()
        db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY)")
        db.execute("INSERT INTO t VALUES (1)")
        assert db.execute("SELECT * FROM t LIMIT 0").rows == []

    def test_group_by_null_bucket(self):
        db = Database()
        db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, g VARCHAR(5))")
        db.execute("INSERT INTO t VALUES (1, 'a'), (2, NULL), (3, NULL)")
        rows = dict(
            db.execute("SELECT g, COUNT(*) FROM t GROUP BY g").rows
        )
        assert rows["a"] == 1
        assert rows[None] == 2
