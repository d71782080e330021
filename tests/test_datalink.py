"""Tests for SQL/MED datalink semantics: tokens, linking, backup."""

import pytest

from repro.datalink import (
    DataLinker,
    DatalinkSpec,
    TokenManager,
    coordinated_backup,
    coordinated_restore,
)
from repro.errors import (
    CatalogError,
    FileLinkError,
    RecoveryError,
    TokenError,
    TokenExpiredError,
)
from repro.fileserver import FileServer
from repro.sqldb import Database


class FakeClock:
    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now


class TestDatalinkSpec:
    def test_paper_default(self):
        spec = DatalinkSpec.paper_default()
        assert spec.link_control and spec.requires_token
        assert spec.integrity == "ALL"
        assert spec.on_unlink == "RESTORE"
        assert spec.recovery

    def test_ddl_round_trip_through_parser(self):
        from repro.sqldb.parser import parse_sql

        spec = DatalinkSpec.paper_default()
        stmt = parse_sql(f"CREATE TABLE t (d DATALINK {spec.ddl()})")
        assert stmt.columns[0].type.spec == spec

    def test_no_link_control_ddl(self):
        assert DatalinkSpec().ddl() == "LINKTYPE URL NO LINK CONTROL"

    def test_options_require_link_control(self):
        with pytest.raises(CatalogError):
            DatalinkSpec(link_control=False, read_permission="DB")

    def test_read_db_defaults_on_unlink_restore(self):
        spec = DatalinkSpec(link_control=True, read_permission="DB")
        assert spec.on_unlink == "RESTORE"

    def test_link_control_promotes_integrity(self):
        assert DatalinkSpec(link_control=True).integrity == "SELECTIVE"

    def test_bad_enums(self):
        with pytest.raises(CatalogError):
            DatalinkSpec(link_control=True, integrity="SOMETIMES")
        with pytest.raises(CatalogError):
            DatalinkSpec(link_control=True, write_permission="MAYBE")


class TestTokenManager:
    def test_issue_validate_round_trip(self):
        clock = FakeClock()
        tm = TokenManager(secret=b"k", validity_seconds=60, time_source=clock)
        token = tm.issue("host/path")
        assert tm.validate("host/path", token) is True

    def test_expiry(self):
        clock = FakeClock()
        tm = TokenManager(secret=b"k", validity_seconds=60, time_source=clock)
        token = tm.issue("host/path")
        clock.now += 61
        with pytest.raises(TokenExpiredError):
            tm.validate("host/path", token)

    def test_not_transferable_between_scopes(self):
        tm = TokenManager(secret=b"k", validity_seconds=60, time_source=FakeClock())
        token = tm.issue("host/one")
        with pytest.raises(TokenError):
            tm.validate("host/two", token)

    def test_different_secret_rejects(self):
        clock = FakeClock()
        tm1 = TokenManager(secret=b"k1", validity_seconds=60, time_source=clock)
        tm2 = TokenManager(secret=b"k2", validity_seconds=60, time_source=clock)
        with pytest.raises(TokenError):
            tm2.validate("s", tm1.issue("s"))

    def test_tampered_expiry_rejected(self):
        tm = TokenManager(secret=b"k", validity_seconds=60, time_source=FakeClock())
        token = tm.issue("s")
        expiry, _, sig = token.partition(".")
        extended = format(int(expiry, 16) + 10_000_000, "x")
        with pytest.raises(TokenError):
            tm.validate("s", f"{extended}.{sig}")

    @pytest.mark.parametrize("bad", ["", "nodot", ".", "zz.!!", "12."])
    def test_malformed_tokens(self, bad):
        tm = TokenManager(secret=b"k", time_source=FakeClock())
        with pytest.raises(TokenError):
            tm.validate("s", bad)

    def test_custom_validity_per_token(self):
        clock = FakeClock()
        tm = TokenManager(secret=b"k", validity_seconds=10, time_source=clock)
        token = tm.issue("s", validity_seconds=1000)
        clock.now += 500
        assert tm.validate("s", token)

    def test_remaining_validity(self):
        clock = FakeClock()
        tm = TokenManager(secret=b"k", validity_seconds=60, time_source=clock)
        token = tm.issue("s")
        assert tm.remaining_validity(token) == pytest.approx(60, abs=0.01)

    def test_url_safe(self):
        tm = TokenManager(secret=b"k", time_source=FakeClock())
        token = tm.issue("s")
        assert "/" not in token and "+" not in token and "=" not in token

    def test_counters(self):
        tm = TokenManager(secret=b"k", time_source=FakeClock())
        tm.validate("s", tm.issue("s"))
        assert tm.issued_count == 1 and tm.validated_count == 1

    def test_nonpositive_validity_rejected(self):
        with pytest.raises(TokenError):
            TokenManager(validity_seconds=0)


@pytest.fixture
def archive():
    """A database + linker + one file server with two candidate files."""
    clock = FakeClock()
    tm = TokenManager(secret=b"shared", validity_seconds=60, time_source=clock)
    linker = DataLinker(tm)
    server = linker.register_server(FileServer("fs1.soton.ac.uk"))
    server.put("/data/ts0001.dat", b"a" * 1000)
    server.put("/data/ts0002.dat", b"b" * 2000)
    db = Database()
    db.set_datalink_hooks(linker)
    db.execute(
        "CREATE TABLE RESULT_FILE ("
        " file_name VARCHAR(40) PRIMARY KEY,"
        " download DATALINK LINKTYPE URL FILE LINK CONTROL INTEGRITY ALL"
        "   READ PERMISSION DB WRITE PERMISSION BLOCKED RECOVERY YES"
        "   ON UNLINK RESTORE)"
    )
    return db, linker, server, clock


class TestDataLinker:
    def test_insert_links_file(self, archive):
        db, _linker, server, _clock = archive
        db.execute(
            "INSERT INTO RESULT_FILE VALUES "
            "('f1', 'http://fs1.soton.ac.uk/data/ts0001.dat')"
        )
        assert server.filesystem.entry("/data/ts0001.dat").linked

    def test_missing_file_vetoes_insert(self, archive):
        db, _linker, _server, _clock = archive
        with pytest.raises(FileLinkError):
            db.execute(
                "INSERT INTO RESULT_FILE VALUES "
                "('f1', 'http://fs1.soton.ac.uk/data/absent.dat')"
            )
        assert db.execute("SELECT COUNT(*) FROM RESULT_FILE").scalar() == 0

    def test_unknown_host_vetoes_insert(self, archive):
        db, _linker, _server, _clock = archive
        with pytest.raises(FileLinkError):
            db.execute(
                "INSERT INTO RESULT_FILE VALUES ('f1', 'http://nowhere/x.dat')"
            )

    def test_double_link_rejected_across_rows(self, archive):
        db, _linker, _server, _clock = archive
        db.execute(
            "INSERT INTO RESULT_FILE VALUES "
            "('f1', 'http://fs1.soton.ac.uk/data/ts0001.dat')"
        )
        with pytest.raises(FileLinkError):
            db.execute(
                "INSERT INTO RESULT_FILE VALUES "
                "('f2', 'http://fs1.soton.ac.uk/data/ts0001.dat')"
            )

    def test_double_link_rejected_within_txn(self, archive):
        db, _linker, _server, _clock = archive
        db.execute("BEGIN")
        db.execute(
            "INSERT INTO RESULT_FILE VALUES "
            "('f1', 'http://fs1.soton.ac.uk/data/ts0001.dat')"
        )
        with pytest.raises(FileLinkError):
            db.execute(
                "INSERT INTO RESULT_FILE VALUES "
                "('f2', 'http://fs1.soton.ac.uk/data/ts0001.dat')"
            )
        db.execute("COMMIT")

    def test_rollback_discards_pending_link(self, archive):
        db, _linker, server, _clock = archive
        db.execute("BEGIN")
        db.execute(
            "INSERT INTO RESULT_FILE VALUES "
            "('f1', 'http://fs1.soton.ac.uk/data/ts0001.dat')"
        )
        db.execute("ROLLBACK")
        assert not server.filesystem.entry("/data/ts0001.dat").linked

    def test_link_applied_only_at_commit(self, archive):
        db, _linker, server, _clock = archive
        db.execute("BEGIN")
        db.execute(
            "INSERT INTO RESULT_FILE VALUES "
            "('f1', 'http://fs1.soton.ac.uk/data/ts0001.dat')"
        )
        assert not server.filesystem.entry("/data/ts0001.dat").linked
        db.execute("COMMIT")
        assert server.filesystem.entry("/data/ts0001.dat").linked

    def test_delete_unlinks_with_restore(self, archive):
        db, _linker, server, _clock = archive
        db.execute(
            "INSERT INTO RESULT_FILE VALUES "
            "('f1', 'http://fs1.soton.ac.uk/data/ts0001.dat')"
        )
        db.execute("DELETE FROM RESULT_FILE WHERE file_name = 'f1'")
        entry = server.filesystem.entry("/data/ts0001.dat")
        assert not entry.linked  # ON UNLINK RESTORE keeps the file

    def test_on_unlink_delete_removes_file(self, archive):
        db, linker, server, _clock = archive
        db.execute(
            "CREATE TABLE SCRATCH (k VARCHAR(5) PRIMARY KEY,"
            " d DATALINK LINKTYPE URL FILE LINK CONTROL INTEGRITY ALL"
            "   READ PERMISSION FS WRITE PERMISSION FS RECOVERY NO"
            "   ON UNLINK DELETE)"
        )
        db.execute(
            "INSERT INTO SCRATCH VALUES ('x', 'http://fs1.soton.ac.uk/data/ts0002.dat')"
        )
        db.execute("DELETE FROM SCRATCH WHERE k = 'x'")
        assert not server.filesystem.exists("/data/ts0002.dat")

    def test_update_relinks(self, archive):
        db, _linker, server, _clock = archive
        db.execute(
            "INSERT INTO RESULT_FILE VALUES "
            "('f1', 'http://fs1.soton.ac.uk/data/ts0001.dat')"
        )
        db.execute(
            "UPDATE RESULT_FILE SET download = "
            "'http://fs1.soton.ac.uk/data/ts0002.dat' WHERE file_name = 'f1'"
        )
        assert not server.filesystem.entry("/data/ts0001.dat").linked
        assert server.filesystem.entry("/data/ts0002.dat").linked

    def test_select_attaches_token_and_size(self, archive):
        db, linker, _server, _clock = archive
        db.execute(
            "INSERT INTO RESULT_FILE VALUES "
            "('f1', 'http://fs1.soton.ac.uk/data/ts0001.dat')"
        )
        value = db.execute("SELECT download FROM RESULT_FILE").scalar()
        assert value.token is not None
        assert value.size == 1000
        assert ";" in value.tokenized_url
        assert linker.download(value) == b"a" * 1000

    def test_expired_token_refused_fresh_select_works(self, archive):
        db, linker, _server, clock = archive
        db.execute(
            "INSERT INTO RESULT_FILE VALUES "
            "('f1', 'http://fs1.soton.ac.uk/data/ts0001.dat')"
        )
        value = db.execute("SELECT download FROM RESULT_FILE").scalar()
        clock.now += 3600
        with pytest.raises(TokenExpiredError):
            linker.download(value)
        fresh = db.execute("SELECT download FROM RESULT_FILE").scalar()
        assert linker.download(fresh) == b"a" * 1000

    def test_no_link_control_column_untouched(self, archive):
        db, _linker, server, _clock = archive
        db.execute(
            "CREATE TABLE NOTES (k VARCHAR(5) PRIMARY KEY,"
            " d DATALINK LINKTYPE URL NO LINK CONTROL)"
        )
        db.execute("INSERT INTO NOTES VALUES ('n', 'http://elsewhere/f.txt')")
        value = db.execute("SELECT d FROM NOTES").scalar()
        assert value.token is None

    def test_statement_rollback_in_explicit_txn(self, archive):
        """A failed multi-row INSERT inside a txn leaves no pending links."""
        db, _linker, server, _clock = archive
        db.execute("BEGIN")
        with pytest.raises(FileLinkError):
            db.execute(
                "INSERT INTO RESULT_FILE VALUES "
                "('f1', 'http://fs1.soton.ac.uk/data/ts0001.dat'),"
                "('f2', 'http://fs1.soton.ac.uk/data/absent.dat')"
            )
        db.execute("COMMIT")
        assert db.execute("SELECT COUNT(*) FROM RESULT_FILE").scalar() == 0
        assert not server.filesystem.entry("/data/ts0001.dat").linked

    def test_duplicate_server_registration(self, archive):
        _db, linker, _server, _clock = archive
        with pytest.raises(FileLinkError):
            linker.register_server(FileServer("fs1.soton.ac.uk"))

    def test_recovery_manifest(self, archive):
        db, linker, _server, _clock = archive
        db.execute(
            "INSERT INTO RESULT_FILE VALUES "
            "('f1', 'http://fs1.soton.ac.uk/data/ts0001.dat')"
        )
        assert linker.recovery_manifest() == [
            ("fs1.soton.ac.uk", "/data/ts0001.dat")
        ]


class TestCoordinatedBackup:
    def test_round_trip(self, archive, tmp_path):
        db, linker, _server, clock = archive
        db.execute(
            "INSERT INTO RESULT_FILE VALUES "
            "('f1', 'http://fs1.soton.ac.uk/data/ts0001.dat')"
        )
        manifest = coordinated_backup(db, linker, str(tmp_path))
        assert manifest["byte_total"] == 1000

        tm = TokenManager(secret=b"shared", validity_seconds=60,
                          time_source=lambda: clock.now)
        db2, linker2 = coordinated_restore(str(tmp_path), tm)
        value = db2.execute("SELECT download FROM RESULT_FILE").scalar()
        assert value.size == 1000
        assert linker2.download(value) == b"a" * 1000
        # link control survives the restore
        server2 = linker2.server("fs1.soton.ac.uk")
        assert server2.filesystem.entry("/data/ts0001.dat").linked

    def test_only_recovery_yes_files_in_image(self, archive, tmp_path):
        db, linker, server, _clock = archive
        db.execute(
            "CREATE TABLE SCRATCH (k VARCHAR(5) PRIMARY KEY,"
            " d DATALINK LINKTYPE URL FILE LINK CONTROL"
            "   READ PERMISSION FS WRITE PERMISSION FS RECOVERY NO"
            "   ON UNLINK RESTORE)"
        )
        db.execute(
            "INSERT INTO SCRATCH VALUES ('x', 'http://fs1.soton.ac.uk/data/ts0002.dat')"
        )
        manifest = coordinated_backup(db, linker, str(tmp_path))
        assert manifest["files"] == []  # RECOVERY NO file not in the image

    def test_restored_rows_visible_to_every_connection(self, archive, tmp_path):
        db, linker, _server, _clock = archive
        db.execute("CREATE TABLE NOTE (K INTEGER PRIMARY KEY, V VARCHAR(8))")
        for k in range(6):
            db.execute("INSERT INTO NOTE VALUES (?, ?)", (k, f"v{k}"))
        coordinated_backup(db, linker, str(tmp_path))
        db2, _linker2 = coordinated_restore(str(tmp_path))
        reader = db2.connect()
        assert reader.execute("SELECT COUNT(*) FROM NOTE").scalar() == 6
        assert reader.execute("SELECT V FROM NOTE WHERE K = 4").scalar() == "v4"
        # the load was committed and pruned: no write mark per loaded row
        assert db2.catalog.table("NOTE").heap._written == {}

    def test_image_leaves_out_open_transaction(self, archive, tmp_path):
        db, linker, _server, _clock = archive
        db.execute("CREATE TABLE NOTE (K INTEGER PRIMARY KEY, V VARCHAR(8))")
        db.execute("INSERT INTO NOTE VALUES (1, 'old')")
        writer = db.connect()
        writer.execute("BEGIN")
        writer.execute("INSERT INTO NOTE VALUES (2, 'new')")
        writer.execute("UPDATE NOTE SET V = 'changed' WHERE K = 1")
        coordinated_backup(db, linker, str(tmp_path))
        writer.execute("ROLLBACK")
        db2, _linker2 = coordinated_restore(str(tmp_path))
        assert db2.execute("SELECT K, V FROM NOTE").rows == [(1, "old")]

    def test_restore_missing_image(self, tmp_path):
        with pytest.raises(RecoveryError):
            coordinated_restore(str(tmp_path / "empty"))
