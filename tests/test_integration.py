"""End-to-end integration tests across every subsystem."""

import json

import pytest

from repro import (
    EasiaApp,
    coordinated_backup,
    coordinated_restore,
    build_turbulence_archive,
)
from repro.datalink import TokenManager
from repro.sqldb import Database


@pytest.fixture(scope="module")
def archive():
    return build_turbulence_archive(n_simulations=3, timesteps=2, grid=10)


@pytest.fixture(scope="module")
def app(archive, tmp_path_factory):
    engine = archive.make_engine(str(tmp_path_factory.mktemp("sandbox")))
    return EasiaApp(
        archive.db, archive.linker, archive.document, archive.users, engine
    )


class TestFullUserJourney:
    """The paper's demo walkthrough: log in as guest, search, browse,
    post-process — never moving a whole dataset."""

    def test_guest_journey(self, app, archive):
        session = app.login("guest", "guest")

        # 1. Home page lists the five tables.
        home = app.get("/", session_id=session).text
        for table in ("AUTHOR", "SIMULATION", "RESULT_FILE",
                      "CODE_FILE", "VISUALISATION_FILE"):
            assert table in home

        # 2. QBE search for large simulations.
        results = app.get(
            "/search",
            {"table": "SIMULATION", "show_SIMULATION_KEY": "on",
             "show_TITLE": "on", "show_AUTHOR_KEY": "on",
             "val_GRID_SIZE": "10", "op_GRID_SIZE": ">="},
            session_id=session,
        ).text
        assert "3 row(s)" in results

        # 3. Follow a PK browse link into RESULT_FILE.
        children = app.get(
            "/browse/pk",
            {"ref": "RESULT_FILE.SIMULATION_KEY",
             "value": archive.simulation_keys[0]},
            session_id=session,
        ).text
        assert "2 row(s)" in children
        assert "GetImage" in children

        # 4. Run the GetImage operation; only the small image ships.
        image = app.post(
            "/operation/run",
            {"name": "GetImage", "colid": "RESULT_FILE.DOWNLOAD_RESULT",
             "key_FILE_NAME": "ts0000.turb",
             "key_SIMULATION_KEY": archive.simulation_keys[0],
             "slice": "x2", "type": "p"},
            session_id=session,
        )
        assert image.body.startswith(b"P5")
        dataset_size = archive.result_rows()[0]["RESULT_FILE.FILE_SIZE"]
        assert len(image.body) < dataset_size / 10

        # 5. Guests cannot pull the raw dataset.
        url = archive.result_rows()[0]["RESULT_FILE.DOWNLOAD_RESULT"].url
        assert app.get("/download", {"url": url}, session_id=session).status == 403

    def test_researcher_journey(self, app, archive):
        session = app.login("turbulence", "consortium")
        row = archive.result_rows()[0]

        # Researcher downloads a dataset through a fresh token.
        url = row["RESULT_FILE.DOWNLOAD_RESULT"].url
        download = app.get("/download", {"url": url}, session_id=session)
        assert download.ok
        assert len(download.body) == row["RESULT_FILE.FILE_SIZE"]

        # And runs the restricted Subsample operation.
        reduced = app.post(
            "/operation/run",
            {"name": "Subsample", "colid": "RESULT_FILE.DOWNLOAD_RESULT",
             "key_FILE_NAME": row["RESULT_FILE.FILE_NAME"],
             "key_SIMULATION_KEY": row["RESULT_FILE.SIMULATION_KEY"],
             "factor": "2"},
            session_id=session,
        )
        assert reduced.ok
        assert len(reduced.body) < row["RESULT_FILE.FILE_SIZE"]


class TestOperationsOverDistributedServers:
    def test_each_server_processes_its_own_data(self, archive, tmp_path):
        """Operations read datasets locally on their home file server —
        zero dataset bytes cross between servers."""
        engine = archive.make_engine(str(tmp_path / "sb"))
        before = {s.host: s.bytes_served for s in archive.servers}
        for row in archive.result_rows():
            result = engine.invoke(
                "FieldStats", "RESULT_FILE.DOWNLOAD_RESULT", row,
                use_cache=False,
            )
            stats = json.loads(result.outputs["stats.json"])
            assert stats["grid"] == [archive.grid] * 3
        after = {s.host: s.bytes_served for s in archive.servers}
        # serve() was never involved: local filesystem reads only
        assert before == after


class TestCoordinatedBackupRestoreFullArchive:
    def test_whole_archive_survives(self, archive, tmp_path):
        manifest = coordinated_backup(archive.db, archive.linker, str(tmp_path))
        # every RESULT_FILE and CODE_FILE dataset participates (RECOVERY YES)
        result_count = archive.db.execute(
            "SELECT COUNT(*) FROM RESULT_FILE"
        ).scalar()
        code_count = archive.db.execute("SELECT COUNT(*) FROM CODE_FILE").scalar()
        assert len(manifest["files"]) == result_count + code_count

        db2, linker2 = coordinated_restore(
            str(tmp_path),
            TokenManager(secret=b"r", validity_seconds=600,
                         time_source=lambda: 0.0),
        )
        assert db2.execute("SELECT COUNT(*) FROM SIMULATION").scalar() == 3
        value = db2.execute(
            "SELECT DOWNLOAD_RESULT FROM RESULT_FILE LIMIT 1"
        ).scalar()
        data = linker2.download(value)
        assert len(data) == value.size


class TestWalDurabilityWithArchiveSchema:
    def test_crash_recovery_preserves_turbulence_metadata(self, tmp_path):
        from repro.turbulence import create_turbulence_schema

        d = str(tmp_path / "db")
        db = Database(d)
        create_turbulence_schema(db)
        db.execute(
            "INSERT INTO AUTHOR VALUES ('A1', 'Mark', 'm@x', 'Soton')"
        )
        db.execute(
            "INSERT INTO SIMULATION (SIMULATION_KEY, AUTHOR_KEY, TITLE) "
            "VALUES ('S1', 'A1', 'Channel')"
        )
        # Uncommitted work must not survive the "crash".
        db.execute("BEGIN")
        db.execute("INSERT INTO AUTHOR VALUES ('A2', 'Ghost', NULL, NULL)")
        # no COMMIT: simulate a crash by simply reopening from disk

        db2 = Database(d)
        assert db2.execute("SELECT COUNT(*) FROM AUTHOR").scalar() == 1
        assert db2.execute(
            "SELECT TITLE FROM SIMULATION WHERE SIMULATION_KEY = 'S1'"
        ).scalar() == "Channel"
        # FKs still enforced after recovery
        from repro.errors import ForeignKeyViolation

        with pytest.raises(ForeignKeyViolation):
            db2.execute("DELETE FROM AUTHOR WHERE AUTHOR_KEY = 'A1'")

    def test_checkpoint_then_more_work_then_recover(self, tmp_path):
        d = str(tmp_path / "db")
        db = Database(d)
        db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v VARCHAR(10))")
        for i in range(20):
            db.execute("INSERT INTO t VALUES (?, ?)", (i, f"v{i}"))
        db.checkpoint()
        for i in range(20, 30):
            db.execute("INSERT INTO t VALUES (?, ?)", (i, f"v{i}"))
        db.execute("DELETE FROM t WHERE k < 5")

        db2 = Database(d)
        assert db2.execute("SELECT COUNT(*) FROM t").scalar() == 25
        assert db2.execute("SELECT MIN(k) FROM t").scalar() == 5


class TestXuisDrivesEverything:
    def test_removing_operation_from_xuis_removes_it_from_app(
        self, archive, tmp_path
    ):
        """The decoupling claim: edit the XML, the interface follows."""
        from repro.xuis import Customizer

        trimmed = Customizer(archive.document).remove_operation(
            "RESULT_FILE.DOWNLOAD_RESULT", "GetImage"
        ).document
        engine = archive.make_engine(str(tmp_path / "sb"))
        app = EasiaApp(
            archive.db, archive.linker, trimmed, archive.users, engine,
        )
        session = app.login("guest", "guest")
        listing = app.get(
            "/table", {"name": "RESULT_FILE"}, session_id=session
        ).text
        assert "GetImage" not in listing
        assert "FieldStats" in listing

    def test_hiding_column_hides_it_from_search(self, archive, tmp_path):
        from repro.xuis import Customizer

        trimmed = Customizer(archive.document).hide_column(
            "AUTHOR.EMAIL"
        ).document
        engine = archive.make_engine(str(tmp_path / "sb"))
        app = EasiaApp(
            archive.db, archive.linker, trimmed, archive.users, engine,
        )
        session = app.login("guest", "guest")
        form = app.get("/query", {"table": "AUTHOR"}, session_id=session).text
        assert "EMAIL" not in form
        listing = app.get("/table", {"name": "AUTHOR"}, session_id=session).text
        assert "papiani@computer.org" not in listing
