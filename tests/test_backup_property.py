"""Property-based test: coordinated backup/restore is lossless for any
archive contents."""

import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalink import (
    DataLinker,
    TokenManager,
    coordinated_backup,
    coordinated_restore,
)
from repro.fileserver import FileServer
from repro.sqldb import Database

_NAME = st.text(alphabet=string.ascii_lowercase + string.digits,
                min_size=1, max_size=10)
_CONTENT = st.binary(min_size=0, max_size=200)


class TestBackupRestoreProperty:
    @given(
        files=st.dictionaries(_NAME, _CONTENT, min_size=1, max_size=6),
        hosts=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=30, deadline=None)
    def test_round_trip_preserves_everything(self, files, hosts, tmp_path_factory):
        linker = DataLinker(
            TokenManager(secret=b"p", time_source=lambda: 0.0)
        )
        servers = [
            linker.register_server(FileServer(f"fs{i}.prop"))
            for i in range(hosts)
        ]
        db = Database()
        db.set_datalink_hooks(linker)
        db.execute(
            "CREATE TABLE F (NAME VARCHAR(20) PRIMARY KEY, SIZE INTEGER, "
            "D DATALINK LINKTYPE URL FILE LINK CONTROL INTEGRITY ALL "
            "READ PERMISSION DB WRITE PERMISSION BLOCKED RECOVERY YES "
            "ON UNLINK RESTORE)"
        )
        # the schema beyond the table travels in the same image
        db.execute("CREATE INDEX F_BY_SIZE ON F (SIZE)")
        db.execute("CREATE VIEW SMALL AS SELECT NAME, SIZE FROM F WHERE SIZE < 100")
        for i, (name, content) in enumerate(sorted(files.items())):
            server = servers[i % hosts]
            path = f"/data/{name}.bin"
            server.put(path, content)
            db.execute(
                "INSERT INTO F VALUES (?, ?, ?)",
                (name, len(content), f"http://{server.host}{path}"),
            )

        directory = str(tmp_path_factory.mktemp("img"))
        manifest = coordinated_backup(db, linker, directory)
        assert manifest["byte_total"] == sum(len(c) for c in files.values())

        db2, linker2 = coordinated_restore(
            directory, TokenManager(secret=b"p", time_source=lambda: 0.0)
        )
        assert db2.execute("SELECT COUNT(*) FROM F").scalar() == len(files)
        assert db2.catalog.ddl_script() == db.catalog.ddl_script()
        assert "F_BY_SIZE" in db2.explain("SELECT NAME FROM F WHERE SIZE = 1")
        assert sorted(db2.execute("SELECT * FROM SMALL").rows) == sorted(
            db.execute("SELECT * FROM SMALL").rows
        )
        for name, content in files.items():
            value = db2.execute(
                "SELECT D FROM F WHERE NAME = ?", (name,)
            ).scalar()
            assert value.size == len(content)
            assert linker2.download(value) == content
            # link control survives: the restored file is protected
            server2 = linker2.server(value.host)
            assert server2.filesystem.entry(value.server_path).linked
