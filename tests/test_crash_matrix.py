"""The deterministic crash matrix.

Every durable-mode transaction scenario is run once per registered crash
point: the fault injector kills the "process" at that point, the database
is reopened from disk (recovery + datalink reconciliation), and the
recovered state must equal either the pre-transaction or the
post-transaction state — atomicity under every crash we can name.

The expected side is deterministic per point: anything before the WAL
record is fully on disk recovers to *pre*; anything after recovers to
*post* (committed work is never lost), with datalink reconciliation
closing any database/file-server gap the crash opened.
"""

import pytest

from repro import faultinject
from repro.datalink import DataLinker, TokenManager
from repro.datalink.reconcile import reconcile
from repro.fileserver import FileServer
from repro.sqldb import Database
from repro.sqldb.types import DatalinkValue

PLAIN_DDL = "CREATE TABLE t (k INTEGER PRIMARY KEY, v VARCHAR(10))"
DATALINK_DDL = (
    "CREATE TABLE r (k INTEGER PRIMARY KEY, d DATALINK LINKTYPE URL "
    "FILE LINK CONTROL READ PERMISSION DB WRITE PERMISSION BLOCKED "
    "RECOVERY YES ON UNLINK RESTORE)"
)
FILES = ["/data/a.bin", "/data/b.bin", "/data/c.bin"]


class Scenario:
    """One durable-mode transaction plus the crash points it exercises.

    ``points`` maps each (crash point, skip) pair to the state the
    recovered database must equal: "pre" or "post".
    """

    name: str
    tables: list[str]
    datalink = False
    points: list[tuple[str, int, str]]

    def build(self, directory):
        """Create the archive with the committed pre-state."""
        linker = server = None
        db = Database(directory, sync=True)
        if self.datalink:
            linker = DataLinker(
                TokenManager(secret=b"matrix", time_source=lambda: 0.0)
            )
            server = linker.register_server(FileServer("fs.x"))
            for path in FILES:
                server.put(path, b"payload:" + path.encode())
            db.set_datalink_hooks(linker)
        self.setup(db)
        return db, linker, server

    def setup(self, db):
        raise NotImplementedError

    def mutate(self, db):
        raise NotImplementedError


class InsertAutocommit(Scenario):
    name = "insert-autocommit"
    tables = ["t"]
    points = [
        ("wal.append.torn", 0, "pre"),
        ("wal.append.full_write", 0, "post"),
    ]

    def setup(self, db):
        db.execute(PLAIN_DDL)
        db.execute("INSERT INTO t VALUES (1, 'a')")

    def mutate(self, db):
        db.execute("INSERT INTO t VALUES (2, 'b')")


class ExplicitMultiOp(Scenario):
    name = "explicit-multiop"
    tables = ["t"]
    points = [
        ("wal.append.torn", 0, "pre"),
        ("wal.append.full_write", 0, "post"),
    ]

    def setup(self, db):
        db.execute(PLAIN_DDL)
        db.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c')")

    def mutate(self, db):
        db.execute("BEGIN")
        db.execute("INSERT INTO t VALUES (4, 'd')")
        db.execute("UPDATE t SET v = 'upd' WHERE k = 1")
        db.execute("DELETE FROM t WHERE k = 2")
        db.execute("COMMIT")


class Checkpoint(Scenario):
    name = "checkpoint"
    tables = ["t"]
    # A checkpoint does not change logical state: pre == post, and the
    # assertion's real teeth are "no duplicated rows" after replay, and
    # the schema beyond the table (a user index, a view over a view)
    # coming back from whichever of checkpoint and log recovery reads.
    points = [
        ("wal.checkpoint.tmp_written", 0, "pre"),
        ("wal.checkpoint.after_replace", 0, "pre"),
        ("wal.checkpoint.after_truncate", 0, "pre"),
    ]

    def setup(self, db):
        db.execute(PLAIN_DDL)
        db.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c')")
        db.execute("UPDATE t SET v = 'z' WHERE k = 3")
        db.execute("CREATE INDEX IX_T_V ON t (v)")
        db.execute("CREATE VIEW z_base AS SELECT k, v FROM t WHERE k > 1")
        db.execute("CREATE VIEW a_top AS SELECT v FROM z_base")

    def mutate(self, db):
        db.checkpoint()


class LinkInsert(Scenario):
    name = "link-insert"
    tables = ["r"]
    datalink = True
    points = [
        ("wal.append.torn", 0, "pre"),
        ("wal.append.full_write", 0, "post"),
        ("datalink.apply.before_op", 0, "post"),
        ("fileserver.dl_link", 0, "post"),
        ("datalink.apply.after_op", 0, "post"),
    ]

    def setup(self, db):
        db.execute(DATALINK_DDL)
        db.execute("INSERT INTO r VALUES (1, 'http://fs.x/data/a.bin')")

    def mutate(self, db):
        db.execute("INSERT INTO r VALUES (2, 'http://fs.x/data/b.bin')")


class UnlinkDelete(Scenario):
    name = "unlink-delete"
    tables = ["r"]
    datalink = True
    points = [
        ("wal.append.torn", 0, "pre"),
        ("wal.append.full_write", 0, "post"),
        ("datalink.apply.before_op", 0, "post"),
        ("fileserver.dl_unlink", 0, "post"),
        ("datalink.apply.after_op", 0, "post"),
    ]

    def setup(self, db):
        db.execute(DATALINK_DDL)
        db.execute("INSERT INTO r VALUES (1, 'http://fs.x/data/a.bin')")
        db.execute("INSERT INTO r VALUES (2, 'http://fs.x/data/b.bin')")

    def mutate(self, db):
        db.execute("DELETE FROM r WHERE k = 2")


class MultiLinkTransaction(Scenario):
    name = "multi-link-txn"
    tables = ["r"]
    datalink = True
    # skip=1 dies between the first and second link application: one file
    # is under link control, the other is not, and reconciliation must
    # close exactly that gap.
    points = [
        ("datalink.apply.before_op", 1, "post"),
        ("datalink.apply.after_op", 1, "post"),
        ("fileserver.dl_link", 1, "post"),
    ]

    def setup(self, db):
        db.execute(DATALINK_DDL)

    def mutate(self, db):
        db.execute("BEGIN")
        db.execute("INSERT INTO r VALUES (1, 'http://fs.x/data/b.bin')")
        db.execute("INSERT INTO r VALUES (2, 'http://fs.x/data/c.bin')")
        db.execute("COMMIT")


SCENARIOS = [
    InsertAutocommit(),
    ExplicitMultiOp(),
    Checkpoint(),
    LinkInsert(),
    UnlinkDelete(),
    MultiLinkTransaction(),
]

MATRIX = [
    (scenario, point, skip, expected)
    for scenario in SCENARIOS
    for point, skip, expected in scenario.points
]


def db_state(db, tables):
    """Logical contents, normalised for comparison across processes: the
    schema script (tables, user indexes, views), the rows of ``tables``
    and of every view."""
    state = {"ddl": db.catalog.ddl_script()}
    for table in tables + db.catalog.view_names():
        rows = []
        for row in db.execute(f"SELECT * FROM {table}").rows:
            rows.append(tuple(
                value.url if isinstance(value, DatalinkValue) else value
                for value in row
            ))
        state[table] = sorted(rows)
    return state


def link_state(server):
    if server is None:
        return None
    fs = server.filesystem
    return {
        path: (
            fs.entry(path).linked,
            fs.entry(path).read_db,
            fs.entry(path).write_blocked,
            fs.entry(path).recovery,
        )
        for path in fs.paths()
    }


def reopen(directory, linker):
    """Simulated reboot of the database host.

    The crashed Database object is discarded; the file servers (remote
    processes) survive with whatever state the crash left them.  Recovery
    replays the WAL, then datalink reconciliation audits and repairs the
    database/file-server gap.
    """
    db = Database(directory, sync=True)
    if linker is not None:
        linker.recover(db)
        db.set_datalink_hooks(linker)
    return db


@pytest.mark.parametrize(
    "scenario,point,skip,expected",
    MATRIX,
    ids=[f"{s.name}--{p}-skip{k}" for s, p, k, _e in MATRIX],
)
def test_crash_matrix(tmp_path, scenario, point, skip, expected):
    # The clean run, in its own directory: what "post" should look like.
    clean_db, clean_linker, clean_server = scenario.build(
        str(tmp_path / "clean")
    )
    pre_rows = db_state(clean_db, scenario.tables)
    pre_links = link_state(clean_server)
    scenario.mutate(clean_db)
    post_rows = db_state(clean_db, scenario.tables)
    post_links = link_state(clean_server)

    # The crashed run.
    d = str(tmp_path / "crash")
    db, linker, server = scenario.build(d)
    assert db_state(db, scenario.tables) == pre_rows
    with faultinject.inject_crash(point, skip) as injector:
        scenario.mutate(db)
    assert injector.fired

    recovered = reopen(d, linker)
    state = db_state(recovered, scenario.tables)
    want = pre_rows if expected == "pre" else post_rows
    assert state == want, (
        f"crash at {point} (skip={skip}): recovered state is neither the "
        f"pre- nor the expected {expected}-transaction state"
    )
    # Atomicity means the *other* side is the only alternative; recovered
    # state must never be a hybrid.  (For checkpoint scenarios pre == post,
    # so the check above already covers it.)
    assert state in (pre_rows, post_rows)

    if linker is not None:
        # Reconciliation + repair must leave no unreported divergence: the
        # file servers now agree with the recovered database.
        assert reconcile(recovered, linker).consistent
        want_links = pre_links if expected == "pre" else post_links
        assert link_state(server) == want_links

    # Recovery must be reusable, not merely readable: the recovered
    # database can commit and checkpoint, and the result reopens cleanly.
    recovered.checkpoint()
    final = reopen(d, linker)
    assert db_state(final, scenario.tables) == want


def test_every_registered_crash_point_is_exercised():
    """Guards against silently-dead injection sites: a crash point that no
    scenario reaches would otherwise never be tested (and inject_crash
    would fail fast on it anyway)."""
    covered = {point for scenario in SCENARIOS for point, _s, _e in scenario.points}
    assert covered == faultinject.CRASH_POINTS


def test_double_crash_during_recovery_checkpoint(tmp_path):
    """Crash during the checkpoint that follows a crash recovery: recovery
    must be idempotent across repeated partial attempts."""
    d = str(tmp_path)
    db = Database(d, sync=True)
    db.execute(PLAIN_DDL)
    db.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b')")
    with faultinject.inject_crash("wal.append.torn"):
        db.execute("INSERT INTO t VALUES (3, 'c')")
    db2 = Database(d, sync=True)
    with faultinject.inject_crash("wal.checkpoint.after_replace"):
        db2.checkpoint()
    db3 = Database(d, sync=True)
    assert sorted(db3.execute("SELECT k FROM t").rows) == [(1,), (2,)]
    db3.execute("INSERT INTO t VALUES (3, 'c')")
    assert sorted(Database(d).execute("SELECT k FROM t").rows) == [
        (1,), (2,), (3,),
    ]


def test_orphan_detection_is_reported_before_repair(tmp_path):
    """The pre-repair report names the orphan a mid-unlink crash leaves."""
    scenario = UnlinkDelete()
    d = str(tmp_path)
    db, linker, server = scenario.build(d)
    with faultinject.inject_crash("datalink.apply.before_op"):
        scenario.mutate(db)
    db2 = Database(d, sync=True)
    linker.discard_pending()
    report = linker.recover(db2)
    orphans = report.by_kind("orphaned")
    assert [(f.host, f.path) for f in orphans] == [("fs.x", "/data/b.bin")]
    assert reconcile(db2, linker).consistent
