"""Connection-scoped sessions: snapshot reads, the writer lock, pooling.

The paper's archive is a multi-user web system; this module is what turns
the single-user engine into one.  The pieces:

* :class:`WriterLock` — the engine's single writer lock.  Writes from any
  connection serialise through it; acquisition has a configurable timeout
  that raises :class:`~repro.errors.LockTimeout` instead of blocking
  forever, and every wait is measured (``sqldb.writer_lock.*`` metrics;
  ``/metrics`` reads the queue depth from the lock).
* :class:`TableSnapshot` / :class:`SnapshotCatalog` — read-only views of
  the live catalog at one version-clock sequence.  Every access path —
  index lookups, range scans, index joins, scans — reads the live heap
  and live indexes, corrected by the heap's write marks (see
  :mod:`repro.sqldb.storage`).
* :class:`Connection` — one session's handle: its own
  :class:`~repro.sqldb.transactions.TransactionManager` (transaction state
  is *per connection*) and its own executor over its
  :class:`SnapshotCatalog` (the executor keeps per-statement state and is
  not shareable across threads).
* :class:`ConnectionPool` — a small fixed pool the servlet container
  checks a connection out of per request, installing it as the calling
  thread's implicit connection for the request's duration.

Isolation level offered (see docs/CONCURRENCY.md): *read committed with
per-statement snapshots*.  Every statement reads at one snapshot.  A
connection that holds the writer lock reads at ``clock.pending``, so it
sees its own uncommitted writes (nobody else can have any); every other
statement — on the implicit connection behind ``Database.execute``, on a
pooled connection, or inside an explicit transaction before its first
write — pins the committed sequence, so it sees one consistent committed
state and never blocks on the writer.
"""

from __future__ import annotations

import queue
import threading
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Sequence

from repro.errors import LockTimeout, TransactionError
from repro.obs import get_observability
from repro.sqldb.executor import Executor
from repro.sqldb.parser import parse_script
from repro.sqldb.transactions import TransactionManager

__all__ = [
    "Connection",
    "ConnectionPool",
    "SnapshotCatalog",
    "TableSnapshot",
    "WriterLock",
]

#: default writer-lock acquisition timeout, seconds
DEFAULT_LOCK_TIMEOUT = 30.0


class WriterLock:
    """The engine's single writer lock, with timeout and instrumentation.

    Not reentrant: one connection holds it from its first write statement
    until commit/rollback.  ``queue_depth`` is the number of threads
    currently blocked waiting — the writer-queue depth surfaced at
    ``/metrics``.
    """

    def __init__(self, timeout: float = DEFAULT_LOCK_TIMEOUT, obs=None) -> None:
        self._lock = threading.Lock()
        self.timeout = timeout
        self._obs = obs
        self._waiters = 0
        self._waiters_lock = threading.Lock()

    @property
    def queue_depth(self) -> int:
        return self._waiters

    def locked(self) -> bool:
        return self._lock.locked()

    def acquire(self, timeout: float | None = None) -> None:
        if timeout is None:
            timeout = self.timeout
        obs = self._obs or get_observability()
        # Fast path: uncontended acquisition costs one try-lock.
        if self._lock.acquire(blocking=False):
            if obs.enabled:
                obs.metrics.counter("sqldb.writer_lock.acquires").inc()
            return
        with self._waiters_lock:
            self._waiters += 1
        started = perf_counter()
        try:
            acquired = self._lock.acquire(timeout=timeout)
        finally:
            waited = perf_counter() - started
            with self._waiters_lock:
                self._waiters -= 1
        if obs.enabled:
            obs.metrics.histogram("sqldb.writer_lock.wait_seconds").observe(
                waited
            )
        if not acquired:
            if obs.enabled:
                obs.metrics.counter("sqldb.writer_lock.timeouts").inc()
                obs.events.emit(
                    "sqldb.writer_lock.timeout", timeout=timeout, waited=waited
                )
            raise LockTimeout(
                f"writer lock not acquired within {timeout:g}s "
                f"({self._waiters} other writer(s) waiting)"
            )
        if obs.enabled:
            obs.metrics.counter("sqldb.writer_lock.acquires").inc()

    def release(self) -> None:
        self._lock.release()


class TableSnapshot:
    """One :class:`~repro.sqldb.storage.Table` as of a snapshot sequence,
    presenting the executor's table interface.

    The live indexes serve every access path; :meth:`rows` and
    :meth:`lookup` turn their candidates into the rows visible at the
    snapshot, a superset of the matches that the executor filters again.

    One snapshot serves one statement.  The version at the snapshot of a
    rowid written after it cannot change while the snapshot is
    registered, and such a rowid stays written after it, so
    :meth:`lookup` reads each one's version once per statement and files
    it under its key in each probed index; it reads the marks again only
    when the heap's ``mark_count`` moved.
    """

    def __init__(self, table, snapshot: int) -> None:
        self._table = table
        self.snapshot = snapshot
        self.schema = table.schema
        self.indexes = dict(table.indexes)
        self._visible: list[tuple[int, tuple]] | None = None
        #: rowid written after the snapshot -> its version there (or None)
        self._late: dict[int, tuple | None] = {}
        #: index name -> key -> late rowids whose version has that key
        self._late_keys: dict[str, dict[tuple, list[int]]] = {}
        #: the heap's mark_count when ``_late`` was last brought up to date
        self._marks_read: int | None = None

    def _scanned(self) -> list[tuple[int, tuple]]:
        if self._visible is None:
            self._visible = self._table.heap.scan_at(self.snapshot)
        return self._visible

    def scan(self):
        return iter(self._scanned())

    def rows(self, rowids) -> list[tuple]:
        """The visible rows for index candidates ``rowids``."""
        return self._table.heap.rows_at(rowids, self.snapshot)

    def lookup(self, index, key: tuple) -> list[tuple]:
        """The visible rows whose ``index`` key is ``key``: the live
        candidates not written after the snapshot, then, in rowid order,
        the versions of rowids written after it whose key there is
        ``key``.  Reads the index, then the live rows, then the marks."""
        heap = self._table.heap
        pairs = heap.live_pairs(index.find_sorted(key))
        known = self._late
        marks = heap.mark_count
        if marks != self._marks_read:
            self._marks_read = marks
            new = [
                rowid for rowid in heap.late_rowids(self.snapshot)
                if rowid not in known
            ]
            for rowid in new:
                known[rowid] = heap.version_at(rowid, self.snapshot)
            if new:
                self._late_keys.clear()
        if not known:
            return [row for _rowid, row in pairs]
        by_key = self._late_keys.get(index.name)
        if by_key is None:
            by_key = self._late_keys[index.name] = {}
            positions = [self.schema.column_index(c) for c in index.columns]
            for rowid in sorted(known):
                version = known[rowid]
                if version is not None:
                    version_key = tuple([version[p] for p in positions])
                    by_key.setdefault(version_key, []).append(rowid)
        out = [row for rowid, row in pairs if rowid not in known]
        out.extend(known[rowid] for rowid in by_key.get(key, ()))
        return out

    def ordered(self, index, prefix: tuple, window: tuple[int, int] | None,
                ) -> tuple[list[tuple], int] | None:
        """The rows whose sorted ``index`` key starts with ``prefix``, in
        index order (those at the ``(start, stop)`` positions of
        ``window``, or all when None), and the length of that range.

        None when the table has a row written after the snapshot: the live
        index and rows are then not the snapshot's.  Reads the index, then
        the live rows, then the marks, as :meth:`lookup` does, so a write
        the marks do not show changed nothing that was read."""
        heap = self._table.heap
        rowids = index.prefix(prefix)
        pairs = heap.live_pairs(
            rowids if window is None else rowids[window[0]:window[1]]
        )
        if heap.late_rowids(self.snapshot):
            return None
        return [row for _rowid, row in pairs], len(rowids)

    def index_leading_on(self, column: str):
        return self._table.index_leading_on(column)

    def __len__(self) -> int:
        return len(self._scanned())


class SnapshotCatalog:
    """Catalog facade resolving every table to a :class:`TableSnapshot` at
    ``snapshot``, which the connection sets before each statement.  System
    catalog views are synthesised transient tables, outside row
    versioning; SYSTABLES counts each table's rows at ``snapshot``.
    """

    def __init__(self, catalog) -> None:
        self._catalog = catalog
        self.snapshot = 0

    # -- the catalog surface the executor consumes -----------------------------

    def table(self, name: str):
        if self._catalog.is_system_table(name):
            return self._catalog.system_table(name, self.snapshot)
        return TableSnapshot(self._catalog.table(name), self.snapshot)

    def schema(self, name: str):
        return self._catalog.schema(name)

    def has_table(self, name: str) -> bool:
        return self._catalog.has_table(name)

    def is_system_table(self, name: str) -> bool:
        return self._catalog.is_system_table(name)

    def is_view(self, name: str) -> bool:
        return self._catalog.is_view(name)

    def view_select(self, name: str):
        return self._catalog.view_select(name)


class Connection:
    """One session's handle onto a :class:`~repro.sqldb.database.Database`.

    Owns its transaction state (so concurrent sessions can each hold an
    open transaction) and one executor, which reads at the snapshot
    :meth:`snapshot` sets.  Not itself thread-safe: one connection serves
    one thread at a time, which is exactly how the pool hands them out.
    """

    def __init__(self, db, lock_timeout: float | None = None) -> None:
        self._db = db
        #: per-connection override of the engine's writer-lock timeout
        self.lock_timeout = lock_timeout
        self.txns = TransactionManager(
            db.catalog,
            db._wal,
            id_allocator=db._allocate_txn_id,
            clock=db.catalog.clock,
            writer=db.writer_lock,
            snapshot_floor=db.snapshot_floor,
            obs=db._obs,
        )
        self._catalog = SnapshotCatalog(db.catalog)
        self.executor = Executor(self._catalog)
        self.closed = False

    # -- public API ------------------------------------------------------------

    def execute(self, sql: str, params: Sequence[Any] = ()):
        self._check_open()
        return self._db._execute_on(self, sql, params)

    def execute_statement(self, stmt, params: Sequence[Any] = ()):
        self._check_open()
        return self._db._execute_statement_on(self, stmt, params)

    def execute_script(self, sql: str, params: Sequence[Any] = ()):
        """Execute a ``;``-separated script, returning per-statement
        results.  Placeholders are numbered across the whole script, so
        one ``params`` sequence serves every statement."""
        return [self.execute_statement(stmt, params) for stmt in parse_script(sql)]

    def transaction(self):
        return _ConnectionTransaction(self)

    @property
    def in_transaction(self) -> bool:
        return self.txns.in_explicit_transaction

    def close(self) -> None:
        """Roll back any open transaction and release the connection."""
        if self.closed:
            return
        if self.txns.active is not None:
            self.txns.rollback()
        self.closed = True

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def _check_open(self) -> None:
        if self.closed:
            raise TransactionError("connection is closed")

    @contextmanager
    def snapshot(self):
        """Scope one read statement: at ``clock.pending`` while this
        connection holds the writer lock, else at the committed sequence,
        pinned for the duration so commits keep the versions it needs.
        (A write statement holds the lock, so it reads at ``pending``.)"""
        db = self._db
        if self.txns.holds_writer_lock:
            self._catalog.snapshot = db.catalog.clock.pending
            yield
            return
        snapshot = self._catalog.snapshot = db._pin()
        try:
            yield
        finally:
            db._unpin(snapshot)
        db._observe_snapshot_read(snapshot)

    @property
    def rows_scanned(self) -> int:
        """Rows this connection's statements have examined, lifetime."""
        return self.executor.rows_scanned


class _ConnectionTransaction:
    def __init__(self, conn: Connection) -> None:
        self._conn = conn

    def __enter__(self) -> Connection:
        self._conn.execute("BEGIN")
        return self._conn

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is None:
            self._conn.execute("COMMIT")
        elif self._conn.in_transaction:
            self._conn.execute("ROLLBACK")
        return False


class ConnectionPool:
    """Fixed-size pool of connections for the web tier.

    ``scope()`` checks a connection out, installs it as the calling
    thread's implicit connection on the database (so every
    ``db.execute`` inside the request uses it), and returns it on exit —
    rolling back any transaction a buggy handler left open.  Checkout
    blocks when the pool is exhausted, which doubles as backpressure for
    the threaded server, and raises :class:`~repro.errors.LockTimeout`
    after ``checkout_timeout`` seconds.
    """

    def __init__(self, db, size: int = 4,
                 checkout_timeout: float = DEFAULT_LOCK_TIMEOUT,
                 lock_timeout: float | None = None) -> None:
        if size < 1:
            raise ValueError("pool size must be at least 1")
        self._db = db
        self.size = size
        self.checkout_timeout = checkout_timeout
        self._idle: "queue.Queue" = queue.Queue()
        for _ in range(size):
            self._idle.put(Connection(db, lock_timeout=lock_timeout))
        self.checkouts = 0
        self._in_use = 0
        self._stats_lock = threading.Lock()

    @property
    def in_use(self) -> int:
        return self._in_use

    def checkout(self) -> Connection:
        obs = self._db._obs or get_observability()
        started = perf_counter()
        try:
            conn = self._idle.get(timeout=self.checkout_timeout)
        except queue.Empty:
            if obs.enabled:
                obs.metrics.counter("sqldb.pool.checkout_timeouts").inc()
            raise LockTimeout(
                f"no pooled connection available within "
                f"{self.checkout_timeout:g}s (pool size {self.size})"
            ) from None
        with self._stats_lock:
            self.checkouts += 1
            self._in_use += 1
        if obs.enabled:
            obs.metrics.histogram("sqldb.pool.checkout_wait_seconds").observe(
                perf_counter() - started
            )
        return conn

    def checkin(self, conn: Connection) -> None:
        if conn.txns.active is not None:
            # a handler died mid-transaction: never return dirty state
            conn.txns.rollback()
            obs = self._db._obs or get_observability()
            if obs.enabled:
                obs.metrics.counter("sqldb.pool.abandoned_txns").inc()
        with self._stats_lock:
            self._in_use -= 1
        self._idle.put(conn)

    @contextmanager
    def scope(self):
        """Per-request scope: checkout + install as thread's connection."""
        conn = self.checkout()
        self._db._install_thread_connection(conn)
        try:
            yield conn
        finally:
            self._db._install_thread_connection(None)
            self.checkin(conn)
