"""Transaction management.

The engine runs a single-writer model (matching the paper's servlet
deployment, where the database host serialises updates).  Each transaction
keeps:

* an **undo log** — inverse operations applied in LIFO order on rollback,
* a **redo log** — logical records appended to the write-ahead log on
  commit,
* **datalink actions** — pending file link/unlink operations that must be
  applied or discarded *atomically with* the database changes.  This is
  SQL/MED's "transaction consistency": "changes affecting both the database
  and external files are executed within a transaction".

Concurrency: every :class:`~repro.sqldb.connection.Connection` owns its own
:class:`TransactionManager`, so transaction *state* is connection-scoped,
while the pieces that must be global — transaction-id allocation, the
writer lock, the version clock, the WAL — are shared engine objects passed
in by :class:`~repro.sqldb.database.Database`.  A manager that makes
changes holds the writer lock from its first write until commit/rollback
completes, and bumps the version clock at commit so snapshot readers see
the transaction's changes atomically.
"""

from __future__ import annotations

import itertools
import threading
from typing import Any, Callable

from repro.errors import TransactionError
from repro.obs import get_observability

__all__ = ["Transaction", "TransactionManager"]

# Fallback id source for transactions constructed outside a Database (unit
# tests, standalone managers).  Database instances install their own
# allocator so ids are dense per engine; both are lock-guarded, fixing the
# racy ``Transaction._next_id`` class attribute this replaces.
_fallback_ids = itertools.count(1)
_fallback_lock = threading.Lock()


def _allocate_fallback_id() -> int:
    with _fallback_lock:
        return next(_fallback_ids)


class Transaction:
    """State for one open transaction."""

    def __init__(self, explicit: bool, txn_id: int | None = None) -> None:
        self.txn_id = txn_id if txn_id is not None else _allocate_fallback_id()
        #: True for user BEGIN...COMMIT; False for per-statement autocommit
        self.explicit = explicit
        self.undo: list[tuple] = []
        self.redo: list[dict] = []
        #: LSN of this transaction's WAL record, set at commit (durable
        #: databases only); None for read-only or in-memory transactions
        self.commit_lsn: int | None = None
        #: callables executed after a successful commit (e.g. finalise links)
        self.on_commit: list[Callable[[], None]] = []
        #: callables executed on rollback (e.g. discard pending links)
        self.on_rollback: list[Callable[[], None]] = []

    def record(self, undo_entry: tuple, redo_entry: dict | None) -> None:
        self.undo.append(undo_entry)
        if redo_entry is not None:
            self.redo.append(redo_entry)


class TransactionManager:
    """Owns one connection's open transaction and applies commit/rollback
    protocols.

    ``id_allocator``, ``clock``, ``writer`` and ``snapshot_floor`` are the
    engine-level shared objects (all optional, so a bare
    ``TransactionManager(catalog, wal)`` still behaves as the historical
    single-connection manager):

    * ``id_allocator()`` returns the next transaction id (thread-safe),
    * ``clock`` is the :class:`~repro.sqldb.storage.VersionClock` bumped at
      commit so snapshot readers atomically see the new state,
    * ``writer`` is the engine writer lock; :meth:`acquire_writer` takes it
      before the first write and commit/rollback always release it,
    * ``snapshot_floor()`` returns the oldest snapshot sequence still
      registered (or None) — the bound at or below which write marks and
      row history are pruned.
    """

    def __init__(self, catalog, wal=None, *, id_allocator=None, clock=None,
                 writer=None, snapshot_floor=None, obs=None) -> None:
        self._catalog = catalog
        self._wal = wal
        self._current: Transaction | None = None
        self._ids = id_allocator or _allocate_fallback_id
        self._clock = clock
        self._writer = writer
        self._snapshot_floor = snapshot_floor
        self._obs = obs
        self._writer_held = False

    @property
    def active(self) -> Transaction | None:
        return self._current

    @property
    def in_explicit_transaction(self) -> bool:
        return self._current is not None and self._current.explicit

    @property
    def holds_writer_lock(self) -> bool:
        return self._writer_held

    # -- lifecycle ------------------------------------------------------------

    def begin(self, explicit: bool = True) -> Transaction:
        if self._current is not None:
            raise TransactionError("a transaction is already open")
        self._current = Transaction(explicit, txn_id=self._ids())
        return self._current

    def ensure(self) -> tuple[Transaction, bool]:
        """Return the open transaction, starting an autocommit one if none.

        The second element tells the caller whether it owns the commit
        (True for a freshly started autocommit transaction).
        """
        if self._current is not None:
            return self._current, False
        return self.begin(explicit=False), True

    def acquire_writer(self, timeout: float | None = None) -> None:
        """Take the engine writer lock for this connection.

        No-op without a configured lock or when already held.  Raises
        :class:`~repro.errors.LockTimeout` when the lock cannot be
        acquired in time; in that case no state has changed and the
        caller's statement simply fails.
        """
        if self._writer is None or self._writer_held:
            return
        self._writer.acquire(timeout)
        self._writer_held = True

    def _release_writer(self) -> None:
        if self._writer_held:
            self._writer_held = False
            self._writer.release()

    def commit(self) -> None:
        txn = self._current
        if txn is None:
            raise TransactionError("no transaction to commit")
        try:
            # Durability first: flush redo records before acknowledging.  If
            # the append fails (I/O error) the transaction stays open, so an
            # explicit ROLLBACK can still undo the in-memory changes.
            if self._wal is not None and txn.redo:
                txn.commit_lsn = self._wal.append_transaction(txn.txn_id, txn.redo)
            self._current = None
            if txn.undo or txn.redo:
                # Visibility point: snapshot readers atomically gain this
                # transaction's changes.
                self._advance_clock()
            failures = []
            for hook in txn.on_commit:
                try:
                    hook()
                except Exception as exc:
                    # InjectedCrash subclasses BaseException on purpose: a
                    # simulated crash must propagate, not be collected here.
                    failures.append(exc)
            if failures:
                self._report_hook_failures(txn, failures)
                raise TransactionError(
                    f"commit hooks failed: {failures[0]}"
                ) from failures[0]
        finally:
            # BaseException-safe: even an injected crash releases the lock,
            # as a real process death would.
            self._release_writer()

    def _report_hook_failures(self, txn: Transaction, failures: list) -> None:
        """Make partially-failed commits visible at /metrics: one counter
        tick and one event per failed hook, not just the wrapped first."""
        obs = self._obs or get_observability()
        if not obs.enabled:
            return
        obs.metrics.counter("sqldb.commit.hook_failures").inc(len(failures))
        for exc in failures:
            obs.events.emit(
                "sqldb.commit.hook_failure",
                txn_id=txn.txn_id,
                error=f"{type(exc).__name__}: {exc}",
            )

    def rollback(self) -> None:
        txn = self._current
        if txn is None:
            raise TransactionError("no transaction to roll back")
        try:
            self._current = None
            self._apply_undo(txn)
            if txn.undo:
                # The live rows are the committed ones again: close the
                # rolled-back writes' marks as an empty generation, so
                # readers stop walking them.
                self._advance_clock()
            for hook in reversed(txn.on_rollback):
                hook()
        finally:
            self._release_writer()

    def _advance_clock(self) -> None:
        """Tick the version clock, then garbage-collect the write marks and
        row versions no registered snapshot can still need, in every
        table (older commits may have left some behind for a reader)."""
        if self._clock is None:
            return
        self._clock.commit()
        floor = None
        if self._snapshot_floor is not None:
            floor = self._snapshot_floor()
        if floor is None:
            floor = self._clock.committed
        for table in self._catalog.tables():
            table.heap.prune_history(floor)

    # -- statement-level atomicity ---------------------------------------------

    def statement_mark(self, txn: Transaction) -> tuple[int, int]:
        """Snapshot the txn's log positions before executing a statement."""
        return len(txn.undo), len(txn.redo)

    def statement_rollback(self, txn: Transaction, mark: tuple[int, int]) -> None:
        """Undo everything a failed statement did, leaving earlier work in
        the transaction intact (statement-level atomicity)."""
        undo_mark, redo_mark = mark
        tail = txn.undo[undo_mark:]
        del txn.undo[undo_mark:]
        del txn.redo[redo_mark:]
        self._undo_entries(tail)

    def _apply_undo(self, txn: Transaction) -> None:
        self._undo_entries(txn.undo)

    def _undo_entries(self, entries: list[tuple]) -> None:
        reinstated = set()
        for entry in reversed(entries):
            kind = entry[0]
            if kind == "insert":
                _, table_name, rowid = entry
                self._catalog.table(table_name).delete(rowid)
            elif kind == "delete":
                _, table_name, rowid, row = entry
                self._catalog.table(table_name).insert(row, rowid)
                reinstated.add(table_name)
            elif kind == "update":
                _, table_name, rowid, old_row = entry
                self._catalog.table(table_name).update(rowid, old_row)
            elif kind == "ddl":
                _, inverse = entry
                self._catalog.apply(inverse)
            else:  # pragma: no cover - defensive
                raise TransactionError(f"unknown undo entry {kind!r}")
        for table_name in reinstated:
            if self._catalog.has_table(table_name):
                self._catalog.table(table_name).heap.restore_order()

    # -- change recording --------------------------------------------------------

    def record_insert(self, txn: Transaction, table_name: str, rowid: int, row: tuple) -> None:
        txn.record(
            ("insert", table_name, rowid),
            {"op": "insert", "table": table_name, "rowid": rowid, "row": row},
        )

    def record_delete(self, txn: Transaction, table_name: str, rowid: int, row: tuple) -> None:
        txn.record(
            ("delete", table_name, rowid, row),
            {"op": "delete", "table": table_name, "rowid": rowid},
        )

    def record_update(
        self, txn: Transaction, table_name: str, rowid: int,
        old_row: tuple, new_row: tuple,
    ) -> None:
        txn.record(
            ("update", table_name, rowid, old_row),
            {"op": "update", "table": table_name, "rowid": rowid, "row": new_row},
        )

    def record_ddl(self, txn: Transaction, stmt, inverse) -> None:
        """A schema change: its redo record is the statement's own text;
        ``inverse`` is the parsed statement that undoes it (None for the
        changes no explicit transaction may make)."""
        if inverse is not None:
            txn.undo.append(("ddl", inverse))
        txn.redo.append({"op": "ddl", "sql": stmt.sql})
