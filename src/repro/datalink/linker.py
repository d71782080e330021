"""The datalink manager: SQL/MED semantics over distributed file servers.

:class:`DataLinker` implements the engine's :class:`~repro.sqldb.database.
DatalinkHooks` interface and provides the four DATALINK guarantees the
paper lists:

* **Referential integrity** — inserting a DATALINK under FILE LINK CONTROL
  verifies the file exists on its file server and takes ownership of it;
  a linked file can no longer be renamed or deleted out from under the
  database, and the same file cannot be linked twice.
* **Transaction consistency** — links and unlinks are *pending* until the
  enclosing database transaction commits; a rollback discards them, so the
  file state and the metadata never diverge.
* **Security** — SELECTs on READ PERMISSION DB columns yield URLs carrying
  an encrypted access token; the file servers validate tokens offline.
* **Coordinated backup and recovery** — files linked with RECOVERY YES are
  enumerated for the coordinated backup utility
  (:mod:`repro.datalink.backup`).
"""

from __future__ import annotations

import threading
from typing import Iterable

from repro import faultinject
from repro.errors import FileLinkError, FileNotFoundOnServer
from repro.datalink.tokens import TokenManager
from repro.obs import get_observability
from repro.fileserver.server import FileServer
from repro.sqldb.database import DatalinkHooks
from repro.sqldb.med import DatalinkSpec
from repro.sqldb.types import DatalinkValue

__all__ = ["DataLinker"]


class _PendingOps:
    """Link/unlink operations accumulated by one open transaction."""

    __slots__ = ("ops",)

    def __init__(self) -> None:
        self.ops: list[tuple[str, FileServer, str, DatalinkSpec]] = []

    def net_toggles(self, host: str, path: str) -> int:
        return sum(
            1 for _kind, server, p, _spec in self.ops
            if server.host == host and p == path
        )


class DataLinker(DatalinkHooks):
    """Registry of file servers plus transactional link bookkeeping."""

    def __init__(self, token_manager: TokenManager | None = None) -> None:
        self.tokens = token_manager or TokenManager()
        self._servers: dict[str, FileServer] = {}
        self._pending: dict[int, _PendingOps] = {}
        #: guards the pending-state map and the linked-or-not decisions made
        #: from it — concurrent transactions must not double-link a file.
        #: Reentrant: a commit hook (_apply) runs while the statement path
        #: may still hold the lock during statement-atomicity rollbacks.
        self._pending_lock = threading.RLock()
        #: lifetime statistics, used by benchmarks
        self.links_applied = 0
        self.unlinks_applied = 0
        #: callbacks fired after an unlink is applied: fn(host, path).
        #: The operation engine uses this to invalidate cached results.
        self.unlink_listeners: list = []
        #: the ReplicationManager overseeing replica sets registered here
        #: (installed by repro.replication.ReplicationManager; None means
        #: every registered server is a single stand-alone host)
        self.replication = None

    # -- server registry -------------------------------------------------------

    def register_server(self, server: FileServer) -> FileServer:
        """Attach a file server; installs the shared token manager on it so
        it can validate access tokens offline."""
        if server.host in self._servers:
            raise FileLinkError(f"file server {server.host} already registered")
        server.token_manager = self.tokens
        self._servers[server.host] = server
        return server

    def server(self, host: str) -> FileServer:
        try:
            return self._servers[host]
        except KeyError:
            raise FileLinkError(
                f"no file server registered for host {host!r}"
            ) from None

    def servers(self) -> Iterable[FileServer]:
        return self._servers.values()

    def has_server(self, host: str) -> bool:
        return host in self._servers

    # -- DatalinkHooks implementation ----------------------------------------------

    def on_insert_link(self, table, column, value: DatalinkValue, spec, txn) -> None:
        if spec is None or not spec.link_control:
            return  # NO LINK CONTROL: the URL is stored unverified
        server = self.server(value.host)
        path = value.server_path
        # FILE LINK CONTROL: "a check should be made to ensure the
        # existence of the file during a database insert or update".
        if not server.dl_exists(path):
            raise FileLinkError(
                f"cannot link {value.url}: file does not exist on {server.host}"
            )
        with self._pending_lock:
            # check-and-queue is atomic, so two concurrent transactions
            # cannot both pass the "already linked" test for one file
            if self._effectively_linked(server, path, txn):
                raise FileLinkError(
                    f"cannot link {value.url}: file is already linked"
                )
            self._queue(txn, "link", server, path, spec)

    def on_remove_link(self, table, column, value: DatalinkValue, spec, txn) -> None:
        if spec is None or not spec.link_control:
            return
        server = self.server(value.host)
        path = value.server_path
        with self._pending_lock:
            if not self._effectively_linked(server, path, txn):
                raise FileLinkError(
                    f"cannot unlink {value.url}: file is not linked"
                )
            self._queue(txn, "unlink", server, path, spec)

    def decorate(self, value: DatalinkValue, spec) -> DatalinkValue:
        """SELECT-time decoration: attach access token and file size.

        Paper: "Hypertext link displays size of object - contains an
        encrypted key, required to access the file from the remote file
        server."
        """
        path = value.server_path
        size, token = value.size, value.token
        if self.has_server(value.host):
            try:
                size = self.server(value.host).dl_size(path)
            except FileNotFoundOnServer:
                pass  # NO LINK CONTROL values may point at absent files
        if spec is not None and spec.requires_token:
            token = self.tokens.issue(f"{value.host}{path}")
        return value.annotated(token, size)

    # -- transactional bookkeeping ------------------------------------------------------

    def _effectively_linked(self, server: FileServer, path: str, txn) -> bool:
        linked = server.filesystem.entry(path).linked
        pending = self._pending.get(txn.txn_id)
        if pending is not None and pending.net_toggles(server.host, path) % 2:
            linked = not linked
        return linked

    def _queue(self, txn, kind: str, server: FileServer, path: str, spec: DatalinkSpec) -> None:
        pending = self._pending.get(txn.txn_id)
        if pending is None:
            pending = _PendingOps()
            self._pending[txn.txn_id] = pending
            txn.on_commit.append(lambda: self._apply(txn.txn_id))
            txn.on_rollback.append(lambda: self._discard(txn.txn_id))
        pending.ops.append((kind, server, path, spec))

    def _apply(self, txn_id: int) -> None:
        # By the time this runs the transaction's WAL record is durable,
        # so a crash anywhere below leaves the database ahead of the file
        # servers; reconciliation after recovery closes the gap (see
        # :meth:`recover`).
        with self._pending_lock:
            pending = self._pending.pop(txn_id, None)
        if pending is None:
            return
        obs = get_observability()
        for kind, server, path, spec in pending.ops:
            faultinject.crash_point("datalink.apply.before_op")
            if kind == "link":
                server.dl_link(
                    path,
                    read_db=spec.read_permission == "DB",
                    write_blocked=spec.write_permission == "BLOCKED",
                    recovery=spec.recovery,
                )
                self.links_applied += 1
                if obs.enabled:
                    obs.events.emit("datalink.link", host=server.host, path=path)
            else:
                server.dl_unlink(path, delete=spec.on_unlink == "DELETE")
                self.unlinks_applied += 1
                if obs.enabled:
                    obs.events.emit("datalink.unlink", host=server.host, path=path)
                # Snapshot before iterating: a listener registered or
                # removed concurrently (or by another listener) must
                # neither break this commit nor skip a callback.
                for listener in tuple(self.unlink_listeners):
                    listener(server.host, path)
            faultinject.crash_point("datalink.apply.after_op")

    def _discard(self, txn_id: int) -> None:
        with self._pending_lock:
            self._pending.pop(txn_id, None)

    # -- crash recovery ---------------------------------------------------------

    def discard_pending(self) -> int:
        """Drop every pending (uncommitted) link operation.

        Called when the database host restarts after a crash: transactions
        that never committed must not leave queued file operations behind.
        Returns the number of operations discarded.
        """
        with self._pending_lock:
            dropped = sum(len(p.ops) for p in self._pending.values())
            self._pending.clear()
        return dropped

    def recover(self, db, repair_links: bool = True):
        """Post-crash datalink recovery: audit and (optionally) repair.

        A crash between the WAL append (commit point) and the application
        of pending link operations leaves the database ahead of the file
        servers — rows referencing files that are not under link control,
        or linked files whose rows are gone.  This runs
        :func:`repro.datalink.reconcile.recover` to detect (and, with
        ``repair_links``, apply the safe fixes for) exactly that
        divergence.  Returns the pre-repair
        :class:`~repro.datalink.reconcile.ReconcileReport`.
        """
        from repro.datalink.reconcile import recover

        self.discard_pending()
        return recover(db, self, repair_links=repair_links)

    # statement-level atomicity (see DatalinkHooks)

    def statement_mark(self, txn) -> int:
        with self._pending_lock:
            pending = self._pending.get(txn.txn_id)
            return len(pending.ops) if pending is not None else 0

    def statement_rollback(self, txn, mark: int) -> None:
        with self._pending_lock:
            pending = self._pending.get(txn.txn_id)
            if pending is not None:
                del pending.ops[mark:]

    # -- client-side convenience ------------------------------------------------------------

    def download(self, value: DatalinkValue) -> bytes:
        """Fetch a (decorated) datalink value's bytes from its file server,
        presenting the embedded token if any."""
        server = self.server(value.host)
        obs = get_observability()
        if not obs.enabled:
            return server.serve(value.server_path, token=_scope_token(value))
        with obs.tracer.span(
            "datalink.download", host=value.host, path=value.server_path
        ) as span:
            data = server.serve(value.server_path, token=_scope_token(value))
            span.set(nbytes=len(data))
        obs.metrics.histogram("datalink.transfer_bytes").observe(len(data))
        obs.metrics.counter("datalink.downloads").inc()
        return data

    def recovery_manifest(self) -> list[tuple[str, str]]:
        """(host, path) of every linked file flagged RECOVERY YES."""
        out = []
        for server in self._servers.values():
            for path in server.dl_recovery_paths():
                out.append((server.host, path))
        return sorted(out)


def _scope_token(value: DatalinkValue) -> str | None:
    return value.token
