"""Replica sets: one logical file-server name, N physical replicas.

A :class:`ReplicaSet` is registered with the
:class:`~repro.datalink.linker.DataLinker` exactly like a single
:class:`~repro.fileserver.server.FileServer` — it exposes the same host /
token_manager / filesystem / control-plane surface — so every DATALINK URL
keeps naming the *logical* host while the bytes live on several physical
machines:

* **writes** (``put``, ``dl_link``, ``dl_unlink``) apply synchronously to
  the primary and are queued for asynchronous propagation to followers
  (:mod:`repro.replication.queue`);
* **reads** (``serve``, ``head``, ``dl_size``, ``dl_exists``) fail over:
  healthy replicas are tried first, a replica that errors is passively
  marked suspect/down, and only when *every* replica fails does the read
  raise :class:`~repro.errors.AllReplicasDownError` (the web tier's 503);
* **tokens** issued for the logical host validate on any replica, because
  each member's ``token_scope_host`` is the set's logical name.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Iterable

from repro.errors import (
    AllReplicasDownError,
    FileNotFoundOnServer,
    ReplicaUnavailableError,
    ReplicationError,
)
from repro.fileserver.server import FileServer
from repro.obs import get_observability
from repro.replication.queue import ReplicationOp, ReplicationQueue

__all__ = ["Replica", "ReplicaSet"]

#: consecutive passive failures after which a replica is considered down
#: even without the health monitor probing it
PASSIVE_DOWN_AFTER = 3


class Replica:
    """One physical server inside a replica set, plus its tracked state."""

    __slots__ = ("server", "status", "killed", "reachable",
                 "consecutive_failures", "cursor", "push_attempts",
                 "next_attempt_at")

    def __init__(self, server: FileServer) -> None:
        self.server = server
        #: failure-detector verdict: up | suspect | down
        self.status = "up"
        #: hard kill switch (process death in tests/benchmarks)
        self.killed = False
        #: optional connectivity predicate (netsim partitions); None = wired
        self.reachable: Callable[[], bool] | None = None
        self.consecutive_failures = 0
        #: replication-queue position (last applied op seq)
        self.cursor = 0
        self.push_attempts = 0
        self.next_attempt_at = 0.0

    @property
    def host(self) -> str:
        return self.server.host

    def is_connected(self) -> bool:
        if self.killed:
            return False
        return self.reachable is None or self.reachable()

    def note_failure(self, suspect_after: int = 1,
                     down_after: int = PASSIVE_DOWN_AFTER) -> None:
        self.consecutive_failures += 1
        if self.consecutive_failures >= down_after:
            self.status = "down"
        elif self.consecutive_failures >= suspect_after:
            self.status = "suspect"

    def note_success(self) -> None:
        self.consecutive_failures = 0
        self.status = "up"

    def __repr__(self) -> str:
        return f"Replica({self.host!r}, {self.status})"


class ReplicaSet:
    """A logical file-server host backed by N physical replicas."""

    def __init__(
        self,
        host: str,
        servers: Iterable[FileServer],
        time_source: Callable[[], float] = time.time,
        backoff_base: float = 0.05,
        backoff_cap: float = 5.0,
    ) -> None:
        self.host = host
        self.replicas = [Replica(server) for server in servers]
        if not self.replicas:
            raise ReplicationError(f"replica set {host!r} needs >= 1 replica")
        seen = {r.host for r in self.replicas}
        if len(seen) != len(self.replicas):
            raise ReplicationError(
                f"replica set {host!r} has duplicate physical hosts"
            )
        for replica in self.replicas:
            replica.server.token_scope_host = host
        self._token_manager = None
        self.queue = ReplicationQueue(self, time_source, backoff_base, backoff_cap)
        #: reads that succeeded only after skipping/failing past >= 1 replica
        self.failovers = 0
        self._stats_lock = threading.Lock()

    # -- the FileServer-compatible surface the DataLinker expects ---------------

    @property
    def token_manager(self):
        return self._token_manager

    @token_manager.setter
    def token_manager(self, manager) -> None:
        """Installing the shared token manager fans out to every replica,
        mirroring how each host's file manager shares key material."""
        self._token_manager = manager
        for replica in self.replicas:
            replica.server.token_manager = manager

    @property
    def primary(self) -> Replica:
        return self.replicas[0]

    @property
    def followers(self) -> list[Replica]:
        return self.replicas[1:]

    @property
    def filesystem(self):
        """The primary's filesystem (source of truth for reconcile/backup
        callers that address a server's local store directly)."""
        return self.primary.server.filesystem

    def __repr__(self) -> str:
        members = ", ".join(r.host for r in self.replicas)
        return f"ReplicaSet({self.host!r} -> [{members}])"

    # -- replica lookup / fault controls ----------------------------------------

    def replica(self, physical_host: str) -> Replica:
        for replica in self.replicas:
            if replica.host == physical_host:
                return replica
        raise ReplicationError(
            f"replica set {self.host!r} has no replica {physical_host!r}"
        )

    def kill(self, physical_host: str) -> None:
        """Simulate the death of one physical replica."""
        replica = self.replica(physical_host)
        replica.killed = True
        replica.status = "down"

    def revive(self, physical_host: str) -> None:
        replica = self.replica(physical_host)
        replica.killed = False
        replica.note_success()

    def promote(self, physical_host: str) -> Replica:
        """Manual write failover: make ``physical_host`` the primary.

        Asynchronous replication means the new primary may be missing the
        tail of the old primary's operations (non-zero RPO); run an
        anti-entropy repair afterwards so the followers converge on the
        new primary's state.
        """
        replica = self.replica(physical_host)
        self.replicas.remove(replica)
        self.replicas.insert(0, replica)
        self.queue.fast_forward(replica)
        obs = get_observability()
        if obs.enabled:
            obs.events.emit(
                "replication.promote", set=self.host, primary=replica.host
            )
        return replica

    # -- write path: primary synchronously, followers via the queue -------------

    def put(self, path: str, data: bytes) -> int:
        n = self.primary.server.put(path, data)
        self.queue.enqueue("put", path, data=data)
        return n

    def dl_link(self, path: str, read_db: bool, write_blocked: bool,
                recovery: bool) -> None:
        self.primary.server.dl_link(path, read_db, write_blocked, recovery)
        self.queue.enqueue(
            "link", path,
            read_db=read_db, write_blocked=write_blocked, recovery=recovery,
        )

    def dl_unlink(self, path: str, delete: bool) -> None:
        self.primary.server.dl_unlink(path, delete)
        self.queue.enqueue("unlink", path, delete=delete)

    def apply_to_follower(self, replica: Replica, op: ReplicationOp) -> None:
        """Apply one queued op on a follower (idempotent, so a retry after
        a half-acknowledged push cannot corrupt the replica)."""
        if not replica.is_connected():
            raise ReplicaUnavailableError(
                f"replica {replica.host} of {self.host} is unreachable"
            )
        server = replica.server
        if op.kind == "put":
            server.dl_put(op.path, op.data)
        elif op.kind == "link":
            fs = server.filesystem
            if fs.exists(op.path) and fs.entry(op.path).linked:
                fs.dl_set_flags(op.path, linked=True, **op.flags)
            else:
                server.dl_link(op.path, **op.flags)
        elif op.kind == "unlink":
            fs = server.filesystem
            if not fs.exists(op.path):
                return  # already gone: the delete propagated earlier
            if fs.entry(op.path).linked:
                server.dl_unlink(op.path, delete=op.flags.get("delete", False))
            elif op.flags.get("delete"):
                fs.dl_remove(op.path)
        else:  # pragma: no cover - enqueue() only produces the three kinds
            raise ReplicationError(f"unknown replication op {op.kind!r}")

    def pump(self, force: bool = False) -> int:
        return self.queue.pump(force=force)

    def drain(self, max_rounds: int = 1000) -> int:
        """Pump (ignoring backoff) until no follower lags or progress stops."""
        total = 0
        for _ in range(max_rounds):
            if self.queue.max_lag() == 0:
                break
            applied = self.queue.pump(force=True)
            total += applied
            if applied == 0:
                break
        return total

    # -- read path: transparent failover -----------------------------------------

    def _read_order(self) -> list[Replica]:
        """Healthy first (primary leading), then suspects, then — as a last
        resort — replicas marked down: stale failure-detector verdicts must
        degrade latency, not availability."""
        ups = [r for r in self.replicas if not r.killed and r.status == "up"]
        suspects = [
            r for r in self.replicas if not r.killed and r.status == "suspect"
        ]
        downs = [r for r in self.replicas if not r.killed and r.status == "down"]
        return ups + suspects + downs

    def _failover(self, method: str, *args, **kwargs):
        """Invoke ``method`` on replicas in health order until one answers.

        Availability errors rotate to the next replica; a missing file on
        one replica (replication lag) also rotates, but if *every* reachable
        replica lacks the file the not-found error propagates unchanged.
        Permission/token errors propagate immediately — retrying a denial
        on another replica of the same logical host cannot succeed.
        """
        candidates = self._read_order()
        not_found: FileNotFoundOnServer | None = None
        failures: list[str] = []
        for replica in candidates:
            if not replica.is_connected():
                replica.note_failure()
                failures.append(f"{replica.host}: unreachable")
                continue
            try:
                result = getattr(replica.server, method)(*args, **kwargs)
            except FileNotFoundOnServer as exc:
                not_found = exc
                continue
            replica.note_success()
            if replica is not self.primary:
                # served by a non-primary replica: the read failed over
                # (the primary was killed, partitioned, or demoted)
                self._record_failover(replica, method)
            return result
        if not_found is not None:
            raise not_found
        raise AllReplicasDownError(
            f"all {len(self.replicas)} replica(s) of {self.host} are down "
            f"({'; '.join(failures) or 'no replica reachable'})"
        )

    def _record_failover(self, replica: Replica, method: str) -> None:
        with self._stats_lock:
            self.failovers += 1
        obs = get_observability()
        if obs.enabled:
            obs.events.emit(
                "replication.failover",
                set=self.host, served_by=replica.host, method=method,
            )

    def serve(self, path: str, token: str | None = None) -> bytes:
        return self._failover("serve", path, token=token)

    def head(self, path: str) -> int:
        return self._failover("head", path)

    def dl_exists(self, path: str) -> bool:
        return self._failover("dl_exists", path)

    def dl_size(self, path: str) -> int:
        return self._failover("dl_size", path)

    def dl_recovery_paths(self) -> list[str]:
        return self._failover("dl_recovery_paths")

    def healthy_entry(self, path: str):
        """The file entry from any healthy replica (coordinated backup must
        not fail because one replica — even the primary — is down)."""
        return self._failover_entry(path)

    def _failover_entry(self, path: str):
        not_found: FileNotFoundOnServer | None = None
        for replica in self._read_order():
            if not replica.is_connected():
                replica.note_failure()
                continue
            try:
                return replica.server.filesystem.entry(path)
            except FileNotFoundOnServer as exc:
                not_found = exc
                continue
        if not_found is not None:
            raise not_found
        raise AllReplicasDownError(
            f"all replica(s) of {self.host} are down; cannot read {path}"
        )

    # -- status ------------------------------------------------------------------

    def replicas_up(self) -> int:
        """Replicas the health monitor reports up (a killed one never is)."""
        return sum(1 for r in self.replicas if not r.killed and r.status == "up")

    def status(self) -> dict:
        """Plain-data view for the CLI and ``/metrics``."""
        replicas = []
        for i, replica in enumerate(self.replicas):
            replicas.append({
                "host": replica.host,
                "role": "primary" if i == 0 else "follower",
                "status": "killed" if replica.killed else replica.status,
                "lag": 0 if i == 0 else self.queue.lag(replica),
                "files": len(replica.server.filesystem),
            })
        return {
            "host": self.host,
            "replicas": replicas,
            "queue_depth": self.queue.depth(),
            "max_lag": self.queue.max_lag(),
            "failovers": self.failovers,
            "ops_enqueued": self.queue.ops_enqueued,
            "ops_applied": self.queue.ops_applied,
            "retries": self.queue.retries,
        }
