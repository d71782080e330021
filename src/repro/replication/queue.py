"""Asynchronous primary -> follower replication queue.

Every mutation a :class:`~repro.replication.replicaset.ReplicaSet` applies
to its primary (``put``, ``dl_link``, ``dl_unlink``) is appended here with
a monotonically increasing sequence number.  :meth:`ReplicationQueue.pump`
pushes outstanding operations to each follower **in order**, tracking a
per-follower cursor; a follower that cannot be reached backs off
exponentially (base doubling per consecutive failure, capped) instead of
hammering a dead host.

Lag is observable: ``seq - cursor`` per follower, read by ``/metrics``
as the ``replication_lag`` gauge.  The queue keeps an
operation until every follower has applied it, then compacts.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Callable

from repro.errors import FileServerError, ReplicaUnavailableError
from repro.obs import get_observability

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.replication.replicaset import Replica, ReplicaSet

__all__ = ["ReplicationQueue", "ReplicationOp"]


class ReplicationOp:
    """One primary mutation awaiting propagation."""

    __slots__ = ("seq", "kind", "path", "data", "flags")

    def __init__(self, seq: int, kind: str, path: str,
                 data: bytes | None = None,
                 flags: dict | None = None) -> None:
        self.seq = seq
        self.kind = kind  # put | link | unlink
        self.path = path
        self.data = data
        self.flags = flags or {}

    def __repr__(self) -> str:
        return f"ReplicationOp(#{self.seq} {self.kind} {self.path})"


class ReplicationQueue:
    """Ordered op log for one replica set, with retry + backoff."""

    def __init__(
        self,
        replica_set: "ReplicaSet",
        time_source: Callable[[], float],
        backoff_base: float = 0.05,
        backoff_cap: float = 5.0,
    ) -> None:
        self._set = replica_set
        self._now = time_source
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.seq = 0
        self._ops: list[ReplicationOp] = []
        self._lock = threading.Lock()
        #: lifetime statistics
        self.ops_enqueued = 0
        self.ops_applied = 0
        self.retries = 0

    # -- producer (the replica set's primary write path) -----------------------

    def enqueue(self, kind: str, path: str, data: bytes | None = None,
                **flags) -> ReplicationOp:
        with self._lock:
            self.seq += 1
            op = ReplicationOp(self.seq, kind, path, data, flags)
            self._ops.append(op)
            self.ops_enqueued += 1
        return op

    # -- observability ---------------------------------------------------------

    def depth(self) -> int:
        """Operations not yet applied by every follower."""
        followers = self._set.followers
        if not followers:
            return 0
        floor = min(r.cursor for r in followers)
        return max(0, self.seq - floor)

    def lag(self, replica: "Replica") -> int:
        return max(0, self.seq - replica.cursor)

    def max_lag(self) -> int:
        followers = self._set.followers
        return max((self.lag(r) for r in followers), default=0)

    # -- consumer -------------------------------------------------------------

    def pump(self, force: bool = False) -> int:
        """Push outstanding ops to every follower; returns ops applied.

        ``force`` ignores backoff timers (used by :meth:`drain` and tests
        driving simulated time).  Order per follower is strict: a failed op
        stops that follower's round so no later op can overtake it.
        """
        now = self._now()
        obs = get_observability()
        applied = 0
        for replica in self._set.followers:
            if not force and now < replica.next_attempt_at:
                continue
            with self._lock:
                pending = [op for op in self._ops if op.seq > replica.cursor]
            for op in pending:
                try:
                    self._set.apply_to_follower(replica, op)
                except (FileServerError, ReplicaUnavailableError) as exc:
                    replica.push_attempts += 1
                    delay = min(
                        self.backoff_cap,
                        self.backoff_base * (2 ** (replica.push_attempts - 1)),
                    )
                    replica.next_attempt_at = now + delay
                    self.retries += 1
                    if obs.enabled:
                        obs.events.emit(
                            "replication.push.failed",
                            set=self._set.host, replica=replica.host,
                            seq=op.seq, retry_in=delay, error=str(exc),
                        )
                    break
                else:
                    replica.cursor = op.seq
                    replica.push_attempts = 0
                    replica.next_attempt_at = 0.0
                    applied += 1
                    self.ops_applied += 1
        self.compact()
        return applied

    def compact(self) -> None:
        """Drop ops every follower has applied (or fast-forwarded past)."""
        followers = self._set.followers
        floor = min((r.cursor for r in followers), default=self.seq)
        with self._lock:
            self._ops = [op for op in self._ops if op.seq > floor]

    def fast_forward(self, replica: "Replica") -> None:
        """Mark ``replica`` caught up without pushing (anti-entropy repair
        just resynchronised it from the primary, superseding the backlog)."""
        replica.cursor = self.seq
        replica.push_attempts = 0
        replica.next_attempt_at = 0.0
        self.compact()
