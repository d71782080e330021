"""Probe-based failure detection for replica sets.

The :class:`HealthMonitor` actively probes every replica (a cheap
connectivity + filesystem round-trip) and drives the per-replica status
machine::

    up --(1 failed probe)--> suspect --(N failed probes)--> down
    any --(1 good probe)--> up

Reads never *wait* on the detector — :meth:`ReplicaSet._read_order` merely
prefers replicas the detector believes healthy — so a wrong verdict costs
latency, not availability.  A probe that answers but slower than
``latency_suspect_s`` marks the replica suspect (slow-link demotion for
:mod:`repro.netsim` topologies) without counting toward ``down``.
"""

from __future__ import annotations

import time
from typing import Callable, Iterable

from repro.obs import get_observability
from repro.replication.replicaset import Replica, ReplicaSet

__all__ = ["HealthMonitor"]


class HealthMonitor:
    """Active failure detector over one or more replica sets."""

    def __init__(
        self,
        suspect_after: int = 1,
        down_after: int = 3,
        latency_suspect_s: float | None = None,
        latency_probe: Callable[[Replica], float] | None = None,
    ) -> None:
        self.suspect_after = suspect_after
        self.down_after = down_after
        #: probes slower than this mark the replica suspect (None disables)
        self.latency_suspect_s = latency_suspect_s
        #: override for the probe round-trip measurement; by default the
        #: wall-clock cost of touching the replica's filesystem is used,
        #: netsim tests supply the topology's simulated link latency instead
        self.latency_probe = latency_probe
        self.probes = 0
        self.transitions = 0

    def probe(self, replica_set: ReplicaSet, replica: Replica) -> str:
        """Probe one replica and return its (possibly new) status."""
        self.probes = self.probes + 1
        before = replica.status
        if not replica.is_connected():
            replica.note_failure(self.suspect_after, self.down_after)
        else:
            latency = self._measure(replica)
            if latency is None:
                # the probe itself failed mid-flight
                replica.note_failure(self.suspect_after, self.down_after)
            elif (
                self.latency_suspect_s is not None
                and latency > self.latency_suspect_s
            ):
                # answering, but too slowly to be preferred for reads
                replica.consecutive_failures = 0
                replica.status = "suspect"
            else:
                replica.note_success()
        if replica.status != before:
            self._record_transition(replica_set, replica, before)
        return replica.status

    def _measure(self, replica: Replica) -> float | None:
        if self.latency_probe is not None:
            return self.latency_probe(replica)
        started = time.perf_counter()
        try:
            len(replica.server.filesystem)
        except Exception:
            return None
        return time.perf_counter() - started

    def probe_set(self, replica_set: ReplicaSet) -> dict[str, str]:
        return {
            replica.host: self.probe(replica_set, replica)
            for replica in replica_set.replicas
        }

    def probe_all(self, replica_sets: Iterable[ReplicaSet]) -> dict[str, dict[str, str]]:
        return {rs.host: self.probe_set(rs) for rs in replica_sets}

    def _record_transition(self, replica_set: ReplicaSet, replica: Replica,
                           before: str) -> None:
        self.transitions += 1
        obs = get_observability()
        if obs.enabled:
            obs.events.emit(
                "replication.health",
                set=replica_set.host, replica=replica.host,
                before=before, after=replica.status,
            )
