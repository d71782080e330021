"""Tests for repro.replication: placement, the async queue, failure
detection, read failover, anti-entropy repair, and the web-tier
acceptance scenario (one replica dies, downloads keep working)."""

import tempfile

import pytest

from repro import faultinject
from repro.datalink import (
    DataLinker,
    TokenManager,
    coordinated_backup,
    coordinated_restore,
)
from repro.errors import (
    AllReplicasDownError,
    FileNotFoundOnServer,
    PermissionDeniedError,
    RecoveryError,
    ReplicationError,
)
from repro.fileserver import FileServer
from repro.netsim import Host, Network
from repro.replication import (
    HealthMonitor,
    PlacementPolicy,
    ReplicationManager,
    check_replica_set,
    repair_replica_set,
)
from repro.replication.replicaset import ReplicaSet
from repro.sqldb import Database


class FakeClock:
    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now


def make_servers(n, prefix="phys"):
    return [FileServer(f"{prefix}{i}.example.org") for i in range(n)]


DATALINK_DDL = (
    "CREATE TABLE RESULT_FILE ("
    " file_name VARCHAR(40) PRIMARY KEY,"
    " download DATALINK LINKTYPE URL FILE LINK CONTROL INTEGRITY ALL"
    "   READ PERMISSION DB WRITE PERMISSION BLOCKED RECOVERY YES"
    "   ON UNLINK RESTORE)"
)


class TestPlacement:
    def test_deterministic(self):
        servers = make_servers(5)
        policy = PlacementPolicy(replication_factor=3)
        first = [s.host for s in policy.choose("fs1.soton.ac.uk", servers)]
        again = [s.host for s in policy.choose("fs1.soton.ac.uk", servers)]
        assert first == again
        assert len(first) == 3

    def test_candidate_order_irrelevant(self):
        servers = make_servers(5)
        policy = PlacementPolicy(replication_factor=2)
        forward = [s.host for s in policy.choose("fs1", servers)]
        backward = [s.host for s in policy.choose("fs1", list(reversed(servers)))]
        assert forward == backward

    def test_different_logical_hosts_spread(self):
        servers = make_servers(8)
        policy = PlacementPolicy(replication_factor=2)
        primaries = {
            policy.choose(f"fs{i}", servers)[0].host for i in range(10)
        }
        assert len(primaries) > 1  # not everything lands on one server

    def test_removing_unused_candidate_is_stable(self):
        """Rendezvous property: dropping a server not in the chosen set
        does not move the replicas."""
        servers = make_servers(6)
        policy = PlacementPolicy(replication_factor=2)
        chosen = policy.choose("fs1", servers)
        chosen_hosts = [s.host for s in chosen]
        survivors = [s for s in servers if s.host not in chosen_hosts][1:]
        reduced = policy.choose("fs1", chosen + survivors)
        assert [s.host for s in reduced] == chosen_hosts

    def test_factor_validation(self):
        with pytest.raises(ReplicationError):
            PlacementPolicy(replication_factor=0)
        with pytest.raises(ReplicationError):
            PlacementPolicy().choose("fs1", [])


class TestReplicationQueue:
    def make_set(self, n=3):
        clock = FakeClock()
        rs = ReplicaSet("logical.host", make_servers(n), time_source=clock)
        return rs, clock

    def test_put_propagates_on_pump(self):
        rs, _clock = self.make_set()
        rs.put("/data/a.dat", b"payload")
        assert rs.primary.server.filesystem.exists("/data/a.dat")
        assert not rs.followers[0].server.filesystem.exists("/data/a.dat")
        assert rs.queue.max_lag() == 1
        rs.pump()
        assert rs.queue.max_lag() == 0
        for replica in rs.followers:
            assert replica.server.filesystem.read("/data/a.dat") == b"payload"

    def test_link_and_unlink_propagate(self):
        rs, _clock = self.make_set(2)
        rs.put("/a", b"1")
        rs.dl_link("/a", read_db=True, write_blocked=True, recovery=True)
        rs.pump()
        entry = rs.followers[0].server.filesystem.entry("/a")
        assert entry.linked and entry.read_db and entry.write_blocked
        rs.dl_unlink("/a", delete=True)
        rs.pump()
        assert not rs.followers[0].server.filesystem.exists("/a")

    def test_lag_counts_unapplied_ops(self):
        rs, _clock = self.make_set(2)
        rs.kill(rs.followers[0].host)
        for i in range(4):
            rs.put(f"/f{i}", b"x")
        rs.pump()
        assert rs.queue.lag(rs.followers[0]) == 4
        assert rs.queue.depth() == 4

    def test_retry_with_exponential_backoff(self):
        rs, clock = self.make_set(2)
        follower = rs.followers[0]
        rs.kill(follower.host)
        rs.put("/a", b"1")

        rs.pump()  # fails -> schedules retry at base delay
        assert rs.queue.retries == 1
        first_deadline = follower.next_attempt_at
        assert first_deadline == pytest.approx(clock.now + rs.queue.backoff_base)

        # before the deadline nothing is attempted
        rs.pump()
        assert rs.queue.retries == 1

        clock.now = first_deadline + 0.001
        rs.pump()  # second failure -> delay doubles
        assert rs.queue.retries == 2
        assert follower.next_attempt_at == pytest.approx(
            clock.now + 2 * rs.queue.backoff_base
        )

        rs.revive(follower.host)
        clock.now = follower.next_attempt_at + 0.001
        rs.pump()
        assert rs.queue.max_lag() == 0
        assert follower.push_attempts == 0  # backoff reset on success

    def test_backoff_capped(self):
        rs, clock = self.make_set(2)
        follower = rs.followers[0]
        rs.kill(follower.host)
        rs.put("/a", b"1")
        for _ in range(20):
            clock.now = follower.next_attempt_at + 0.001
            rs.pump()
        assert follower.next_attempt_at - clock.now <= rs.queue.backoff_cap

    def test_ordering_preserved_after_outage(self):
        """Ops queued during an outage apply in order afterwards."""
        rs, _clock = self.make_set(2)
        follower = rs.followers[0]
        rs.put("/a", b"v1")
        rs.pump()
        rs.kill(follower.host)
        rs.put("/a", b"v2")
        rs.put("/a", b"v3")
        rs.pump(force=True)
        assert follower.server.filesystem.read("/a") == b"v1"
        rs.revive(follower.host)
        rs.pump(force=True)
        assert follower.server.filesystem.read("/a") == b"v3"

    def test_compaction_drops_applied_ops(self):
        rs, _clock = self.make_set(2)
        for i in range(5):
            rs.put(f"/f{i}", b"x")
        rs.pump()
        assert len(rs.queue._ops) == 0

    def test_duplicate_replica_hosts_rejected(self):
        server = FileServer("same.host")
        with pytest.raises(ReplicationError):
            ReplicaSet("logical", [server, FileServer("same.host")])


class TestReadFailover:
    def make_set(self):
        clock = FakeClock()
        tm = TokenManager(secret=b"s", validity_seconds=60, time_source=clock)
        rs = ReplicaSet("logical.host", make_servers(3), time_source=clock)
        rs.token_manager = tm
        rs.put("/data/f.dat", b"payload")
        rs.pump()
        return rs, tm, clock

    def test_healthy_read_hits_primary_only(self):
        rs, _tm, _clock = self.make_set()
        assert rs.serve("/data/f.dat") == b"payload"
        assert rs.failovers == 0

    def test_failover_on_killed_primary(self):
        rs, _tm, _clock = self.make_set()
        rs.kill(rs.primary.host)
        assert rs.serve("/data/f.dat") == b"payload"
        assert rs.failovers == 1

    def test_all_replicas_down_raises(self):
        rs, _tm, _clock = self.make_set()
        for replica in list(rs.replicas):
            rs.kill(replica.host)
        with pytest.raises(AllReplicasDownError):
            rs.serve("/data/f.dat")

    def test_token_valid_on_every_replica(self):
        """One token issued for the logical host works on all replicas."""
        rs, tm, _clock = self.make_set()
        rs.dl_link("/data/f.dat", read_db=True, write_blocked=True, recovery=True)
        rs.pump()
        token = tm.issue("logical.host/data/f.dat")
        for victim in [None, rs.primary.host]:
            if victim:
                rs.kill(victim)
            assert rs.serve("/data/f.dat", token=token) == b"payload"

    def test_permission_errors_do_not_fail_over(self):
        rs, _tm, _clock = self.make_set()
        rs.dl_link("/data/f.dat", read_db=True, write_blocked=True, recovery=True)
        rs.pump()
        with pytest.raises(PermissionDeniedError):
            rs.serve("/data/f.dat")  # no token
        assert rs.failovers == 0  # denial is final, not retried elsewhere

    def test_missing_everywhere_raises_not_found(self):
        rs, _tm, _clock = self.make_set()
        with pytest.raises(FileNotFoundOnServer):
            rs.serve("/data/absent.dat")

    def test_lagging_replica_read_falls_through(self):
        """A file on the primary but not yet replicated is still served
        when the read lands on a lagging follower first."""
        rs, _tm, _clock = self.make_set()
        rs.put("/data/new.dat", b"fresh")  # not pumped yet
        rs.replicas.reverse()  # force a lagging follower to the front
        assert rs.serve("/data/new.dat") == b"fresh"

    def test_unreachable_replica_marked_down_passively(self):
        rs, _tm, _clock = self.make_set()
        rs.kill(rs.primary.host)
        killed = rs.replica(rs.replicas[0].host)
        for _ in range(5):
            rs.serve("/data/f.dat")
        assert killed.status == "down"

    def test_promote_changes_primary(self):
        rs, _tm, _clock = self.make_set()
        target = rs.followers[0].host
        rs.promote(target)
        assert rs.primary.host == target
        rs.put("/data/p.dat", b"new-primary")
        assert rs.primary.server.filesystem.exists("/data/p.dat")


class TestHealthMonitor:
    def make(self, **kwargs):
        clock = FakeClock()
        rs = ReplicaSet("logical.host", make_servers(2), time_source=clock)
        monitor = HealthMonitor(**kwargs)
        return rs, monitor

    def test_healthy_probes_stay_up(self):
        rs, monitor = self.make()
        assert monitor.probe_set(rs) == {
            "phys0.example.org": "up", "phys1.example.org": "up",
        }

    def test_suspect_then_down(self):
        rs, monitor = self.make(suspect_after=1, down_after=3)
        victim = rs.followers[0]
        victim.killed = True
        victim.status = "up"  # reset the kill()-free path
        assert monitor.probe(rs, victim) == "suspect"
        assert monitor.probe(rs, victim) == "suspect"
        assert monitor.probe(rs, victim) == "down"
        assert monitor.transitions == 2

    def test_recovery_resets_to_up(self):
        rs, monitor = self.make()
        victim = rs.followers[0]
        victim.killed = True
        for _ in range(3):
            monitor.probe(rs, victim)
        victim.killed = False
        assert monitor.probe(rs, victim) == "up"
        assert victim.consecutive_failures == 0

    def test_slow_link_marks_suspect_not_down(self):
        rs, monitor = self.make(latency_suspect_s=0.2)
        monitor.latency_probe = lambda replica: 0.5  # always slow
        assert monitor.probe(rs, rs.followers[0]) == "suspect"
        # slowness never escalates to down, however long it lasts
        for _ in range(5):
            assert monitor.probe(rs, rs.followers[0]) == "suspect"


class TestNetsimIntegration:
    def make(self):
        clock = FakeClock()
        linker = DataLinker(
            TokenManager(secret=b"s", validity_seconds=60, time_source=clock)
        )
        manager = ReplicationManager(linker, replication_factor=2,
                                     time_source=clock)
        rs = manager.create_replica_set("fs1.soton.ac.uk", make_servers(3))
        network = Network()
        network.add_host(Host("southampton", role="db_server"))
        for replica in rs.replicas:
            network.add_host(Host(replica.host, role="file_server"))
        manager.attach_network(network, "southampton")
        return manager, rs, network, clock

    def test_partition_blocks_replication(self):
        manager, rs, network, _clock = self.make()
        follower = rs.followers[0]
        network.partition("southampton", follower.host)
        rs.put("/a", b"1")
        manager.pump(force=True)
        assert rs.queue.lag(follower) == 1
        network.heal("southampton", follower.host)
        manager.pump(force=True)
        assert rs.queue.lag(follower) == 0

    def test_partitioned_primary_fails_over_reads(self):
        manager, rs, network, _clock = self.make()
        rs.put("/a", b"1")
        manager.drain()
        network.partition("southampton", rs.primary.host)
        assert rs.serve("/a") == b"1"
        assert rs.failovers == 1

    def test_health_monitor_sees_partition(self):
        manager, rs, network, _clock = self.make()
        victim = rs.followers[0]
        network.partition("southampton", victim.host)
        for _ in range(manager.health.down_after):
            manager.pump()
        assert victim.status == "down"
        network.heal_all()
        manager.pump()
        assert victim.status == "up"

    def test_downed_host_unreachable_from_everywhere(self):
        manager, rs, network, _clock = self.make()
        rs.put("/a", b"1")
        manager.drain()
        network.set_host_down(rs.primary.host)
        assert rs.serve("/a") == b"1"
        assert rs.failovers == 1

    def test_slow_link_demotes_to_suspect(self):
        from repro.netsim.bandwidth import paper_profile

        manager, rs, network, _clock = self.make()
        rs.put("/a", b"1")
        manager.drain()
        manager.health.latency_suspect_s = 0.2
        network.set_default_profile(paper_profile("to_southampton"))
        network.set_latency("southampton", rs.primary.host, 0.5)
        manager.pump()
        assert rs.primary.status == "suspect"
        # reads now prefer the healthy follower
        assert rs.serve("/a") == b"1"
        assert rs.failovers == 1


class TestAntiEntropyRepair:
    def make_set(self):
        clock = FakeClock()
        rs = ReplicaSet("logical.host", make_servers(2), time_source=clock)
        rs.put("/data/a.dat", b"alpha")
        rs.put("/data/b.dat", b"beta")
        rs.dl_link("/data/a.dat", read_db=True, write_blocked=True, recovery=True)
        rs.pump()
        assert check_replica_set(rs).consistent
        return rs

    def test_clean_set_reports_consistent(self):
        rs = self.make_set()
        report = check_replica_set(rs)
        assert report.consistent
        assert report.files_checked == 2

    def test_tampered_bytes_detected_and_fixed(self):
        rs = self.make_set()
        follower = rs.followers[0]
        follower.server.filesystem.dl_put("/data/a.dat", b"bit-rot")
        report = repair_replica_set(rs)
        assert [f.kind for f in report.findings] == ["checksum_mismatch"]
        assert follower.server.filesystem.read("/data/a.dat") == b"alpha"
        assert check_replica_set(rs).consistent

    def test_missing_file_resynced(self):
        rs = self.make_set()
        follower = rs.followers[0]
        follower.server.filesystem.dl_remove("/data/b.dat")
        report = repair_replica_set(rs)
        assert [f.kind for f in report.findings] == ["missing"]
        assert follower.server.filesystem.read("/data/b.dat") == b"beta"
        assert check_replica_set(rs).consistent

    def test_stale_flags_fixed(self):
        rs = self.make_set()
        follower = rs.followers[0]
        follower.server.filesystem.dl_set_flags(
            "/data/a.dat", linked=False, read_db=False,
            write_blocked=False, recovery=False,
        )
        report = repair_replica_set(rs)
        assert [f.kind for f in report.findings] == ["stale_flags"]
        entry = follower.server.filesystem.entry("/data/a.dat")
        assert entry.linked and entry.read_db and entry.recovery
        assert check_replica_set(rs).consistent

    def test_extra_file_reported_not_deleted_by_default(self):
        rs = self.make_set()
        follower = rs.followers[0]
        follower.server.filesystem.dl_put("/data/ghost.dat", b"?")
        report = repair_replica_set(rs)
        assert [f.kind for f in report.findings] == ["extra"]
        assert follower.server.filesystem.exists("/data/ghost.dat")
        report = repair_replica_set(rs, prune=True)
        assert not follower.server.filesystem.exists("/data/ghost.dat")
        assert check_replica_set(rs).consistent

    def test_repair_fast_forwards_queue(self):
        """A repaired follower does not replay its stale backlog."""
        rs = self.make_set()
        follower = rs.followers[0]
        rs.kill(follower.host)
        rs.put("/data/c.dat", b"gamma")
        rs.revive(follower.host)
        repair_replica_set(rs)
        assert rs.queue.lag(follower) == 0
        assert follower.server.filesystem.read("/data/c.dat") == b"gamma"

    def test_unreachable_follower_skipped(self):
        rs = self.make_set()
        rs.kill(rs.followers[0].host)
        report = check_replica_set(rs)
        assert [f.kind for f in report.findings] == ["unreachable"]
        assert report.replicas_checked == 0


class TestCrashRecoveryWithReplication:
    def test_crash_mid_apply_then_repair_converges(self, tmp_path):
        """A crash between applying ops (existing datalink.apply.after_op
        crash point) leaves the primary ahead of the followers; recovery
        plus an anti-entropy pass restores a checksum-clean set."""
        clock = FakeClock()
        tm = TokenManager(secret=b"s", validity_seconds=60, time_source=clock)
        linker = DataLinker(tm)
        manager = ReplicationManager(linker, replication_factor=2,
                                     time_source=clock)
        rs = manager.create_replica_set("fs1.soton.ac.uk", make_servers(2))
        rs.put("/data/a.dat", b"a")
        rs.put("/data/b.dat", b"b")
        db = Database(str(tmp_path), sync=True)
        db.set_datalink_hooks(linker)
        db.execute(DATALINK_DDL)

        # inject_crash swallows the simulated death itself; the commit's
        # WAL record is durable but only the first link op was applied
        with faultinject.inject_crash("datalink.apply.after_op"):
            db.execute("BEGIN")
            db.execute(
                "INSERT INTO RESULT_FILE VALUES "
                "('a', 'http://fs1.soton.ac.uk/data/a.dat')"
            )
            db.execute(
                "INSERT INTO RESULT_FILE VALUES "
                "('b', 'http://fs1.soton.ac.uk/data/b.dat')"
            )
            db.execute("COMMIT")

        # simulated restart: reopen from disk, recover, repair replicas
        db2 = Database(str(tmp_path), sync=True)
        linker.recover(db2)
        db2.set_datalink_hooks(linker)
        manager.drain()
        for report in manager.repair():
            assert check_replica_set(manager.replica_set(report.host)).consistent
        for replica in rs.replicas:
            entry = replica.server.filesystem.entry("/data/a.dat")
            assert entry.linked

    def test_faultinject_registry_untouched(self):
        """Replication adds no new crash points — the closed registry
        guarded by test_crash_matrix stays exactly as it was."""
        assert "replication" not in " ".join(faultinject.CRASH_POINTS)


class TestReplicationManager:
    def test_status_shape(self):
        clock = FakeClock()
        linker = DataLinker()
        manager = ReplicationManager(linker, replication_factor=2,
                                     time_source=clock)
        rs = manager.create_replica_set("fs1.soton.ac.uk", make_servers(3))
        rs.put("/a", b"1")
        status = manager.status()
        assert status["replication_factor"] == 2
        assert status["max_lag"] == 1
        set_status = status["sets"]["fs1.soton.ac.uk"]
        assert set_status["replicas"][0]["role"] == "primary"
        assert len(set_status["replicas"]) == 2
        manager.drain()
        assert manager.status()["max_lag"] == 0
        assert "fs1.soton.ac.uk" in manager.describe()

    def test_linker_routes_logical_host_to_set(self):
        linker = DataLinker()
        manager = ReplicationManager(linker, replication_factor=2)
        rs = manager.create_replica_set("fs1.soton.ac.uk", make_servers(2))
        assert linker.server("fs1.soton.ac.uk") is rs
        assert linker.replication is manager

    def test_duplicate_set_rejected(self):
        manager = ReplicationManager(DataLinker(), replication_factor=2)
        manager.create_replica_set("fs1", make_servers(2))
        with pytest.raises(ReplicationError):
            manager.create_replica_set("fs1", make_servers(2, prefix="other"))

    def test_background_pump_thread(self):
        import time as _time

        linker = DataLinker()
        manager = ReplicationManager(linker, replication_factor=2)
        rs = manager.create_replica_set("fs1", make_servers(2))
        manager.start(interval=0.005)
        try:
            rs.put("/a", b"1")
            deadline = _time.time() + 5.0
            while rs.queue.max_lag() and _time.time() < deadline:
                _time.sleep(0.005)
            assert rs.queue.max_lag() == 0
        finally:
            manager.stop()
        assert manager._pump_thread is None


class TestWebFailoverAcceptance:
    """The issue's acceptance scenario, end to end through the portal."""

    @pytest.fixture
    def portal(self):
        from repro import EasiaApp
        from repro.turbulence import build_turbulence_archive

        archive = build_turbulence_archive(
            n_simulations=1, timesteps=2, replication_factor=2
        )
        engine = archive.make_engine(tempfile.mkdtemp(prefix="easia-repl-"))
        app = EasiaApp(
            archive.db, archive.linker, archive.document, archive.users, engine
        )
        session = app.login("turbulence", "consortium")
        value = archive.db.execute(
            "SELECT DOWNLOAD_RESULT FROM RESULT_FILE"
        ).scalar()
        return archive, app, session, value.url

    def test_archive_starts_lag_free(self, portal):
        archive, _app, _session, _url = portal
        assert archive.replication is not None
        for rs in archive.servers:
            assert rs.queue.max_lag() == 0
            assert check_replica_set(rs).consistent

    def test_download_survives_replica_kill(self, portal):
        archive, app, session, url = portal
        response = app.get("/download", {"url": url}, session_id=session)
        assert response.status == 200
        baseline = bytes(response.body)

        replica_set = archive.servers[0]
        replica_set.kill(replica_set.primary.host)
        response = app.get("/download", {"url": url}, session_id=session)
        assert response.status == 200  # zero user-visible errors
        assert bytes(response.body) == baseline
        assert replica_set.failovers >= 1

    def test_all_replicas_down_is_503(self, portal):
        archive, app, session, url = portal
        replica_set = archive.servers[0]
        for replica in list(replica_set.replicas):
            replica_set.kill(replica.host)
        response = app.get("/download", {"url": url}, session_id=session)
        assert response.status == 503

    def test_metrics_expose_replication(self, portal):
        archive, app, session, url = portal
        replica_set = archive.servers[0]
        replica_set.kill(replica_set.primary.host)
        app.get("/download", {"url": url}, session_id=session)
        text = app.get("/metrics", session_id=session).text
        assert 'replication_lag{set="fs1.soton.ac.uk"}' in text
        assert 'replication_queue_depth{set="fs1.soton.ac.uk"}' in text
        assert 'replication_replicas_up{set="fs1.soton.ac.uk"} 1' in text
        failovers = sum(
            int(line.split()[-1]) for line in text.splitlines()
            if line.startswith("replication_failovers_total{")
        )
        assert failovers == sum(rs.failovers for rs in archive.servers) >= 1

    def test_repair_after_tamper_via_manager(self, portal):
        archive, _app, _session, _url = portal
        replica_set = archive.servers[0]
        follower = replica_set.followers[0]
        path = next(iter(follower.server.manifest()))
        follower.server.filesystem.dl_put(path, b"flipped bits")
        reports = archive.replication.repair()
        fixed = [f for r in reports for f in r.findings]
        assert any(f.kind == "checksum_mismatch" for f in fixed)
        for rs in archive.servers:
            assert check_replica_set(rs).consistent


class TestReplicatedBackupRestore:
    """Satellite: backup reads from healthy replicas; restore verifies
    checksums and reports missing/corrupted image files."""

    def make_archive(self, tmp_path, replicated=True):
        clock = FakeClock()
        tm = TokenManager(secret=b"s", validity_seconds=60, time_source=clock)
        linker = DataLinker(tm)
        if replicated:
            manager = ReplicationManager(linker, replication_factor=2,
                                         time_source=clock)
            server = manager.create_replica_set(
                "fs1.soton.ac.uk", make_servers(2)
            )
        else:
            server = linker.register_server(FileServer("fs1.soton.ac.uk"))
        server.put("/data/a.dat", b"alpha")
        db = Database()
        db.set_datalink_hooks(linker)
        db.execute(DATALINK_DDL)
        db.execute(
            "INSERT INTO RESULT_FILE VALUES "
            "('a', 'http://fs1.soton.ac.uk/data/a.dat')"
        )
        if replicated:
            server.drain()
        return db, linker, server

    def test_backup_records_checksums(self, tmp_path):
        db, linker, server = self.make_archive(tmp_path)
        manifest = coordinated_backup(db, linker, str(tmp_path / "bak"))
        entry = server.primary.server.filesystem.entry("/data/a.dat")
        assert manifest["files"][0]["sha256"] == entry.sha256

    def test_backup_survives_dead_primary(self, tmp_path):
        db, linker, server = self.make_archive(tmp_path)
        server.kill(server.primary.host)
        manifest = coordinated_backup(db, linker, str(tmp_path / "bak"))
        assert manifest["files"][0]["size"] == len(b"alpha")

    def test_restore_round_trip(self, tmp_path):
        db, linker, _server = self.make_archive(tmp_path, replicated=False)
        coordinated_backup(db, linker, str(tmp_path / "bak"))
        db2, linker2 = coordinated_restore(str(tmp_path / "bak"))
        assert db2.execute("SELECT COUNT(*) FROM RESULT_FILE").scalar() == 1
        restored = linker2.server("fs1.soton.ac.uk")
        assert restored.filesystem.read("/data/a.dat") == b"alpha"

    def test_restore_detects_corrupted_image_file(self, tmp_path):
        db, linker, _server = self.make_archive(tmp_path, replicated=False)
        coordinated_backup(db, linker, str(tmp_path / "bak"))
        stored = tmp_path / "bak" / "files" / "fs1.soton.ac.uk" / "data" / "a.dat"
        stored.write_bytes(b"rotten")
        with pytest.raises(RecoveryError, match="corrupted"):
            coordinated_restore(str(tmp_path / "bak"))

    def test_restore_detects_missing_image_file(self, tmp_path):
        db, linker, _server = self.make_archive(tmp_path, replicated=False)
        coordinated_backup(db, linker, str(tmp_path / "bak"))
        stored = tmp_path / "bak" / "files" / "fs1.soton.ac.uk" / "data" / "a.dat"
        stored.unlink()
        with pytest.raises(RecoveryError, match="missing"):
            coordinated_restore(str(tmp_path / "bak"))

    def test_restore_without_checksums_still_works(self, tmp_path):
        """Backward compatibility: pre-checksum images restore fine."""
        import json

        db, linker, _server = self.make_archive(tmp_path, replicated=False)
        coordinated_backup(db, linker, str(tmp_path / "bak"))
        manifest_path = tmp_path / "bak" / "backup_manifest.json"
        manifest = json.loads(manifest_path.read_text())
        for info in manifest["files"]:
            del info["sha256"]
        manifest_path.write_text(json.dumps(manifest))
        db2, _linker2 = coordinated_restore(str(tmp_path / "bak"))
        assert db2.execute("SELECT COUNT(*) FROM RESULT_FILE").scalar() == 1


class TestUnlinkListenerSnapshot:
    """Satellite: the unlink-listener list is snapshotted before
    iteration, so a listener removing itself cannot skip its peers."""

    def test_self_removing_listener_does_not_skip_next(self):
        clock = FakeClock()
        tm = TokenManager(secret=b"s", validity_seconds=60, time_source=clock)
        linker = DataLinker(tm)
        server = linker.register_server(FileServer("fs1.soton.ac.uk"))
        server.put("/data/a.dat", b"a")
        db = Database()
        db.set_datalink_hooks(linker)
        db.execute(DATALINK_DDL)
        db.execute(
            "INSERT INTO RESULT_FILE VALUES "
            "('a', 'http://fs1.soton.ac.uk/data/a.dat')"
        )

        calls = []

        def one_shot(host, path):
            calls.append(("one_shot", host, path))
            linker.unlink_listeners.remove(one_shot)

        def steady(host, path):
            calls.append(("steady", host, path))

        linker.unlink_listeners.extend([one_shot, steady])
        db.execute("DELETE FROM RESULT_FILE WHERE file_name = 'a'")
        # without the snapshot, one_shot's self-removal would shift the
        # list under the iterator and `steady` would never fire
        assert [name for name, _h, _p in calls] == ["one_shot", "steady"]
        assert linker.unlink_listeners == [steady]
