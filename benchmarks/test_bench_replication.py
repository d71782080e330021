"""[A5] Replication failover: downloads survive a dead replica.

The acceptance scenario for the replication work, measured: build a
replicated archive (factor 2), run a burst of DATALINK downloads through
the web tier with every replica up, kill each logical host's primary,
and run the same burst again.

The test itself fails unless, with one replica of each set dead, every
download still returns 200 and fails over, and unless an anti-entropy
repair of a deliberately corrupted follower leaves every replica set
checksum-clean again.

The timings, the failover count and ``overhead_ratio`` (degraded time /
healthy time) go into the benchmark's ``extra_info``; run with
``--benchmark-json=bench_current.json`` and
``scripts/check_bench_regression.py BENCH_replication.json
bench_current.json`` holds the ratio under the ceiling recorded there —
failover costs one extra in-process hop, not a timeout spiral.
"""

import tempfile
import time

from repro.bench import PaperTable
from repro.replication import check_replica_set

DOWNLOADS = 60  # per phase


def _build_portal():
    from repro import EasiaApp
    from repro.turbulence import build_turbulence_archive

    archive = build_turbulence_archive(
        n_simulations=2, timesteps=2, replication_factor=2
    )
    engine = archive.make_engine(tempfile.mkdtemp(prefix="easia-bench-repl-"))
    app = EasiaApp(
        archive.db, archive.linker, archive.document, archive.users, engine
    )
    session = app.login("turbulence", "consortium")
    urls = [
        value.url
        for (value,) in archive.db.execute(
            "SELECT DOWNLOAD_RESULT FROM RESULT_FILE"
        ).rows
    ]
    return archive, app, session, urls


def _download_burst(app, session, urls, n):
    """Run n downloads round-robin over urls; return (seconds, errors)."""
    errors = 0
    started = time.perf_counter()
    for i in range(n):
        response = app.get(
            "/download", {"url": urls[i % len(urls)]}, session_id=session
        )
        if response.status != 200:
            errors += 1
    return time.perf_counter() - started, errors


def test_bench_a5_failover_download(benchmark):
    def measure():
        archive, app, session, urls = _build_portal()
        healthy_s, healthy_errors = _download_burst(
            app, session, urls, DOWNLOADS
        )
        for replica_set in archive.servers:
            replica_set.kill(replica_set.primary.host)
        degraded_s, degraded_errors = _download_burst(
            app, session, urls, DOWNLOADS
        )
        failovers = sum(rs.failovers for rs in archive.servers)

        # anti-entropy: revive, corrupt one follower, repair to clean
        for replica_set in archive.servers:
            replica_set.revive(replica_set.replicas[0].host)
        victim = archive.servers[0].followers[0]
        path = next(iter(victim.server.manifest()))
        victim.server.filesystem.dl_put(path, b"bit-rot")
        repair_findings = sum(
            len(report.findings) for report in archive.replication.repair()
        )
        clean = all(
            check_replica_set(rs).consistent for rs in archive.servers
        )
        return (healthy_s, healthy_errors, degraded_s, degraded_errors,
                failovers, repair_findings, clean)

    (healthy_s, healthy_errors, degraded_s, degraded_errors,
     failovers, repair_findings, clean) = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )
    overhead = degraded_s / max(healthy_s, 1e-9)

    table = PaperTable(
        "A5",
        f"{DOWNLOADS} portal downloads per phase, replication factor 2",
        ["phase", "seconds", "downloads/s", "errors"],
    )
    table.add_row("all replicas up", f"{healthy_s:.3f}",
                  f"{DOWNLOADS / healthy_s:.0f}", str(healthy_errors))
    table.add_row("primaries killed", f"{degraded_s:.3f}",
                  f"{DOWNLOADS / degraded_s:.0f}", str(degraded_errors))
    table.add_row("failover overhead", f"{overhead:.2f}x", "", "")
    table.show()

    benchmark.extra_info.update(
        healthy_seconds=healthy_s,
        degraded_seconds=degraded_s,
        failovers=failovers,
        overhead_ratio=overhead,
    )

    assert healthy_errors == 0
    assert degraded_errors == 0, (
        f"{degraded_errors} downloads failed with a replica dead"
    )
    assert failovers >= DOWNLOADS  # every degraded download failed over
    assert repair_findings >= 1 and clean
