"""[A4] Concurrency ablation: snapshot reads vs serialised reads.

The acceptance scenario for the concurrent-connection work: 8 reader
threads and 1 writer thread share one database via ``Database.connect()``.
The writer runs explicit transactions that hold the writer lock for most
of each interval.  Readers run in two modes:

* **snapshot** — the shipped path: each SELECT reads a per-statement
  snapshot and never touches the writer lock;
* **serialized** — the counterfactual: each SELECT first acquires the
  writer lock, the behaviour a single-lock engine would force on readers.

Each reader validates every SUM it sees against the invariant total, so
the run doubles as a torn-read detector: the test fails on any torn read.
The read counts and the snapshot-vs-serialized ``speedup`` go into the
benchmark's ``extra_info``; run with ``--benchmark-json=bench_current.json``
and ``scripts/check_bench_regression.py BENCH_concurrency.json
bench_current.json`` holds the speedup to the floor recorded there.
"""

import threading
import time

from repro.bench import PaperTable
from repro.errors import LockTimeout
from repro.sqldb import Database

N_READERS = 8
N_ACCOUNTS = 16
BALANCE = 100
DURATION = 0.6  # seconds per mode
WRITER_HOLD = 0.02  # seconds the writer keeps the lock per transaction
WRITER_GAP = 0.004  # seconds between writer transactions


def _build_db():
    db = Database()
    db.execute("CREATE TABLE ACCT (K INTEGER PRIMARY KEY, V INTEGER)")
    for i in range(N_ACCOUNTS):
        db.execute("INSERT INTO ACCT VALUES (?, ?)", (i, BALANCE))
    return db, N_ACCOUNTS * BALANCE


def _run_mode(db, total, serialized):
    """Run 8 readers + 1 writer for DURATION; return (reads, torn)."""
    stop = threading.Event()
    reads = [0] * N_READERS
    torn = [0] * N_READERS
    # In serialized mode this models a writer-priority lock queue: readers
    # may not cut in front of a writer that wants the lock (a plain
    # threading.Lock is unfair and would let 8 readers starve the writer,
    # which no serialised engine tolerates).
    writer_wants = threading.Event()

    def writer():
        conn = db.connect()
        i = 0
        while not stop.is_set():
            a, b = i % N_ACCOUNTS, (i + 5) % N_ACCOUNTS
            writer_wants.set()
            conn.execute("BEGIN")
            conn.execute("UPDATE ACCT SET V = V - 9 WHERE K = ?", (a,))
            conn.execute("UPDATE ACCT SET V = V + 9 WHERE K = ?", (b,))
            # an open transaction mid-flight: the writer lock stays held
            time.sleep(WRITER_HOLD)
            conn.execute("COMMIT")
            writer_wants.clear()
            i += 1
            time.sleep(WRITER_GAP)

    def reader(slot):
        conn = db.connect()
        while not stop.is_set():
            if serialized:
                # counterfactual: readers queue behind the writer
                if writer_wants.is_set():
                    time.sleep(0.0005)
                    continue
                try:
                    db.writer_lock.acquire(timeout=0.01)
                except LockTimeout:
                    continue
                try:
                    seen = conn.execute("SELECT SUM(V) FROM ACCT").scalar()
                finally:
                    db.writer_lock.release()
            else:
                seen = conn.execute("SELECT SUM(V) FROM ACCT").scalar()
            reads[slot] += 1
            if seen != total:
                torn[slot] += 1

    threads = [threading.Thread(target=writer)]
    threads += [
        threading.Thread(target=reader, args=(slot,))
        for slot in range(N_READERS)
    ]
    for t in threads:
        t.start()
    time.sleep(DURATION)
    stop.set()
    for t in threads:
        t.join()
    return sum(reads), sum(torn)


def test_bench_a4_snapshot_read_throughput(benchmark):
    def measure():
        db, total = _build_db()
        snap_reads, snap_torn = _run_mode(db, total, serialized=False)
        serial_reads, serial_torn = _run_mode(db, total, serialized=True)
        return snap_reads, snap_torn, serial_reads, serial_torn

    snap_reads, snap_torn, serial_reads, serial_torn = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )
    speedup = snap_reads / max(1, serial_reads)

    table = PaperTable(
        "A4",
        f"{N_READERS} readers + 1 writer, {DURATION:g}s per mode",
        ["read mode", "reads", "reads/s", "torn"],
    )
    table.add_row("snapshot (shipped)", str(snap_reads),
                  f"{snap_reads / DURATION:.0f}", str(snap_torn))
    table.add_row("serialized behind writer lock", str(serial_reads),
                  f"{serial_reads / DURATION:.0f}", str(serial_torn))
    table.add_row("speedup", f"{speedup:.1f}x", "", "")
    table.show()

    benchmark.extra_info.update(
        snapshot_reads=snap_reads,
        serialized_reads=serial_reads,
        speedup=speedup,
    )

    assert snap_torn == 0 and serial_torn == 0
