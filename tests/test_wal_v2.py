"""WAL format v2: checksums, LSNs, idempotent recovery, v1 compatibility.

Companion to tests/test_crash_matrix.py (the systematic crash matrix);
this file pins the record format itself, the specific regressions named
in the durability issue, and the recovery edge cases.
"""

import json
import os
import zlib

import pytest

import repro.obs as obs_module
from repro import faultinject
from repro.errors import FaultInjectionError, RecoveryError
from repro.sqldb import Database
from repro.sqldb.types import Blob, Clob
from repro.sqldb.wal import WAL_NAME, CHECKPOINT_NAME, WriteAheadLog


def _make_db(directory, rows=2):
    db = Database(directory)
    db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v VARCHAR(10))")
    for i in range(rows):
        db.execute("INSERT INTO t VALUES (?, ?)", (i, f"v{i}"))
    return db

def _wal_lines(directory):
    with open(os.path.join(directory, WAL_NAME), encoding="utf-8") as fh:
        return [line for line in fh.read().splitlines() if line.strip()]


class TestRecordFormat:
    def test_records_carry_crc_and_monotonic_lsn(self, tmp_path):
        d = str(tmp_path)
        _make_db(d, rows=3)
        lsns = []
        for line in _wal_lines(d):
            tag, crc_hex, payload = line.split("|", 2)
            assert tag == "2"
            assert int(crc_hex, 16) == zlib.crc32(payload.encode()) & 0xFFFFFFFF
            lsns.append(json.loads(payload)["lsn"])
        assert lsns == sorted(lsns)
        assert len(set(lsns)) == len(lsns)

    def test_lsn_continues_across_reopen(self, tmp_path):
        d = str(tmp_path)
        _make_db(d, rows=2)
        db2 = Database(d)
        db2.execute("INSERT INTO t VALUES (10, 'x')")
        lsns = [
            json.loads(line.split("|", 2)[2])["lsn"] for line in _wal_lines(d)
        ]
        assert lsns == sorted(lsns)
        assert len(set(lsns)) == len(lsns)

    def test_lsn_not_reset_by_checkpoint(self, tmp_path):
        d = str(tmp_path)
        db = _make_db(d, rows=2)
        before = db._wal.last_lsn
        db.checkpoint()
        db.execute("INSERT INTO t VALUES (10, 'x')")
        lsns = [
            json.loads(line.split("|", 2)[2])["lsn"] for line in _wal_lines(d)
        ]
        assert lsns and min(lsns) > before

    def test_checkpoint_document_carries_watermark_and_epoch(self, tmp_path):
        d = str(tmp_path)
        db = _make_db(d, rows=2)
        db.checkpoint()
        with open(os.path.join(d, CHECKPOINT_NAME), encoding="utf-8") as fh:
            doc = json.load(fh)
        assert doc["format"] == 2
        assert doc["epoch"] == 1
        assert doc["lsn"] == 3  # CREATE TABLE + 2 inserts
        assert "tables" in doc["data"]
        db.checkpoint()
        with open(os.path.join(d, CHECKPOINT_NAME), encoding="utf-8") as fh:
            assert json.load(fh)["epoch"] == 2

    def test_commit_lsn_exposed_on_transaction(self, tmp_path):
        db = Database(str(tmp_path))
        db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY)")
        txn = db._connection().txns.begin(explicit=True)
        db.execute("INSERT INTO t VALUES (1)")
        db.execute("COMMIT")
        assert txn.commit_lsn == 2


class TestDoubleReplayRegression:
    """Crash between checkpoint os.replace and WAL truncation: the stale
    records are already inside the snapshot and must not replay again."""

    def test_crash_after_replace_does_not_double_apply(self, tmp_path):
        d = str(tmp_path)
        db = _make_db(d, rows=3)
        with faultinject.inject_crash("wal.checkpoint.after_replace"):
            db.checkpoint()
        # The WAL still holds every record; the promoted checkpoint holds
        # the same data.  Pre-fix this re-inserted rows (rowid collision).
        db2 = Database(d)
        assert db2.execute("SELECT COUNT(*) FROM t").scalar() == 3
        assert sorted(db2.execute("SELECT k FROM t").rows) == [(0,), (1,), (2,)]
        assert db2.recovery_stats["skipped_stale"] == 4  # DDL + 3 inserts
        assert db2.recovery_stats["replayed_txns"] == 0

    def test_exact_interleaving_with_deletes_and_updates(self, tmp_path):
        d = str(tmp_path)
        db = _make_db(d, rows=3)
        db.execute("UPDATE t SET v = 'upd' WHERE k = 1")
        db.execute("DELETE FROM t WHERE k = 2")
        with faultinject.inject_crash("wal.checkpoint.after_replace"):
            db.checkpoint()
        # Replaying the DELETE a second time would raise (row already
        # gone); replaying the UPDATE would be silently wrong.
        db2 = Database(d)
        assert sorted(db2.execute("SELECT k, v FROM t").rows) == [
            (0, "v0"), (1, "upd"),
        ]

    def test_stale_records_cleared_by_next_checkpoint(self, tmp_path):
        d = str(tmp_path)
        db = _make_db(d, rows=2)
        with faultinject.inject_crash("wal.checkpoint.after_replace"):
            db.checkpoint()
        db2 = Database(d)
        db2.execute("INSERT INTO t VALUES (10, 'x')")
        db2.checkpoint()
        db3 = Database(d)
        assert db3.execute("SELECT COUNT(*) FROM t").scalar() == 3
        assert db3.recovery_stats["skipped_stale"] == 0

    def test_crash_before_replace_keeps_old_state_valid(self, tmp_path):
        d = str(tmp_path)
        db = _make_db(d, rows=2)
        with faultinject.inject_crash("wal.checkpoint.tmp_written"):
            db.checkpoint()
        # The old checkpoint (none) plus the intact WAL still recover;
        # the fsynced .tmp was never promoted.
        db2 = Database(d)
        assert db2.execute("SELECT COUNT(*) FROM t").scalar() == 2
        db2.checkpoint()  # and the leftover .tmp does not block progress
        assert Database(d).execute("SELECT COUNT(*) FROM t").scalar() == 2


class TestBufferedReadRegression:
    """A corrupt line in the middle of the log must be fatal even when the
    whole file fits inside one stream read-ahead buffer (the old
    line-iterator + fh.read() check could miss buffered lines)."""

    def test_corrupt_middle_line_within_one_buffer_chunk(self, tmp_path):
        d = str(tmp_path)
        _make_db(d, rows=2)
        wal_path = os.path.join(d, WAL_NAME)
        with open(wal_path, encoding="utf-8") as fh:
            lines = fh.readlines()
        assert sum(len(l) for l in lines) < 8192  # one io buffer chunk
        lines.insert(1, '{"txn": 7, "ops": [{"op": "ins\n')  # torn, then valid
        with open(wal_path, "w", encoding="utf-8") as fh:
            fh.writelines(lines)
        with pytest.raises(RecoveryError):
            Database(d)

    def test_bitflip_in_middle_record_detected_by_crc(self, tmp_path):
        d = str(tmp_path)
        _make_db(d, rows=2)
        wal_path = os.path.join(d, WAL_NAME)
        with open(wal_path, encoding="utf-8") as fh:
            lines = fh.readlines()
        # Corrupt a value inside record 2 of 3: still valid JSON, but the
        # checksum no longer matches.
        lines[1] = lines[1].replace('"v0"', '"vX"')
        with open(wal_path, "w", encoding="utf-8") as fh:
            fh.writelines(lines)
        with pytest.raises(RecoveryError):
            Database(d)

    def test_non_monotonic_lsn_detected(self, tmp_path):
        d = str(tmp_path)
        _make_db(d, rows=2)
        wal_path = os.path.join(d, WAL_NAME)
        with open(wal_path, encoding="utf-8") as fh:
            lines = fh.readlines()
        with open(wal_path, "a", encoding="utf-8") as fh:
            fh.write(lines[0])  # replay of an old record appended at the end
        with pytest.raises(RecoveryError):
            Database(d)


class TestTornTail:
    def test_torn_tail_is_truncated_so_later_appends_stay_clean(self, tmp_path):
        d = str(tmp_path)
        db = _make_db(d, rows=2)
        with faultinject.inject_crash("wal.append.torn"):
            db.execute("INSERT INTO t VALUES (99, 'torn')")
        db2 = Database(d)
        assert db2.execute("SELECT COUNT(*) FROM t").scalar() == 2
        assert db2.recovery_stats["torn_tail_bytes"] > 0
        # Without tail repair this append would concatenate onto the torn
        # bytes and corrupt the log for every future recovery.
        db2.execute("INSERT INTO t VALUES (3, 'ok')")
        db3 = Database(d)
        assert sorted(db3.execute("SELECT k FROM t").rows) == [(0,), (1,), (3,)]

    def test_manual_torn_final_line_skipped(self, tmp_path):
        d = str(tmp_path)
        _make_db(d, rows=2)
        with open(os.path.join(d, WAL_NAME), "a", encoding="utf-8") as fh:
            fh.write('2|00000000|{"lsn": 9, "txn": 9, "ops": [{"op"')
        db2 = Database(d)
        assert db2.execute("SELECT COUNT(*) FROM t").scalar() == 2


class TestRecoveryEdgeCases:
    def test_empty_wal_file(self, tmp_path):
        d = str(tmp_path)
        _make_db(d, rows=2)
        db = Database(d)
        db.checkpoint()  # WAL now zero-length
        db2 = Database(d)
        assert db2.execute("SELECT COUNT(*) FROM t").scalar() == 2
        assert db2.recovery_stats["replayed_txns"] == 0

    def test_whitespace_only_tail(self, tmp_path):
        d = str(tmp_path)
        _make_db(d, rows=2)
        with open(os.path.join(d, WAL_NAME), "a", encoding="utf-8") as fh:
            fh.write("\n\n   \n")
        db2 = Database(d)
        assert db2.execute("SELECT COUNT(*) FROM t").scalar() == 2

    def test_checkpoint_without_wal(self, tmp_path):
        d = str(tmp_path)
        db = _make_db(d, rows=2)
        db.checkpoint()
        os.remove(os.path.join(d, WAL_NAME))
        db2 = Database(d)
        assert db2.execute("SELECT COUNT(*) FROM t").scalar() == 2

    def test_wal_without_checkpoint(self, tmp_path):
        d = str(tmp_path)
        _make_db(d, rows=2)
        assert not os.path.exists(os.path.join(d, CHECKPOINT_NAME))
        db2 = Database(d)
        assert db2.execute("SELECT COUNT(*) FROM t").scalar() == 2

    def test_lob_and_datalink_values_survive_crash_recovery(self, tmp_path):
        d = str(tmp_path)
        db = Database(d)
        db.execute(
            "CREATE TABLE r (k INTEGER PRIMARY KEY, b BLOB, c CLOB, "
            "d DATALINK)"
        )
        db.execute(
            "INSERT INTO r VALUES (?, ?, ?, ?)",
            (1, Blob(b"\x00\xffbytes", "application/octet-stream"),
             Clob("x" * 2000, "text/plain"), "http://h/data/f.bin"),
        )
        with faultinject.inject_crash("wal.append.torn"):
            db.execute(
                "INSERT INTO r VALUES (?, ?, ?, ?)",
                (2, Blob(b"gone"), Clob("gone"), "http://h/data/g.bin"),
            )
        db2 = Database(d)
        rows = db2.execute("SELECT k, b, c, d FROM r").rows
        assert len(rows) == 1
        k, b, c, dl = rows[0]
        assert (k, b.data, c.text, dl.url) == (
            1, b"\x00\xffbytes", "x" * 2000, "http://h/data/f.bin"
        )


class TestV1Compatibility:
    """Logs and checkpoints written by the pre-v2 code must still recover."""

    def _downgrade_to_v1(self, d):
        """Rewrite the v2 on-disk state exactly as the old code wrote it."""
        wal_path = os.path.join(d, WAL_NAME)
        v1_lines = []
        for line in _wal_lines(d):
            payload = json.loads(line.split("|", 2)[2])
            v1_lines.append(json.dumps(
                {"txn": payload["txn"], "ops": payload["ops"]},
                separators=(",", ":"),
            ))
        with open(wal_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(v1_lines) + ("\n" if v1_lines else ""))
        checkpoint_path = os.path.join(d, CHECKPOINT_NAME)
        if os.path.exists(checkpoint_path):
            with open(checkpoint_path, encoding="utf-8") as fh:
                doc = json.load(fh)
            with open(checkpoint_path, "w", encoding="utf-8") as fh:
                json.dump(doc["data"], fh)  # v1: the snapshot is the document

    def test_v1_wal_without_checkpoint(self, tmp_path):
        d = str(tmp_path)
        _make_db(d, rows=3)
        self._downgrade_to_v1(d)
        db = Database(d)
        assert sorted(db.execute("SELECT k FROM t").rows) == [(0,), (1,), (2,)]
        assert db.recovery_stats["replayed_txns"] == 4

    def test_v1_checkpoint_plus_v1_wal(self, tmp_path):
        d = str(tmp_path)
        db = _make_db(d, rows=2)
        db.checkpoint()
        db.execute("INSERT INTO t VALUES (10, 'x')")
        self._downgrade_to_v1(d)
        db2 = Database(d)
        assert sorted(db2.execute("SELECT k FROM t").rows) == [(0,), (1,), (10,)]
        assert db2.recovery_stats["checkpoint_lsn"] == 0  # v1: no watermark

    def test_v2_appends_onto_v1_log(self, tmp_path):
        d = str(tmp_path)
        _make_db(d, rows=2)
        self._downgrade_to_v1(d)
        db = Database(d)
        db.execute("INSERT INTO t VALUES (10, 'x')")  # appended as v2
        lines = _wal_lines(d)
        assert lines[0].startswith("{") and lines[-1].startswith("2|")
        db2 = Database(d)
        assert sorted(db2.execute("SELECT k FROM t").rows) == [
            (0,), (1,), (10,),
        ]

    def test_v1_torn_final_line_skipped(self, tmp_path):
        d = str(tmp_path)
        _make_db(d, rows=2)
        self._downgrade_to_v1(d)
        with open(os.path.join(d, WAL_NAME), "a", encoding="utf-8") as fh:
            fh.write('{"txn": 99, "ops": [{"op": "ins')
        db = Database(d)
        assert db.execute("SELECT COUNT(*) FROM t").scalar() == 2


class TestObservability:
    def test_recovery_and_fsync_counters(self, tmp_path):
        d = str(tmp_path)
        handle = obs_module.enable()
        try:
            db = Database(d, sync=True)
            db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY)")
            db.execute("INSERT INTO t VALUES (1)")
            assert handle.metrics.counter("wal.append.fsync").value == 2
            db2 = Database(d, sync=True)
            assert handle.metrics.counter("wal.recovery.runs").value == 2
            assert (
                handle.metrics.counter("wal.recovery.replayed_txns").value == 2
            )
            rendered = handle.metrics.render_text()
            assert "wal_recovery_replayed_txns_total 2" in rendered
            assert "wal_append_fsync_total 2" in rendered
        finally:
            obs_module.disable()

    def test_recovery_stats_none_for_in_memory(self):
        assert Database().recovery_stats is None


class TestFaultInjectionHarness:
    def test_unknown_point_rejected_immediately(self):
        with pytest.raises(FaultInjectionError):
            faultinject.inject_crash("no.such.point")

    def test_unreached_point_fails_fast(self, tmp_path):
        db = _make_db(str(tmp_path), rows=1)
        with pytest.raises(FaultInjectionError, match="never\\s+reached"):
            with faultinject.inject_crash("wal.checkpoint.after_replace"):
                db.execute("SELECT COUNT(*) FROM t")  # no checkpoint here

    def test_injectors_do_not_nest(self):
        with pytest.raises(FaultInjectionError):
            with faultinject.inject_crash("wal.append.torn"):
                with faultinject.inject_crash("wal.append.full_write"):
                    pass  # pragma: no cover

    def test_disarmed_after_exit(self, tmp_path):
        d = str(tmp_path)
        db = _make_db(d, rows=1)
        with faultinject.inject_crash("wal.append.full_write"):
            db.execute("INSERT INTO t VALUES (50, 'x')")
        assert faultinject.active_injector() is None
        db2 = Database(d)
        db2.execute("INSERT INTO t VALUES (51, 'y')")  # no crash now
        assert db2.execute("SELECT COUNT(*) FROM t").scalar() == 3

    def test_skip_count_survives_n_hits(self, tmp_path):
        d = str(tmp_path)
        db = _make_db(d, rows=1)
        with faultinject.inject_crash("wal.append.full_write", skip=1) as inj:
            db.execute("INSERT INTO t VALUES (60, 'a')")  # survives
            db.execute("INSERT INTO t VALUES (61, 'b')")  # dies
        assert inj.hits["wal.append.full_write"] == 2
        db2 = Database(d)
        assert sorted(db2.execute("SELECT k FROM t").rows) == [
            (0,), (60,), (61,),
        ]

    def test_standalone_wal_append_positions_lsn(self, tmp_path):
        d = str(tmp_path)
        wal = WriteAheadLog(d)
        wal.append_transaction(1, [{"op": "ddl", "sql": "X"}])
        wal.append_transaction(2, [{"op": "ddl", "sql": "Y"}])
        # A second instance over the same directory continues the sequence.
        wal2 = WriteAheadLog(d)
        lsn = wal2.append_transaction(3, [{"op": "ddl", "sql": "Z"}])
        assert lsn == 3
        assert [r[0] for r in wal2.iter_transactions()] == [1, 2, 3]
