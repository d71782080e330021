"""Tests for the operations framework: sandbox, batch, engine, upload,
cache, stats, URL services."""

import re
import sys
import threading

import pytest

from repro.errors import (
    AuthorizationError,
    OperationError,
    OperationExecutionError,
    OperationNotApplicable,
    SandboxViolation,
)
from repro.operations import (
    BatchScript,
    OperationCache,
    OperationStats,
    Sandbox,
    SandboxPolicy,
    pack_code_archive,
    unpack_archive,
)
from repro.turbulence import build_turbulence_archive, decode_snapshot


@pytest.fixture(scope="module")
def archive():
    return build_turbulence_archive(n_simulations=2, timesteps=2, grid=10)


@pytest.fixture
def engine(archive, tmp_path):
    return archive.make_engine(str(tmp_path / "sandbox"))


@pytest.fixture
def row(archive):
    return archive.result_rows()[0]


COLID = "RESULT_FILE.DOWNLOAD_RESULT"


def _offered(archive, row, user):
    """The operations the rendered Operations cell of ``row`` offers ``user``."""
    from repro.web.render import render_result_table

    result = archive.db.execute(
        "SELECT * FROM RESULT_FILE WHERE SIMULATION_KEY = ? AND FILE_NAME = ?",
        (row["SIMULATION_KEY"], row["FILE_NAME"]),
    )
    page = render_result_table(
        archive.db, archive.document, "RESULT_FILE", result, user
    )
    return set(re.findall(r'class="operation" href="/operation/form\?name=(\w+)', page))


class TestSandbox:
    def test_basic_run_collects_outputs(self, tmp_path):
        sandbox = Sandbox(str(tmp_path))
        workdir = sandbox.make_workdir("sess")
        with open(f"{workdir}/in.dat", "wb") as fh:
            fh.write(b"12345")
        result = sandbox.run_source(
            "data = open(INPUT_FILENAME, 'rb').read()\n"
            "out = open('len.txt', 'w')\n"
            "out.write(str(len(data)))\n"
            "out.close()\n",
            workdir,
            "in.dat",
        )
        assert result.outputs == {"len.txt": b"5"}

    def test_print_captured(self, tmp_path):
        sandbox = Sandbox(str(tmp_path))
        workdir = sandbox.make_workdir("sess")
        with open(f"{workdir}/in.dat", "wb") as fh:
            fh.write(b"")
        result = sandbox.run_source("print('hello', 42)", workdir, "in.dat")
        assert result.stdout == "hello 42\n"

    def test_params_visible(self, tmp_path):
        sandbox = Sandbox(str(tmp_path))
        workdir = sandbox.make_workdir("sess")
        with open(f"{workdir}/in.dat", "wb") as fh:
            fh.write(b"")
        result = sandbox.run_source(
            "out = open('p.txt', 'w')\nout.write(str(PARAMS['k']))\nout.close()",
            workdir, "in.dat", {"k": "v"},
        )
        assert result.outputs["p.txt"] == b"v"

    def test_absolute_path_blocked(self, tmp_path):
        sandbox = Sandbox(str(tmp_path))
        workdir = sandbox.make_workdir("sess")
        with open(f"{workdir}/in.dat", "wb") as fh:
            fh.write(b"")
        with pytest.raises(SandboxViolation):
            sandbox.run_source(
                "open('/etc/passwd', 'r')", workdir, "in.dat"
            )

    def test_escape_via_dotdot_blocked(self, tmp_path):
        sandbox = Sandbox(str(tmp_path))
        workdir = sandbox.make_workdir("sess")
        with open(f"{workdir}/in.dat", "wb") as fh:
            fh.write(b"")
        with pytest.raises(SandboxViolation):
            sandbox.run_source(
                "open('../outside.txt', 'w')", workdir, "in.dat"
            )

    def test_disallowed_import_blocked(self, tmp_path):
        sandbox = Sandbox(str(tmp_path))
        workdir = sandbox.make_workdir("sess")
        with open(f"{workdir}/in.dat", "wb") as fh:
            fh.write(b"")
        with pytest.raises(SandboxViolation):
            sandbox.run_source("import os", workdir, "in.dat")

    def test_allowed_import_works(self, tmp_path):
        sandbox = Sandbox(str(tmp_path))
        workdir = sandbox.make_workdir("sess")
        with open(f"{workdir}/in.dat", "wb") as fh:
            fh.write(b"")
        result = sandbox.run_source(
            "import math\nprint(math.sqrt(9))", workdir, "in.dat"
        )
        assert "3.0" in result.stdout

    def test_step_budget_enforced(self, tmp_path):
        sandbox = Sandbox(str(tmp_path))
        workdir = sandbox.make_workdir("sess")
        with open(f"{workdir}/in.dat", "wb") as fh:
            fh.write(b"")
        policy = SandboxPolicy(max_steps=1000)
        with pytest.raises(SandboxViolation):
            sandbox.run_source(
                "x = 0\nwhile True:\n    x += 1\n", workdir, "in.dat",
                policy=policy,
            )

    def test_exec_and_dunder_import_unavailable(self, tmp_path):
        sandbox = Sandbox(str(tmp_path))
        workdir = sandbox.make_workdir("sess")
        with open(f"{workdir}/in.dat", "wb") as fh:
            fh.write(b"")
        with pytest.raises(OperationExecutionError):
            sandbox.run_source("exec('1+1')", workdir, "in.dat")

    def test_crash_becomes_operation_error(self, tmp_path):
        sandbox = Sandbox(str(tmp_path))
        workdir = sandbox.make_workdir("sess")
        with open(f"{workdir}/in.dat", "wb") as fh:
            fh.write(b"")
        with pytest.raises(OperationExecutionError):
            sandbox.run_source("1 / 0", workdir, "in.dat")

    def test_syntax_error(self, tmp_path):
        sandbox = Sandbox(str(tmp_path))
        workdir = sandbox.make_workdir("sess")
        with pytest.raises(OperationExecutionError):
            sandbox.run_source("def broken(:", workdir, "in.dat")

    def test_workdirs_unique_and_session_named(self, tmp_path):
        sandbox = Sandbox(str(tmp_path))
        a = sandbox.make_workdir("sess-1")
        b = sandbox.make_workdir("sess-1")
        assert a != b
        assert "sess-1" in a

    def test_concurrent_runs_keep_their_own_workdirs(self, tmp_path):
        """Runs on several threads each chdir into their own workdir; one
        run must never restore another's (soon deleted) directory."""
        sandbox = Sandbox(str(tmp_path))
        source = (
            "total = 0\n"
            "for i in range(2000):\n"
            "    total += i\n"
            "out = open('who.txt', 'w')\n"
            "out.write(PARAMS['who'] + ':' + str(total))\n"
            "out.close()\n"
        )
        errors: list[BaseException] = []

        def worker(thread: int) -> None:
            try:
                for run in range(30):
                    who = f"{thread}-{run}"
                    workdir = sandbox.make_workdir(f"t{thread}")
                    with open(f"{workdir}/in.dat", "wb") as fh:
                        fh.write(b"")
                    result = sandbox.run_source(
                        source, workdir, "in.dat", {"who": who}
                    )
                    assert result.outputs == {
                        "who.txt": f"{who}:1999000".encode()
                    }
                    sandbox.cleanup(workdir)
            except Exception as exc:  # surfaced to the main thread
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(4)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []

    def test_output_size_limit(self, tmp_path):
        sandbox = Sandbox(str(tmp_path))
        workdir = sandbox.make_workdir("sess")
        with open(f"{workdir}/in.dat", "wb") as fh:
            fh.write(b"")
        policy = SandboxPolicy(max_output_bytes=10)
        with pytest.raises(SandboxViolation):
            sandbox.run_source(
                "out = open('big.bin', 'wb')\nout.write(bytes(100))\nout.close()",
                workdir, "in.dat", policy=policy,
            )


class TestBatch:
    def test_zip_round_trip(self, tmp_path):
        archive_bytes = pack_code_archive({"a.py": b"x = 1", "d/b.txt": b"hi"})
        members = unpack_archive(archive_bytes, str(tmp_path))
        assert sorted(members) == ["a.py", "d/b.txt"]
        assert (tmp_path / "d" / "b.txt").read_bytes() == b"hi"

    @pytest.mark.parametrize("fmt", ["zip", "jar", "tar", "tar.gz", "tgz"])
    def test_all_formats(self, tmp_path, fmt):
        archive_bytes = pack_code_archive({"m.py": b"pass"}, fmt)
        members = unpack_archive(archive_bytes, str(tmp_path / fmt))
        assert members == ["m.py"]

    def test_unknown_format(self):
        with pytest.raises(OperationExecutionError):
            pack_code_archive({}, "rar")

    def test_garbage_archive(self, tmp_path):
        with pytest.raises(OperationExecutionError):
            unpack_archive(b"not an archive", str(tmp_path))

    def test_script_render(self):
        script = BatchScript("/tmp/w", "GetImage.jar", "GetImage.py", "ts.turb")
        text = script.render()
        assert "cd /tmp/w" in text
        assert "unpack GetImage.jar" in text
        assert "interpreter GetImage.py ts.turb" in text
        assert script.steps()[0] == "cd /tmp/w"


class TestEngine:
    def test_get_image_produces_pgm(self, engine, row):
        result = engine.invoke(
            "GetImage", COLID, row, {"slice": "x1", "type": "u"}
        )
        pgm = result.outputs["slice.pgm"]
        assert pgm.startswith(b"P5\n10 10\n255\n")
        assert len(pgm) == len(b"P5\n10 10\n255\n") + 100

    def test_components_differ(self, engine, row):
        u = engine.invoke("GetImage", COLID, row, {"slice": "x1", "type": "u"})
        p = engine.invoke("GetImage", COLID, row, {"slice": "x1", "type": "p"})
        assert u.outputs["slice.pgm"] != p.outputs["slice.pgm"]

    def test_field_stats(self, engine, row):
        import json

        result = engine.invoke("FieldStats", COLID, row)
        stats = json.loads(result.outputs["stats.json"])
        assert stats["grid"] == [10, 10, 10]
        assert set(stats["fields"]) == {"u", "v", "w", "p"}
        for field in stats["fields"].values():
            assert field["min"] <= field["mean"] <= field["max"]
            assert field["rms"] >= 0

    def test_stats_match_numpy(self, engine, archive, row):
        import json

        import numpy as np

        server = archive.linker.server(row[COLID].host)
        data = server.filesystem.read(row[COLID].server_path)
        fields = decode_snapshot(data)
        result = engine.invoke("FieldStats", COLID, row, use_cache=False)
        stats = json.loads(result.outputs["stats.json"])
        assert stats["fields"]["u"]["mean"] == pytest.approx(
            float(np.mean(fields["u"])), rel=1e-5
        )
        assert stats["fields"]["p"]["rms"] == pytest.approx(
            float(np.sqrt(np.mean(fields["p"] ** 2))), rel=1e-5
        )

    def test_subsample_halves_grid(self, engine, archive, row):
        user = archive.users.user("turbulence")
        result = engine.invoke("Subsample", COLID, row, {"factor": "2"}, user=user)
        fields = decode_snapshot(result.outputs["subsampled.turb"])
        assert fields["u"].shape == (5, 5, 5)

    def test_subsample_values_correct(self, engine, archive, row):
        import numpy as np

        user = archive.users.user("turbulence")
        server = archive.linker.server(row[COLID].host)
        original = decode_snapshot(server.filesystem.read(row[COLID].server_path))
        result = engine.invoke("Subsample", COLID, row, {"factor": "2"}, user=user)
        reduced = decode_snapshot(result.outputs["subsampled.turb"])
        np.testing.assert_array_equal(reduced["w"], original["w"][::2, ::2, ::2])

    def test_data_reduction_accounting(self, engine, row):
        result = engine.invoke(
            "GetImage", COLID, row, {"slice": "x0", "type": "u"},
            use_cache=False,
        )
        assert result.dataset_bytes == row["RESULT_FILE.FILE_SIZE"]
        assert result.output_bytes < result.dataset_bytes
        assert result.reduction_factor > 10

    def test_guest_restrictions(self, engine, archive, row):
        guest = archive.users.user("guest")
        engine.invoke("GetImage", COLID, row, {"slice": "x0", "type": "u"}, user=guest)
        with pytest.raises(AuthorizationError):
            engine.invoke("Subsample", COLID, row, {"factor": "2"}, user=guest)

    def test_operation_links_filter_by_user(self, engine, archive, row):
        guest = archive.users.user("guest")
        full = archive.users.user("turbulence")
        guest_ops = _offered(archive, row, guest)
        full_ops = _offered(archive, row, full)
        assert "Subsample" not in guest_ops
        assert "GetImage" in guest_ops
        assert "Subsample" in full_ops

    def test_conditions_gate_applicability(self, engine, archive, row):
        other = dict(row)
        other["RESULT_FILE.FILE_FORMAT"] = "HDF"
        other["FILE_FORMAT"] = "HDF"
        for operation in archive.document.column(COLID).operations:
            with pytest.raises(OperationNotApplicable):
                engine.invoke(operation.name, COLID, other)
        with pytest.raises(OperationNotApplicable):
            engine.invoke("GetImage", COLID, other, {"slice": "x0", "type": "u"})

    def test_unknown_operation(self, engine, row):
        with pytest.raises(OperationError):
            engine.invoke("NoSuchOp", COLID, row)

    def test_param_validation(self, engine, row):
        with pytest.raises(OperationError):
            engine.invoke("GetImage", COLID, row, {"slice": "x99", "type": "u"})
        with pytest.raises(OperationError):
            engine.invoke("GetImage", COLID, row, {"slice": "x0", "bogus": "1"})

    def test_param_defaults_applied(self, engine, row):
        result = engine.invoke("GetImage", COLID, row)
        assert "slice.pgm" in result.outputs

    def test_url_service(self, engine, row):
        result = engine.invoke("SDB", COLID, row)
        html = result.outputs["sdb.html"].decode()
        assert "Grid: 10 x 10 x 10" in html
        assert "consistent" in html

    def test_unregistered_url_service(self, archive, tmp_path, row):
        from repro.operations import OperationEngine

        bare = OperationEngine(
            archive.db, archive.linker, archive.document,
            str(tmp_path / "bare"),
        )
        with pytest.raises(OperationError):
            bare.invoke("SDB", COLID, row)

    def test_batch_script_attached(self, engine, row):
        result = engine.invoke(
            "GetImage", COLID, row, {"slice": "x0", "type": "v"},
            use_cache=False,
        )
        assert result.batch_script is not None
        assert "unpack GetImage.jar" in result.batch_script.render()

    def test_progress_stages_reported(self, engine, row):
        events = []
        engine.add_progress_listener(
            lambda op, stage, detail: events.append((op, stage))
        )
        engine.invoke(
            "GetImage", COLID, row, {"slice": "x2", "type": "w"},
            use_cache=False,
        )
        stages = [stage for _op, stage in events]
        assert stages == ["resolve", "fetch", "unpack", "execute", "collect"]

    def test_cache_hit(self, engine, row):
        first = engine.invoke("GetImage", COLID, row, {"slice": "x3", "type": "u"})
        second = engine.invoke("GetImage", COLID, row, {"slice": "x3", "type": "u"})
        assert not first.cached
        assert second.cached
        assert second.outputs == first.outputs

    def test_cache_distinguishes_params(self, engine, row):
        a = engine.invoke("GetImage", COLID, row, {"slice": "x4", "type": "u"})
        b = engine.invoke("GetImage", COLID, row, {"slice": "x5", "type": "u"})
        assert not b.cached
        assert a.outputs != b.outputs

    def test_stats_recorded(self, engine, row):
        engine.invoke("FieldStats", COLID, row, use_cache=False)
        summary = engine.stats.summary("FieldStats")
        assert summary is not None
        assert summary.invocations >= 1
        assert summary.total_output_bytes > 0
        assert "FieldStats" in engine.stats.report()

    def test_chaining(self, engine, archive, row):
        user = archive.users.user("turbulence")
        results = engine.invoke_chain(
            ["Subsample", "FieldStats"], COLID, row,
            [{"factor": "2"}, None], user=user,
        )
        import json

        stats = json.loads(results[1].outputs["stats.json"])
        assert stats["grid"] == [5, 5, 5]

    def test_invoke_multi(self, engine, archive):
        rows = archive.result_rows(archive.simulation_keys[0])
        results = engine.invoke_multi(
            "FieldStats", COLID, rows, session_tag="multi-test"
        )
        assert len(results) == len(rows)
        assert all("stats.json" in r.outputs for r in results)


class TestCodeUpload:
    def make_code(self):
        return pack_code_archive({
            "MyCount.py": (
                b"data = open(INPUT_FILENAME, 'rb').read()\n"
                b"out = open('count.txt', 'w')\n"
                b"out.write(str(len(data)))\n"
                b"out.close()\n"
            )
        })

    def test_upload_runs(self, engine, archive, row):
        user = archive.users.user("turbulence")
        result = engine.run_upload(
            COLID, row, self.make_code(), "MyCount", user=user
        )
        assert result.outputs["count.txt"] == str(
            row["RESULT_FILE.FILE_SIZE"]
        ).encode()

    def test_guest_upload_denied(self, engine, archive, row):
        guest = archive.users.user("guest")
        with pytest.raises(AuthorizationError):
            engine.run_upload(COLID, row, self.make_code(), "MyCount", user=guest)

    def test_upload_conditions_enforced(self, engine, archive, row):
        user = archive.users.user("turbulence")
        other = dict(row)
        other["RESULT_FILE.MEASUREMENT"] = "u only"
        other["MEASUREMENT"] = "u only"
        with pytest.raises(OperationNotApplicable):
            engine.run_upload(COLID, other, self.make_code(), "MyCount", user=user)

    def test_upload_sandboxed(self, engine, archive, row):
        user = archive.users.user("turbulence")
        evil = pack_code_archive({"Evil.py": b"import os\nos.remove('x')\n"})
        with pytest.raises(SandboxViolation):
            engine.run_upload(COLID, row, evil, "Evil", user=user)

    def test_upload_missing_entry(self, engine, archive, row):
        user = archive.users.user("turbulence")
        with pytest.raises(OperationError):
            engine.run_upload(
                COLID, row, pack_code_archive({"other.txt": b"x"}),
                "MyCount", user=user,
            )

    def test_upload_stats_recorded(self, engine, archive, row):
        user = archive.users.user("turbulence")
        engine.run_upload(COLID, row, self.make_code(), "MyCount", user=user)
        assert engine.stats.summary("upload:MyCount").invocations >= 1


class TestCacheUnit:
    def make_result(self, payload=b"x" * 10):
        class FakeResult:
            outputs = {"out.bin": payload}
            stdout = ""
            dataset_bytes = 100

        return FakeResult()

    def test_put_get(self):
        cache = OperationCache()
        key = cache.key("Op", "http://h/f", {"a": "1"})
        assert cache.get(key) is None
        cache.put(key, self.make_result())
        assert cache.get(key).outputs == {"out.bin": b"x" * 10}
        assert cache.hits == 1 and cache.misses == 1

    def test_entry_eviction(self):
        cache = OperationCache(max_entries=2)
        for i in range(3):
            cache.put(cache.key("Op", f"u{i}", {}), self.make_result())
        assert len(cache) == 2
        assert cache.get(cache.key("Op", "u0", {})) is None

    def test_byte_eviction(self):
        cache = OperationCache(max_bytes=25)
        for i in range(3):
            cache.put(cache.key("Op", f"u{i}", {}), self.make_result())
        assert cache.stored_bytes <= 25

    def test_oversized_entry_not_stored(self):
        cache = OperationCache(max_bytes=5)
        cache.put(cache.key("Op", "u", {}), self.make_result(b"x" * 100))
        assert len(cache) == 0

    def test_invalidate_dataset(self):
        cache = OperationCache()
        cache.put(cache.key("A", "url1", {}), self.make_result())
        cache.put(cache.key("B", "url1", {}), self.make_result())
        cache.put(cache.key("A", "url2", {}), self.make_result())
        assert cache.invalidate_dataset("url1") == 2
        assert len(cache) == 1

    def test_lru_order(self):
        cache = OperationCache(max_entries=2)
        k1 = cache.key("Op", "u1", {})
        k2 = cache.key("Op", "u2", {})
        cache.put(k1, self.make_result())
        cache.put(k2, self.make_result())
        cache.get(k1)  # refresh k1
        cache.put(cache.key("Op", "u3", {}), self.make_result())
        assert cache.get(k1) is not None
        assert cache.get(k2) is None


class TestStatsUnit:
    def test_aggregation(self):
        stats = OperationStats()
        stats.record("Op", 0.5, 1000, 10)
        stats.record("Op", 1.5, 1000, 30)
        summary = stats.summary("Op")
        assert summary.invocations == 2
        assert summary.mean_elapsed == 1.0
        assert summary.min_elapsed == 0.5
        assert summary.max_elapsed == 1.5
        assert summary.mean_output_bytes == 20
        assert summary.mean_reduction_factor == 50

    def test_cache_hits_tracked(self):
        stats = OperationStats()
        stats.record_cache_hit("Op")
        assert stats.summary("Op").cache_hits == 1

    def test_report_lists_all(self):
        stats = OperationStats()
        stats.record("B", 1, 10, 1)
        stats.record("A", 1, 10, 1)
        report = stats.report()
        assert report.index("A:") < report.index("B:")
