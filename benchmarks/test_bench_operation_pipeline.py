"""[F8] The operation invocation pipeline.

The "Input form for operation" / "Output from operation execution"
figures: resolve the operation, fetch the dataset locally, unpack the
archived code, execute it in the sandbox, collect the output.  This bench
times the whole pipeline and its variations: cache cold vs warm, the URL
operation path, and uploaded-code execution under the strict sandbox.
"""

import pytest

from repro.bench import PaperTable
from repro.operations import pack_code_archive

COLID = "RESULT_FILE.DOWNLOAD_RESULT"


@pytest.fixture
def row(archive):
    return archive.result_rows()[0]


def test_bench_fig8_getimage_cold(benchmark, engine, row):
    result = benchmark(
        lambda: engine.invoke(
            "GetImage", COLID, row, {"slice": "x1", "type": "u"},
            use_cache=False,
        )
    )
    assert "slice.pgm" in result.outputs


def test_bench_fig8_getimage_cached(benchmark, engine, row):
    engine.invoke("GetImage", COLID, row, {"slice": "x2", "type": "v"})

    result = benchmark(
        lambda: engine.invoke(
            "GetImage", COLID, row, {"slice": "x2", "type": "v"}
        )
    )
    assert result.cached


def test_bench_fig8_cache_speedup_table(benchmark, engine, row):
    import time

    def measure():
        engine.cache.clear()
        start = time.perf_counter()
        engine.invoke("GetImage", COLID, row, {"slice": "x3", "type": "w"})
        cold = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(10):
            engine.invoke("GetImage", COLID, row, {"slice": "x3", "type": "w"})
        warm = (time.perf_counter() - start) / 10
        return cold, warm

    cold, warm = benchmark.pedantic(measure, rounds=1, iterations=1)
    table = PaperTable(
        "F8",
        "Operation result caching (future-work feature)",
        ["path", "latency", "speedup"],
    )
    table.add_row("cold (sandboxed execution)", f"{cold * 1000:.1f} ms", "1x")
    table.add_row("warm (cache hit)", f"{warm * 1000:.2f} ms", f"{cold / warm:.0f}x")
    table.show()
    assert warm < cold


def test_bench_fig8_url_operation(benchmark, engine, row):
    result = benchmark(
        lambda: engine.invoke("SDB", COLID, row, use_cache=False)
    )
    assert "sdb.html" in result.outputs


def test_bench_fig8_uploaded_code(benchmark, engine, archive, row):

    user = archive.users.user("turbulence")
    code = pack_code_archive({
        "MeanU.py": (
            b"import struct, array\n"
            b"fh = open(INPUT_FILENAME, 'rb')\n"
            b"data = fh.read()\n"
            b"fh.close()\n"
            b"nx, ny, nz = struct.unpack('<iii', data[4:16])\n"
            b"count = nx * ny * nz\n"
            b"u = array.array('f')\n"
            b"u.frombytes(data[16:16 + 4 * count])\n"
            b"out = open('mean.txt', 'w')\n"
            b"out.write(str(sum(u) / count))\n"
            b"out.close()\n"
        )
    })

    result = benchmark(
        lambda: engine.run_upload(COLID, row, code, "MeanU", user=user)
    )
    assert "mean.txt" in result.outputs


def test_bench_fig8_pipeline_stage_breakdown(benchmark, archive, sandbox_root, row):
    """Per-stage timing through the progress-monitoring hooks (another
    future-work feature: runtime monitoring of operation progress)."""
    import time

    engine = archive.make_engine(f"{sandbox_root}/f8stages")
    stamps = []
    engine.add_progress_listener(
        lambda op, stage, detail: stamps.append((stage, time.perf_counter()))
    )

    def run():
        stamps.clear()
        start = time.perf_counter()
        engine.invoke(
            "GetImage", COLID, row, {"slice": "x1", "type": "p"},
            use_cache=False,
        )
        return start, time.perf_counter()

    start, end = benchmark.pedantic(run, rounds=1, iterations=1)
    stages = [s for s, _ in stamps]
    assert stages == ["resolve", "fetch", "unpack", "execute", "collect"]

    table = PaperTable(
        "F8b",
        "GetImage pipeline stage breakdown",
        ["stage", "elapsed to stage start"],
    )
    for stage, stamp in stamps:
        table.add_row(stage, f"{(stamp - start) * 1000:.2f} ms")
    table.add_row("TOTAL", f"{(end - start) * 1000:.2f} ms")
    table.show()
