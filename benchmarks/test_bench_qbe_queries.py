"""[F6] The schema-driven QBE query interface.

The "Searching the archive" / "Result table" figures: a generated query
form translates into SQL and executes against the metadata database.
This bench measures the full QBE path (form params -> SQL -> execution ->
rows) across metadata sizes, and shows the value of indexing the searched
columns.  Expected shape: indexed equality lookups stay ~flat as the
table grows; LIKE scans grow linearly.
"""

import pytest

from repro.bench import PaperTable, metadata_database
from repro.web.qbe import build_query_from_params

ROW_COUNTS = (100, 1_000, 5_000)


def _qbe_lookup(db):
    query = build_query_from_params(
        "SIMULATION",
        {"show_TITLE": "on", "show_GRID_SIZE": "on",
         "val_SIMULATION_KEY": "S00000042", "op_SIMULATION_KEY": "="},
    )
    query.bind_types(db.catalog.schema("SIMULATION"))
    sql, params = query.to_sql()
    return db.execute(sql, params)


def _qbe_like_scan(db):
    query = build_query_from_params(
        "SIMULATION",
        {"show_TITLE": "on", "val_TITLE": "%case 3%", "op_TITLE": "="},
    )
    sql, params = query.to_sql()
    return db.execute(sql, params)


@pytest.mark.parametrize("rows", ROW_COUNTS)
def test_bench_fig6_qbe_point_lookup(benchmark, rows):
    db = metadata_database(rows)
    result = benchmark(lambda: _qbe_lookup(db))
    assert len(result.rows) == 1
    # the lookup must ride the primary-key index
    assert "PK_SIMULATION" in db.explain(
        "SELECT TITLE FROM SIMULATION WHERE SIMULATION_KEY = 'S00000042'"
    )


@pytest.mark.parametrize("rows", ROW_COUNTS)
def test_bench_fig6_qbe_wildcard_scan(benchmark, rows):
    db = metadata_database(rows)
    result = benchmark(lambda: _qbe_like_scan(db))
    assert len(result.rows) == rows // 17 + (1 if rows % 17 > 3 else 0)


def test_bench_fig6_lookup_vs_scan_shape(benchmark):
    """Summary table: lookup stays flat while the scan grows with rows."""
    import time

    def measure():
        out = []
        for rows in ROW_COUNTS:
            db = metadata_database(rows)
            start = time.perf_counter()
            for _ in range(20):
                _qbe_lookup(db)
            lookup = (time.perf_counter() - start) / 20
            start = time.perf_counter()
            for _ in range(5):
                _qbe_like_scan(db)
            scan = (time.perf_counter() - start) / 5
            out.append((rows, lookup, scan))
        return out

    results = benchmark.pedantic(measure, rounds=1, iterations=1)
    table = PaperTable(
        "F6",
        "QBE query cost vs archive size (point lookup vs LIKE scan)",
        ["rows", "indexed lookup", "LIKE scan", "scan/lookup"],
    )
    for rows, lookup, scan in results:
        table.add_row(
            rows, f"{lookup * 1e6:.0f} us", f"{scan * 1e6:.0f} us",
            f"{scan / lookup:.0f}x",
        )
    table.show()

    small_lookup = results[0][1]
    large_lookup = results[-1][1]
    small_scan = results[0][2]
    large_scan = results[-1][2]
    # scans grow ~linearly (50x rows -> >10x time); lookups stay ~flat
    assert large_scan > small_scan * 10
    assert large_lookup < small_lookup * 10


def test_bench_fig6_full_web_search(benchmark, archive, sandbox_root):
    """End-to-end: servlet dispatch + QBE + rendering of the hyperlinked
    result table (the 'Result table from querying SIMULATION' figure)."""
    from repro.web import EasiaApp

    engine = archive.make_engine(f"{sandbox_root}/f6")
    app = EasiaApp(
        archive.db, archive.linker, archive.document, archive.users, engine
    )
    session = app.login("guest", "guest")

    response = benchmark(
        lambda: app.get(
            "/search",
            {"table": "SIMULATION", "show_SIMULATION_KEY": "on",
             "show_TITLE": "on", "show_AUTHOR_KEY": "on",
             "val_GRID_SIZE": "16", "op_GRID_SIZE": "="},
            session_id=session,
        )
    )
    assert response.ok
    assert 'class="fk"' in response.text
    assert 'class="pk"' in response.text


#: RESULT_FILE pages of one timestep, as the portal's QBE form asks for
#: them: every timestep, the first three pages of 10 rows
RESULT_FILE_PAGES = [
    {"table": "RESULT_FILE", "val_TIMESTEP": str(timestep),
     "page": str(page), "page_size": "10"}
    for timestep in range(4) for page in (1, 2, 3)
]


def test_bench_fig6_result_file_pages(benchmark, sandbox_root):
    """The portal's RESULT_FILE pages over 40 simulations x 4 timesteps
    (160 rows).  ``rows_scanned_per_page`` counts the rows the engine
    reads per page: the index-ordered path reads the 10 it shows, a scan
    all 160.  It is a count, so its gate holds on any runner."""
    from repro.turbulence import build_turbulence_archive
    from repro.web import EasiaApp

    archive = build_turbulence_archive(n_simulations=40, timesteps=4, grid=4)
    engine = archive.make_engine(f"{sandbox_root}/f6-pages")
    app = EasiaApp(
        archive.db, archive.linker, archive.document, archive.users, engine
    )
    session = app.login("guest", "guest")
    conn = archive.db._connection()

    def serve():
        scanned = conn.rows_scanned
        for params in RESULT_FILE_PAGES:
            response = app.get("/search", dict(params), session_id=session)
            assert f"page {params['page']} of 4 (40 rows)" in response.text
        return conn.rows_scanned - scanned

    scanned = benchmark(serve)
    benchmark.extra_info["rows_scanned_per_page"] = (
        scanned / len(RESULT_FILE_PAGES)
    )
