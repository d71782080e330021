"""Tests of the benchmark's own helpers.

Run with ``python -m pytest perfbench/tests``.
"""

import importlib
import os
import statistics
import sys

import pytest

from deploy import TITLE_WORDS, Catalog, deploy
from spans import TARGETS, Tracer, instrument, layer_totals, self_times
from stats import InsufficientSamples, Zipf, percentile, spread


# -- percentile rule -------------------------------------------------------------


def test_p99_needs_ten_samples_beyond_it():
    samples = list(range(1, 1001))  # 1..1000
    assert percentile(samples, 99) == 990  # 10 samples (991..1000) beyond
    with pytest.raises(InsufficientSamples):
        percentile(samples[:999], 99)


def test_median_and_custom_tail():
    assert percentile([5, 1, 3, 2, 4] * 5, 50, min_beyond=1) == 3
    with pytest.raises(InsufficientSamples):
        percentile([1.0] * 30, 90, min_beyond=10)
    with pytest.raises(ValueError):
        percentile([1.0] * 100, 100)


def test_spread_is_iqr_over_median():
    values = [10.0, 12.0, 11.0, 13.0, 9.0, 10.5, 11.5, 12.5, 9.5, 10.0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    assert q1 <= median <= q3
    assert spread(values) == pytest.approx((q3 - q1) / median)


# -- self time -------------------------------------------------------------------------


def _span(sid, parent, name, start, end, req=1):
    return [sid, parent, req, name, start, end]


def test_self_time_subtracts_nested_and_overlapping_children():
    spans = [
        _span(1, None, "request.x", 0.0, 10.0),
        _span(2, 1, "a", 1.0, 4.0),
        _span(3, 1, "b", 3.0, 6.0),       # overlaps a: [3, 4] counts once
        _span(4, 2, "c", 1.5, 2.0),       # nested in a
        _span(5, 1, "d", 9.0, 12.0),      # runs past the parent: clipped
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - (5.0 + 1.0))
    assert own[2] == pytest.approx(3.0 - 0.5)
    assert own[3] == pytest.approx(3.0)
    assert own[4] == pytest.approx(0.5)


def test_layer_totals_count_directly_nested_same_layer_once():
    spans = [
        _span(1, None, "web.dispatch", 0.0, 10.0),
        _span(2, 1, "web.dispatch", 1.0, 9.0),
        _span(3, 2, "sqldb.execute", 2.0, 5.0),
    ]
    totals = layer_totals(spans)
    assert totals["web.dispatch"]["calls"] == 1
    assert totals["web.dispatch"]["incl"] == pytest.approx(10.0)
    assert totals["web.dispatch"]["self"] == pytest.approx(2.0 + 5.0)
    assert totals["sqldb.execute"]["self"] == pytest.approx(3.0)


def test_spans_nest_per_thread_and_carry_the_request_id():
    tracer = Tracer()
    root = tracer.begin("request.page", 7)
    child = tracer.begin("sqldb.execute")
    tracer.end(child)
    tracer.end(root)
    background = tracer.begin("replication.pump")
    tracer.end(background)
    by_name = {s[3]: s for s in tracer.spans}
    assert by_name["sqldb.execute"][1] == by_name["request.page"][0]
    assert by_name["sqldb.execute"][2] == 7
    assert by_name["replication.pump"][1:3] == [None, None]


# -- Zipf sampler ------------------------------------------------------------------------


def test_zipf_same_seed_same_draws():
    first, second = Zipf(100, 1.0, 42), Zipf(100, 1.0, 42)
    draws = [first.draw() for _ in range(500)]
    assert draws == [second.draw() for _ in range(500)]
    assert all(0 <= d < 100 for d in draws)
    other = Zipf(100, 1.0, 43)
    assert draws != [other.draw() for _ in range(500)]


def test_zipf_is_skewed_towards_low_ranks():
    sampler = Zipf(1000, 1.0, 1)
    draws = [sampler.draw() for _ in range(5000)]
    assert sum(1 for d in draws if d < 10) > sum(1 for d in draws if d >= 900)


# -- wrappers ---------------------------------------------------------------------------


def _bindings():
    """Every (module or class, attribute) -> object the tracer may patch."""
    out = {}
    for module_name, qualname, _span_name in TARGETS:
        module = importlib.import_module(module_name)
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            owner = getattr(module, cls_name)
            out[(owner, attr)] = vars(owner)[attr]
        else:
            fn = getattr(module, qualname)
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("repro"):
                    for attr, value in vars(mod).items():
                        if value is fn:
                            out[(mod, attr)] = value
    out[(os, "fsync")] = os.fsync
    return out


def test_every_wrapper_is_removed_after_the_traced_run(tmp_path):
    from repro.sqldb import Database

    sandbox = importlib.import_module("repro.operations.sandbox")
    before = _bindings()
    tracer = Tracer()
    instrument(tracer)
    try:
        assert all(getattr(owner, attr) is not original
                   for (owner, attr), original in before.items())
        db = Database(str(tmp_path / "db"), sync=True)
        db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY)")
        db.execute("INSERT INTO t VALUES (1)")
        names = {s[3] for s in tracer.spans}
        assert {"sqldb.execute", "sqldb.parse", "sqldb.wal.append"} <= names
        assert tracer.counters["fsync"] >= 1
    finally:
        tracer.uninstall()
    assert tracer.installed == 0
    assert _bindings() == before
    assert os.fsync is before[(os, "fsync")]
    assert "exec" not in vars(sandbox)
    recorded = len(tracer.spans), tracer.counters["fsync"]
    db.execute("INSERT INTO t VALUES (2)")  # untraced: originals run
    assert (len(tracer.spans), tracer.counters["fsync"]) == recorded


# -- generator predictions -----------------------------------------------------------------


def test_title_words_match_one_stem_in_any_case():
    for stem, word in TITLE_WORDS.items():
        matches = [s for s in TITLE_WORDS if word.lower() in s.lower()]
        assert matches == [stem]


def test_catalog_predictions_match_the_database():
    catalog = Catalog(40, 1, seed=5)
    archive, contents = deploy(catalog, grid=4, seed=5)
    db = archive.db
    assert len(contents) == 40
    for word in TITLE_WORDS.values():
        sql = "SELECT COUNT(*) FROM SIMULATION WHERE TITLE LIKE ?"
        assert db.execute(sql, (f"%{word}%",)).scalar() == catalog.count_title(word)
    sql = ("SELECT COUNT(*) FROM SIMULATION "
           "WHERE GRID_SIZE >= ? AND REYNOLDS < ?")
    for grid, reynolds in [(64, 400.0), (128, 500.0), (256, 1000.0)]:
        assert db.execute(sql, (grid, reynolds)).scalar() == catalog.count_range(
            grid, reynolds
        )


def test_catalog_depends_only_on_its_seed():
    def titles(seed):
        return [s.title for s in Catalog(50, 4, seed).simulations]

    assert titles(3) == titles(3)
    assert titles(3) != titles(4)
    assert sorted(t.split(" (")[0] for t in titles(3)) == sorted(
        t.split(" (")[0] for t in titles(4)
    )
