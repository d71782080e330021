"""Per-layer metrics of the traced run.

Every metric reads spans recorded by :mod:`spans` (or a counter kept
beside them, or a delta of a counter the program keeps).  Unless its name
says otherwise, ``<layer>.ms`` is the mean inclusive time per call,
``<layer>.self_ms`` the mean self time per call (duration minus the time
child spans cover).  A layer the workload never crosses reads 0.
"""

from __future__ import annotations

import math

from spans import layer_totals, self_times

__all__ = ["PER_LAYER", "per_layer_metrics"]

#: name -> (unit, better); the order is the report order
PER_LAYER = {
    "web.dispatch.self_ms": ("ms", "lower"),
    "web.pool.wait_ms": ("ms", "lower"),
    "web.qbe.ms": ("ms", "lower"),
    "web.render.self_ms": ("ms", "lower"),
    "web.render.rows_per_page": ("rows", "lower"),
    "xuis.condition.calls_per_page": ("count", "lower"),
    "xuis.condition.ms": ("ms", "lower"),
    "sqldb.execute.calls_per_request": ("count", "lower"),
    "sqldb.execute.self_ms": ("ms", "lower"),
    "sqldb.parse.ms": ("ms", "lower"),
    "sqldb.statement_cache.hit_ratio": ("ratio", "higher"),
    "sqldb.rows_scanned_per_row_returned": ("ratio", "lower"),
    "sqldb.writer_lock.wait_ms": ("ms", "lower"),
    "sqldb.wal.append_ms": ("ms", "lower"),
    "sqldb.wal.bytes_per_commit": ("bytes", "lower"),
    "sqldb.wal.fsyncs_per_commit": ("count", "lower"),
    "sqldb.checkpoint.ms": ("ms", "lower"),
    "sqldb.checkpoint.count": ("count", "lower"),
    "datalink.decorate.calls_per_page": ("count", "lower"),
    "datalink.decorate.ms": ("ms", "lower"),
    "datalink.token.validate_ms": ("ms", "lower"),
    "datalink.download.self_ms": ("ms", "lower"),
    "datalink.link.ms_per_commit": ("ms", "lower"),
    "fileserver.serve.ms": ("ms", "lower"),
    "fileserver.serve.mb_per_s": ("MB/s", "higher"),
    "fileserver.denied": ("count", "lower"),
    "fileserver.put.ms": ("ms", "lower"),
    "replication.serve.self_ms": ("ms", "lower"),
    "replication.failovers": ("count", "lower"),
    "replication.pump.ms": ("ms", "lower"),
    "replication.max_lag": ("count", "lower"),
    "operations.invoke.self_ms": ("ms", "lower"),
    "operations.cache.hit_ratio": ("ratio", "higher"),
    "operations.sandbox.ms": ("ms", "lower"),
    "operations.reduction_factor": ("ratio", "higher"),
    "turbulence.kernel.ms": ("ms", "lower"),
    "unattributed_ms": ("ms", "lower"),
    "tracing.overhead_ratio": ("ratio", "higher"),
}


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer_metrics(tracer, counters: dict[str, float], page_classes,
                      max_lag: int, overhead_ratio: float) -> dict[str, float]:
    """The :data:`PER_LAYER` values for one traced phase.

    ``counters`` holds deltas over the phase of the program's own
    counters (statement and operation cache hits/misses, denied requests,
    failovers) plus ``rows_scanned`` over every watched connection.
    """
    spans = tracer.spans
    totals = layer_totals(spans)
    zero = {"calls": 0, "incl": 0.0, "self": 0.0}

    def calls(name):
        return totals.get(name, zero)["calls"]

    def incl_ms(name):
        return 1e3 * _div(totals.get(name, zero)["incl"], calls(name))

    def self_ms(name):
        return 1e3 * _div(totals.get(name, zero)["self"], calls(name))

    roots = [s for s in spans if s[1] is None and s[3].startswith("request.")]
    pages = sum(1 for s in roots if s[3][len("request."):] in page_classes)
    own = self_times(spans)
    commits = calls("sqldb.wal.append")
    c = tracer.counters
    reductions = [r for r in tracer.samples.get("reduction_factor", ())
                  if math.isfinite(r)]
    serve_s = totals.get("fileserver.serve", zero)["incl"]
    return {
        "web.dispatch.self_ms": self_ms("web.dispatch"),
        "web.pool.wait_ms": incl_ms("web.pool.wait"),
        "web.qbe.ms": incl_ms("web.qbe"),
        "web.render.self_ms": self_ms("web.render"),
        "web.render.rows_per_page": _div(c["render.rows"], calls("web.render")),
        "xuis.condition.calls_per_page": _div(calls("xuis.condition"), pages),
        "xuis.condition.ms": incl_ms("xuis.condition"),
        "sqldb.execute.calls_per_request": _div(calls("sqldb.execute"), len(roots)),
        "sqldb.execute.self_ms": self_ms("sqldb.execute"),
        "sqldb.parse.ms": incl_ms("sqldb.parse"),
        "sqldb.statement_cache.hit_ratio": _div(
            counters["stmt_hits"], counters["stmt_hits"] + counters["stmt_misses"]
        ),
        "sqldb.rows_scanned_per_row_returned": _div(
            counters["rows_scanned"], c["execute.rows"]
        ),
        "sqldb.writer_lock.wait_ms": incl_ms("sqldb.writer_lock.wait"),
        "sqldb.wal.append_ms": incl_ms("sqldb.wal.append"),
        "sqldb.wal.bytes_per_commit": _div(c["wal.bytes"], commits),
        "sqldb.wal.fsyncs_per_commit": _div(c["fsync"], commits),
        "sqldb.checkpoint.ms": incl_ms("sqldb.checkpoint"),
        "sqldb.checkpoint.count": calls("sqldb.checkpoint"),
        "datalink.decorate.calls_per_page": _div(calls("datalink.decorate"), pages),
        "datalink.decorate.ms": incl_ms("datalink.decorate"),
        "datalink.token.validate_ms": incl_ms("datalink.token.validate"),
        "datalink.download.self_ms": self_ms("datalink.download"),
        "datalink.link.ms_per_commit": 1e3 * _div(
            totals.get("datalink.link", zero)["incl"], commits
        ),
        "fileserver.serve.ms": incl_ms("fileserver.serve"),
        "fileserver.serve.mb_per_s": _div(c["serve.bytes"] / 1e6, serve_s),
        "fileserver.denied": counters["denied"],
        "fileserver.put.ms": incl_ms("fileserver.put"),
        "replication.serve.self_ms": self_ms("replication.serve"),
        "replication.failovers": counters["failovers"],
        "replication.pump.ms": incl_ms("replication.pump"),
        "replication.max_lag": max_lag,
        "operations.invoke.self_ms": self_ms("operations.invoke"),
        "operations.cache.hit_ratio": _div(
            counters["op_hits"], counters["op_hits"] + counters["op_misses"]
        ),
        "operations.sandbox.ms": incl_ms("operations.sandbox"),
        "operations.reduction_factor": _div(sum(reductions), len(reductions)),
        "turbulence.kernel.ms": incl_ms("turbulence.kernel"),
        "unattributed_ms": 1e3 * _div(sum(own[s[0]] for s in roots), len(roots)),
        "tracing.overhead_ratio": overhead_ratio,
    }
